"""Probe configuration and the attach-time interposition machinery.

The observability layer is **zero-cost when disabled** by construction:
no hot-path code ever tests an "is tracing on?" flag. Instead, every
probe is installed by *interposition* when — and only when — an
:class:`ObserverHub` attaches to a simulator:

* the run loop's per-event seam: :class:`~repro.sim.events.
  HandlerRegistry` deliberately has no ``__slots__`` so an instance
  attribute can shadow ``dispatch``; the hub installs a wrapper that
  emits an ``event`` probe and then routes to the handler table;
* lock-cell mutations: every :class:`~repro.sim.locks.SiteLockManager`
  already carries an (optional) observer consulted at each grant /
  wait / release; the hub replaces it with a tee that forwards to the
  original observer (the incremental waits-for graph, when present)
  and then emits ``wait``/``unwait``/``hold``/``unhold`` probes;
* result counters: the hub swaps ``sim.result.__class__`` to a
  subclass whose ``__setattr__`` emits a ``counter`` probe for the
  monitored cause/health counters (wounds, deaths, timeouts, detected,
  crash/unavailable/commit aborts, crashes, waits, commit messages,
  prepared blocks) — every one of those counters is incremented by the
  runtime immediately *before* the abort it explains, which is what
  lets the tracer attribute abort causes with a LIFO stack;
* transaction lifecycle: the hub shadows the instance methods the
  runtime and its subsystems invoke through attribute lookup
  (``add_transaction``, ``mark_prepared``, ``finish_commit``,
  ``_abort_task``) with wrappers emitting ``arrive`` / ``prepared`` /
  ``commit`` / ``abort`` probes;
* scheduling boundaries: ``sim.schedule`` is likewise an instance
  method invoked through attribute lookup by every send site (the
  issue/op fan-out, commit protocols, failure injection), so the hub
  shadows it with a wrapper emitting a ``sched`` probe — the payload
  at *send* time. Paired with the later ``event`` dispatch probe this
  exposes every service interval and network hop (queueing/fan-out
  boundaries) without any hot-path test in the disabled mode.

When 1-in-N transaction sampling is requested (``sample_every > 1``),
the hub withholds the per-transaction probes of unsampled
transactions from the *sample-aware* sinks (the tracer and the
attribution engine) while global probes — counters, detector and
crash events — and every ``abort`` / ``prepared`` / ``commit`` probe
still flow, keeping the LIFO abort-cause pairing and
blocked-on-coordinator classification exact. Whole-stream consumers
(the metrics sampler, the flight recorder, custom sinks) always see
everything.

With ``config.observe`` unset, none of this exists and the simulator
executes byte-for-byte the same instructions as before the layer was
added — the transparency suite pins digest equality for the enabled
mode too, since probes only *observe* (they draw no randomness,
schedule no events, and mutate no simulation state).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.metrics import SimulationResult

__all__ = ["ObserveConfig", "ObserverHub", "ProbeSink"]


@dataclass(frozen=True)
class ObserveConfig:
    """What to observe during a run.

    Attributes:
        trace: keep a structured event trace (bounded ring buffer).
        trace_capacity: ring-buffer size of the tracer; older records
            are dropped once the buffer is full.
        metrics_window: width (in simulated time) of the metrics
            sampler's aggregation windows; 0 disables the sampler.
        flight_recorder: directory for flight-recorder dumps; None
            disables the recorder.
        flight_events: how many trailing probe records a dump retains.
        flight_cascade_threshold: aborts within a single dispatched
            event that count as an abort cascade worth dumping.
        attribution: run the latency-attribution engine
            (:mod:`repro.sim.observe.attribution`); the run's result
            gains an ``attribution`` block.
        sample_every: 1-in-N transaction sampling for the sample-aware
            sinks (tracer, attribution) — 1 observes everything.
            Sampled attribution is marked as an estimate.
    """

    trace: bool = False
    trace_capacity: int = 65536
    metrics_window: float = 0.0
    flight_recorder: str | None = None
    flight_events: int = 256
    flight_cascade_threshold: int = 25
    attribution: bool = False
    sample_every: int = 1

    def __post_init__(self):
        if self.sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any consumer is requested at all."""
        return bool(
            self.trace
            or self.metrics_window > 0
            or self.flight_recorder
            or self.attribution
        )


class ProbeSink:
    """Interface of a probe consumer.

    Probes arrive as ``on_probe(kind, time, args)`` with ``kind`` one
    of:

    ========== ============================== ==========================
    kind       args                           meaning
    ========== ============================== ==========================
    event      the raw event payload tuple    an event left the queue
    sched      the raw event payload tuple    an event was scheduled
                                              (probe time = send time)
    wait       (sid, eid, txn)                txn queued at a lock cell
    unwait     (sid, eid, txn)                txn left the queue
    hold       (sid, eid, txn)                txn became a lock holder
    unhold     (sid, eid, txn)                txn released the cell
    counter    (name, new_value)              a result counter changed
    arrive     (txn,)                         open-system arrival
    prepared   (txn,)                         txn entered PREPARED
    commit     (txn,)                         txn committed
    abort      (txn, attempt)                 txn aborted this attempt
    ========== ============================== ==========================

    Under a network model the ``event``/``sched`` payloads include the
    retransmission channel's wrapper events (:data:`NET_EVENT_KINDS`);
    the protocol payload a ``net_deliver`` carries is dispatched — and
    probed — as its own event at delivery time.
    """

    def bind(self, sim) -> None:
        """Called once at attach time with the simulator."""

    def on_probe(self, kind: str, time: float, args: tuple) -> None:
        raise NotImplementedError

    def finalize(self, sim, result: SimulationResult) -> None:
        """Called once after the run loop drains."""


#: Result counters whose writes emit ``counter`` probes. Each abort
#: *cause* counter is bumped by the runtime immediately before the
#: abort it explains, so the probe stream carries enough order to
#: attribute causes.
MONITORED_COUNTERS = frozenset({
    "wounds", "deaths", "timeouts", "detected", "crash_aborts",
    "unavailable_aborts", "commit_aborts", "crashes", "waits",
    "commit_messages", "prepared_blocks",
    # Network-chaos ledger counters: each increment point in the
    # retransmission channel emits a probe, so a traced run's counter
    # stream replays the exact ledger history (``net_inflight`` is
    # derivable as sent - delivered - dropped - duplicates and is not
    # monitored — its churn would double the counter traffic).
    "net_sent", "net_delivered", "net_dropped", "net_duplicates",
    "net_retransmits", "net_acks", "partitions",
    # Durability counters: forces completing, storage faults at
    # crashes, replays, and in-doubt resolutions. The instant
    # protocol forces nothing, so its runs never write them.
    "log_forces", "tail_losses", "torn_writes", "amnesia_wipes",
    "log_replays", "in_doubt_resolved",
})

#: Event kinds owned by the network-chaos layer. ``net_deliver``
#: wraps a logical send's first copy (its payload slot carries the
#: inner message); ``net_redeliver`` is a retransmitted or duplicated
#: copy; ``net_ack``/``net_retransmit`` are the ack path and the
#: backoff timer chain; the partition kinds mark episode edges. All
#: are *global*: they stay out of ``EVENT_TXN_ARG`` (the wrapper's
#: second slot is a channel sequence number, not a transaction id) and
#: are therefore never sampled out — the per-transaction view of a
#: wrapped message comes from the inner event probe the channel emits
#: when it dispatches the payload at delivery time.
NET_EVENT_KINDS = frozenset({
    "net_deliver", "net_redeliver", "net_ack", "net_retransmit",
    "net_partition_start", "net_partition_stop",
})

#: payload index of the transaction id per ``event``/``sched`` payload
#: kind; kinds absent from the table (``detect``, ``arrive``,
#: ``site_crash``/``site_recover``, the ``NET_EVENT_KINDS``) are
#: global and never sampled out.
EVENT_TXN_ARG = {
    "begin": 1, "issue": 1, "op_done": 1, "restart": 1, "timeout": 1,
    "replica_req": 1, "cm_prepare": 1, "cm_vote": 1, "cm_retry": 1,
    "cm_release": 1, "cm_learn": 1, "cm_state": 1,
    "cm_inquire": 1, "cm_status": 1, "cm_refuse": 1,
    "dur_flush": 1, "dur_requery": 1,
}

#: probe kinds delivered to sample-aware sinks for *every*
#: transaction even under 1-in-N sampling: counters and aborts keep
#: the LIFO cause pairing exact; prepared/commit keep the
#: blocked-on-coordinator holder classification exact.
_SAMPLE_ALWAYS = frozenset({"counter", "abort", "prepared", "commit"})

_CELL_PROBES = frozenset({"wait", "unwait", "hold", "unhold"})


def _sample_keep(kind: str, args: tuple, every: int) -> bool:
    """Whether a probe reaches the sample-aware sinks (1-in-N)."""
    if kind in _SAMPLE_ALWAYS:
        return True
    if kind == "event" or kind == "sched":
        idx = EVENT_TXN_ARG.get(args[0])
        return idx is None or args[idx] % every == 0
    if kind == "arrive":
        return args[0] % every == 0
    return args[2] % every == 0  # cell probes: (sid, eid, txn)


class _CountedResult(SimulationResult):
    """A result whose monitored counter writes emit probes.

    Installed by ``result.__class__`` swap at attach time and swapped
    back at finalize (so sweep workers can pickle the result).
    """

    _probe = None  # set per instance at attach

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name in MONITORED_COUNTERS and self._probe is not None:
            self._probe(name, value)


class ObserverHub:
    """Builds the configured sinks and interposes them on a simulator.

    Construction wires nothing; :meth:`attach` installs every probe.
    Extra custom sinks may be passed alongside the configured ones::

        hub = ObserverHub(sim, ObserveConfig(trace=True), [my_sink])
        hub.attach()
        sim.observe = hub   # so run() finalizes it
    """

    def __init__(self, sim, config: ObserveConfig, extra_sinks=()):
        # Local imports: the consumers import io/dot machinery the hot
        # path never needs, and keeping them here keeps the probes
        # module dependency-light.
        from repro.sim.observe.attribution import LatencyAttributor
        from repro.sim.observe.flight import FlightRecorder
        from repro.sim.observe.sampler import MetricsSampler
        from repro.sim.observe.trace import EventTracer

        self.sim = sim
        self.config = config
        self.tracer: EventTracer | None = (
            EventTracer(config.trace_capacity) if config.trace else None
        )
        self.sampler: MetricsSampler | None = (
            MetricsSampler(config.metrics_window, sim.config.warmup_time)
            if config.metrics_window > 0
            else None
        )
        self.flight: FlightRecorder | None = (
            FlightRecorder(
                config.flight_recorder,
                last_n=config.flight_events,
                cascade_threshold=config.flight_cascade_threshold,
            )
            if config.flight_recorder
            else None
        )
        self.attribution: LatencyAttributor | None = (
            LatencyAttributor(sample_every=config.sample_every)
            if config.attribution
            else None
        )
        self._sinks: list[ProbeSink] = [
            sink
            for sink in (
                self.tracer, self.sampler, self.flight, self.attribution
            )
            if sink is not None
        ]
        self._sinks.extend(extra_sinks)
        # 1-in-N sampling: the tracer and the attribution engine are
        # sample-aware; whole-stream sinks always see everything.
        self._every = config.sample_every
        if self._every > 1:
            aware = [
                s
                for s in (self.tracer, self.attribution)
                if s is not None
            ]
            self._full: tuple = tuple(
                s for s in self._sinks if s not in aware
            )
            self._sampled: tuple = tuple(aware)
        else:
            self._full = tuple(self._sinks)
            self._sampled = ()
        self._attached = False

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def _emit(self, kind: str, args: tuple) -> None:
        t = self.sim._now
        for sink in self._full:
            sink.on_probe(kind, t, args)
        if self._sampled and _sample_keep(kind, args, self._every):
            for sink in self._sampled:
                sink.on_probe(kind, t, args)

    def _on_counter(self, name: str, value) -> None:
        self._emit("counter", (name, value))

    # ------------------------------------------------------------------
    # interposition
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Install every probe on the simulator (idempotent)."""
        if self._attached:
            return
        self._attached = True
        sim = self.sim
        for sink in self._sinks:
            sink.bind(sim)
        sinks = tuple(self._sinks)

        # 1. Per-event probe through the registry's dispatch seam.
        registry = sim._registry
        handlers = registry._handlers  # shared dict; grows in place

        if not self._sampled:
            def dispatch(
                payload, _handlers=handlers, _sinks=sinks, _sim=sim
            ):
                now = _sim._now
                for sink in _sinks:
                    sink.on_probe("event", now, payload)
                _handlers[payload[0]](*payload[1:])
        else:
            def dispatch(
                payload, _handlers=handlers, _full=self._full,
                _sampled=self._sampled, _sim=sim, _every=self._every,
                _txn_arg=EVENT_TXN_ARG.get,
            ):
                now = _sim._now
                for sink in _full:
                    sink.on_probe("event", now, payload)
                idx = _txn_arg(payload[0])
                if idx is None or payload[idx] % _every == 0:
                    for sink in _sampled:
                        sink.on_probe("event", now, payload)
                _handlers[payload[0]](*payload[1:])

        registry.dispatch = dispatch

        # 1b. Scheduling probes: ``sim.schedule`` is invoked through
        # attribute lookup by every send site, so an instance-attribute
        # shadow exposes each payload at *send* time — the opening
        # boundary of every service interval and network hop.
        orig_schedule = sim.schedule

        def schedule(
            delay, payload, _orig=orig_schedule, _emit=self._emit
        ):
            _emit("sched", payload)
            _orig(delay, payload)

        sim.schedule = schedule

        # 2. Lock-cell probes: tee in front of each site's observer.
        for sid, site in enumerate(sim._site_list):
            site.observer = _TeeCellObserver(self, sid, site.observer)

        # 3. Counter probes via the result-class swap.
        result = sim.result
        result.__class__ = _CountedResult
        object.__setattr__(result, "_probe", self._on_counter)

        # 4. Lifecycle probes via instance-method shadowing. All four
        # originals are invoked through attribute lookup at call time
        # (by the commit protocols, the arrival process, and the abort
        # cascade driver), so shadowing intercepts every call site.
        emit = self._emit

        orig_add = sim.add_transaction

        def add_transaction(txn):
            index = orig_add(txn)
            emit("arrive", (index,))
            return index

        sim.add_transaction = add_transaction

        orig_prepared = sim.mark_prepared

        def mark_prepared(inst):
            orig_prepared(inst)
            emit("prepared", (inst.index,))

        sim.mark_prepared = mark_prepared

        orig_commit = sim.finish_commit

        def finish_commit(inst):
            orig_commit(inst)
            emit("commit", (inst.index,))

        sim.finish_commit = finish_commit

        # _abort_task is a generator function; the runtime drives a
        # freshly created generator immediately (LIFO cascade), and
        # the task body aborts iff the instance is still RUNNING at
        # creation — so emitting here, under the same guard, reports
        # exactly the aborts that happen.
        from repro.sim.runtime import _RUNNING

        orig_abort_task = sim._abort_task

        def _abort_task(inst):
            if inst.status == _RUNNING:
                emit("abort", (inst.index, inst.attempt))
            return orig_abort_task(inst)

        sim._abort_task = _abort_task

    def finalize(self) -> None:
        """Flush sinks onto the result and restore picklability."""
        sim = self.sim
        result = sim.result
        for sink in self._sinks:
            sink.finalize(sim, result)
        if result.__class__ is _CountedResult:
            if "_probe" in result.__dict__:
                del result.__dict__["_probe"]
            result.__class__ = SimulationResult


class _TeeCellObserver:
    """Forwards cell mutations to the original observer, then probes.

    The original observer (the incremental waits-for graph's per-site
    adapter) runs first so every probe fires against fully updated
    graph state.
    """

    __slots__ = ("_hub", "_sid", "_inner")

    def __init__(self, hub: ObserverHub, sid: int, inner):
        self._hub = hub
        self._sid = sid
        self._inner = inner

    def wait(self, entity: int, txn: int) -> None:
        inner = self._inner
        if inner is not None:
            inner.wait(entity, txn)
        self._hub._emit("wait", (self._sid, entity, txn))

    def unwait(self, entity: int, txn: int) -> None:
        inner = self._inner
        if inner is not None:
            inner.unwait(entity, txn)
        self._hub._emit("unwait", (self._sid, entity, txn))

    def hold(self, entity: int, txn: int) -> None:
        inner = self._inner
        if inner is not None:
            inner.hold(entity, txn)
        self._hub._emit("hold", (self._sid, entity, txn))

    def unhold(self, entity: int, txn: int) -> None:
        inner = self._inner
        if inner is not None:
            inner.unhold(entity, txn)
        self._hub._emit("unhold", (self._sid, entity, txn))
