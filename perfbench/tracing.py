"""Self-time tracing from outside the program.

The benchmark must not change ``src/``, so every span is recorded by
wrapping a public entry point (or the handler table the run loop
already routes through) after the simulator is built. Spans nest: a
``net_deliver`` handler re-dispatches the protocol event it carries,
and an ``arrive`` handler calls the workload generator and
``add_transaction``. Each wrapper therefore charges its callee's
*self* time — its duration minus the part covered by nested spans —
so the busy times of all spans plus the untraced loop residual add up
to the wall time of ``run()``.

Spans are aggregated in memory (count and self time per name) rather
than kept one by one: a traced run dispatches hundreds of thousands of
events, and only the totals feed the per-layer metrics.
"""

from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "instrument_simulator", "layer_of"]

#: Event-kind prefixes of the subsystems that register their own
#: kinds on the simulator's handler table; any other kind is the core
#: runtime's. ``replica_req`` is registered by the core but is
#: replica fan-out work, so it is folded into replication here.
LAYER_PREFIXES = (
    ("cm_", "commit"),
    ("net_", "network"),
    ("dur_", "durability"),
    ("site_", "failures"),
    ("replica_", "replication"),
)


def layer_of(kind: str) -> str:
    """The layer an event kind belongs to."""
    for prefix, layer in LAYER_PREFIXES:
        if kind.startswith(prefix):
            return layer
    return "runtime"


class Tracer:
    """Per-name call counts and self times of wrapped callables."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Calls made while no other span was open.
        self.roots: dict[str, int] = defaultdict(int)
        # Time covered by finished child spans, one slot per open span;
        # the bottom slot collects the top-level spans.
        self._child = [0.0]

    def wrap(self, name: str, fn):
        """``fn`` with every call charged to span ``name``."""
        busy = self.busy
        calls = self.calls
        roots = self.roots
        child = self._child
        clock = perf_counter

        def traced(*args, **kwargs):
            if len(child) == 1:
                roots[name] += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                busy[name] += elapsed - child.pop()
                calls[name] += 1
                child[-1] += elapsed

        return traced

    def total_busy(self) -> float:
        """Self time summed over every span."""
        return sum(self.busy.values())

    def events(self) -> dict[str, int]:
        """Dispatched event counts by kind."""
        return {
            name[len("event."):]: count
            for name, count in self.calls.items()
            if name.startswith("event.")
        }

    def root_events(self) -> int:
        """Events dispatched by the run loop itself, not re-dispatched
        from inside another handler."""
        return sum(
            count for name, count in self.roots.items()
            if name.startswith("event.")
        )

    def event_busy(self) -> dict[str, float]:
        """Handler self time by event kind."""
        return {
            name[len("event."):]: busy
            for name, busy in self.busy.items()
            if name.startswith("event.")
        }


def instrument_simulator(sim, tracer: Tracer) -> None:
    """Wrap a constructed simulator's entry points in ``tracer`` spans.

    Must run after construction and before ``run()``: every subsystem
    has registered its handlers by then, and the run loop reads the
    handler table only when it starts.
    """
    handlers = sim._registry._handlers
    for kind, handler in list(handlers.items()):
        handlers[kind] = tracer.wrap("event." + kind, handler)
    if sim.arrivals is not None:
        # CompiledWorkload is slotted, so its bound method cannot be
        # shadowed on the instance; the arrival process only ever
        # calls ``compiled.generate``, so a stand-in carrying the
        # traced method is enough.
        sim.arrivals.compiled = types.SimpleNamespace(
            generate=tracer.wrap(
                "workload.generate", sim.arrivals.compiled.generate
            )
        )
    sim.add_transaction = tracer.wrap("runtime.add_txn", sim.add_transaction)
    sim._final_steps = tracer.wrap("verdict.replay", sim._final_steps)
    sim._check_serializability = tracer.wrap(
        "verdict.check", sim._check_serializability
    )
    sim._check_conflict_serializability = tracer.wrap(
        "verdict.check", sim._check_conflict_serializability
    )
    if sim.observe is not None:
        sim.observe.finalize = tracer.wrap(
            "observe.finalize", sim.observe.finalize
        )
