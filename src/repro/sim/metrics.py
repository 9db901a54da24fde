"""Result records and summary formatting for simulation runs."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from repro.util.render import format_table

__all__ = ["SimulationResult", "percentile", "percentiles"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values``.

    ``q`` is in percent: ``percentile(vals, 95)`` is the smallest value
    such that at least 95% of the samples are <= it. Empty ``values``
    yields 0.0.
    """
    return percentiles(values, (q,))[0]


def percentiles(
    values: list[float], qs: "tuple[float, ...] | list[float]"
) -> list[float]:
    """Nearest-rank percentiles for every ``q`` in ``qs``, sorting once.

    Equivalent to ``[percentile(values, q) for q in qs]`` but the input
    is sorted a single time however many quantiles are requested (the
    p50/p95/p99 reporting path used to sort the same list three times).
    Empty ``values`` yields 0.0 for every requested quantile; empty
    ``qs`` yields an empty list either way.
    """
    if not values:
        return [0.0] * len(qs)
    ordered = sorted(values)
    n = len(ordered)
    return [
        ordered[min(max(math.ceil(q / 100.0 * n), 1), n) - 1] for q in qs
    ]


@dataclass
class SimulationResult:
    """Everything observed during one simulation run.

    Attributes:
        policy: policy name.
        commit_protocol: atomic-commit protocol name.
        replica_protocol: replica-control protocol name (``rowa``,
            ``rowa-available``, ``quorum``).
        replication_factor: copies of each entity in the run's schema
            (1 = the paper's single-copy model).
        committed: number of transactions that committed.
        total: number of transactions in the system.
        end_time: simulated time at which the run ended.
        aborts: total aborts (all causes).
        wounds: aborts caused by wound-wait.
        deaths: self-aborts caused by wait-die.
        timeouts: aborts caused by lock-wait timeouts.
        detected: aborts issued by the deadlock detector.
        crash_aborts: aborts caused by site crashes (failure injection).
        unavailable_aborts: the subset of ``crash_aborts`` where the
            replica-control protocol found no legal replica set for a
            lock (rowa with a crashed replica, quorum with a lost
            majority) — replica-level unavailability rather than loss
            of the transaction's own volatile state.
        commit_aborts: aborts decided by a failed atomic-commit round
            (a participant crashed before voting).
        crashes: site crashes injected during the run.
        deadlocked: True if the run ended in a permanent deadlock
            (blocking policy only).
        deadlock_cycle: the wait-for cycle at the deadlock, as
            transaction indices.
        waits: number of lock requests that had to wait.
        wait_time: total simulated time spent waiting for locks.
        commit_messages: commit-protocol messages sent (PREPARE, VOTE,
            COMMIT/ABORT, ACK, and retransmissions).
        acceptor_messages: the subset of ``commit_messages`` addressed
            to or relayed by Paxos Commit acceptors (votes to the 2F+1
            registrars, accepted-state relays to the leader, and
            phase-1 recovery round trips after a takeover). Zero for
            the non-replicated-coordinator protocols.
        coordinator_takeovers: commit rounds whose leadership moved to
            another acceptor site because the current leader stayed
            down past ``commit_timeout`` (Paxos Commit's non-blocking
            path; always zero for 2PC, which can only stall).
        prepared_blocks: lock conflicts where a wound was downgraded to
            a wait because the holder was PREPARED (or committed with
            its release message still in flight).
        prepared_block_time: total time waiters spent blocked behind a
            PREPARED holder — the blocked-on-coordinator time. Overlaps
            wait_time: it attributes a *portion* of the waiting to the
            commit protocol.
        latencies: per-transaction commit latency (first start to
            commit), indexed like the system.
        exec_latencies: execution-phase latency (first start to last
            operation), -1 for uncommitted transactions.
        commit_latencies: commit-phase latency (last operation to the
            commit decision), -1 for uncommitted transactions. Zero
            under the instant protocol.
        serializable: whether the committed trace is serializable
            (filled by the runtime via the D(S) test); None if the run
            did not commit everything.
        truncated: True if the run hit the event or time budget.
        injected: transactions injected by the open-system arrival
            process (0 for closed-batch runs; the closed batch is
            counted in ``total`` alongside the injected arrivals).
        warmup_time: start of the measurement window; commits and
            in-flight time before it are excluded from the steady-state
            metrics (0 measures the whole run).
        measured_committed: commits inside the measurement window.
        inflight_area: integral of the in-flight transaction count over
            the measurement window (started-but-uncommitted clients,
            including aborted ones awaiting restart); divided by the
            window length it gives the mean concurrency level.
        start_times: per-transaction first-start time, indexed like the
            system (used to restrict latency percentiles to the
            steady-state window).
        read_avail_area: integral over simulated time of the fraction
            of entities whose replica-control *read* rule was
            satisfiable (a read quorum/replica was reachable).
        write_avail_area: same for the write rule.
        service_avail_area: same for both rules at once — divided by
            ``end_time`` this is the headline availability metric.
        net_sent: physical message copies put on the wire by the
            network model (originals, retransmissions, duplicates;
            data only — acks are counted in ``net_acks``). The ledger
            identity ``net_sent == net_delivered + net_dropped +
            net_duplicates + net_inflight`` holds at every instant;
            all counters stay 0 without a network model.
        net_delivered: copies that arrived fresh and dispatched their
            payload.
        net_dropped: copies eaten in flight — loss draw, partition
            cut, or arrival at a crashed site.
        net_duplicates: copies suppressed by sequence-number dedup
            (the payload had already been dispatched).
        net_retransmits: timer-driven resends of unacked messages.
        net_acks: acknowledgement copies put on the wire.
        net_inflight: copies still in the event queue when the run
            ended (the in-flight-at-end term of the ledger).
        partitions: partition episodes that started during the run.
        partition_time: total simulated time some partition cut was
            active (episodes never overlap, so this is a plain sum).
        log_forces: forced write-ahead-log writes completed (prepare,
            decision, acceptor accept/ballot records); each cost
            ``flush_time`` on its site's timeline. Zero under the
            instant protocol, which forces nothing.
        tail_losses: crashes where the log's tail record was lost —
            the disk acknowledged a write it never persisted.
        torn_writes: crashes where the final log record was torn
            (partially written, unreadable at replay).
        amnesia_wipes: crashes that wiped a site's entire log; the
            site rejoined as a fresh replica.
        log_replays: recoveries that replayed a non-empty log.
        in_doubt_resolved: in-doubt (prepared, undecided) participant
            states resolved — by an arriving decision, a
            ``cm_status`` inquiry answer, or presumption against a
            stale attempt.
        retained_lock_time: total time lock entries sat retained past
            their holder's PREPARE, summed over entries (the
            window other transactions can block on a vote that is
            waiting for its coordinator — the EXP-RECOVERY metric).
        timeseries: windowed metrics recorded by the observability
            sampler (:class:`repro.sim.observe.MetricsSampler`), as a
            plain-JSON dict; None unless the run enabled it.
        attribution: contention analytics recorded by the latency
            attribution engine (:class:`repro.sim.observe.
            LatencyAttribution`) — conserved latency segments, hot
            cells, blame graph, abort cost — as a plain-JSON dict;
            None unless the run enabled it.
    """

    policy: str
    commit_protocol: str = "instant"
    replica_protocol: str = "rowa"
    replication_factor: int = 1
    committed: int = 0
    total: int = 0
    end_time: float = 0.0
    aborts: int = 0
    wounds: int = 0
    deaths: int = 0
    timeouts: int = 0
    detected: int = 0
    crash_aborts: int = 0
    unavailable_aborts: int = 0
    commit_aborts: int = 0
    crashes: int = 0
    deadlocked: bool = False
    deadlock_cycle: tuple[int, ...] = ()
    waits: int = 0
    wait_time: float = 0.0
    commit_messages: int = 0
    acceptor_messages: int = 0
    coordinator_takeovers: int = 0
    prepared_blocks: int = 0
    prepared_block_time: float = 0.0
    latencies: list[float] = field(default_factory=list)
    exec_latencies: list[float] = field(default_factory=list)
    commit_latencies: list[float] = field(default_factory=list)
    serializable: bool | None = None
    truncated: bool = False
    injected: int = 0
    warmup_time: float = 0.0
    measured_committed: int = 0
    inflight_area: float = 0.0
    start_times: list[float] = field(default_factory=list)
    read_avail_area: float = 0.0
    write_avail_area: float = 0.0
    service_avail_area: float = 0.0
    net_sent: int = 0
    net_delivered: int = 0
    net_dropped: int = 0
    net_duplicates: int = 0
    net_retransmits: int = 0
    net_acks: int = 0
    net_inflight: int = 0
    partitions: int = 0
    partition_time: float = 0.0
    log_forces: int = 0
    tail_losses: int = 0
    torn_writes: int = 0
    amnesia_wipes: int = 0
    log_replays: int = 0
    in_doubt_resolved: int = 0
    retained_lock_time: float = 0.0
    timeseries: dict | None = None
    attribution: dict | None = None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The result as a plain-JSON dict (tuples become lists)."""
        data = dataclasses.asdict(self)
        data["deadlock_cycle"] = list(data["deadlock_cycle"])
        return data

    def to_json(self, indent: int | None = None) -> str:
        """JSON text round-trippable through :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        Unknown keys are ignored, so records written by newer versions
        (or sweep records carrying extra columns) still load.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "deadlock_cycle" in kwargs:
            kwargs["deadlock_cycle"] = tuple(kwargs["deadlock_cycle"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def _availability(self, area: float) -> float:
        if self.end_time <= 0:
            return 1.0
        return area / self.end_time

    @property
    def read_availability(self) -> float:
        """Fraction of run time the read rule was satisfiable
        (entity-averaged)."""
        return self._availability(self.read_avail_area)

    @property
    def write_availability(self) -> float:
        """Fraction of run time the write rule was satisfiable
        (entity-averaged)."""
        return self._availability(self.write_avail_area)

    @property
    def availability(self) -> float:
        """Fraction of run time both rules held — full service."""
        return self._availability(self.service_avail_area)

    @property
    def throughput(self) -> float:
        """Commits per unit simulated time (0 for empty runs)."""
        if self.end_time <= 0:
            return 0.0
        return self.committed / self.end_time

    @staticmethod
    def _mean_done(latencies: list[float]) -> float:
        done = [lat for lat in latencies if lat >= 0]
        if not done:
            return 0.0
        return sum(done) / len(done)

    @property
    def mean_latency(self) -> float:
        return self._mean_done(self.latencies)

    @property
    def mean_exec_latency(self) -> float:
        """Mean execution-phase latency of committed transactions."""
        return self._mean_done(self.exec_latencies)

    @property
    def mean_commit_latency(self) -> float:
        """Mean commit-phase latency of committed transactions."""
        return self._mean_done(self.commit_latencies)

    @property
    def measured_duration(self) -> float:
        """Length of the steady-state measurement window."""
        return max(0.0, self.end_time - self.warmup_time)

    @property
    def steady_throughput(self) -> float:
        """Commits per unit time inside the measurement window."""
        duration = self.measured_duration
        if duration <= 0:
            return 0.0
        return self.measured_committed / duration

    @property
    def mean_inflight(self) -> float:
        """Time-averaged in-flight concurrency over the window."""
        duration = self.measured_duration
        if duration <= 0:
            return 0.0
        return self.inflight_area / duration

    def _window_latencies(self, latencies: list[float]) -> list[float]:
        """Committed latencies of transactions started in the window."""
        if not self.start_times:
            return [lat for lat in latencies if lat >= 0]
        return [
            lat
            for lat, start in zip(latencies, self.start_times)
            if lat >= 0 and start >= self.warmup_time
        ]

    def latency_percentiles(self, kind: str = "total") -> dict[str, float]:
        """p50/p95/p99 latency of committed steady-state transactions.

        Args:
            kind: ``"total"`` (start to commit), ``"exec"`` (start to
                last operation), or ``"commit"`` (commit-phase only).
        """
        sources = {
            "total": self.latencies,
            "exec": self.exec_latencies,
            "commit": self.commit_latencies,
        }
        try:
            values = self._window_latencies(sources[kind])
        except KeyError:
            raise ValueError(
                f"unknown latency kind {kind!r}; "
                f"choose from {sorted(sources)}"
            ) from None
        p50, p95, p99 = percentiles(values, (50, 95, 99))
        return {"p50": p50, "p95": p95, "p99": p99}

    @property
    def aborts_by_cause(self) -> dict[str, int]:
        """Abort counts keyed by cause."""
        return {
            "wound": self.wounds,
            "death": self.deaths,
            "timeout": self.timeouts,
            "detected": self.detected,
            "crash": self.crash_aborts,
            "commit": self.commit_aborts,
        }

    def summary_row(self) -> list[object]:
        """One table row for multi-policy comparisons."""
        return [
            self.policy,
            self.commit_protocol,
            f"{self.committed}/{self.total}",
            f"{self.end_time:.1f}",
            self.aborts,
            "yes" if self.deadlocked else "no",
            f"{self.mean_latency:.1f}",
            f"{self.mean_commit_latency:.1f}",
            self.commit_messages,
            "-" if self.serializable is None
            else ("yes" if self.serializable else "NO"),
        ]

    @staticmethod
    def summary_table(results: list["SimulationResult"]) -> str:
        """Aligned comparison table across policies."""
        headers = [
            "policy", "commit", "committed", "time", "aborts", "deadlock",
            "latency", "c-latency", "msgs", "serializable",
        ]
        return format_table(
            headers, [r.summary_row() for r in results]
        )

    def open_summary_row(self) -> list[object]:
        """One table row for open-system (steady-state) comparisons."""
        total = self.latency_percentiles("total")
        exec_p = self.latency_percentiles("exec")
        commit_p = self.latency_percentiles("commit")
        return [
            self.policy,
            self.commit_protocol,
            self.injected,
            f"{self.committed}/{self.total}",
            self.aborts,
            f"{self.steady_throughput:.3f}",
            f"{self.mean_inflight:.1f}",
            f"{total['p50']:.1f}",
            f"{total['p95']:.1f}",
            f"{total['p99']:.1f}",
            f"{exec_p['p95']:.1f}",
            f"{commit_p['p95']:.1f}",
        ]

    @staticmethod
    def open_summary_table(results: list["SimulationResult"]) -> str:
        """Steady-state comparison table for open-system runs."""
        headers = [
            "policy", "commit", "injected", "committed", "aborts",
            "thruput", "inflight", "p50", "p95", "p99", "exec-p95",
            "commit-p95",
        ]
        return format_table(
            headers, [r.open_summary_row() for r in results]
        )
