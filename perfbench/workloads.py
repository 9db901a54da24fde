"""The benchmark's workloads: inputs from a seed, and their checks.

Three workloads drive the simulator and one drives the paper's static
algorithms. Why each exists, and which layer metrics each should move,
is recorded in ``perfbench/README.md``.

Every input is a function of ``seed`` alone: the simulator workloads
pass it as both the run seed (arrival clock, jitter, crashes, network
draws) and the workload seed (the database schema), and ``certify``
draws its systems from a stored pool with ``random.Random(seed)``.
All policies are wound-wait, which cannot wedge: ``detect`` saturates
at these shapes and wedges under two-phase commit, so it would not
give a steady workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from repro.core.schedule import IllegalScheduleError
from repro.core.system import TransactionSystem
from repro.io.jsonfmt import system_from_json
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.observe import ObserveConfig
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec

__all__ = [
    "CERTIFY",
    "CertifyBatch",
    "SIM_WORKLOADS",
    "SimWorkload",
    "WORKLOAD_NAMES",
    "behaviour_digest",
    "check_simulation",
]

# Larger transactions over a mid-size database: 3-5 entities and 1-3
# actions each, all exclusive locks, single copy.
OPEN_SHAPE = WorkloadSpec(
    n_entities=64, n_sites=8, entities_per_txn=(3, 5),
    actions_per_entity=(1, 3), hotspot_skew=0.4,
)

# Small read/write transactions at replication factor 3.
FULL_SHAPE = WorkloadSpec(
    n_entities=48, n_sites=8, entities_per_txn=(2, 3),
    actions_per_entity=(0, 1), hotspot_skew=0.4, read_fraction=0.5,
    replication_factor=3,
)

# Open runs stop on the transaction budget alone: the time and event
# horizons sit far beyond what the budget needs, so a run that hits
# either one is reported as truncated and fails its check.
_OPEN_RUN = dict(
    warmup_time=50.0, max_time=1e9, max_events=100_000_000,
)

# Fields of SimulationResult folded into the behaviour digest: the
# same surface as benchmarks/bench_core_speed.py, plus the network,
# durability and Paxos counters of the later layers. A fixed list (not
# every field) keeps digests comparable when a result gains a field.
DIGEST_FIELDS = (
    "policy", "commit_protocol", "replica_protocol", "replication_factor",
    "committed", "total", "end_time", "aborts", "wounds", "deaths",
    "timeouts", "detected", "crash_aborts", "unavailable_aborts",
    "commit_aborts", "crashes", "deadlocked", "deadlock_cycle", "waits",
    "wait_time", "commit_messages", "prepared_blocks",
    "prepared_block_time", "latencies", "exec_latencies",
    "commit_latencies", "serializable", "truncated", "injected",
    "measured_committed", "inflight_area",
    "acceptor_messages", "coordinator_takeovers", "net_sent",
    "net_delivered", "net_dropped", "net_duplicates", "net_retransmits",
    "net_acks", "net_inflight", "partitions", "log_forces",
    "tail_losses", "torn_writes", "amnesia_wipes", "log_replays",
    "in_doubt_resolved", "retained_lock_time",
)


def behaviour_digest(result) -> str:
    """A short hash of the simulated behaviour (not of its speed)."""
    blob = ";".join(f"{f}={getattr(result, f)!r}" for f in DIGEST_FIELDS)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SimWorkload:
    """One simulator workload: a run configuration and its checks.

    Attributes:
        name: the workload name used on the command line.
        transactions: open-system arrivals injected per run.
        config: the run configuration, minus the seeds.
        validate_schedule: check that the committed trace replays as a
            legal Schedule (only meaningful without shared locks).
        check_attribution: check the observers' latency-attribution
            conservation identity.
    """

    name: str
    transactions: int
    config: SimulationConfig
    validate_schedule: bool = False
    check_attribution: bool = False

    def run_config(self, seed: int, observe: bool = True) -> SimulationConfig:
        """The full configuration for ``seed``.

        ``observe=False`` drops the observers, giving the plain run the
        ``observed`` workload's overhead is measured against.
        """
        config = dataclasses.replace(
            self.config, seed=seed, workload_seed=seed,
            max_transactions=self.transactions,
        )
        if not observe:
            config = dataclasses.replace(config, observe=None)
        return config

    def build(self, seed: int, observe: bool = True) -> Simulator:
        """Set up one run: inputs plus ``Simulator`` construction."""
        return Simulator(
            TransactionSystem([]), "wound-wait",
            self.run_config(seed, observe),
        )


SIM_WORKLOADS = {
    wl.name: wl
    for wl in (
        SimWorkload(
            name="open-instant",
            transactions=4000,
            config=SimulationConfig(
                arrival_rate=0.3, workload=OPEN_SHAPE, **_OPEN_RUN,
            ),
            validate_schedule=True,
        ),
        SimWorkload(
            name="full-stack",
            transactions=2000,
            config=SimulationConfig(
                arrival_rate=0.5, workload=FULL_SHAPE,
                replica_protocol="quorum", commit_protocol="two-phase",
                network_delay=0.5,
                network=NetworkConfig(
                    loss_rate=0.02, dup_rate=0.01, jitter=0.2,
                ),
                durability=DurabilityConfig(flush_time=0.2),
                failure_rate=0.001, repair_time=10.0,
                **_OPEN_RUN,
            ),
        ),
        SimWorkload(
            name="observed",
            transactions=1500,
            config=SimulationConfig(
                arrival_rate=0.3, workload=OPEN_SHAPE,
                observe=ObserveConfig(
                    trace=True, metrics_window=25.0, attribution=True,
                ),
                **_OPEN_RUN,
            ),
            check_attribution=True,
        ),
    )
}


def check_simulation(wl: SimWorkload, sim: Simulator, result) -> list[str]:
    """Correctness errors of a finished run (empty when it passed).

    ``serializable=False`` is not an error: the random-shape
    transactions are not two-phase locked, and the paper allows
    unsafe systems.
    """
    errors = []
    if result.injected != wl.transactions:
        errors.append(
            f"injected {result.injected} of {wl.transactions} transactions"
        )
    if result.committed != result.total:
        errors.append(f"committed {result.committed} of {result.total}")
    if result.truncated:
        errors.append("run truncated by its time or event horizon")
    if result.deadlocked:
        errors.append(f"run deadlocked on cycle {result.deadlock_cycle}")
    for name, site in sim.lock_tables().items():
        left = site.involved()
        if left:
            errors.append(
                f"site {name} lock table not empty: transactions {left}"
            )
    if wl.validate_schedule:
        try:
            sim.committed_schedule()
        except IllegalScheduleError as exc:
            errors.append(f"committed trace is not a legal schedule: {exc}")
    if wl.check_attribution:
        summary = result.attribution or {}
        conservation = summary.get("conservation", {})
        if not conservation.get("exact"):
            errors.append("attribution segments do not sum to latency")
        if conservation.get("min_service", 0.0) < -1e-9:
            errors.append(
                f"negative service segment ({conservation['min_service']})"
            )
        if not summary.get("blame", {}).get("edge_count"):
            errors.append("attribution blame graph is empty")
    return errors


# ----------------------------------------------------------------------
# certify: the paper's static algorithms
# ----------------------------------------------------------------------

# The batch is drawn by seed from a fixed pool of systems stored under
# perfbench/pool/ (written by make_pool.py, which says how they were
# chosen), so it depends on the seed alone and not on the searches
# being measured.
# (a) The NP-hard side: small random-shape systems of 2 and 3
# transactions, the inputs of `repro deadlock` and `repro analyze`.
# Five in six have three transactions, so the median latency falls
# among the 3-transaction systems rather than on the step between the
# two sizes.
# (b) The fixed-k side: ordered two-phase-locked systems of 7
# transactions with a complete interaction graph, which certify as safe
# and deadlock-free, through the Theorem 3/4 audit.
POOL = Path(__file__).resolve().parent / "pool"
SMALL_SYSTEMS = {"small2": 30, "small3": 150}
LARGE_SYSTEMS = {"large7": 3}


def _draw(rng: random.Random, counts: dict[str, int]) -> list:
    """``counts[name]`` systems of each pool file, picked by ``rng``."""
    systems = []
    for name, count in counts.items():
        lines = (POOL / f"{name}.jsonl").read_text().splitlines()
        systems += [system_from_json(line) for line in rng.sample(lines, count)]
    return systems


@dataclass(frozen=True)
class CertifyBatch:
    """The systems one ``certify`` run certifies, in order."""

    small: tuple[TransactionSystem, ...]
    large: tuple[TransactionSystem, ...]

    @classmethod
    def generate(cls, seed: int) -> "CertifyBatch":
        rng = random.Random(seed)
        small = _draw(rng, SMALL_SYSTEMS)
        large = _draw(rng, LARGE_SYSTEMS)
        return cls(tuple(small), tuple(large))


CERTIFY = "certify"
WORKLOAD_NAMES = (*SIM_WORKLOADS, CERTIFY)
