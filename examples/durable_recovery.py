"""Durable recovery: write-ahead logging under crashes and bad disks.

Every site keeps a simulated write-ahead log (``repro.sim.durability``):
every protocol force point — the participant's prepare record before
its VOTE-YES, the coordinator's decision record before release
fan-out, the Paxos acceptor's accept record before it registers a
vote — costs a ``flush_time`` (free at the default 0; this demo pays
0.5), and a crash truncates the site's volatile state to whatever its
log actually holds. Recovery is replay: the site re-acquires exactly the log-implied retained locks, reconstructs
its in-doubt set from prepare-without-decision records, and asks the
coordinator (``cm_inquire``) until every in-doubt transaction is
resolved — with presumed-abort answering unknown transactions "abort"
straight from record absence, for free.

This demo runs the same crashing workload (site failures plus a disk
that loses the newest log record on 30% of crashes) under the three
forcing protocols and reports the durability ledger: forces paid,
replays run, in-doubt participants resolved, and tail records lost.
It then verifies the recovery invariant the conformance suite pins —
every replay re-acquired *exactly* the locks its log implied — and
the presumed-abort optimisation: plain 2PC must force a decision
record even for rounds that abort, while presumed-abort logs nothing
about them — record absence *is* the abort decision.

Run:  python examples/durable_recovery.py
"""

import random

from repro.sim.durability import DurabilityConfig
from repro.sim.runtime import SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system
from repro.util.render import format_table

WORKLOAD = WorkloadSpec(
    n_transactions=30,
    n_entities=10,
    n_sites=4,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.6,
    read_fraction=0.3,
    replication_factor=2,
)

PROTOCOLS = ["two-phase", "presumed-abort", "paxos-commit"]


def run_protocol(protocol: str):
    system = random_system(random.Random(11), WORKLOAD)
    config = SimulationConfig(
        seed=6,
        workload=WORKLOAD,
        commit_protocol=protocol,
        replica_protocol="rowa-available",
        network_delay=0.5,
        commit_timeout=6.0,
        failure_rate=0.02,
        repair_time=5.0,
        durability=DurabilityConfig(flush_time=0.5, tail_loss_rate=0.3),
    )
    sim = Simulator(system, "wound-wait", config)
    return sim, sim.run()


def main() -> None:
    print(
        "durable recovery: 4 sites, flush_time=0.5, crash rate 0.02, "
        "30% tail loss on crash"
    )
    print()
    rows = []
    abort_records = {}
    replay_exact = True
    resolved_total = 0
    for protocol in PROTOCOLS:
        sim, result = run_protocol(protocol)
        abort_records[protocol] = sum(
            1
            for log in sim.durability._logs
            for record in log
            if record[0] == "decision" and record[3] == "abort"
        )
        resolved_total += result.in_doubt_resolved
        for report in sim.durability.recovery_reports:
            if report["reacquired"] != report["implied"]:
                replay_exact = False
        rows.append(
            [
                protocol,
                f"{result.committed}/{result.total}",
                result.crashes,
                result.log_forces,
                result.log_replays,
                result.in_doubt_resolved,
                result.tail_losses,
                f"{result.end_time:.0f}",
            ]
        )
    print(
        format_table(
            [
                "protocol",
                "committed",
                "crashes",
                "log forces",
                "replays",
                "in-doubt resolved",
                "tail lost",
                "end",
            ],
            rows,
        )
    )
    print()
    print(
        "every replay re-acquired exactly the log-implied locks: "
        f"{replay_exact}"
    )
    print(f"in-doubt participants resolved by inquiry: {resolved_total}")
    print(
        "forced abort records: two-phase="
        f"{abort_records['two-phase']}, presumed-abort="
        f"{abort_records['presumed-abort']} (presumed-abort logs "
        "nothing about aborting rounds: "
        f"{abort_records['presumed-abort'] == 0})"
    )


if __name__ == "__main__":
    main()
