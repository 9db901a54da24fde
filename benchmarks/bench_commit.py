"""EXP-COMMIT — atomic-commit protocols x policies x failure rates.

Gray & Lamport frame atomic commit as the defining coordination
problem of distributed transactions; this bench measures what the
commit path costs on a contended distributed workload:

* ``instant`` — the lock-conflict-only model: zero messages, zero
  commit latency, and (at failure rate 0) bit-identical results to the
  pre-subsystem simulator;
* ``two-phase`` — commit costs one round trip of messages per
  participant, and retained PREPARED locks convert contention into
  blocked-on-coordinator time;
* ``presumed-abort`` — same decisions at the same times, strictly
  fewer messages whenever rounds abort (the abort path is silent);
* ``paxos-commit`` — Gray & Lamport's non-blocking commit: the 2F+1
  acceptor bank doubles the message bill but masks coordinator
  crashes, so prepared holders stop stalling on a dead coordinator.

Crashes (failure injection) add abort cascades, blocked participants,
and coordinator-recovery delays on top.

Two matrices are declared as :class:`repro.experiments.SweepSpec`
grids and executed by the sweep runner — the same machinery `repro
sweep` exposes on the command line:

* EXP-COMMIT — protocol x failure-rate x policy x seed on a
  moderately contended workload (message bills, commit latency);
* EXP-FAILOVER — protocol x failure-rate on a hot, slow-network
  workload with long repairs, where coordinator crashes strand
  prepared holders with waiters queued behind them. This is the
  stall curve: paxos-commit's mean blocked-on-coordinator time sits
  strictly below two-phase and presumed-abort at every nonzero
  failure rate, flattening as takeovers absorb the stalls;
* EXP-RECOVERY — flush-cost x tail-loss on the failover workload
  with costly log forces: retained-lock time per commit grows
  with both knobs, presumed-abort undercuts 2PC on reliable disks
  (no abort-decision forces), and Paxos Commit undercuts it on
  faulty ones (takeovers beat in-doubt inquiry stalls).
"""

import dataclasses
import random

import pytest

from repro.experiments import SweepSpec, run_sweep
from repro.sim.runtime import SimulationConfig, simulate
from repro.sim.workload import WorkloadSpec, random_system

POLICIES = ["wound-wait", "wait-die"]
PROTOCOLS = ["instant", "two-phase", "presumed-abort", "paxos-commit"]
FAILURE_RATES = [0.0, 0.02]
SEEDS = range(6)

WORKLOAD = WorkloadSpec(
    n_transactions=8,
    n_entities=6,
    n_sites=3,
    entities_per_txn=(2, 4),
    actions_per_entity=(0, 1),
    hotspot_skew=1.2,
    shape="random",
)

SPEC = SweepSpec(
    policies=tuple(POLICIES),
    protocols=tuple(PROTOCOLS),
    arrival_rates=(0.0,),  # closed batch: every cell drains WORKLOAD
    failure_rates=tuple(FAILURE_RATES),
    seeds=tuple(SEEDS),
    workload=WORKLOAD,
    base=SimulationConfig(
        network_delay=0.5,
        commit_timeout=6.0,
        repair_time=8.0,
        workload_seed=5,
    ),
)


def _workload(seed: int = 5):
    return random_system(random.Random(seed), WORKLOAD)


def _config(protocol: str, rate: float, seed: int) -> SimulationConfig:
    """A single cell's config — same base the sweep runs under."""
    return dataclasses.replace(
        SPEC.base, seed=seed, commit_protocol=protocol, failure_rate=rate
    )


def test_commit_report():
    system = _workload()
    total = len(system) * len(SEEDS)

    results = run_sweep(SPEC)  # parallel pool, deterministic per cell
    aggregates: dict[tuple[str, float, str], dict] = {}
    for cell, r in zip(SPEC.cells(), results):
        assert not r.truncated
        if r.committed == len(system):
            assert r.serializable is True
        agg = aggregates.setdefault(
            (cell.protocol, cell.failure_rate, cell.policy),
            dict(
                committed=0, aborts=0, crashes=0, msgs=0,
                exec_lat=0.0, commit_lat=0.0, blocked=0.0,
            ),
        )
        agg["committed"] += r.committed
        agg["aborts"] += r.aborts
        agg["crashes"] += r.crashes
        agg["msgs"] += r.commit_messages
        agg["exec_lat"] += r.mean_exec_latency / len(SEEDS)
        agg["commit_lat"] += r.mean_commit_latency / len(SEEDS)
        agg["blocked"] += r.prepared_block_time

    rows = [
        (protocol, rate, policy, aggregates[(protocol, rate, policy)])
        for protocol in PROTOCOLS
        for rate in FAILURE_RATES
        for policy in POLICIES
    ]

    print()
    print(f"[EXP-COMMIT] protocol x failure-rate x policy "
          f"({len(SEEDS)} seeds, committed out of {total}):")
    print(f"  {'protocol':15s} {'f-rate':6s} {'policy':11s} "
          f"{'commit':7s} {'aborts':6s} {'crash':5s} {'msgs':5s} "
          f"{'x-lat':>6s} {'c-lat':>6s} {'blocked':>8s}")
    for protocol, rate, policy, a in rows:
        print(f"  {protocol:15s} {rate:<6g} {policy:11s} "
              f"{a['committed']:3d}/{total:<3d} {a['aborts']:6d} "
              f"{a['crashes']:5d} {a['msgs']:5d} {a['exec_lat']:6.1f} "
              f"{a['commit_lat']:6.1f} {a['blocked']:8.1f}")

    by_key = {(p, r, pol): a for p, r, pol, a in rows}

    # Instant commit is free: no messages, no commit phase, no
    # blocked-on-coordinator time — and reproduces the plain simulator.
    for rate in FAILURE_RATES:
        for policy in POLICIES:
            a = by_key[("instant", rate, policy)]
            assert a["msgs"] == 0
            assert a["commit_lat"] == 0.0
            assert a["blocked"] == 0.0
    for policy in POLICIES:
        for seed in SEEDS:
            plain = simulate(
                system, policy,
                SimulationConfig(seed=seed, network_delay=0.5),
            )
            instant = simulate(
                system, policy, _config("instant", 0.0, seed)
            )
            assert plain.latencies == instant.latencies
            assert plain.end_time == instant.end_time

    # Two-phase commit pays messages, a commit phase, and (with site
    # crashes) nonzero prepared-blocked time.
    for policy in POLICIES:
        no_fail = by_key[("two-phase", 0.0, policy)]
        crashed = by_key[("two-phase", 0.02, policy)]
        assert no_fail["msgs"] > 0
        assert no_fail["commit_lat"] > 0.0
        assert crashed["crashes"] > 0
        assert crashed["blocked"] > 0.0
        assert crashed["commit_lat"] > 0.0

    # Presumed-abort never sends more messages than presumed-nothing.
    for rate in FAILURE_RATES:
        for policy in POLICIES:
            pa = by_key[("presumed-abort", rate, policy)]
            tp = by_key[("two-phase", rate, policy)]
            assert pa["msgs"] <= tp["msgs"]
            assert pa["committed"] == tp["committed"]

    # Paxos Commit at F=1 pays the acceptor bank in messages, not in
    # latency: with the coordinator up, majority is learned the moment
    # 2PC's coordinator would have collected the direct vote.
    for rate in FAILURE_RATES:
        for policy in POLICIES:
            px = by_key[("paxos-commit", rate, policy)]
            tp = by_key[("two-phase", rate, policy)]
            assert px["msgs"] > tp["msgs"]
            assert px["committed"] == tp["committed"]
    for policy in POLICIES:
        px0 = by_key[("paxos-commit", 0.0, policy)]
        tp0 = by_key[("two-phase", 0.0, policy)]
        assert px0["commit_lat"] == pytest.approx(tp0["commit_lat"])
        assert px0["blocked"] == pytest.approx(tp0["blocked"])


def test_commit_attribution_report():
    """Where the commit protocols spend the latency they charge.

    One representative cell per protocol under the latency-attribution
    engine: the conserved segment decomposition pins *which* segment a
    protocol's cost lands in — instant commit has no coordinator or
    commit-round time by construction, the voting protocols pay a
    commit round, and under crashes 2PC's stalls surface as
    blocked-on-coordinator time.
    """
    from repro.sim.observe import ObserveConfig
    from repro.sim.runtime import Simulator

    system = _workload()
    decompositions = {}
    for protocol in PROTOCOLS:
        for rate in FAILURE_RATES:
            config = dataclasses.replace(
                _config(protocol, rate, seed=0),
                observe=ObserveConfig(attribution=True),
            )
            sim = Simulator(system, "wound-wait", config)
            result = sim.run()
            summary = result.attribution
            assert summary["conservation"]["exact"] is True
            decompositions[(protocol, rate)] = summary["segments"]

    print()
    print("[EXP-COMMIT/attribution] latency segments by protocol "
          "(wound-wait, seed 0, totals over commits):")
    print(f"  {'protocol':15s} {'f-rate':6s} {'lock-wait':>9s} "
          f"{'coord':>7s} {'fanout':>7s} {'service':>8s} {'commit':>7s}")
    for (protocol, rate), seg in decompositions.items():
        print(f"  {protocol:15s} {rate:<6g} {seg['lock_wait']:9.1f} "
              f"{seg['coordinator']:7.1f} {seg['fanout']:7.1f} "
              f"{seg['service']:8.1f} {seg['commit']:7.1f}")

    for rate in FAILURE_RATES:
        # Instant commit: no commit round, no coordinator to wait on.
        instant = decompositions[("instant", rate)]
        assert instant["commit"] == 0.0
        assert instant["coordinator"] == 0.0
        # Every voting protocol pays a commit round.
        for protocol in ("two-phase", "presumed-abort", "paxos-commit"):
            assert decompositions[(protocol, rate)]["commit"] > 0.0
    # Crashes convert 2PC waits into blocked-on-coordinator time.
    assert (
        decompositions[("two-phase", 0.02)]["coordinator"]
        > decompositions[("two-phase", 0.0)]["coordinator"]
    )


# ----------------------------------------------------------------------
# EXP-FAILOVER — the stall curve: blocked-on-coordinator time and
# availability vs failure rate, all four protocols.
# ----------------------------------------------------------------------

# A hot workload over a slow network with long repairs: prepared
# windows are wide, waiters queue behind retained locks, and a
# crashed coordinator strands them for ~repair_time under 2PC but
# only ~commit_timeout + one phase-1 round trip under Paxos Commit.
FAILOVER_WORKLOAD = WorkloadSpec(
    n_transactions=10,
    n_entities=4,
    n_sites=3,
    entities_per_txn=(2, 4),
    actions_per_entity=(0, 1),
    hotspot_skew=2.0,
    shape="random",
)
FAILOVER_RATES = (0.0, 0.03, 0.06)
FAILOVER_SEEDS = tuple(range(10))

FAILOVER_SPEC = SweepSpec(
    policies=("wound-wait",),
    protocols=tuple(PROTOCOLS),
    arrival_rates=(0.0,),
    failure_rates=FAILOVER_RATES,
    seeds=FAILOVER_SEEDS,
    workload=FAILOVER_WORKLOAD,
    base=SimulationConfig(
        network_delay=1.0,
        commit_timeout=3.0,
        repair_time=25.0,
        workload_seed=5,
    ),
)


def test_commit_failover_sweep():
    results = run_sweep(FAILOVER_SPEC)
    n = len(FAILOVER_SEEDS)
    agg: dict[tuple[str, float], dict] = {}
    for cell, r in zip(FAILOVER_SPEC.cells(), results):
        assert not r.truncated
        a = agg.setdefault(
            (cell.protocol, cell.failure_rate),
            dict(blocked=0.0, avail=0.0, takeovers=0, committed=0,
                 msgs=0, acceptor=0),
        )
        a["blocked"] += r.prepared_block_time / n
        a["avail"] += r.availability / n
        a["takeovers"] += r.coordinator_takeovers
        a["committed"] += r.committed
        a["msgs"] += r.commit_messages
        a["acceptor"] += r.acceptor_messages

    print()
    print(f"[EXP-FAILOVER] stall curve ({n} seeds, wound-wait, "
          f"repair 25 >> commit timeout 3):")
    print(f"  {'protocol':15s} {'f-rate':6s} {'blocked':>8s} "
          f"{'avail':>6s} {'t-over':>6s} {'msgs':>5s} {'acc':>5s}")
    for rate in FAILOVER_RATES:
        for protocol in PROTOCOLS:
            a = agg[(protocol, rate)]
            print(f"  {protocol:15s} {rate:<6g} {a['blocked']:8.1f} "
                  f"{a['avail']:6.3f} {a['takeovers']:6d} "
                  f"{a['msgs']:5d} {a['acceptor']:5d}")

    for rate in FAILOVER_RATES:
        # Instant commit has no prepared window at any rate.
        assert agg[("instant", rate)]["blocked"] == 0.0
        # Every protocol drains the batch even under heavy crashing.
        for protocol in PROTOCOLS:
            expected = FAILOVER_WORKLOAD.n_transactions * n
            assert agg[(protocol, rate)]["committed"] == expected

    # Without failures the three voting protocols coincide exactly.
    assert agg[("paxos-commit", 0.0)]["blocked"] == pytest.approx(
        agg[("two-phase", 0.0)]["blocked"]
    )
    assert agg[("paxos-commit", 0.0)]["takeovers"] == 0

    # The headline: at every nonzero failure rate, takeovers fire and
    # paxos-commit's mean blocked-on-coordinator time sits strictly
    # below both 2PC variants — the stall curve flattens.
    for rate in FAILOVER_RATES:
        if rate == 0.0:
            continue
        px = agg[("paxos-commit", rate)]
        assert px["takeovers"] > 0
        assert px["blocked"] < agg[("two-phase", rate)]["blocked"]
        assert px["blocked"] < agg[("presumed-abort", rate)]["blocked"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocol_run_benchmark(benchmark, protocol):
    system = _workload()

    def run():
        return simulate(system, "wound-wait", _config(protocol, 0.0, 3))

    result = benchmark(run)
    assert result.committed == len(system)


@pytest.mark.parametrize(
    "protocol", ["two-phase", "presumed-abort", "paxos-commit"]
)
def test_protocol_crash_benchmark(benchmark, protocol):
    system = _workload()

    def run():
        return simulate(
            system, "wound-wait", _config(protocol, 0.02, 3)
        )

    result = benchmark(run)
    assert result.committed == len(system)


# ----------------------------------------------------------------------
# EXP-PARTITION — availability vs partition duration: committed
# throughput of 2PC/rowa vs Paxos Commit/quorum through a network cut.
# ----------------------------------------------------------------------

# A replicated workload over five sites with one site scripted out of
# the network for a varying window. ROWA writes need every replica, so
# the cut stalls them until the heal; a majority-quorum system keeps
# writing on the big side, and Paxos Commit's acceptor bank keeps
# deciding — committed throughput degrades gracefully instead of
# cratering for the whole episode.
PARTITION_WORKLOAD = WorkloadSpec(
    n_transactions=25,
    n_entities=10,
    n_sites=5,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.5,
    read_fraction=0.1,
    replication_factor=3,
)
PARTITION_DURATIONS = (0.0, 40.0, 80.0)
PARTITION_SEEDS = tuple(range(8))
PARTITION_CONFIGS = (
    ("two-phase", "rowa"),
    ("presumed-abort", "rowa"),
    ("paxos-commit", "rowa"),
    ("paxos-commit", "quorum"),
)


def _partition_config(protocol, replica, duration, seed):
    from repro.sim.network import NetworkConfig

    network = None
    if duration > 0:
        # A snappy failure detector: rounds touching the cut-off site
        # suspect it after ~one retry and reroute, instead of stalling
        # for a large fraction of the episode.
        network = NetworkConfig(
            partition_schedule=((10.0, duration, ("s0",)),),
            retransmit_timeout=1.0,
            suspect_timeout=4.0,
        )
    return SimulationConfig(
        seed=seed,
        workload=PARTITION_WORKLOAD,
        commit_protocol=protocol,
        replica_protocol=replica,
        network_delay=0.5,
        commit_timeout=3.0,
        workload_seed=5,
        network=network,
    )


def test_partition_availability_report():
    from repro.sim.runtime import Simulator

    system = random_system(random.Random(5), PARTITION_WORKLOAD)
    expected = len(system)
    start = 10.0

    throughput: dict[tuple[str, str, float], float] = {}
    in_window: dict[tuple[str, str, float], float] = {}
    for protocol, replica in PARTITION_CONFIGS:
        for duration in PARTITION_DURATIONS:
            committed = end_time = window = 0.0
            for seed in PARTITION_SEEDS:
                sim = Simulator(
                    system, "wound-wait",
                    _partition_config(protocol, replica, duration, seed),
                )
                r = sim.run()
                assert not r.truncated
                # Post-heal convergence: the full batch always commits.
                assert r.committed == expected
                if duration > 0:
                    assert r.partitions == 1
                committed += r.committed
                end_time += r.end_time
                window += sum(
                    1 for inst in sim._instances
                    if start <= inst.commit_time <= start + duration
                )
            throughput[(protocol, replica, duration)] = (
                committed / end_time
            )
            in_window[(protocol, replica, duration)] = (
                window / (duration * len(PARTITION_SEEDS))
                if duration > 0 else 0.0
            )

    print()
    print(f"[EXP-PARTITION] availability vs partition duration "
          f"({len(PARTITION_SEEDS)} seeds, factor-3 replication, one "
          f"site cut off at t=10; whole-run and in-window committed "
          f"throughput):")
    header = " ".join(
        f"{d:>8g} {'in-win':>7s}" for d in PARTITION_DURATIONS
    )
    print(f"  {'protocol':15s} {'replica':8s} {header}")
    for protocol, replica in PARTITION_CONFIGS:
        row = " ".join(
            f"{throughput[(protocol, replica, d)]:8.4f} "
            f"{in_window[(protocol, replica, d)]:7.4f}"
            for d in PARTITION_DURATIONS
        )
        print(f"  {protocol:15s} {replica:8s} {row}")

    # The headline: while the cut is up, the majority-quorum Paxos
    # Commit system keeps committing at a strictly higher rate than
    # either all-replica 2PC variant — ROWA writes need the cut-off
    # replica and 2PC cannot decide without every participant, so
    # their in-window availability craters; graceful degradation.
    for duration in PARTITION_DURATIONS:
        if duration == 0.0:
            continue
        quorum = in_window[("paxos-commit", "quorum", duration)]
        assert quorum > 0.0
        assert quorum > in_window[("two-phase", "rowa", duration)]
        assert quorum > in_window[("presumed-abort", "rowa", duration)]

    # Longer cuts hurt the ROWA stacks\' whole-run throughput
    # monotonically.
    for protocol, replica in (("two-phase", "rowa"),
                              ("presumed-abort", "rowa")):
        t0 = throughput[(protocol, replica, PARTITION_DURATIONS[1])]
        t1 = throughput[(protocol, replica, PARTITION_DURATIONS[2])]
        assert t1 <= t0


# ----------------------------------------------------------------------
# EXP-RECOVERY — lock retention under durability faults: how long
# prepared holders sit on their locks when forces cost real time and
# crashed disks lose log records.
# ----------------------------------------------------------------------

# The failover workload again (hot, slow network, repairs 25 >> commit
# timeout 3), now with costly log forces: every force point stretches
# the prepared window by flush_time, and a crash that eats the newest
# log record (tail loss) turns a would-be fast replay into an in-doubt
# inquiry round — or re-executes the attempt outright. The metric is
# retained-lock time per committed transaction: the price waiters pay
# for the holder's durability.
RECOVERY_FLUSHES = (0.5, 2.0)
RECOVERY_TAIL_RATES = (0.0, 0.3)
RECOVERY_PROTOCOLS = ("two-phase", "presumed-abort", "paxos-commit")
RECOVERY_SEEDS = tuple(range(10))


def _recovery_spec(flush: float, tail: float) -> SweepSpec:
    from repro.sim.durability import DurabilityConfig

    return SweepSpec(
        policies=("wound-wait",),
        protocols=RECOVERY_PROTOCOLS,
        arrival_rates=(0.0,),
        failure_rates=(0.03,),
        seeds=RECOVERY_SEEDS,
        workload=FAILOVER_WORKLOAD,
        base=SimulationConfig(
            network_delay=1.0,
            commit_timeout=3.0,
            repair_time=25.0,
            workload_seed=5,
            durability=DurabilityConfig(
                flush_time=flush, tail_loss_rate=tail
            ),
        ),
    )


def test_commit_recovery_sweep():
    n = len(RECOVERY_SEEDS)
    retention: dict[tuple[str, float, float], float] = {}
    replays = resolved = 0
    for flush in RECOVERY_FLUSHES:
        for tail in RECOVERY_TAIL_RATES:
            spec = _recovery_spec(flush, tail)
            agg = {p: dict(retained=0.0, committed=0) for p in
                   RECOVERY_PROTOCOLS}
            for cell, r in zip(spec.cells(), run_sweep(spec)):
                assert not r.truncated
                # Crashes, bad disks, slow flushes: the batch still
                # drains — recovery always converges.
                assert r.committed == r.total
                assert r.log_forces > 0
                a = agg[cell.protocol]
                a["retained"] += r.retained_lock_time
                a["committed"] += r.committed
                replays += r.log_replays
                resolved += r.in_doubt_resolved
            for protocol, a in agg.items():
                retention[(protocol, flush, tail)] = (
                    a["retained"] / a["committed"]
                )

    print()
    print(f"[EXP-RECOVERY] retained-lock time per commit ({n} seeds, "
          f"failure rate 0.03, repair 25; flush x tail-loss grid):")
    header = " ".join(
        f"f={f:g}/t={t:g}"
        for f in RECOVERY_FLUSHES for t in RECOVERY_TAIL_RATES
    )
    print(f"  {'protocol':15s} {header}")
    for protocol in RECOVERY_PROTOCOLS:
        row = " ".join(
            f"{retention[(protocol, f, t)]:9.2f}"
            for f in RECOVERY_FLUSHES for t in RECOVERY_TAIL_RATES
        )
        print(f"  {protocol:15s} {row}")

    # The battery actually exercised crash recovery, not just forces.
    assert replays > 0
    assert resolved > 0

    for protocol in RECOVERY_PROTOCOLS:
        # Slower disks stretch the prepared window: retention grows
        # with flush_time at every tail-loss rate...
        for tail in RECOVERY_TAIL_RATES:
            assert (
                retention[(protocol, RECOVERY_FLUSHES[1], tail)]
                > retention[(protocol, RECOVERY_FLUSHES[0], tail)]
            )
        # ...and a disk that loses its newest record on crash turns
        # cheap replays into inquiry rounds and re-executions.
        for flush in RECOVERY_FLUSHES:
            assert (
                retention[(protocol, flush, RECOVERY_TAIL_RATES[1])]
                > retention[(protocol, flush, RECOVERY_TAIL_RATES[0])]
            )

    # Presumed-abort's silent aborts skip the abort-decision force, so
    # on a reliable disk it strictly undercuts plain 2PC at every
    # flush cost (with tail loss the executions diverge too much for a
    # stable per-cell ordering).
    for flush in RECOVERY_FLUSHES:
        assert (
            retention[("presumed-abort", flush, 0.0)]
            < retention[("two-phase", flush, 0.0)]
        )

    # Paxos Commit wins exactly where the disk is the problem: with
    # tail loss, a crashed 2PC coordinator strands in-doubt holders on
    # inquiry rounds while takeovers keep deciding — but on a reliable
    # slow disk its acceptor-bank force bill can outweigh the stalls
    # it saves.
    for flush in RECOVERY_FLUSHES:
        assert (
            retention[("paxos-commit", flush, RECOVERY_TAIL_RATES[1])]
            < retention[("two-phase", flush, RECOVERY_TAIL_RATES[1])]
        )

    # The combined headline: at every grid point at least one of the
    # optimised protocols beats plain 2PC — each one where its
    # optimisation targets the dominant durability cost.
    for flush in RECOVERY_FLUSHES:
        for tail in RECOVERY_TAIL_RATES:
            assert min(
                retention[("presumed-abort", flush, tail)],
                retention[("paxos-commit", flush, tail)],
            ) < retention[("two-phase", flush, tail)]
