"""Closed-batch equivalence: the open-system engine at rate 0.

The golden digests below were captured from the pre-open-system
simulator (PR 1's engine) over a 120-cell matrix of workloads x
policies x commit protocols x failure rates x seeds. With
``arrival_rate == 0`` the engine must keep reproducing them bit for
bit — this is the contract that lets every closed-batch result in the
repo's history stay comparable across refactors, and it pins the
hash-seed independence of the site-ordering fix (the digests were
verified identical under several ``PYTHONHASHSEED`` values).

If a change legitimately alters simulation behaviour, regenerate the
digests with the helper at the bottom and say so in the PR. Two
``failure_rate=0.03`` cells — (11, 'timeout', *, 0.03, 5) — were
regenerated when the failure injector learned to keep a site's crash
chain alive while retained locks still await their release
retransmission; every rate-0 cell is untouched from the seed capture.

Twelve more ``failure_rate=0.03`` cells were regenerated when the
write-ahead log became the only crash model (a zero-cost log by
default, replacing the old rule that prepared locks survive a crash
unconditionally): dataset 11 under

* ``blocking``, ``detect``: both 2PC variants, sim seed 0;
* ``wait-die``, ``timeout``: both 2PC variants, sim seeds 0 and 5.

Commits and aborts are unchanged in every one. A recovered
participant now resolves its in-doubt transaction by inquiry
(``cm_inquire``/``cm_status``) instead of waiting for the decision's
retransmission, which moves ``commit_messages`` and, in the
``blocking`` seed-0 cells, ends the run sooner. In the ``timeout``
seed-5 cells a crash wipes the last retained lock of a committed
transaction, so the run drains at once, without the five release
retransmissions to the down participant (``end_time`` 100.65 to
70.65).

The same two ``timeout`` seed-5 cells moved once more when the run
loop stopped draining while a down site's crash had wiped retained
entries it has not replayed (:meth:`Simulator.work_pending`). The
parent drained at 70.65 with ``s0`` down and its log implying the
lock ``(3, 2)``; now the run continues until ``s0`` recovers, replays
and resolves that lock by inquiry, ending at 96.70 with every site
up. Commits (5/5) and aborts (29) are unchanged; the longer tail adds
two crashes (8 to 10) and seven commit messages (52 to 59).

``test_paxos_f0_degenerates_to_two_phase`` extends the matrix with the
Paxos Commit degeneracy contract: at ``commit_fault_tolerance=0`` the
single acceptor is co-located with the coordinator, so every cell must
be digest-identical to classic 2PC (only the protocol name differs).

``FAULT_GOLDEN`` is a 24-cell column of open-system runs with every
fault layer on: crashes, a faulty disk, real log forces, and a lossy,
partitioned network. It pins the three voting protocols at Paxos
Commit's default F=1, where every Paxos cell takes over a round. One
cell, ``('paxos-commit', 'lossy', 0.0, 2)``, moved with the drain fix
above: it used to stop at 651.29 with ``s4`` down and its log
implying ``(144, 3)``, and now runs to 660.17, keeping its 150
commits and 1411 aborts.
"""

import hashlib
import random

from repro.core.system import TransactionSystem
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.runtime import SimulationConfig, Simulator, simulate
from repro.sim.workload import WorkloadSpec, random_system

WORKLOAD_SEEDS = (3, 11)
POLICIES = ("blocking", "wound-wait", "wait-die", "timeout", "detect")
PROTOCOLS = ("instant", "two-phase", "presumed-abort")
SIM_SEEDS = (0, 5)
FAILURE_RATES = (0.0, 0.03)

SPEC = WorkloadSpec(
    n_transactions=5,
    n_entities=5,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=1.0,
)

# The seed-era result surface: every field the pre-open-system
# simulator produced (the new steady-state fields are deliberately
# excluded — they did not exist in the baseline).
FIELDS = (
    "policy", "commit_protocol", "committed", "total", "end_time",
    "aborts", "wounds", "deaths", "timeouts", "detected", "crash_aborts",
    "commit_aborts", "crashes", "deadlocked", "deadlock_cycle", "waits",
    "wait_time", "commit_messages", "prepared_blocks",
    "prepared_block_time", "latencies", "exec_latencies",
    "commit_latencies", "serializable", "truncated",
)


def digest(result) -> str:
    blob = ";".join(f"{f}={getattr(result, f)!r}" for f in FIELDS)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


GOLDEN = {
    (3, 'blocking', 'instant', 0.0, 0): '5d4b0fe440de',
    (3, 'blocking', 'instant', 0.0, 5): 'd1ce2dc46926',
    (3, 'blocking', 'instant', 0.03, 0): 'ed30f60d38c5',
    (3, 'blocking', 'instant', 0.03, 5): '45a73b303437',
    (3, 'blocking', 'two-phase', 0.0, 0): '23e4e1188096',
    (3, 'blocking', 'two-phase', 0.0, 5): 'af355b36fd1e',
    (3, 'blocking', 'two-phase', 0.03, 0): '92f9efbacd13',
    (3, 'blocking', 'two-phase', 0.03, 5): '34c508a1f23a',
    (3, 'blocking', 'presumed-abort', 0.0, 0): '321d98294b93',
    (3, 'blocking', 'presumed-abort', 0.0, 5): '9d13a94bb67e',
    (3, 'blocking', 'presumed-abort', 0.03, 0): '99d002b73d22',
    (3, 'blocking', 'presumed-abort', 0.03, 5): '79a8c251682c',
    (3, 'wound-wait', 'instant', 0.0, 0): 'b0e2f7027f54',
    (3, 'wound-wait', 'instant', 0.0, 5): '51c827d974bb',
    (3, 'wound-wait', 'instant', 0.03, 0): '157b4bd6c4a9',
    (3, 'wound-wait', 'instant', 0.03, 5): '3440ab555de1',
    (3, 'wound-wait', 'two-phase', 0.0, 0): 'acefb19fc665',
    (3, 'wound-wait', 'two-phase', 0.0, 5): 'b66e16643836',
    (3, 'wound-wait', 'two-phase', 0.03, 0): 'b335e6974020',
    (3, 'wound-wait', 'two-phase', 0.03, 5): '7fb6fcf3a893',
    (3, 'wound-wait', 'presumed-abort', 0.0, 0): 'bd62ddd137ba',
    (3, 'wound-wait', 'presumed-abort', 0.0, 5): '77563c23bf17',
    (3, 'wound-wait', 'presumed-abort', 0.03, 0): '4dc14ed4068c',
    (3, 'wound-wait', 'presumed-abort', 0.03, 5): '05bba5191967',
    (3, 'wait-die', 'instant', 0.0, 0): '143f4a027fe8',
    (3, 'wait-die', 'instant', 0.0, 5): 'f4b134d445e4',
    (3, 'wait-die', 'instant', 0.03, 0): 'a6ffb9990f5e',
    (3, 'wait-die', 'instant', 0.03, 5): 'c0bbf21e3f1a',
    (3, 'wait-die', 'two-phase', 0.0, 0): 'dc726d1cd221',
    (3, 'wait-die', 'two-phase', 0.0, 5): '31481c5e0097',
    (3, 'wait-die', 'two-phase', 0.03, 0): '8e049378b602',
    (3, 'wait-die', 'two-phase', 0.03, 5): '60a8db1919ab',
    (3, 'wait-die', 'presumed-abort', 0.0, 0): '0993561bcdef',
    (3, 'wait-die', 'presumed-abort', 0.0, 5): 'f6b94aa593ee',
    (3, 'wait-die', 'presumed-abort', 0.03, 0): 'bc53d7c79c9e',
    (3, 'wait-die', 'presumed-abort', 0.03, 5): '858f57fea02e',
    (3, 'timeout', 'instant', 0.0, 0): '4605b929d64c',
    (3, 'timeout', 'instant', 0.0, 5): 'c763cfabe5c4',
    (3, 'timeout', 'instant', 0.03, 0): 'd02e651e7e2d',
    (3, 'timeout', 'instant', 0.03, 5): '80b55f240901',
    (3, 'timeout', 'two-phase', 0.0, 0): 'c2fbbdf3ff7e',
    (3, 'timeout', 'two-phase', 0.0, 5): '6d07d4d73c36',
    (3, 'timeout', 'two-phase', 0.03, 0): 'a34cacc9f647',
    (3, 'timeout', 'two-phase', 0.03, 5): '09cebb741b90',
    (3, 'timeout', 'presumed-abort', 0.0, 0): '75c71b5a7b7b',
    (3, 'timeout', 'presumed-abort', 0.0, 5): 'ed9475edc62c',
    (3, 'timeout', 'presumed-abort', 0.03, 0): 'add7efb47e14',
    (3, 'timeout', 'presumed-abort', 0.03, 5): '19d9aea31aaa',
    (3, 'detect', 'instant', 0.0, 0): '427fd8e5c27e',
    (3, 'detect', 'instant', 0.0, 5): 'b44c86311f9a',
    (3, 'detect', 'instant', 0.03, 0): '4e77f1490cd1',
    (3, 'detect', 'instant', 0.03, 5): 'a069f41c68d9',
    (3, 'detect', 'two-phase', 0.0, 0): 'c4470515bf01',
    (3, 'detect', 'two-phase', 0.0, 5): '42af3d8ed427',
    (3, 'detect', 'two-phase', 0.03, 0): 'c210c8324485',
    (3, 'detect', 'two-phase', 0.03, 5): '52ef693ac5c5',
    (3, 'detect', 'presumed-abort', 0.0, 0): 'eeb4fa01434a',
    (3, 'detect', 'presumed-abort', 0.0, 5): '907af48607fe',
    (3, 'detect', 'presumed-abort', 0.03, 0): '69c943ff5b06',
    (3, 'detect', 'presumed-abort', 0.03, 5): 'f5eba46f60c1',
    (11, 'blocking', 'instant', 0.0, 0): 'ef6b66ed6aa8',
    (11, 'blocking', 'instant', 0.0, 5): 'f2e4a3b9abcb',
    (11, 'blocking', 'instant', 0.03, 0): '0122cb35e338',
    (11, 'blocking', 'instant', 0.03, 5): 'd6d9de24b9ad',
    (11, 'blocking', 'two-phase', 0.0, 0): 'f63f2ec99a63',
    (11, 'blocking', 'two-phase', 0.0, 5): 'b158645c0ae4',
    (11, 'blocking', 'two-phase', 0.03, 0): '5c50a8b40567',
    (11, 'blocking', 'two-phase', 0.03, 5): 'bdd11fd73de3',
    (11, 'blocking', 'presumed-abort', 0.0, 0): '4bfa166dd3a8',
    (11, 'blocking', 'presumed-abort', 0.0, 5): 'ae3dd84b9630',
    (11, 'blocking', 'presumed-abort', 0.03, 0): '99339c5a04c2',
    (11, 'blocking', 'presumed-abort', 0.03, 5): '3870ac74b571',
    (11, 'wound-wait', 'instant', 0.0, 0): 'e08b9211a45a',
    (11, 'wound-wait', 'instant', 0.0, 5): '2dd9b20ed21c',
    (11, 'wound-wait', 'instant', 0.03, 0): '7717022d7829',
    (11, 'wound-wait', 'instant', 0.03, 5): '66a01ac52a62',
    (11, 'wound-wait', 'two-phase', 0.0, 0): '8a4acdbf8020',
    (11, 'wound-wait', 'two-phase', 0.0, 5): '5c296df74538',
    (11, 'wound-wait', 'two-phase', 0.03, 0): 'b6d424b35d17',
    (11, 'wound-wait', 'two-phase', 0.03, 5): 'd36ba1de4e23',
    (11, 'wound-wait', 'presumed-abort', 0.0, 0): '0c6c12d08066',
    (11, 'wound-wait', 'presumed-abort', 0.0, 5): 'c4ad0f08a870',
    (11, 'wound-wait', 'presumed-abort', 0.03, 0): '51a1a7ecd7e0',
    (11, 'wound-wait', 'presumed-abort', 0.03, 5): '967db9f3fe7f',
    (11, 'wait-die', 'instant', 0.0, 0): 'c1bcfa15f2d2',
    (11, 'wait-die', 'instant', 0.0, 5): '45506ee4055b',
    (11, 'wait-die', 'instant', 0.03, 0): 'fddf02f25e40',
    (11, 'wait-die', 'instant', 0.03, 5): 'cdbed938817e',
    (11, 'wait-die', 'two-phase', 0.0, 0): 'f2734b4eec75',
    (11, 'wait-die', 'two-phase', 0.0, 5): 'e1ecd511d3c8',
    (11, 'wait-die', 'two-phase', 0.03, 0): 'eba35ba55fd8',
    (11, 'wait-die', 'two-phase', 0.03, 5): '904d18b51419',
    (11, 'wait-die', 'presumed-abort', 0.0, 0): '9696e358551c',
    (11, 'wait-die', 'presumed-abort', 0.0, 5): '4b7524422bb6',
    (11, 'wait-die', 'presumed-abort', 0.03, 0): '1011e140f1df',
    (11, 'wait-die', 'presumed-abort', 0.03, 5): '600509fab629',
    (11, 'timeout', 'instant', 0.0, 0): '5e794e169917',
    (11, 'timeout', 'instant', 0.0, 5): '458865e5d60e',
    (11, 'timeout', 'instant', 0.03, 0): '62c8469611bf',
    (11, 'timeout', 'instant', 0.03, 5): 'b75c48225bd9',
    (11, 'timeout', 'two-phase', 0.0, 0): '2a1f68db3758',
    (11, 'timeout', 'two-phase', 0.0, 5): '938b005a0016',
    (11, 'timeout', 'two-phase', 0.03, 0): '49afa4ad370e',
    (11, 'timeout', 'two-phase', 0.03, 5): '4d5fc0c0375e',
    (11, 'timeout', 'presumed-abort', 0.0, 0): '7945d57098ec',
    (11, 'timeout', 'presumed-abort', 0.0, 5): '07f814874c0d',
    (11, 'timeout', 'presumed-abort', 0.03, 0): '398f01609d96',
    (11, 'timeout', 'presumed-abort', 0.03, 5): 'c9c49227dc43',
    (11, 'detect', 'instant', 0.0, 0): '8f8b2aa660ea',
    (11, 'detect', 'instant', 0.0, 5): '4b3f34c59df6',
    (11, 'detect', 'instant', 0.03, 0): '0796ec149f66',
    (11, 'detect', 'instant', 0.03, 5): 'e4ae72d7c60c',
    (11, 'detect', 'two-phase', 0.0, 0): 'e1193761a235',
    (11, 'detect', 'two-phase', 0.0, 5): 'e26321d701b8',
    (11, 'detect', 'two-phase', 0.03, 0): 'e6a38973f031',
    (11, 'detect', 'two-phase', 0.03, 5): '0af6db8a75c1',
    (11, 'detect', 'presumed-abort', 0.0, 0): '5da66f06c659',
    (11, 'detect', 'presumed-abort', 0.0, 5): '75cba5185348',
    (11, 'detect', 'presumed-abort', 0.03, 0): '59410aa066de',
    (11, 'detect', 'presumed-abort', 0.03, 5): 'd462c92b5335',
}


def cell_simulator(wseed, policy, protocol, rate, seed, replication=None):
    system = random_system(random.Random(wseed), SPEC)
    config = SimulationConfig(
        seed=seed,
        network_delay=0.5,
        commit_protocol=protocol,
        failure_rate=rate,
        repair_time=8.0,
        **(replication or {}),
    )
    return Simulator(system, policy, config)


def _cell_result(wseed, policy, protocol, rate, seed, replication=None):
    return cell_simulator(
        wseed, policy, protocol, rate, seed, replication
    ).run()


def test_closed_batch_matches_the_seed_simulator():
    mismatches = []
    for (wseed, policy, protocol, rate, seed), expected in GOLDEN.items():
        result = _cell_result(wseed, policy, protocol, rate, seed)
        if digest(result) != expected:
            mismatches.append((wseed, policy, protocol, rate, seed))
    assert mismatches == []


def test_attribution_enabled_matches_the_seed_simulator():
    """The full golden matrix with the attribution engine attached.

    Latency attribution is a probe consumer: enabling it (with the
    tracer alongside) must leave every digest in the matrix untouched,
    while conserving every cell's latency split exactly.
    """
    from repro.sim.observe import ObserveConfig

    mismatches = []
    for (wseed, policy, protocol, rate, seed), expected in GOLDEN.items():
        system = random_system(random.Random(wseed), SPEC)
        config = SimulationConfig(
            seed=seed,
            network_delay=0.5,
            commit_protocol=protocol,
            failure_rate=rate,
            repair_time=8.0,
            observe=ObserveConfig(trace=True, attribution=True),
        )
        sim = Simulator(system, policy, config)
        result = sim.run()
        if digest(result) != expected:
            mismatches.append((wseed, policy, protocol, rate, seed))
        assert sim.observe.attribution.engine.check() == []
        assert result.attribution["conservation"]["exact"] is True
    assert mismatches == []


def test_replication_factor_one_matches_the_seed_simulator():
    """The replication_factor=1 column of the matrix.

    With the replication layer *engaged* (a workload spec carrying
    ``replication_factor=1`` plus any replica-control protocol) every
    cell must still reproduce the seed-era digests bit for bit — the
    reduction guarantee is pinned here, not assumed. The exclusive-only
    workload is what makes all three protocols coincide: single-copy
    writes behave identically under rowa, rowa-available, and quorum.
    """
    mismatches = []
    for replica_protocol in ("rowa", "rowa-available", "quorum"):
        replication = {
            "workload": SPEC,  # replication_factor defaults to 1
            "replica_protocol": replica_protocol,
        }
        for (wseed, policy, protocol, rate, seed), expected in (
            GOLDEN.items()
        ):
            result = _cell_result(
                wseed, policy, protocol, rate, seed, replication
            )
            if digest(result) != expected:
                mismatches.append(
                    (replica_protocol, wseed, policy, protocol, rate, seed)
                )
    assert mismatches == []


def test_paxos_f0_degenerates_to_two_phase():
    """Paxos Commit at F=0 is digest-for-digest classic 2PC.

    Gray & Lamport's degeneracy claim, pinned mechanically: with one
    acceptor co-located at the coordinator site every vote relay is
    free and takeover has no candidate, so the message bill, the event
    timing, and hence the entire result surface coincide with 2PC —
    at failure rate 0 *and* under crashes. Only the protocol name
    differs; it is normalised out before hashing.
    """

    def normalised(result) -> str:
        result.commit_protocol = "two-phase"
        return digest(result)

    mismatches = []
    for wseed in WORKLOAD_SEEDS:
        for policy in POLICIES:
            for rate in FAILURE_RATES:
                for seed in SIM_SEEDS:
                    expected = GOLDEN[(wseed, policy, "two-phase", rate,
                                       seed)]
                    system = random_system(random.Random(wseed), SPEC)
                    config = SimulationConfig(
                        seed=seed,
                        network_delay=0.5,
                        commit_protocol="paxos-commit",
                        commit_fault_tolerance=0,
                        failure_rate=rate,
                        repair_time=8.0,
                    )
                    result = simulate(system, policy, config)
                    if normalised(result) != expected:
                        mismatches.append((wseed, policy, rate, seed))
    assert mismatches == []


def test_goldens_cover_the_whole_matrix():
    assert len(GOLDEN) == (
        len(WORKLOAD_SEEDS) * len(POLICIES) * len(PROTOCOLS)
        * len(FAILURE_RATES) * len(SIM_SEEDS)
    )


# ----------------------------------------------------------------------
# The fault column: every voting protocol under crashes, a faulty disk
# and (optionally) an adversarial network, at Paxos Commit's default
# F=1. The 120-cell matrix above pins Paxos only at F=0, where its
# leader-lost path has no candidate; here every Paxos cell takes over.
# ----------------------------------------------------------------------

FAULT_PROTOCOLS = ("two-phase", "presumed-abort", "paxos-commit")
FAULT_NETWORKS = {
    "off": None,
    "lossy": NetworkConfig(
        loss_rate=0.05, dup_rate=0.02, jitter=0.2, partition_rate=0.005,
    ),
}
FAULT_FLUSH_TIMES = (0.0, 0.3)
FAULT_SEEDS = (1, 2)

FAULT_SPEC = WorkloadSpec(
    n_entities=24,
    n_sites=5,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.5,
    read_fraction=0.3,
    replication_factor=2,
)

FAULT_FIELDS = FIELDS + (
    "acceptor_messages", "coordinator_takeovers", "log_forces",
    "net_sent", "net_delivered", "net_dropped", "net_duplicates",
    "net_retransmits", "net_acks", "net_inflight",
)

FAULT_GOLDEN = {
    ('two-phase', 'off', 0.0, 1): '997d7a593b6e',
    ('two-phase', 'off', 0.0, 2): 'a49556f65cfb',
    ('two-phase', 'off', 0.3, 1): 'b184ec22ba93',
    ('two-phase', 'off', 0.3, 2): '805df2d2205a',
    ('two-phase', 'lossy', 0.0, 1): 'fe74739cf2e9',
    ('two-phase', 'lossy', 0.0, 2): '3fb1c7d40920',
    ('two-phase', 'lossy', 0.3, 1): '013405f2b78f',
    ('two-phase', 'lossy', 0.3, 2): '65cbab83fd55',
    ('presumed-abort', 'off', 0.0, 1): 'a40bd96a5b81',
    ('presumed-abort', 'off', 0.0, 2): '9c9ed88e5868',
    ('presumed-abort', 'off', 0.3, 1): '6b97a13ea07a',
    ('presumed-abort', 'off', 0.3, 2): 'b384107cd752',
    ('presumed-abort', 'lossy', 0.0, 1): '35c9a4bb93ef',
    ('presumed-abort', 'lossy', 0.0, 2): '21fd49ed9316',
    ('presumed-abort', 'lossy', 0.3, 1): '04f87285febe',
    ('presumed-abort', 'lossy', 0.3, 2): 'b2af62401e89',
    ('paxos-commit', 'off', 0.0, 1): 'acec97786663',
    ('paxos-commit', 'off', 0.0, 2): '64e22bee9717',
    ('paxos-commit', 'off', 0.3, 1): '5de9f222842f',
    ('paxos-commit', 'off', 0.3, 2): 'baddea6a4a40',
    ('paxos-commit', 'lossy', 0.0, 1): '29d829a7a0a8',
    ('paxos-commit', 'lossy', 0.0, 2): '01abf40003aa',
    ('paxos-commit', 'lossy', 0.3, 1): '34630a87d68b',
    ('paxos-commit', 'lossy', 0.3, 2): '2ac9b463ac9a',
}


def fault_digest(result) -> str:
    blob = ";".join(f"{f}={getattr(result, f)!r}" for f in FAULT_FIELDS)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


def fault_cell_simulator(protocol, network, flush_time, seed):
    config = SimulationConfig(
        seed=seed,
        workload_seed=seed,
        arrival_rate=0.4,
        max_transactions=150,
        workload=FAULT_SPEC,
        network_delay=0.5,
        commit_protocol=protocol,
        replica_protocol="rowa-available",
        failure_rate=0.02,
        repair_time=6.0,
        network=FAULT_NETWORKS[network],
        durability=DurabilityConfig(
            flush_time=flush_time, tail_loss_rate=0.2, amnesia_rate=0.1,
        ),
    )
    return Simulator(TransactionSystem([]), "wound-wait", config)


def _fault_cell_result(protocol, network, flush_time, seed):
    return fault_cell_simulator(protocol, network, flush_time, seed).run()


def _fault_cells():
    for protocol in FAULT_PROTOCOLS:
        for network in FAULT_NETWORKS:
            for flush_time in FAULT_FLUSH_TIMES:
                for seed in FAULT_SEEDS:
                    yield protocol, network, flush_time, seed


def test_fault_column_matches_its_goldens():
    """Crashes, disk faults and chaos under every voting protocol.

    Every Paxos Commit cell must take over at least one round, so the
    column keeps exercising the leader-lost path, not just the vote
    path it shares with 2PC.
    """
    assert set(FAULT_GOLDEN) == set(_fault_cells())
    mismatches = []
    for key, expected in FAULT_GOLDEN.items():
        result = _fault_cell_result(*key)
        if fault_digest(result) != expected:
            mismatches.append(key)
        if key[0] == "paxos-commit":
            assert result.coordinator_takeovers >= 1, key
    assert mismatches == []


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Print fresh GOLDEN and FAULT_GOLDEN dicts (run after an
    intentional change)."""
    print("GOLDEN = {")
    for wseed in WORKLOAD_SEEDS:
        for policy in POLICIES:
            for protocol in PROTOCOLS:
                for rate in FAILURE_RATES:
                    for seed in SIM_SEEDS:
                        r = _cell_result(wseed, policy, protocol, rate, seed)
                        key = (wseed, policy, protocol, rate, seed)
                        print(f"    {key!r}: {digest(r)!r},")
    print("}")
    print("FAULT_GOLDEN = {")
    for key in _fault_cells():
        r = _fault_cell_result(*key)
        print(f"    {key!r}: {fault_digest(r)!r},")
    print("}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
