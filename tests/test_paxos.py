"""Paxos Commit (Gray & Lamport): failover, majority, degeneracy.

The scenarios orchestrate crashes *directly* — a custom event handler
crashes and repairs chosen sites at chosen times, reusing the failure
injector's crash semantics without its randomness — so every claim
(takeover masks a coordinator crash, a minority of dead acceptors is
harmless, F=0 is 2PC) is pinned deterministically rather than hoped
for across seeds.
"""

import pytest

from repro.core.entity import DatabaseSchema
from repro.core.system import TransactionSystem
from repro.sim.commit import PaxosCommit, TwoPhaseCommit, make_protocol
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.runtime import SimulationConfig, Simulator, simulate

from tests.helpers import seq

THREE_SITE_SCHEMA = DatabaseSchema.from_groups(
    {"s1": ["x"], "s2": ["y"], "s3": ["z"]}
)


def spanning_txn() -> TransactionSystem:
    """One transaction touching all three sites; s1 coordinates."""
    return TransactionSystem(
        [seq("T1", ["Lx", "Ly", "Lz", "Ux", "Uy", "Uz"],
             THREE_SITE_SCHEMA)]
    )


def two_site_txn() -> TransactionSystem:
    """One transaction on s1+s2; s3 is a pure acceptor site."""
    return TransactionSystem(
        [seq("T1", ["Lx", "Ly", "Ux", "Uy"], THREE_SITE_SCHEMA)]
    )


def scripted_sim(
    system: TransactionSystem,
    protocol: str,
    schedule: list[tuple[float, str, str]],
    fault_tolerance: int = 1,
    **config,
) -> Simulator:
    """A simulator with (time, "crash"|"recover", site) events queued.

    The handlers replay ``FailureInjector``'s transition semantics
    (replica bookkeeping, the up/down flag, the abort cascade) without
    the injector's RNG or rescheduling, so the fault pattern is exactly
    the script and nothing else. ``config`` adds further
    :class:`SimulationConfig` fields (a network model, log costs).
    """
    sim = Simulator(
        system,
        "wound-wait",
        SimulationConfig(
            commit_protocol=protocol,
            commit_fault_tolerance=fault_tolerance,
            network_delay=1.0,
            commit_timeout=6.0,
            **config,
        ),
    )
    def crash(site: str) -> None:
        sim.replicas.on_crash(site)
        sim._mark_site(site, False)
        sim.result.crashes += 1
        sim.crash_site(site)

    def recover(site: str) -> None:
        sim.replicas.on_recover(site)
        sim._mark_site(site, True)

    sim.register_handler("scripted_crash", crash)
    sim.register_handler("scripted_recover", recover)
    for time, action, site in schedule:
        sim.schedule(time, (f"scripted_{action}", site))
    return sim


def exec_done_time(system: TransactionSystem) -> float:
    """When T1 finishes executing, in absolute simulation time.

    An ``instant``-commit probe run: its queue drains the moment the
    single transaction commits, which is exactly execution completion
    (commit-protocol choice never changes an uncontended execution
    timeline, and latencies are measured from the staggered arrival,
    not from zero — hence ``end_time``, not ``exec_latencies[0]``).
    The probe uses the scripted runs' network delay because cross-site
    *execution* hops are charged it too.
    """
    probe = simulate(
        system,
        "wound-wait",
        SimulationConfig(commit_protocol="instant", network_delay=1.0),
    )
    assert probe.committed == 1
    return probe.end_time


class TestAcceptorSites:
    def _sim(self) -> Simulator:
        return Simulator(
            spanning_txn(),
            "wound-wait",
            SimulationConfig(commit_protocol="paxos-commit"),
        )

    def test_rotation_starts_at_the_coordinator(self):
        sim = self._sim()
        assert sim.acceptor_sites("s1", 3) == ("s1", "s2", "s3")
        assert sim.acceptor_sites("s2", 3) == ("s2", "s3", "s1")
        assert sim.acceptor_sites("s3", 2) == ("s3", "s1")

    def test_count_is_clamped_to_the_schema(self):
        sim = self._sim()
        # F=2 wants 5 acceptors; a 3-site schema seats 3.
        assert sim.acceptor_sites("s1", 5) == ("s1", "s2", "s3")
        assert sim.acceptor_sites("s1", 0) == ("s1",)

    def test_negative_f_is_clamped(self):
        sim = Simulator(
            spanning_txn(),
            "wound-wait",
            SimulationConfig(
                commit_protocol="paxos-commit", commit_fault_tolerance=-3
            ),
        )
        assert sim.commit.fault_tolerance == 0


class TestFailureFree:
    def test_same_decisions_and_times_as_two_phase(self):
        """Without failures the acceptor bank only adds messages: the
        leader reaches majority at the instant 2PC's coordinator
        collects the direct vote (the co-located registrar's relay is
        free and the direct-to-leader vote travels one hop)."""
        config = dict(network_delay=1.0, commit_timeout=6.0)
        tp = simulate(
            spanning_txn(), "wound-wait",
            SimulationConfig(commit_protocol="two-phase", **config),
        )
        px = simulate(
            spanning_txn(), "wound-wait",
            SimulationConfig(
                commit_protocol="paxos-commit",
                commit_fault_tolerance=1,
                **config,
            ),
        )
        assert px.committed == tp.committed == 1
        assert px.latencies == tp.latencies
        assert px.commit_latencies == tp.commit_latencies
        assert px.commit_messages > tp.commit_messages
        assert px.acceptor_messages > 0
        assert px.coordinator_takeovers == 0
        # Acceptor traffic is a subset of the commit-message ledger.
        assert px.acceptor_messages <= px.commit_messages

    def test_f0_without_failures_matches_two_phase_messages(self):
        tp = simulate(
            spanning_txn(), "wound-wait",
            SimulationConfig(
                commit_protocol="two-phase", network_delay=1.0
            ),
        )
        px = simulate(
            spanning_txn(), "wound-wait",
            SimulationConfig(
                commit_protocol="paxos-commit",
                commit_fault_tolerance=0,
                network_delay=1.0,
            ),
        )
        assert px.commit_messages == tp.commit_messages
        assert px.commit_latencies == tp.commit_latencies


class TestTakeover:
    def test_takeover_masks_a_coordinator_crash(self):
        """The round's leader (s1) crashes mid-round; s2 deposes it,
        recovers the registered votes in phase 1, and commits long
        before s1 repairs — the stall 2PC cannot avoid."""
        t = exec_done_time(spanning_txn())
        sim = scripted_sim(
            spanning_txn(),
            "paxos-commit",
            [(t + 0.5, "crash", "s1"), (t + 20.0, "recover", "s1")],
        )
        result = sim.run()
        assert result.committed == 1
        assert result.coordinator_takeovers == 1
        assert result.commit_aborts == 0
        # Decision well before s1's repair: takeover at t+6 plus one
        # phase-1 round trip to the surviving acceptor.
        assert result.commit_latencies[0] == pytest.approx(8.0)
        for site in sim._sites.values():
            assert site.involved() == []

    def test_two_phase_stalls_on_the_same_fault(self):
        """The control arm: identical crash script under classic 2PC
        blocks until the coordinator repairs, so Paxos Commit's commit
        latency is strictly smaller."""
        t = exec_done_time(spanning_txn())
        script = [(t + 0.5, "crash", "s1"), (t + 20.0, "recover", "s1")]
        tp = scripted_sim(spanning_txn(), "two-phase", script).run()
        px_latency = 8.0  # pinned above
        assert tp.committed == 1
        assert tp.coordinator_takeovers == 0
        assert tp.commit_latencies[0] > 20.0 - 0.5
        assert px_latency < tp.commit_latencies[0]

    def test_f0_has_no_takeover_candidate(self):
        """At F=0 the lone acceptor is the coordinator: the scripted
        crash leaves no one to depose it, reproducing 2PC's stall."""
        t = exec_done_time(spanning_txn())
        script = [(t + 0.5, "crash", "s1"), (t + 20.0, "recover", "s1")]
        result = scripted_sim(
            spanning_txn(), "paxos-commit", script, fault_tolerance=0
        ).run()
        assert result.committed == 1
        assert result.coordinator_takeovers == 0
        assert result.commit_latencies[0] > 20.0 - 0.5


class TestSuspicion:
    """The two leader-lost rules differ only in what they read: 2PC
    the up/down flag, Paxos Commit failure suspicion. A partition that
    cuts the coordinator off, with no crash injector, tells them apart.

    With ``flush_time`` 0.5 and ``network_delay`` 1, PREPARE reaches s2
    and s3 at t+1, their votes reach s1 at t+2.5, and the acceptors'
    relays (``cm_learn``) would reach it at t+3. Cutting s1 off at
    t+2.75 leaves every ack of s1's own sends delivered, so s2 and s3
    stay unsuspected, while s1's acks of the votes are lost. At the
    second retry (t+12) s1 is suspected, though it never crashed.
    """

    HEAL_AFTER = 40.0

    def _cut_run(self, protocol: str, cut_at: float):
        t = exec_done_time(spanning_txn())
        sim = scripted_sim(
            spanning_txn(), protocol, [],
            network=NetworkConfig(partition_schedule=(
                (t + cut_at, self.HEAL_AFTER, ("s1",)),
            )),
            durability=DurabilityConfig(flush_time=0.5),
        )
        return sim.run()

    def test_paxos_takes_over_from_a_cut_off_leader(self):
        result = self._cut_run("paxos-commit", 2.75)
        assert result.crashes == 0
        assert result.coordinator_takeovers >= 1
        assert result.committed == 1
        assert result.commit_aborts == 0
        # s2 decides long before the cut heals.
        assert result.commit_latencies[0] < self.HEAL_AFTER

    @pytest.mark.parametrize("cut_at", [1.5, 2.0, 2.75])
    def test_two_phase_never_deposes_an_up_coordinator(self, cut_at):
        result = self._cut_run("two-phase", cut_at)
        assert result.crashes == 0
        assert result.coordinator_takeovers == 0
        assert result.committed == 1


class TestMajority:
    def test_minority_of_dead_acceptors_is_harmless(self):
        """s3 hosts an acceptor but no participant; with it down the
        other two acceptors still form a majority, so the round
        commits at 2PC speed with zero takeovers."""
        t = exec_done_time(two_site_txn())
        assert t > 0.5
        sim = scripted_sim(
            two_site_txn(),
            "paxos-commit",
            [(0.1, "crash", "s3"), (t + 40.0, "recover", "s3")],
        )
        result = sim.run()
        assert result.committed == 1
        assert result.coordinator_takeovers == 0
        tp = simulate(
            two_site_txn(), "wound-wait",
            SimulationConfig(
                commit_protocol="two-phase",
                network_delay=1.0,
                commit_timeout=6.0,
            ),
        )
        assert result.commit_latencies == tp.commit_latencies

    def test_down_participant_still_aborts_the_round(self):
        """Paxos Commit replicates the *registrars*, not the
        participants: a voter that dies unprepared aborts the round
        exactly as in 2PC (the acceptor bank cannot vote for it)."""
        t = exec_done_time(spanning_txn())
        sim = scripted_sim(
            spanning_txn(),
            "paxos-commit",
            # s3's vote is in flight when it dies; at retry time the
            # missing voter is down, so the leader decides ABORT. The
            # restarted attempt then runs to commit after s3 repairs.
            [(t + 0.5, "crash", "s3"), (t + 9.0, "recover", "s3")],
        )
        result = sim.run()
        assert result.commit_aborts >= 1
        assert result.committed == 1  # the retry attempt succeeds
        assert result.coordinator_takeovers == 0


class TestProtocolShape:
    def test_paxos_is_a_two_phase_subclass(self):
        proto = make_protocol("paxos-commit")
        assert isinstance(proto, PaxosCommit)
        assert isinstance(proto, TwoPhaseCommit)
        assert proto.retains_locks is True
        assert proto.notify_on_abort is True
