"""Unit and fault-composition tests for the durability model.

The crash-point conformance battery lives in
``test_recovery_conformance.py``; this file covers the mechanics the
battery relies on (force/flush timing, crash cancellation, the storage
fault draws) and the compositions with the other fault layers the
battery does not reach: a site crashing *again* mid-recovery while its
in-doubt inquiries are still open, and partitions cutting the inquiry
conversation (the ``dur_requery`` chain must ride through on
suspicion-driven retry without ever double-deciding).
"""

import heapq
import random

import pytest

from repro.sim.commit import protocol_names
from repro.sim.durability import DurabilityConfig
from repro.sim.network import NetworkConfig
from repro.sim.runtime import _COMMITTED, SimulationConfig, Simulator
from repro.sim.workload import WorkloadSpec, random_system

SPEC = WorkloadSpec(
    n_transactions=8,
    n_entities=8,
    n_sites=3,
    entities_per_txn=(2, 3),
    actions_per_entity=(0, 1),
    hotspot_skew=0.5,
    read_fraction=0.3,
    replication_factor=2,
)

FLUSH = 0.5


def _simulator(protocol="two-phase", replica="rowa", seed=2, **kwargs):
    system = random_system(random.Random(13), SPEC)
    durability = kwargs.pop("durability", DurabilityConfig(flush_time=FLUSH))
    return Simulator(
        system,
        "wound-wait",
        SimulationConfig(
            seed=seed,
            workload=SPEC,
            commit_protocol=protocol,
            replica_protocol=replica,
            network_delay=0.5,
            commit_timeout=6.0,
            durability=durability,
            **kwargs,
        ),
    )


def _dispatch_until(sim, t):
    """Manually drain the event queue up to simulated time ``t``."""
    heap = sim._queue._heap
    while heap and heap[0][0] <= t + 1e-12:
        time, _seq, payload = heapq.heappop(heap)
        if time > sim._now:
            sim._now = time
        sim._registry.dispatch(payload)


def _assert_converged(sim, result):
    assert not result.truncated
    assert result.committed == result.total
    for inst in sim._instances:
        assert inst.status is _COMMITTED
        assert inst.retained == set()
    for name, site in sim._sites.items():
        assert site.involved() == [], name
    assert sim.durability.in_doubt() == set()
    assert sum(result.aborts_by_cause.values()) == result.aborts


class TestWiring:
    def test_config_attaches_manager(self):
        sim = _simulator()
        assert sim.durability is not None
        assert sim.durability.config.flush_time == FLUSH

    def test_default_config_is_a_zero_cost_log(self):
        assert SimulationConfig().durability == DurabilityConfig(
            flush_time=0.0
        )

    def test_durability_is_never_none(self):
        with pytest.raises(TypeError, match="durability"):
            SimulationConfig(durability=None)

    def test_forces_cost_simulated_time(self):
        free = _simulator(durability=DurabilityConfig(flush_time=0.0))
        base = free.run()
        forced = _simulator().run()
        assert base.log_forces > 0
        assert forced.log_forces > 0
        assert forced.end_time > base.end_time


class TestForceMechanics:
    def test_force_is_durable_after_flush_time(self):
        sim = _simulator()
        dur = sim.durability
        ran = []
        dur.force("s0", ("prepare", 0, 0, ()), lambda: ran.append(1))
        assert dur.log("s0") == ()
        assert dur.flush_pending("s0", ("prepare", 0, 0, ()))
        assert not ran
        _dispatch_until(sim, FLUSH)
        assert dur.log("s0") == (("prepare", 0, 0, ()),)
        assert dur.has_prepare("s0", 0, 0)
        assert ran == [1]
        assert not dur.flush_pending("s0", ("prepare", 0, 0, ()))

    def test_crash_cancels_in_flight_flush(self):
        sim = _simulator()
        dur = sim.durability
        ran, cancelled = [], []
        dur.force(
            "s0", ("prepare", 0, 0, ()),
            lambda: ran.append(1), lambda: cancelled.append(1),
        )
        dur.on_site_crash("s0")
        _dispatch_until(sim, FLUSH)
        # The record never became durable; the cancel hook fired once
        # and the orphaned heap event was swallowed.
        assert dur.log("s0") == ()
        assert ran == []
        assert cancelled == [1]
        assert sim.result.log_forces == 0

    def test_zero_flush_time_forces_synchronously(self):
        sim = _simulator(durability=DurabilityConfig(flush_time=0.0))
        dur = sim.durability
        record = ("prepare", 0, 0, ())
        ran, cancelled = [], []
        dur.force(
            "s0", record, lambda: ran.append(1), lambda: cancelled.append(1)
        )
        # Durable, counted, and continued before force() returned.
        assert dur.log("s0") == (record,)
        assert dur.has_prepare("s0", 0, 0)
        assert ran == [1]
        assert sim.result.log_forces == 1
        # Nothing is in flight, so a crash has nothing to cancel.
        assert not dur.flush_pending("s0", record)
        dur.on_site_crash("s0")
        assert cancelled == []
        assert dur.log("s0") == (record,)

    def test_zero_flush_time_schedules_no_flush_event(self):
        sim = _simulator(durability=DurabilityConfig(flush_time=0.0))
        kinds = []
        schedule = sim.schedule

        def recording(delay, payload):
            kinds.append(payload[0])
            schedule(delay, payload)

        sim.schedule = recording
        result = sim.run()
        assert result.crashes == 0
        assert result.log_forces > 0
        assert kinds and "dur_flush" not in kinds


class TestFaultDraws:
    def _durable(self, sim, site, records):
        dur = sim.durability
        for record in records:
            dur.force(site, record, lambda: None)
        _dispatch_until(sim, FLUSH)
        assert len(dur.log(site)) == len(records)
        return dur

    RECORDS = (
        ("prepare", 0, 0, ()),
        ("decision", 0, 0, "commit"),
        ("prepare", 1, 0, ()),
    )

    def test_tail_loss_drops_newest_record(self):
        sim = _simulator(
            durability=DurabilityConfig(
                flush_time=FLUSH, tail_loss_rate=1.0
            )
        )
        dur = self._durable(sim, "s0", self.RECORDS)
        dur.on_site_crash("s0")
        assert dur.log("s0") == self.RECORDS[:-1]
        assert sim.result.tail_losses == 1
        assert not dur.has_prepare("s0", 1, 0)

    def test_torn_write_then_tail_loss_compose(self):
        sim = _simulator(
            durability=DurabilityConfig(
                flush_time=FLUSH, tail_loss_rate=1.0, torn_write_rate=1.0
            )
        )
        dur = self._durable(sim, "s0", self.RECORDS)
        dur.on_site_crash("s0")
        assert dur.log("s0") == self.RECORDS[:1]
        assert sim.result.torn_writes == 1
        assert sim.result.tail_losses == 1

    def test_amnesia_wipes_whole_log(self):
        sim = _simulator(
            durability=DurabilityConfig(flush_time=FLUSH, amnesia_rate=1.0)
        )
        dur = self._durable(sim, "s0", self.RECORDS)
        dur.on_site_crash("s0")
        assert dur.log("s0") == ()
        assert sim.result.amnesia_wipes == 1
        assert not dur.has_prepare("s0", 0, 0)
        assert not dur.has_decision("s0", 0, 0)

    def test_empty_log_draws_nothing(self):
        sim = _simulator(
            durability=DurabilityConfig(
                flush_time=FLUSH, tail_loss_rate=1.0, amnesia_rate=1.0
            )
        )
        state = sim.durability._rng.getstate()
        sim.durability.on_site_crash("s0")
        # No log, no draw: the fault stream stays untouched.
        assert sim.durability._rng.getstate() == state


def _crash_at_first_durable_prepare(sim):
    """Arm a crash 1.5 flushes after the first prepare-record force.

    The prepare becomes durable at +1.0 flush and the crash lands at
    +1.5 with the decision still at least a network round trip away:
    recovery is guaranteed an in-doubt participant.
    """
    dur = sim.durability
    orig = dur.force
    armed = [False]

    def arming(site, record, cont, cancel=None):
        if record[0] == "prepare" and not armed[0]:
            armed[0] = True
            sim.schedule(1.5 * FLUSH, ("site_crash", site))
        orig(site, record, cont, cancel)

    dur.force = arming


@pytest.mark.parametrize(
    "protocol", [p for p in protocol_names() if p != "instant"]
)
class TestCrashDuringRecovery:
    """A second crash while the first recovery's inquiries are open."""

    def test_double_crash_still_converges(self, protocol):
        sim = _simulator(protocol, failure_rate=1e-9, repair_time=2.0)
        dur = sim.durability
        _crash_at_first_durable_prepare(sim)
        orig_recover = dur.on_site_recover
        re_crashed = [0]

        def recover_and_recrash(site):
            orig_recover(site)
            if dur.in_doubt(site) and re_crashed[0] < 1:
                # The replay just re-opened in-doubt inquiries: crash
                # again before any answer can arrive (the round trip
                # takes a full network delay).
                re_crashed[0] += 1
                sim.schedule(0.1, ("site_crash", site))

        dur.on_site_recover = recover_and_recrash
        result = sim.run()
        assert result.crashes == 2
        assert re_crashed[0] == 1
        # The interrupted recovery replayed again and resolved.
        assert result.log_replays >= 2
        assert len(dur.recovery_reports) >= 2
        assert result.in_doubt_resolved >= 1
        _assert_converged(sim, result)

    def test_single_crash_resolves_in_doubt(self, protocol):
        sim = _simulator(protocol, failure_rate=1e-9, repair_time=2.0)
        _crash_at_first_durable_prepare(sim)
        result = sim.run()
        assert result.crashes == 1
        assert result.log_replays >= 1
        reports = sim.durability.recovery_reports
        assert any(r["in_doubt"] > 0 for r in reports)
        assert result.in_doubt_resolved >= 1
        _assert_converged(sim, result)


@pytest.mark.parametrize(
    "protocol", [p for p in protocol_names() if p != "instant"]
)
class TestPartitionDuringInquiry:
    """Partitions cut the in-doubt conversation; requeries ride it out."""

    def test_inquiry_survives_partition(self, protocol):
        sim = _simulator(
            protocol,
            "quorum",
            failure_rate=1e-9,
            repair_time=2.0,
            network=NetworkConfig(
                # Poisson cuts throughout the run: some land on the
                # inquiry window, suppressing answers until the heal.
                partition_rate=0.05,
                partition_duration=8.0,
            ),
        )
        _crash_at_first_durable_prepare(sim)
        result = sim.run()
        assert result.crashes == 1
        assert result.log_replays >= 1
        # No split-brain: every transaction decided exactly once and
        # the in-doubt set drained despite the cuts.
        _assert_converged(sim, result)
