"""Fault injection: sites crash and recover during a run.

A crash-recovery model in the style of Gray & Lamport's *Consensus on
Transaction Commit*: each site fails independently with exponential
interarrival times (rate ``config.failure_rate`` per site) and stays
down for an exponential repair period (mean ``config.repair_time``).

A crash wipes the site's volatile state:

* every RUNNING transaction holding or waiting for a lock there
  aborts (``crash_aborts``) and restarts later — under contention one
  crash fans out into an abort cascade;
* PREPARED transactions keep exactly what their site forced to its
  write-ahead log (:mod:`repro.sim.durability`). The injector calls
  :meth:`~repro.sim.durability.DurabilityManager.on_site_crash` after
  the abort cascade — cancelling in-flight flushes, applying the
  tail-loss/torn-write/amnesia faults, and wiping the site's lock
  table — and :meth:`~repro.sim.durability.DurabilityManager.
  on_site_recover` after repair, which replays the log, re-acquires
  exactly the log-implied retained locks, and resolves the in-doubt
  transactions by protocol inquiry;
* while down, the site receives no messages (the commit protocols see
  lost PREPAREs/VOTEs/decisions and retry or abort) and accepts no new
  operations — a transaction issuing work to a down site crash-aborts.

The injector only drives transitions: the simulator's interned flag
array (:meth:`~repro.sim.runtime.Simulator.site_is_up`) is the single
store of up/down truth, and routing and issue read it whether or not
an injector exists. ``failure_rate=0`` (the default) creates no
injector, so nothing ever flips a flag and every site stays up. The
injector draws from its own RNG stream, so enabling failures never
perturbs arrival or restart randomness. A site's crash chain stops
once :meth:`~repro.sim.runtime.Simulator.work_pending` reports nothing
left to do, letting the event queue drain naturally.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runtime import Simulator

__all__ = ["FailureInjector"]


class FailureInjector:
    """Crashes and repairs sites via registered simulator events."""

    __slots__ = ("sim", "_rng")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        config = sim.config
        if config.failure_rate <= 0:
            raise ValueError("failure injection needs failure_rate > 0")
        # A private stream: failures must not perturb the main RNG.
        self._rng = random.Random((config.seed + 1) * 1_000_003 + 0x5EED)
        sim.register_handler("site_crash", self._on_crash)
        sim.register_handler("site_recover", self._on_recover)
        for site in sim.site_names():
            self._schedule_crash(site)

    def mark_down(self, site: str) -> None:
        """Record ``site`` as crashed (state only, no abort cascade)."""
        self.sim._mark_site(site, False)

    def mark_up(self, site: str) -> None:
        """Record ``site`` as repaired."""
        self.sim._mark_site(site, True)

    @property
    def down_sites(self) -> list[str]:
        """The currently crashed sites, sorted."""
        sim = self.sim
        return [
            site for site in sim.site_names() if not sim.site_is_up(site)
        ]

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _schedule_crash(self, site: str) -> None:
        gap = self._rng.expovariate(self.sim.config.failure_rate)
        self.sim.schedule(gap, ("site_crash", site))

    def _on_crash(self, site: str) -> None:
        sim = self.sim
        # The replica layer integrates availability over the pre-crash
        # interval before the state flips (the copies' catch-up duty is
        # imposed at recovery, not here).
        sim.replicas.on_crash(site)
        self.mark_down(site)
        sim.result.crashes += 1
        sim.crash_site(site)
        # Truncate the survivors' state to the site's log: cancel
        # in-flight flushes, draw the storage faults, wipe the lock
        # table (recovery replay re-acquires what the log implies).
        sim.durability.on_site_crash(site)
        repair = max(self.sim.config.repair_time, 1e-9)
        downtime = self._rng.expovariate(1.0 / repair)
        sim.schedule(downtime, ("site_recover", site))

    def _on_recover(self, site: str) -> None:
        sim = self.sim
        sim.replicas.on_recover(site)
        self.mark_up(site)
        # Replay the site's log: re-acquire the log-implied retained
        # locks and open in-doubt inquiries.
        sim.durability.on_site_recover(site)
        # A recovery is the only point where a site's crash chain can
        # end: an idle answer here stops injection at this site for the
        # rest of the run.
        if sim.work_pending():
            self._schedule_crash(site)
