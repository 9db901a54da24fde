"""Presumed-abort two-phase commit.

The standard 2PC optimisation (Mohan, Lindsay & Obermarck): the
coordinator logs nothing about an aborting round and tells nobody —
when a participant later asks about a transaction the coordinator has
no record of, the answer is "presume abort". In the simulator's
cost model this removes the entire abort round: no ABORT messages and
no acknowledgements, so under failure injection (where vote timeouts
abort rounds) presumed-abort sends strictly fewer messages than
presumed-nothing 2PC while making the same decisions at the same
times. The commit path is unchanged — commits must still be
acknowledged before the coordinator can forget the transaction.

Forced-log-write savings — the other half of the optimisation — are
modelled too (:mod:`repro.sim.durability`): with ``notify_on_abort =
False`` the coordinator skips the forced abort record that plain 2PC
pays a ``flush_time`` for (absent records *are* the abort decision),
and a recovered in-doubt participant's ``cm_inquire`` about an
unknown transaction is answered "abort" straight from that absence.
At the default ``flush_time`` 0 the skipped force costs nothing, so
only the message savings show in the timings.
"""

from __future__ import annotations

from repro.sim.commit.base import register_protocol
from repro.sim.commit.twophase import TwoPhaseCommit

__all__ = ["PresumedAbortCommit"]


@register_protocol
class PresumedAbortCommit(TwoPhaseCommit):
    """2PC whose abort path is free of messages."""

    name = "presumed-abort"
    notify_on_abort = False
