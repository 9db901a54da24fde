"""Commit-protocol interface and registry.

A protocol is attached to exactly one :class:`repro.sim.runtime.
Simulator`; during :meth:`CommitProtocol.attach` it may register event
handlers for its own event kinds. The runtime then calls
:meth:`on_execution_complete` when a transaction finishes the last
operation of its partial order, and the protocol decides when (and
whether) that transaction commits.

Every protocol message leaves through :meth:`CommitProtocol.send_to`,
the one place its cost is decided. ``two-phase``
(:class:`~repro.sim.commit.twophase.TwoPhaseCommit`) is the one
commit-round engine, and the other voting protocols compose by
subclassing it: ``presumed-abort`` flips its abort-notification
convention, and ``paxos-commit`` overrides three hooks — the round
factory (adding a 2F+1-acceptor bank), the vote path, and the
leader-lost retry rule (failover on suspicion). Registered
names are sorted by :func:`protocol_names`, which is the order every
"for each protocol" surface (CLI choices, conformance tests) sees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runtime import Simulator, _Instance

__all__ = [
    "CommitProtocol",
    "make_protocol",
    "protocol_names",
    "register_protocol",
]


class CommitProtocol:
    """Base class for atomic-commit protocols.

    Attributes:
        name: registry key, also shown in results.
        retains_locks: when True, Unlock operations do not physically
            release their lock during execution; the lock is *retained*
            and released by the protocol at decision time (strict
            release-at-commit). Protocols that vote must retain, or a
            conflicting transaction could observe effects of a
            transaction that later aborts its commit round.
    """

    name: str = "?"
    retains_locks: bool = False

    def attach(self, sim: "Simulator") -> None:
        """Bind to a simulator; register event handlers here."""
        self.sim = sim

    def on_execution_complete(self, inst: "_Instance") -> None:
        """The transaction finished its last operation; decide commit."""
        raise NotImplementedError

    def send_to(self, src: str, dst: str, payload: tuple,
                round_trip: bool = False) -> None:
        """Count one protocol message and send it from ``src`` to
        ``dst``: the one place a message's cost is decided.

        A same-site hop is free, a cross-site one costs
        ``config.network_delay``; ``round_trip`` sends a query and its
        response as one unit (two messages, twice the delay). Delivery
        goes through :meth:`Simulator.transmit`, so under a network
        model the message rides the retransmission channel.
        """
        sim = self.sim
        hops = 2 if round_trip else 1
        sim.result.commit_messages += hops
        delay = 0.0 if src == dst else hops * sim.config.network_delay
        sim.transmit(sim.site_id(src), sim.site_id(dst), delay, payload)

    def on_abort(self, inst: "_Instance") -> None:
        """The transaction aborted; drop any per-round state."""

    def on_durability_wipe(self, site: str) -> None:
        """``site``'s write-ahead log was wiped (amnesia crash).

        Protocols that keep durable per-site state outside the WAL
        proper — Paxos Commit's acceptor registries — drop the site's
        share here. The base protocol keeps no such state.
        """

    def inquiry_target(self, txn: int) -> str | None:
        """The site a recovered participant should ask about ``txn``.

        Recovery replay sends ``cm_inquire`` for each in-doubt
        (prepared, undecided) transaction to this site. None means the
        protocol has no round state to consult — the instant protocol
        never leaves a participant in doubt.
        """
        return None


_PROTOCOLS: dict[str, type[CommitProtocol]] = {}


def register_protocol(cls: type[CommitProtocol]) -> type[CommitProtocol]:
    """Class decorator: add ``cls`` to the protocol registry."""
    _PROTOCOLS[cls.name] = cls
    return cls


def protocol_names() -> list[str]:
    """The registered protocol names, sorted."""
    return sorted(_PROTOCOLS)


def make_protocol(name: str) -> CommitProtocol:
    """Instantiate a commit protocol by name.

    Raises:
        KeyError: for unknown names.
    """
    try:
        return _PROTOCOLS[name]()
    except KeyError:
        raise KeyError(
            f"unknown commit protocol {name!r}; "
            f"choose from {protocol_names()}"
        ) from None
