"""Single sign-on proxy tickets.

The paper requires the data grid to "provide access to the user to all
the storage systems with a single sign on authentication": the user
authenticates once to any SRB server, and the *data handling system*
authenticates itself to remote archives on the user's behalf.  We model
that with HMAC-signed proxy tickets:

1. the user runs challenge–response against the MCAT-enabled server once;
2. the server (the federation's ticket authority) issues a
   :class:`Ticket` binding ``principal``, an expiry, and an audience
   (``"*"`` = any resource in the federation);
3. every server and storage resource in the federation shares the zone
   key and validates tickets locally — no further password exchanges.

Experiment E7 contrasts this against per-resource logins, where touching
M storage systems costs M full challenge–response exchanges.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import InvalidTicket
from repro.auth.users import Principal
from repro.util.clock import SimClock

DEFAULT_TICKET_LIFETIME_S = 8 * 3600.0

#: Channel descriptors are short-lived: one data transfer, not a session.
DEFAULT_CHANNEL_LIFETIME_S = 300.0


def _sign(zone_key: str, payload: str) -> str:
    return hmac.new(zone_key.encode(), payload.encode(),
                    hashlib.sha256).hexdigest()


def _channel_error(reason: str, message: str) -> InvalidTicket:
    exc = InvalidTicket(message)
    exc.reason = reason
    return exc


@dataclass(frozen=True)
class Ticket:
    """A signed assertion: ``principal`` may act in this zone until ``expires_at``."""

    principal: str        # "name@domain"
    zone: str
    audience: str         # resource/server name, or "*" for any
    issued_at: float
    expires_at: float
    signature: str

    def payload(self) -> str:
        return f"{self.principal}|{self.zone}|{self.audience}|{self.issued_at}|{self.expires_at}"


@dataclass(frozen=True)
class ChannelTicket:
    """A signed one-shot capability: move ``nbytes`` from ``src`` to ``dst``.

    This is the third leg of the paper's seamless-authentication chain
    applied to *data movement*: instead of proxying the bytes through the
    brokering server, the server hands the client a descriptor naming the
    storage endpoint, the path key and the size, signed with the zone key.
    The endpoint redeems it exactly once; it dies with the virtual clock
    (``expires_at``) and with topology churn (``epoch`` must still match
    ``Network.topology_epoch`` at redemption, so a descriptor issued
    before a partition/set_down/heal cannot be replayed across it).
    """

    channel_id: int
    src: str              # host the bytes leave from
    dst: str              # host the bytes land on
    nbytes: int
    path_key: str         # physical path (or op label) the bytes belong to
    zone: str
    epoch: int            # Network.topology_epoch at issue time
    issued_at: float
    expires_at: float
    signature: str

    def payload(self) -> str:
        return (f"{self.channel_id}|{self.src}|{self.dst}|{self.nbytes}|"
                f"{self.path_key}|{self.zone}|{self.epoch}|"
                f"{self.issued_at}|{self.expires_at}")


class TicketAuthority:
    """Issues and validates zone tickets.

    One authority exists per federation zone; servers hold a reference and
    validate locally (shared zone key), which is what makes SSO cheaper
    than per-resource logins.
    """

    def __init__(self, zone: str, zone_key: str, clock: SimClock):
        self.zone = zone
        self._key = zone_key
        self.clock = clock
        self.issued = 0
        self.validated = 0
        # zone -> key of *trusted* foreign zones (cross-zone federation):
        # their tickets validate here, carrying their own principals.
        self._trusted: dict = {}
        # one-shot channel descriptors: monotonic ids + redeemed set
        self._channel_seq = 0
        self._redeemed_channels: set = set()

    # -- cross-zone trust ---------------------------------------------------

    @property
    def zone_key(self) -> str:
        """The verification key shared with peers during zone federation.
        (In a real deployment this would be the public half of a keypair;
        the HMAC model shares the symmetric key.)"""
        return self._key

    def trust_zone(self, zone: str, zone_key: str) -> None:
        """Accept tickets issued by another zone's authority.

        This is the SRB-3.x-style zone federation handshake: each side
        shares its verification key with the peer, so a user signed on at
        home can be authenticated (not authorized — ACLs still apply) by
        the foreign zone.
        """
        if zone == self.zone:
            raise InvalidTicket("a zone does not 'trust' itself")
        self._trusted[zone] = zone_key

    def issue(self, principal: Principal | str, audience: str = "*",
              lifetime_s: float = DEFAULT_TICKET_LIFETIME_S) -> Ticket:
        now = self.clock.now
        t = Ticket(principal=str(principal), zone=self.zone, audience=audience,
                   issued_at=now, expires_at=now + lifetime_s, signature="")
        signed = replace(t, signature=_sign(self._key, t.payload()))
        self.issued += 1
        return signed

    def validate(self, ticket: Ticket, audience: Optional[str] = None) -> Principal:
        """Check signature, expiry and audience; return the asserted
        principal.  Tickets from trusted foreign zones validate against
        the peer's key."""
        self.validated += 1
        if ticket.zone == self.zone:
            key = self._key
        elif ticket.zone in self._trusted:
            key = self._trusted[ticket.zone]
        else:
            raise InvalidTicket(f"ticket zone {ticket.zone!r} != {self.zone!r}")
        expected = _sign(key, ticket.payload())
        if not hmac.compare_digest(expected, ticket.signature):
            raise InvalidTicket("ticket signature mismatch")
        if self.clock.now >= ticket.expires_at:
            raise InvalidTicket(
                f"ticket expired at {ticket.expires_at} (now {self.clock.now})")
        if audience is not None and ticket.audience not in ("*", audience):
            raise InvalidTicket(
                f"ticket audience {ticket.audience!r} does not cover {audience!r}")
        return Principal.parse(ticket.principal)

    # -- one-shot data-channel descriptors ----------------------------------

    def issue_channel(self, src: str, dst: str, nbytes: int, path_key: str,
                      epoch: int,
                      lifetime_s: float = DEFAULT_CHANNEL_LIFETIME_S
                      ) -> ChannelTicket:
        """Sign a one-shot descriptor authorizing one src→dst transfer."""
        now = self.clock.now
        self._channel_seq += 1
        t = ChannelTicket(
            channel_id=self._channel_seq, src=src, dst=dst,
            nbytes=int(nbytes), path_key=path_key, zone=self.zone,
            epoch=int(epoch), issued_at=now, expires_at=now + lifetime_s,
            signature="")
        signed = replace(t, signature=_sign(self._key, t.payload()))
        self.issued += 1
        return signed

    def redeem_channel(self, ticket: ChannelTicket, epoch: int) -> None:
        """Consume a channel descriptor (exactly once, while still fresh).

        Raises :class:`InvalidTicket` with a ``reason`` attribute
        (``signature``/``zone``/``expired``/``epoch``/``reused``) so the
        broker can label its ``srb.redirect.denied`` metric.
        """
        self.validated += 1
        if ticket.zone != self.zone:
            raise _channel_error(
                "zone", f"channel zone {ticket.zone!r} != {self.zone!r}")
        expected = _sign(self._key, ticket.payload())
        if not hmac.compare_digest(expected, ticket.signature):
            raise _channel_error("signature", "channel signature mismatch")
        if self.clock.now >= ticket.expires_at:
            raise _channel_error(
                "expired", f"channel expired at {ticket.expires_at} "
                f"(now {self.clock.now})")
        if int(epoch) != ticket.epoch:
            raise _channel_error(
                "epoch", f"channel issued at topology epoch {ticket.epoch}, "
                f"network is now at {epoch}")
        if ticket.channel_id in self._redeemed_channels:
            raise _channel_error(
                "reused", f"channel {ticket.channel_id} already redeemed")
        self._redeemed_channels.add(ticket.channel_id)

    def delegate(self, ticket: Ticket, audience: str) -> Ticket:
        """Narrow a ``*`` ticket to a specific resource audience.

        Models the data handling system authenticating *itself* to a
        remote archive on the user's behalf (third leg of the paper's
        seamless-authentication chain).
        """
        principal = self.validate(ticket)
        remaining = ticket.expires_at - self.clock.now
        return self.issue(principal, audience=audience, lifetime_s=remaining)
