"""MySRB web sessions.

"Each session to MySRB is given a unique session key (stored as an
in-memory cookie at the Browser).  These session keys have a maximum
time-limit set on them (currently 60 minutes).  MySRB also performs
security checks on the session keys when validating a user request."

We reproduce exactly that: opaque keys minted per login, a 60-minute
expiry measured on the virtual clock, and validation that rejects
unknown, expired and logged-out keys.  The session also remembers the
user's current collection so the split-window UI can navigate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SessionExpired, AuthError
from repro.auth.users import Principal
from repro.auth.tickets import Ticket
from repro.util.clock import SimClock
from repro.util.ids import IdFactory, session_key

DEFAULT_SESSION_LIFETIME_S = 60 * 60.0  # the paper's 60-minute limit


@dataclass
class Session:
    key: str
    principal: Principal
    created_at: float
    expires_at: float
    ticket: Optional[Ticket] = None       # SSO ticket carried by the session
    current_collection: str = "/"
    requests_served: int = 0
    #: ``(url, html)``: a page rendered for this session's next request,
    #: served if that request is a GET of ``url`` (MySRB's page after a
    #: write); it goes with the session
    kept: Optional[Tuple[str, str]] = None


class SessionManager:
    """Mints and validates MySRB session keys.

    Every session lives ``lifetime_s`` from its opening on a clock that
    only moves forward, so the order sessions were opened in is the
    order they expire in: :meth:`open` drops the expired ones from the
    front, and no expired session outlives the next sign-on.
    """

    def __init__(self, clock: SimClock,
                 lifetime_s: float = DEFAULT_SESSION_LIFETIME_S,
                 ids: Optional[IdFactory] = None):
        self.clock = clock
        self.lifetime_s = lifetime_s
        self.ids = ids if ids is not None else IdFactory()
        self._sessions: OrderedDict[str, Session] = OrderedDict()

    def open(self, principal: Principal, ticket: Optional[Ticket] = None) -> Session:
        key = session_key(self.ids, principal.name)
        now = self.clock.now
        sessions = self._sessions
        while sessions and now >= next(iter(sessions.values())).expires_at:
            sessions.popitem(last=False)           # the oldest, expired
        sess = Session(key=key, principal=principal, created_at=now,
                       expires_at=now + self.lifetime_s, ticket=ticket)
        sessions[key] = sess
        return sess

    def validate(self, key: str) -> Session:
        """Security checks run on every MySRB request."""
        if not isinstance(key, str) or not key.startswith("sk-"):
            raise AuthError(f"malformed session key {key!r}")
        sess = self._sessions.get(key)
        if sess is None:
            raise AuthError("unknown session key")
        if self.clock.now >= sess.expires_at:
            del self._sessions[key]
            raise SessionExpired(
                f"session for {sess.principal} expired after "
                f"{self.lifetime_s / 60:.0f} minutes")
        sess.requests_served += 1
        return sess

    def close(self, key: str) -> None:
        self._sessions.pop(key, None)
