"""Users, domains, groups and password verification.

SRB identifies a user as ``name@domain`` — the administrative domain
matters because the paper's central security claim is single sign-on
*across* domains ("storage systems may be run on different hosts under
different security protocols").  The registry stores salted password
digests and performs challenge–response verification so a password never
crosses the (simulated) wire.

Nothing here is cryptographically secure; the flows are structurally
faithful (what messages exist, who verifies what) which is all the
reproduction's experiments need.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.errors import AuthError, BadCredentials


# Role ladder used by MySRB's "role-based access matrix from curator to
# public".  Higher index = more privilege.
ROLES = ("public", "reader", "annotator", "contributor", "curator", "sysadmin")


@dataclass(frozen=True)
class Principal:
    """A grid identity: ``name@domain``."""

    name: str
    domain: str

    def __post_init__(self) -> None:
        # formatted once: every access check asks for it several times
        object.__setattr__(self, "_text", f"{self.name}@{self.domain}")

    def __str__(self) -> str:
        return self._text

    @classmethod
    def parse(cls, text: str) -> "Principal":
        if "@" not in text:
            raise AuthError(f"principal must be name@domain, got {text!r}")
        name, domain = text.split("@", 1)
        if not name or not domain:
            raise AuthError(f"principal must be name@domain, got {text!r}")
        return cls(name=name, domain=domain)


# Reserved principal representing unauthenticated access.
PUBLIC = Principal(name="public", domain="world")
PUBLIC_KEY = str(PUBLIC)


def _digest(password: str, salt: str) -> str:
    return hashlib.sha256(f"{salt}:{password}".encode()).hexdigest()


@dataclass
class UserRecord:
    principal: Principal
    salt: str
    password_digest: str
    role: str = "reader"
    enabled: bool = True


class UserRegistry:
    """Registry of grid users and groups for one federation.

    The MCAT stores user metadata; this class is the authoritative
    credential store the MCAT-enabled server consults.
    """

    def __init__(self) -> None:
        self._users: Dict[str, UserRecord] = {}
        self._groups: Dict[str, Set[str]] = {}

    # -- user management -----------------------------------------------------

    def add_user(self, principal: str | Principal, password: str,
                 role: str = "reader") -> Principal:
        p = principal if isinstance(principal, Principal) else Principal.parse(principal)
        key = str(p)
        if key in self._users:
            raise AuthError(f"user {key} already registered")
        if role not in ROLES:
            raise AuthError(f"unknown role {role!r}; choose from {ROLES}")
        salt = f"salt-{len(self._users):04d}"
        self._users[key] = UserRecord(
            principal=p, salt=salt, password_digest=_digest(password, salt),
            role=role)
        return p

    def disable_user(self, principal: str | Principal) -> None:
        self._record(principal).enabled = False

    def role_of(self, principal: str | Principal) -> str:
        key = str(principal)
        if key == PUBLIC_KEY:
            return "public"
        return self._record(key).role

    def exists(self, principal: str | Principal) -> bool:
        return str(principal) in self._users

    def _record(self, principal: str | Principal) -> UserRecord:
        try:
            return self._users[str(principal)]
        except KeyError:
            raise AuthError(f"unknown user {principal}") from None

    # -- groups -------------------------------------------------------------

    def create_group(self, group: str) -> None:
        if group in self._groups:
            raise AuthError(f"group {group!r} already exists")
        self._groups[group] = set()

    def add_to_group(self, group: str, principal: str | Principal) -> None:
        if group not in self._groups:
            raise AuthError(f"unknown group {group!r}")
        self._record(principal)  # must exist
        self._groups[group].add(str(principal))

    def remove_from_group(self, group: str, principal: str | Principal) -> None:
        if group in self._groups:
            self._groups[group].discard(str(principal))

    def groups_of(self, principal: str | Principal) -> List[str]:
        key = str(principal)
        return sorted(g for g, members in self._groups.items() if key in members)

    # -- authentication ----------------------------------------------------------

    def make_challenge(self, serial: int) -> str:
        """Server-side nonce for challenge–response auth."""
        return f"nonce-{serial:08d}"

    @staticmethod
    def respond(password: str, salt: str, challenge: str) -> str:
        """Client-side response: digest of (password digest, challenge)."""
        return hashlib.sha256(
            f"{_digest(password, salt)}:{challenge}".encode()).hexdigest()

    def salt_of(self, principal: str | Principal) -> str:
        """Salt is public (sent to the client before the response)."""
        return self._record(principal).salt

    def verify_response(self, principal: str | Principal, challenge: str,
                        response: str) -> None:
        """Verify a challenge response; raises BadCredentials on mismatch."""
        rec = self._record(principal)
        if not rec.enabled:
            raise BadCredentials(f"user {principal} is disabled")
        expected = hashlib.sha256(
            f"{rec.password_digest}:{challenge}".encode()).hexdigest()
        if not hmac.compare_digest(expected, response):
            raise BadCredentials(f"bad challenge response for {principal}")
