"""Locks, pins and checkout/checkin versioning.

From the paper (MySRB's lock/pin/checkout operations):

* **locks** — "a 'shared' lock which locks the object from being written
  to by any user other than the locking user but reads from the object
  and associated metadata are allowed, and 'exclusive' lock which allows
  no interactions with the object.  A lock placed by a user has an expiry
  date at which time it gets unlocked."
* **pins** — "makes sure that a SRB object does not get deleted from a
  particular resource ... useful for pinning a file in a cache resource
  from being purged".  Pins expire too; explicit unpin is supported.
* **checkout/checkin** — "very crude forms of version control": checkout
  freezes the object against changes by others; checkin keeps the older
  bytes as an earlier version with a distinct version number.

All state lives in MCAT tables (``locks``, ``pins``, ``versions``) so the
whole federation sees one lock space.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.auth.users import Principal
from repro.errors import (
    AlreadyCheckedOut,
    LockConflict,
    LockError,
    NotCheckedOut,
)
from repro.mcat.catalog import Mcat
from repro.util.clock import SimClock

DEFAULT_LOCK_LIFETIME_S = 24 * 3600.0
DEFAULT_PIN_LIFETIME_S = 7 * 24 * 3600.0

LOCK_TYPES = ("shared", "exclusive")


class LockManager:
    """Federation-wide lock/pin/version bookkeeping."""

    def __init__(self, mcat: Mcat, clock: SimClock):
        self.mcat = mcat
        self.clock = clock

    # -- internal -------------------------------------------------------------

    def locks_on(self, oid: int) -> List[Dict[str, Any]]:
        """Non-expired lock rows for ``oid``; expired rows are reaped."""
        t = self.mcat.oid_table("locks", oid)
        live = []
        for rid in list(t.lookup_eq("oid", oid)):
            row = t.row_dict(rid)
            if row["expires_at"] <= self.clock.now:
                t.delete_row(rid)       # expiry: "at which time it gets unlocked"
            else:
                live.append(row)
        return live

    def _live_pins(self, oid: int) -> List[Dict[str, Any]]:
        t = self.mcat.oid_table("pins", oid)
        live = []
        for rid in list(t.lookup_eq("oid", oid)):
            row = t.row_dict(rid)
            if row["expires_at"] <= self.clock.now:
                t.delete_row(rid)
            else:
                live.append(row)
        return live

    # -- locks ---------------------------------------------------------------

    def lock(self, oid: int, holder: Principal, lock_type: str = "shared",
             lifetime_s: float = DEFAULT_LOCK_LIFETIME_S) -> int:
        if lock_type not in LOCK_TYPES:
            raise LockError(f"unknown lock type {lock_type!r}")
        existing = self.locks_on(oid)
        for row in existing:
            if row["holder"] != str(holder):
                # any existing foreign lock blocks an exclusive request;
                # a foreign exclusive lock blocks everything
                if lock_type == "exclusive" or row["lock_type"] == "exclusive":
                    raise LockConflict(
                        f"object {oid} is locked ({row['lock_type']}) by "
                        f"{row['holder']}")
        lid = self.mcat.ids.next_int("lid")
        self.mcat.oid_table("locks", oid).insert({
            "lid": lid, "oid": oid, "lock_type": lock_type,
            "holder": str(holder),
            "expires_at": self.clock.now + lifetime_s,
        })
        return lid

    def unlock(self, oid: int, holder: Principal) -> int:
        """Release all locks ``holder`` has on ``oid``; returns count."""
        t = self.mcat.oid_table("locks", oid)
        released = 0
        for rid in list(t.lookup_eq("oid", oid)):
            if t.value(rid, "holder") == str(holder):
                t.delete_row(rid)
                released += 1
        return released

    def check_read(self, obj: Dict[str, Any], principal: Principal) -> None:
        """Exclusive locks held by others forbid even reads of object row
        ``obj``."""
        oid = obj["oid"]
        for row in self.locks_on(oid):
            if row["lock_type"] == "exclusive" and \
                    row["holder"] != str(principal):
                raise LockConflict(
                    f"object {oid} exclusively locked by {row['holder']}")

    def check_write(self, obj: Dict[str, Any], principal: Principal) -> None:
        """Any lock held by another user forbids writes to object row
        ``obj``; so does a foreign checkout."""
        oid = obj["oid"]
        for row in self.locks_on(oid):
            if row["holder"] != str(principal):
                raise LockConflict(
                    f"object {oid} locked ({row['lock_type']}) by "
                    f"{row['holder']}")
        holder = obj["checked_out_by"]
        if holder is not None and holder != str(principal):
            raise LockConflict(f"object {oid} checked out by {holder}")

    # -- pins ----------------------------------------------------------------

    def pin(self, oid: int, resource: str, holder: Principal,
            lifetime_s: float = DEFAULT_PIN_LIFETIME_S) -> int:
        pid = self.mcat.ids.next_int("pid")
        self.mcat.oid_table("pins", oid).insert({
            "pid": pid, "oid": oid, "resource": resource,
            "holder": str(holder), "expires_at": self.clock.now + lifetime_s,
        })
        return pid

    def unpin(self, oid: int, resource: str, holder: Principal) -> int:
        t = self.mcat.oid_table("pins", oid)
        released = 0
        for rid in list(t.lookup_eq("oid", oid)):
            row = t.row_dict(rid)
            if row["holder"] == str(holder) and row["resource"] == resource:
                t.delete_row(rid)
                released += 1
        return released

    def is_pinned(self, oid: int, resource: Optional[str] = None,
                  besides: Optional[str] = None) -> bool:
        """Whether a live pin holds ``oid`` (on ``resource``), counting
        no pin of the holder named ``besides``."""
        return any((resource is None or row["resource"] == resource)
                   and row["holder"] != besides
                   for row in self._live_pins(oid))

    # -- checkout / checkin ------------------------------------------------------

    def checkout(self, obj: Dict[str, Any], principal: Principal) -> None:
        """Check object row ``obj`` out to ``principal``."""
        oid = obj["oid"]
        holder = obj["checked_out_by"]
        if holder is not None:
            raise AlreadyCheckedOut(f"object {oid} checked out by {holder}")
        self.mcat.update_object(oid, checked_out_by=str(principal))

    def record_version(self, obj: Dict[str, Any], resource: str,
                       physical_path: str, size: int,
                       author: Principal) -> int:
        """Snapshot the *current* bytes of object row ``obj`` as a
        numbered historical version.

        The caller (the server's checkin) has already copied the old
        physical file aside; this records where it went.
        """
        oid = obj["oid"]
        version_num = int(obj["version"])
        self.mcat.oid_table("versions", oid).insert({
            "vid": self.mcat.ids.next_int("vid"), "oid": oid,
            "version_num": version_num, "resource": resource,
            "physical_path": physical_path, "size": size,
            "created_at": self.clock.now, "author": str(author),
        })
        return version_num

    def checkin(self, obj: Dict[str, Any], principal: Principal) -> int:
        """Clear the checkout of object row ``obj`` and bump its version
        number; returns it."""
        oid = obj["oid"]
        holder = obj["checked_out_by"]
        if holder is None:
            raise NotCheckedOut(f"object {oid} is not checked out")
        if holder != str(principal):
            raise LockConflict(
                f"object {oid} checked out by {holder}, not {principal}")
        new_version = int(obj["version"]) + 1
        self.mcat.update_object(oid, checked_out_by=None, version=new_version)
        return new_version

    def versions_of(self, oid: int) -> List[Dict[str, Any]]:
        t = self.mcat.oid_table("versions", oid)
        rows = [t.row_dict(r) for r in t.lookup_eq("oid", oid)]
        return sorted(rows, key=lambda r: r["version_num"])
