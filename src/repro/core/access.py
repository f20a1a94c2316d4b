"""Access control: ACLs, groups, roles, and the permission ladder.

The paper requires control "at multiple levels (collections, datasets,
resources, etc) for users and user groups beyond that offered by file
systems", owner-driven selection of who may access, and a "role-based
access matrix from curator to public".

Model (checked in this order — first decisive answer wins):

1. **sysadmin role** holds every permission everywhere;
2. the **owner** of an object or collection holds ``own`` on it;
3. an explicit **object-level grant** to the principal, one of its
   groups (``group:<name>``), or everyone (``*``);
4. **collection-level grants** inherited down the hierarchy (nearest
   ancestor first) — granting ``read`` on a collection exposes its cone;
5. otherwise: denied.

Permissions form a ladder (``read < annotate < write < own``): holding a
stronger permission implies the weaker ones.  "Annotate" is what lets
"any user with a read permission" attach annotations while still being
unable to modify curated metadata — read implies annotate for
annotation-type writes only, which the server enforces by asking for the
``annotate`` level on those paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.auth.users import PUBLIC_KEY, Principal, UserRegistry
from repro.errors import AccessDenied, NoSuchCollection
from repro.mcat.catalog import Mcat
from repro.mcat.schema import PERMISSIONS
from repro.util import paths

_LEVEL = {perm: i for i, perm in enumerate(PERMISSIONS)}
# read implies annotate (the paper: any reader may annotate)
_IMPLIES_EXTRA = {"read": ("annotate",)}


def satisfies(held: str, wanted: str) -> bool:
    """True iff permission ``held`` grants permission ``wanted``."""
    if _LEVEL[held] >= _LEVEL[wanted]:
        return True
    return wanted in _IMPLIES_EXTRA.get(held, ())


class AccessController:
    """Evaluates ACL decisions against the MCAT."""

    def __init__(self, mcat: Mcat, users: UserRegistry):
        self.mcat = mcat
        self.users = users
        self.checks = 0
        self.denials = 0
        # the level inherited at each collection, by (principal keys,
        # path), that the op being served has read: its collection checks
        # fill it and the rows it lists read it.  The dispatcher opens an
        # empty one per op and drops it after, so no level outlives its op
        self.levels: Optional[Dict[Tuple[Tuple[str, ...], str],
                                   Optional[str]]] = None

    # -- raw lookup -------------------------------------------------------------

    def _principal_keys(self, principal: Principal) -> List[str]:
        """All ACL principal strings that cover ``principal``."""
        who = str(principal)
        keys = ["*", PUBLIC_KEY]
        if who != PUBLIC_KEY:
            keys.append(who)
            if self.users.exists(who):
                keys.extend(f"group:{g}" for g in self.users.groups_of(who))
        return keys

    @staticmethod
    def _best_grant(rows: Sequence[Dict[str, object]],
                    keys: List[str]) -> Optional[str]:
        """The strongest permission the ACL ``rows`` give any of ``keys``."""
        best: Optional[str] = None
        for row in rows:
            if row["principal"] in keys:
                if best is None or _LEVEL[row["permission"]] > _LEVEL[best]:
                    best = row["permission"]
        return best

    # -- decision ------------------------------------------------------------

    def permission_on_object(self, principal: Principal,
                             obj: Dict[str, object]) -> Optional[str]:
        """Highest permission ``principal`` holds on object row ``obj``."""
        self.checks += 1
        who = str(principal)
        if self.users.exists(who) and \
                self.users.role_of(who) == "sysadmin":
            return "own"
        if obj["owner"] == who:
            return "own"
        keys = self._principal_keys(principal)
        best = self._best_grant(
            self.mcat.grants_for("object", int(obj["oid"])), keys)
        level = self._collection_chain_level(str(obj["coll"]), keys)
        if level is not None and (best is None or
                                  _LEVEL[level] > _LEVEL[best]):
            best = level
        return best

    def permission_on_collection(self, principal: Principal,
                                 coll: Dict[str, object]) -> Optional[str]:
        """Highest permission ``principal`` holds on collection row
        ``coll``."""
        self.checks += 1
        who = str(principal)
        if self.users.exists(who) and \
                self.users.role_of(who) == "sysadmin":
            return "own"
        if coll["owner"] == who:
            return "own"
        keys = self._principal_keys(principal)
        return self._collection_chain_level(str(coll["path"]), keys, coll,
                                            self.levels)

    def _collection_chain_level(self, coll_path: str, keys: List[str],
                                coll: Optional[Dict[str, object]] = None,
                                known: Optional[Dict] = None
                                ) -> Optional[str]:
        """Best grant on the collection or any ancestor; ``coll`` is the
        collection's row when the caller holds it already.

        A collection's level is its own best grant merged with its
        parent's level.  The chain is read from the collection up, and
        only until a collection whose level is ``known`` already; each
        level read is added to it.  A collection check hands its op's
        :attr:`levels` on to the rows the op lists (:meth:`can_objects`),
        so a listing of many subcollections reads their shared ancestors
        once, not once per subcollection."""
        who = tuple(keys)
        known = {} if known is None else known
        owned = []
        best: Optional[str] = None
        for path in [coll_path] + list(reversed(paths.ancestors(coll_path))):
            if (who, path) in known:
                best = known[who, path]
                break
            if coll is None:
                try:
                    coll = self.mcat.get_collection(path)
                except NoSuchCollection:
                    owned.append((path, None))
                    continue
            owned.append((path, self._best_grant(
                self.mcat.grants_for("collection", int(coll["cid"])), keys)))
            coll = None
        for path, level in reversed(owned):     # merged from the top down
            if level is not None and (best is None or
                                      _LEVEL[level] > _LEVEL[best]):
                best = level
            known[who, path] = best
        return best

    # -- enforcement ------------------------------------------------------------

    def require_object(self, principal: Principal, obj: Dict[str, object],
                       wanted: str) -> None:
        held = self.permission_on_object(principal, obj)
        if held is None or not satisfies(held, wanted):
            self.denials += 1
            raise AccessDenied(principal, wanted, obj["path"])

    def require_collection(self, principal: Principal, coll_path: str,
                           wanted: str) -> Dict[str, object]:
        """Read the collection once and check it; returns its row.  A
        missing collection is a namespace error (``get_collection``'s
        ``NoSuchCollection``), never a permission one."""
        coll = self.mcat.get_collection(coll_path)
        self.require_entry(principal, coll, wanted)
        return coll

    def require_entry(self, principal: Principal, row: Dict[str, object],
                      wanted: str) -> None:
        """The check on ``row``, an object's or a collection's (a
        metadata op's subject may be either)."""
        if "oid" in row:
            return self.require_object(principal, row, wanted)
        held = self.permission_on_collection(principal, row)
        if held is None or not satisfies(held, wanted):
            self.denials += 1
            raise AccessDenied(principal, wanted, row["path"])

    def can_objects(self, principal: Principal,
                    objs: Sequence[Dict[str, object]],
                    wanted: str) -> List[bool]:
        """Does ``principal`` hold ``wanted`` on each of the object rows
        ``objs`` (a listing, a query result)?  One verdict per row — what
        :meth:`permission_on_object` would say of each — at a catalog cost
        that does not grow with the rows.

        The principal's name, role and ACL keys are resolved once.  Rows
        the role or ownership decides touch no catalog.  For the rest,
        the grants inherited down the collection chain are looked up once
        per distinct collection, and only rows those do not settle have
        their object-level grants read — all of them in one charged op.
        """
        self.checks += len(objs)
        who = str(principal)
        if self.users.exists(who) and self.users.role_of(who) == "sysadmin":
            return [True] * len(objs)
        verdicts = [obj["owner"] == who for obj in objs]
        if all(verdicts):
            return verdicts
        keys = self._principal_keys(principal)
        levels = self.levels if self.levels is not None else {}
        inherited: Dict[str, bool] = {}
        unsettled = []
        for i, obj in enumerate(objs):
            if verdicts[i]:
                continue
            coll = str(obj["coll"])
            if coll not in inherited:
                held = self._collection_chain_level(coll, keys, None, levels)
                inherited[coll] = held is not None and satisfies(held, wanted)
            if inherited[coll]:
                verdicts[i] = True
            else:
                unsettled.append(i)
        if unsettled:
            grants = self.mcat.grants_for_bulk(
                [("object", int(objs[i]["oid"])) for i in unsettled])
            for i, rows in zip(unsettled, grants):
                held = self._best_grant(rows, keys)
                verdicts[i] = held is not None and satisfies(held, wanted)
        return verdicts
