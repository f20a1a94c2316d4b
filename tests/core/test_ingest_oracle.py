"""``ingest`` and ``bulk_ingest`` against the two bodies they replaced.

Both ops now run one body, ``DataService._ingest``.  The handlers it
replaced are kept in :mod:`tests.core.ingest_oracle`.  Twin grids — one
serving the oracle, one the change — take the same calls: good paths,
paths taken in the catalog or earlier in the batch, a missing
collection, a bad path component, a principal without write access,
structural defaults, mandatory and vocabulary rules, a value that is
not text, physical, logical and container targets, a storage system
that refuses a file, and unusable targets.  They run on a plain grid,
with direct data channels, and with a catalog of two partitions with a
replica each.

Per call the two must agree on the outcome (the oid, or the error's
type and message), on the object, replica and metadata rows, on every
file the drivers hold, on the audit rows, on the legs the leg runner
moved, on the messages and bytes on the wire and on the access checks.
These differences are allowed, and each is asserted exactly:

* ``mcat.ops`` falls by one per distinct collection an item names
  that exists: ``collection_exists`` is no longer asked before
  ``require_collection`` asks it again.
* A single ingest onto a logical resource of N members writes its N
  replica rows as one grouped insert, N - 1 fewer ops.
* A bulk ingest into a container reads the container once for its
  target check and again only from the second member on, one op fewer.
* The clock moves ``QUERY_OVERHEAD_S`` less per op dropped, plus
  ``ROW_COST_S`` per catalog row the dropped ops read.
* A read replica of a partitioned catalog learns a collection's row id
  when a read first resolves it (its primary knows every one from the
  insert).  So a read one twin made and the other skipped leaves their
  replicas' caches different, and a later call reads one row more on
  the twin whose cache is colder, per collection it resolves there
  first.  That row is counted from the caches themselves.
* The three bugs: a bulk item whose path is taken no longer moves its
  bytes (its push carries only the rows created); a single ingest into
  an unusable target no longer spends an oid, nor writes and deletes an
  object row; the placement engine is asked to rank members for the
  bytes of the items that passed their checks (the old bulk body gave
  it none; the grids' ``primary`` policy does not rank, so
  ``test_ingest_bugs.py`` checks the ranking itself).
* The target is checked before the object rows are written: a single
  ingest of a taken path into a container reads the container first,
  and one into an unusable target fails on the target (it failed
  ``AlreadyExists``); a bulk ingest none of whose items passes its own
  checks returns their errors and resolves no target (the old body
  resolved it, raised its error if it had one, and wrote an empty batch
  of object rows).  Each moves ``mcat.ops`` by the ops it makes or
  skips, and the reply's seconds on the wire by its size.
"""

import functools
from typing import Any, Dict, List, Optional

import pytest
from hypothesis import HealthCheck, event, example, given, settings, \
    strategies as st

from repro.auth.users import Principal
from repro.core import Federation, SrbClient
from repro.errors import (
    AccessDenied,
    AlreadyExists,
    NoSuchCollection,
    NoSuchObject,
    NoSuchResource,
    ResourceUnavailable,
    SrbError,
)
from repro.mcat.catalog import Mcat, apply_structural
from repro.util import paths
from tests.core.ingest_oracle import oracle_servers
from tests.invariants import _rows, held_files

MODES = {
    "default": {},
    "direct_io": {"direct_io": True},
    "sharded": {"mcat_shards": 2, "mcat_replicas": 1},
}

ADMIN, GUEST = "srbadmin@sdsc", "guest@sdsc"
BOX, NOPE = "/z/c/box", "/z/c/nope"
COLLECTIONS = ("/z", "/z/c", "/z/c/rules", "/z/g")
#: where the guest may write
GUEST_WRITES = ("/z/g",)
#: ``/z/c/rules``'s structural rows, as ``structural_for`` returns them
RULES = [{"attr": "SURVEY", "default_value": "2MASS", "vocabulary": None,
          "mandatory": False},
         {"attr": "BAND", "default_value": None, "vocabulary": "J|H|K",
          "mandatory": True}]
#: the target keyword of each call, and the physical members it names
TARGETS = {
    "default": ({}, ["disk"]),
    "disk": ({"resource": "disk"}, ["disk"]),
    "far": ({"resource": "far"}, ["far"]),
    "pair": ({"resource": "pair"}, ["disk", "far"]),
    "tiny": ({"resource": "tiny"}, ["tiny"]),
    "box": ({"container": BOX}, None),
    "nores": ({"resource": "nores"}, None),
    "halfdead": ({"resource": "halfdead"}, ["far", "dead"]),
    "nope": ({"container": NOPE}, None),
}
PATHS = ["/z/c/a", "/z/c/b", "/z/c/old", "/z/c/rules/r", "/z/g/a",
         "/z/g/old", "/z/nope/x", "/z/c//bad", BOX]
DATA = [b"", b"k" * 10, b"m" * 60, b"q" * 120]    # "tiny" holds 100 bytes
METADATA = [None, {"BAND": "J"}, {"BAND": "X"}, {"note": "n"},
            {"BAND": "K", "SURVEY": "other"}, {"RA": 12.5}]
TIMES = {"created_at", "modified_at", "at"}


def build(oracle: bool, knobs: Dict[str, Any]):
    """A grid of three hosts: the server's (h1), a far one (h2) and one
    that is down (h3).  Resources ``disk`` and ``tiny`` (100 bytes) on
    h1, ``far`` on h2, ``dead`` on h3; logical ``pair`` (disk, far) and
    ``halfdead`` (far, dead); the container ``/z/c/box`` on ``far``.
    ``/z/c/rules`` has a default and a mandatory vocabulary rule; the
    guest may write only ``/z/g``.  Every live session is warm."""
    fed = Federation(zone="z", **knobs)
    for host in ("h1", "h2", "h3"):
        fed.add_host(host)
    if oracle:
        with oracle_servers():
            fed.add_server("s1", "h1", mcat=True)
    else:
        fed.add_server("s1", "h1", mcat=True)
    fed.add_fs_resource("disk", "h1")
    fed.add_fs_resource("tiny", "h1", capacity_bytes=100)
    fed.add_fs_resource("far", "h2")
    fed.add_fs_resource("dead", "h3")
    fed.add_logical_resource("pair", ["disk", "far"])
    fed.add_logical_resource("halfdead", ["far", "dead"])
    fed.default_resource = "disk"
    fed.bootstrap_admin()
    fed.add_user(GUEST, "pw")
    clients = {ADMIN: SrbClient(fed, "h1", "s1", ADMIN, "hunter2"),
               GUEST: SrbClient(fed, "h1", "s1", GUEST, "pw")}
    for client in clients.values():
        client.login()
    admin = clients[ADMIN]
    for coll in COLLECTIONS[1:]:
        admin.mkcoll(coll)
    admin.grant("/z/g", GUEST, "write")
    admin.define_structural("/z/c/rules", "SURVEY", default_value="2MASS")
    admin.define_structural("/z/c/rules", "BAND",
                            vocabulary=["J", "H", "K"], mandatory=True)
    admin.create_container(BOX, "far")
    admin.ingest("/z/c/old", b"stored")
    admin.ingest("/z/g/old", b"stored")
    fed.network.set_down("h3")
    for i, res in enumerate(("disk", "tiny", "far")):
        admin.ingest(f"/z/c/warm{i}", b"w", resource=res)
    return fed, clients


@functools.lru_cache(maxsize=None)
def target_ops(mode: str, principal: str, container: str) -> int:
    """``mcat.ops`` of a container target check: the container's row,
    then write access on it, each up to where it raises."""
    fed, _clients = build(False, MODES[mode])
    server = fed.server("s1")
    ops = fed.obs.metrics
    before = ops.get("mcat.ops")
    try:
        cont = server.containers.get_container(container)
        fed.access.require_object(Principal.parse(principal), cont,
                                  "write")
    except SrbError:
        pass
    return ops.get("mcat.ops") - before


def target_error(name: str, principal: str) -> Optional[SrbError]:
    """The error an unusable target raises, or None."""
    if name == "nope":
        return NoSuchObject(f"no object {NOPE!r}")
    if name == "box" and principal == GUEST:
        return AccessDenied(principal, "write", BOX)
    if name == "nores":
        return NoSuchResource("no resource 'nores'")
    if name == "halfdead":
        return ResourceUnavailable("resource 'dead' is down")
    return None


def checks(item: Dict[str, Any], principal: str) -> Optional[SrbError]:
    """The error an item fails its own checks with (zone, collection,
    write access, structural metadata), or None."""
    try:
        path = paths.normalize(str(item["path"]))
        coll = paths.dirname(path)
        if coll not in COLLECTIONS:
            raise NoSuchCollection(f"no collection {coll!r}")
        if principal == GUEST and coll not in GUEST_WRITES:
            raise AccessDenied(principal, "write", coll)
        apply_structural(RULES if coll == "/z/c/rules" else [],
                         item.get("metadata") or {}, coll)
    except SrbError as exc:
        return exc
    return None


def existing(items: List[Dict[str, Any]]) -> int:
    """Distinct collections the items name that exist."""
    colls = set()
    for item in items:
        try:
            colls.add(paths.dirname(paths.normalize(str(item["path"]))))
        except SrbError:
            pass
    return len(colls & set(COLLECTIONS))


def replica_caches(fed) -> List[set]:
    """The collection paths each read replica has resolved so far."""
    return [set(rep.catalog._coll_rid_cache) for shard in fed.mcat.shards
            for rep in shard.replicas]


def colder_rows(old, new, old_before, new_before) -> int:
    """Rows the old twin reads less than the new one because their
    replicas' collection caches differed before a call: one per path one
    resolved for the first time while the other had it already."""
    return sum(len((ob - nb) & na) - len((nb - ob) & oa)
               for ob, nb, oa, na in zip(old_before, new_before,
                                         replica_caches(old.fed),
                                         replica_caches(new.fed)))


def error(exc: BaseException):
    return ("raise", type(exc).__name__, str(exc))


def state(fed) -> Dict[str, Any]:
    """Rows (without their timestamps), files and the oid counter."""
    def rows(table):
        return sorted(repr(sorted((k, v) for k, v in row.items()
                                  if k not in TIMES))
                      for row in _rows(fed, table))
    return {
        "objects": rows("objects"), "replicas": rows("replicas"),
        "metadata": rows("metadata"),
        "files": {name: held_files(fed.resources.physical(name).driver)
                  for name in fed.resources.physical_names()},
        "oid": fed.mcat.ids.peek("oid"),
    }


def audit_rows(fed) -> List[tuple]:
    """``(principal, action, target, detail, ok)`` of every audit row."""
    return [(row["principal"], row["action"], row["target"], row["detail"],
             row["ok"]) for row in _rows(fed, "audit")]


class Twin:
    """One grid, and what each call changed and cost on it."""

    def __init__(self, oracle: bool, knobs: Dict[str, Any]):
        self.fed, self.clients = build(oracle, knobs)
        self.legs: List[tuple] = []
        channels = self.fed.channels
        run_legs = channels.run_legs

        def recording(legs, label):
            self.legs.extend((s, d, n, label) for s, d, n, _key in legs)
            return run_legs(legs, label)
        channels.run_legs = recording
        self.placed: List[tuple] = []
        placement = self.fed.placement
        order = placement.order_resources

        def ordering(res_list, from_host=None, size_hint=None):
            self.placed.append(([res.name for res in res_list], size_hint))
            return order(res_list, from_host=from_host, size_hint=size_hint)
        placement.order_resources = ordering

    def counters(self) -> tuple:
        fed, metrics = self.fed, self.fed.obs.metrics
        return (metrics.get("mcat.ops"), metrics.get("mcat.rows_scanned"),
                fed.clock.now, fed.network.messages_sent,
                fed.network.bytes_sent, fed.access.checks,
                fed.access.denials,
                sum(h.sum for h in metrics.histogram_series(
                    "net.transfer_s").values()))

    def call(self, bulk: bool, items, target: str, principal: str):
        """Outcome, counter deltas (ops, rows, seconds, messages, bytes,
        access checks, denials, seconds on the wire), legs run and audit
        rows written."""
        before, audited = self.counters(), len(audit_rows(self.fed))
        self.legs, self.placed = [], []
        client = self.clients[principal]
        kwargs = TARGETS[target][0]
        try:
            if bulk:
                outcome = ("ok", client.bulk_ingest(items, **kwargs))
            else:
                item = items[0]
                outcome = ("ok", client.ingest(
                    item["path"], item["data"],
                    data_type=item.get("data_type"),
                    metadata=item.get("metadata"), **kwargs))
        except SrbError as exc:
            outcome = error(exc)
        cost = [b - a for a, b in zip(before, self.counters())]
        return outcome, cost, list(self.legs), \
            audit_rows(self.fed)[audited:]


ITEMS = st.fixed_dictionaries(
    {"path": st.sampled_from(PATHS), "data": st.sampled_from(DATA)},
    optional={"metadata": st.sampled_from(METADATA),
              "data_type": st.sampled_from(["fits"])})
CALLS = st.lists(st.tuples(st.booleans(), st.lists(ITEMS, min_size=1,
                                                   max_size=3),
                           st.sampled_from(sorted(TARGETS)),
                           st.sampled_from([ADMIN, GUEST])),
                 min_size=1, max_size=4)


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(calls=CALLS)
# the first call reads the container's collections on the old twin only
# (the new one resolves no target): the second resolves "/" on the new
# twin's replica for the first time
@example(calls=[(True, [{"path": "/z/nope/x", "data": b""}], "box", GUEST),
                (False, [{"path": "/z/c/a", "data": b""}], "box", GUEST)])
def test_one_body_matches_the_two_it_replaced(mode, calls):
    old, new = Twin(True, MODES[mode]), Twin(False, MODES[mode])
    assert state(old.fed) == state(new.fed)
    for bulk, items, target, principal in calls:
        items = items if bulk else items[:1]
        held = {row["path"] for row in _rows(new.fed, "objects")}
        oid = new.fed.mcat.ids.peek("oid")
        caches = replica_caches(old.fed), replica_caches(new.fed)
        got_old, cost_old, legs_old, audit_old = old.call(
            bulk, items, target, principal)
        got_new, cost_new, legs_new, audit_new = new.call(
            bulk, items, target, principal)
        kwargs, members = TARGETS[target]
        container = kwargs.get("container")
        bad_target = target_error(target, principal)
        failed = [checks(item, principal) for item in items]
        ops = existing(items)       # collection_exists asked once less
        rows = -colder_rows(old, new, *caches)
        same_checks = same_audit = same_reply = True
        created = None              # the rows a bulk push is for, when
                                    # the old push carried more

        if not bulk and failed[0] is None:
            path = paths.normalize(items[0]["path"])
            if bad_target is not None and path not in held:
                # bug: the object row was written and deleted, its oid
                # spent; now the target fails first
                event("bug: unusable target")
                assert got_new == got_old == error(bad_target)
                ops += 2
                rows = cost_old[1] - cost_new[1]
                assert new.fed.mcat.ids.peek("oid") == oid
                assert old.fed.mcat.ids.peek("oid") == oid + 1
                new.fed.mcat.ids.next_int("oid")    # keep the twins' oids
            elif bad_target is not None:
                # precedence: the target's error, not AlreadyExists
                event("precedence: single")
                assert got_old[:2] == ("raise", AlreadyExists.__name__)
                assert got_new == error(bad_target)
                assert audit_old == []
                assert audit_new == ([(principal, "ingest", path, None,
                                       False)]
                                     if type(bad_target) is AccessDenied
                                     else [])
                ops += 1 - (target_ops(mode, principal, container)
                            if container else 0)
                rows = cost_old[1] - cost_new[1]
                same_checks = same_audit = same_reply = False
            elif path in held and container:
                # the container is read before the taken path fails
                event("taken path into a container")
                assert got_new == got_old
                ops -= target_ops(mode, principal, container)
                rows = cost_old[1] - cost_new[1]
                same_checks = False
            else:
                assert got_new == got_old
                if got_new[0] == "ok" and members:
                    ops += len(members) - 1     # one grouped replica write
        elif not bulk:
            assert got_new == got_old
        elif all(failed):
            # nothing passed its checks: no target is resolved now
            event("bulk: nothing passed")
            assert got_new == ("ok", [
                {"path": str(item["path"]), "error": str(exc),
                 "error_type": type(exc).__name__}
                for item, exc in zip(items, failed)])
            if target in ("nores", "nope") or bad_target and container:
                assert got_old == error(bad_target)
                assert audit_new == [(principal, "bulk-ingest",
                                      f"{len(items)} items", "0B", True)]
                same_audit = same_reply = False
            else:
                assert got_old == got_new
                # the old body wrote an empty batch (which a partitioned
                # catalog routes to no partition)
                ops += len(old.fed.mcat.shards) == 1
            if container:
                ops += target_ops(mode, principal, container)
            rows = cost_old[1] - cost_new[1]
            same_checks = False
        else:
            assert got_new == got_old
            results = got_new[1] if got_new[0] == "ok" else []
            if container and any("oid" in r for r in results):
                ops += 1            # the first member's re-read
                rows += 1
            if members and any(r.get("error_type") == "AlreadyExists"
                               for r in results):
                event("bug: bulk push of a taken path")
                created = [item for item, exc, r in zip(items, failed,
                                                        results)
                           if exc is None
                           and r.get("error_type") != "AlreadyExists"]

        # members are ranked for the bytes of the items that passed
        # their checks (the old bulk body ranked them for none)
        passed = [item for item, exc in zip(items, failed) if exc is None]
        assert new.placed == ([(members, sum(len(item["data"])
                                             for item in passed))]
                              if members and passed else [])

        ops += len(audit_old) - len(audit_new)
        if same_audit:
            assert audit_new == audit_old
        assert cost_old[0] - cost_new[0] == ops, (bulk, items, target)
        assert cost_old[1] - cost_new[1] == rows
        saved = cost_old[2] - cost_new[2]
        identity = ops * Mcat.QUERY_OVERHEAD_S + rows * Mcat.ROW_COST_S
        if not same_reply:
            # the two replies differ: so do their bytes and wire seconds
            assert legs_new == legs_old
            assert cost_new[3] == cost_old[3]
            assert saved == pytest.approx(
                identity + cost_old[7] - cost_new[7], abs=1e-12)
        elif created is None:
            assert saved == pytest.approx(identity, abs=1e-12)
            assert legs_new == legs_old
            assert cost_new[3:5] == cost_old[3:5]
            assert cost_new[7] == pytest.approx(cost_old[7], abs=1e-12)
        else:
            # bug: a push carries only the bytes of the rows created
            assert saved >= identity - 1e-12
            pushed = sum(len(item["data"]) for item in created)
            assert legs_new == [leg[:2] + (pushed, leg[3])
                                for leg in legs_old if created]
            assert cost_new[4] <= cost_old[4]
        if same_checks:
            assert cost_new[5:7] == cost_old[5:7]
        assert state(new.fed) == state(old.fed)
