"""``bulk_get`` against the loop it replaced.

Each ``bulk_get`` item now runs ``get``'s read of one object,
``DataService._read_item``.  The loop it replaced is kept in
:mod:`tests.core.bulk_get_oracle`.  Twin grids — one serving the
oracle, one the change — take the same calls from a remote client:
stored files near and far, container members with and without the
prefetch, a link and a dangling one, a missing path, a bad one, a
collection, a file the guest may not read, a file another user locked,
and the kinds the old loop refused or could not find.  They run on a
plain grid and with direct data channels.

Per call the two must agree on every item's answer, on the object,
replica and metadata rows, on the audit rows, on the legs the leg runner
moved, on the messages and bytes on the wire, on the catalog ops, rows
and seconds and on the access checks.  The only differences allowed are
the items the old loop could not read, and each must now answer exactly
what ``get`` answers for its path:

* a file under a registered directory (the old loop had no shadow
  fallback: ``NoSuchObject``), the directory itself and a missing file
  under it;
* a registered URL, SQL or method object (the old loop refused the kind:
  ``UnsupportedOperation``).

Those items read or fail where the old loop failed at once, so from the
first call that names one on, the twins' costs are no longer compared:
only the answers are.  Before that, one difference in cost is allowed,
and asserted exactly: an item with no catalog row now looks for a
registered directory above it, as ``get`` does — one catalog lookup per
ancestor below the root, up to the first that has a row — before it
fails ``NoSuchObject``.
"""

from typing import Any, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Federation, SrbClient
from repro.db import Column
from repro.errors import SrbError
from repro.mcat.catalog import Mcat
from repro.util import paths
from tests.core.bulk_get_oracle import oracle_servers
from tests.invariants import _rows

MODES = {"default": {}, "direct_io": {"direct_io": True}}
ADMIN, GUEST = "srbadmin@sdsc", "guest@sdsc"
BOX = "/z/c/box"
#: what the old loop read or refused as ``get`` does
SAME = ["/z/c/a", "/z/c/far", "/z/c/m1", "/z/c/m2", "/z/c/lnk",
        "/z/c/gone", "/z/c/none", "/z/c//bad", "/z/c", "/z/p/x",
        "/z/c/held"]
#: what the old loop could not read: each now answers as ``get`` does
CHANGED = ["/z/c/cone/f", "/z/c/cone/sub/g", "/z/c/cone/ghost", "/z/c/cone",
           "/z/c/url", "/z/c/sql", "/z/c/meth"]


def build(oracle: bool, knobs: Dict[str, Any]):
    """Three hosts: the server's (h1), a far one (h2) and the clients'
    (h3).  ``disk`` and the database ``db`` on h1, ``far`` and the
    container ``/z/c/box`` on h2.  The guest may read ``/z/c``, not
    ``/z/p``; ``/z/c/held`` is locked exclusively by the admin."""
    fed = Federation(zone="z", **knobs)
    for host in ("h1", "h2", "h3"):
        fed.add_host(host)
    if oracle:
        with oracle_servers():
            fed.add_server("s1", "h1", mcat=True)
    else:
        fed.add_server("s1", "h1", mcat=True)
    fed.add_fs_resource("disk", "h1")
    fed.add_fs_resource("far", "h2")
    fed.add_database_resource("db", "h1")
    fed.default_resource = "disk"
    fed.bootstrap_admin()
    fed.add_user(GUEST, "pw")
    clients = {ADMIN: SrbClient(fed, "h3", "s1", ADMIN, "hunter2"),
               GUEST: SrbClient(fed, "h3", "s1", GUEST, "pw")}
    for client in clients.values():
        client.login()
    admin = clients[ADMIN]
    for coll in ("/z/c", "/z/p"):
        admin.mkcoll(coll)
    admin.ingest("/z/c/a", b"near")
    admin.ingest("/z/c/far", b"f" * 300, resource="far")
    admin.create_container(BOX, "far")
    admin.ingest("/z/c/m1", b"one", container=BOX)
    admin.ingest("/z/c/m2", b"two" * 50, container=BOX)
    admin.link("/z/c/far", "/z/c/lnk")
    admin.ingest("/z/c/tmp", b"t")
    admin.link("/z/c/tmp", "/z/c/gone")
    admin.delete("/z/c/tmp")
    admin.ingest("/z/p/x", b"private")
    admin.ingest("/z/c/held", b"held")
    admin.lock("/z/c/held", "exclusive")
    drv = fed.resources.physical("far").driver
    drv.create("/arch/f", b"shadowed")
    drv.create("/arch/sub/g", b"deeper")
    admin.register_directory("/z/c/cone", "far", "/arch")
    fed.web.publish("http://museum.org/page", b"<html>art</html>")
    admin.register_url("/z/c/url", "http://museum.org/page")
    table = fed.resources.physical("db").driver.create_user_table(
        "stars", [Column("name", "TEXT"), Column("mag", "FLOAT")])
    table.insert({"name": "Vega", "mag": 0.03})
    admin.register_sql("/z/c/sql", "db", "SELECT name FROM stars")
    fed.install_proxy_command("s1", "echo",
                              lambda args: b"echo:" + args.encode())
    admin.register_method("/z/c/meth", "s1", "echo")
    for path in ("/z/c", "/z/c/a", "/z/c/far", "/z/c/m1", "/z/c/m2", BOX,
                 "/z/c/lnk", "/z/c/cone", "/z/c/url", "/z/c/sql",
                 "/z/c/meth", "/z/c/held"):
        admin.grant(path, GUEST, "read")
    return fed, clients


def answer(call):
    """What a client call returned, or the error it raised."""
    try:
        return ("ok", call())
    except SrbError as exc:
        return ("raise", type(exc).__name__, str(exc))


def item_answer(item: Dict[str, Any]):
    """A ``bulk_get`` item as ``answer`` would put a ``get``."""
    if "error_type" in item:
        return ("raise", item["error_type"], item["error"])
    return ("ok", item["data"])


def shadow_lookups(fed, targets) -> int:
    """Catalog lookups ``get``'s shadow fallback makes for the targets
    that have no row: one per ancestor below the root, up to the first
    that has one (none of these grids' missing paths has such an
    ancestor, so the lookups read no row)."""
    held = {row["path"] for row in _rows(fed, "objects")}
    lookups = 0
    for target in targets:
        try:
            path = paths.normalize(target)
        except SrbError:
            continue
        if path in held:
            continue
        for ancestor in reversed(paths.ancestors(path)):
            if ancestor == "/":
                break
            lookups += 1
            assert ancestor not in held
    return lookups


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

    def counters(self) -> tuple:
        fed, metrics = self.fed, self.fed.obs.metrics
        return (metrics.get("mcat.ops"), metrics.get("mcat.rows_scanned"),
                fed.clock.now, fed.network.messages_sent,
                fed.network.bytes_sent, fed.access.checks,
                fed.access.denials)

    def call(self, targets, via: bool, principal: str):
        """Answer, counter deltas, legs run and audit rows written
        (without their times: an item's lookups may move the clock)."""
        before = self.counters()
        audited = len(list(_rows(self.fed, "audit")))
        self.legs = []
        got = answer(lambda: self.clients[principal].bulk_get(
            targets, via_container=BOX if via else None))
        cost = [b - a for a, b in zip(before, self.counters())]
        return got, cost, list(self.legs), [
            {k: v for k, v in row.items() if k != "at"}
            for row in list(_rows(self.fed, "audit"))[audited:]]


CALLS = st.lists(st.tuples(st.lists(st.sampled_from(SAME + CHANGED),
                                    min_size=1, max_size=4),
                           st.booleans(), st.sampled_from([ADMIN, GUEST])),
                 min_size=1, max_size=3)


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(calls=CALLS)
def test_one_read_body_matches_the_loop_it_replaced(mode, calls):
    old, new = Twin(True, MODES[mode]), Twin(False, MODES[mode])
    comparable = True
    for targets, via, principal in calls:
        got_old, cost_old, legs_old, audit_old = old.call(targets, via,
                                                          principal)
        got_new, cost_new, legs_new, audit_new = new.call(targets, via,
                                                          principal)
        changed = [t in CHANGED for t in targets]
        assert got_new[0] == got_old[0] == "ok"
        for target, was, now, new_item in zip(
                targets, got_old[1], got_new[1], changed):
            if not new_item:
                assert now == was, target
                continue
            assert was["error_type"] in ("NoSuchObject",
                                         "UnsupportedOperation")
            assert item_answer(now) == answer(
                lambda: new.clients[principal].get(target)), target
        comparable = comparable and not any(changed)
        if comparable:
            ops = shadow_lookups(new.fed, targets)
            assert cost_new[0] - cost_old[0] == ops
            assert cost_new[1] == cost_old[1]
            assert cost_new[2] - cost_old[2] == pytest.approx(
                ops * Mcat.QUERY_OVERHEAD_S, abs=1e-12)
            assert cost_new[3:] == cost_old[3:]
            assert legs_new == legs_old
            assert audit_new == audit_old
    for table in ("objects", "replicas", "metadata", "locks"):
        assert list(_rows(new.fed, table)) == list(_rows(old.fed, table))
