"""Each catalog table has one writer: the row writers are the bulk ones
run on one item.

``Mcat.create_object``, ``add_replica`` and ``add_metadata`` are
``create_objects``, ``add_replicas`` and ``add_metadata_bulk`` on a list
of one; :mod:`tests.mcat.bulk_oracle` keeps the bodies they had, each
with its own charged block, id and insert.  Twin catalogs — a bare
``Mcat``, and two partitions with a replica each, where the old ones
were routed one call to one partition — take the same calls through
both and must return the same values or errors and leave the same rows,
indexes, ids spent, rows scanned, ``mcat.ops``, virtual clock and write
log entries.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.mcat.catalog import Mcat
from repro.mcat.shard import (
    PRIMARY, ShardedMcat, _of_oid, _of_path, _of_target, _route_one)
from repro.util.clock import SimClock
from tests.db.test_table import index_state, typed
from tests.mcat import bulk_oracle
from tests.mcat.test_bulk_oracle import answer
from tests.probes import counter

OWNER = "sekar@sdsc"
#: two partition keys, so two partitions both take writes
COLLS = ("/demozone/home", "/demozone/sky", "/demozone/home/sub")
WRITERS = ("create_object", "add_replica", "add_metadata")
#: how the sharded catalog routed each row writer before it was composed
OLD_ROUTES = {"create_object": (_of_path, 1), "add_replica": (_of_oid, 1),
              "add_metadata": (_of_target, 2)}


def twins(sharded):
    """Two catalogs in the same state; the second writes rows through
    the oracle.  Each holds three collections and an object with a
    replica and a triple."""
    out = []
    for oracle in (False, True):
        if sharded:
            cat = ShardedMcat(clock=SimClock(), shards=2, replicas=1)
            primaries = [shard.primary for shard in cat.shards]
        else:
            cat = Mcat(clock=SimClock())
            primaries = [cat]
        if oracle:
            for primary in primaries:
                for name in WRITERS:
                    setattr(primary, name,
                            partial(getattr(bulk_oracle, name), primary))
            if sharded:
                for name, (key, nkeys) in OLD_ROUTES.items():
                    setattr(cat, name, partial(
                        _route_one(name, PRIMARY, key, nkeys), cat))
        for coll in COLLS:
            cat.create_collection(coll, OWNER, now=0.0)
        oid = cat.create_object(f"{COLLS[0]}/old", "data", OWNER, now=0.0)
        cat.add_replica(oid, "disk", "/p/old", 3, now=0.0)
        cat.add_metadata("object", oid, "RA", "1.5", by=OWNER, now=0.0)
        out.append(cat)
    return out


def state(cat):
    """Everything a row write may change, per partition: rows, indexes,
    id counters, rows scanned, charged ops, busy time, the clock, and
    the write log with what its replica holds after replaying it."""
    out = [dict(cat.ids._counters), counter(cat.obs.metrics, "mcat.ops"),
           counter(cat.obs.metrics, "mcat.rows_scanned"), cat.clock.now]
    for shard in getattr(cat, "shards", ()) or [None]:
        primary = cat if shard is None else shard.primary
        db = primary.db
        out.append([(name, db.table(name).snapshot_rows(),
                     index_state(db.table(name))) for name in db.tables()])
        out.append((db.scan_counter.total, primary.busy_s))
        if shard is not None:
            out.append(repr(shard.log))
            for rep in shard.replicas:
                cat._apply(shard, rep)
                out.append([rep.catalog.db.table(name).snapshot_rows()
                            for name in rep.catalog.db.tables()])
    return typed(out)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


# an object's path: new (under either partition), repeated, stored, a
# collection, under a missing collection, or invalid
PATHS = st.sampled_from([f"{COLLS[0]}/a", f"{COLLS[1]}/b", f"{COLLS[2]}/c",
                         f"{COLLS[0]}/a", f"{COLLS[0]}/old", COLLS[2],
                         f"{COLLS[0]}/nope/x", f"{COLLS[0]}//bad",
                         "relative"])
CREATE = st.tuples(st.just("create_object"), st.fixed_dictionaries(
    {"path": PATHS, "kind": st.sampled_from(["data"] * 5 + ["bogus"])},
    optional={"size": st.sampled_from([1, 7]),
              "data_type": st.sampled_from(["fits image", 5]),
              "checksum": st.just("c0ffee")}))
# a target is an index into the oids made so far (or one no row has)
REPLICA = st.tuples(st.just("add_replica"), st.fixed_dictionaries(
    {"target": st.integers(0, 4), "resource": st.sampled_from(["disk", "t"]),
     "size": st.sampled_from([10, 10, "big"])},
    optional={"in_container": st.sampled_from([None, 4])}))
TRIPLE = st.tuples(st.just("add_metadata"), st.fixed_dictionaries(
    {"target": st.integers(0, 4),
     "target_kind": st.sampled_from(["object"] * 4 + ["collection", "file"]),
     "attr": st.sampled_from(["RA", "NOTE", "Title", "", 5]),
     "value": st.sampled_from(["1.5", "x", None, 2.5])},
    optional={"units": st.sampled_from(["deg", 5]),
              "meta_class": st.sampled_from(["file-based", "type", "odd"]),
              "schema_name": st.sampled_from(["dublin-core", "nope"])}))


def run(cat, calls):
    """Make ``calls`` on ``cat``; returns each one's answer."""
    oids = [cat.get_object(f"{COLLS[0]}/old")["oid"]]
    got = []
    for method, args in calls:
        args = dict(args)
        if method == "create_object":
            out = _outcome(cat.create_object, args.pop("path"),
                           args.pop("kind"), OWNER, 2.0, **args)
            if type(out) is int:
                oids.append(out)
        else:
            k = args.pop("target")
            target = oids[k] if k < len(oids) else 999
            if method == "add_replica":
                offset = args.pop("in_container", None)
                extra = {} if offset is None else {
                    "container_oid": oids[0], "offset": offset}
                out = _outcome(cat.add_replica, target, args["resource"],
                               f"/p/{len(got)}", args["size"], now=3.0,
                               **extra)
            else:
                out = _outcome(cat.add_metadata, args.pop("target_kind"),
                               target, by=OWNER, now=4.0, **args)
        got.append(answer(out))
    return got


@pytest.mark.parametrize("sharded", [False, True], ids=["bare", "sharded"])
class TestSameAsTheRowWriters:
    @settings(max_examples=80, deadline=None)
    @given(calls=st.lists(st.one_of(CREATE, REPLICA, TRIPLE), max_size=10))
    def test_a_sequence_of_row_writes(self, sharded, calls):
        cat, oracle = twins(sharded)
        assert run(cat, calls) == run(oracle, calls)
        assert state(cat) == state(oracle)

    def test_the_seed_rows_already_agree(self, sharded):
        cat, oracle = twins(sharded)
        assert state(cat) == state(oracle)
        assert counter(cat.obs.metrics, "mcat.ops") > 0
        if sharded:     # the two partition keys are on different shards
            assert {cat.shard_of_path(coll) for coll in COLLS} == {0, 1}


def test_no_row_writer_is_routed_on_its_own():
    """The sharded catalog places a row write by its bulk writer's
    route: the three are composed, not routes of their own."""
    from repro.mcat.shard import COMPOSED, ROUTES
    assert set(WRITERS) <= set(COMPOSED)
    assert not set(WRITERS) & set(ROUTES)
    for name in WRITERS:
        assert vars(ShardedMcat)[name] is vars(Mcat)[name]
