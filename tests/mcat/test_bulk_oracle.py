"""The catalog's grouped bulk writes against the row-by-row ones.

``Mcat.create_objects``, ``add_replicas`` and ``add_metadata_bulk``
insert each table's rows as one ``Table.insert_many``; the oracle in
:mod:`tests.mcat.bulk_oracle` is the code they replaced, one
``Table.insert`` per row.  Run on twin catalogs, both must return the
same answers and leave the same rows, ids, scan accounting, ``mcat.ops``
and virtual clock — on one partition, and on two partitions with a
replica each, whose write logs must be equal entry for entry.

A batch where the table refuses a row whose path a later item repeats
is left out: the later item gets the path, as one by one, but its oid is
minted after the batch's (``tests/mcat/test_refused_row.py``).
"""

from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import DatabaseError, MetadataError
from repro.mcat.shard import ShardedMcat
from repro.util.clock import SimClock
from tests.db.test_table import index_state, typed
from tests.mcat import bulk_oracle
from tests.probes import counter

OWNER = "sekar@sdsc"
COLL = "/demozone/home"
BULK = ("create_objects", "add_replicas", "add_metadata_bulk")


def twins(shards=1):
    """Two catalogs in the same state; the second writes through the
    oracle.  Each holds two collections and an object with a replica and
    a triple, so a batch can clash with stored rows."""
    out = []
    for oracle in (False, True):
        cat = ShardedMcat(clock=SimClock(), shards=shards,
                          replicas=1 if shards > 1 else 0)
        for shard in cat.shards:
            if oracle:
                for name in BULK:
                    setattr(shard.primary, name,
                            partial(getattr(bulk_oracle, name),
                                    shard.primary))
        if shards == 1 and oracle:      # the one partition's ops are bound
            for name in BULK:
                setattr(cat, name, getattr(cat.shards[0].primary, name))
        cat.create_collection(COLL, OWNER, now=0.0)
        cat.create_collection(f"{COLL}/sub", OWNER, now=0.0)
        oid = cat.create_object(f"{COLL}/old", "data", OWNER, now=0.0)
        cat.add_replica(oid, "disk", "/p/old", 3, now=0.0)
        cat.add_metadata("object", oid, "RA", "1.5", by=OWNER, now=0.0)
        out.append(cat)
    return out


def state(cat: ShardedMcat):
    """Everything a bulk write may change, per partition: rows, indexes,
    id counters, rows scanned, charged ops, busy time, the clock, and the
    write log with what its replica holds after replaying it."""
    out = [dict(cat.ids._counters), counter(cat.obs.metrics, "mcat.ops"),
           counter(cat.obs.metrics, "mcat.rows_scanned"), cat.clock.now]
    for shard in cat.shards:
        db = shard.primary.db
        out.append([(name, db.table(name).snapshot_rows(),
                     index_state(db.table(name))) for name in db.tables()])
        out.append((db.scan_counter.total, shard.primary.busy_s,
                    repr(shard.log)))
        for rep in shard.replicas:
            cat._apply(shard, rep)
            rdb = rep.catalog.db
            out.append([rdb.table(name).snapshot_rows()
                        for name in rdb.tables()])
    return typed(out)


def answer(value):
    """A result list with each error as its type and message."""
    if isinstance(value, Exception):
        return (type(value).__name__, str(value))
    if isinstance(value, list):
        return [answer(v) for v in value]
    return value


def both(pair, method, *args, **kwargs):
    got = [answer(_outcome(getattr(cat, method), *args, **kwargs))
           for cat in pair]
    assert got[0] == got[1], method
    return got[0]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


# an item's path: new, repeated in the batch, stored, under a missing
# collection, or invalid
PATHS = st.sampled_from([f"{COLL}/a", f"{COLL}/b", f"{COLL}/sub/c",
                         f"{COLL}/a", f"{COLL}/old", f"{COLL}/sub",
                         f"{COLL}/nope/x", f"{COLL}//bad", "relative"])
ITEM = st.fixed_dictionaries(
    {"path": PATHS, "kind": st.sampled_from(["data"] * 6 + ["bogus"])},
    optional={"size": st.sampled_from([1, 7]),
              "data_type": st.sampled_from(["fits image", 5]),
              "checksum": st.just("c0ffee")})


def refused_then_claimed(specs):
    """Does an item whose row the table refuses (a non-text
    ``data_type``) share its path with a later item?"""
    bad = {s["path"] for s in specs if s.get("data_type") == 5}
    return len([s for s in specs if s["path"] in bad]) > 1


@pytest.mark.parametrize("shards", [1, 2])
class TestSameAsRowByRow:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(ITEM, max_size=8))
    def test_create_objects(self, shards, specs):
        assume(not refused_then_claimed(specs))
        pair = twins(shards)
        both(pair, "create_objects", specs, OWNER, now=2.0)
        assert state(pair[0]) == state(pair[1])

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 3),
                                    st.sampled_from(["disk", "tape"]),
                                    st.sampled_from([None, 4])),
                          min_size=1, max_size=8))
    def test_add_replicas(self, shards, picks):
        pair = twins(shards)
        oids = both(pair, "create_objects", [
            {"path": f"{COLL}/r{i}", "kind": "data"} for i in range(3)],
            OWNER, now=1.0)
        oids.append(both(pair, "get_object", f"{COLL}/old")["oid"])
        specs = [{"oid": oids[i], "resource": res, "physical_path": f"/p/{i}",
                  "size": 10, **({} if off is None else
                                 {"container_oid": oids[0], "offset": off})}
                 for i, res, off in picks]
        both(pair, "add_replicas", specs, now=2.0)
        assert state(pair[0]) == state(pair[1])

    @settings(max_examples=40, deadline=None)
    @given(triples=st.lists(st.tuples(
        st.integers(0, 2), st.sampled_from(["RA", "DEC", "NOTE"]),
        st.sampled_from(["1.5", "x", None, "-2"]),
        st.sampled_from([{}, {"units": "deg"}, {"meta_class": "file-based"},
                         {"target_kind": "collection"},
                         {"comment": "a key no column has"}])), max_size=10))
    def test_add_metadata_bulk(self, shards, triples):
        pair = twins(shards)
        oids = both(pair, "create_objects", [
            {"path": f"{COLL}/m{i}", "kind": "data"} for i in range(3)],
            OWNER, now=1.0)
        specs = [{"target_kind": "object", "target_id": oids[i],
                  "attr": attr, "value": value, **extra}
                 for i, attr, value, extra in triples]
        both(pair, "add_metadata_bulk", specs, by=OWNER, now=2.0)
        assert state(pair[0]) == state(pair[1])

    @pytest.mark.parametrize("bad", [
        {"target_kind": "file"}, {"meta_class": "odd"}, {"attr": ""},
        {"attr": 5}, {"value": 2.5}, {"meta_class": "type",
                                      "schema_name": "nope"}])
    def test_a_bad_metadata_spec_raises_its_own_error(self, shards, bad):
        pair = twins(shards)
        oid = both(pair, "get_object", f"{COLL}/old")["oid"]
        good = {"target_kind": "object", "target_id": oid, "attr": "A",
                "value": "1"}
        error = both(pair, "add_metadata_bulk",
                     [good, {**good, **bad}, {**good, "attr": ""}],
                     by=OWNER, now=2.0)
        assert error[0] in ("MetadataError", "NoSuchSchema")
        assert state(pair[0]) == state(pair[1])


class TestPerItemContract:
    def test_a_refused_row_fails_alone_and_spends_its_oid(self):
        cat, oracle = twins()
        specs = [{"path": f"{COLL}/x{i}", "kind": "data",
                  "data_type": 5 if i == 1 else "fits image"}
                 for i in range(3)]
        got = both((cat, oracle), "create_objects", specs, OWNER, now=2.0)
        assert got[1][0] == "DatabaseError"
        assert got[0] + 2 == got[2]         # the refused item's oid is spent
        assert state(cat) == state(oracle)

    def test_a_repeated_path_fails_the_later_item(self):
        cat, oracle = twins()
        specs = [{"path": f"{COLL}/x", "kind": "data"}] * 2
        got = both((cat, oracle), "create_objects", specs, OWNER, now=2.0)
        assert got[1][0] == "AlreadyExists"
        assert state(cat) == state(oracle)

    def test_a_refused_replica_or_triple_leaves_no_row_of_its_batch(self):
        cat = twins()[0]
        oid = cat.get_object(f"{COLL}/old")["oid"]
        replicas = len(cat.replicas(oid))
        with pytest.raises(DatabaseError):
            cat.add_replicas([{"oid": oid, "resource": "r", "size": 1,
                               "physical_path": "/p"},
                              {"oid": oid, "resource": "r", "size": "big",
                               "physical_path": "/p"}], now=1.0)
        assert len(cat.replicas(oid)) == replicas
        with pytest.raises(DatabaseError):
            cat.add_metadata_bulk([
                {"target_kind": "object", "target_id": oid, "attr": "A",
                 "value": "1"},
                {"target_kind": "object", "target_id": oid, "attr": "B",
                 "value": "1", "units": 5}], by=OWNER, now=1.0)
        assert [m["attr"] for m in cat.get_metadata("object", oid)] == ["RA"]
        with pytest.raises(MetadataError):
            cat.add_metadata_bulk([{"target_kind": "object", "target_id": oid,
                                    "attr": "A", "value": 1}],
                                  by=OWNER, now=1.0)


@pytest.mark.parametrize("shards", [1, 2])
class TestSameAsPerItemChecks:
    """``create_objects`` checks a batch in one pass (``Mcat._new_rows``);
    ``bulk_oracle.create_objects_per_item`` is the body it replaced, one
    ``_object_values`` per spec.  Both write one batch, so nothing is
    left out: the same answers, rows, ids, scan accounting, ops and
    clock."""

    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(ITEM, max_size=8))
    def test_create_objects(self, shards, specs):
        pair = twins(shards)
        for shard in pair[1].shards:
            shard.primary.create_objects = partial(
                bulk_oracle.create_objects_per_item, shard.primary)
        if shards == 1:
            pair[1].create_objects = pair[1].shards[0].primary.create_objects
        got = [answer(_outcome(pair[0].create_objects, specs, OWNER,
                               now=2.0)),
               answer(_outcome(pair[1].create_objects, specs, OWNER,
                               now=2.0))]
        assert got[0] == got[1]
        assert state(pair[0]) == state(pair[1])

    def test_a_field_that_is_not_a_column_a_spec_sets_is_refused(
            self, shards):
        """As the per-item body's keyword signature refused it: the
        call raises, and no row is written."""
        pair = twins(shards)
        for field in ("version", "checked_out_by", "coll", "colour"):
            with pytest.raises(TypeError):
                pair[0].create_objects(
                    [{"path": "/demozone/home/a", "kind": "data"},
                     {"path": "/demozone/home/b", "kind": "data",
                      field: 2}], OWNER, now=2.0)
            with pytest.raises(TypeError):
                pair[0].create_object("/demozone/home/c", "data", OWNER,
                                      2.0, **{field: 2})
        assert pair[0].lookup("/demozone/home/a") is None
