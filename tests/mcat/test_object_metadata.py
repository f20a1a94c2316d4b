"""What a query reads of a batch's metadata (``Mcat._object_metadata``)
against the read it replaced, which looked up every triple of each
object and kept those of the named attributes: on random catalogs, of
one partition and of two, the same stored values come back, the old read
is charged at least as many rows, and the new one exactly the triples of
the named ``(object, attribute)`` pairs — so a query's result, columns
and multi-valued joins cannot tell the two apart.

The catalogs hold multi-valued attributes, collection metadata whose
``cid`` collides with an object's ``oid``, objects without some of the
attributes asked for, and renamed subtrees (across partitions, when
there are two)."""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mcat import Condition, DisplayOnly, Mcat, ShardedMcat, search
from repro.util.clock import SimClock

ZONE = "demozone"
OWNER = "sekar@sdsc"
COLLS = (f"/{ZONE}/a", f"/{ZONE}/a/sub", f"/{ZONE}/b", f"/{ZONE}/c")
ATTRS = ("RA", "band", "note")
ASKED = ATTRS + ("absent",)
VALUES = st.one_of(st.none(), st.sampled_from(("1", "2.5", "abc", "")))

catalogs = st.fixed_dictionaries({
    "objects": st.lists(st.tuples(
        st.sampled_from(COLLS),
        st.lists(st.tuples(st.sampled_from(ATTRS), VALUES), max_size=5)),
        min_size=1, max_size=12),
    "coll_metadata": st.lists(st.tuples(st.sampled_from(COLLS),
                                        st.sampled_from(ATTRS), VALUES),
                              max_size=6),
    "rename": st.booleans(),
})


def read_every_triple(self: Mcat, oids, attrs):
    """``_object_metadata`` as it was: every triple of each object, then
    those of ``attrs`` kept."""
    with self._charge:
        t = self._metadata
        got = [(mid, tid, attr, value, num)
               for mid, kind, tid, attr, value, num in t.iter_values(
                   t.lookup_eq_many("target_id", oids),
                   ("mid", "target_kind", "target_id", "attr", "value",
                    "value_num"))
               if kind == "object" and attr in attrs]
        got.sort()
        return [triple[1:] for triple in got]


def build(spec, shards: int) -> ShardedMcat:
    m = ShardedMcat(zone=ZONE, clock=SimClock(), shards=shards)
    cids = {coll: m.create_collection(coll, OWNER, now=0.0)
            for coll in COLLS}
    for i, (coll, metadata) in enumerate(spec["objects"]):
        oid = m.create_object(f"{coll}/f{i:02d}", "data", OWNER, now=0.0)
        for attr, value in metadata:
            m.add_metadata("object", oid, attr, value, by=OWNER, now=0.0)
    for coll, attr, value in spec["coll_metadata"]:
        m.add_metadata("collection", cids[coll], attr, value, by=OWNER,
                       now=0.0)
    if spec["rename"]:
        m.rename_subtree(f"/{ZONE}/a", f"/{ZONE}/z")
    return m


def charged(part: Mcat, read, oids, attrs):
    before = part._rows_scanned()
    got = read(part, oids, attrs)
    return got, part._rows_scanned() - before


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(spec=catalogs, shards=st.sampled_from((1, 2)), data=st.data())
def test_the_named_triples_and_no_others(spec, shards, data):
    m = build(spec, shards)
    for shard in m.shards:
        part = shard.primary
        objects, md = (part.db.table(name) for name in ("objects",
                                                         "metadata"))
        oids = [objects.value(rid, "oid")
                for rid, row in enumerate(objects._rows) if row is not None]
        asked = data.draw(st.lists(st.sampled_from(oids + [999]),
                                   unique=True))
        attrs = data.draw(st.sets(st.sampled_from(ASKED)))
        new, rows = charged(part, Mcat._object_metadata, asked, attrs)
        old, old_rows = charged(part, read_every_triple, asked, attrs)
        assert new == old
        assert old_rows >= rows
        # exactly the triples filed under the named pairs, whatever
        # kind of target holds them
        assert rows == sum(1 for rid, row in enumerate(md._rows)
                           if row is not None
                           and md.value(rid, "target_id") in asked
                           and md.value(rid, "attr") in attrs)


@SETTINGS
@given(spec=catalogs, shards=st.sampled_from((1, 2)),
       shown=st.lists(st.sampled_from(ASKED), min_size=1, max_size=3),
       cond=st.one_of(st.none(), st.builds(
           Condition, attr=st.sampled_from(ATTRS),
           op=st.sampled_from(("=", "<>", ">=", "like")),
           value=st.sampled_from(("1", "abc", "%")), display=st.booleans())))
def test_a_query_cannot_tell_the_reads_apart(spec, shards, shown, cond):
    conditions = [DisplayOnly(attr) for attr in shown] + (
        [cond] if cond is not None else [])
    with mock.patch.object(Mcat, "_object_metadata", read_every_triple):
        old = search(build(spec, shards), f"/{ZONE}", conditions)
    new = search(build(spec, shards), f"/{ZONE}", conditions)
    assert (new.columns, new.rows) == (old.columns, old.rows)


def test_a_multi_valued_attribute_joins_and_a_collections_triples_stay_out():
    m = Mcat(zone=ZONE, clock=SimClock())
    m.create_collection(f"/{ZONE}/a", OWNER, now=0.0)
    oid = m.create_object(f"/{ZONE}/a/x", "data", OWNER, now=0.0)
    cid = m.get_collection("/")["cid"]
    assert cid == oid           # the two id sequences collide here
    for attr, value in (("band", "J"), ("RA", "1"), ("band", "H")):
        m.add_metadata("object", oid, attr, value, by=OWNER, now=0.0)
    m.add_metadata("collection", cid, "band", "K", by=OWNER, now=0.0)
    got, rows = charged(m, Mcat._object_metadata, [oid], {"band", "absent"})
    assert got == [(oid, "band", "J", None), (oid, "band", "H", None)]
    assert rows == 3            # the collection's triple is read, not kept
    assert charged(m, read_every_triple, [oid], {"band", "absent"})[1] == 4
    result = search(m, f"/{ZONE}", [DisplayOnly("band"),
                                    DisplayOnly("absent")])
    assert result.rows == [(f"/{ZONE}/a/x", "J; H", None)]
