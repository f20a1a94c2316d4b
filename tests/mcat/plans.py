"""The scan plan, as a catalog: one without the indexes the index plan
probes.

Every query picks its plan by one rule (``query._index_page_is_cheaper``).
A catalog whose metadata table has no ``attr`` index and neither pair
index offers no probe (``query._probes``), so it walks the query's
scope; it keeps ``target_id``, so the walk reads each object's metadata
as it always does.  Comparing a catalog with such a twin compares the
two plans: the same answers, and the rows each touches.
"""

from repro.mcat import Mcat
from repro.mcat.schema import NUM_INDEX, TEXT_INDEX

#: the metadata indexes the index plan probes
PROBE_INDEXES = ("attr", NUM_INDEX, TEXT_INDEX)


def drop_probe_indexes(catalog):
    """Drop :data:`PROBE_INDEXES` from every copy of ``catalog``'s
    tables: a plain ``Mcat``, or each partition's primary and replicas
    of a ``ShardedMcat``.  Returns ``catalog``."""
    copies = [catalog] if isinstance(catalog, Mcat) else [
        copy for shard in catalog.shards
        for copy in [shard.primary] + [r.catalog for r in shard.replicas]]
    for copy in copies:
        metadata = copy.db.table("metadata")
        for key in PROBE_INDEXES:
            metadata.drop_index(key)
    return catalog


def scan_twin(mcat: Mcat) -> Mcat:
    """A copy of the plain catalog ``mcat`` (its rows and row ids, on its
    clock) without :data:`PROBE_INDEXES`."""
    twin = drop_probe_indexes(Mcat(zone=mcat.zone, clock=mcat.clock))
    twin.db.restore(mcat.db.snapshot())
    return twin
