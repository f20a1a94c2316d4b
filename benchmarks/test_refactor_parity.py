"""Refactor parity guard: the dispatch-pipeline refactor must be
behavior-preserving on the simulated clock.

Each scenario replays the deterministic core of one experiment (E2
failover, E4 catalog scale, E13 bulk ops) and captures the observable
cost surface: charged virtual-time latencies, message/byte counts, RPC
and catalog op counts, and ACL-check counts.  The recordings under
``recordings/refactor_parity.json`` were made at the pre-refactor
server (commit with the monolithic ``SrbServer``); the tests assert the
replayed numbers are byte-identical — an op-count or virtual-second
drift means the dispatch pipeline changed what an operation charges,
not just how the code is arranged.

Regenerate (only when an *intentional* cost change lands, with the old
and new numbers called out in the PR):

    cd benchmarks && PYTHONPATH=../src python test_refactor_parity.py
"""

import json
import os

import pytest

from repro.bench.harness import timed
from repro.errors import ReplicaUnavailable
from repro.mcat import Condition, Mcat, search
from repro.util.clock import SimClock
from repro.workload import small_files, survey_files

from helpers import admin_client, flat_fed, scan_twin

RECORDINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "recordings", "refactor_parity.json")

PATH = "/demozone/bench/critical.dat"
COLL = "/demozone/bench"


def _grid_costs(fed):
    """The federation-wide cost counters a refactor must not move."""
    stats = fed.stats()
    return {k: stats[k] for k in
            ("virtual_time_s", "messages", "bytes_on_wire",
             "failed_attempts", "rpc_calls", "rpc_failures",
             "catalog_objects", "catalog_replicas", "acl_checks",
             "acl_denials")}


def scenario_e2_failover(**fed_kwargs):
    """E2's core series: healthy read, failover read, exhausted read."""
    fed = flat_fed(n_hosts=3, **fed_kwargs)
    client = admin_client(fed)
    client.ingest(PATH, b"irreplaceable" * 100, resource="fs1")
    client.replicate(PATH, "fs2")

    out = {}
    t0 = fed.clock.now
    assert client.get(PATH).startswith(b"irreplaceable")
    out["healthy_read_s"] = fed.clock.now - t0

    fed.network.set_down("h1")
    t0 = fed.clock.now
    assert client.get(PATH).startswith(b"irreplaceable")
    out["failover_read_s"] = fed.clock.now - t0

    fed.network.set_down("h2")
    t0 = fed.clock.now
    with pytest.raises(ReplicaUnavailable):
        client.get(PATH)
    out["exhausted_read_s"] = fed.clock.now - t0

    out.update(_grid_costs(fed))
    return out


def scenario_e4_catalog(**fed_kwargs):
    """E4's core series: indexed vs scan attribute query at one size
(``mcat_ops``: the catalog's build and both queries).

    Pure-catalog scenario: there is no federation to pass
    ``fed_kwargs`` to, so the direct_io-off parity run exercises it
    unchanged (the channel seam cannot touch catalog-only costs).
    """
    del fed_kwargs
    mcat = Mcat(clock=SimClock())
    mcat.create_collection("/demozone/survey", "bench@sdsc", now=0.0)
    for f in survey_files(120):
        oid = mcat.create_object(f"/demozone/survey/{f.name}", "data",
                                 "bench@sdsc", now=0.0,
                                 data_type=f.data_type, size=len(f.content))
        for attr, value in f.attributes.items():
            mcat.add_metadata("object", oid, attr, value, by="bench@sdsc",
                              now=0.0)
    query = [Condition("SURVEY", "=", "2MASS"), Condition("JMAG", "<", "6.0")]

    def measure(catalog, plan):
        m = timed(catalog.clock,
                  lambda: search(catalog, "/demozone/survey", query),
                  metrics=catalog.obs.metrics)
        assert m.metrics.get(f"mcat.queries{{plan={plan}}}") == 1
        out[f"{plan}_query_s"] = m.virtual_s
        out[f"{plan}_rows"] = m.metric("mcat.query_rows_scanned")
        return m.metric("mcat.ops")

    out = {}
    measure(mcat, "index")
    # the scan plan: the catalog's twin without the probe indexes
    scan_ops = measure(scan_twin(mcat), "scan")
    out["mcat_ops"] = mcat.obs.metrics.total("mcat.ops") + scan_ops
    return out


def scenario_e13_bulk(**fed_kwargs):
    """E13's core series: bulk vs per-file ingest/get/metadata-query."""
    fed = flat_fed(n_hosts=2, **fed_kwargs)
    client = admin_client(fed)
    from repro.core import SrbClient
    remote = SrbClient(fed, "h1", "s0", "srbadmin@sdsc", "hunter2")
    remote.login()
    files = list(small_files(12, size=4096))

    out = {}
    t0 = fed.clock.now
    for f in files:
        remote.ingest(f"{COLL}/per-{f.name}", f.content,
                      metadata={"series": "e13"})
    out["perfile_ingest_s"] = fed.clock.now - t0

    items = [{"path": f"{COLL}/blk-{f.name}", "data": f.content,
              "metadata": {"series": "e13"}} for f in files]
    t0 = fed.clock.now
    results = remote.bulk_ingest(items)
    assert all("oid" in r for r in results)
    out["bulk_ingest_s"] = fed.clock.now - t0

    targets = [f"{COLL}/blk-{f.name}" for f in files]
    t0 = fed.clock.now
    got = remote.bulk_get(targets)
    assert all("data" in r for r in got)
    out["bulk_get_s"] = fed.clock.now - t0

    t0 = fed.clock.now
    md = remote.bulk_query_metadata(targets)
    assert all("metadata" in r for r in md)
    out["bulk_query_metadata_s"] = fed.clock.now - t0

    out.update(_grid_costs(fed))
    return out


def scenario_e3_policies(**fed_kwargs):
    """E3's core series: reads under each static selection policy.

    Exercises the selector state machines (round-robin counter, LCG
    shuffle, nearest latency sort) through real gets, so a placement
    refactor that perturbs any policy's ordering or its per-federation
    state shows up as a virtual-time / message-count drift."""
    out = {}
    for policy in ("primary", "round-robin", "random", "nearest"):
        fed = flat_fed(n_hosts=4, placement=policy, **fed_kwargs)
        client = admin_client(fed)
        client.ingest(PATH, b"balanced" * 2000, resource="fs1")
        for res in ("fs2", "fs3"):
            client.replicate(PATH, res)
        t0 = fed.clock.now
        for _ in range(6):
            assert client.get(PATH).startswith(b"balanced")
        out[f"{policy}_reads_s"] = fed.clock.now - t0
        out[f"{policy}_messages"] = fed.stats()["messages"]
    return out


def scenario_e14_striped(**fed_kwargs):
    """E14's core striped-read series: fan-out ingest + k-striped gets."""
    fed = flat_fed(n_hosts=5, **fed_kwargs)
    client = admin_client(fed)
    fed.add_logical_resource("all", [f"fs{i}" for i in range(1, 5)])
    t0 = fed.clock.now
    client.ingest(PATH, b"wide" * 100_000, resource="all")
    out = {"fanout_ingest_s": fed.clock.now - t0}
    for k in (2, 4):
        t0 = fed.clock.now
        assert client.get(PATH, stripes=k).startswith(b"wide")
        out[f"striped_read_k{k}_s"] = fed.clock.now - t0
    t0 = fed.clock.now
    client.put(PATH, b"dirtying" * 50_000)
    client.synchronize(PATH)
    out["synchronize_s"] = fed.clock.now - t0
    out.update(_grid_costs(fed))
    return out


SCENARIOS = {
    "e2_failover": scenario_e2_failover,
    "e3_policies": scenario_e3_policies,
    "e4_catalog": scenario_e4_catalog,
    "e13_bulk": scenario_e13_bulk,
    "e14_striped": scenario_e14_striped,
}


def _normalize(result):
    """Round-trip through JSON so replay and recording compare the same
    float representations."""
    return json.loads(json.dumps(result))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_refactor_parity(name):
    with open(RECORDINGS) as fh:
        recorded = json.load(fh)
    assert name in recorded, f"no recording for {name}; regenerate"
    replayed = _normalize(SCENARIOS[name]())
    assert replayed == recorded[name], (
        f"{name}: op counts / virtual-time latencies drifted from the "
        f"pre-refactor recording.\nrecorded: {recorded[name]}\n"
        f"replayed: {replayed}")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_direct_io_off_parity(name):
    """The redirect plumbing must cost exactly 0.0 when disabled.

    Re-runs every parity scenario with ``direct_io=False`` passed
    *explicitly* (not just defaulted) and asserts the full cost surface
    — charged virtual seconds, message and byte counts, op counts —
    is byte-identical to the pre-channel recordings.  Any nonzero
    delta means the channel seam (deferred payloads, redirect checks,
    broker wiring) leaks cost into the pass-through path.
    """
    with open(RECORDINGS) as fh:
        recorded = json.load(fh)
    assert name in recorded, f"no recording for {name}; regenerate"
    replayed = _normalize(SCENARIOS[name](direct_io=False))
    for key in ("virtual_time_s", "messages", "bytes_on_wire"):
        if key in recorded[name]:
            delta = replayed[key] - recorded[name][key]
            assert delta == 0.0, (
                f"{name}: direct_io=False {key} drifted by {delta} — "
                f"the redirect plumbing must be free when disabled")
    assert replayed == recorded[name], (
        f"{name}: direct_io=False cost surface drifted from the "
        f"recording.\nrecorded: {recorded[name]}\nreplayed: {replayed}")


if __name__ == "__main__":
    os.makedirs(os.path.dirname(RECORDINGS), exist_ok=True)
    recordings = {name: _normalize(fn()) for name, fn in
                  sorted(SCENARIOS.items())}
    with open(RECORDINGS, "w") as fh:
        json.dump(recordings, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recordings)} scenarios -> {RECORDINGS}")
