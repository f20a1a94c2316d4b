"""Charge conservation over the whole op registry.

Every number this repo publishes is a sum of charged wire events, and
each event is recorded four ways: the ``Network``/``RpcStats`` plain
counters, the labelled ``net.*``/``rpc.*`` metrics, the span tree, and
the placement engine's ``PathStats`` history.  For every registered op,
issued as a remote client would (``fed.rpc.call`` from the laptop), the
four must tell the same story — a leg charged beside the funnel is a
leg some reader never sees.

Four passes: the default pass-through grid, the same overlapped plane
with direct data channels (``direct_io=True``), and each again with the
``caltech`` host down so the failure funnels are walked too.  A fifth
walk gives every payload 256 KiB, so that the servers relay, and states
the one equality relaying adds: what the clock advanced is what was
recorded less what was hidden.
"""

from __future__ import annotations

import pytest

from repro.core import Federation, SrbClient
from repro.errors import SrbError
from repro.net.simnet import LAN, TRANSCON
from repro.storage.archive import TapeCost
from tests.op_calls import COLL, FILE, op_calls, prepare
from tests.probes import counter, sum_matching, span_total

#: Beyond the registry map: calls whose data legs run as a
#: ``TransferGroup`` of several members — a striped read, and every
#: writer that goes through the write loop, onto a logical resource with
#: two members remote from the server — so the grouped mode of the wire
#: leg is walked with and without channels; and a read of a copy that
#: lives on ``caltech`` only, which walks the failure funnel when that
#: host is down (a write there is refused before it costs anything).
FAR_PAIR = "far-pair"
FAR_FILE = COLL + "/far.dat"
GROUPED_CALLS = [
    ("ingest", dict(path=COLL + "/fan.dat", data=b"z" * 5000,
                    resource="logrsrc1"), False),
    ("get", dict(path=COLL + "/fan.dat", stripes=2), False),
    ("ingest", dict(path=COLL + "/fan2.dat", data=b"z" * 5000,
                    resource=FAR_PAIR), False),
    ("copy", dict(src=FILE, dst=COLL + "/fan-copy.dat", resource=FAR_PAIR),
     False),
    ("replicate", dict(path=FILE, resource=FAR_PAIR), False),
    ("ingest_replica", dict(path=FILE, data=b"alt" * 500,
                            resource=FAR_PAIR), False),
    ("bulk_ingest", dict(items=[{"path": COLL + "/fan-b1.dat",
                                 "data": b"b" * 500},
                                {"path": COLL + "/fan-b2.dat",
                                 "data": b"b" * 700}],
                         resource=FAR_PAIR), False),
    ("get", dict(path=FAR_FILE), False),
]


def build_fed(workers=None, **knobs):
    """The standard grid's topology (``repro.workload.standard_grid``)
    with the federation knobs exposed; ``workers`` gives each server
    host a worker pool of that size."""
    fed = Federation(zone="demozone", **knobs)
    fed.add_host("sdsc", site="sdsc", workers=workers)
    fed.add_host("caltech", site="caltech", workers=workers)
    fed.add_host("laptop", site="home")
    fed.network.set_link("sdsc", "sdsc", LAN)
    fed.network.set_link("sdsc", "caltech", TRANSCON)
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_server("srb2", "caltech")
    fed.add_fs_resource("unix-sdsc", "sdsc", is_cache=True)
    fed.add_fs_resource("unix-caltech", "caltech")
    fed.add_archive_resource("hpss-caltech", "caltech", tape=TapeCost())
    fed.add_database_resource("dlib1", "sdsc")
    fed.add_logical_resource("logrsrc1", ["unix-sdsc", "hpss-caltech"])
    fed.add_logical_resource(FAR_PAIR, ["unix-caltech", "hpss-caltech"])
    fed.default_resource = "unix-sdsc"
    fed.bootstrap_admin()
    admin = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    admin.login()
    admin.mkcoll("/demozone/home")
    fed.add_user("sekar@sdsc", "secret", role="curator")
    return fed, admin


def path_stats(fed):
    report = fed.placement.stats.report()
    return {key: sum(r[key] for r in report)
            for key in ("transfers", "bytes", "failures")}


def ledger(fed):
    """Every plain counter the equalities below are stated over."""
    net = fed.network
    return {"messages": net.messages_sent, "bytes": net.bytes_sent,
            "failed": net.failed_attempts, "paths": path_stats(fed),
            "rpc": vars(fed.rpc.stats).copy(),
            "call_s": sum(h.count for h in fed.obs.metrics
                          .histogram_series("rpc.call_s").values())}


@pytest.mark.parametrize("caltech_down", [False, True],
                         ids=["healthy", "caltech-down"])
@pytest.mark.parametrize("knobs", [
    {}, {"direct_io": True}],
    ids=["default", "direct-overlapped"])
def test_every_op_conserves_its_charges(knobs, caltech_down):
    fed, admin = build_fed(**knobs)
    srv = fed.server("srb1")
    calls = op_calls(admin.ticket, prepare(srv, admin.ticket))
    assert {name for name, _kw, _raises in calls} == set(srv.dispatch.names())
    calls += [(name, dict(kwargs, ticket=admin.ticket), raises)
              for name, kwargs, raises in GROUPED_CALLS]
    srv.ingest(admin.ticket, FAR_FILE, b"f" * 300, resource="unix-caltech")
    if caltech_down:
        fed.network.set_down("caltech")

    m = fed.obs.metrics
    failed_legs = 0
    for name, kwargs, _raises in calls:
        before, before_m = ledger(fed), m.snapshot()
        with fed.obs.tracer.trace("conservation", op=name) as root:
            try:
                fed.rpc.call("laptop", "sdsc", "srb:srb1", name, **kwargs)
            except SrbError:
                pass        # outcomes differ per pass; the charges must not
        after, delta = ledger(fed), m.delta(before_m)

        def moved(key):
            return after[key] - before[key]

        def metric(metric_name):
            return sum_matching(delta, metric_name)

        legs = root.find("net.transfer")
        delivered = [s for s in legs if s.error is None]

        # messages: counter == metric == span counters == span count
        assert moved("messages") == metric("net.messages") \
            == span_total(root, "messages") == len(legs) > 0, name
        # bytes: ... == the delivered legs' sizes == what PathStats learnt
        assert moved("bytes") == metric("net.bytes") \
            == span_total(root, "bytes") \
            == sum(s.attrs["bytes"] for s in delivered) \
            == after["paths"]["bytes"] - before["paths"]["bytes"], name
        assert len(delivered) == (after["paths"]["transfers"]
                                  - before["paths"]["transfers"]), name
        # timed-out attempts
        assert moved("failed") == metric("net.failed_attempts") \
            == span_total(root, "failed_attempts") == len(legs) - len(delivered) \
            == after["paths"]["failures"] - before["paths"]["failures"], name
        failed_legs += moved("failed")

        # message pairs: RpcStats == rpc.* metrics == spans, one latency
        # observation per call
        rpc = {k: after["rpc"][k] - before["rpc"][k] for k in after["rpc"]}
        assert rpc == {"calls": metric("rpc.calls"),
                       "request_bytes": metric("rpc.request_bytes"),
                       "response_bytes": metric("rpc.response_bytes"),
                       "failures": metric("rpc.failures")}, name
        assert rpc["calls"] == len(root.find("rpc.call")) \
            + len(root.find("rpc.call_batch")) == moved("call_s") >= 1, name

    # the down passes really walked the failure funnel, the healthy
    # overlapped pass the grouped and the channel legs
    assert (failed_legs > 0) == caltech_down
    if not caltech_down:
        # each write-loop call above pushed to both far members at once
        for label in ("ingest-fanout", "copy", "replicate",
                      "ingest-replica", "bulk-ingest"):
            assert counter(m, "net.parallel.groups", label=label) == 1, label
        assert (m.total("net.direct.channels") > 0) == bool(knobs)


# -- a relayed leg: recorded in full, waited less what it hid ---------------

PAD = b"\0" * (256 * 1024)          # four relay blocks on every payload


def padded(kwargs):
    out = dict(kwargs)
    if "data" in out:
        out["data"] += PAD
    if "items" in out:
        out["items"] = [dict(item, data=item["data"] + PAD)
                        for item in out["items"]]
    return out


def histogram_sum(delta, name):
    return sum(v for k, v in delta.items()
               if k.startswith(name + "{") and k.endswith(":sum"))


def test_what_the_clock_advanced_is_what_was_recorded_less_what_was_hidden():
    """Every op again, with 256 KiB payloads, so that the servers relay.
    A relayed leg's records are the unrelayed leg's — ``net.transfer_s``
    observes the whole cost — and what the caller waited is that cost
    less the seconds the span says were hidden; summed over an op, the
    clock moved by the recorded costs less the hidden seconds, and the
    hidden seconds are what ``net.relay.hidden_s`` and ``fed.stats()``
    report."""
    fed, admin = build_fed()
    srv, net, m = fed.server("srb1"), fed.network, fed.obs.metrics
    calls = op_calls(admin.ticket, prepare(srv, admin.ticket, PAD), PAD)
    calls += [(name, dict(padded(kwargs), ticket=admin.ticket), raises)
              for name, kwargs, raises in GROUPED_CALLS]
    srv.ingest(admin.ticket, FAR_FILE, b"f" * 300 + PAD,
               resource="unix-caltech")

    relayed_ops = set()
    for name, kwargs, _raises in calls:
        before, hidden_before = m.snapshot(), fed.stats()["relay_hidden_s"]
        t0 = fed.clock.now
        with fed.obs.tracer.trace("relay", op=name) as root:
            try:
                fed.rpc.call("laptop", "sdsc", "srb:srb1", name, **kwargs)
            except SrbError:
                pass
        delta = m.delta(before)
        recorded = hidden = overlapped = 0.0
        for leg in root.find("net.transfer"):
            attrs = leg.attrs
            link = net.link(attrs["src"], attrs["dst"])
            cost = link.cost(attrs["bytes"], attrs["streams"])
            hid = attrs.get("hidden_s", 0.0)
            assert ("relayed" in attrs) == (hid > 0), name
            assert hid == 0 or attrs["bytes"] > 64 * 1024, name
            waited = attrs["done"] - attrs["start"] if "grouped" in attrs \
                else leg.duration
            assert waited == pytest.approx(cost - hid, abs=1e-9), name
            recorded += cost
            hidden += hid
        # the records are the unrelayed costs; the hidden seconds are
        # reported once, wherever one looks
        assert histogram_sum(delta, "net.transfer_s") \
            == pytest.approx(recorded), name
        assert histogram_sum(delta, "net.relay.hidden_s") \
            == pytest.approx(hidden) \
            == pytest.approx(fed.stats()["relay_hidden_s"] - hidden_before)
        # the clock: the wire's share of the op is the recorded costs
        # less the hidden seconds (less, for overlapped members, what
        # the group saved by running them side by side)
        for group in root.find("net.parallel.group"):
            overlapped += sum(
                s.attrs["done"] - s.attrs["start"]
                for s in group.find("net.transfer")) - group.duration
        assert root.duration == fed.clock.now - t0
        assert root.breakdown()["wan"] == pytest.approx(
            recorded - hidden - overlapped, abs=1e-9), name
        if hidden:
            relayed_ops.add(name)

    # the payload-bearing ops relayed (a remote caller, a remote
    # resource); an op that moves bytes at rest never did
    assert relayed_ops == {"ingest", "ingest_replica", "bulk_ingest", "get"}
