"""The relay changes what a caller waits, and nothing else.

A brokering server forwards a payload as it arrives (cut-through)
where it used to buffer it whole (store-and-forward).  The runner it
replaced is kept here as the oracle: every payload-bearing op, onto a
physical resource, a logical one and a container, from a client beside
the server and from one across the WAN, with raw legs and with direct
data channels, is run once under each and must leave the same bytes,
messages, catalog rows, replica state, files, link metrics, path
history and errors.  Only virtual seconds may differ — less, never
more — and only where a payload larger than one relay block passed
through the server on its way between a remote caller and a remote
resource.
"""

import hashlib
from contextlib import contextmanager, nullcontext

import pytest

from repro.core import Federation, SrbClient
from repro.core.federation import ChannelBroker
from repro.core.planes.base import RELAY_BLOCK, PlaneService
from repro.errors import HostUnreachable, ResourceUnavailable, SrbError
from repro.net.simnet import (
    TRANSCON, WAN, LinkSpec, TransferGroup, TransferOutcome,
    blocking_outcome, run_channel_group)
from tests.invariants import check_invariants

PAYLOAD = bytes(range(256)) * 1024          # 256 KiB: four relay blocks
#: the continent, crossed by one TCP stream at a quarter of its capacity
WINDOWED = LinkSpec(TRANSCON.latency_s, TRANSCON.bandwidth_bps,
                    per_stream_bps=TRANSCON.bandwidth_bps / 4)
SMALL = b"s" * 4096
HOME = "/z/w"
BOX = HOME + "/box"


# -- the oracle ------------------------------------------------------------

def path_streams(link):
    """The streams a payload leg opens on ``link``: the fewest whose
    ``min(capacity, k x per-stream)`` is the capacity, one when nothing
    caps a stream."""
    k = 1
    while link.effective_bps(k) < link.bandwidth_bps:
        k += 1
    return k


#: the runner as it is, for what the relay never touched
RUN_LEGS = ChannelBroker.run_legs


def store_and_forward(self, legs, label):
    """``ChannelBroker.run_legs`` as it was before the relay: who brought
    the bytes is not asked, every leg waits its whole cost.  Each leg
    opens the streams its own path needs.  Control messages (legs whose
    ``path_key`` is ``None``) never relayed: they pass through to the
    runner unchanged."""
    if legs and legs[0][3] is None:
        return RUN_LEGS(self, legs, label)
    net = self.network
    wire = [leg for leg in legs if leg[0] != leg[1]]
    if not wire:
        ran = []
    elif self.enabled:
        with net.obs.tracer.span(
                "srb.redirect", legs=len(wire), label=label,
                bytes=sum(nbytes for _s, _d, nbytes, _k in wire)):
            ran = run_channel_group(
                net, [self.open(*leg, label=label) for leg in wire], label)
    elif len(wire) > 1:
        group = TransferGroup(net, label=label)
        for src, dst, nbytes, _key in wire:
            group.add(src, dst, nbytes,
                      streams=path_streams(net.link(src, dst)))
        ran = group.run()
    else:
        ((src, dst, nbytes, _key),) = wire
        streams = path_streams(net.link(src, dst))
        ran = [blocking_outcome(
            net, src, dst, nbytes,
            lambda: net.transfer(src, dst, nbytes, streams=streams))]
    if len(ran) == len(legs):
        return ran
    moved, now = iter(ran), net.clock.now
    return [next(moved) if src != dst
            else TransferOutcome(src, dst, nbytes, now, now, 0.0)
            for src, dst, nbytes, _key in legs]


@pytest.fixture
def oracle(monkeypatch):
    """A context under which servers store and forward, as the parent
    commit did: the old runner, and a reply that hides behind no pull."""
    @contextmanager
    def storing_and_forwarding():
        with monkeypatch.context() as m:
            m.setattr(ChannelBroker, "run_legs", store_and_forward)
            m.setattr(PlaneService, "_relay_reply", lambda *a, **k: None)
            yield
    return storing_and_forwarding


# -- the grid and what is observed of it -------------------------------------

def build(client_host, **knobs):
    """Server ``s1`` on ``hs`` with a local resource; two remote storage
    hosts, the second across the continent on a window-limited path (a
    payload leg there opens four streams, a message one); clients on
    ``hs`` and ``hc``."""
    fed = Federation(zone="z", **knobs)
    for host in ("hs", "hr1", "hr2", "hc"):
        fed.add_host(host)
    fed.network.set_link("hs", "hr2", WINDOWED)
    fed.add_server("s1", "hs", mcat=True)
    fed.add_fs_resource("r0", "hs")
    fed.add_fs_resource("r1", "hr1")
    fed.add_fs_resource("r2", "hr2")
    fed.add_logical_resource("both", ["r1", "r2"])
    fed.default_resource = "r0"
    fed.bootstrap_admin()
    client = SrbClient(fed, client_host, "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(HOME)
    client.create_container(BOX, "both")
    return fed, client


def files_on(fed):
    out = {}
    for name in fed.resources.physical_names():
        driver = fed.resources.physical(name).driver
        stack, found = ["/"], {}
        while stack:
            here = stack.pop()
            for entry in driver.list_dir(here):
                path = here.rstrip("/") + "/" + entry
                try:
                    found[path] = hashlib.sha256(
                        driver.read(path)).hexdigest()
                except SrbError:
                    stack.append(path)
        out[name] = found
    return out


def catalog(fed):
    rows = []
    for obj in fed.mcat.objects_in_collection("/z", recursive=True):
        reps = [(r["replica_num"], r["resource"], r["physical_path"],
                 int(r["size"]), bool(r["is_dirty"]), r["container_oid"],
                 r["offset"])
                for r in fed.mcat.replicas(int(obj["oid"]))]
        rows.append((obj["path"], obj["kind"], obj["checksum"], obj["size"],
                     obj["version"], reps))
    audit = [(a["action"], a["target"], a["detail"], a["ok"])
             for a in fed.mcat.audit_query()]
    return sorted(rows), audit


#: histograms whose sums are seconds somebody waited (or saved waiting)
WAITED = ("rpc.call_s", "net.parallel.makespan_s", "net.parallel.saved_s",
          "net.relay.hidden_s", "rpc.stream.first_chunk_s")


def records(fed):
    return {k: v for k, v in fed.obs.metrics.snapshot().items()
            if not (k.startswith(WAITED) and k.endswith(":sum"))
            and not k.startswith("net.relay.")}


def observe(fed, client, op):
    """Run ``op`` and return every observable consequence of it."""
    t0 = fed.clock.now
    result = error = None
    try:
        result = op(fed, client)
    except SrbError as exc:
        error = (type(exc).__name__, str(exc))
    net = fed.network
    return {
        "elapsed": fed.clock.now - t0,
        "hidden": fed.stats()["relay_hidden_s"],
        "same": {
            "result": result, "error": error, "catalog": catalog(fed),
            "files": files_on(fed),
            "wire": (net.messages_sent, net.bytes_sent, net.failed_attempts),
            "records": records(fed),
            "paths": fed.placement.stats.report(),
            "findings": check_invariants(fed),
        },
    }


# -- the ops ------------------------------------------------------------------

def target_kwargs(target):
    return {"container": BOX} if target == "container" else {
        "resource": {"physical": "r2", "logical": "both"}[target]}


def seeded(target, path, data=PAYLOAD):
    """A set-up step: ``path`` holding ``data`` on the target."""
    return lambda fed, client: client.ingest(path, data,
                                             **target_kwargs(target))


def versioned(target, path):
    def setup(fed, client):
        client.ingest(path, PAYLOAD, **target_kwargs(target))
        client.checkout(path)
        client.checkin(path)
    return setup


F = HOME + "/f.dat"

#: op -> target -> (set-up, the op); a payload passes through the server
RELAY_OPS = {
    "ingest": lambda t: (
        None, lambda fed, c: c.ingest(F, PAYLOAD, **target_kwargs(t))),
    "bulk_ingest": lambda t: (
        None, lambda fed, c: c.bulk_ingest(
            [{"path": F, "data": PAYLOAD},
             {"path": F + ".2", "data": PAYLOAD[:100_000]}],
            **target_kwargs(t))),
    "put": lambda t: (
        seeded(t, F, SMALL), lambda fed, c: c.put(F, PAYLOAD)),
    "checkin": lambda t: (
        lambda fed, c: (seeded(t, F, SMALL)(fed, c), c.checkout(F)),
        lambda fed, c: c.checkin(F, data=PAYLOAD)),
    "ingest_replica": lambda t: (
        seeded("physical", F, SMALL),
        lambda fed, c: c.ingest_replica(
            F, PAYLOAD, {"physical": "r1", "logical": "both",
                         "container": "r1"}[t])),
    "get": lambda t: (seeded(t, F), lambda fed, c: c.get(F)),
    "get striped": lambda t: (
        seeded(t, F), lambda fed, c: c.get(F, stripes=2)),
    "bulk_get": lambda t: (
        lambda fed, c: (seeded(t, F)(fed, c), seeded(t, F + ".2")(fed, c)),
        lambda fed, c: c.bulk_get([F, F + ".2", F + ".missing"])),
    "get_version": lambda t: (
        versioned(t, F), lambda fed, c: c.get_version(F, 1)),
}

#: ops that move bytes that were at rest, resource → resource
RESTING_OPS = {
    "replicate": lambda t: (
        seeded("physical", F), lambda fed, c: c.replicate(F, "r1")),
    "synchronize": lambda t: (
        lambda fed, c: (seeded("logical", F)(fed, c), c.put(F, PAYLOAD[::-1])),
        lambda fed, c: c.synchronize(F)),
    "copy": lambda t: (
        seeded("physical", F),
        lambda fed, c: c.copy(F, F + ".copy", resource="both")),
    "physical_move": lambda t: (
        seeded("physical", F), lambda fed, c: c.physical_move(F, "r1")),
    "sync_container": lambda t: (
        seeded("container", F), lambda fed, c: c.sync_container(BOX)),
}


def differential(oracle, make, client_host, knobs):
    """Run ``make()``'s (set-up, op) under the oracle and for real."""
    seen = []
    for ctx in (oracle(), nullcontext()):
        with ctx:
            fed, client = build(client_host, **knobs)
            setup, op = make()
            if setup is not None:
                setup(fed, client)
            hidden0 = fed.stats()["relay_hidden_s"]
            seen.append(observe(fed, client, op))
            seen[-1]["hidden"] -= hidden0
    return seen


@pytest.mark.parametrize("knobs", [{}, {"direct_io": True}],
                         ids=["raw", "direct_io"])
@pytest.mark.parametrize("client_host", ["hs", "hc"],
                         ids=["local", "remote"])
@pytest.mark.parametrize("target", ["physical", "logical", "container"])
@pytest.mark.parametrize("op", sorted(RELAY_OPS))
def test_only_the_waiting_changes(oracle, op, target, client_host, knobs):
    stored, relayed = differential(
        oracle, lambda: RELAY_OPS[op](target), client_host, knobs)
    assert relayed["same"] == stored["same"]
    assert stored["hidden"] == 0
    # never slower, and faster by no more than was hidden (all of it
    # for a lone leg; overlapped members hide side by side)
    assert stored["elapsed"] - relayed["hidden"] - 1e-9 \
        <= relayed["elapsed"] <= stored["elapsed"] + 1e-9
    assert (relayed["elapsed"] < stored["elapsed"] - 1e-9) \
        == (relayed["hidden"] > 0)
    # beside the server there is no hop to hide behind, and an announced
    # or redirected payload never touches it (a historical version is
    # read through the server even so)
    may_relay = client_host == "hc" and (not knobs or op == "get_version")
    if not may_relay:
        assert relayed["hidden"] == 0
    elif relayed["same"]["error"] is None:
        assert relayed["hidden"] > 0, "a relayed op hid nothing"


@pytest.mark.parametrize("knobs", [{}, {"direct_io": True}],
                         ids=["raw", "direct_io"])
@pytest.mark.parametrize("op", sorted(RESTING_OPS))
def test_bytes_at_rest_hide_nothing(oracle, op, knobs):
    stored, moved = differential(
        oracle, lambda: RESTING_OPS[op](None), "hc", knobs)
    assert moved["same"] == stored["same"]
    assert moved["same"]["error"] is None
    assert moved["hidden"] == 0
    assert moved["elapsed"] == pytest.approx(stored["elapsed"], abs=1e-9)


def test_a_payload_of_one_block_costs_the_same_to_the_bit(oracle):
    """At or under a block the relay *is* store-and-forward: the same
    clock, not one close to it."""
    def run():
        fed, client = build("hc")
        client.ingest(F, PAYLOAD[:RELAY_BLOCK], resource="both")
        client.ingest(F + ".c", PAYLOAD[:RELAY_BLOCK], container=BOX)
        # (the reply's envelope is not payload: what was pulled counts)
        assert client.get(F) == PAYLOAD[:RELAY_BLOCK]
        return fed.clock.now, fed.stats()["relay_hidden_s"]
    with oracle():
        stored = run()
    assert run() == stored and stored[1] == 0


# -- failures hide nothing ---------------------------------------------------

@pytest.mark.parametrize("fault", ["partitioned", "down"])
def test_a_member_lost_mid_ingest_fails_as_it_did(oracle, fault):
    """The far member of the logical resource goes away after the
    sessions are open, as the payload is about to leave the server: the
    same exception, nothing on any driver, no catalog row — and the
    inbound hop, which did happen, charged in full."""
    roots = []

    def make():
        def op(fed, client):
            run_legs = fed.channels.run_legs

            def cut_then_run(*args, **kwargs):
                if fault == "partitioned":
                    fed.network.partition("hs", "hr2")
                else:
                    fed.network.set_down("hr2")
                return run_legs(*args, **kwargs)
            fed.channels.run_legs = cut_then_run
            with fed.obs.tracer.trace("ingest") as root:
                roots.append(root)
                return client.ingest(F, PAYLOAD, resource="both")
        return None, op

    stored, relayed = differential(oracle, make, "hc", {})
    assert relayed["same"] == stored["same"]
    assert relayed["same"]["error"][0] == HostUnreachable.__name__
    # only what build() made is there: the (empty) container and its files
    assert [row[0] for row in relayed["same"]["catalog"][0]] == [BOX]
    assert all(set(found) <= {"/containers/cont-1.dat"}
               for found in relayed["same"]["files"].values())
    legs = roots[-1].find("net.transfer")       # the relayed run's
    request = next(s for s in legs if s.attrs["bytes"] > len(PAYLOAD))
    assert request.duration == pytest.approx(
        WAN.cost(request.attrs["bytes"]))       # hc -> hs: the default link
    assert "relayed" not in request.attrs
    # the leg that timed out hid nothing; the one that arrived still did
    (dead,) = [s for s in legs if s.error is not None]
    assert "relayed" not in dead.attrs
    assert dead.attrs["dst"] == "hr2"
    assert relayed["elapsed"] <= stored["elapsed"]


def test_an_unavailable_member_refuses_the_ingest_before_any_leg(oracle):
    def make():
        def op(fed, client):
            fed.network.set_down("hr2")
            fed.network.set_up("hr2")       # sessions are stale now
            fed.network.set_down("hr2")
            return client.ingest(F, PAYLOAD, resource="both")
        return None, op
    stored, relayed = differential(oracle, make, "hc", {})
    assert relayed["same"] == stored["same"]
    assert relayed["same"]["error"][0] == ResourceUnavailable.__name__
    assert relayed["elapsed"] == stored["elapsed"]
    assert relayed["hidden"] == 0


def test_an_error_reply_hides_nothing(oracle):
    """A get whose pull arrived but whose reply is an error — the handler
    fails after the delivery — waits the whole error reply."""
    def make():
        def op(fed, client):
            audit = fed.server("s1")._audit

            def refuse(*args, **kwargs):
                fed.server("s1")._audit = audit
                raise ResourceUnavailable("audit device full")
            fed.server("s1")._audit = refuse
            return client.get(F)
        return seeded("physical", F), op
    stored, relayed = differential(oracle, make, "hc", {})
    assert relayed["same"] == stored["same"]
    assert relayed["same"]["error"][0] == ResourceUnavailable.__name__
    assert relayed["hidden"] == 0
    assert relayed["elapsed"] == pytest.approx(stored["elapsed"], abs=1e-12)


# -- one writer: the op plan says how a payload arrived ----------------------

def hidden_by_label(fed):
    return {key: h.sum for key, h in
            fed.obs.metrics.histogram_series("net.relay.hidden_s").items()}


def test_a_batched_replicate_hides_nothing_behind_the_ingest_before_it():
    """Both items of one request run on the server: the ingest's payload
    rode that request, the replicate's bytes were at rest."""
    fed, client = build("hc")
    results = client.batch(
        ("ingest", {"path": F, "data": PAYLOAD, "resource": "r1"}),
        ("replicate", {"path": F, "resource": "r2"}))
    assert [r.error for r in results] == [None, None]
    hidden = hidden_by_label(fed)
    assert [key for key in hidden if "ingest" in key] != []
    assert [key for key in hidden if "replicate" in key] == []


def test_a_push_that_fails_leaves_no_relay_behind():
    """The far member goes down as the payload leaves the server: the
    ingest fails mid-push, and the next legs moved outside any op (as
    ``synchronize`` moves them) hide nothing."""
    fed, client = build("hc")
    run_legs = fed.channels.run_legs

    def cut_then_run(legs, *args, **kwargs):
        if legs[0][3] is not None:      # the payload, not a session probe
            fed.network.set_down("hr2")
        return run_legs(legs, *args, **kwargs)
    fed.channels.run_legs = cut_then_run
    with pytest.raises(HostUnreachable):
        client.ingest(F, PAYLOAD, resource="both")
    fed.channels.run_legs = run_legs
    assert getattr(fed.channels, "inbound", None) is None
    (outcome,) = fed.channels.run_legs(
        [("hs", "hr1", len(PAYLOAD), "")], "probe")
    assert outcome.error is None
    assert hidden_by_label(fed).keys() == {"{label=ingest-fanout}"}


def test_direct_calls_after_a_relayed_ingest_hide_nothing():
    """A replica refresh and a container's sync, run on a plane directly
    (from a test or a benchmark, with no op being served), move bytes
    that were at rest."""
    fed, client = build("hc")
    client.ingest(F, PAYLOAD, resource="both")
    client.put(F, PAYLOAD[::-1])                # the other member is dirty
    client.ingest(F + ".c", PAYLOAD, container=BOX)
    before = hidden_by_label(fed)
    assert before != {}
    oid = int(fed.mcat.get_object(F)["oid"])
    server = fed.server("s1")
    assert server.replica._refresh(oid, "synchronize", "skip") == 1
    cont = int(fed.mcat.get_object(BOX)["oid"])
    assert server.data._refresh(cont, "container-sync", "abort") == 1
    assert hidden_by_label(fed) == before
    assert check_invariants(fed) == []


def test_each_payload_leg_opens_the_streams_its_path_needs():
    """The fan-out's two legs: one stream on the uncapped path, four on
    the window-limited one; the request and the session probes, messages,
    one each."""
    fed, client = build("hc")
    with fed.obs.tracer.trace("ingest") as root:
        client.ingest(F, PAYLOAD, resource="both")
    streams = {(s.attrs["dst"], s.attrs["bytes"] == len(PAYLOAD)):
               s.attrs["streams"] for s in root.find("net.transfer")}
    assert streams[("hr1", True)] == 1 and streams[("hr2", True)] == 4
    assert {n for (_dst, payload), n in streams.items() if not payload} \
        == {1}
