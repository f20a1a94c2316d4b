"""The charging funnel stays single.

Two guards on ``repro.net``'s "one place a cost is charged and
recorded" (DESIGN.md, "Cost model and per-call bookkeeping"):

* a property — the four transfer modes are one wire leg seen four
  ways, so a blocking ``transfer``, a ``schedule_transfer`` on an idle
  network, a ``TransferGroup`` of one and a pipelined ``transfer`` must
  agree on what the message cost and on every record of it; they differ
  in what the caller waited — and so does a *relayed* leg, blocking or
  grouped, part of which was waited out before it began;
* a property — a payload leg the broker runs opens as many streams as
  its path needs, so it costs ``latency + bytes / capacity`` on any
  link, while a message, one stream, still pays the per-stream rate;
* an AST guard — the span literal, the counting funnels, station
  admission and the whole-call failure accounting each sit in one
  function, so a second copy cannot grow back unnoticed; the per-message
  sites count through bound instruments, so no by-name ``metrics.inc``
  grows back on them either; and, one layer up, the servers move
  payload bytes through one leg runner and read the ``direct_io`` knob
  in three functions.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.federation import ChannelBroker
from repro.errors import HostUnreachable
from repro.net.simnet import LinkSpec, Network, TransferGroup
from repro.policy.stats import PathStats

MODE_ATTRS = {"queued", "grouped", "pipelined", "start", "done",
              "relayed", "hidden_s"}

links = st.builds(
    LinkSpec,
    latency_s=st.floats(min_value=0.0001, max_value=0.5),
    bandwidth_bps=st.floats(min_value=1e4, max_value=1e9),
    per_stream_bps=st.one_of(st.none(),
                             st.floats(min_value=1e3, max_value=1e8)))


def pair(link: LinkSpec) -> Network:
    """A fresh network of two hosts, ``a`` and ``b``, joined by ``link``."""
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.set_link("a", "b", link)
    return net


def send(mode: str, link: LinkSpec, nbytes: int, streams, fault: str,
         hidden: float = 0.0):
    """One message a→b in ``mode`` on a fresh network; every record of it."""
    net = pair(link)
    paths = PathStats()
    net.add_transfer_observer(paths)
    if fault == "partition":
        net.partition("a", "b")
    elif fault:
        net.set_down(fault)
    t0 = net.clock.now
    error = None
    with net.obs.tracer.trace("send") as root:
        try:
            if mode in ("blocking", "pipelined", "relayed"):
                cost = net.transfer("a", "b", nbytes, streams=streams,
                                    pipelined=mode == "pipelined",
                                    hidden=hidden, label="relay")
            elif mode == "queued":
                cost = net.schedule_transfer("a", "b", nbytes,
                                             streams=streams) - t0
            else:
                group = TransferGroup(net, label="relay")
                group.add("a", "b", nbytes, streams=streams, hidden=hidden)
                (outcome,) = group.run()
                cost, error = outcome.cost, outcome.error
        except HostUnreachable as exc:
            cost, error = None, exc
    (span,) = root.find("net.transfer")
    (record,) = paths.report()
    return {
        "cost": cost,
        "error": None if error is None else str(error),
        "elapsed": net.clock.now - t0,
        "counters": (net.messages_sent, net.bytes_sent, net.failed_attempts),
        "metrics": {k: v for k, v in net.obs.metrics.snapshot().items()
                    if k.startswith("net.")
                    and not k.startswith(("net.parallel.", "net.relay."))},
        "hidden": net.obs.metrics.histogram("net.relay.hidden_s",
                                            label="relay"),
        "paths": record,
        "span": ({k: v for k, v in span.attrs.items()
                  if k not in MODE_ATTRS}, span.error),
        "flags": {k for k in span.attrs if k in MODE_ATTRS},
        "hidden_s": span.attrs.get("hidden_s"),
    }


@settings(max_examples=150, deadline=None)
@given(link=links,
       nbytes=st.integers(min_value=0, max_value=50_000_000),
       streams=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
       fault=st.sampled_from(["", "a", "b", "partition"]),
       share=st.floats(min_value=0.001, max_value=1.0))
def test_four_modes_are_one_wire_leg(link, nbytes, streams, fault, share):
    blocking, queued, grouped, pipelined = (
        send(mode, link, nbytes, streams, fault)
        for mode in ("blocking", "queued", "grouped", "pipelined"))
    # ``None`` is a payload leg: as many streams as the path needs
    if streams is None:
        streams = link.payload_streams()
    # a relayed leg: some share of its streaming time already waited out
    hidden = share * nbytes / link.effective_bps(streams)
    relayed, relayed_grouped = (
        send(mode, link, nbytes, streams, fault, hidden)
        for mode in ("relayed", "grouped"))
    if fault:
        # the raising modes hand back no cost; the group marshals it
        assert blocking["error"] == queued["error"] == grouped["error"] \
            == pipelined["error"] is not None
        assert grouped["cost"] == 2 * link.latency_s
        assert blocking["counters"] == (1, 0, 1)
        # nothing queues behind a dead pair, and an open connection that
        # died is found out the same way: the caller waits it out
        assert blocking["elapsed"] == queued["elapsed"] \
            == grouped["elapsed"] == pipelined["elapsed"] == grouped["cost"]
        assert [m["flags"] for m in (blocking, queued, grouped, pipelined)] \
            == [set(), set(), {"grouped"}, {"pipelined"}]
        # a dead pair hides nothing: the relayed leg costs and counts the
        # 2 x latency timeout, and says nothing of a relay
        assert relayed["elapsed"] == relayed_grouped["elapsed"] \
            == 2 * link.latency_s
        assert (relayed["flags"], relayed_grouped["flags"]) \
            == (set(), {"grouped"})
        assert relayed["hidden"] is relayed_grouped["hidden"] is None
    else:
        assert blocking["error"] is None
        assert blocking["cost"] == grouped["cost"] \
            == pytest.approx(queued["cost"]) == link.cost(nbytes, streams)
        assert blocking["counters"] == (1, nbytes, 0)
        assert blocking["elapsed"] == grouped["elapsed"] == blocking["cost"]
        assert queued["elapsed"] == 0.0     # completion is bookkeeping
        # behind an earlier message the latency is already paid: the
        # caller waits for the bytes alone
        assert pipelined["cost"] == pipelined["elapsed"] \
            == link.cost(nbytes, streams) - link.latency_s
        assert pipelined["cost"] == pytest.approx(
            nbytes / link.effective_bps(streams), abs=1e-12)
        assert [m["flags"] for m in (blocking, queued, grouped, pipelined)] \
            == [set(), {"queued", "start", "done"},
                {"grouped", "start", "done"}, {"pipelined"}]
        # relayed: the caller waits the cost less what was hidden,
        # exactly, alone or as a group member; the message cost the same
        assert relayed["cost"] == relayed["elapsed"] \
            == relayed_grouped["elapsed"] == blocking["cost"] - hidden
        assert relayed_grouped["cost"] == blocking["cost"]
        if hidden:
            assert relayed["flags"] == {"relayed", "hidden_s"}
            assert relayed_grouped["flags"] == {
                "grouped", "start", "done", "relayed", "hidden_s"}
            for leg in (relayed, relayed_grouped):
                assert leg["hidden_s"] == hidden
                assert (leg["hidden"].count, leg["hidden"].sum) \
                    == (1, hidden)
        else:
            assert relayed["flags"] == set()
            assert relayed["hidden"] is None     # nothing hidden, no series
    for key in ("error", "counters", "metrics", "paths", "span"):
        assert blocking[key] == queued[key] == grouped[key] \
            == pipelined[key] == relayed[key] == relayed_grouped[key], key


@settings(max_examples=150, deadline=None)
@given(link=links, nbytes=st.integers(min_value=1, max_value=50_000_000))
def test_a_payload_leg_runs_at_its_paths_capacity(link, nbytes):
    net = pair(link)
    with net.obs.tracer.trace("put") as root:
        (leg,) = ChannelBroker(None, net).run_legs([("a", "b", nbytes, "")],
                                                   "put")
    (span,) = root.find("net.transfer")
    assert leg.cost == net.clock.now \
        == link.latency_s + nbytes / link.bandwidth_bps
    assert span.attrs["streams"] == link.payload_streams()
    # the fewest streams that do it: one fewer falls short of capacity
    if span.attrs["streams"] > 1:
        assert link.effective_bps(span.attrs["streams"] - 1) \
            < link.bandwidth_bps
    message = pair(link)
    message.transfer("a", "b", nbytes)
    assert message.clock.now == link.latency_s + nbytes / (
        link.bandwidth_bps if link.per_stream_bps is None
        else min(link.bandwidth_bps, link.per_stream_bps))


# -- the AST guard ---------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[2] / "src/repro"
NET_DIR = SRC / "net"
CORE_DIR = SRC / "core"


def sites(predicate, files=None, root=NET_DIR):
    """``file:Class.function`` of every AST node ``predicate`` accepts
    (over every module under ``root`` unless ``files`` narrows it)."""
    if files is None:
        files = sorted(str(p.relative_to(root)) for p in root.rglob("*.py"))
    found = []

    def visit(node, scope, filename):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        if predicate(node):
            found.append(f"{filename}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, filename)

    for filename in files:
        visit(ast.parse((root / filename).read_text()), [], filename)
    return found


def literal(text):
    return lambda n: isinstance(n, ast.Constant) and n.value == text


def method_call(*names):
    return lambda n: (isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr in names)


class TestOneFunnel:
    def test_one_function_charges_and_records_a_wire_leg(self):
        assert sites(literal("net.transfer")) == ["simnet.py:Network._leg"]
        assert sorted(sites(method_call("_count_success",
                                        "_count_failure"))) == \
            ["simnet.py:Network._leg"] * 2

    def test_one_function_enters_a_station(self):
        outside = [s for s in sites(method_call("admit"))
                   if ":ServiceStation." not in s]
        assert outside == ["simnet.py:Network.admit_request"]

    def test_one_function_counts_a_whole_call_failure(self):
        def failure_count(n):
            return (isinstance(n, ast.AugAssign)
                    and isinstance(n.target, ast.Attribute)
                    and n.target.attr == "failures")

        # the second site of each is the per-item / the success twin
        assert sorted(sites(failure_count)) == [
            "rpc.py:ServiceRegistry._fail",
            "rpc.py:ServiceRegistry.call_batch.failed"]
        # a success observes through the handle bound in __init__; a
        # failure resolves its error= series by name
        assert sorted(sites(literal("rpc.call_s"))) == [
            "rpc.py:ServiceRegistry.__init__",
            "rpc.py:ServiceRegistry._fail"]
        assert sorted(sites(lambda n: isinstance(n, ast.Call)
                            and isinstance(n.func, ast.Name)
                            and n.func.id == "RequestTiming")) == [
            "rpc.py:ServiceRegistry._exchange",
            "rpc.py:ServiceRegistry._fail"]

    def test_rpc_sends_its_legs_from_fixed_lines(self):
        # request leg and reply leg (result or error marker); three
        # would allow a separate error reply.  A redirect's re-pull is
        # the shared healthy-source repair, not rpc's own leg
        legs = sites(network_transfer, files=("rpc.py",))
        assert sorted(legs) == ["rpc.py:ServiceRegistry._exchange"] * 2
        assert sorted(sites(network_transfer, files=("simnet.py",))) == [
            "simnet.py:DataChannel.open", "simnet.py:DataChannel.transfer",
            "simnet.py:repull_failed"]


    def test_hot_sites_count_through_bound_instruments(self):
        """Where a message, a call, a catalog op or an op is counted,
        the series was resolved once (``bind_counter`` / ``bind_family``):
        no ``metrics.inc("name", ...)`` / ``observe`` by literal name is
        left outside the failure and stream paths, which are cold."""
        def by_name(n):
            return (method_call("inc", "observe")(n) and n.args
                    and isinstance(n.args[0], ast.Constant)
                    and isinstance(n.args[0].value, str)
                    and "." in n.args[0].value)

        cold = {"rpc.py:ServiceRegistry._fail",
                "rpc.py:ServiceRegistry.call_batch.failed",
                "rpc.py:ServiceRegistry.call_stream"}
        assert set(sites(by_name)) == cold
        assert sites(by_name, files=("mcat/catalog.py", "core/dispatch.py"),
                     root=SRC) == []


def network_transfer(n):
    """A ``<network>.transfer(...)`` call, however the network is held."""
    if not method_call("transfer")(n):
        return False
    receiver = n.func.value     # ``net``, ``network`` or ``self.network``
    return getattr(receiver, "attr",
                   getattr(receiver, "id", None)) in ("network", "net")


RUNNER = "federation.py:ChannelBroker.run_legs"


class TestOneLegRunner:
    """Under ``repro.core`` one function decides how payload bytes move."""

    def test_payload_legs_are_charged_in_the_runner(self):
        def core(predicate):
            return sorted(sites(predicate, root=CORE_DIR))

        assert core(lambda n: isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id == "TransferGroup") == [RUNNER]
        assert core(method_call("add_to")) == []
        assert core(lambda n: isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id == "run_channel_group") == [RUNNER]
        # channels are issued by the runner, or handed to the caller's
        # RPC layer in a redirect reply
        assert core(lambda n: method_call("open")(n) and getattr(
            n.func.value, "id", None) in ("self", "channels")) == [
            RUNNER, "planes/base.py:PlaneService._redirect_reply"]
        # beside the runner's, the only raw legs are control messages:
        # the catalog hop's pair, and the three plane functions
        # tools/lint_dispatch.py rule 6 allows
        assert core(network_transfer) == sorted([
            RUNNER,
            "planes/base.py:PlaneService._resource_session",
            "planes/base.py:PlaneService._rollback_created",
            "planes/data.py:DataService._get_method",
            "planes/data.py:DataService._get_method",
            "server.py:SrbServer._mcat_hop",
            "server.py:SrbServer._mcat_hop"])

    def test_the_op_plan_alone_says_how_a_payload_arrived(self):
        """No caller passes who brought a payload: the op plan sets the
        broker's ``inbound`` (and restores it), the runner reads it."""
        assert [str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
                if "relay_from" in p.read_text()] == []

        def inbound(context):
            return lambda n: (isinstance(n, ast.Attribute)
                              and n.attr == "inbound"
                              and isinstance(n.ctx, context))

        plan = "core/dispatch.py:_compile.run"
        assert sites(inbound(ast.Store), root=SRC) == [plan, plan]
        # the plan reads it once, to put the outer op's value back
        assert sorted(sites(inbound(ast.Load), root=SRC)) == [
            plan, "core/" + RUNNER, "core/" + RUNNER]

    def test_the_knob_is_read_in_three_functions(self):
        def reads_knob(n):
            return (isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load)
                    and n.attr in ("direct_io", "enabled"))

        assert sorted(sites(reads_knob, root=CORE_DIR)) == [
            "client.py:SrbClient._defer",
            RUNNER,
            "federation.py:Federation.stats",      # reports it, routes nothing
            "planes/base.py:PlaneService._redirect_sink"]
