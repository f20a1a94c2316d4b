"""Tests for the declarative RPC dispatch pipeline (repro.core.dispatch).

Covers the registry invariants (every op declared exactly once, bad
declarations fail at import time), the uniform ``srb.ops`` accounting
(every registered op increments the counter exactly once per call), the
declarative audit coverage (every mutation audits; denied mutations
audit ``ok=False``), the narrowed RPC surface (only registered ops
are remotely callable), and the compiled op plan: the stage order is
still error → span → auth → zone → hop → audit, a payload claim is
unwrapped in the declared slot only, and ``payload_host`` says where
the bytes are.
"""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import subprocess
import sys

import pytest

from repro.core import Federation, SrbClient
from repro.core.dispatch import Dispatcher, OpContext, rpc_op
from repro.core.planes.base import PlaneService
from repro.errors import AccessDenied, AuthError, MetadataError, RpcError, \
    SrbError, UnsupportedOperation
from repro.net.simnet import Network
from repro.net.wire import DeferredPayload
from tests.integration.test_charge_conservation import build_fed
from tests.op_calls import op_calls, prepare
from tests.probes import counter, sum_matching

#: The six ops that take no subject path and therefore never zone-check.
UNSCOPED_OPS = {"auth_challenge", "auth_login", "bulk_ingest", "bulk_get",
                "bulk_query_metadata", "audit_log"}


class TestDeclarations:
    def test_bad_declarations_fail_at_import_time(self):
        with pytest.raises(ValueError, match="forwardable requires"):
            rpc_op("x", forwardable=True)
        with pytest.raises(ValueError, match="read-only"):
            rpc_op("x", scope_arg="path", forwardable=True, write=True)
        with pytest.raises(ValueError, match="write requires scope_arg"):
            rpc_op("x", write=True)
        with pytest.raises(ValueError, match="exclusive"):
            rpc_op("x", audit="a", detail="d", detail_arg="d2")
        with pytest.raises(ValueError, match="require audit="):
            rpc_op("x", detail_arg="d")
        with pytest.raises(ValueError, match="one payload slot"):
            rpc_op("x", payload_arg="data", payload_items="items")
        with pytest.raises(ValueError, match="need requires scope_arg"):
            rpc_op("x", need="read", target="object")
        with pytest.raises(ValueError, match="come together"):
            rpc_op("x", scope_arg="path", need="read")
        with pytest.raises(ValueError, match="unknown need"):
            rpc_op("x", scope_arg="path", need="delete", target="object")
        with pytest.raises(ValueError, match="unknown need"):
            rpc_op("x", scope_arg="path", need="read", target="file")

    def test_duplicate_op_name_rejected(self):
        class Clashing:
            plane = "p"

            @rpc_op("dup")
            def one(self, ctx):
                pass

            @rpc_op("dup")
            def two(self, ctx):
                pass

        dispatcher = Dispatcher(None)
        with pytest.raises(SrbError, match="duplicate rpc op"):
            dispatcher.register_service(Clashing())


class TestRegistryInvariants:
    def test_every_scoped_op_is_forwardable_or_write(self, fed):
        srv = fed.server("srb1")
        for spec in srv.dispatch.specs():
            if spec.scope_arg is None:
                assert spec.name in UNSCOPED_OPS, \
                    f"{spec.name} is unscoped but not in the known set"
            else:
                assert spec.forwardable or spec.write, \
                    f"{spec.name} has a scope but no zone policy"

    def test_every_write_declares_an_audit_action(self, fed):
        srv = fed.server("srb1")
        for spec in srv.dispatch.specs():
            if spec.write:
                assert spec.audit, f"mutation {spec.name} is not audited"

    def test_planes_cover_the_surface(self, fed):
        srv = fed.server("srb1")
        by_plane = {}
        for spec in srv.dispatch.specs():
            by_plane.setdefault(spec.plane, []).append(spec.name)
        assert set(by_plane) == {"auth", "namespace", "data", "replica",
                                 "metadata"}
        assert len(srv.dispatch.names()) == sum(map(len, by_plane.values()))

    def test_facade_signatures_match_monolith(self, fed):
        srv = fed.server("srb1")
        params = list(inspect.signature(srv.get).parameters)
        assert params == ["ticket", "path", "replica_num", "args",
                         "sql_remainder", "stripes"]
        # the login handshake never took a ticket
        assert "ticket" not in inspect.signature(srv.auth_challenge).parameters

    def test_render_lists_every_op(self, fed):
        srv = fed.server("srb1")
        text = srv.dispatch.render()
        for name in srv.dispatch.names():
            assert name in text


class TestFacadeBinding:
    """The façade binds an all-keyword call without ``inspect``; whatever
    it hands the dispatcher must be what ``Signature.bind`` would have."""

    @staticmethod
    def bind_model(sig, args, kwargs):
        # the former façade body, kept as the oracle
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        call_kwargs = dict(bound.arguments)
        ticket = call_kwargs.pop("ticket", None)
        return ticket, list(call_kwargs.items())

    @staticmethod
    def outcome(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TypeError as exc:
            return ("TypeError", str(exc))

    def calls_for(self, sig):
        """(args, kwargs) shapes to try against one op's signature."""
        params = list(sig.parameters.values())
        required = [p.name for p in params if p.default is p.empty]
        optional = [p.name for p in params if p.default is not p.empty]
        value = {p.name: f"<{p.name}>" for p in params}
        need = {n: value[n] for n in required}
        everything = {p.name: value[p.name] for p in params}
        yield (), need                                  # all keyword
        yield (), dict(reversed(list(everything.items())))  # any order
        for name in optional:
            yield (), {**need, name: value[name]}
        yield tuple(value[p.name] for p in params), {}  # all positional
        yield tuple(need.values()), {}
        if required:                                    # mixed
            yield (need[required[0]],), {n: need[n] for n in required[1:]}
            yield (), {n: need[n] for n in required[1:]}     # one missing
            yield (need[required[0]],), need            # given twice
        yield (), {**need, "no_such_argument": 1}       # unknown keyword
        yield tuple(everything.values()) + ("extra",), {}    # one too many
        yield (), {}

    def test_every_op_binds_like_inspect(self, fed, monkeypatch):
        srv = fed.server("srb1")
        seen = []
        monkeypatch.setattr(
            srv.dispatch, "call",
            lambda name, ticket, kwargs: seen.append(
                (name, ticket, list(kwargs.items()))))
        tried = 0
        for op in srv.dispatch.names():
            facade = getattr(srv, op)
            sig = inspect.signature(facade)
            for args, kwargs in self.calls_for(sig):
                del seen[:]
                expected = self.outcome(self.bind_model, sig, args, kwargs)
                got = self.outcome(facade, *args, **kwargs)
                if expected[0] == "TypeError":
                    assert got == expected, (op, args, kwargs)
                    assert not seen
                else:
                    assert seen == [(op,) + expected], (op, args, kwargs)
                tried += 1
        assert tried > 10 * len(srv.dispatch.names())

    def test_defaults_are_not_shared_between_calls(self, fed, monkeypatch):
        srv = fed.server("srb1")
        seen = []
        monkeypatch.setattr(srv.dispatch, "call",
                            lambda name, ticket, kwargs: seen.append(kwargs))
        srv.stat(ticket="t", path="/a")
        seen[0]["path"] = "/scribbled"
        seen[0]["scribble"] = True
        srv.stat(ticket="t", path="/b")
        assert seen[1] == {"path": "/b"}


def test_lint_dispatch_is_clean():
    """The contract linter CI runs must pass on the tree as committed."""
    root = pathlib.Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "lint_dispatch.py")],
        cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_lint_refuses_a_driver_mutation_outside_the_write_loop(
        tmp_path, monkeypatch):
    """Rule 11 has no allowlist: ``delete`` as it removed bytes before
    its act rode a leg fails, on a tree where ``core/planes/base.py``
    makes the same call and a read sits beside it."""
    from tests.core.test_wiring import load_lint
    lint = load_lint()
    assert lint.check_driver_mutations() == []
    planes = tmp_path / "src" / "repro" / "core" / "planes"
    planes.mkdir(parents=True)
    (planes / "data.py").write_text(
        "class DataService:\n"
        "    def delete(self, ctx, path):\n"
        "        for res, phys in files:\n"
        "            if res.driver.exists(phys):\n"
        "                res.driver.delete(phys)\n")
    (planes / "base.py").write_text(
        "class PlaneService:\n"
        "    def _remove(self, files, label):\n"
        "        for res, phys in files:\n"
        "            res.driver.delete(phys)\n")
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    (error,) = lint.check_driver_mutations()
    assert error.startswith("src/repro/core/planes/data.py:5: "
                            "driver.delete() outside core/planes/base.py")


class TestRpcSurface:
    def test_internal_helpers_not_remotely_callable(self, fed):
        for method in ("_auth", "_audit", "_mcat_hop", "dispatch", "mcat",
                       "planes", "ops_served"):
            with pytest.raises(RpcError, match="has no method"):
                fed.rpc.call("laptop", "sdsc", "srb:srb1", method)

    def test_registered_ops_remotely_callable(self, fed):
        out = fed.rpc.call("laptop", "sdsc", "srb:srb1", "auth_challenge",
                           username="srbadmin@sdsc")
        assert "challenge" in out


class TestOpsCounterRegression:
    """Satellite: every registered RPC increments ``srb.ops`` exactly
    once per call — including failing calls (the span stage runs before
    the handler) — and the shared call map (``tests/op_calls.py``) must
    cover the whole registry, so adding an op without extending it fails
    loudly.  An op that runs other ops through their own plans adds
    theirs: ``open_object`` of a data file runs stat, get_metadata,
    annotations and get."""

    NESTED = {"open_object": 4}

    def test_every_op_increments_srb_ops_exactly_once(self, grid):
        fed = grid.fed
        srv = fed.server("srb1")
        ticket = grid.admin.ticket
        calls = op_calls(ticket, prepare(srv, ticket))

        # the map must cover the registry: a new op without a row there
        # is a test failure, not silent shrinkage
        assert {name for name, _kw, _raises in calls} == \
            set(srv.dispatch.names())

        m = fed.obs.metrics
        for name, kwargs, raises in calls:
            before = m.snapshot()
            if raises:
                with pytest.raises(SrbError):
                    getattr(srv, name)(**kwargs)
            else:
                getattr(srv, name)(**kwargs)
            delta = m.delta(before)
            spec = srv.dispatch.get(name).spec
            assert sum_matching(delta, "srb.ops") == \
                1 + self.NESTED.get(name, 0), \
                f"{name}: expected exactly one srb.ops increment"
            labeled = "srb.ops{op=%s,plane=%s,server=srb1}" % (name,
                                                               spec.plane)
            assert delta.get(labeled) == 1, \
                f"{name}: increment missing its op/plane labels"


class TestDeclarativeAudit:
    """Satellite: denied mutations audit ``ok=False``; denied reads do
    not, and the success audit stays the op's last catalog action."""

    # /demozone/vault sits outside the curator's granted subtree, so the
    # curator holds no permission on it at all
    @staticmethod
    def _vault(grid):
        grid.admin.mkcoll("/demozone/vault")
        grid.admin.ingest("/demozone/vault/secret.txt", b"s")
        return "/demozone/vault/secret.txt"

    def test_denied_mutation_audited_not_ok(self, grid):
        secret = self._vault(grid)
        with pytest.raises(AccessDenied):
            grid.curator.delete(secret)
        rows = grid.fed.mcat.audit_query(principal="sekar@sdsc",
                                         action="delete")
        assert len(rows) == 1
        assert rows[0]["ok"] is False
        assert rows[0]["target"] == secret

    def test_denied_read_is_not_audited(self, grid):
        # an unauthenticated caller holds no grants at all (the curator
        # has zone-wide read in the standard grid)
        secret = self._vault(grid)
        with pytest.raises(AccessDenied):
            grid.fed.server("srb1").get(None, secret)
        assert grid.fed.mcat.audit_query(action="get") == []

    def test_denied_grant_audited_not_ok(self, grid):
        secret = self._vault(grid)
        with pytest.raises(AccessDenied):
            grid.curator.grant(secret, "sekar@sdsc", "read")
        rows = grid.fed.mcat.audit_query(principal="sekar@sdsc",
                                         action="grant")
        assert [r["ok"] for r in rows] == [False]

    def test_successful_mutation_audits_once(self, grid):
        fed = grid.fed
        path = grid.home + "/a.txt"
        grid.curator.ingest(path, b"x")
        rows = fed.mcat.audit_query(action="ingest", target=path)
        assert len(rows) == 1
        assert rows[0]["ok"] is True
        assert rows[0]["principal"] == "sekar@sdsc"


class TestCompiledOrder:
    """The plan keeps error → span → auth → zone → hop → audit: each
    failure below is seen by every stage outside the one that raised it
    and by none inside."""

    @staticmethod
    def counts(fed, srv, op):
        m = fed.obs.metrics
        return {"ops": counter(m, "srb.ops", server=srv.name, plane="data", op=op),
                "errors": m.total("srb.errors"),
                "served": srv.ops_served,
                "audited": len(fed.mcat.audit_query(action=op))}

    def test_denied_write_is_audited_counted_and_spanned(self, grid):
        fed, srv = grid.fed, grid.fed.server("srb1")
        grid.admin.mkcoll("/demozone/vault")
        grid.admin.ingest("/demozone/vault/secret.txt", b"s")
        before = self.counts(fed, srv, "delete")
        with fed.obs.tracer.trace("denied") as root:
            with pytest.raises(AccessDenied):
                grid.curator.delete("/demozone/vault/secret.txt")
        after = self.counts(fed, srv, "delete")
        # the handler ran (hop counted it), audit saw the denial
        # (ok=False), the span closed over it, error counted it last
        assert {k: after[k] - before[k] for k in after} == \
            {"ops": 1, "errors": 1, "served": 1, "audited": 1}
        (row,) = fed.mcat.audit_query(action="delete")
        assert row["ok"] is False and row["principal"] == "sekar@sdsc"
        assert counter(fed.obs.metrics, "srb.errors", server="srb1", op="delete",
                                   error="AccessDenied") == 1
        (span,) = root.find("srb.data.delete")
        assert span.error.startswith("AccessDenied")

    def test_a_bad_ticket_stops_before_zone_hop_and_audit(self, grid):
        fed, srv = grid.fed, grid.fed.server("srb1")
        path = grid.home + "/a.txt"
        grid.curator.ingest(path, b"x")
        forged = dataclasses.replace(grid.curator.ticket, signature="forged")
        before = self.counts(fed, srv, "delete")
        with pytest.raises(AuthError):
            srv.delete(forged, path)
        after = self.counts(fed, srv, "delete")
        assert {k: after[k] - before[k] for k in after} == \
            {"ops": 1, "errors": 1, "served": 0, "audited": 0}

    def test_a_foreign_write_stops_before_hop_and_audit(self):
        net = Network()
        a = Federation(zone="sdsc-zone", network=net)
        b = Federation(zone="npaci-zone", network=net)
        for fed, host, name in ((a, "a-host", "a-srb"), (b, "b-host", "b-srb")):
            fed.add_host(host)
            fed.add_server(name, host, mcat=True)
            fed.add_fs_resource(name + "-disk", host)
            fed.default_resource = name + "-disk"
        a.bootstrap_admin()
        b.bootstrap_admin("admin-b@npaci", "pw-b")
        admin = SrbClient(a, "a-host", "a-srb", "srbadmin@sdsc", "hunter2")
        admin.login()
        srv = a.server("a-srb")
        # no peer yet: the path is an ordinary local root, the zone stage
        # has nothing to be foreign to
        admin.mkcoll("/npaci-zone")
        admin.ingest("/npaci-zone/local.txt", b"x")
        a.federate_with(b)
        before = self.counts(a, srv, "ingest")
        with pytest.raises(UnsupportedOperation, match="read-only"):
            admin.ingest("/npaci-zone/pub.txt", b"y")
        after = self.counts(a, srv, "ingest")
        assert {k: after[k] - before[k] for k in after} == \
            {"ops": 1, "errors": 1, "served": 0, "audited": 0}

    def test_an_op_without_audit_cannot_acquire_one(self, fed):
        srv = fed.server("srb1")
        spec = srv.dispatch.get("stat").spec
        assert spec.audit is None
        ctx = OpContext(srv, spec, None, {}, srv.host)
        with pytest.raises(SrbError, match="declares no audit"):
            ctx.audit(detail="x")


class TestPayloadSlot:
    """A ``DeferredPayload`` is unwrapped where the op declares it can
    be — ``data``, ``items[*]["data"]``, the two places
    ``SrbClient._defer`` puts one — and nowhere else."""

    def test_declared_slots(self, fed):
        srv = fed.server("srb1")
        slots = {spec.name: (spec.payload_arg, spec.payload_items)
                 for spec in srv.dispatch.specs()
                 if spec.payload_arg or spec.payload_items}
        assert slots == {"ingest": ("data", None), "put": ("data", None),
                         "ingest_replica": ("data", None),
                         "bulk_ingest": (None, "items")}

    def test_claim_in_an_undeclared_slot_is_refused(self, grid):
        path = grid.home + "/a.txt"
        grid.curator.ingest(path, b"x")
        srv = grid.fed.server("srb1")
        db = grid.fed.mcat.shards[0].primary.db
        rows = len(db.table("metadata"))
        with pytest.raises(SrbError) as refused:
            srv.add_metadata(grid.curator.ticket, path, "color",
                             DeferredPayload(b"blue"))
        # an unclaimed DeferredPayload is not text: bad input to the catalog
        assert isinstance(refused.value, MetadataError)
        assert grid.curator.get_metadata(path) == []
        assert len(db.table("metadata")) == rows
        # ... while the same claim in the declared slot is the payload
        srv.put(grid.curator.ticket, path, DeferredPayload(b"announced"))
        assert grid.curator.get(path) == b"announced"

    def test_bulk_items_are_unwrapped_without_touching_the_callers(self, grid):
        srv = grid.fed.server("srb1")
        items = [{"path": grid.home + "/b1.txt", "data": DeferredPayload(b"1")},
                 {"path": grid.home + "/b2.txt", "data": b"2"}]
        out = srv.bulk_ingest(grid.curator.ticket, items)
        assert all("oid" in r for r in out)
        assert isinstance(items[0]["data"], DeferredPayload)
        assert grid.curator.get(grid.home + "/b1.txt") == b"1"
        assert grid.curator.get(grid.home + "/b2.txt") == b"2"

    @pytest.mark.parametrize("knobs, where", [({}, "sdsc"),
                                              ({"direct_io": True}, "laptop")],
                             ids=["default", "direct_io"])
    def test_payload_host(self, knobs, where, monkeypatch):
        """``ctx.payload_host`` — what the write loop pushes from — is
        the server when the bytes rode the request and the caller's host
        when the client announced them."""
        fed, _admin = build_fed(**knobs)
        client = SrbClient(fed, "laptop", "srb1", "srbadmin@sdsc", "hunter2")
        client.login()
        pushed_from = []
        reach = PlaneService._reach

        def spy(self, *args, src_host=None, **kwargs):
            if src_host is not None:
                pushed_from.append(src_host)
            return reach(self, *args, src_host=src_host, **kwargs)

        monkeypatch.setattr(PlaneService, "_reach", spy)
        home = "/demozone/home"
        calls = {
            "ingest": lambda: client.ingest(home + "/p.dat", b"one"),
            "put": lambda: client.put(home + "/p.dat", b"two"),
            "ingest_replica": lambda: client.ingest_replica(
                home + "/p.dat", b"alt", "unix-caltech"),
            "bulk_ingest": lambda: client.bulk_ingest(
                [{"path": home + "/q1.dat", "data": b"q"},
                 {"path": home + "/q2.dat", "data": b"qq"}]),
        }
        for op, call in calls.items():
            del pushed_from[:]
            call()
            assert pushed_from and set(pushed_from) == {where}, op
