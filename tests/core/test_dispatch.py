"""Tests for the declarative RPC dispatch pipeline (repro.core.dispatch).

Covers the registry invariants (every op declared exactly once, bad
declarations fail at import time), the uniform ``srb.ops`` accounting
(every registered op increments the counter exactly once per call), the
declarative audit coverage (every mutation audits; denied mutations
audit ``ok=False``), and the narrowed RPC surface (only registered ops
are remotely callable).
"""

from __future__ import annotations

import inspect
import pathlib
import subprocess
import sys

import pytest

from repro.core.dispatch import Dispatcher, rpc_op
from repro.errors import AccessDenied, RpcError, SrbError
from tests.op_calls import op_calls, prepare

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
    loudly."""

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
            assert m.sum_matching(delta, "srb.ops") == 1, \
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
