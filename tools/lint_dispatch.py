#!/usr/bin/env python
"""Lint the plane services against the dispatch pipeline contract.

Eleven rules keep the refactored server honest (see DESIGN.md, "SRB
server architecture" and "Placement policy engine"):

1. **Every public plane-service method is a declared op.**  The RPC
   surface is exactly the ``@rpc_op``-decorated methods; a public method
   without the decorator is either dead code or an op that silently
   bypasses the pipeline.  Helpers must be underscore-private.

2. **No handler re-implements a pipeline stage inline.**  Auth, span and
   metrics accounting, cross-zone forwarding, the MCAT hop and audit all
   belong to the dispatch middleware; a handler calling the server-level
   plumbing (``_auth``, ``_mcat_hop``, ``_forward``, ...) or writing
   audit rows directly would double-charge the simulation or drift from
   the declarative policy.  (The ``ctx.*`` helpers — ``ctx.audit``,
   ``ctx.require_local`` — are the sanctioned escape hatches and are not
   flagged.)

3. **Catalog access goes through the plane's own ``self.mcat``, and
   nobody asks the catalog what it is.**  Reaching the catalog as
   ``server.mcat`` or ``federation.mcat`` sidesteps the one seam the
   catalog (``Federation(mcat_shards=...)``) relies on being narrow:
   handlers must not care how many partitions sit behind the attribute
   (``Wired._wire`` in ``planes/base.py`` binds it, by name, once).
   And there is one catalog class, so nothing
   under ``src/repro`` outside ``mcat/shard.py`` may test a catalog's
   type: no ``isinstance(..., Mcat)`` / ``isinstance(..., ShardedMcat)``,
   no ``getattr``/``hasattr`` of a ``shard*`` or ``route_*`` name.  A
   caller that needs the shape reads a count (``len(mcat.shards)``).
   No allowlist.

4. **Query ops must not return unbounded materializations.**  A read
   handler that walks a whole-subtree enumerator
   (``objects_in_collection``, ``_subtree_collections``, ...) and ships
   the full result in one reply makes peak reply size O(catalog); the
   streaming plane (DESIGN.md, "Streaming query plane") exists so new
   query surface is cursor-paged.  Any non-write ``@rpc_op`` handler
   that calls an unbounded enumerator must take ``limit``/``cursor``
   parameters.  No allowlist: the last legacy op, ``audit_log``, pages
   too.

5. **Replica choice goes through the placement engine.**  Ordering or
   filtering replicas is ``repro.policy``'s job; code elsewhere in
   ``src/repro`` that hand-sorts rows by ``"replica_num"`` re-opens the
   seam the engine closed — such code would not see the observed-stats
   policy, quarantine or auto-striping.  (The catalog's canonical row
   order is ``mcat.schema.REPLICA_ORDER``, a sort key and not a choice.)
   Nor does code there call ``order_replicas``, the policy's bare
   order: a reader of bytes walks ``source_chain`` (online copies on
   the sink's host first, tape-resident ones last), a write target
   comes from ``failover_chain``.  No allowlist.

6. **Payload bytes in plane code move through the leg runner.**
   A handler calling ``self.network.transfer(...)`` itself decides how
   bytes reach storage — the one decision the server, as broker, makes
   in one place (DESIGN.md, "Direct data channels"): under
   ``Federation(direct_io=True)`` such bytes would silently keep
   funnelling through the server host, unmetered by ``net.direct.*``
   and invisible to channel admission, and they would overlap with
   nothing.  Handlers describe legs and hand them to
   ``ChannelBroker.run_legs`` (through the ``planes/base.py`` write
   loop ``_store``/``_reach`` and read delivery ``_deliver``).  A
   *control* message — a session handshake, a rollback delete, a
   method request — is a leg too, one whose ``path_key`` is ``None``:
   the runner sends it blocking, in order, never on a channel.  No
   allowlist.

7. **Federation-shared state is bound, not forwarded.**  The server and
   its planes carry ``mcat``, ``clock``, ``obs``, ... as plain attributes
   (``Wired._wire``); a ``@property`` in ``core/planes/base.py`` or
   ``core/server.py`` whose body only returns something reached through
   ``self.federation`` or ``self.server`` puts a Python call back on
   every read of it, a dozen times per request.

8. **The client does not restate an op.**  ``SrbClient`` generates a
   method per declared op from its handler (``core/client.py``'s module
   docstring); a method written in ``core/client.py`` whose body is only
   ``return self._call("<its own name>", ...)``, every parameter passed
   through unchanged, is a hand-copied signature that drifts from the
   handler's.  Delete it, and the generated one takes its place.  No
   allowlist.

9. **A declared check is not made again.**  An op declaring
   ``@rpc_op(need=, target=)`` has its subject resolved and checked by
   its op plan before the handler runs (``core/dispatch.py``); a
   ``self.access.require_*`` call in that handler whose subject is
   ``ctx.target`` or the declared ``scope_arg`` repeats the check — a
   second ``access.checks`` count and catalog charge, and a second place
   to disagree on the permission.  Checks on a *second* target stay.  No
   allowlist.

10. **An Scommand does not restate an op either.**  A command that only
    forwards to one client op is a row of ``scommands.shell.FORWARDS``,
    whose flags, arity and usage line are read off the op's signature.
    A written ``cmd_S*`` whose body is only option parsing, arity and
    required-flag checks, one ``self.client.<op>(...)`` call of words
    taken straight off the command line, and a return of a constant or
    a formatted result is such a command written out.  No allowlist.

11. **Only the write loop changes what a storage system holds.**  A
    call of ``.driver.create``, ``replace``, ``append``, ``delete``,
    ``pin`` or ``unpin`` anywhere under ``src/repro`` outside
    ``core/planes/base.py`` fails.  There, every act on a resource is
    carried to its host by a leg in the same call
    (``PlaneService._reach``: the payload leg, or one control message
    first), so a server cannot change bytes on a host it cannot reach.
    What stays outside the rule, and why: reads (``read``, ``size``,
    ``exists``, ``is_online``), each guarded by its epoch-keyed session
    and its delivery leg; the placement engine's ``is_online`` ranking
    read; and ``Federation.cache_sweep``'s ``purge_cache``, an
    operator's sweep of the archive caches, not a server's act.  No
    allowlist.

Run from the repository root::

    python tools/lint_dispatch.py

Exits non-zero, listing violations, if any rule is broken.  Wired into
CI next to the test suite.  No rule has an allowlist.
"""

from __future__ import annotations

import ast
import inspect
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
PLANES_DIR = ROOT / "src" / "repro" / "core" / "planes"

sys.path.insert(0, str(ROOT / "src"))

#: Server plumbing and catalog calls only pipeline stages may make.
BANNED_CALLS = {
    "_auth": "ticket validation is the pipeline's auth stage",
    "_audit": "audit rows are written by the pipeline's audit stage",
    "record_audit": "audit rows are written by the pipeline's audit stage",
    "_mcat_hop": "the catalog round trip is the pipeline's hop stage",
    "_forward": "cross-zone forwarding is the pipeline's zone stage",
    "_foreign_zone": "zone classification is the pipeline's zone stage",
    "_require_local": "zone refusal is the pipeline's zone stage",
    "_op": "op spans/metrics are the pipeline's span stage",
}


#: Catalog/table enumerators that materialize an unbounded row set.
#: (``queryable_attributes`` answers with distinct attribute names —
#: as many as the vocabulary, not as the catalog — and is not one.)
UNBOUNDED_ENUMERATORS = {
    "objects_in_collection", "_subtree_collections", "audit_query",
    "all_rows", "scan",
}

def check_public_methods_declared() -> List[str]:
    """Rule 1: public plane methods must carry ``@rpc_op``."""
    from repro.core import planes

    errors = []
    for cls_name in planes.__all__:
        cls = getattr(planes, cls_name)
        if cls_name in ("PlaneService",) or not inspect.isclass(cls):
            continue
        for name, member in vars(cls).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            if not hasattr(member, "__rpc_op__"):
                errors.append(
                    f"{cls.__module__}.{cls_name}.{name}: public plane "
                    f"method without @rpc_op — decorate it or make it "
                    f"_private")
    return errors


def check_no_inline_plumbing() -> List[str]:
    """Rule 2: handlers must not call pipeline-stage plumbing."""
    errors = []
    for path in sorted(PLANES_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            reason = BANNED_CALLS.get(node.func.attr)
            if reason is not None:
                errors.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: call to "
                    f"{node.func.attr}() in a plane module — {reason}")
    return errors


def check_mcat_via_self() -> List[str]:
    """Rule 3: no ``server.mcat``/``federation.mcat`` attribute chains."""
    errors = []
    for path in sorted(PLANES_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "mcat"
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr in ("server", "federation")):
                continue
            errors.append(
                f"{path.relative_to(ROOT)}:{node.lineno}: "
                f"...{node.value.attr}.mcat in a plane module — use "
                f"the plane's own self.mcat so sharded catalogs stay "
                f"transparent")
    return errors


def check_no_catalog_type_tests() -> List[str]:
    """Rule 3, second half: nothing outside ``mcat/shard.py`` tests the
    catalog's type."""
    errors = []
    src_repro = ROOT / "src" / "repro"
    for path in sorted(src_repro.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if rel == "src/repro/mcat/shard.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and len(node.args) >= 2):
                continue
            what = None
            if node.func.id == "isinstance":
                classes = {sub.id if isinstance(sub, ast.Name) else sub.attr
                           for sub in ast.walk(node.args[1])
                           if isinstance(sub, (ast.Name, ast.Attribute))}
                if classes & {"Mcat", "ShardedMcat"}:
                    what = "isinstance(..., Mcat/ShardedMcat)"
            elif (node.func.id in ("getattr", "hasattr")
                  and isinstance(node.args[1], ast.Constant)
                  and str(node.args[1].value).startswith(("shard",
                                                          "route_"))):
                what = f"{node.func.id}(..., {node.args[1].value!r})"
            if what is not None:
                errors.append(
                    f"{rel}:{node.lineno}: {what} tests the catalog's "
                    f"type — there is one catalog class; read a count "
                    f"(len(mcat.shards)) if the shape matters")
    return errors


def _rpc_op_keywords(node: ast.FunctionDef):
    """The constant keywords of an ``@rpc_op`` decorator, if any, with
    the op's name under ``"name"``."""
    for dec in node.decorator_list:
        if not (isinstance(dec, ast.Call) and (
                (isinstance(dec.func, ast.Name) and dec.func.id == "rpc_op")
                or (isinstance(dec.func, ast.Attribute)
                    and dec.func.attr == "rpc_op"))):
            continue
        keywords = {kw.arg: kw.value.value for kw in dec.keywords
                    if isinstance(kw.value, ast.Constant)}
        keywords["name"] = node.name
        if dec.args and isinstance(dec.args[0], ast.Constant):
            keywords["name"] = str(dec.args[0].value)
        return keywords
    return None


def _rpc_op_decoration(node: ast.FunctionDef):
    """The ``(op_name, is_write)`` of an ``@rpc_op`` decorator, if any."""
    keywords = _rpc_op_keywords(node)
    if keywords is None:
        return None
    return keywords["name"], bool(keywords.get("write"))


def check_query_ops_paged() -> List[str]:
    """Rule 4: read handlers over unbounded enumerators must page."""
    errors = []
    for path in sorted(PLANES_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            decoration = _rpc_op_decoration(node)
            if decoration is None:
                continue
            op_name, is_write = decoration
            if is_write:
                continue
            unbounded = sorted({
                call.func.attr for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in UNBOUNDED_ENUMERATORS})
            if not unbounded:
                continue
            params = {a.arg for a in node.args.args + node.args.kwonlyargs}
            if not {"limit", "cursor"} <= params:
                errors.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: read op "
                    f"{op_name!r} materializes {', '.join(unbounded)}() "
                    f"without limit/cursor parameters — page it through "
                    f"the streaming query plane")
    return errors


def check_placement_seam() -> List[str]:
    """Rule 5: replica choice outside ``repro.policy`` is banned."""
    errors = []
    src_repro = ROOT / "src" / "repro"
    for path in sorted(src_repro.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if rel.startswith("src/repro/policy/"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sorted"
                    and any(isinstance(sub, ast.Constant)
                            and sub.value == "replica_num"
                            for sub in ast.walk(node))):
                errors.append(
                    f"{rel}:{node.lineno}: ad-hoc sorted(...) by "
                    f"'replica_num' — replica ordering belongs to "
                    f"repro.policy")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "order_replicas"):
                errors.append(
                    f"{rel}:{node.lineno}: order_replicas() outside "
                    f"repro.policy — read bytes along source_chain, "
                    f"pick write targets from failover_chain")
    return errors


def check_raw_transfers() -> List[str]:
    """Rule 6: ``network.transfer`` in plane code outside the runner."""
    errors = []
    for path in sorted(PLANES_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # map every line to its innermost enclosing function
        enclosing: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for line in range(node.lineno, node.end_lineno + 1):
                    prev = enclosing.get(line)
                    if prev is None or node.lineno > prev[0]:
                        enclosing[line] = (node.lineno, node.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "transfer"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "network"):
                continue
            func = enclosing.get(node.lineno, (0, "<module>"))[1]
            errors.append(
                f"{path.relative_to(ROOT)}:{node.lineno}: raw "
                f"network.transfer() in {func}() — describe the leg and "
                f"hand it to the leg runner (ChannelBroker.run_legs, via "
                f"_store/_reach/_deliver; a control message is a leg "
                f"whose path_key is None) so the broker picks its route")
    return errors


#: where the federation's shared state is bound once (rule 7)
WIRED_FILES = (PLANES_DIR / "base.py", PLANES_DIR.parent / "server.py")


def _is_forward(expr: ast.AST) -> bool:
    """``self.federation...`` or ``self.server...``: a bare attribute
    chain hanging off one of the two."""
    while isinstance(expr, ast.Attribute):
        if (isinstance(expr.value, ast.Name) and expr.value.id == "self"
                and expr.attr in ("federation", "server")):
            return True
        expr = expr.value
    return False


def check_no_forwarding_properties() -> List[str]:
    """Rule 7: no ``@property`` that only forwards to the federation."""
    errors = []
    for path in WIRED_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and any(
                    isinstance(dec, ast.Name) and dec.id == "property"
                    for dec in node.decorator_list)):
                continue
            body = [stmt for stmt in node.body
                    if not (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant))]
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and body[0].value is not None
                    and _is_forward(body[0].value)):
                errors.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: property "
                    f"{node.name!r} only forwards to the federation — "
                    f"declare it on Wired, which binds it once")
    return errors


#: where the client's methods are written (rule 8)
CLIENT_FILE = PLANES_DIR.parent / "client.py"


def check_no_plain_client_forwards() -> List[str]:
    """Rule 8: no written client method that only forwards its own op."""
    errors = []
    tree = ast.parse(CLIENT_FILE.read_text(), filename=str(CLIENT_FILE))
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        body = [stmt for stmt in node.body
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))]
        if not (len(body) == 1 and isinstance(body[0], ast.Return)):
            continue
        call = body[0].value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_call"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
                and call.args and isinstance(call.args[0], ast.Constant)
                and call.args[0].value == node.name):
            continue
        passed = {kw.arg for kw in call.keywords
                  if isinstance(kw.value, ast.Name) and kw.value.id == kw.arg}
        params = {a.arg for a in node.args.posonlyargs + node.args.args
                  + node.args.kwonlyargs} - {"self"}
        if params <= passed:
            errors.append(
                f"{CLIENT_FILE.relative_to(ROOT)}:{node.lineno}: method "
                f"{node.name!r} only forwards its op — delete it, SrbClient "
                f"generates it from the handler's declaration")
    return errors


def _is_subject(arg: ast.AST, scope_arg: str) -> bool:
    """``ctx.target`` (or a part of it), or the name ``scope_arg``."""
    while isinstance(arg, ast.Subscript):
        arg = arg.value
    if isinstance(arg, ast.Attribute):
        return (arg.attr == "target" and isinstance(arg.value, ast.Name)
                and arg.value.id == "ctx")
    return isinstance(arg, ast.Name) and arg.id == scope_arg


def check_declared_checks_not_repeated() -> List[str]:
    """Rule 9: a handler declaring ``need=`` does not check its subject."""
    errors = []
    for path in sorted(PLANES_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            keywords = _rpc_op_keywords(node)
            if not keywords or keywords.get("need") is None:
                continue
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr.startswith("require_")
                        and isinstance(call.func.value, ast.Attribute)
                        and call.func.value.attr == "access"):
                    continue
                subjects = call.args[1:] + [kw.value for kw in call.keywords]
                if any(_is_subject(arg, keywords.get("scope_arg"))
                       for arg in subjects):
                    errors.append(
                        f"{path.relative_to(ROOT)}:{call.lineno}: op "
                        f"{keywords['name']!r} declares need="
                        f"{keywords['need']!r} and checks its subject again "
                        f"with {call.func.attr}() — the op plan already "
                        f"made that check (ctx.target is its row)")
    return errors


#: where the Scommands are written (rule 10)
SHELL_FILE = ROOT / "src" / "repro" / "scommands" / "shell.py"


def _is_self_call(node: ast.AST, *names: str) -> bool:
    """``self.<one of names>(...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self")


def _is_op_call(node: ast.AST, ops: set) -> bool:
    """``self.client.<op>(...)`` for a registered op."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ops
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "client")


def _is_plain_argument(arg: ast.AST) -> bool:
    """A word of the command line as it stands: ``args[i]``,
    ``opts["-R"]``, ``opts.get("-R")``, through ``self._abs`` or a number
    conversion, or ``None`` when a flag is absent."""
    if isinstance(arg, ast.Subscript):
        return True
    if isinstance(arg, ast.IfExp):
        return _is_plain_argument(arg.body) and isinstance(
            arg.orelse, ast.Constant) and arg.orelse.value is None
    if not isinstance(arg, ast.Call) or len(arg.args) != 1 or arg.keywords:
        return False
    func = arg.func
    if isinstance(func, ast.Attribute) and func.attr == "get":
        return True                                  # opts.get(flag)
    return (_is_self_call(arg, "_abs") or (isinstance(func, ast.Name)
            and func.id in ("int", "_int"))) \
        and _is_plain_argument(arg.args[0])


def _forwards_only(node: ast.FunctionDef, ops: set) -> bool:
    """Option parsing, arity checks, one ``self.client.<op>(...)`` of
    plain arguments, and a return of a constant or a formatted result."""
    body = [stmt for stmt in node.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    calls = [call for call in ast.walk(node) if _is_op_call(call, ops)]
    if len(calls) != 1 or not body or not isinstance(body[-1], ast.Return):
        return False
    for stmt in body:
        value = getattr(stmt, "value", None)
        if isinstance(stmt, ast.If) and not stmt.orelse and all(
                isinstance(sub, ast.Raise) for sub in stmt.body):
            continue                                 # a required flag
        if not isinstance(stmt, (ast.Expr, ast.Assign, ast.Return)):
            return False
        if value is calls[0] or _is_self_call(value, "_getopts", "_need"):
            continue
        if not (isinstance(stmt, ast.Return) and isinstance(
                value, (ast.Constant, ast.JoinedStr, ast.Name))):
            return False
    call = calls[0]
    return all(_is_plain_argument(arg) for arg in
               call.args + [kw.value for kw in call.keywords])


def check_no_forwarding_scommands() -> List[str]:
    """Rule 10: no written Scommand that only forwards to one op."""
    from repro.core.client import _SPECS
    errors = []
    tree = ast.parse(SHELL_FILE.read_text(), filename=str(SHELL_FILE))
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_S")
                and _forwards_only(node, set(_SPECS))):
            errors.append(
                f"{SHELL_FILE.relative_to(ROOT)}:{node.lineno}: "
                f"{node.name} only parses its arguments and forwards them "
                f"to one op — make it a row of FORWARDS, which reads its "
                f"flags, arity and usage off the op's signature")
    return errors


#: the driver calls that change what a storage system holds (rule 11)
DRIVER_MUTATIONS = {"create", "replace", "append", "delete", "pin", "unpin"}


def check_driver_mutations() -> List[str]:
    """Rule 11: driver mutations only in ``core/planes/base.py``."""
    errors = []
    src_repro = ROOT / "src" / "repro"
    for path in sorted(src_repro.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if rel == "src/repro/core/planes/base.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DRIVER_MUTATIONS
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "driver"):
                errors.append(
                    f"{rel}:{node.lineno}: driver.{node.func.attr}() "
                    f"outside core/planes/base.py — hand the act to the "
                    f"write loop (_store/_remove/_pin), which carries it "
                    f"to the resource's host on a leg first")
    return errors


def main() -> int:
    errors = (check_public_methods_declared() + check_no_inline_plumbing()
              + check_mcat_via_self() + check_no_catalog_type_tests()
              + check_query_ops_paged()
              + check_placement_seam() + check_raw_transfers()
              + check_no_forwarding_properties()
              + check_no_plain_client_forwards()
              + check_declared_checks_not_repeated()
              + check_no_forwarding_scommands()
              + check_driver_mutations())
    if errors:
        print(f"lint_dispatch: {len(errors)} violation(s)")
        for err in errors:
            print(f"  {err}")
        return 1
    print("lint_dispatch: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
