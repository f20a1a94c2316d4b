"""Which user surface reaches each op the servers register.

The one reading of the Scommands and MySRB, as source text (``ast``),
not run.  An op is reached by a row of ``scommands.shell.FORWARDS`` (the
Scommand), a row of ``mysrb.app.FORM_OPS`` (the route), or a call in
``scommands/shell.py``, ``mysrb/app.py`` or ``mysrb/views.py`` through
the ``SrbClient`` method that sends it (or an op name in a tuple: a
batch item).  Such a call is labelled with the Scommand (``cmd_S*``)
or the MySRB route (``if path == "/route"`` in ``MySrbApp._route``) it
runs under, followed through the functions that call it.

``tests/core/test_reachability.py`` fails when an op has no surface
and no :data:`ADMIN_ONLY` reason; ``tools/gendocs.py`` prints the
surfaces in DESIGN.md's op table.  Both import :func:`surface_ops`.
"""

import ast
import pathlib
from typing import Dict, Optional, Set, Tuple

from repro.core.dispatch import declared_ops
from repro.core.planes import AuthService, DataService, MetadataService, \
    NamespaceService, ReplicaService
from repro.mysrb.app import FORM_OPS
from repro.scommands.shell import FORWARDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SURFACES = (SRC / "scommands" / "shell.py", SRC / "mysrb" / "app.py",
            SRC / "mysrb" / "views.py")
#: the plane services, in the order a server registers them
SERVICES = (AuthService, NamespaceService, DataService, ReplicaService,
            MetadataService)
OPS = {spec.name for service in SERVICES
       for spec, _handler in declared_ops(service)}

#: ops only the Python API reaches: op -> why no Scommand or page has it
ADMIN_ONLY = {
    "bulk_get": "batch retrieval for programs; Sget and /open fetch one",
    "bulk_query_metadata": "batch metadata read for programs; the pages "
                           "batch get_metadata instead",
    "get_version": "a checked-in version by number, for programs; Scheckin "
                   "prints the number it made",
    "ingest_replica": "a second copy written by the caller itself; "
                      "Sreplicate asks the server to make one",
    "migrate_collection": "moves a subtree to another catalog partition, "
                          "an operator's rebalancing step",
    "register_replica": "registers bytes already on a resource as one more "
                        "replica, an operator's repair step",
    "update_metadata": "rewrites a triple in place; the shell and pages "
                       "delete and add",
    "versions": "lists checked-in versions, for programs",
}

Site = Tuple[str, str, Optional[str]]     # (file, function, route)


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def client_sends() -> Dict[str, Set[str]]:
    """``{SrbClient method: ops it sends}``: a generated forward sends
    its own op; a written method the ops it names and those of the
    methods it calls on ``self``."""
    tree = parse(SRC / "core" / "client.py")
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "SrbClient"]
    named, calls = {}, {}
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            named[fn.name] = {n.value for n in nodes
                              if isinstance(n, ast.Constant)
                              and n.value in OPS}
            calls[fn.name] = {n.attr for n in nodes
                              if isinstance(n, ast.Attribute)
                              and isinstance(n.value, ast.Name)
                              and n.value.id == "self"}
    sends = {op: {op} for op in OPS}

    def closure(name, seen):
        seen.add(name)
        out = set(named[name])
        for callee in calls[name] & named.keys() - seen:
            out |= closure(callee, seen)
        return out
    sends.update({name: closure(name, set()) for name in named})
    return sends


def _route(test: ast.expr) -> Optional[str]:
    """The route an ``if`` of ``MySrbApp._route`` tests ``path`` for."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) \
                and isinstance(node.left, ast.Name) \
                and node.left.id == "path" \
                and isinstance(node.comparators[0], ast.Constant):
            return node.comparators[0].value
    return None


def _is_client(owner: ast.expr) -> bool:
    return (isinstance(owner, ast.Name) and owner.id == "client") \
        or (isinstance(owner, ast.Attribute) and owner.attr == "client")


def _sites():
    """``(reached, callers)``: the ops each call site reaches, and the
    call sites of each function defined in a surface file."""
    sends = client_sends()
    reached: Dict[Site, Set[str]] = {}
    callers: Dict[Tuple[str, str], Set[Site]] = {}

    def visit(node, site: Site):
        name, fn, route = site
        if isinstance(node, ast.FunctionDef):
            site = (name, node.name, None)
        elif isinstance(node, ast.If) and _route(node.test) is not None:
            site = (name, fn, _route(node.test))
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            owner, attr = node.func.value, node.func.attr
            if _is_client(owner):
                reached.setdefault(site, set()).update(sends.get(attr, ()))
            elif isinstance(owner, ast.Name) and owner.id == "views":
                callers.setdefault(("views.py", attr), set()).add(site)
            elif isinstance(owner, ast.Name) and owner.id == "self":
                callers.setdefault((name, attr), set()).add(site)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callers.setdefault((name, node.func.id), set()).add(site)
        elif isinstance(node, ast.Tuple):       # batch items, getattr'd
            reached.setdefault(site, set()).update(
                item.value for item in node.elts      # op names
                if isinstance(item, ast.Constant) and item.value in OPS)
        for child in ast.iter_child_nodes(node):
            visit(child, site)
    for path in SURFACES:
        visit(parse(path), (path.name, "", None))
    return reached, callers


def surface_ops() -> Dict[str, Set[str]]:
    """``{op: the Scommands and MySRB routes that reach it}``."""
    reached, callers = _sites()

    def labels(site: Site, seen: Set[Site]) -> Set[str]:
        name, fn, route = site
        if route is not None:
            return {route}
        if fn.startswith("cmd_"):
            return {fn[len("cmd_"):]}
        seen.add(site)
        out: Set[str] = set()
        for caller in callers.get((name, fn), ()):
            if caller not in seen:
                out |= labels(caller, seen)
        return out or {f"{name[:-3]}.{fn}"}

    surfaces: Dict[str, Set[str]] = {}
    for cmd, (op, _flags, _out) in FORWARDS.items():
        surfaces.setdefault(op, set()).add(cmd)
    for route, (op, _then) in FORM_OPS.items():
        surfaces.setdefault(op, set()).add(route)
    for site, ops in reached.items():
        if not site[1]:     # a module-level row: FORWARDS or FORM_OPS
            continue
        for op in ops:
            surfaces.setdefault(op, set()).update(labels(site, set()))
    return surfaces
