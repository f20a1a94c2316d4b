"""What no surface reaches is deleted, or says why it stays.

Three checks:

1. Every op the servers register is called by an Scommand (a row of
   ``scommands.shell.FORWARDS`` or a written ``cmd_``) or by a MySRB
   route or view, through the client method that sends it.  An op no
   user surface reaches is in ``ADMIN_ONLY`` (``tools/surfaces.py``,
   the one walk of the surfaces, which ``tools/gendocs.py`` prints in
   DESIGN.md's op table) with its reason.
2. Every public function or method under ``src/repro`` is referenced,
   other than by its own definition, by name, as an attribute or as a
   string, in what ``tools/reach.py`` runs: ``src/``, ``examples/``,
   ``benchmarks/``, ``gridbench/`` (its wrapper table names functions
   as strings) and the surface walks (``tests/op_calls.py``,
   ``tests/surface_calls.py``); or its ``path::Qualname`` is a key of
   ``tools/reach.py``'s ``REACH_EXEMPT`` (the one list of reasons, each
   of ``reach.KINDS`` or the wrapper table).  A name match is a quick
   stand-in for the traced rule in 3.
3. The surface walk names every Scommand and every MySRB route, and
   runs.  ``python tools/reach.py --check`` traces it, with the
   workloads, examples and benchmarks, and holds every function none of
   them enters to ``REACH_EXEMPT``; that takes minutes, so it runs in
   CI's benchmark job, not here.

``ADMIN_ONLY`` and ``REACH_EXEMPT`` are frozen like the lint
allowlists: an entry that exempts nothing is itself a failure (here for
an entry that names no function; ``reach.py --check`` for one a traced
run enters), so they only shrink.
"""

import ast
import importlib.util
import pathlib

from repro.scommands.shell import FORWARDS, Shell
from tests import surface_calls

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
#: what tools/reach.py runs, read as text
CALLERS = [SRC, ROOT / "examples", ROOT / "benchmarks", ROOT / "gridbench",
           ROOT / "tests" / "op_calls.py", ROOT / "tests" / "surface_calls.py"]


def _tool(name):
    """A module of ``tools/``."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


surfaces = _tool("surfaces")
reach = _tool("reach")
OPS = surfaces.OPS
ADMIN_ONLY = surfaces.ADMIN_ONLY
REACH_EXEMPT = reach.REACH_EXEMPT


def _surface_ops():
    """The ops the Scommands and MySRB reach."""
    return set(surfaces.surface_ops())


def test_every_op_has_a_surface_or_a_reason():
    reached = _surface_ops()
    assert sorted(OPS - reached - ADMIN_ONLY.keys()) == [], \
        "an op no Scommand or MySRB page reaches: give it one, or say " \
        "why in ADMIN_ONLY"
    assert sorted(ADMIN_ONLY.keys() & reached) == [], \
        "ADMIN_ONLY names an op a surface now reaches: delete the entry"
    assert sorted(ADMIN_ONLY.keys() - OPS) == []


def _unreferenced():
    """Public functions and methods under ``src/repro``, by
    ``path::Qualname`` (not ``@rpc_op`` handlers, whose reach is the
    first check, nor ``cmd_`` methods, the Scommands themselves), whose
    name nothing in :data:`CALLERS` mentions."""
    used = set()
    for caller in CALLERS:
        for path in [caller] if caller.is_file() else caller.rglob("*.py"):
            for node in ast.walk(surfaces.parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    used.add(node.value)
    return sorted(
        key for key, node in reach.defined().items()
        if not node.name.startswith(("_", "cmd_"))
        and not any("rpc_op" in ast.dump(dec) for dec in node.decorator_list)
        and node.name not in used)


def test_every_public_function_has_a_caller_or_a_reason():
    missing = [key for key in _unreferenced() if key not in REACH_EXEMPT]
    assert missing == [], \
        "nothing the grid runs calls these: delete them, or say why in " \
        "tools/reach.py's REACH_EXEMPT"


def test_every_reason_names_a_function_and_what_runs_it():
    defined = reach.defined()
    assert sorted(REACH_EXEMPT.keys() - defined.keys()) == [], \
        "REACH_EXEMPT names a function that is gone: delete the entry"
    assert [key for key, why in REACH_EXEMPT.items()
            if why != reach.WRAPPER
            and not (why.startswith(reach.KINDS) and "tests/" in why)] \
        == [], "a reason is the wrapper table, or one of reach.KINDS " \
               "with the test that runs the code"


def test_the_surface_walk_names_every_command_and_route():
    commands = {name[len("cmd_"):] for name in dir(Shell)
                if name.startswith("cmd_")} | FORWARDS.keys()
    tree = surfaces.parse(SRC / "mysrb" / "app.py")
    (route,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_route"]
    routes = {surfaces._route(node.test) for node in ast.walk(route)
              if isinstance(node, ast.If)} - {None}
    assert commands <= set(surface_calls.scommand_walk())
    assert routes <= set(surface_calls.page_walk())
    assert set(surface_calls.op_walk()) == OPS


def test_the_rails_see_what_they_claim_to():
    """The scans are not vacuous: the table rows and the written
    commands count, and a known unreferenced name is found."""
    reached = _surface_ops()
    assert {"mkcoll", "compact_container", "define_structural",
            "register_url", "list_collection_page", "query_page",
            "verify_checksums", "auth_login"} <= reached
    assert "auth/users.py::UserRegistry.disable_user" in _unreferenced()
    assert "core/client.py::SrbClient.connect" \
        not in _unreferenced()                     # examples/ call it
