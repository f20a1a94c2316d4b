#!/usr/bin/env python
"""Rewrite the doc tables that restate the code, from the code.

    python tools/gendocs.py [--check] [FILE ...]

Each block between ``<!-- gendocs:NAME -->`` and ``<!-- /gendocs:NAME -->``
in FILE (default: DESIGN.md and README.md) is replaced by what
:data:`BLOCKS` ``[NAME]`` builds.  With ``--check`` nothing is written:
the tool prints a diff of every block that has drifted from the code and
exits 1.  The blocks:

* ``ops`` (DESIGN.md): one row per op a server registers — its plane,
  the check its plan makes (``need@target``, or why its handler checks
  itself), whether it forwards to a peer zone, and the Scommands and
  MySRB routes that reach it (``tools/surfaces.py``, the walk
  ``tests/core/test_reachability.py`` runs) or why only the Python API
  does.
* ``knobs`` (README.md): the behaviour keywords of ``Federation`` and
  ``Federation.add_host`` with their defaults, each described by its
  line in ``Federation``'s docstring.
"""

import difflib
import inspect
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import Federation  # noqa: E402
from repro.core.dispatch import WRITTEN_CHECKS, declared_ops  # noqa: E402

import surfaces  # noqa: E402

BLOCK = re.compile(r"(<!-- gendocs:(\w+) -->\n)(.*?)(<!-- /gendocs:\2 -->)",
                   re.DOTALL)
#: keywords that say what the grid is (its name, its wires, a host's
#: name and site), not how it behaves
DEPLOYMENT = {"self", "zone", "default_link", "network", "name", "site"}
KNOB = re.compile(r"^\* ``(\w+)=([^`]+)`` \(([^)]*)\): (.*?)(?=^\* |\Z)",
                  re.MULTILINE | re.DOTALL)


def ops() -> str:
    reach = surfaces.surface_ops()
    rows = ["| op | plane | check | fwd | surface |",
            "|---|---|---|---|---|"]
    for service in surfaces.SERVICES:
        for spec, _handler in declared_ops(service):
            if spec.need is not None:
                check = f"`{spec.need}@{spec.target}`"
            elif spec.name in WRITTEN_CHECKS:
                check = f"written: {WRITTEN_CHECKS[spec.name]}"
            else:
                check = "none"
            names = sorted(reach.get(spec.name, ()),
                           key=lambda s: (s.startswith("/"), s))
            surface = ", ".join(f"`{s}`" for s in names) \
                or f"API only: {surfaces.ADMIN_ONLY[spec.name]}"
            rows.append(f"| `{spec.name}` | {spec.plane} | {check} | "
                        f"{'yes' if spec.forwardable else ''} | {surface} |")
    return "\n".join(rows) + "\n"


def _default(value) -> str:
    return f'`"{value}"`' if isinstance(value, str) else f"`{value!r}`"


def knobs() -> str:
    params = {
        "Federation": inspect.signature(Federation.__init__).parameters,
        "Federation.add_host": inspect.signature(
            Federation.add_host).parameters}
    behaviour = {name for ps in params.values() for name in ps} - DEPLOYMENT
    described = KNOB.findall(inspect.getdoc(Federation))
    if sorted(k for k, *_ in described) != sorted(behaviour):
        sys.exit(f"Federation's docstring describes knobs "
                 f"{sorted(k for k, *_ in described)}, its signatures have "
                 f"{sorted(behaviour)}")
    rows = ["| Knob | Default | What it does | Experiment |",
            "|------|---------|--------------|------------|"]
    for knob, example, experiments, text in described:
        owner = "Federation" if knob in params["Federation"] \
            else "Federation.add_host"
        call = f"{owner}({'name, ' if owner != 'Federation' else ''}" \
               f"{knob}={example})"
        text = " ".join(text.split()).replace("``", "`")
        rows.append(f"| `{call}` | {_default(params[owner][knob].default)} "
                    f"| {text} | {experiments} |")
    return "\n".join(rows) + "\n"


BLOCKS = {"ops": ops, "knobs": knobs}


def main(argv) -> int:
    check = "--check" in argv
    named = [pathlib.Path(a) for a in argv if a != "--check"]
    files = named or [ROOT / "DESIGN.md", ROOT / "README.md"]
    built = {}
    drifted = False
    for path in files:
        text = path.read_text()

        def fill(match):
            name = match.group(2)
            if name not in BLOCKS:
                sys.exit(f"{path}: no generator for block {name!r}")
            if name not in built:
                built[name] = BLOCKS[name]()
            return match.group(1) + built[name] + match.group(4)
        new = BLOCK.sub(fill, text)
        if new == text:
            continue
        drifted = True
        if check:
            sys.stdout.writelines(difflib.unified_diff(
                text.splitlines(True), new.splitlines(True),
                f"{path} (as written)", f"{path} (from the code)"))
        else:
            path.write_text(new)
            print(f"rewrote {path}")
    if not named and built.keys() != BLOCKS.keys():
        sys.exit(f"no block for {sorted(BLOCKS.keys() - built.keys())}")
    return int(check and drifted)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
