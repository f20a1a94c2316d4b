"""Code size is a ratchet.

``src/repro`` and the modules changed with this test are held at or
below the code-line counts in :data:`CEILINGS`, counted by
``tools/codelines.py`` (lines holding a token that is neither a comment
nor a docstring).  A change that grows one of them must raise its number
here, in its own diff, where a reviewer sees the cost; a change that
shrinks one may lower it.  CI's code-lines step prints the same list.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: path (from the repository root) -> the most code lines it may hold
CEILINGS = {
    "src/repro": 11_680,
    "src/repro/core/containers.py": 148,
    "src/repro/core/dispatch.py": 353,
    "src/repro/core/federation.py": 292,
    "src/repro/core/planes/base.py": 236,
    "src/repro/core/planes/data.py": 888,
    "src/repro/core/planes/replica.py": 152,
    "src/repro/core/replication.py": 49,
    "src/repro/db/index.py": 112,
    "src/repro/db/table.py": 354,
    "src/repro/mysrb/views.py": 531,
    "src/repro/net/rpc.py": 339,
    "src/repro/net/simnet.py": 511,
    "src/repro/storage/archive.py": 199,
    "src/repro/storage/base.py": 124,
    "src/repro/storage/memfs.py": 99,
    "tools/codelines.py": 21,
}


def code_lines():
    spec = importlib.util.spec_from_file_location(
        "codelines", ROOT / "tools" / "codelines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


@pytest.mark.parametrize("path", sorted(CEILINGS))
def test_no_larger_than_its_ceiling(path):
    count = code_lines()
    target = ROOT / path
    files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
    assert sum(map(count, files)) <= CEILINGS[path], \
        f"{path} grew: raise its ceiling in this file, in the same change"


def test_ci_prints_the_ceilinged_paths():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    step = ci.split("python tools/codelines.py", 1)[1].split("\n      - ")[0]
    assert sorted(step.split()) == sorted(CEILINGS)
