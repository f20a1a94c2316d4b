"""Code size is a ratchet.

``src/repro`` and the modules changed with this test are held at or
below the code-line counts in ``tools/codelines.py``'s ``CEILINGS``,
counted by that tool (lines holding a token that is neither a comment
nor a docstring).  A change that grows one of them must raise its
number there, in its own diff, where its cost is seen; a change
that shrinks one may lower it.  CI's code-lines step runs the same tool
with no path, which prints and checks the same list.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def codelines():
    spec = importlib.util.spec_from_file_location(
        "codelines", ROOT / "tools" / "codelines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CEILINGS = codelines().CEILINGS


@pytest.mark.parametrize("path", sorted(CEILINGS))
def test_no_larger_than_its_ceiling(path):
    assert codelines().count(ROOT / path) <= CEILINGS[path], \
        f"{path} grew: raise its ceiling in tools/codelines.py, in the " \
        "same change"
