"""``normalize_physical``: an already-normal driver path comes back as
the same object; every other path as the component-by-component rule
makes it."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage.base import normalize_physical


def slow_normalize(path: str) -> str:
    """The rule, component by component: rooted at '/', no empty
    component, no '.' or '..' (those raise)."""
    if not path.startswith("/"):
        path = "/" + path
    parts = [p for p in path.split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise StorageError(f"relative components not allowed: {path!r}")
    return "/" + "/".join(parts)


def outcome(path: str):
    try:
        return normalize_physical(path)
    except StorageError as exc:
        return ("raised", str(exc))


def slow_outcome(path: str):
    try:
        return slow_normalize(path)
    except StorageError as exc:
        return ("raised", str(exc))


# components that matter to the rule: empty ('//', a trailing '/', no
# leading '/'), '.', '..', names that start with a dot, plain names
COMPONENTS = st.sampled_from(["", "", ".", "..", ".hidden", "..x", "a.b",
                              "vault", "x", "é"])
PATHS = st.builds("/".join, st.lists(COMPONENTS, max_size=6))


@given(PATHS)
def test_same_result_as_the_component_rule(path):
    assert outcome(path) == slow_outcome(path)


@given(PATHS)
def test_an_already_normal_path_is_the_same_object(path):
    """Not the root, nor a name that starts with a dot: the guard that
    finds a path already normal without a call does not look that far."""
    if slow_outcome(path) == path and path != "/" and "/." not in path:
        assert normalize_physical(path) is path


@pytest.mark.parametrize("path, want", [
    ("/srb/vault/a.fits", "/srb/vault/a.fits"),
    ("srb/vault", "/srb/vault"),
    ("/srb//vault/", "/srb/vault"),
    ("/srb/.hidden", "/srb/.hidden"),
    ("/", "/"),
    ("", "/"),
])
def test_examples(path, want):
    assert normalize_physical(path) == want


@pytest.mark.parametrize("path", ["/a/./b", "/a/..", "a/../b", "/."])
def test_relative_components_raise(path):
    with pytest.raises(StorageError):
        normalize_physical(path)
