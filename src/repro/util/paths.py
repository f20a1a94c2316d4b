"""Logical path algebra for the SRB namespace.

SRB logical paths look like Unix absolute paths rooted at a zone, e.g.
``/demozone/home/sekar/Cultures/Avian Culture/ibis.fits``.  Components may
contain spaces (collection names in the paper do: "Avian Culture") but not
slashes or NULs.  This module centralizes parsing, joining and validation
so the namespace, the catalog and the web UI all agree on path semantics.

Property-based tests in ``tests/util/test_paths.py`` pin down the algebra:
``join(dirname(p), basename(p)) == p`` for every normalized path, splitting
is the inverse of joining, and ancestors are exactly the strict prefixes.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Iterable, List, Tuple

from repro.errors import InvalidPath

SEP = "/"

#: distinct paths whose components, canonical form and parent are
#: remembered (one op names the same path several times — at the client,
#: the dispatcher, the plane and the catalog; see EXPERIMENTS.md for the
#: measured hit share)
SPLIT_CACHE_SIZE = 2048


def validate_component(name: str) -> str:
    """Validate a single path component (collection or object name)."""
    if not isinstance(name, str):
        raise InvalidPath(f"path component must be str, got {type(name).__name__}")
    if name in ("", ".", ".."):
        raise InvalidPath(f"illegal path component {name!r}")
    if SEP in name or "\x00" in name:
        raise InvalidPath(f"path component may not contain '/' or NUL: {name!r}")
    if name != name.strip():
        raise InvalidPath(f"path component may not have leading/trailing spaces: {name!r}")
    return name


_MEMOS: list = []        # every lru_cache below, for clear_memos()


def _remembered(fn):
    """``fn(path)``, remembered for the :data:`SPLIT_CACHE_SIZE` most
    recent paths.  ``fn`` is pure, so that is safe; a path that raises is
    not remembered and raises again on every call."""
    cached = lru_cache(maxsize=SPLIT_CACHE_SIZE)(fn)

    @wraps(fn)
    def remembered(path):
        try:
            return cached(path)
        except TypeError:
            # unhashable, so not a str: let the uncached body say so
            return fn(path)

    remembered.cache_info = cached.cache_info
    remembered.cache_clear = cached.cache_clear
    _MEMOS.append(cached)
    return remembered


def clear_memos() -> None:
    """Forget every remembered path (a new federation starts from none)."""
    for cached in _MEMOS:
        cached.cache_clear()


@_remembered
def split(path: str) -> Tuple[str, ...]:
    """Split an absolute logical path into validated components.

    ``split("/zone/home/x")`` -> ``("zone", "home", "x")``.
    ``split("/")`` -> ``()``.
    """
    if not isinstance(path, str):
        raise InvalidPath(f"path must be str, got {type(path).__name__}")
    if not path.startswith(SEP):
        raise InvalidPath(f"logical paths are absolute; got {path!r}")
    if path == SEP:
        return ()
    raw = path[1:].split(SEP)
    for component in raw:
        validate_component(component)
    return tuple(raw)


def _assemble(components: Tuple[str, ...]) -> str:
    """Path of already-validated components (what :func:`split` returned)."""
    return SEP + SEP.join(components) if components else SEP


def join(*parts: str) -> str:
    """Join components (or already-joined fragments) into a normalized path.

    The first argument may be an absolute path; later arguments must be
    bare components or relative fragments.
    """
    components: List[str] = []
    for i, part in enumerate(parts):
        if i == 0 and part.startswith(SEP):
            components.extend(split(part))
        else:
            for piece in part.split(SEP):
                if piece:
                    components.append(validate_component(piece))
    return _assemble(components)


def from_components(components: Iterable[str]) -> str:
    """Assemble (and validate) components into an absolute path."""
    comps = list(components)
    for c in comps:
        validate_component(c)
    return _assemble(comps)


@_remembered
def normalize(path: str) -> str:
    """Canonical form of a path (validates along the way)."""
    return _assemble(split(path))


@_remembered
def dirname(path: str) -> str:
    """The parent path; the root has none."""
    comps = split(path)
    if not comps:
        raise InvalidPath("root path has no parent")
    return _assemble(comps[:-1])


def basename(path: str) -> str:
    """The final component; the root has none."""
    comps = split(path)
    if not comps:
        raise InvalidPath("root path has no basename")
    return comps[-1]


def zone_of(path: str) -> str:
    """First component — the zone/federation root a path belongs to."""
    comps = split(path)
    if not comps:
        raise InvalidPath("root path belongs to no zone")
    return comps[0]


def ancestors(path: str) -> List[str]:
    """Every strict ancestor of ``path``, from root ``/`` down to its parent.

    ``ancestors("/z/a/b")`` -> ``["/", "/z", "/z/a"]``.
    """
    comps = split(path)
    return [_assemble(comps[:i]) for i in range(len(comps))]


def is_ancestor(maybe_ancestor: str, path: str) -> bool:
    """True iff ``maybe_ancestor`` is a strict ancestor of ``path``."""
    a = split(maybe_ancestor)
    b = split(path)
    return len(a) < len(b) and b[: len(a)] == a


def depth(path: str) -> int:
    """Number of components below the root."""
    return len(split(path))


def relocate(path: str, old_prefix: str, new_prefix: str) -> str:
    """Rewrite ``path`` replacing ancestor ``old_prefix`` with ``new_prefix``.

    Used by collection move/copy: every descendant's logical path shifts
    under the destination collection.
    """
    old = split(old_prefix)
    comps = split(path)
    if comps[: len(old)] != old:
        raise InvalidPath(f"{path!r} is not under {old_prefix!r}")
    return _assemble(split(new_prefix) + comps[len(old):])
