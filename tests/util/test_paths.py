"""Unit + property tests for the logical path algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidPath
from repro.util import paths


class TestSplitJoin:
    def test_split_simple(self):
        assert paths.split("/zone/home/x") == ("zone", "home", "x")

    def test_split_root(self):
        assert paths.split("/") == ()

    def test_split_requires_absolute(self):
        with pytest.raises(InvalidPath):
            paths.split("zone/home")

    def test_component_with_space_allowed(self):
        # collection names in the paper contain spaces ("Avian Culture")
        assert paths.split("/z/Avian Culture") == ("z", "Avian Culture")

    def test_empty_component_rejected(self):
        with pytest.raises(InvalidPath):
            paths.split("/z//x")

    def test_dotdot_rejected(self):
        with pytest.raises(InvalidPath):
            paths.split("/z/../x")

    def test_leading_space_component_rejected(self):
        with pytest.raises(InvalidPath):
            paths.validate_component(" name")

    def test_join_from_absolute(self):
        assert paths.join("/z/a", "b", "c") == "/z/a/b/c"

    def test_join_with_fragments(self):
        assert paths.join("/z", "a/b") == "/z/a/b"

    def test_from_components_root(self):
        assert paths.from_components([]) == "/"


class TestDirnameBasename:
    def test_dirname(self):
        assert paths.dirname("/z/a/b") == "/z/a"

    def test_dirname_of_toplevel(self):
        assert paths.dirname("/z") == "/"

    def test_dirname_of_root_fails(self):
        with pytest.raises(InvalidPath):
            paths.dirname("/")

    def test_basename(self):
        assert paths.basename("/z/a/b.txt") == "b.txt"

    def test_zone_of(self):
        assert paths.zone_of("/demozone/home/x") == "demozone"


class TestAncestors:
    def test_ancestors_list(self):
        assert paths.ancestors("/z/a/b") == ["/", "/z", "/z/a"]

    def test_root_has_no_ancestors(self):
        assert paths.ancestors("/") == []

    def test_is_ancestor_true(self):
        assert paths.is_ancestor("/z/a", "/z/a/b/c")

    def test_is_ancestor_strict(self):
        assert not paths.is_ancestor("/z/a", "/z/a")

    def test_is_ancestor_no_prefix_confusion(self):
        # "/z/ab" is NOT under "/z/a"
        assert not paths.is_ancestor("/z/a", "/z/ab")

    def test_root_is_ancestor_of_all(self):
        assert paths.is_ancestor("/", "/z")

    def test_depth(self):
        assert paths.depth("/") == 0
        assert paths.depth("/z/a/b") == 3


class TestRelocate:
    def test_relocate_moves_suffix(self):
        assert paths.relocate("/z/a/b/c", "/z/a", "/y/q") == "/y/q/b/c"

    def test_relocate_exact_prefix(self):
        assert paths.relocate("/z/a", "/z/a", "/y") == "/y"

    def test_relocate_requires_prefix(self):
        with pytest.raises(InvalidPath):
            paths.relocate("/z/other", "/z/a", "/y")


# -- property-based invariants ----------------------------------------------

component = st.text(
    alphabet=st.characters(blacklist_characters="/\x00",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=12,
).filter(lambda s: s == s.strip() and s not in (".", ".."))

logical_path = st.lists(component, min_size=1, max_size=6).map(
    paths.from_components)


class TestProperties:
    @given(logical_path)
    def test_join_dirname_basename_roundtrip(self, p):
        assert paths.join(paths.dirname(p), paths.basename(p)) == p

    @given(logical_path)
    def test_normalize_idempotent(self, p):
        assert paths.normalize(paths.normalize(p)) == paths.normalize(p)

    @given(logical_path)
    def test_split_from_components_roundtrip(self, p):
        assert paths.from_components(paths.split(p)) == p

    @given(logical_path)
    def test_ancestors_are_exactly_strict_prefixes(self, p):
        ancs = paths.ancestors(p)
        assert len(ancs) == paths.depth(p)
        for a in ancs:
            if a != "/":
                assert paths.is_ancestor(a, p)
        assert not paths.is_ancestor(p, p)

    @given(logical_path, component)
    def test_child_is_descendant(self, p, name):
        child = paths.join(p, name)
        assert paths.is_ancestor(p, child)
        assert paths.dirname(child) == p

    @given(logical_path, logical_path)
    def test_relocate_composes(self, p, q):
        # relocating p -> q -> p is identity for any descendant
        child = paths.join(p, "leaf")
        moved = paths.relocate(child, p, q)
        assert paths.relocate(moved, q, p) == child


# -- the split memo against the uncached algebra -----------------------------
# model_* are the former implementations (every function re-validating
# through from_components); they stay here as the oracle.

def model_split(path):
    if not isinstance(path, str):
        raise InvalidPath(f"path must be str, got {type(path).__name__}")
    if not path.startswith("/"):
        raise InvalidPath(f"logical paths are absolute; got {path!r}")
    if path == "/":
        return ()
    return tuple(paths.validate_component(c) for c in path[1:].split("/"))


def model_normalize(path):
    return paths.from_components(model_split(path))


def model_relocate(path, old_prefix, new_prefix):
    old = model_split(model_normalize(old_prefix))
    comps = model_split(model_normalize(path))
    if comps[: len(old)] != old:
        raise InvalidPath(f"{path!r} is not under {old_prefix!r}")
    return paths.from_components(
        model_split(model_normalize(new_prefix)) + comps[len(old):])


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidPath as exc:
        return ("InvalidPath", str(exc))


# mostly-valid text with the characters that make a path invalid mixed in
loose_path = st.one_of(
    logical_path,
    st.text(alphabet="/ab. \x00\t", max_size=10),
    st.lists(st.sampled_from(["a", "b c", "", ".", "..", " a", "a ", "x\x00"]),
             max_size=4).map(lambda cs: "/" + "/".join(cs)))

not_a_path = st.one_of(st.none(), st.integers(), st.binary(max_size=4),
                       st.lists(st.text(max_size=3), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(),
                                       max_size=1))


class TestSplitMemo:
    @settings(max_examples=300)
    @given(loose_path)
    def test_split_and_normalize_match_the_model_twice(self, p):
        for _ in range(2):      # cold, then (if valid) from the memo
            assert outcome(paths.split, p) == outcome(model_split, p)
            assert outcome(paths.normalize, p) == outcome(model_normalize, p)

    @given(loose_path)
    def test_invalid_paths_raise_on_every_call(self, p):
        if outcome(model_split, p)[:1] != ("InvalidPath",):
            return
        for fn in (paths.split, paths.normalize, paths.dirname,
                   paths.basename, paths.zone_of, paths.ancestors,
                   paths.depth):
            for _ in range(2):
                with pytest.raises(InvalidPath):
                    fn(p)
        for _ in range(2):
            with pytest.raises(InvalidPath):
                paths.is_ancestor(p, "/z")
            with pytest.raises(InvalidPath):
                paths.relocate("/z/a", "/z", p)

    @given(not_a_path)
    def test_non_str_paths_raise_invalid_path_every_time(self, p):
        for _ in range(2):
            with pytest.raises(InvalidPath, match="path must be str"):
                paths.split(p)
            with pytest.raises(InvalidPath, match="path must be str"):
                paths.normalize(p)

    @given(logical_path, logical_path, logical_path)
    def test_relocate_and_is_ancestor_match_the_model(self, p, old, new):
        under = paths.join(old, *paths.split(p))
        for args in ((under, old, new), (p, old, new)):
            assert outcome(paths.relocate, *args) == \
                outcome(model_relocate, *args)
        a, b = model_split(old), model_split(under)
        assert paths.is_ancestor(old, under) == \
            (len(a) < len(b) and b[:len(a)] == a)

    @pytest.mark.parametrize("bad", ["", ".", "..", " x", "x\x00"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_a_deep_path_is_refused_for_its_first_bad_component(self, bad,
                                                                 warm):
        """Cold, nothing of the path is remembered; warm, its valid
        prefix is.  Either way the error names the first bad component,
        not the last, and the bad path is never remembered."""
        good = ["z", "home", "a", "b", "c", "d", "e"]
        for cut in (0, 2, len(good) - 1):
            p = "/" + "/".join(good[:cut] + [bad] + good[cut:] + [".."])
            paths.clear_memos()
            if warm:
                paths.split("/" + "/".join(good[:cut]) if cut else "/")
            for _ in range(2):
                assert outcome(paths.split, p) == outcome(model_split, p)
                assert outcome(paths.normalize, p) == \
                    outcome(model_normalize, p)

    @pytest.mark.parametrize("p", ["//a", "///", "//a/b", "/a//b", "/a/"])
    def test_an_empty_component_anywhere_is_refused(self, p):
        paths.clear_memos()
        assert outcome(paths.split, p) == ("InvalidPath",
                                           "illegal path component ''")

    @pytest.mark.parametrize("n", [10, 130, 2000])
    def test_a_path_of_any_depth_splits(self, n):
        """A long path is split in one pass, so no depth exhausts the
        stack; a shorter one through its parents' memo entries."""
        p = "/" + "/".join(f"c{i}" for i in range(n))
        paths.clear_memos()
        assert paths.split(p) == model_split(p)
        assert outcome(paths.split, p + "/ bad") == \
            outcome(model_split, p + "/ bad")

    def test_memo_never_returns_a_stale_tuple(self):
        # more distinct paths than the memo holds, each asked twice and
        # again after the others pushed it out
        many = [f"/z/c{i}/leaf {i}" for i in range(paths.SPLIT_CACHE_SIZE + 50)]
        for _ in range(2):
            for p in many:
                assert paths.split(p) == model_split(p)
                assert paths.split(p) is paths.split(p)
        assert paths.split.cache_info().currsize <= paths.SPLIT_CACHE_SIZE

    def test_public_from_components_still_validates(self):
        for bad in (["a", ".."], ["a/b"], [" a"], [""], ["a", 5]):
            with pytest.raises(InvalidPath):
                paths.from_components(bad)


def model_locate(raw):
    """What ``locate`` gives for one path: ``normalize``, then
    ``dirname`` and ``basename`` of that, as the per-path calls did."""
    path = model_normalize(raw)
    comps = model_split(path)
    if not comps:
        raise InvalidPath("root path has no parent")
    return path, paths.from_components(comps[:-1]), comps[-1]


def memo_state(raws):
    """How each memo answers ``raws`` now: a hit leaves the misses as
    they were."""
    out = []
    for raw in raws:
        for memo in (paths.split, paths.normalize, paths.dirname):
            misses = memo.cache_info().misses
            outcome(memo, raw)
            out.append(memo.cache_info().misses == misses)
    return out


class TestLocate:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(loose_path, not_a_path), max_size=6),
           st.booleans())
    def test_locate_is_normalize_dirname_basename_of_each(self, raws, warm):
        """One path that fails its batch's checks sends the batch path by
        path; either way each item is the model's answer or its error."""
        paths.clear_memos()
        if warm:
            paths.locate([r for r in raws if isinstance(r, str)][:1])
        for _ in range(2):
            assert [outcome(lambda r: r, at) if not isinstance(
                at, InvalidPath) else ("InvalidPath", str(at))
                for at in paths.locate(raws)] == \
                [outcome(model_locate, r) for r in raws]

    @settings(max_examples=100, deadline=None)
    @given(logical_path)
    def test_one_path_is_remembered_as_one_call_per_path_remembers_it(
            self, raw):
        """One path is located by ``normalize``, ``dirname`` and
        ``basename``, so the memos hold it as those calls leave them."""
        paths.clear_memos()
        outcome(paths.locate, [raw])
        located = memo_state([raw])
        paths.clear_memos()
        outcome(lambda r: paths.basename(paths.dirname(paths.normalize(r))
                                         and r), raw)
        assert located == memo_state([raw])

    def test_a_batch_longer_than_the_memos_may_repeat_a_path(self):
        """A path repeated after more distinct paths than a memo holds
        is located again, as the first time."""
        repeated = "/z/c/again.fits"
        raws = [repeated] + [f"/z/c/f{i:05d}" for i in range(
            paths.SPLIT_CACHE_SIZE + 1)] + [repeated]
        paths.clear_memos()
        located = paths.locate(raws)
        assert located[0] == located[-1] == (repeated, "/z/c", "again.fits")
        assert located == [model_locate(raw) for raw in raws]
