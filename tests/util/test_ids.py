"""Unit tests for deterministic id generation."""

from repro.util.ids import IdFactory, session_key


class TestIdFactory:
    def test_monotone_per_prefix(self):
        f = IdFactory()
        assert f.next_int("obj") == 1
        assert f.next_ints("obj", 2) == range(2, 4)

    def test_prefixes_independent(self):
        f = IdFactory()
        f.next_int("obj")
        assert f.next_int("rep") == 1

    def test_next_int(self):
        f = IdFactory()
        assert f.next_int("oid") == 1
        assert f.next_int("oid") == 2

    def test_peek_does_not_increment(self):
        f = IdFactory()
        f.next_int("x")
        assert f.peek("x") == 1
        assert f.peek("x") == 1

    def test_deterministic_across_instances(self):
        a, b = IdFactory(), IdFactory()
        assert [a.next_int("k") for _ in range(5)] == \
            [b.next_int("k") for _ in range(5)]


class TestSessionKey:
    def test_format(self):
        f = IdFactory()
        key = session_key(f, "sekar")
        assert key.startswith("sk-000001-")

    def test_unique_per_call(self):
        f = IdFactory()
        assert session_key(f, "a") != session_key(f, "a")

    def test_depends_on_user(self):
        # same serial, different user -> different digest
        k1 = session_key(IdFactory(), "alice")
        k2 = session_key(IdFactory(), "bob")
        assert k1 != k2
