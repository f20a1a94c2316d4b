"""Unit tests for MySRB session keys (60-minute limit, validation)."""

import pytest

from repro.auth.sessions import DEFAULT_SESSION_LIFETIME_S, SessionManager
from repro.auth.users import Principal
from repro.errors import AuthError, SessionExpired
from repro.util.clock import SimClock

SEKAR = Principal.parse("sekar@sdsc")


@pytest.fixture
def mgr():
    return SessionManager(SimClock())


class TestLifecycle:
    def test_open_validate(self, mgr):
        sess = mgr.open(SEKAR)
        assert mgr.validate(sess.key).principal == SEKAR

    def test_default_lifetime_is_60_minutes(self):
        assert DEFAULT_SESSION_LIFETIME_S == 3600.0

    def test_keys_unique(self, mgr):
        assert mgr.open(SEKAR).key != mgr.open(SEKAR).key

    def test_close_invalidates(self, mgr):
        sess = mgr.open(SEKAR)
        mgr.close(sess.key)
        with pytest.raises(AuthError):
            mgr.validate(sess.key)

    def test_request_counter(self, mgr):
        sess = mgr.open(SEKAR)
        mgr.validate(sess.key)
        mgr.validate(sess.key)
        assert sess.requests_served == 2


class TestSecurityChecks:
    def test_unknown_key_rejected(self, mgr):
        with pytest.raises(AuthError):
            mgr.validate("sk-999999-deadbeef00000000")

    def test_malformed_key_rejected(self, mgr):
        with pytest.raises(AuthError):
            mgr.validate("not-a-session-key")

    def test_non_string_key_rejected(self, mgr):
        with pytest.raises(AuthError):
            mgr.validate(12345)  # type: ignore[arg-type]


class TestExpiry:
    def test_expires_after_60_minutes(self, mgr):
        sess = mgr.open(SEKAR)
        mgr.clock.advance(3599.0)
        mgr.validate(sess.key)
        mgr.clock.advance(1.0)
        with pytest.raises(SessionExpired):
            mgr.validate(sess.key)

    def test_expired_key_removed(self, mgr):
        sess = mgr.open(SEKAR)
        mgr.clock.advance(4000.0)
        with pytest.raises(SessionExpired):
            mgr.validate(sess.key)
        # second attempt: now unknown, not expired
        with pytest.raises(AuthError):
            mgr.validate(sess.key)

    def test_a_sign_on_drops_every_expired_session(self, mgr):
        """Expired sessions used to stay held until their key came back:
        50 sign-ons, two hours, one more sign-on held 51 sessions, 1 of
        them live."""
        for _ in range(50):
            mgr.open(SEKAR)
        mgr.clock.advance(7200.0)
        live = mgr.open(SEKAR)
        assert list(mgr._sessions) == [live.key]

    def test_only_the_expired_front_goes(self, mgr):
        first = mgr.open(SEKAR)
        mgr.clock.advance(1800.0)
        second = mgr.open(SEKAR)
        mgr.clock.advance(1800.0)       # the first expires exactly now
        third = mgr.open(SEKAR)
        assert list(mgr._sessions) == [second.key, third.key]
        with pytest.raises(AuthError):
            mgr.validate(first.key)
        assert mgr.validate(second.key) is second

    def test_custom_lifetime(self):
        mgr = SessionManager(SimClock(), lifetime_s=10.0)
        sess = mgr.open(SEKAR)
        mgr.clock.advance(11.0)
        with pytest.raises(SessionExpired):
            mgr.validate(sess.key)
