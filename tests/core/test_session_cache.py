"""Kept-alive server<->resource sessions.

A server pays the open probe (and, without SSO, the challenge-response)
on its first touch of a resource and then keeps the session, while the
failure semantics the paper's experiments measure stay intact: any
topology change invalidates every session, so E2's failover still pays
its charged timeout.  A *cold* touch — what E7's handshake ablation
measures — is one made after ``reset_sessions()`` or an epoch bump.
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import HostUnreachable


def build_fed(**knobs):
    fed = Federation(zone="z", **knobs)
    fed.add_host("h1")
    fed.add_host("h2")
    fed.add_server("s1", "h1", mcat=True)
    fed.add_fs_resource("r1", "h1")
    fed.add_fs_resource("r2", "h2")
    fed.default_resource = "r2"
    fed.bootstrap_admin()
    client = SrbClient(fed, "h1", "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/z/w")
    return fed, client


def get_messages(fed, client):
    """Messages one get of the test object puts on the wire."""
    before = fed.network.messages_sent
    client.get("/z/w/f.dat")
    return fed.network.messages_sent - before


class TestHitMiss:
    def test_repeat_get_hits_cache(self):
        fed, client = build_fed()
        client.ingest("/z/w/f.dat", b"payload")
        m = fed.obs.metrics
        client.get("/z/w/f.dat")
        assert m.get("srb.session_cache", result="miss",
                     server="s1", resource="r2") >= 1
        hits_before = m.get("srb.session_cache", result="hit",
                            server="s1", resource="r2")
        client.get("/z/w/f.dat")
        assert m.get("srb.session_cache", result="hit",
                     server="s1", resource="r2") == hits_before + 1

    def test_cached_session_skips_probe_messages(self):
        fed, client = build_fed()
        client.ingest("/z/w/f.dat", b"payload")
        warm_msgs = get_messages(fed, client)
        fed.reset_sessions()
        cold_msgs = get_messages(fed, client)
        # the warm get saves exactly the open probe
        assert warm_msgs == cold_msgs - 1
        assert get_messages(fed, client) == warm_msgs

    def test_stats_surface_cache_hits(self):
        fed, client = build_fed()
        client.ingest("/z/w/f.dat", b"payload")
        client.get("/z/w/f.dat")
        client.get("/z/w/f.dat")
        assert fed.stats()["session_cache_hits"] >= 1


class TestInvalidation:
    def test_set_down_invalidates_through_real_get(self):
        """E2 semantics survive the cache: after the storage host dies,
        the next get must re-probe and pay the charged timeout.  The
        failover target is remote too (r3 on h3): a copy on the server's
        own host would be read first and h2 never probed."""
        fed, client = build_fed()
        fed.add_host("h3")
        fed.add_fs_resource("r3", "h3")
        client.ingest("/z/w/f.dat", b"payload")
        client.replicate("/z/w/f.dat", "r3")
        client.get("/z/w/f.dat")            # session to r2 now cached
        fed.network.set_down("h2")
        failed_before = fed.network.failed_attempts
        data = client.get("/z/w/f.dat")     # fails over to r3
        assert data == b"payload"
        assert fed.network.failed_attempts > failed_before

    def test_heal_requires_fresh_session(self):
        fed, client = build_fed()
        client.ingest("/z/w/f.dat", b"payload")
        client.get("/z/w/f.dat")
        m = fed.obs.metrics
        misses = m.get("srb.session_cache", result="miss",
                       server="s1", resource="r2")
        fed.network.partition("h1", "h2")
        fed.network.heal("h1", "h2")
        client.get("/z/w/f.dat")
        assert m.get("srb.session_cache", result="miss",
                     server="s1", resource="r2") == misses + 1

    def test_reset_sessions_flushes(self):
        fed, client = build_fed()
        client.ingest("/z/w/f.dat", b"payload")
        client.get("/z/w/f.dat")
        assert fed.reset_sessions() >= 1
        assert fed.reset_sessions() == 0
        m = fed.obs.metrics
        misses = m.get("srb.session_cache", result="miss",
                       server="s1", resource="r2")
        client.get("/z/w/f.dat")
        assert m.get("srb.session_cache", result="miss",
                     server="s1", resource="r2") == misses + 1

    def test_unreachable_probe_drops_cached_entry(self):
        fed, client = build_fed()
        client.ingest("/z/w/f.dat", b"payload")
        client.get("/z/w/f.dat")
        srv = fed.server("s1")
        assert "r2" in srv._session_cache
        fed.network.set_down("h2")
        with pytest.raises(HostUnreachable):
            # direct plane touch: the failed probe must evict
            srv.data._resource_session(fed.resources.physical("r2"))
        assert "r2" not in srv._session_cache


class TestSsoInteraction:
    def test_sso_off_cold_sessions_pay_handshake_every_time(self):
        """E7's ablation measures cold sessions: every cold touch of the
        resource re-runs the challenge-response, whether the session
        was flushed or a topology change invalidated it."""
        fed, client = build_fed(sso_enabled=False)
        client.ingest("/z/w/f.dat", b"payload")
        sso_fed, sso_client = build_fed(sso_enabled=True)
        sso_client.ingest("/z/w/f.dat", b"payload")
        for go_cold in (lambda f: f.reset_sessions(),
                        lambda f: f.network.heal("h1", "h2"),
                        lambda f: f.reset_sessions()):
            go_cold(fed)
            go_cold(sso_fed)
            assert get_messages(fed, client) \
                == get_messages(sso_fed, sso_client) + 4

    def test_cache_amortizes_the_handshake_too(self):
        fed, client = build_fed(sso_enabled=False)
        client.ingest("/z/w/f.dat", b"payload")
        with_session = get_messages(fed, client)
        fed.reset_sessions()
        without = get_messages(fed, client)
        # saved: 4 handshake messages + 1 open probe
        assert with_session == without - 5
