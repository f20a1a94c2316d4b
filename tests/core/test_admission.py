"""End-to-end admission control through a host's worker pool.

``Federation.add_host(name, workers=..., queue_depth=...)`` installs a
worker-pool station on that host; these tests drive it
through the real client/server/dispatch stack — including a cross-zone
forward landing on a saturated peer.
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import NetworkError, ServerBusy
from repro.net.simnet import Network
from tests.probes import counter, histogram

COLL = "/demozone/bench"
OBJ = f"{COLL}/obj.dat"


def build(**pool):
    """Client on hc; server, catalog and resource on hs, whose worker
    pool is ``pool`` (``workers=``, ``queue_depth=``)."""
    fed = Federation(zone="demozone")
    fed.add_host("hc")
    fed.add_host("hs", **pool)
    fed.add_server("s0", "hs", mcat=True)
    fed.add_fs_resource("fs0", "hs")
    fed.default_resource = "fs0"
    fed.bootstrap_admin()
    client = SrbClient(fed, "hc", "s0", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(COLL)
    client.ingest(OBJ, b"payload")
    return fed, client


class TestFederationKnobs:
    def test_default_installs_no_station(self):
        fed, client = build()
        assert fed.network.station("hs") is None
        stats = fed.stats()
        assert "workers" not in stats and "queue_depth" not in stats
        assert stats["requests_admitted"] == 0
        assert stats["requests_shed"] == 0

    def test_workers_knob_installs_station_on_server_hosts(self):
        fed, client = build(workers=2, queue_depth=4)
        st = fed.network.station("hs")
        assert st is not None
        assert st.workers == 2 and st.queue_depth == 4
        # the client host was given no pool: no station there
        assert fed.network.station("hc") is None
        # every op so far went through admission
        stats = fed.stats()
        assert stats["requests_admitted"] > 0
        assert stats["requests_shed"] == 0

    def test_a_bad_size_is_refused_not_clamped(self):
        fed = Federation(zone="z")
        with pytest.raises(NetworkError, match="at least 1 worker"):
            fed.add_host("h0", workers=0)
        with pytest.raises(NetworkError, match="negative queue depth"):
            fed.add_host("h1", workers=1, queue_depth=-3)


class TestEndToEndShedding:
    def test_second_concurrent_get_is_shed(self):
        fed, client = build(workers=1, queue_depth=0)
        t = fed.clock.now
        with fed.rpc.open_loop(t):
            client.get(OBJ)
        assert not fed.rpc.last_timing.shed \
            and fed.rpc.last_timing.error is None
        with pytest.raises(ServerBusy) as exc:
            with fed.rpc.open_loop(t):
                client.get(OBJ)
        assert exc.value.host == "hs"
        assert exc.value.retry_after > 0.0
        stats = fed.stats()
        assert stats["requests_shed"] == 1
        m = fed.obs.metrics
        assert counter(m, "srb.admission.shed", host="hs",
                     service="srb:s0", method="get") == 1
        hist = histogram(m, "srb.admission.retry_after_s", host="hs")
        assert hist is not None and hist.count == 1

    def test_two_workers_absorb_two_concurrent_gets(self):
        fed, client = build(workers=2, queue_depth=0)
        t = fed.clock.now
        for _ in range(2):
            with fed.rpc.open_loop(t):
                client.get(OBJ)
            assert not fed.rpc.last_timing.shed \
            and fed.rpc.last_timing.error is None
            assert fed.rpc.last_timing.wait == 0.0
        with pytest.raises(ServerBusy):
            with fed.rpc.open_loop(t):
                client.get(OBJ)

    def test_unbounded_queue_never_sheds(self):
        fed, client = build(workers=1)     # queue_depth=None
        t = fed.clock.now
        waits = []
        for _ in range(5):
            with fed.rpc.open_loop(t):
                client.get(OBJ)
            waits.append(fed.rpc.last_timing.wait)
        assert fed.stats()["requests_shed"] == 0
        # each successive request queues behind all earlier ones
        assert waits == sorted(waits)
        assert waits[0] == 0.0 and waits[-1] > 0.0


class TestCrossZoneForwardShed:
    @pytest.fixture
    def zones(self):
        """Zone A plain; zone B with a bounded single-worker pool."""
        net = Network()
        a = Federation(zone="za", network=net)
        b = Federation(zone="zb", network=net)
        a.add_host("a-host")
        b.add_host("b-host", workers=1, queue_depth=0)
        a.add_server("a-srb", "a-host", mcat=True)
        b.add_server("b-srb", "b-host", mcat=True)
        a.add_fs_resource("a-disk", "a-host")
        b.add_fs_resource("b-disk", "b-host")
        a.default_resource = "a-disk"
        b.default_resource = "b-disk"
        a.bootstrap_admin()
        b.bootstrap_admin("admin-b@npaci", "pw-b")
        a.federate_with(b)
        admin_b = SrbClient(b, "b-host", "b-srb", "admin-b@npaci", "pw-b")
        admin_b.login()
        admin_b.mkcoll("/zb/pub")
        admin_b.ingest("/zb/pub/report.txt", b"inter-zone bytes")
        admin_b.grant("/zb/pub/report.txt", "srbadmin@sdsc", "read")
        user_a = SrbClient(a, "a-host", "a-srb", "srbadmin@sdsc", "hunter2")
        user_a.login()
        return net, a, b, user_a

    def test_forward_to_saturated_peer_surfaces_busy(self, zones):
        """A cross-zone read forwarded to a peer whose pool is full:
        the peer sheds, the forwarding server counts the failure in its
        dispatch pipeline (``srb.errors``), and the caller sees the
        typed ``ServerBusy`` with the peer's retry hint."""
        net, a, b, user_a = zones
        # healthy forward first: trust + grant are in place
        assert user_a.get("/zb/pub/report.txt") == b"inter-zone bytes"

        # saturate the peer's only worker far into the future
        st = net.station("b-host")
        adm = st.admit(net.clock.now)
        st.complete(adm, net.clock.now + 100.0)

        with pytest.raises(ServerBusy) as exc:
            user_a.get("/zb/pub/report.txt")
        assert exc.value.host == "b-host"
        assert exc.value.retry_after == pytest.approx(100.0, rel=0.01)
        m = net.obs.metrics
        # shed accounted at the shedding host ...
        assert counter(m, "srb.admission.shed", host="b-host",
                     service="srb:b-srb", method="get") == 1
        # ... and the forwarding server's dispatch pipeline labels the
        # failure like any other op error
        assert counter(m, "srb.errors", server="a-srb", op="get",
                     error="ServerBusy") == 1


class TestChannelAdmissionIsCounted:
    """A direct data channel is admitted at its *source* host's station
    through the same helper as an RPC, so the federation's admission
    stats see it (they used to count RPCs only)."""

    PATH = "/demozone/bench/remote.dat"

    @pytest.fixture
    def far(self):
        # a second server's host carries the resource: a redirected get
        # opens its channel at a host that runs a station
        fed = Federation(zone="demozone", direct_io=True)
        fed.add_host("hc")
        for h in ("hs", "hr"):
            fed.add_host(h, workers=1, queue_depth=0)
        fed.add_server("s0", "hs", mcat=True)
        fed.add_server("s1", "hr")
        fed.add_fs_resource("fs1", "hr")
        fed.default_resource = "fs1"
        fed.bootstrap_admin()
        client = SrbClient(fed, "hc", "s0", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll(COLL)
        client.ingest(self.PATH, b"x" * 5000)
        return fed, client

    @staticmethod
    def station_totals(fed):
        stations = [h.station for h in fed.network.hosts() if h.station]
        return (sum(st.admitted for st in stations),
                sum(st.shed for st in stations))

    def test_stats_agree_with_the_stations(self, far):
        fed, client = far
        assert client.get(self.PATH) == b"x" * 5000
        m = fed.obs.metrics
        assert counter(m, "srb.admission.admitted", host="hr",
                     service="channel", method="get") == 1
        admitted, shed = self.station_totals(fed)
        assert (fed.stats()["requests_admitted"], shed) == (admitted, 0)

    def test_channel_shed_reaches_requests_shed(self, far):
        fed, client = far
        st = fed.network.station("hr")
        st.complete(st.admit(fed.clock.now), fed.clock.now + 100.0)
        with pytest.raises(ServerBusy):
            client.get(self.PATH)
        assert st.shed == 1
        stats = fed.stats()
        assert stats["requests_shed"] == 1
        assert stats["requests_admitted"] == self.station_totals(fed)[0] - 1
        assert counter(fed.obs.metrics, "srb.admission.shed", host="hr",
                                   service="channel", method="get") == 1
