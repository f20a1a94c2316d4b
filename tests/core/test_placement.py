"""Federation-level placement engine integration.

The engine is constructed once per federation and every chooser —
replica reads, write placement, striping — flows through it.  These
tests pin the federation wiring: one shared policy state per
federation (the round-robin regression), the ``placement=`` knob,
``stripes="auto"`` end to end, and the observed policy actually
steering live traffic off a slow path.
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import ReplicationError
from repro.net.simnet import LinkSpec

PAYLOAD = bytes(range(256)) * 2048          # 512 KiB


def build_fed(n_hosts=3, **knobs):
    fed = Federation(zone="z", **knobs)
    for i in range(1, n_hosts + 1):
        fed.add_host(f"h{i}")
    fed.add_server("s1", "h1", mcat=True)
    for i in range(1, n_hosts + 1):
        fed.add_fs_resource(f"r{i}", f"h{i}")
    fed.default_resource = "r1"
    fed.bootstrap_admin()
    client = SrbClient(fed, "h1", "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/z/w")
    return fed, client


def replicate_everywhere(client, path, n_hosts=3):
    client.ingest(path, PAYLOAD, resource="r1")
    for i in range(2, n_hosts + 1):
        client.replicate(path, f"r{i}")


def timed(fed, fn):
    t0 = fed.clock.now
    result = fn()
    return result, fed.clock.now - t0


class TestFederationWiring:
    def test_default_placement_is_primary(self):
        fed, _ = build_fed()
        assert fed.placement.policy_name == "primary"

    def test_placement_knob_wins(self):
        fed, _ = build_fed(placement="observed")
        assert fed.placement.policy_name == "observed"

    def test_unknown_placement_rejected(self):
        with pytest.raises(ReplicationError):
            Federation(zone="z", placement="bogus")

    def test_stats_expose_placement_state(self):
        fed, client = build_fed(placement="observed")
        replicate_everywhere(client, "/z/w/f.dat")
        client.get("/z/w/f.dat")
        stats = fed.stats()
        assert stats["placement"] == "observed"
        assert stats["placement_paths"] > 0
        assert stats["placement_decisions"] > 0

    def test_path_report_reflects_real_traffic(self):
        fed, client = build_fed()
        replicate_everywhere(client, "/z/w/f.dat")
        paths = {(p["src"], p["dst"]): p
                 for p in fed.placement.path_report()}
        # the replicate pushed h1 -> h2 and h1 -> h3 on the wire
        assert ("h1", "h2") in paths and ("h1", "h3") in paths
        assert paths[("h1", "h2")]["bytes"] >= len(PAYLOAD)


class TestRoundRobinPersistsPerFederation:
    """Regression: rotation state must live on the federation, not be
    rebuilt per request — two successive reads start at different
    replicas."""

    def test_successive_reads_rotate(self):
        """The server's host h1 holds no replica: a copy there would be
        read first whatever the rotation (the source chain's local
        tier), so the three replicas sit on h2..h4 behind links of
        different speeds."""
        fed, client = build_fed(n_hosts=4, placement="round-robin")
        fed.network.set_link("h1", "h3", LinkSpec(latency_s=0.02,
                                                  bandwidth_bps=2e7))
        fed.network.set_link("h1", "h4", LinkSpec(latency_s=0.04,
                                                  bandwidth_bps=1e7))
        client.ingest("/z/w/f.dat", PAYLOAD, resource="r2")
        for r in ("r3", "r4"):
            client.replicate("/z/w/f.dat", r)
        client.get("/z/w/f.dat")            # warm session caches
        times = [timed(fed, lambda: client.get("/z/w/f.dat"))[1]
                 for _ in range(6)]
        # a persistent rotation counter makes successive reads hit
        # different replicas (different costs), repeating with period 3.
        # A counter rebuilt per request would serve replica 1 every time.
        assert len({round(t, 9) for t in times[:3]}) > 1
        for i in range(3):
            assert times[i] == pytest.approx(times[i + 3])


class TestObservedSteering:
    def test_traffic_moves_off_the_slow_path(self):
        fed, client = build_fed(placement="observed")
        slow = LinkSpec(latency_s=0.040, bandwidth_bps=1e6)
        fast = LinkSpec(latency_s=0.050, bandwidth_bps=2e7)
        fed.network.set_link("h1", "h2", slow)
        fed.network.set_link("h1", "h3", fast)
        client.ingest("/z/w/f.dat", PAYLOAD, resource="r2")
        client.replicate("/z/w/f.dat", "r3")
        # warm the predictor, then measure steady-state reads
        for _ in range(3):
            client.get("/z/w/f.dat")
        _, t = timed(fed, lambda: client.get("/z/w/f.dat"))
        # a read forced onto the slow replica is the counterfactual
        _, t_slow = timed(fed,
                          lambda: client.get("/z/w/f.dat",
                                             replica_num=1))
        assert t < t_slow / 2
        # steered reads pull from h3; the fast wire dominates the cost
        assert t >= fast.cost(len(PAYLOAD))
        assert t < slow.cost(len(PAYLOAD))


class TestADeadHostIsProbedOnce:
    """``nearest`` and ``observed`` rank the tape copy on the reading
    server first; the source chain lifts the online copy on h2 over it,
    but not once h2's path is quarantined: otherwise every read would
    probe the dead host again, pay the timeout, and then stage the tape
    copy anyway.  The walk learns that a host is down only by probing it
    (E2), so the first read pays one probe; the reads after it do not.
    ``primary`` itself ranks the dead copy first, and its walk keeps
    paying the probe on every read, as E2 and A1b measure."""

    @pytest.mark.parametrize("placement, probes", [
        ("nearest", [1, 0, 0]), ("observed", [1, 0, 0]),
        ("primary", [1, 1, 1])])
    def test_later_reads_stage_the_tape_copy_without_probing(
            self, placement, probes):
        fed, client = build_fed(n_hosts=2, placement=placement)
        fed.add_host("h3")
        fed.add_server("s3", "h3")
        tape = fed.add_archive_resource("tape3", "h3").driver
        fed.add_logical_resource("disk-and-tape", ["r2", "tape3"])
        client.ingest("/z/w/f.dat", PAYLOAD, resource="disk-and-tape")
        client.connect("s3")
        fed.network.set_down("h2")
        failed = []
        for _ in range(3):
            fed.cache_sweep()               # the tape copy is nearline
            before = fed.network.failed_attempts
            assert client.get("/z/w/f.dat") == PAYLOAD
            failed.append(fed.network.failed_attempts - before)
        assert failed == probes
        assert tape.stages == 3


class TestAutoStripes:
    def test_auto_get_returns_the_bytes_and_records_the_pick(self):
        fed, client = build_fed(n_hosts=4)
        # all replicas remote from the server host, so the model runs
        client.ingest("/z/w/f.dat", PAYLOAD, resource="r2")
        for r in ("r3", "r4"):
            client.replicate("/z/w/f.dat", r)
        data = client.get("/z/w/f.dat", stripes="auto")
        assert data == PAYLOAD
        assert fed.obs.metrics.total("policy.auto_stripes") == 1

    def test_auto_short_circuits_on_a_local_replica(self):
        fed, client = build_fed()
        replicate_everywhere(client, "/z/w/f.dat")
        client.get("/z/w/f.dat")            # warm session caches
        # replica 1 lives on the server host: a free local read beats
        # any wire pull, so auto skips the model entirely (k=1)
        m0 = fed.network.messages_sent
        _, t_auto = timed(fed,
                          lambda: client.get("/z/w/f.dat",
                                             stripes="auto"))
        m_auto = fed.network.messages_sent - m0
        _, t_plain = timed(fed, lambda: client.get("/z/w/f.dat"))
        m_plain = fed.network.messages_sent - m0 - m_auto
        # same wire shape as a plain read; the only extra cost is the
        # catalog lookup deciding k=1 (well under a millisecond)
        assert m_auto == m_plain
        assert t_auto == pytest.approx(t_plain, abs=1e-3)
        assert fed.obs.metrics.total("policy.auto_stripes") == 0

    def test_auto_beats_the_serial_pull_on_remote_replicas(self):
        fed, client = build_fed(n_hosts=4)
        client.ingest("/z/w/f.dat", PAYLOAD, resource="r2")
        for r in ("r3", "r4"):
            client.replicate("/z/w/f.dat", r)
        _, t_auto = timed(fed,
                          lambda: client.get("/z/w/f.dat",
                                             stripes="auto"))
        _, t_serial = timed(fed, lambda: client.get("/z/w/f.dat"))
        assert t_auto < t_serial
