"""Server tests: single sign-on vs per-resource authentication (E7 logic)."""

import pytest

from repro.workload import standard_grid


class TestSso:
    def test_one_login_reaches_all_resources(self):
        g = standard_grid(sso_enabled=True)
        # one login already happened in the fixture; touch three different
        # storage systems without further credential exchanges
        g.curator.ingest(f"{g.home}/a", b"x", resource="unix-sdsc")
        g.curator.ingest(f"{g.home}/b", b"x", resource="unix-caltech")
        g.curator.ingest(f"{g.home}/c", b"x", resource="hpss-caltech")
        assert g.curator.get(f"{g.home}/c") == b"x"

    def test_per_resource_auth_costs_messages(self):
        """Without SSO the server runs the challenge-response against a
        resource's own security domain: 4 extra messages on its *first*
        touch of that resource per topology epoch, none on a repeat."""
        g_sso = standard_grid(sso_enabled=True)
        g_leg = standard_grid(sso_enabled=False)

        def extra_messages(op):
            deltas = []
            for g in (g_sso, g_leg):
                before = g.fed.network.messages_sent
                op(g)
                deltas.append(g.fed.network.messages_sent - before)
            return deltas[1] - deltas[0]

        assert extra_messages(lambda g: g.curator.ingest(
            f"{g.home}/f", b"x", resource="unix-caltech")) == 4
        assert extra_messages(lambda g: g.curator.get(f"{g.home}/f")) == 0
        # another resource is another security domain
        assert extra_messages(lambda g: g.curator.ingest(
            f"{g.home}/h", b"x", resource="hpss-caltech")) == 4
        # a topology change ends the epoch: the next touch is a first one
        for g in (g_sso, g_leg):
            g.fed.network.heal("sdsc", "caltech")
        assert extra_messages(lambda g: g.curator.get(f"{g.home}/f")) == 4
        assert extra_messages(lambda g: g.curator.get(f"{g.home}/f")) == 0

    def test_per_resource_auth_costs_time(self):
        g_sso = standard_grid(sso_enabled=True)
        g_leg = standard_grid(sso_enabled=False)
        for g in (g_sso, g_leg):
            g.curator.ingest(f"{g.home}/f", b"x", resource="unix-caltech")
            g.fed.reset_sessions()          # measure a cold touch
        t_sso = g_sso.fed.clock.now
        t_leg = g_leg.fed.clock.now
        g_sso.curator.get(f"{g_sso.home}/f")
        g_leg.curator.get(f"{g_leg.home}/f")
        assert (g_leg.fed.clock.now - t_leg) > (g_sso.fed.clock.now - t_sso)

    def test_login_is_two_round_trips(self):
        g = standard_grid()
        before = g.fed.rpc.stats.calls
        g.curator.login()
        assert g.fed.rpc.stats.calls - before == 2   # challenge + response

    def test_bad_password_rejected_and_audited(self):
        g = standard_grid()
        from repro.core import SrbClient
        from repro.errors import BadCredentials
        bad = SrbClient(g.fed, "laptop", "srb1", "sekar@sdsc", "WRONG")
        with pytest.raises(BadCredentials):
            bad.login()
        failures = [e for e in g.fed.mcat.audit_query(action="login")
                    if not e["ok"]]
        assert len(failures) == 1
