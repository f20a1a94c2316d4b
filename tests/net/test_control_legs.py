"""Control messages are legs of the runner too.

A leg whose ``path_key`` is ``None`` — a session probe, the delete of a
half-written file, a method object's request and its reply — goes
through ``ChannelBroker.run_legs`` like payload does, and is sent as the
raw transfer it replaced was: blocking, in order, on one stream.  It
never becomes a direct data channel (no ticket is minted, ``net.direct.*``
does not move), never hides behind a relay, and a message whose two
ends are one host is still charged.
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import HostUnreachable

HOME = "/z/w"


def build(**knobs):
    """Server ``s1`` on ``h1`` (catalog, resource ``r1``), server ``s2``
    on ``h2`` (resource ``r2``); the client on ``hc``."""
    fed = Federation(zone="z", **knobs)
    for host in ("h1", "h2", "hc"):
        fed.add_host(host)
    fed.add_server("s1", "h1", mcat=True)
    fed.add_server("s2", "h2")
    fed.add_fs_resource("r1", "h1")
    fed.add_fs_resource("r2", "h2")
    fed.default_resource = "r1"
    fed.bootstrap_admin()
    client = SrbClient(fed, "hc", "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(HOME)
    return fed, client


def direct(fed):
    """What a direct data channel leaves behind: tickets minted, and the
    ``net.direct.*`` series."""
    metrics = fed.obs.metrics
    return (fed.channels.authority.issued,
            metrics.total("net.direct.channels"),
            metrics.total("net.direct.bytes"))


def wire_legs(fed, fn):
    """Run ``fn`` under a trace: the ``net.transfer`` spans it made, as
    ``(src, dst, bytes, streams)``."""
    with fed.obs.tracer.trace("t") as root:
        fn()
    return [(s.attrs["src"], s.attrs["dst"], s.attrs["bytes"],
             s.attrs.get("streams")) for s in root.find("net.transfer")]


class TestUnderDirectIo:
    """No control message rides a channel, whatever the knob says."""

    def test_a_session_probe(self):
        fed, _client = build(direct_io=True)
        data = fed.server("s1").data
        before = direct(fed)
        fed.reset_sessions()
        legs = wire_legs(fed, lambda: data._resource_session(
            fed.resources.physical("r2")))
        assert legs == [("h1", "h2", 64, 1)]
        assert direct(fed) == before

    def test_a_rollback_delete(self):
        fed, _client = build(direct_io=True)
        r2 = fed.resources.physical("r2")
        r2.driver.create("/half", b"partial")
        before = direct(fed)
        legs = wire_legs(fed, lambda: fed.server("s1").data
                         ._remove([(r2, "/half")], "rollback", "skip"))
        assert legs == [("h1", "h2", 256, 1)]
        assert not r2.driver.exists("/half")
        assert direct(fed) == before

    def test_a_method_request_and_its_reply(self):
        fed, client = build(direct_io=True)
        fed.install_proxy_command("s2", "echo", lambda args: args.encode())
        client.register_method(f"{HOME}/m", "s2", "echo")
        before = direct(fed)
        legs = wire_legs(fed, lambda: client.get(f"{HOME}/m", args="x" * 999))
        assert ("h1", "h2", 256, 1) in legs
        assert ("h2", "h1", 999, 1) in legs
        assert direct(fed) == before


class TestSentAsBefore:
    def test_one_host_at_both_ends_is_still_charged(self):
        fed, _client = build()
        net = fed.network
        sent, t0 = net.messages_sent, fed.clock.now
        (control,) = fed.channels.run_legs([("h1", "h1", 64, None)], "x")
        assert control.ok and net.messages_sent == sent + 1
        assert fed.clock.now - t0 == pytest.approx(
            net.link("h1", "h1").cost(64)) and fed.clock.now > t0
        # a payload leg between the same ends moves nothing
        sent, t0 = net.messages_sent, fed.clock.now
        fed.channels.run_legs([("h1", "h1", 64, "/f")], "x")
        assert (net.messages_sent, fed.clock.now) == (sent, t0)

    def test_a_session_to_a_resource_beside_the_server(self):
        fed, _client = build()
        fed.reset_sessions()
        legs = wire_legs(fed, lambda: fed.server("s1").data
                         ._resource_session(fed.resources.physical("r1")))
        assert legs == [("h1", "h1", 64, 1)]

    def test_a_handshake_takes_turns_and_stops_at_a_dead_host(self):
        fed, _client = build(sso_enabled=False)
        data, r2 = fed.server("s1").data, fed.resources.physical("r2")
        fed.reset_sessions()
        legs = wire_legs(fed, lambda: data._resource_session(r2))
        assert legs == [("h1", "h2", 200, 1), ("h2", "h1", 200, 1),
                        ("h1", "h2", 200, 1), ("h2", "h1", 200, 1),
                        ("h1", "h2", 64, 1)]
        fed.network.set_down("h2")          # drops every session too
        sent, t0 = fed.network.messages_sent, fed.clock.now
        with pytest.raises(HostUnreachable):
            data._resource_session(r2)
        # one timeout, one message put on the wire, and no session kept
        assert fed.network.messages_sent == sent + 1
        assert fed.clock.now - t0 == pytest.approx(
            2 * fed.network.link("h1", "h2").latency_s)
        assert "r2" not in fed.server("s1")._session_cache

    def test_a_control_message_never_hides_behind_a_relay(self):
        fed, _client = build()
        fed.channels.inbound = "hc"
        try:
            legs = wire_legs(fed, lambda: fed.channels.run_legs(
                [("h1", "h2", 10**6, None)], "x"))
        finally:
            fed.channels.inbound = None
        assert legs == [("h1", "h2", 10**6, 1)]
        assert fed.obs.metrics.total("net.relay.hidden_s") == 0


def setup_act(fed, client, act, where):
    """Before ``act``: ``HOME/f`` stored on the resource of ``where``
    (``r1`` beside ``s1``, ``r2`` on another host; for a pin, an archive
    there; for a compaction, as a member of a container there that an
    update left garbage in).  Returns the act, a call of ``client``."""
    host = "h1" if where == "local" else "h2"
    path, box = f"{HOME}/f", f"{HOME}/box"
    if act == "pin":
        fed.add_archive_resource("a-" + host, host)
        client.ingest(path, b"bytes", resource="a-" + host)
        return lambda: client.pin(path, "a-" + host)
    resource = "r1" if where == "local" else "r2"
    if act == "compact_container":
        client.create_container(box, resource)
        client.ingest(path, b"first", container=box)
        client.put(path, b"second")
        return lambda: client.compact_container(box)
    client.ingest(path, b"bytes", resource=resource)
    if act == "checkin":
        client.checkout(path)
        return lambda: client.checkin(path)
    return lambda: client.delete(path)


@pytest.mark.parametrize("where", ["remote", "local"])
@pytest.mark.parametrize("act", ["delete", "checkin", "compact_container",
                                 "pin"])
def test_an_act_on_a_resource_charges_one_control_leg_to_its_host(act, where):
    """An act whose bytes ride no payload leg to the resource's host —
    a delete, a version copied aside within the host, a container
    rewritten in place, a cache pin — is carried there by one control
    message from the server, sent first; on the server's own host it
    needs none."""
    fed, client = build()
    run = setup_act(fed, client, act, where)
    control = [leg for leg in wire_legs(fed, run)
               if leg[0] == "h1" and leg[1] != "hc" and leg[2] == 256]
    assert control == ([("h1", "h2", 256, 1)] if where == "remote" else [])
