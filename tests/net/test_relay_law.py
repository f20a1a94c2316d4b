"""The cut-through law of the relay.

A server standing in the data path sends a payload on as it arrives:
when ``B`` bytes reach it on one hop and leave on the next within one
exchange, the second hop hides ``(1 - b/B) * min(S_in, S_out)`` seconds
behind the first, where ``S = bytes / effective_bps`` and ``b`` is one
relay block.  The inbound hop is the request, one stream; the outbound
legs are payload legs, each opening as many streams as its path needs,
so they stream at the path's capacity.  This is stated here against the
leg runner itself (``ChannelBroker.run_legs``), over both links (a
per-stream cap drawn or not), the payload size and the number of
members: the wait is the law's, exactly;
a payload of no more than a block is stored and forwarded to the bit;
the whole relay is never faster than the slower hop allows nor slower
than store-and-forward; and it does not get cheaper as the payload
grows.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.federation import ChannelBroker
from repro.core.planes.base import RELAY_BLOCK, relay_hidden
from repro.net.simnet import LinkSpec, Network

links = st.builds(
    LinkSpec,
    latency_s=st.floats(min_value=0.0001, max_value=0.5),
    bandwidth_bps=st.floats(min_value=1e4, max_value=1e9),
    per_stream_bps=st.one_of(st.none(),
                             st.floats(min_value=1e3, max_value=1e8)))
sizes = st.one_of(st.integers(min_value=1, max_value=RELAY_BLOCK),
                  st.integers(min_value=RELAY_BLOCK + 1,
                              max_value=50_000_000))


def relay(inbound: LinkSpec, outbound: LinkSpec, nbytes: int,
          members: int, origin="caller"):
    """``nbytes`` caller → server → ``members`` resources, each on its own
    host behind ``outbound``; everything an observer can see of it."""
    net = Network()
    net.add_host("caller")
    net.add_host("server")
    net.set_link("caller", "server", inbound)
    for i in range(members):
        net.add_host(f"r{i}")
        net.set_link("server", f"r{i}", outbound)
    broker = ChannelBroker(None, net)
    broker.inbound = origin
    with net.obs.tracer.trace("relay") as root:
        net.transfer("caller", "server", nbytes)        # the request
        t_in = net.clock.now
        outcomes = broker.run_legs(
            [("server", f"r{i}", nbytes, "") for i in range(members)],
            "relay")
    spans = root.find("net.transfer")[1:]
    return {
        "pushed_s": net.clock.now - t_in,
        "total_s": net.clock.now,
        "costs": [o.cost if members > 1 else None for o in outcomes],
        "records": {k: v for k, v in net.obs.metrics.snapshot().items()
                    if not k.startswith(("net.relay.", "net.parallel."))},
        "hidden": [s.attrs.get("hidden_s", 0.0) for s in spans],
        "spans": [{k: v for k, v in s.attrs.items()
                   if k not in ("relayed", "hidden_s", "done")}
                  for s in spans],
    }


@settings(max_examples=200, deadline=None)
@given(inbound=links, outbound=links, nbytes=sizes,
       members=st.integers(min_value=1, max_value=4))
# a push that starts at a large clock reading: one ulp of the timestamp
# (1.8e-12 s) is above the absolute tolerance
@example(inbound=LinkSpec(0.5, 10000.0, per_stream_bps=1000.0),
         outbound=LinkSpec(0.0005, 92424979.0), nbytes=16383499, members=2)
def test_the_relay_waits_what_the_law_says(inbound, outbound, nbytes,
                                           members):
    relayed = relay(inbound, outbound, nbytes, members)
    stored = relay(inbound, outbound, nbytes, members, None)
    s_in = nbytes / inbound.effective_bps()
    s_out = nbytes / outbound.bandwidth_bps
    cost = outbound.latency_s + s_out
    if nbytes <= RELAY_BLOCK:
        # one block or less is stored and forwarded: nothing differs
        assert relayed == stored
        assert relayed["hidden"] == [0.0] * members
        return
    hidden = (1 - RELAY_BLOCK / nbytes) * min(s_in, s_out)
    assert relay_hidden(nbytes, s_in, s_out) == hidden
    # each member — alone, or every one of a group on its own path —
    # waits its cost less the hidden part, exactly
    assert relayed["hidden"] == [hidden] * members
    t_in = inbound.cost(nbytes)         # the clock when the push begins
    if members == 1:
        assert relayed["pushed_s"] == (t_in + (cost - hidden)) - t_in
        assert stored["pushed_s"] == (t_in + cost) - t_in
    else:       # a makespan is a difference of timestamps, added back on
        assert relayed["pushed_s"] == pytest.approx(
            (t_in + (cost - hidden)) - t_in, rel=1e-9, abs=1e-12)
        assert stored["pushed_s"] == pytest.approx((t_in + cost) - t_in,
                                                   rel=1e-9)
    # ... while every record of the legs is the unrelayed one's
    for key in ("costs", "records", "spans"):
        assert relayed[key] == stored[key], key
    # never faster than the slower hop's bytes plus both latencies, never
    # slower than store-and-forward
    floor = inbound.latency_s + outbound.latency_s + nbytes / min(
        inbound.effective_bps(), outbound.bandwidth_bps)
    assert floor * (1 - 1e-12) <= relayed["total_s"] <= stored["total_s"]


@settings(max_examples=200, deadline=None)
@given(inbound=links, outbound=links, small=sizes, large=sizes)
def test_a_larger_payload_never_relays_faster(inbound, outbound, small,
                                              large):
    small, large = sorted((small, large))
    quick = relay(inbound, outbound, small, 1)["total_s"]
    slow = relay(inbound, outbound, large, 1)["total_s"]
    assert quick <= slow * (1 + 1e-12)
