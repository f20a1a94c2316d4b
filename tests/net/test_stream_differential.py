"""``call_stream`` pushes its chunks; the pull loop it replaced is the oracle.

The same federation is built twice and one of them gets the parent
commit's ``call_stream`` back.  Whatever a consumer, an operator or an
auditor can see of a stream must then agree — rows, chunk boundaries,
typed errors and the chunk they surface at, every counter of calls, ops
and reply bytes — also when another user deletes a row, loses the
reader its ACL or takes the server down between two chunks.  Only what
the push is for may differ: request bytes, messages, bytes on the wire
and virtual time fall.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Federation, SrbClient
from repro.errors import SrbError
from repro.mcat.query import Condition

# -- call_stream as it stood when every chunk was a request/reply pair ---------
#
# Verbatim from the parent commit (a method of ServiceRegistry there).


def pull_call_stream(self, src, dst, service, method,
                     /, page_size=100, cursor=None, **kwargs):
    obs = self.network.obs
    clock = self.network.clock
    obs.metrics.inc("rpc.streams", service=service, method=method)
    t0 = clock.now
    first = True
    while True:
        reply = self.call(src, dst, service, method,
                          cursor=cursor, limit=page_size, **kwargs)
        if first:
            obs.metrics.observe("rpc.stream.first_chunk_s",
                                clock.now - t0,
                                service=service, method=method)
            first = False
        obs.metrics.inc("rpc.stream.chunks", service=service,
                        method=method)
        obs.metrics.observe("rpc.stream.chunk_bytes",
                            self.last_timing.response_bytes,
                            service=service, method=method)
        if isinstance(reply, dict):
            next_cursor = reply.get("next_cursor")
        else:
            next_cursor = getattr(reply, "next_cursor", None)
        yield reply
        if next_cursor is None:
            return
        cursor = next_cursor


LAB = "/demozone/lab"
READER = "reader@sdsc"
#: what the push is allowed to lower; everything else must be equal
MAY_FALL = ("rpc.request_bytes", "net.messages", "net.bytes")


def build(shards, n_objects, pull):
    fed = Federation(zone="demozone", mcat_shards=shards, workers=2)
    fed.add_host("sdsc")
    fed.add_host("laptop")
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_fs_resource("unix-sdsc", "sdsc")
    fed.default_resource = "unix-sdsc"
    fed.bootstrap_admin()
    if pull:
        fed.rpc.call_stream = functools.partial(pull_call_stream, fed.rpc)
    admin = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    admin.login()
    for coll in (LAB, LAB + "/deep", LAB + "/sub"):
        admin.mkcoll(coll)
    admin.bulk_ingest([
        {"path": f"{LAB}{'/sub' if i % 5 == 4 else ''}/f{i:03d}.dat",
         "data": b"x" * (10 + i),
         "metadata": {"parity": "even" if i % 2 == 0 else "odd",
                      "n": str(i)}}
        for i in range(n_objects)])
    fed.add_user(READER, "pw")
    admin.grant("/demozone", READER, "read")
    reader = SrbClient(fed, "laptop", "srb1", READER, "pw")
    reader.login()
    return fed, admin, reader


def visible(fed):
    """Every record of the run but the wire's and the clock's."""
    return {k: v for k, v in fed.obs.metrics.snapshot().items()
            if not k.startswith(MAY_FALL)
            and (k.startswith("rpc.stream.")
                 or not k.partition("{")[0].partition(":")[0].endswith("_s"))}


def drained(fed):
    return all(len(h.station._free) == h.station.workers
               and h.station.queue_length(fed.clock.now) == 0
               for h in fed.network.hosts() if h.station is not None)


def drive(fed, admin, reader, what, scope, conditions, page_size,
          conflict, after, victim):
    """Drain one stream, ``conflict`` striking after chunk ``after``;
    returns what the consumer saw, chunk by chunk."""
    metrics = fed.obs.metrics
    if what == "query":
        stream = (tuple(page["rows"]) for page in reader.iter_query_pages(
            scope, conditions, page_size=page_size))
    else:
        stream = reader.iter_ls(scope, page_size=page_size)
    seen = []

    def chunks():
        return metrics.sum_matching(metrics.snapshot(), "rpc.stream.chunks")

    try:
        while True:
            if chunks() == after and conflict:
                after = None                     # strike once
                if conflict == "delete":
                    try:
                        admin.delete(victim)
                    except SrbError as exc:     # fewer objects than that
                        seen.append(("admin", type(exc).__name__))
                elif conflict == "revoke":
                    admin.revoke("/demozone", READER)
                elif conflict == "down":
                    fed.network.set_down("sdsc")
                elif conflict == "abandon":
                    before = (fed.clock.now, fed.network.messages_sent,
                              fed.rpc.stats.calls)
                    del stream
                    assert before == (fed.clock.now,
                                      fed.network.messages_sent,
                                      fed.rpc.stats.calls)
                    break
            item = next(stream)
            # an ls entry is tagged with the chunk that brought it
            seen.append(item if what == "query" else (chunks(), item))
    except StopIteration:
        pass
    except SrbError as exc:
        seen.append(("error", type(exc).__name__, chunks()))
    fed.network.set_up("sdsc")
    assert drained(fed)
    return seen


SCOPES = ["/demozone", LAB, LAB + "/sub", LAB + "/deep"]
CONDITIONS = [[], [Condition("parity", "=", "even")],
              [Condition("n", ">", "7")],
              [Condition("parity", "=", "odd"), Condition("n", "<", "20")],
              [Condition("nosuch", "=", "1")]]


@pytest.mark.parametrize("shards", [1, 4])
@settings(max_examples=40, deadline=None)
@given(what=st.sampled_from(["query", "ls"]),
       n_objects=st.integers(min_value=0, max_value=36),
       scope=st.sampled_from(SCOPES),
       conditions=st.sampled_from(CONDITIONS),
       page_size=st.integers(min_value=1, max_value=12),
       conflict=st.sampled_from([None, "delete", "revoke", "down",
                                 "abandon"]),
       after=st.integers(min_value=1, max_value=4),
       victim=st.integers(min_value=0, max_value=35))
def test_push_stream_is_the_pull_loop_but_for_the_wire(
        shards, what, n_objects, scope, conditions, page_size, conflict,
        after, victim):
    victim = f"{LAB}{'/sub' if victim % 5 == 4 else ''}/f{victim:03d}.dat"
    runs = []
    for pull in (False, True):
        fed, admin, reader = build(shards, n_objects, pull)
        t0 = fed.clock.now
        seen = drive(fed, admin, reader, what, scope, conditions, page_size,
                     conflict, after, victim)
        runs.append((seen, visible(fed), fed, fed.clock.now - t0))
    (push_seen, push_metrics, push, push_s), \
        (pull_seen, pull_metrics, pull, pull_s) = runs
    assert push_seen == pull_seen
    assert push_metrics == pull_metrics
    assert push.rpc.stats.calls == pull.rpc.stats.calls
    assert push.rpc.stats.response_bytes == pull.rpc.stats.response_bytes
    assert push.rpc.stats.failures == pull.rpc.stats.failures
    # what the push is for: never more on the wire, never slower
    chunks = push.obs.metrics.sum_matching(push_metrics, "rpc.stream.chunks")
    pushed = max(0, chunks - 1)
    # one message saved per pushed chunk (and by one refused mid-stream)
    assert pushed <= pull.network.messages_sent \
        - push.network.messages_sent <= pushed + 1
    assert push.rpc.stats.request_bytes <= pull.rpc.stats.request_bytes
    assert push.network.bytes_sent <= pull.network.bytes_sent
    assert push_s <= pull_s + 1e-12
    if pushed:
        assert push.rpc.stats.request_bytes < pull.rpc.stats.request_bytes
        assert push_s < pull_s
