"""Recorded parity: nothing the observability pipeline emits may move.

Every registered op (``tests/op_calls.py``, the map the conservation
test walks) is issued as a remote client would issue it, on the default
grid and with ``direct_io=True`` (payloads announced with a
``DeferredPayload`` in the slot the op declares, as ``SrbClient._defer``
does), once untraced and once under ``tracer.trace``.  What is recorded
per op is the delta of ``metrics.snapshot()`` and, traced, the span tree
flattened by ``tests.probes.span_events`` — name, depth, attrs,
counters, error — plus the whole registry at the end of each pass.

``recordings/obs_parity.jsonl`` (one line per op and pass, then one for
the registry the pass left) was made at the commit *before* op plans
and bound instruments (PR 18's tree, ``79c3aaf``) and must replay
byte-identically: a metric name, label set, value, histogram count or
sum, span name, span attribute or span counter that differs is a
behaviour change, not a speed-up.  The one span counter added since, ``catalog_s`` (what a
charged catalog op cost, the input of ``Span.breakdown``), is the only
thing left out of the comparison.

Regenerate only for an *intentional* change to what is emitted, with
the difference called out in the PR::

    PYTHONPATH=src python -m tests.obs.test_obs_parity
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import SrbError
from repro.net.wire import DeferredPayload
from tests.integration.test_charge_conservation import build_fed
from tests.op_calls import op_calls, prepare
from tests.probes import span_events

RECORDING = pathlib.Path(__file__).parent / "recordings" / "obs_parity.jsonl"

MODES = {"default": {}, "direct_io": {"direct_io": True}}

#: span counters introduced after the recording was made
ADDED_COUNTERS = {"catalog_s"}


def announced(kwargs):
    """``kwargs`` as a direct-I/O client sends them: write payloads stay
    on the caller's host behind a claim token."""
    out = dict(kwargs)
    if isinstance(out.get("data"), bytes):
        out["data"] = DeferredPayload(out["data"])
    if "items" in out:
        out["items"] = [dict(item, data=DeferredPayload(item["data"]))
                        for item in out["items"]]
    return out


def flatten(root):
    return [dict(e, counters={k: v for k, v in e["counters"].items()
                              if k not in ADDED_COUNTERS})
            for e in span_events(root)]


def walk(mode: str, traced: bool):
    """One pass over the registry: a record of what each op emitted,
    then one of the registry the pass left behind."""
    fed, admin = build_fed(**MODES[mode])
    srv = fed.server("srb1")
    calls = op_calls(admin.ticket, prepare(srv, admin.ticket))
    assert {name for name, _kw, _raises in calls} == set(srv.dispatch.names())
    metrics, tracer = fed.obs.metrics, fed.obs.tracer
    tag = {"mode": mode, "traced": traced}
    records = []
    for name, kwargs, raises in calls:
        if mode == "direct_io":
            kwargs = announced(kwargs)
        before = metrics.snapshot()
        try:
            if traced:
                with tracer.trace("parity", op=name) as root:
                    fed.rpc.call("laptop", "sdsc", "srb:srb1", name, **kwargs)
            else:
                fed.rpc.call("laptop", "sdsc", "srb:srb1", name, **kwargs)
            assert not raises, name
        except SrbError:
            assert raises, name
        record = dict(tag, op=name, delta=metrics.delta(before))
        if traced:
            record["events"] = flatten(root)
        records.append(record)
    records.append(dict(tag, snapshot=metrics.snapshot()))
    return records


def canonical(record) -> str:
    """One record's line in the recording: what byte-identity is
    asserted on."""
    return json.dumps(record, sort_keys=True, default=repr)


def recorded(mode: str, traced: bool):
    tag = {"mode": mode, "traced": traced}
    lines = [line for line in RECORDING.read_text().splitlines()
             if tag.items() <= json.loads(line).items()]
    assert lines, f"no recording for {mode}, traced={traced}; regenerate"
    return lines


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_op_emits_what_the_recording_says(mode, traced):
    want = recorded(mode, traced)
    got = [canonical(record) for record in walk(mode, traced)]
    for want_line, got_line in zip(want, got):
        assert got_line == want_line, (
            f"{mode}, traced={traced}: "
            f"{json.loads(want_line).get('op', 'the final registry')} "
            "no longer emits what it did")
    assert len(got) == len(want)


def test_tracing_changes_no_metric():
    def metrics_of(lines):
        return [{k: v for k, v in json.loads(line).items()
                 if k in ("op", "delta", "snapshot")} for line in lines]

    for mode in MODES:
        assert metrics_of(recorded(mode, False)) == \
            metrics_of(recorded(mode, True)), mode


if __name__ == "__main__":
    RECORDING.parent.mkdir(exist_ok=True)
    RECORDING.write_text("".join(
        canonical(record) + "\n"
        for mode in MODES for traced in (False, True)
        for record in walk(mode, traced)))
    print(f"recorded {RECORDING}")
