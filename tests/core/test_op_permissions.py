"""Who may do what, pinned: every scoped op × principal × path spelling.

The paper's access model is a "role-based access matrix from curator to
public".  Each scoped op of the shared call map (``tests/op_calls.py``)
(and a few subjects the map does not reach: :func:`extra_calls`) is
issued through the server façade by four principals —

* ``owner``: created every fixture the calls touch;
* ``reader``: holds a ``read`` grant on the fixture collection;
* ``stranger``: a registered user with no grant at all;
* ``public``: no ticket —

and with four spellings of its paths: canonical, the subject path (the
op's ``scope_arg``) with a trailing ``/`` or a ``//``, and its second
path (a copy, move or link destination or target) with a trailing
``/``.  A spelling that is not canonical is refused as an
``InvalidPath``; *where* it is refused — before or inside a charged
catalog call, before or after the permission check — is part of what is
pinned.

Per op the recording holds the exception type and message (error
precedence: a missing object before a denial, a kind refused before a
denial), the audit rows written (denials audited ``ok=False`` with their
target text), the ``access.checks``/``access.denials`` deltas and the
``mcat.ops``/``mcat.rows_scanned`` deltas.  Each walk runs the ops in
call-map order on a fresh grid, so an op that behaves differently also
changes what the ops after it see.

``recordings/op_permissions.jsonl`` (one line per op of each walk) was
made before permissions were declared on the ops (``@rpc_op(need=,
target=)``) and must replay exactly.  Regenerate only for an intentional change, called out in the
PR::

    PYTHONPATH=src python -m tests.core.test_op_permissions
"""

from __future__ import annotations

import ast
import inspect
import json
import pathlib
import textwrap

import pytest

from repro.core import SrbClient
from repro.core import dispatch
from repro.errors import SrbError
from tests.integration.test_charge_conservation import build_fed
from tests.op_calls import COLL, op_calls, prepare

RECORDING = pathlib.Path(__file__).parent / "recordings" / \
    "op_permissions.jsonl"

PRINCIPALS = ("owner", "reader", "stranger", "public")

#: the path argument of an op that is not its subject
SECOND_PATH = {"move": "dst", "copy": "dst", "link": "target",
               "copy_metadata": "dst"}


def _double_slash(path: str) -> str:
    head, _, tail = path.rpartition("/")
    return head + "//" + tail


#: spelling -> (which argument, how it is spelled)
SPELLINGS = {
    "canonical": (None, None),
    "subject/": ("subject", lambda p: p + "/"),
    "subject//": ("subject", _double_slash),
    "second/": ("second", lambda p: p + "/"),
}

#: Why an op's handler may still check a permission itself: the
#: declaration (``need=``/``target=``) cannot say the same thing in the
#: same order.  ``dispatch.WRITTEN_CHECKS`` names each such op with one.
REASONS = {
    "second target": "checks a path other than its subject, or a second "
                     "object the subject leads to",
    "per item": "an unscoped batch: each item is checked as it is read",
    "shadow fallback": "a path with no catalog row may lie inside a "
                       "registered shadow directory, checked on that",
    "kind checked first": "refuses an unsupported object kind before it "
                          "asks for a permission",
    "own rows only": "changes only the caller's own lock or pin rows",
    "own order": "reads the catalog or validates a path around its check "
                 "in an order no target kind repeats",
    "nested ops": "runs other ops through their own plans, and each of "
                  "those checks its own subject",
}

#: reasons under which a listed handler calls no ``access.require_*``
CHECKS_NOTHING_ITSELF = {"own rows only", "nested ops"}

WRITTEN_CHECKS = getattr(dispatch, "WRITTEN_CHECKS", {})


LINK = COLL + "/f-link"


def extra_calls(ticket):
    """Subjects the call map does not reach: a collection where an op
    takes an object or a collection, and a link where an op resolves
    one."""
    rows = [("stat", dict(path=COLL)),
            ("get_metadata", dict(path=COLL)),
            ("add_metadata", dict(path=COLL, attr="kind", value="fixture")),
            ("add_annotation", dict(path=COLL, ann_type="comment", text="c")),
            ("annotations", dict(path=COLL)),
            ("revoke", dict(path=COLL + "/mig", principal_str="reader@sdsc")),
            ("stat", dict(path=LINK)),
            ("get_metadata", dict(path=LINK)),
            ("verify_checksums", dict(path=LINK)),
            ("get", dict(path=LINK)),
            ("ingest_replica", dict(path=LINK, data=b"via-link",
                                    resource="unix-caltech")),
            ("delete", dict(path=LINK))]
    return [(name, dict(kwargs, ticket=ticket), False)
            for name, kwargs in rows]


def _spelled(name, kwargs, spec, spelling):
    which, spell = SPELLINGS[spelling]
    arg = spec.scope_arg if which == "subject" else SECOND_PATH.get(name) \
        if which == "second" else None
    if arg is None:
        return kwargs
    return dict(kwargs, **{arg: spell(kwargs[arg])})


def _login(fed, user):
    client = SrbClient(fed, "sdsc", "srb1", user, "pw")
    client.login()
    return client.ticket


def _outcome(result):
    if result is None or isinstance(result, (bool, int, str)):
        return result
    return type(result).__name__


def walk(principal: str, spelling: str):
    """Every scoped op of the call map, as ``principal``, in order."""
    fed, admin = build_fed()
    srv = fed.server("srb1")
    for user in ("owner@sdsc", "reader@sdsc", "stranger@sdsc"):
        fed.add_user(user, "pw")
    admin.grant("/demozone/home", "owner@sdsc", "write")
    owner = _login(fed, "owner@sdsc")
    mid = prepare(srv, owner)
    srv.link(owner, COLL + "/f.txt", LINK)
    srv.grant(owner, COLL, "reader@sdsc", "read")
    ticket = owner if principal == "owner" else None \
        if principal == "public" else _login(fed, f"{principal}@sdsc")
    access, metrics, mcat = fed.access, fed.obs.metrics, fed.mcat
    records = []
    for name, kwargs, _raises in op_calls(ticket, mid) + extra_calls(ticket):
        spec = srv.dispatch.get(name).spec
        if spec.scope_arg is None:
            continue
        kwargs = _spelled(name, kwargs, spec, spelling)
        audited = len(mcat.audit_query())
        before = (access.checks, access.denials, metrics.total("mcat.ops"),
                  metrics.total("mcat.rows_scanned"))
        try:
            outcome = {"result": _outcome(getattr(srv, name)(**kwargs))}
        except SrbError as exc:
            outcome = {"error": [type(exc).__name__, str(exc)]}
        after = (access.checks, access.denials, metrics.total("mcat.ops"),
                 metrics.total("mcat.rows_scanned"))
        outcome.update(zip(("checks", "denials", "mcat_ops", "mcat_rows"),
                           (b - a for a, b in zip(before, after))))
        outcome["audit"] = [
            [row["principal"], row["action"], row["target"], row["detail"],
             row["ok"]] for row in mcat.audit_query()[audited:]]
        records.append(dict(op=name, **outcome))
    return records


def record_all() -> str:
    """The recording: one line per op of each walk."""
    return "".join(
        json.dumps(dict(walk=f"{principal} {spelling}", **record),
                   sort_keys=True) + "\n"
        for principal in PRINCIPALS for spelling in SPELLINGS
        for record in walk(principal, spelling))


@pytest.fixture(scope="module")
def recording():
    walks = {}
    for line in RECORDING.read_text().splitlines():
        record = json.loads(line)
        walks.setdefault(record.pop("walk"), []).append(record)
    return walks


@pytest.mark.parametrize("spelling", list(SPELLINGS))
@pytest.mark.parametrize("principal", PRINCIPALS)
def test_every_scoped_op_checks_what_the_recording_says(recording, principal,
                                                        spelling):
    want = recording[f"{principal} {spelling}"]
    got = json.loads(json.dumps(walk(principal, spelling)))
    assert [r["op"] for r in got] == [r["op"] for r in want]
    for want_op, got_op in zip(want, got):
        assert got_op == want_op, (principal, spelling, want_op["op"])


def test_the_walks_cover_every_principal_outcome(recording):
    """The recording is not vacuous: each principal is both allowed and
    denied somewhere, and denied mutations left ``ok=False`` rows."""
    for principal in PRINCIPALS:
        ops = recording[f"{principal} canonical"]
        denied = [r for r in ops if r.get("error", [""])[0] == "AccessDenied"]
        allowed = [r for r in ops if "result" in r]
        assert allowed, principal
        assert bool(denied) == (principal != "owner"), principal
        if denied:
            assert any(row[4] is False for r in denied for row in r["audit"])


# ---------------------------------------------------------------------------
# the declarations: one table says who may do what
# ---------------------------------------------------------------------------

def _specs():
    from repro.workload import standard_grid
    srv = standard_grid().fed.server("srb1")
    return srv, srv.dispatch.specs()


declared = pytest.mark.skipif(
    "need" not in dispatch.OpSpec.__dataclass_fields__,
    reason="ops do not declare permissions (need=) yet")


@declared
def test_every_scoped_op_declares_its_check_or_says_why_not():
    assert set(WRITTEN_CHECKS.values()) <= set(REASONS)
    _srv, specs = _specs()
    names = {spec.name for spec in specs}
    assert set(WRITTEN_CHECKS) <= names
    for spec in specs:
        if spec.scope_arg is not None and spec.need is None:
            assert spec.name in WRITTEN_CHECKS, \
                f"{spec.name}: no need= and no written-check reason"


def _writes_a_check(service, fn, depth=2) -> bool:
    """Does ``fn`` — or a method of ``service`` it calls on ``self``,
    ``depth`` calls deep — call ``access.require_*`` itself?"""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr.startswith("require_") \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "access":
            return True
        method = getattr(type(service), node.attr, None)
        if depth and isinstance(node.value, ast.Name) \
                and node.value.id == "self" and inspect.isfunction(method) \
                and _writes_a_check(service, method, depth - 1):
            return True
    return False


@declared
def test_every_written_check_is_listed():
    """An op whose handler still calls ``access.require_*`` is in
    ``WRITTEN_CHECKS``; one listed there, except for its own rows, does."""
    srv, specs = _specs()
    for spec in specs:
        reg = srv.dispatch.get(spec.name)
        writes = _writes_a_check(reg.service, reg.impl)
        if writes:
            assert spec.name in WRITTEN_CHECKS, spec.name
        elif WRITTEN_CHECKS.get(spec.name, "own rows only") \
                not in CHECKS_NOTHING_ITSELF:
            assert False, f"{spec.name} is listed but checks nothing itself"


if __name__ == "__main__":
    RECORDING.parent.mkdir(exist_ok=True)
    RECORDING.write_text(record_all())
    print(f"recorded {RECORDING}")
