"""One call per registered RPC op, on the standard grid's resources.

Shared by the registry-walking tests (every op increments ``srb.ops``
once; every op's charges are conserved across counters, metrics, spans
and ``PathStats``), so both walk one list and adding an op without a
row here fails both loudly.

Each row is ``(op, kwargs, raises)``: the keyword arguments a remote
caller would send (ticket included where the op takes one) and whether
the op is expected to end in an :class:`~repro.errors.SrbError` on a
healthy grid.  The same kwargs work through the server façade
(``getattr(srv, op)(**kwargs)``) and through ``fed.rpc.call``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

COLL = "/demozone/home/opscheck"
FILE = COLL + "/f.txt"


def prepare(srv, ticket, pad: bytes = b"") -> int:
    """Create the fixtures the calls operate on; returns the metadata id
    the ``update_metadata``/``delete_metadata`` rows address.  ``pad``
    is appended to every payload (here and in :func:`op_calls`), for the
    walks that need objects larger than a few bytes."""
    srv.mkcoll(ticket, COLL)
    srv.ingest(ticket, FILE, b"content-1" + pad)
    srv.mkcoll(ticket, COLL + "/doomed")          # rmcoll target
    srv.mkcoll(ticket, COLL + "/mig")             # migrate_collection target
    srv.ingest(ticket, COLL + "/mv.txt", b"m" + pad)  # move target
    srv.ingest(ticket, COLL + "/del.txt", b"d" + pad)  # delete target
    srv.ingest(ticket, COLL + "/lk.txt", b"l" + pad)  # lock/unlock target
    srv.ingest(ticket, COLL + "/co.txt", b"c" + pad)  # checkout/checkin target
    srv.ingest(ticket, COLL + "/rep.txt", b"r" + pad)  # replica-plane target
    srv.ingest(ticket, COLL + "/pm.txt", b"p" + pad)  # physical_move target
    return srv.add_metadata(ticket, FILE, "subject", "ops")


def op_calls(ticket, mid: int, pad: bytes = b""
             ) -> List[Tuple[str, Dict[str, Any], bool]]:
    """The call map, in an order in which each row's target exists."""
    C, F = COLL, FILE
    rows: List[Tuple[str, Dict[str, Any], bool]] = [
        ("auth_challenge", dict(username="srbadmin@sdsc"), False),
        ("auth_login", dict(username="srbadmin@sdsc", challenge="nonce",
                            response="bad"), True),
        ("mkcoll", dict(path=C + "/sub"), False),
        ("rmcoll", dict(path=C + "/doomed"), False),
        ("list_collection_page", dict(path=C, limit=5), False),
        ("stat", dict(path=F), False),
        ("move", dict(src=C + "/mv.txt", dst=C + "/mv2.txt"), False),
        ("link", dict(target=F, link_path=C + "/lnk"), False),
        ("ingest", dict(path=C + "/new.txt", data=b"n" + pad), False),
        ("bulk_ingest",
         dict(items=[{"path": C + "/b1.txt", "data": b"b" + pad}]), False),
        ("bulk_get", dict(targets=[F]), False),
        ("bulk_query_metadata", dict(targets=[F]), False),
        ("register_file", dict(path=C + "/reg.txt", resource="unix-sdsc",
                               physical_path="/outside/reg.txt"), False),
        ("register_directory", dict(path=C + "/regdir", resource="unix-sdsc",
                                    physical_dir="/outside/dir"), False),
        ("register_sql", dict(path=C + "/q.sql", resource="unix-sdsc",
                              sql="SELECT 1"), True),
        ("register_url",
         dict(path=C + "/u.url", url="http://example.org/u"), False),
        ("register_method", dict(path=C + "/m.cmd", server="srb1",
                                 command="srbps", proxy_function=True),
         False),
        ("get", dict(path=F), False),
        ("put", dict(path=F, data=b"content-2" + pad), False),
        ("delete", dict(path=C + "/del.txt"), False),
        ("copy", dict(src=F, dst=C + "/copy.txt"), False),
        ("lock", dict(path=C + "/lk.txt"), False),
        ("unlock", dict(path=C + "/lk.txt"), False),
        ("pin", dict(path=F, resource="unix-sdsc"), False),
        ("unpin", dict(path=F, resource="unix-sdsc"), False),
        ("checkout", dict(path=C + "/co.txt"), False),
        ("checkin", dict(path=C + "/co.txt"), False),
        ("versions", dict(path=C + "/co.txt"), False),
        ("get_version", dict(path=C + "/co.txt", version_num=1), False),
        ("create_container",
         dict(path=C + "/cont", logical_resource="logrsrc1"), False),
        ("compact_container", dict(path=C + "/cont"), False),
        ("container_garbage", dict(path=C + "/cont"), False),
        ("sync_container", dict(path=C + "/cont"), False),
        ("replicate",
         dict(path=C + "/rep.txt", resource="unix-caltech"), False),
        ("register_replica",
         dict(path=C + "/reg.txt", target="/outside/reg-alt.txt"), False),
        ("ingest_replica", dict(path=C + "/rep.txt", data=b"alt" + pad,
                                resource="unix-caltech"), False),
        ("synchronize", dict(path=C + "/rep.txt"), False),
        ("physical_move",
         dict(path=C + "/pm.txt", resource="unix-caltech"), False),
        ("migrate_collection",
         dict(coll=C + "/mig", resource="unix-caltech"), False),
        ("verify_checksums", dict(path=F), False),
        ("add_metadata", dict(path=F, attr="color", value="blue"), False),
        ("get_metadata", dict(path=F), False),
        ("update_metadata", dict(path=F, mid=mid, value="ops2"), False),
        ("delete_metadata", dict(path=F, mid=mid), False),
        ("copy_metadata", dict(src=F, dst=C + "/copy.txt"), False),
        ("extract_metadata",
         dict(path=F, method="no-such-method"), True),
        ("define_structural", dict(coll=C, attr="series"), False),
        ("structural_metadata", dict(coll=C), False),
        ("add_annotation",
         dict(path=F, ann_type="comment", text="checked"), False),
        ("annotations", dict(path=F), False),
        ("query", dict(scope=C, conditions=[]), False),
        ("query_page", dict(scope=C, conditions=[], limit=5), False),
        ("queryable_attrs", dict(scope=C), False),
        ("grant", dict(path=F, principal_str="sekar@sdsc",
                       permission="read"), False),
        ("revoke", dict(path=F, principal_str="sekar@sdsc"), False),
        ("audit_log", {}, False),
        ("open_object", dict(path=F), False),
    ]
    for op, kwargs, _raises in rows:
        if not op.startswith("auth_"):    # the login handshake takes none
            kwargs["ticket"] = ticket
    return rows
