"""Per-item error marshalling in ``bulk_query_metadata``.

One batch mixing readable, missing and ACL-denied targets must come
back aligned with the request: each failed item carries its own
``error``/``error_type`` entry, each ok item its metadata — and the
bulk catalog read must stitch metadata back onto the *right* items even
when failures are interleaved between them.
"""

import pytest

from repro.core import SrbClient


@pytest.fixture
def dataset(grid):
    """Three objects with distinct metadata plus a reader with partial
    access."""
    c, home = grid.curator, grid.home
    for name in ("a", "b", "c"):
        path = f"{home}/{name}.dat"
        c.ingest(path, f"data-{name}".encode())
        c.add_metadata(path, "series", f"series-{name}")
    grid.fed.add_user("visitor@sdsc", "pw", role="reader")
    # object-level grants only: the visitor may read a and c but holds
    # nothing on b (and no collection-chain grant rescues it)
    c.grant(f"{home}/a.dat", "visitor@sdsc", "read")
    c.grant(f"{home}/c.dat", "visitor@sdsc", "read")
    visitor = SrbClient(grid.fed, "laptop", "srb1", "visitor@sdsc", "pw")
    visitor.login()
    return grid, visitor


def test_mixed_ok_missing_denied(dataset):
    grid, visitor = dataset
    home = grid.home
    targets = [
        f"{home}/a.dat",          # ok
        f"{home}/ghost.dat",      # missing
        f"{home}/b.dat",          # denied
        f"{home}/c.dat",          # ok — metadata must not shift onto b
    ]
    results = visitor.bulk_query_metadata(targets)
    assert [r["path"] for r in results] == targets

    ok_a, missing, denied, ok_c = results
    assert "error" not in ok_a and "error" not in ok_c
    assert {m["attr"]: m["value"] for m in ok_a["metadata"]
            }["series"] == "series-a"
    assert {m["attr"]: m["value"] for m in ok_c["metadata"]
            }["series"] == "series-c"

    assert missing["error_type"] == "NoSuchObject"
    assert "metadata" not in missing
    assert denied["error_type"] == "AccessDenied"
    assert "metadata" not in denied


def test_all_failed_batch(dataset):
    grid, visitor = dataset
    results = visitor.bulk_query_metadata(
        [f"{grid.home}/nope1", f"{grid.home}/nope2"])
    assert all(r["error_type"] == "NoSuchObject" for r in results)


def test_owner_sees_everything(dataset):
    grid, _visitor = dataset
    home = grid.home
    results = grid.curator.bulk_query_metadata(
        [f"{home}/a.dat", f"{home}/b.dat", f"{home}/c.dat"])
    assert all("error" not in r and r["metadata"] for r in results)

