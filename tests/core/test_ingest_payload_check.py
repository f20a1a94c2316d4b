"""An ingest item with no bytes to store fails on its own, with a typed
error, before the catalog is asked about it."""

import pytest

from repro.errors import NoSuchObject, StorageError
from repro.workload import standard_grid


@pytest.fixture
def grid():
    return standard_grid()


@pytest.mark.parametrize("bad", [{}, {"data": "text"}], ids=["none", "str"])
def test_a_bulk_item_without_bytes_fails_alone(grid, bad):
    home = grid.home
    out = grid.curator.bulk_ingest([{"path": f"{home}/good.dat",
                                     "data": b"x"},
                                    {"path": f"{home}/bad.dat", **bad}])
    assert type(out[0]["oid"]) is int
    assert out[1]["error_type"] == "StorageError"
    assert grid.curator.get(f"{home}/good.dat") == b"x"
    with pytest.raises(NoSuchObject):
        grid.curator.stat(f"{home}/bad.dat")


def test_a_single_ingest_of_text_raises_the_typed_error(grid):
    with pytest.raises(StorageError, match="data must be bytes"):
        grid.curator.ingest(f"{grid.home}/one.dat", "text")
