"""The batch reads answer what their one-path ops answer.

``bulk_get`` had its own per-item loop: it did not look for a
registered directory above a path with no row, and refused every kind
but stored, registered and container objects.  ``bulk_query_metadata``
showed a link's own rows only, where ``get_metadata`` shows its target's
too.  Each test here failed before both read through the one-path op's
rule.
"""

import pytest

from repro.db import Column
from repro.errors import SrbError


@pytest.fixture
def cone(grid):
    drv = grid.fed.resources.physical("unix-caltech").driver
    drv.create("/archive/cone/a.txt", b"alpha")
    drv.create("/archive/cone/sub/b.txt", b"beta")
    grid.curator.register_directory(f"{grid.home}/cone", "unix-caltech",
                                    "/archive/cone")
    return grid


def test_bulk_get_reads_a_file_under_a_registered_directory(cone):
    client, home = cone.curator, cone.home
    targets = [f"{home}/cone/a.txt", f"{home}/cone/sub/b.txt"]
    out = client.bulk_get(targets)
    assert [item.get("data") for item in out] == \
        [client.get(t) for t in targets] == [b"alpha", b"beta"]


def test_bulk_get_fails_a_missing_shadow_file_as_get_does(cone):
    client, home = cone.curator, cone.home
    with pytest.raises(SrbError) as raised:
        client.get(f"{home}/cone/ghost.txt")
    (item,) = client.bulk_get([f"{home}/cone/ghost.txt"])
    assert item["error_type"] == type(raised.value).__name__
    assert item["error"] == str(raised.value)


def test_bulk_get_reads_url_sql_and_method_objects(grid):
    client, home = grid.curator, grid.home
    grid.fed.web.publish("http://museum.org/page", b"<html>art</html>")
    client.register_url(f"{home}/page", "http://museum.org/page")
    table = grid.fed.resources.physical("dlib1").driver.create_user_table(
        "stars", [Column("name", "TEXT"), Column("mag", "FLOAT")])
    table.insert({"name": "Vega", "mag": 0.03})
    client.register_sql(f"{home}/stars", "dlib1", "SELECT name FROM stars")
    grid.fed.install_proxy_command("srb2", "wordcount",
                                   lambda args: b"3 words")
    client.register_method(f"{home}/wc", "srb2", "wordcount")
    targets = [f"{home}/page", f"{home}/stars", f"{home}/wc"]
    out = client.bulk_get(targets)
    assert [item.get("error_type") for item in out] == [None] * 3
    assert [item["data"] for item in out] == [client.get(t) for t in targets]
    assert out[0]["data"] == b"<html>art</html>"
    assert b"Vega" in out[1]["data"]


def test_bulk_query_metadata_of_a_link_shows_its_target_rows(grid):
    client, home = grid.curator, grid.home
    client.ingest(f"{home}/target.dat", b"x", metadata={"band": "J"})
    client.link(f"{home}/target.dat", f"{home}/alias")
    client.add_metadata(f"{home}/alias", "note", "a link's own")
    (item,) = client.bulk_query_metadata([f"{home}/alias"])
    rows = client.get_metadata(f"{home}/alias")
    assert item["metadata"] == rows
    assert [(r["attr"], r.get("via_link", False)) for r in rows] == \
        [("note", False), ("band", True)]
