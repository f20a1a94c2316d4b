"""``rmcoll`` takes the structural requirements a collection defines with
it: a collection made again at the same path starts with none, and
removing a collection that defines none reads no extra row."""

import pytest

from repro.core import Federation, SrbClient
from repro.workload import standard_grid
from tests.probes import counter


def standard():
    grid = standard_grid()
    return grid.fed, grid.curator, grid.home


def sharded():
    fed = Federation(zone="demozone", mcat_shards=2)
    fed.add_host("sdsc")
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_fs_resource("unix-sdsc", "sdsc")
    fed.default_resource = "unix-sdsc"
    fed.bootstrap_admin()
    admin = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    admin.login()
    admin.mkcoll("/demozone/home")
    return fed, admin, "/demozone/home"


BUILDS = pytest.mark.parametrize("build", [standard, sharded],
                                 ids=["standard", "sharded"])


@BUILDS
def test_a_collection_made_again_has_no_requirements(build):
    _fed, client, home = build()
    coll = f"{home}/x"
    client.mkcoll(coll)
    client.define_structural(coll, "Title", mandatory=True)
    client.rmcoll(coll)
    client.mkcoll(coll)
    assert client.ingest(f"{coll}/f", b"data") > 0
    assert client.get_metadata(f"{coll}/f") == []


@BUILDS
def test_each_requirement_removed_is_one_row_in_the_same_op(build):
    fed, client, home = build()
    metrics = fed.obs.metrics

    def cost_of_rmcoll(name, requirements):
        coll = f"{home}/{name}"
        client.mkcoll(coll)
        for attr in requirements:
            client.define_structural(coll, attr)
        ops, rows = counter(metrics, "mcat.ops"), counter(metrics, "mcat.rows_scanned")
        client.rmcoll(coll)
        return (counter(metrics, "mcat.ops") - ops,
                counter(metrics, "mcat.rows_scanned") - rows)

    bare_ops, bare_rows = cost_of_rmcoll("bare", [])
    ops, rows = cost_of_rmcoll("ruled", ["Title", "Creator"])
    assert (ops, rows) == (bare_ops, bare_rows + 2)
