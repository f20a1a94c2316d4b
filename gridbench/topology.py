"""The benchmark's own fixed grid (the paper's running example).

Built by hand rather than through ``repro.workload.standard_grid`` so a
later reshaping of that helper cannot silently change what is measured.
Only the default ``Federation(zone=...)`` is used — no behaviour knob —
so the numbers are what a user gets out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import SrbClient
from repro.core.federation import Federation
from repro.net.simnet import LAN, TRANSCON

ZONE = "gridzone"
HOME = f"/{ZONE}/home/bench"
USER, PASSWORD = "bench@sdsc", "bench-pw"
ADMIN, ADMIN_PASSWORD = "srbadmin@sdsc", "hunter2"
# two 4 MiB objects fit: large_xfer's older archive copies are migrated
# to tape and a read of one pays a stage + tape mount; small objects
# never fill it
HPSS_CACHE_BYTES = 8 << 20


@dataclass
class Grid:
    fed: Federation
    client: SrbClient     # the one benchmark client: laptop -> srb1
    home: str             # its writable home collection


def build_grid() -> Grid:
    """sdsc (srb1 + MCAT, unix-sdsc), caltech (srb2, unix-caltech,
    hpss-caltech), laptop (client); logrsrc1 = [unix-sdsc, hpss-caltech]."""
    fed = Federation(zone=ZONE)
    fed.add_host("sdsc", site="sdsc")
    fed.add_host("caltech", site="caltech")
    fed.add_host("laptop", site="home")
    fed.network.set_link("sdsc", "sdsc", LAN)
    fed.network.set_link("sdsc", "caltech", TRANSCON)

    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_server("srb2", "caltech")
    fed.add_fs_resource("unix-sdsc", "sdsc")
    fed.add_fs_resource("unix-caltech", "caltech")
    fed.add_archive_resource("hpss-caltech", "caltech",
                             cache_capacity_bytes=HPSS_CACHE_BYTES)
    fed.add_logical_resource("logrsrc1", ["unix-sdsc", "hpss-caltech"])
    fed.default_resource = "unix-sdsc"

    fed.bootstrap_admin(ADMIN, ADMIN_PASSWORD)
    admin = SrbClient(fed, "sdsc", "srb1", ADMIN, ADMIN_PASSWORD)
    admin.login()
    admin.mkcoll(f"/{ZONE}/home")
    fed.add_user(USER, PASSWORD, role="curator")
    admin.grant(f"/{ZONE}", USER, "read")
    admin.grant(f"/{ZONE}/home", USER, "write")
    client = SrbClient(fed, "laptop", "srb1", USER, PASSWORD)
    client.login()
    client.mkcoll(HOME)
    return Grid(fed=fed, client=client, home=HOME)
