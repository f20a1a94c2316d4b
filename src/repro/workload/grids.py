"""Canned federation topologies used by tests, examples and benchmarks.

:func:`standard_grid` rebuilds the paper's running example — a Unix file
system at SDSC, an HPSS archive at CalTech, a database, two SRB servers
(one MCAT-enabled), a user's laptop — and returns the federation plus a
logged-in curator client and an admin client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.client import SrbClient
from repro.core.federation import Federation
from repro.net.simnet import LAN, TRANSCON, WAN, LinkSpec
from repro.storage.archive import TapeCost
from repro.workload.synth import SynthFile


@dataclass
class StandardGrid:
    """Handles to everything :func:`standard_grid` built."""

    fed: Federation
    admin: SrbClient      # sysadmin connected to the MCAT server
    curator: SrbClient    # curator "sekar@sdsc" connected from the laptop
    home: str             # the curator's writable home collection


def standard_grid(placement: str = "primary",
                  sso_enabled: bool = True,
                  tape: Optional[TapeCost] = None,
                  default_link: LinkSpec = WAN) -> StandardGrid:
    """The paper's example deployment, ready to use."""
    fed = Federation(zone="demozone", placement=placement,
                     sso_enabled=sso_enabled, default_link=default_link)
    fed.add_host("sdsc", site="sdsc")
    fed.add_host("caltech", site="caltech")
    fed.add_host("laptop", site="home")
    # local links are fast; cross-site stays on the default (WAN)
    fed.network.set_link("sdsc", "sdsc", LAN)
    fed.network.set_link("sdsc", "caltech", TRANSCON)

    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_server("srb2", "caltech")

    fed.add_fs_resource("unix-sdsc", "sdsc", is_cache=True)
    fed.add_fs_resource("unix-caltech", "caltech")
    fed.add_archive_resource("hpss-caltech", "caltech",
                             tape=tape if tape is not None else TapeCost())
    fed.add_database_resource("dlib1", "sdsc")
    fed.add_logical_resource("logrsrc1", ["unix-sdsc", "hpss-caltech"])
    fed.default_resource = "unix-sdsc"

    fed.bootstrap_admin()
    admin = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    admin.login()
    admin.mkcoll("/demozone/home")

    fed.add_user("sekar@sdsc", "secret", role="curator")
    admin.grant("/demozone", "sekar@sdsc", "read")
    admin.grant("/demozone/home", "sekar@sdsc", "write")
    curator = SrbClient(fed, "laptop", "srb1", "sekar@sdsc", "secret")
    curator.login()
    home = "/demozone/home/sekar"
    curator.mkcoll(home)
    return StandardGrid(fed=fed, admin=admin, curator=curator, home=home)


def populate(client: SrbClient, coll: str, files: Iterable[SynthFile],
             resource: Optional[str] = None,
             container: Optional[str] = None,
             attach_metadata: bool = True) -> int:
    """Ingest generated files under ``coll``; returns the count."""
    count = 0
    for f in files:
        path = f"{coll}/{f.name}"
        client.ingest(path, f.content, resource=resource,
                      container=container, data_type=f.data_type)
        if attach_metadata:
            for attr, value in f.attributes.items():
                client.add_metadata(path, attr, value)
        if f.sidecar is not None:
            client.ingest(path + ".hdr", f.sidecar, resource=resource,
                          container=container, data_type="xml metadata")
        count += 1
    return count
