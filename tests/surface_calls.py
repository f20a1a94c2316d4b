"""One run of every user surface, on a live grid.

* :func:`op_walk` issues each op of :mod:`tests.op_calls` once, as a
  remote client would, on the charge-conservation grid;
* :func:`scommand_walk` runs each Scommand the
  :class:`~repro.scommands.Shell` dispatches at least once, with the
  flags and object kinds that reach code of their own (:data:`SCRIPT`);
* :func:`page_walk` GETs each path ``MySrbApp._route`` serves once
  (:data:`PAGES`), and POSTs the forms that run an op of their own
  (:data:`FORMS`).

The last two run on ``standard_grid()`` and refuse a line or a page
that fails.  ``tools/reach.py`` traces ``python -m tests.surface_calls``
to find the functions no surface enters;
``tests/core/test_reachability.py`` checks that the script and the
pages name every command and route, and runs them.
"""

from __future__ import annotations

import os
import tempfile
from typing import List

from repro.core import SrbClient
from repro.errors import SrbError
from repro.mysrb import Browser, MySrbApp
from repro.scommands import Shell
from repro.workload import standard_grid
from tests.integration.test_charge_conservation import build_fed
from tests.op_calls import op_calls, prepare

HOME = "/demozone/home/sekar"

#: every Scommand (``help`` too), in an order in which each line's
#: target exists; ``{tmp}`` is a local scratch directory
SCRIPT = [
    "Sinit sekar@sdsc secret",
    f"Scd {HOME}",
    "Spwd",
    "Smkdir sub",
    "Sput {tmp}/a.txt a.txt",
    "Sput -D 'fits image' {tmp}/h.fits h.fits",
    "Sbload {tmp}/load sub",
    "Sls -l",
    "SgetD a.txt",
    "Sget -n 1 a.txt {tmp}/out.txt",
    "Scat a.txt",
    "Sverify a.txt",
    "Smeta add a.txt colour green",
    "Smeta extract h.fits 'fits header'",
    "Sannotate -t rating a.txt five stars",
    "Squery colour = green",
    "Squery colour like gr%",
    "Sattrs",
    "Schmod grant a.txt * read",
    "Slock -e a.txt",
    "Sunlock a.txt",
    "Scheckout a.txt",
    "Scheckin a.txt {tmp}/a.txt",
    "Scp a.txt b.txt",
    "Scp sub sub2",
    "Smv sub2 sub3",
    "Smv b.txt c.txt",
    "Sln a.txt alias.txt",
    "Smeta ls alias.txt",
    "Sreplicate -R unix-caltech a.txt",
    "Ssync a.txt",
    "Sphymove -R hpss-caltech c.txt",
    "Spin -R hpss-caltech c.txt",
    "Sunpin -R hpss-caltech c.txt",
    "Srm c.txt",
    "Smkcont -R logrsrc1 box",
    "Sput -c box {tmp}/a.txt member.txt",
    "SgetD box",
    "Ssyncont box",
    "Sgarbage box",
    "Scompact box",
    "Sregister url page http://example.org/page",
    "Scat page",
    "Sregister method ps srb1 srbps -f",
    "Scat ps",
    "Sregister dir shadow unix-sdsc /outside/dir",
    "Sls shadow",
    "Scat shadow/f.txt",
    "Sstat",
    "Strace Scat a.txt",
    "Sdispatch data",
    "Smkdir empty",
    "Srmdir empty",
    "help Sput",
    "Sinit srbadmin@sdsc hunter2",
    "Saudit -a login",
    "Sdump {tmp}/catalog.json",
    "Sexit",
]

#: one GET per route, as the curator (``/newuser`` as the administrator)
PAGES = [
    "/", "/login", "/help", "/resources", "/status",
    f"/browse?path={HOME}", f"/open?path={HOME}/a.txt",
    f"/ingest?coll={HOME}", f"/ingest-bulk?coll={HOME}",
    f"/mkcoll?coll={HOME}", f"/structural?coll={HOME}",
    f"/metadata?path={HOME}/a.txt", f"/annotate?path={HOME}/a.txt",
    f"/query?scope={HOME}", f"/register?coll={HOME}",
    f"/edit?path={HOME}/a.txt", f"/op?action=copy&path={HOME}/a.txt",
    "/logout",
]
ADMIN_PAGES = ["/newuser"]
#: the form POSTs whose handling no GET reaches: a bulk ingest, a row
#: of ``mysrb.app.FORM_OPS``, and a query that shows annotations
FORMS = [
    ("/ingest-bulk", {"coll": HOME, "name1": "b1.txt", "content1": "b"}),
    ("/register/url", {"coll": HOME, "name": "site",
                       "url": "http://example.org/site"}),
    ("/query", {"scope": HOME, "attr1": "colour", "value1": "green",
                "annotations": "1"}),
]


def op_walk() -> List[str]:
    """Each op once, from the laptop; returns the ops called."""
    fed, admin = build_fed()
    calls = op_calls(admin.ticket, prepare(fed.server("srb1"), admin.ticket))
    for name, kwargs, _raises in calls:
        try:
            fed.rpc.call("laptop", "sdsc", "srb:srb1", name, **kwargs)
        except SrbError:
            pass
    return [name for name, _kwargs, _raises in calls]


def scommand_walk() -> List[str]:
    """Run :data:`SCRIPT`; returns the commands it ran."""
    grid = standard_grid()
    grid.fed.web.publish("http://example.org/page", b"a web page")
    grid.fed.resources.physical("unix-sdsc").driver.create(
        "/outside/dir/f.txt", b"a registered file")
    shell = Shell(SrbClient(grid.fed, "laptop", "srb1"))
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "load"))
        for name, data in (("a.txt", b"alpha\n"), ("load/x", b"x"),
                           ("load/y", b"y"),
                           ("h.fits", b"SIMPLE  = T\nRA      = 12.5\nEND\n")):
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        for line in SCRIPT:
            code, output = shell.run(line.format(tmp=tmp))
            assert code == 0, f"{line!r} failed: {output}"
    return [line.split()[0] for line in SCRIPT]


def page_walk() -> List[str]:
    """GET :data:`PAGES` and :data:`ADMIN_PAGES`, POST :data:`FORMS`;
    returns the routes it got."""
    grid = standard_grid()
    grid.curator.ingest(f"{HOME}/a.txt", b"alpha\n")
    grid.curator.add_metadata(f"{HOME}/a.txt", "colour", "green")
    app = MySrbApp(grid.fed)
    for pages, (user, password) in ((PAGES, ("sekar@sdsc", "secret")),
                                    (ADMIN_PAGES,
                                     ("srbadmin@sdsc", "hunter2"))):
        browser = Browser(app)
        browser.login(user, password)
        for url in pages:
            response = browser.get(url)
            assert response.code == 200, f"GET {url}: {response.status}"
    browser = Browser(app)
    browser.login("sekar@sdsc", "secret")
    for url, form in FORMS:
        response = browser.post(url, form)
        assert response.code == 200, f"POST {url}: {response.status}"
    return [url.split("?")[0] for url in PAGES + ADMIN_PAGES]


if __name__ == "__main__":
    op_walk()
    scommand_walk()
    page_walk()
