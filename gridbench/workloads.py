"""The six workloads.  Names are fixed: later issues cite them.

A workload owns its seeded inputs and knows how to build its grid
(:meth:`Workload.setup`, timed as ``setup_s``), run one round of client
calls through a :class:`~gridbench.measure.Meter` and check every output.
A *pass* is the deterministic unit the virtual-clock metrics are taken
over: ``rounds_per_pass`` rounds, on a fresh grid when
``fresh_per_pass`` is set.  Inputs differ from pass to pass (same
distribution, other keys), so a cache cannot learn the benchmark.

``scale`` shrinks every size for ``--smoke``; the driver always runs at 1.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional

from repro.mcat.query import Condition
from repro.mysrb import Browser, MySrbApp

from gridbench import inputs
from gridbench.measure import FAILED, Meter
from gridbench.topology import HOME, PASSWORD, USER, Grid, build_grid

KIB, MIB = 1 << 10, 1 << 20


def scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


class Workload:
    name = "?"
    item = "?"                # what items_per_s counts
    rounds_per_pass = 1
    fresh_per_pass = False    # rebuild the grid for every pass
    setups = 3                # set-ups timed (where the grid is built once)

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.grid: Optional[Grid] = None
        self.on_build: Callable[[Any], None] = lambda fed: None
        # (path, expected sha256) of objects the rounds claim to have
        # written, checked by audit() after the pass's counters are read
        self.written: List[tuple] = []

    def build(self) -> Grid:
        self.grid = build_grid()
        self.on_build(self.grid.fed)
        return self.grid

    def rng(self, *scope: object):
        return inputs.stream(self.seed, self.name, *scope)

    def setup(self) -> None:
        """Build the grid and populate it (timed as ``setup_s``)."""
        self.build()

    def round(self, meter: Meter, pass_no: int, round_no: int) -> None:
        raise NotImplementedError

    def audit(self, meter: Meter) -> None:
        """Untimed read-back of a sample of what the pass wrote: every
        replica passes ``client.verify`` and ``get`` returns the bytes."""
        client = self.grid.client
        for path, digest in self.written:
            try:
                report = client.verify(path)
                ok = bool(report) and all(v == "ok" for v in report.values())
            except Exception as exc:     # counted as a failed check
                report, ok = repr(exc), False
            meter.verify(ok, f"verify {path}: {report}")
            try:
                ok = inputs.sha256(client.get(path)) == digest
            except Exception:
                ok = False
            meter.verify(ok, f"read-back {path}: wrong content")
        self.written = []

    # -- helpers shared by several workloads --------------------------------

    def checked_get(self, meter: Meter, path: str, digest: str,
                    items: int = 1, **kwargs: Any) -> None:
        data = meter.call("get", self.grid.client.get, path, **kwargs)
        if data is not FAILED:
            meter.done(items, len(data))
            meter.expect(inputs.sha256(data) == digest,
                         f"get {path}: sha256 mismatch")


# ---------------------------------------------------------------------------

class SmallWrite(Workload):
    name = "small_write"
    item = "object mutated"
    fresh_per_pass = True
    SIZE = 4 * KIB

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        unit = scaled(100, scale)
        self.counts = {"ingest": 4 * unit, "put": unit,
                       "add_metadata": 4 * unit, "delete": unit}

    def round(self, meter: Meter, pass_no: int, round_no: int) -> None:
        rng = self.rng(pass_no)
        client, home = self.grid.client, self.grid.home
        names = inputs.unique_names(rng, self.counts["ingest"], ".dat")
        live: List[str] = []            # paths that exist right now
        digest: Dict[str, str] = {}
        pending = iter(names)
        for op in inputs.write_mix(rng, self.counts):
            if op == "ingest":
                path = f"{home}/{next(pending)}"
                data = rng.randbytes(self.SIZE)
                out = meter.call("ingest", client.ingest, path, data)
                if out is not FAILED:
                    live.append(path)
                    digest[path] = inputs.sha256(data)
                    meter.done(1, len(data))
            elif op == "put":
                path = live[rng.randrange(len(live))]
                data = rng.randbytes(self.SIZE)
                if meter.call("put", client.put, path, data) is not FAILED:
                    digest[path] = inputs.sha256(data)
                    meter.done(1, len(data))
            elif op == "add_metadata":
                path = live[rng.randrange(len(live))]
                out = meter.call("add_metadata", client.add_metadata, path,
                                 f"attr{rng.randrange(8)}",
                                 str(rng.randrange(10 ** rng.randint(1, 6))))
                if out is not FAILED:
                    meter.done(1)
            else:
                path = live.pop(rng.randrange(len(live)))
                if meter.call("delete", client.delete, path) is not FAILED:
                    meter.done(1)
        self.written += [(p, digest[p])
                         for p in rng.sample(live, min(5, len(live)))]


class SmallRead(Workload):
    name = "small_read"
    item = "object or row returned"
    setups = 6
    SIZE = 4 * KIB
    PAGE = 100

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.objects = scaled(2000, scale, floor=20)
        unit = scaled(150, scale)
        self.counts = {"get": 6 * unit, "stat": 2 * unit,
                       "get_metadata": unit, "ls_page": unit}
        rng = self.rng("population")
        self.names = inputs.unique_names(rng, self.objects, ".dat")
        self.contents = [rng.randbytes(self.SIZE) for _ in self.names]
        self.digests = [inputs.sha256(c) for c in self.contents]
        self.attrs = [{"shelf": str(rng.randrange(100)),
                       "weight": f"{rng.uniform(0, 50):.2f}"}
                      for _ in self.names]

    def setup(self) -> None:
        grid = self.build()
        self.coll = f"{grid.home}/library"
        grid.client.mkcoll(self.coll)
        items = [{"path": f"{self.coll}/{n}", "data": c, "metadata": a}
                 for n, c, a in zip(self.names, self.contents, self.attrs)]
        for start in range(0, len(items), 500):
            results = grid.client.bulk_ingest(items[start:start + 500])
            if not all("oid" in r for r in results):
                raise RuntimeError("small_read population failed")
        self.cursor: Optional[str] = None

    def round(self, meter: Meter, pass_no: int, round_no: int) -> None:
        rng = self.rng(pass_no)
        client = self.grid.client
        for op in inputs.interleave(rng, self.counts):
            i = inputs.skewed_index(rng, self.objects)
            path = f"{self.coll}/{self.names[i]}"
            if op == "get":
                self.checked_get(meter, path, self.digests[i])
            elif op == "stat":
                info = meter.call("stat", client.stat, path)
                if info is not FAILED:
                    meter.done(1)
                    meter.expect(info["size"] == self.SIZE
                                 and info["checksum"] == self.digests[i],
                                 f"stat {path}: wrong size or checksum")
            elif op == "get_metadata":
                rows = meter.call("get_metadata", client.get_metadata, path)
                if rows is not FAILED:
                    meter.done(len(rows))
                    got = {r["attr"]: r["value"] for r in rows}
                    meter.expect(got == self.attrs[i],
                                 f"get_metadata {path}: {got}")
            else:
                page = meter.call("ls_page", client.ls_page, self.coll,
                                  limit=self.PAGE, cursor=self.cursor)
                if page is not FAILED:
                    meter.done(len(page["objects"]))
                    last = page["next_cursor"] is None
                    meter.expect(
                        len(page["objects"]) == self.PAGE or last,
                        f"ls_page: short page of {len(page['objects'])}")
                    self.cursor = page["next_cursor"]


class CatalogLoad(Workload):
    name = "catalog_load"
    item = "catalog row inserted"
    fresh_per_pass = True
    rounds_per_pass = 12
    BATCH = 500
    COLLECTIONS_PER_ROUND = 2
    ROWS_PER_OBJECT = 7       # object + replica + five metadata triples

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.batch = scaled(self.BATCH, scale, floor=5)
        self.per_round = self.batch * self.COLLECTIONS_PER_ROUND

    def setup(self) -> None:
        grid = self.build()
        self.root = f"{grid.home}/survey"
        grid.client.mkcoll(self.root)
        for k in range(self.rounds_per_pass * self.COLLECTIONS_PER_ROUND):
            grid.client.mkcoll(f"{self.root}/field-{k:02d}")

    def round(self, meter: Meter, pass_no: int, round_no: int) -> None:
        rng = self.rng(pass_no, round_no)
        client = self.grid.client
        files = inputs.survey_files(rng, self.per_round)
        first = round_no * self.COLLECTIONS_PER_ROUND
        for b in range(self.COLLECTIONS_PER_ROUND):
            coll = f"{self.root}/field-{first + b:02d}"
            chunk = files[b * self.batch:(b + 1) * self.batch]
            results = meter.call("bulk_ingest", client.bulk_ingest,
                                 inputs.bulk_items(coll, chunk))
            if results is not FAILED:
                good = sum(1 for r in results if "oid" in r)
                meter.done(good * self.ROWS_PER_OBJECT,
                           sum(len(f.content) for f in chunk))
                meter.expect(good == len(chunk),
                             f"bulk_ingest: {len(chunk) - good} items failed")
        probe = rng.randrange(len(files))
        self.written.append(
            (f"{self.root}/field-{first + probe // self.batch:02d}/"
             f"{files[probe].name}", inputs.sha256(files[probe].content)))


class CatalogQuery(Workload):
    name = "catalog_query"
    item = "result row returned"
    COLLECTIONS = 48
    PAGE = 100
    RANGE_ATTRS = ("RA", "DEC", "JMAG")

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.objects = scaled(8000, scale, floor=96)
        rng = self.rng("population")
        files = inputs.survey_files(rng, self.objects)
        self.root = f"{HOME}/survey"
        self.by_coll: Dict[str, list] = {}
        for i, f in enumerate(files):
            self.by_coll.setdefault(
                f"field-{i % self.COLLECTIONS:02d}", []).append(f)
        # ground truth, in the path order the catalog returns rows in,
        # with the range attributes already as numbers
        self.truth = sorted(
            (f"{self.root}/{coll}/{f.name}",
             dict(f.attributes, **{k: float(f.attributes[k])
                                   for k in self.RANGE_ATTRS}))
            for coll, members in self.by_coll.items() for f in members)
        self.ranked = {attr: sorted(a[attr] for _p, a in self.truth)
                       for attr in self.RANGE_ATTRS}

    def setup(self) -> None:
        client = self.build().client
        client.mkcoll(self.root)
        for coll, files in sorted(self.by_coll.items()):
            client.mkcoll(f"{self.root}/{coll}")
            results = client.bulk_ingest(
                inputs.bulk_items(f"{self.root}/{coll}", files))
            if not all("oid" in r for r in results):
                raise RuntimeError("catalog_query population failed")

    def expected(self, predicate: Callable[[Dict[str, str]], bool]
                 ) -> List[str]:
        return [path for path, attrs in self.truth if predicate(attrs)]

    def round(self, meter: Meter, pass_no: int, round_no: int) -> None:
        rng = self.rng(pass_no)
        client = self.grid.client

        def band(attr: str, share: float):
            """A range on ``attr`` holding ``share`` of the catalog: the
            offset is seeded, the width is set by rank, so every seed
            selects the same number of rows (ties aside)."""
            ranked = self.ranked[attr]
            count = int(len(ranked) * share)
            start = rng.randrange(len(ranked) - count)
            lo, hi = ranked[start], ranked[start + count]
            return ([Condition(attr, ">=", str(lo)),
                     Condition(attr, "<", str(hi))],
                    lambda a: lo <= a[attr] < hi)

        def run_query(conditions, predicate):
            result = meter.call("query", client.query, self.root, conditions)
            if result is not FAILED:
                meter.done(len(result.rows))
                want = self.expected(predicate)
                meter.expect([r[0] for r in result.rows] == want,
                             f"query: {len(result.rows)} rows, "
                             f"expected {len(want)}")

        def selective(attr: str, equal_attr: str, equal_to: str):
            conditions, in_range = band(attr, 1 / 6)
            run_query(conditions + [Condition(equal_attr, "=", equal_to)],
                      lambda a: in_range(a) and a[equal_attr] == equal_to)

        # two selective conjunctions: range AND equality
        selective("JMAG", "FIELD", str(rng.randrange(inputs.SURVEY_FIELDS)))
        selective("DEC", "NIGHT",
                  f"1999-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
        # one broad range: a third of the sky
        run_query(*band("RA", 1 / 3))

        # two first pages of a broad condition
        for _ in range(2):
            conditions, predicate = band("JMAG", 1 / 3)
            page = meter.call("query_page", client.query_page, self.root,
                              conditions, limit=self.PAGE)
            if page is not FAILED:
                meter.done(len(page["rows"]))
                want = self.expected(predicate)
                meter.expect(
                    [r[0] for r in page["rows"]] == want[:self.PAGE]
                    and (page["next_cursor"] is None)
                    == (len(want) <= self.PAGE),
                    f"query_page: wrong first page of {len(want)} rows")

        # one full drain through the streaming cursor; 0.28 of the
        # catalog is 4.5 pages, so ties can never add or drop a page
        conditions, predicate = band("JMAG", 0.28)
        rows = meter.call(
            "iter_query", lambda: list(client.iter_query(
                self.root, conditions, page_size=500)))
        if rows is not FAILED:
            meter.done(len(rows))
            want = self.expected(predicate)
            meter.expect([r[0] for r in rows] == want,
                         f"iter_query: {len(rows)} rows, "
                         f"expected {len(want)}")

        # a listing cursor followed past its first page
        coll = f"field-{rng.randrange(self.COLLECTIONS):02d}"
        size = len(self.by_coll[coll])
        cursor, seen = None, 0
        for _ in range(2):
            page = meter.call("ls_page", client.ls_page,
                              f"{self.root}/{coll}", limit=self.PAGE,
                              cursor=cursor)
            if page is FAILED:
                break
            got = len(page["objects"])
            meter.done(got)
            want = min(self.PAGE, size - seen)
            seen += got
            cursor = page["next_cursor"]
            meter.expect(got == want and (cursor is None) == (seen == size),
                         f"ls_page {coll}: page of {got}, {seen}/{size} seen")
            if cursor is None:
                seen = 0                # exhausted: list again from the top


class LargeXfer(Workload):
    name = "large_xfer"
    item = "MiB of user payload"
    fresh_per_pass = True
    SIZE = 4 * MIB

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.size = scaled(self.SIZE, scale, floor=64 * KIB)
        self.mib = max(1, self.size // MIB)    # items credited per object
        # drawing 20 MiB of random bytes per pass would take longer than
        # moving them through the grid: draw once, restamp per pass
        rng = self.rng("pool")
        self.pool = [rng.randbytes(self.size) for _ in range(5)]

    def round(self, meter: Meter, pass_no: int, round_no: int) -> None:
        rng = self.rng(pass_no)
        client, home = self.grid.client, self.grid.home
        names = inputs.unique_names(rng, 4, ".cube")
        paths = [f"{home}/{n}" for n in names]
        stamp = rng.randbytes(64)
        blobs = [stamp + blob[len(stamp):] for blob in self.pool]
        digests = [inputs.sha256(b) for b in blobs]

        # disk + tape fan-out; replica 1 = unix-sdsc, 2 = hpss-caltech
        for path, blob in zip(paths, blobs):
            out = meter.call("ingest", client.ingest, path, blob,
                             resource="logrsrc1")
            if out is not FAILED:
                meter.done(self.mib, len(blob))
        # reads through the far server: two from the disk copy, then the
        # archive copy of the newest object (still in the HSM cache) and
        # of the oldest (migrated: stage + tape mount)
        client.connect("srb2")
        try:
            self.checked_get(meter, paths[1], digests[1], self.mib)
            self.checked_get(meter, paths[2], digests[2], self.mib)
            self.checked_get(meter, paths[3], digests[3], self.mib,
                             replica_num=2)
            self.checked_get(meter, paths[0], digests[0], self.mib,
                             replica_num=2)
        finally:
            client.connect("srb1")
        for path in paths[:2]:
            out = meter.call("replicate", client.replicate, path,
                             "unix-caltech")
            if out is not FAILED:
                meter.done(self.mib, self.size)
        fresh = blobs[4]
        if meter.call("put", client.put, paths[2], fresh) is not FAILED:
            meter.done(self.mib, len(fresh))
            digests[2] = digests[4]
        out = meter.call("synchronize", client.synchronize, paths[2])
        if out is not FAILED:
            meter.done(self.mib, self.size)
            meter.expect(out >= 1, "synchronize refreshed no replica")
        self.written += [(paths[0], digests[0]), (paths[2], digests[2])]


class MySrbSession(Workload):
    name = "mysrb_session"
    item = "page rendered"
    setups = 6
    SESSIONS_PER_ROUND = 8
    PAGE = 100

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.sessions = scaled(self.SESSIONS_PER_ROUND, scale)
        # the collection is not scaled: its listing must outgrow one page
        rng = self.rng("population")
        self.texts = inputs.unique_names(rng, 200, ".txt")
        self.images = inputs.unique_names(rng, 40, ".fits")
        self.subcolls = [f"shelf-{i:02d}" for i in range(20)]
        self.links = [f"link-{n}" for n in self.texts[:20]]
        self.methods = [f"srbps-{i:02d}" for i in range(10)]
        self.boxes = [f"box-{i:02d}" for i in range(10)]
        self.creators = [rng.choice(("sekar", "wan", "moore"))
                         for _ in self.texts]
        self.bodies = [self.text_body(rng, n) for n in self.texts]

    @staticmethod
    def text_body(rng, name: str) -> bytes:
        return (f"species = {name.split('-')[0]}\n"
                f"wingspan = {rng.uniform(0.2, 2.5):.2f}\n"
                f"notes = field notes {rng.randrange(10 ** 6)}\n").encode()

    def setup(self) -> None:
        grid = self.build()
        client = grid.client
        self.coll = f"{grid.home}/Cultures"
        client.mkcoll(self.coll)
        client.add_metadata(self.coll, "theme", "avian cultures")
        for name in self.subcolls:
            client.mkcoll(f"{self.coll}/{name}")
        for name, body, creator in zip(self.texts, self.bodies,
                                       self.creators):
            path = f"{self.coll}/{name}"
            client.ingest(path, body, data_type="ascii text")
            client.add_metadata(path, "Title", f"Notes {name}",
                                meta_class="type", schema_name="dublin-core")
            client.add_metadata(path, "Creator", creator,
                                meta_class="type", schema_name="dublin-core")
        rng = self.rng("images")
        for name in self.images:
            client.ingest(f"{self.coll}/{name}", rng.randbytes(2 * KIB),
                          data_type="fits image")
        for name, target in zip(self.links, self.texts):
            client.link(f"{self.coll}/{target}", f"{self.coll}/{name}")
        for name in self.methods:
            client.register_method(f"{self.coll}/{name}", "srb1", "srbps",
                                   proxy_function=True)
        for name in self.boxes:
            client.create_container(f"{self.coll}/{name}", "logrsrc1")
        self.app = MySrbApp(grid.fed)
        self.listing = sorted(self.texts + self.images + self.links
                              + self.methods + self.boxes)

    def round(self, meter: Meter, pass_no: int, round_no: int) -> None:
        for s in range(self.sessions):
            self.session(meter, self.rng(pass_no, s), f"{pass_no}-{s}")

    def page(self, meter: Meter, step: str, send: Callable, *args: Any,
             expect: List[str]) -> str:
        """One browser request; the final page must be a 200 that shows
        every expected string."""
        response = meter.call(step, send, *args)
        if response is FAILED:
            return ""
        meter.done(1, len(response.body))
        text = response.text
        missing = [s for s in expect if s not in text]
        meter.expect(response.code == 200 and not missing,
                     f"{step}: status {response.code}, missing {missing}")
        return text

    def session(self, meter: Meter, rng, tag: str) -> None:
        browser = Browser(self.app)
        coll_q = self.coll.replace(" ", "%20")
        self.page(meter, "page_login", browser.login, USER, PASSWORD,
                  expect=[USER])
        # Figure 1: the split-window main page of the collection
        main = self.page(meter, "page_browse", browser.get,
                         f"/browse?path={coll_q}",
                         expect=['class="top-pane"', "avian cultures",
                                 self.subcolls[0], self.listing[0],
                                 "Ingest a file"])
        more = re.search(r'class="next-page" href="([^"]+)"', main)
        if meter.expect(more is not None, "page_browse: no next-page link"):
            self.page(meter, "page_browse", browser.get,
                      more.group(1).replace("&amp;", "&"),
                      expect=['class="bottom-pane"'])
        pick = rng.randrange(len(self.texts))
        self.page(meter, "page_open", browser.get,
                  f"/open?path={self.coll}/{self.texts[pick]}",
                  expect=[f"Notes {self.texts[pick]}",
                          self.bodies[pick].decode().splitlines()[1]])
        creator = rng.choice(("sekar", "wan", "moore"))
        hit = min(n for n, c in zip(self.texts, self.creators)
                  if c == creator)
        self.page(meter, "page_query", browser.post, "/query",
                  {"scope": self.coll, "attr1": "Creator", "op1": "=",
                   "value1": creator, "show1": "on"},
                  expect=[hit, creator])
        # Figure 2: the ingestion form with Dublin Core attributes
        self.page(meter, "page_ingest", browser.get,
                  f"/ingest?coll={coll_q}",
                  expect=["Dublin Core attributes", 'name="dc:Title"',
                          "User-defined attributes"])
        name = f"zz-upload-{tag}-{rng.randrange(10 ** 6)}.txt"
        body = self.text_body(rng, name).decode()
        self.page(meter, "page_ingest", browser.post, "/ingest",
                  {"coll": self.coll, "name": name, "content": body,
                   "data_type": "ascii text", "resource": "unix-sdsc",
                   "container": "(none)", "dc:Title": f"Upload {tag}",
                   "dc:Creator": "bench", "uname1": "session",
                   "uvalue1": tag, "uunits1": ""},
                  expect=[f"Upload {tag}", body.splitlines()[0]])
        # the T-language extractor for the object's data type
        self.page(meter, "page_extract", browser.post, "/metadata",
                  {"path": f"{self.coll}/{name}",
                   "extract_method": "properties"},
                  expect=["wingspan", "species"])
        self.page(meter, "page_annotate", browser.post, "/annotate",
                  {"path": f"{self.coll}/{name}", "ann_type": "comment",
                   "text": f"checked in session {tag}", "location": ""},
                  expect=[f"checked in session {tag}"])


WORKLOADS = {w.name: w for w in (SmallWrite, SmallRead, CatalogLoad,
                                 CatalogQuery, LargeXfer, MySrbSession)}

#: every op kind a workload passes to Meter.call (per-op latency metrics)
OP_KINDS = ("ingest", "put", "add_metadata", "delete", "get", "stat",
            "get_metadata", "ls_page", "bulk_ingest", "query", "query_page",
            "iter_query", "replicate", "synchronize", "page_login",
            "page_browse", "page_open", "page_query", "page_ingest",
            "page_extract", "page_annotate")
