"""Scommands: the SRB command-line interface.

The SRB 1.x distribution shipped the "Scommands" (Sput, Sget, Sls, ...)
— the paper notes that "the SRB allows ingestion through command line
and API" for things MySRB did not yet expose.  This module reproduces
the command set as a :class:`Shell` bound to an :class:`SrbClient`:
every command parses a ``shlex`` line, talks to the grid through the
real client API, and returns ``(exit_code, output_text)`` — scriptable
from tests and usable interactively via ``python -m repro.scommands``.

Command summary (``help`` prints the same):

  session    Sinit Sexit Spwd Scd
  namespace  Sls Smkdir Srmdir SgetD
  data       Sput Sget Scat Srm Scp Smv Sphymove Sln
  replicas   Sreplicate Ssync Sverify
  metadata   Smeta Sannotate Squery Sattrs
  access     Schmod Saudit
  observe    Sstat Strace Sdispatch
  locking    Slock Sunlock Spin Sunpin Scheckout Scheckin
  containers Smkcont Ssyncont
  register   Sregister
"""

from __future__ import annotations

import os
import shlex
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.client import SrbClient
from repro.errors import SrbError
from repro.mcat.query import Condition, OPERATORS
from repro.util import paths


class CommandError(SrbError):
    """Bad usage of an Scommand (wrong arguments, unknown command)."""


def _usage(text: str):
    def decorator(fn):
        fn.usage = text
        return fn
    return decorator


class Shell:
    """A stateful Scommand interpreter over one SrbClient."""

    def __init__(self, client: SrbClient, cwd: Optional[str] = None):
        self.client = client
        self.cwd = cwd or f"/{client.federation.zone}"

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self, line: str) -> Tuple[int, str]:
        """Execute one command line; never raises for SRB-level errors."""
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            return 1, f"parse error: {exc}"
        if not argv:
            return 0, ""
        name, args = argv[0], argv[1:]
        if name in ("help", "Shelp"):
            return 0, self._help(args)
        handler: Optional[Callable] = getattr(self, f"cmd_{name}", None)
        if handler is None:
            return 1, f"unknown command {name!r}; try 'help'"
        try:
            output = handler(args)
            return 0, output if output is not None else ""
        except CommandError as exc:
            return 1, f"usage: {getattr(handler, 'usage', name)}\n{exc}"
        except SrbError as exc:
            return 1, f"{name}: {type(exc).__name__}: {exc}"

    def _abs(self, path: str) -> str:
        """Resolve a possibly-relative SRB path against the cwd."""
        if path.startswith("/"):
            return paths.normalize(path)
        out = self.cwd
        for part in path.split("/"):
            if part in ("", "."):
                continue
            if part == "..":
                out = paths.dirname(out) if out != "/" else "/"
            else:
                out = paths.join(out, part)
        return out

    def _help(self, args: List[str]) -> str:
        if args:
            handler = getattr(self, f"cmd_{args[0]}", None)
            if handler is None:
                return f"unknown command {args[0]!r}"
            return getattr(handler, "usage", args[0])
        names = sorted(n[len("cmd_"):] for n in dir(self)
                       if n.startswith("cmd_"))
        return "Scommands: " + " ".join(names)

    @staticmethod
    def _need(args: List[str], n: int, msg: str = "") -> None:
        if len(args) < n:
            raise CommandError(msg or f"expected at least {n} argument(s)")

    # ------------------------------------------------------------------
    # session
    # ------------------------------------------------------------------

    @_usage("Sinit <user@domain> <password>")
    def cmd_Sinit(self, args: List[str]) -> str:
        self._need(args, 2)
        self.client.login(args[0], args[1])
        return f"connected to {self.client.server_name} as {args[0]}"

    @_usage("Sexit")
    def cmd_Sexit(self, args: List[str]) -> str:
        self.client.logout()
        return "session closed"

    @_usage("Spwd")
    def cmd_Spwd(self, args: List[str]) -> str:
        return self.cwd

    @_usage("Scd <collection>")
    def cmd_Scd(self, args: List[str]) -> str:
        self._need(args, 1)
        target = self._abs(args[0])
        # validates existence + permission; one entry, not the listing
        self.client.ls_page(target, limit=1)
        self.cwd = target
        return target

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------

    @_usage("Sls [-l] [collection]")
    def cmd_Sls(self, args: List[str]) -> str:
        long_format = "-l" in args
        rest = [a for a in args if a != "-l"]
        target = self._abs(rest[0]) if rest else self.cwd
        lines = []
        for obj in self.client.iter_ls(target):
            if obj["kind"] == "collection":
                name = paths.basename(obj["path"]) + "/"
                lines.append(f"  C  {name}" if long_format else name)
            elif long_format:
                lines.append(f"  {obj['kind'][:1]}  {obj['name']:<30} "
                             f"{obj['size'] if obj['size'] is not None else '-':>10} "
                             f"{obj['owner']}")
            else:
                lines.append(str(obj["name"]))
        return "\n".join(lines)

    @_usage("Smkdir <collection>")
    def cmd_Smkdir(self, args: List[str]) -> str:
        self._need(args, 1)
        self.client.mkcoll(self._abs(args[0]))
        return ""

    @_usage("Srmdir <collection>")
    def cmd_Srmdir(self, args: List[str]) -> str:
        self._need(args, 1)
        self.client.rmcoll(self._abs(args[0]))
        return ""

    @_usage("SgetD <path>   (system metadata)")
    def cmd_SgetD(self, args: List[str]) -> str:
        self._need(args, 1)
        info = self.client.stat(self._abs(args[0]))
        lines = [f"{k}: {info[k]}" for k in
                 ("path", "kind", "data_type", "owner", "size", "version",
                  "checksum", "created_at", "modified_at")
                 if k in info]
        for rep in info.get("replicas", []):
            lines.append(f"replica {rep['replica_num']}: {rep['resource']}"
                         f":{rep['physical_path']} "
                         f"({'dirty' if rep['is_dirty'] else 'clean'})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------

    @_usage("Sput [-R resource] [-c container] [-D datatype] "
            "<localfile> <srbpath>")
    def cmd_Sput(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-R": True, "-c": True, "-D": True})
        self._need(rest, 2)
        with open(rest[0], "rb") as fh:
            data = fh.read()
        self.client.ingest(self._abs(rest[1]), data,
                           resource=opts.get("-R"),
                           container=self._abs(opts["-c"])
                           if "-c" in opts else None,
                           data_type=opts.get("-D"))
        return f"{len(data)} bytes"

    @_usage("Sbload [-R resource] [-c container] [-D datatype] "
            "<localdir> <collection>")
    def cmd_Sbload(self, args: List[str]) -> str:
        """Bulk-load every file of a local directory in one batch."""
        opts, rest = self._getopts(args, {"-R": True, "-c": True, "-D": True})
        self._need(rest, 2)
        localdir, coll = rest[0], self._abs(rest[1])
        names = sorted(n for n in os.listdir(localdir)
                       if os.path.isfile(os.path.join(localdir, n)))
        if not names:
            raise CommandError(f"no files in {localdir!r}")
        items = []
        for name in names:
            with open(os.path.join(localdir, name), "rb") as fh:
                items.append({"path": paths.join(coll, name),
                              "data": fh.read(),
                              "data_type": opts.get("-D")})
        results = self.client.bulk_ingest(
            items, resource=opts.get("-R"),
            container=self._abs(opts["-c"]) if "-c" in opts else None)
        lines = [f"{sum(1 for r in results if 'oid' in r)}/{len(items)} "
                 f"files loaded into {coll}"]
        lines += [f"  failed {r['path']}: {r['error']}"
                  for r in results if "error" in r]
        return "\n".join(lines)

    @_usage("Sget [-n replica] <srbpath> [localfile]")
    def cmd_Sget(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-n": True})
        self._need(rest, 1)
        data = self.client.get(self._abs(rest[0]),
                               replica_num=int(opts["-n"])
                               if "-n" in opts else None)
        if len(rest) > 1:
            with open(rest[1], "wb") as fh:
                fh.write(data)
            return f"{len(data)} bytes -> {rest[1]}"
        return data.decode("utf-8", "replace")

    @_usage("Scat <srbpath>")
    def cmd_Scat(self, args: List[str]) -> str:
        self._need(args, 1)
        return self.client.get(self._abs(args[0])).decode("utf-8", "replace")

    @_usage("Srm [-n replica] <srbpath>")
    def cmd_Srm(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-n": True})
        self._need(rest, 1)
        self.client.delete(self._abs(rest[0]),
                           replica_num=int(opts["-n"])
                           if "-n" in opts else None)
        return ""

    @_usage("Scp [-R resource] <src> <dst>")
    def cmd_Scp(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-R": True})
        self._need(rest, 2)
        self.client.copy(self._abs(rest[0]), self._abs(rest[1]),
                         resource=opts.get("-R"))
        return ""

    @_usage("Smv <src> <dst>")
    def cmd_Smv(self, args: List[str]) -> str:
        self._need(args, 2)
        self.client.move(self._abs(args[0]), self._abs(args[1]))
        return ""

    @_usage("Sphymove -R <resource> <srbpath>")
    def cmd_Sphymove(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-R": True})
        if "-R" not in opts:
            raise CommandError("-R <resource> is required")
        self._need(rest, 1)
        self.client.physical_move(self._abs(rest[0]), opts["-R"])
        return ""

    @_usage("Sln <target> <linkpath>")
    def cmd_Sln(self, args: List[str]) -> str:
        self._need(args, 2)
        self.client.link(self._abs(args[0]), self._abs(args[1]))
        return ""

    # ------------------------------------------------------------------
    # replicas
    # ------------------------------------------------------------------

    @_usage("Sreplicate -R <resource> <srbpath>")
    def cmd_Sreplicate(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-R": True})
        if "-R" not in opts:
            raise CommandError("-R <resource> is required")
        self._need(rest, 1)
        num = self.client.replicate(self._abs(rest[0]), opts["-R"])
        return f"replica {num}"

    @_usage("Ssync <srbpath>")
    def cmd_Ssync(self, args: List[str]) -> str:
        self._need(args, 1)
        count = self.client.synchronize(self._abs(args[0]))
        return f"{count} replica(s) refreshed"

    @_usage("Sverify <srbpath>")
    def cmd_Sverify(self, args: List[str]) -> str:
        self._need(args, 1)
        report = self.client.verify(self._abs(args[0]))
        return "\n".join(f"replica {num}: {status}"
                         for num, status in sorted(report.items()))

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    @_usage("Smeta add <path> <attr> <value> [units] | "
            "Smeta ls <path> | Smeta rm <path> <mid> | "
            "Smeta copy <src> <dst> | Smeta extract <path> <method> [sidecar]")
    def cmd_Smeta(self, args: List[str]) -> str:
        self._need(args, 2)
        sub, path = args[0], self._abs(args[1])
        if sub == "add":
            self._need(args, 4)
            mid = self.client.add_metadata(path, args[2], args[3],
                                           units=args[4]
                                           if len(args) > 4 else None)
            return f"mid {mid}"
        if sub == "ls":
            rows = self.client.get_metadata(path)
            return "\n".join(
                f"[{r['mid']}] {r['attr']} = {r['value']}"
                + (f" ({r['units']})" if r["units"] else "")
                + f"  <{r['meta_class']}>" for r in rows)
        if sub == "rm":
            self._need(args, 3)
            self.client.delete_metadata(path, int(args[2]))
            return ""
        if sub == "copy":
            self._need(args, 3)
            count = self.client.copy_metadata(path, self._abs(args[2]))
            return f"{count} triple(s) copied"
        if sub == "extract":
            self._need(args, 3)
            count = self.client.extract_metadata(
                path, args[2],
                sidecar=self._abs(args[3]) if len(args) > 3 else None)
            return f"{count} triple(s) extracted"
        raise CommandError(f"unknown subcommand {sub!r}")

    @_usage("Sannotate [-t type] [-l location] <path> <text>")
    def cmd_Sannotate(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-t": True, "-l": True})
        self._need(rest, 2)
        self.client.add_annotation(self._abs(rest[0]),
                                   opts.get("-t", "comment"),
                                   " ".join(rest[1:]),
                                   location=opts.get("-l"))
        return ""

    @_usage("Squery [-s scope] [-n max] [-p page_size] "
            "<attr> <op> <value> [attr op value ...]")
    def cmd_Squery(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-s": True, "-n": True, "-p": True})
        if len(rest) % 3 != 0 or not rest:
            raise CommandError("conditions come in (attr op value) triples")
        conditions: List[Condition] = []
        for i in range(0, len(rest), 3):
            attr, op, value = rest[i:i + 3]
            if op not in OPERATORS:
                raise CommandError(f"operator {op!r} not in {OPERATORS}")
            conditions.append(Condition(attr, op, value))
        scope = self._abs(opts["-s"]) if "-s" in opts else self.cwd
        if "-n" in opts or "-p" in opts:
            # streaming mode: pages of -p rows flow back as separate
            # replies, stopping after -n hits (0 = unlimited)
            max_hits = int(opts.get("-n", "0"))
            lines: List[str] = []
            truncated = False
            for page in self.client.iter_query_pages(
                    scope, conditions, page_size=int(opts.get("-p", "100"))):
                if not lines:
                    lines.append(" | ".join(page["columns"]))
                rows = page["rows"]
                room = max_hits - (len(lines) - 1) if max_hits else len(rows)
                lines += [" | ".join(str(v) for v in row)
                          for row in rows[:room]]
                if max_hits and room <= len(rows):
                    # full: the page in hand says whether more would follow
                    truncated = room < len(rows) \
                        or page["next_cursor"] is not None
                    break
            lines.append(f"({len(lines) - 1} hits"
                         + (", more available)" if truncated else ")"))
            return "\n".join(lines)
        result = self.client.query(scope, conditions)
        header = " | ".join(result.columns)
        lines = [header] + [" | ".join(str(v) for v in row)
                            for row in result.rows]
        lines.append(f"({len(result.rows)} hits)")
        return "\n".join(lines)

    @_usage("Sattrs [scope]   (queryable attribute names)")
    def cmd_Sattrs(self, args: List[str]) -> str:
        scope = self._abs(args[0]) if args else self.cwd
        return "\n".join(self.client.queryable_attrs(scope))

    # ------------------------------------------------------------------
    # access control
    # ------------------------------------------------------------------

    @_usage("Schmod <grant|revoke> <path> <principal> [permission]")
    def cmd_Schmod(self, args: List[str]) -> str:
        self._need(args, 3)
        sub, path, principal = args[0], self._abs(args[1]), args[2]
        if sub == "grant":
            self._need(args, 4)
            self.client.grant(path, principal, args[3])
        elif sub == "revoke":
            self.client.revoke(path, principal)
        else:
            raise CommandError("first argument must be grant or revoke")
        return ""

    @_usage("Saudit [-u principal] [-a action]")
    def cmd_Saudit(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-u": True, "-a": True})
        entries = self.client.audit_log(principal_filter=opts.get("-u"),
                                        action=opts.get("-a"))
        return "\n".join(
            f"{e['at']:10.3f} {e['principal']:<20} {e['action']:<16} "
            f"{e['target']}" + ("" if e["ok"] else "  [DENIED]")
            for e in entries)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @_usage("Sstat [prefix ...]   (grid metrics registry, e.g. Sstat net rpc)")
    def cmd_Sstat(self, args: List[str]) -> str:
        fed = self.client.federation
        rendered = fed.obs.metrics.render(prefixes=args or None)
        if args:
            return rendered or "(no matching metrics)"
        summary = "\n".join(f"{k}: {v}"
                            for k, v in sorted(fed.stats().items()))
        shard_stats = fed.mcat.shard_stats()
        if len(shard_stats) > 1 or shard_stats[0]["replicas"]:
            summary += "\n" + "\n".join(
                f"mcat shard {s['shard']}: objects={s['objects']} "
                f"busy_s={s['busy_s']:.6f} replicas={s['replicas']} "
                f"pending={s['pending']} partitioned={s['partitioned']}"
                for s in shard_stats)
        paths_seen = fed.placement.path_report()
        if paths_seen:
            def fmt(v, spec):
                return format(v, spec) if v is not None else "-"
            summary += "\n" + "\n".join(
                f"path {p['src']}->{p['dst']}: "
                f"transfers={p['transfers']} "
                f"rate_bps={fmt(p['rate_bps'], '.0f')} "
                f"latency_s={fmt(p['latency_s'], '.6f')} "
                f"failures={p['failures']} "
                f"fail_score={p['fail_score']:.3f}"
                for p in paths_seen)
        return summary + ("\n\n" + rendered if rendered else "")

    @_usage("Strace <Scommand ...>   (run a command, print its span tree "
            "and where the time went)")
    def cmd_Strace(self, args: List[str]) -> str:
        self._need(args, 1, "give the Scommand to trace")
        tracer = self.client.federation.obs.tracer
        line = " ".join(shlex.quote(a) for a in args)
        # render our own root explicitly: when Strace is nested (Strace
        # Strace ...) the inner trace is not a root, and render() with
        # no argument would fall back to some previous trace
        with tracer.trace("scommand", line=line) as root:
            code, output = self.run(line)
        tree = tracer.render(root)
        # wan is seconds waited; what relayed legs did not wait again
        # (they streamed out while the payload streamed in) goes beside it
        hidden = sum(s.attrs.get("hidden_s", 0.0) for s in root.walk())
        note = {"wan": f" (+{hidden:.4f}s hidden by relaying)"} \
            if hidden else {}
        # (+ 0.0: a remainder of -1e-17 is 0.0000, not -0.0000)
        where = "  ".join(f"{part} {round(seconds, 4) + 0.0:.4f}s"
                          + note.get(part, "")
                          for part, seconds in root.breakdown().items())
        head = output if code == 0 else f"(exit {code}) {output}"
        return (head + "\n\n" if head else "") + tree \
            + f"\ntime: {where}  of {root.duration:.4f}s"

    @_usage("Sdispatch [plane]   (connected server's op registry + policies)")
    def cmd_Sdispatch(self, args: List[str]) -> str:
        srv = self.client.federation.server(self.client.server_name)
        text = srv.dispatch.render()
        if args:
            plane = args[0]
            lines = [ln for ln in text.splitlines()
                     if ln.startswith(plane + " ")]
            if not lines:
                raise CommandError(f"no plane {plane!r} (try: auth, "
                                   "namespace, data, replica, metadata)")
            text = "\n".join(lines)
        return text

    # ------------------------------------------------------------------
    # locking / versions
    # ------------------------------------------------------------------

    @_usage("Slock [-e] <path>   (-e = exclusive)")
    def cmd_Slock(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-e": False})
        self._need(rest, 1)
        self.client.lock(self._abs(rest[0]),
                         "exclusive" if "-e" in opts else "shared")
        return ""

    @_usage("Sunlock <path>")
    def cmd_Sunlock(self, args: List[str]) -> str:
        self._need(args, 1)
        count = self.client.unlock(self._abs(args[0]))
        return f"{count} lock(s) released"

    @_usage("Spin -R <resource> <path>")
    def cmd_Spin(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-R": True})
        if "-R" not in opts:
            raise CommandError("-R <resource> is required")
        self._need(rest, 1)
        self.client.pin(self._abs(rest[0]), opts["-R"])
        return ""

    @_usage("Sunpin -R <resource> <path>")
    def cmd_Sunpin(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-R": True})
        if "-R" not in opts:
            raise CommandError("-R <resource> is required")
        self._need(rest, 1)
        self.client.unpin(self._abs(rest[0]), opts["-R"])
        return ""

    @_usage("Scheckout <path>")
    def cmd_Scheckout(self, args: List[str]) -> str:
        self._need(args, 1)
        self.client.checkout(self._abs(args[0]))
        return ""

    @_usage("Scheckin <path> [localfile]")
    def cmd_Scheckin(self, args: List[str]) -> str:
        self._need(args, 1)
        data = None
        if len(args) > 1:
            with open(args[1], "rb") as fh:
                data = fh.read()
        version = self.client.checkin(self._abs(args[0]), data)
        return f"version {version}"

    # ------------------------------------------------------------------
    # containers
    # ------------------------------------------------------------------

    @_usage("Smkcont -R <logical resource> <path>")
    def cmd_Smkcont(self, args: List[str]) -> str:
        opts, rest = self._getopts(args, {"-R": True})
        if "-R" not in opts:
            raise CommandError("-R <logical resource> is required")
        self._need(rest, 1)
        self.client.create_container(self._abs(rest[0]), opts["-R"])
        return ""

    @_usage("Ssyncont <path>")
    def cmd_Ssyncont(self, args: List[str]) -> str:
        self._need(args, 1)
        count = self.client.sync_container(self._abs(args[0]))
        return f"{count} replica(s) refreshed"

    @_usage("Scompact <path>   (rewrite container, reclaim dead space)")
    def cmd_Scompact(self, args: List[str]) -> str:
        self._need(args, 1)
        reclaimed = self.client.compact_container(self._abs(args[0]))
        return f"{reclaimed} byte(s) reclaimed"

    @_usage("Sdump <localfile>   (export the zone catalog, sysadmin only)")
    def cmd_Sdump(self, args: List[str]) -> str:
        self._need(args, 1)
        from repro.auth.users import Principal
        from repro.errors import AccessDenied
        from repro.mcat.dump import export_catalog
        fed = self.client.federation
        user = self.client.username
        if not (self.client.ticket is not None and user is not None
                and fed.users.exists(user)
                and fed.users.role_of(user) == "sysadmin"):
            raise AccessDenied(user or "public", "dump", "the catalog")
        dump = export_catalog(*(s.primary for s in fed.mcat.shards))
        with open(args[0], "w") as fh:
            fh.write(dump)
        return f"{len(dump)} bytes -> {args[0]}"

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    @_usage("Sregister file <path> <resource> <physical> | "
            "Sregister dir <path> <resource> <physicaldir> | "
            "Sregister url <path> <url> | "
            "Sregister sql <path> <resource> <sql...> [-T template] | "
            "Sregister method <path> <server> <command> [-f]")
    def cmd_Sregister(self, args: List[str]) -> str:
        self._need(args, 2)
        sub, path = args[0], self._abs(args[1])
        rest = args[2:]
        if sub == "file":
            self._need(rest, 2, "need <resource> <physical>")
            self.client.register_file(path, rest[0], rest[1])
        elif sub == "dir":
            self._need(rest, 2, "need <resource> <physicaldir>")
            self.client.register_directory(path, rest[0], rest[1])
        elif sub == "url":
            self._need(rest, 1, "need <url>")
            self.client.register_url(path, rest[0])
        elif sub == "sql":
            opts, rest2 = self._getopts(rest, {"-T": True})
            self._need(rest2, 2, "need <resource> <sql>")
            self.client.register_sql(path, rest2[0], " ".join(rest2[1:]),
                                     template=opts.get("-T", "HTMLREL"))
        elif sub == "method":
            opts, rest2 = self._getopts(rest, {"-f": False})
            self._need(rest2, 2, "need <server> <command>")
            self.client.register_method(path, rest2[0], rest2[1],
                                        proxy_function="-f" in opts)
        else:
            raise CommandError(f"unknown registration kind {sub!r}")
        return ""

    # ------------------------------------------------------------------
    # option parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _getopts(args: List[str],
                 spec: Dict[str, bool]) -> Tuple[Dict[str, str], List[str]]:
        """Tiny getopt: ``spec`` maps flag -> takes_value."""
        opts: Dict[str, str] = {}
        rest: List[str] = []
        i = 0
        while i < len(args):
            arg = args[i]
            if arg in spec:
                if spec[arg]:
                    if i + 1 >= len(args):
                        raise CommandError(f"{arg} needs a value")
                    opts[arg] = args[i + 1]
                    i += 2
                else:
                    opts[arg] = ""
                    i += 1
            else:
                rest.append(arg)
                i += 1
        return opts, rest
