"""Scommands: the SRB command-line interface.

The SRB 1.x distribution shipped the "Scommands" (Sput, Sget, Sls, ...)
— the paper notes that "the SRB allows ingestion through command line
and API" for things MySRB did not yet expose.  This module reproduces
the command set as a :class:`Shell` bound to an :class:`SrbClient`:
every command parses a ``shlex`` line, talks to the grid through the
real client API, and returns ``(exit_code, output_text)`` — scriptable
from tests and usable interactively via ``python -m repro.scommands``.

Command summary (``help`` lists the names, ``help <cmd>`` its usage):

  session    Sinit Sexit Spwd Scd
  namespace  Sls Smkdir Srmdir SgetD
  data       Sput Sbload Sget Scat Srm Scp Smv Sphymove Sln
  replicas   Sreplicate Ssync Sverify
  metadata   Smeta Sannotate Squery Sattrs
  access     Schmod Saudit Sdump
  observe    Sstat Strace Sdispatch
  locking    Slock Sunlock Spin Sunpin Scheckout Scheckin
  containers Smkcont Ssyncont Scompact Sgarbage
  register   Sregister

A command that only forwards to one client op is a row of
:data:`FORWARDS`, not a method: ``name → (op, {flag: parameter}, output
format)``.  Everything else about it is read off the op's signature on
:class:`SrbClient` — the one generated from its handler's ``@rpc_op``
declaration — so a parameter added in the handler reaches the shell
with no edit here:

* the op's required parameters that no flag binds are the positional
  arguments, in order, each an SRB path resolved against the cwd;
* a flag is required exactly when its parameter has no default;
* a flag's value is converted by its parameter's annotation (``int``);
* the usage line (``help <cmd>``) is derived from the same signature and
  names the op.

Only commands that compose calls or format their own output are written
as ``cmd_<name>`` methods; ``tools/lint_dispatch.py`` (rule 10) refuses
a written one that merely forwards.
"""

from __future__ import annotations

import functools
import inspect
import os
import shlex
from typing import Dict, List, Mapping, Optional, Tuple, get_args

from repro.core.client import SrbClient
from repro.errors import AccessDenied, SrbError
from repro.mcat.query import Condition, OPERATORS
from repro.util import paths


class CommandError(SrbError):
    """Bad usage of an Scommand (wrong arguments, unknown command)."""


def _usage(text: str):
    def decorator(fn):
        fn.usage = text
        return fn
    return decorator


#: the commands that forward to one client op: name -> (op, {flag:
#: parameter}, output format of the op's result)
FORWARDS: Dict[str, Tuple[str, Dict[str, str], str]] = {
    "Smkdir": ("mkcoll", {}, ""),
    "Srmdir": ("rmcoll", {}, ""),
    "Srm": ("delete", {"-n": "replica_num"}, ""),
    "Scp": ("copy", {"-R": "resource"}, ""),
    "Smv": ("move", {}, ""),
    "Sphymove": ("physical_move", {"-R": "resource"}, ""),
    "Sln": ("link", {}, ""),
    "Sreplicate": ("replicate", {"-R": "resource"}, "replica {}"),
    "Ssync": ("synchronize", {}, "{} replica(s) refreshed"),
    "Sunlock": ("unlock", {}, "{} lock(s) released"),
    "Spin": ("pin", {"-R": "resource"}, ""),
    "Sunpin": ("unpin", {"-R": "resource"}, ""),
    "Scheckout": ("checkout", {}, ""),
    "Smkcont": ("create_container", {"-R": "logical_resource"}, ""),
    "Ssyncont": ("sync_container", {}, "{} replica(s) refreshed"),
    "Scompact": ("compact_container", {}, "{} byte(s) reclaimed"),
    "Sgarbage": ("container_garbage", {}, "{} byte(s) reclaimable"),
}


@functools.lru_cache(maxsize=None)
def _signature(name: str) -> Tuple[Mapping[str, inspect.Parameter], List[str]]:
    """The parameters of a :data:`FORWARDS` row's op, and the names of
    those that are its positional arguments."""
    op, flags, _ = FORWARDS[name]
    params = inspect.signature(getattr(SrbClient, op), eval_str=True).parameters
    return params, [p for p, spec in params.items() if spec.default is spec.empty
                    and p not in ("self", *flags.values())]


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CommandError(f"not a number: {text!r}") from None


class Shell:
    """A stateful Scommand interpreter over one SrbClient."""

    def __init__(self, client: SrbClient, cwd: Optional[str] = None):
        self.client = client
        self.cwd = cwd or f"/{client.federation.zone}"

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self, line: str) -> Tuple[int, str]:
        """Execute one command line; never raises for SRB-level errors,
        bad arguments or a local file that cannot be read or written."""
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            return 1, f"parse error: {exc}"
        if not argv:
            return 0, ""
        name, args = argv[0], argv[1:]
        if name in ("help", "Shelp"):
            return self._help(args)
        if not self._known(name):
            return 1, f"unknown command {name!r}; try 'help'"
        try:
            output = self._forward(name, args) if name in FORWARDS \
                else getattr(self, f"cmd_{name}")(args)
            return 0, output if output is not None else ""
        except CommandError as exc:
            return 1, f"usage: {self._usage_line(name)}\n{exc}"
        except (SrbError, OSError) as exc:
            return 1, f"{name}: {type(exc).__name__}: {exc}"

    def _known(self, name: str) -> bool:
        return name in FORWARDS or hasattr(self, f"cmd_{name}")

    def _forward(self, name: str, args: List[str]) -> str:
        """Run a :data:`FORWARDS` row (module docstring)."""
        op, flags, output = FORWARDS[name]
        params, positional = _signature(name)
        opts, rest = self._getopts(args, dict.fromkeys(flags, True))
        kwargs = {}
        for flag, param in flags.items():
            spec = params[param]
            if flag in opts:
                kwargs[param] = _int(opts[flag]) if int in (
                    spec.annotation, *get_args(spec.annotation)) else opts[flag]
            elif spec.default is spec.empty:
                raise CommandError(f"{flag} <{param}> is required")
        self._need(rest, len(positional))
        kwargs.update(zip(positional, map(self._abs, rest)))
        return output.format(getattr(self.client, op)(**kwargs))

    def _usage_line(self, name: str) -> str:
        if name not in FORWARDS:
            return getattr(getattr(self, f"cmd_{name}"), "usage", name)
        op, flags, _ = FORWARDS[name]
        params, positional = _signature(name)
        words = [f"{flag} <{param}>" if params[param].default is
                 params[param].empty else f"[{flag} {param}]"
                 for flag, param in flags.items()]
        return " ".join([name, *words, *(f"<{p}>" for p in positional)]) \
            + f"   (op {op})"

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

    def _help(self, args: List[str]) -> Tuple[int, str]:
        if args:
            if not self._known(args[0]):
                return 1, f"unknown command {args[0]!r}"
            return 0, self._usage_line(args[0])
        names = sorted([n[len("cmd_"):] for n in dir(self)
                        if n.startswith("cmd_")] + list(FORWARDS))
        return 0, "Scommands: " + " ".join(names)

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
                               replica_num=_int(opts["-n"])
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

    # ------------------------------------------------------------------
    # replicas
    # ------------------------------------------------------------------

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
            self.client.delete_metadata(path, _int(args[2]))
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
            max_hits = _int(opts.get("-n", "0"))
            page_size = _int(opts.get("-p", "100"))
            lines: List[str] = []
            truncated = False
            for page in self.client.iter_query_pages(
                    scope, conditions, page_size=page_size):
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
    # catalog export
    # ------------------------------------------------------------------

    @_usage("Sdump <localfile>   (export the zone catalog, sysadmin only)")
    def cmd_Sdump(self, args: List[str]) -> str:
        self._need(args, 1)
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
        words = iter(args)
        for arg in words:
            if arg not in spec:
                rest.append(arg)
            elif not spec[arg]:
                opts[arg] = ""
            elif (value := next(words, None)) is None:
                raise CommandError(f"{arg} needs a value")
            else:
                opts[arg] = value
        return opts, rest
