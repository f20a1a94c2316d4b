"""What is bound once when a grid is built, and what a new grid forgets.

A server and its planes carry the federation's shared components as plain
attributes (``planes.base.Wired``): nothing rebinds one after
``Federation.__init__``, so a forwarding ``@property`` per read bought
nothing.  The process-wide memos (paths, wire sizes) are the other thing
"remembered"; every new ``Federation`` starts them empty.
"""

import importlib.util
import pathlib

from repro.core.client import SrbClient
from repro.core.federation import Federation
from repro.core.planes.base import WIRING
from repro.net import wire
from repro.net.simnet import Network
from repro.util import paths

ROOT = pathlib.Path(__file__).resolve().parents[2]


def two_zones():
    net = Network()
    a = Federation(zone="sdsc-zone", network=net)
    b = Federation(zone="npaci-zone", network=net)
    for fed, site in ((a, "sdsc"), (b, "npaci")):
        for n in (1, 2):
            fed.add_host(f"{site}-h{n}", site=site)
            fed.add_server(f"{site}-srb{n}", f"{site}-h{n}", mcat=n == 1)
            fed.add_fs_resource(f"{site}-disk{n}", f"{site}-h{n}")
        fed.default_resource = f"{site}-disk1"
    a.bootstrap_admin()
    b.bootstrap_admin("admin-b@npaci", "pw-b")
    a.federate_with(b)
    return a, b


def test_every_server_and_plane_holds_its_federations_own_objects():
    a, b = two_zones()
    assert set(WIRING) == {"mcat", "users", "authority", "resources",
                           "access", "locks", "containers", "network",
                           "obs", "clock"}
    for fed in (a, b):
        assert len(fed.servers) == 2
        for server in fed.servers.values():
            for holder in (server, *server.planes):
                assert holder.federation is fed
                for name in WIRING:
                    assert getattr(holder, name) is getattr(fed, name), \
                        (type(holder).__name__, name)
            for plane in server.planes:
                assert plane.server is server and plane.host == server.host
    # the zones share a network and clock and nothing else
    assert a.server("sdsc-srb1").clock is b.server("npaci-srb1").clock
    assert a.server("sdsc-srb1").mcat is not b.server("npaci-srb1").mcat


def test_now_is_still_read_off_the_clock():
    a, _b = two_zones()
    server = a.server("sdsc-srb2")
    a.clock.advance(12.5)
    assert server.now == server.data.now == a.clock.now == 12.5


def test_a_new_federation_starts_with_every_memo_empty():
    a, _b = two_zones()
    admin = SrbClient(a, "sdsc-h2", "sdsc-srb2", "srbadmin@sdsc", "hunter2")
    admin.login()
    admin.mkcoll("/sdsc-zone/home")
    admin.ingest("/sdsc-zone/home/x.dat", b"x" * 64)
    assert admin.stat("/sdsc-zone/home/x.dat")["size"] == 64
    memos = (paths.split, paths.normalize, paths.dirname)
    assert all(memo.cache_info().currsize for memo in memos)
    assert wire._key_shapes and wire._frozen_sizes
    Federation()
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]
    assert not wire._key_shapes and not wire._frozen_sizes


def load_lint():
    spec = importlib.util.spec_from_file_location(
        "lint_dispatch", ROOT / "tools" / "lint_dispatch.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lint_refuses_a_property_that_only_forwards(tmp_path, monkeypatch):
    lint = load_lint()
    assert lint.check_no_forwarding_properties() == []
    bad = tmp_path / "base.py"
    bad.write_text(
        "class PlaneService:\n"
        "    @property\n"
        "    def mcat(self):\n"
        "        '''The catalog.'''\n"
        "        return self.federation.mcat\n"
        "    @property\n"
        "    def host(self):\n"
        "        return self.server.host\n"
        "    @property\n"
        "    def now(self):\n"
        "        return self.clock.now\n"
        "    @property\n"
        "    def mcat_server(self):\n"
        "        return next(iter(self.federation.servers.values()))\n")
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    monkeypatch.setattr(lint, "WIRED_FILES", (bad,))
    errors = lint.check_no_forwarding_properties()
    assert len(errors) == 2
    assert "'mcat'" in errors[0] and "'host'" in errors[1]


def test_lint_refuses_a_client_method_that_only_forwards(tmp_path,
                                                         monkeypatch):
    lint = load_lint()
    assert lint.check_no_plain_client_forwards() == []
    bad = tmp_path / "client.py"
    bad.write_text(
        "class SrbClient:\n"
        "    def mkcoll(self, path):\n"
        "        return self._call('mkcoll', ticket=self.ticket, path=path)\n"
        "    def stat(self, path):\n"
        "        '''Object or collection info.'''\n"
        "        return self._call('stat', ticket=self.ticket, path=path)\n"
        "    def ls(self, path):\n"
        "        return self._call('list_collection', path=path)\n"
        "    def revoke(self, path, principal):\n"
        "        return self._call('revoke', path=path,\n"
        "                          principal_str=principal)\n"
        "    def put(self, path, data):\n"
        "        return self._call('put', path=path, data=self._defer(data))\n"
        "    def unlock(self, path):\n"
        "        self.ticket = None\n"
        "        return self._call('unlock', path=path)\n")
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    monkeypatch.setattr(lint, "CLIENT_FILE", bad)
    errors = lint.check_no_plain_client_forwards()
    assert len(errors) == 2
    assert "'mkcoll'" in errors[0] and "'stat'" in errors[1]


def test_lint_refuses_a_scommand_that_only_forwards(tmp_path, monkeypatch):
    lint = load_lint()
    assert lint.check_no_forwarding_scommands() == []
    bad = tmp_path / "shell.py"
    bad.write_text(
        "class Shell:\n"
        "    def cmd_Smkdir(self, args):\n"
        "        '''Make a collection.'''\n"
        "        self._need(args, 1)\n"
        "        self.client.mkcoll(self._abs(args[0]))\n"
        "        return ''\n"
        "    def cmd_Sreplicate(self, args):\n"
        "        opts, rest = self._getopts(args, {'-R': True})\n"
        "        if '-R' not in opts:\n"
        "            raise CommandError('-R <resource> is required')\n"
        "        num = self.client.replicate(self._abs(rest[0]), opts['-R'])\n"
        "        return f'replica {num}'\n"
        "    def cmd_Srm(self, args):\n"
        "        opts, rest = self._getopts(args, {'-n': True})\n"
        "        return self.client.delete(self._abs(rest[0]), replica_num=\n"
        "            _int(opts['-n']) if '-n' in opts else None)\n"
        "    def cmd_Sinit(self, args):\n"
        "        self.client.login(args[0], args[1])\n"
        "        return f'connected as {args[0]}'\n"
        "    def cmd_Scat(self, args):\n"
        "        return self.client.get(self._abs(args[0])).decode()\n"
        "    def cmd_Slock(self, args):\n"
        "        opts, rest = self._getopts(args, {'-e': False})\n"
        "        self.client.lock(self._abs(rest[0]),\n"
        "                         'exclusive' if '-e' in opts else 'shared')\n"
        "        return ''\n"
        "    def cmd_Sannotate(self, args):\n"
        "        opts, rest = self._getopts(args, {'-t': True})\n"
        "        self.client.add_annotation(self._abs(rest[0]),\n"
        "                                   opts.get('-t', 'comment'),\n"
        "                                   ' '.join(rest[1:]))\n"
        "        return ''\n"
        "    def cmd_Scheckin(self, args):\n"
        "        data = None\n"
        "        return f'version {self.client.checkin(args[0], data)}'\n")
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    monkeypatch.setattr(lint, "SHELL_FILE", bad)
    errors = lint.check_no_forwarding_scommands()
    assert len(errors) == 3
    assert ["cmd_Smkdir" in errors[0], "cmd_Sreplicate" in errors[1],
            "cmd_Srm" in errors[2]] == [True] * 3


def test_lint_refuses_a_declared_check_made_again(tmp_path, monkeypatch):
    lint = load_lint()
    assert lint.check_declared_checks_not_repeated() == []
    planes = tmp_path / "planes"
    planes.mkdir()
    (planes / "data.py").write_text(
        "class DataService:\n"
        "    @rpc_op('lock', scope_arg='path', write=True, need='write',\n"
        "            target='object')\n"
        "    def lock(self, ctx, path):\n"
        "        self.access.require_object(ctx.principal, ctx.target,\n"
        "                                   'write')\n"
        "    @rpc_op('rmcoll', scope_arg='path', need='own',\n"
        "            target='collection')\n"
        "    def rmcoll(self, ctx, path):\n"
        "        self.access.require_collection(ctx.principal, path, 'own')\n"
        "    @rpc_op('annotations', scope_arg='path', need='read',\n"
        "            target='entry')\n"
        "    def annotations(self, ctx, path):\n"
        "        self.access.require_entry(ctx.principal, ctx.target[2],\n"
        "                                  path='x', wanted='read')\n"
        "    @rpc_op('extract', scope_arg='path', need='own',\n"
        "            target='resolved')\n"
        "    def extract(self, ctx, path, sidecar):\n"
        "        self.access.require_object(ctx.principal, sidecar, 'read')\n"
        "    @rpc_op('move', scope_arg='src', write=True)\n"
        "    def move(self, ctx, src, dst):\n"
        "        self.access.require_collection(ctx.principal, src, 'own')\n")
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    monkeypatch.setattr(lint, "PLANES_DIR", planes)
    errors = lint.check_declared_checks_not_repeated()
    assert len(errors) == 3
    assert ["'lock'" in errors[0], "'rmcoll'" in errors[1],
            "'annotations'" in errors[2]] == [True] * 3
