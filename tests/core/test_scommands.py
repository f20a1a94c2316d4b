"""Tests for the Scommand shell."""

import pytest

from repro.core import SrbClient
from repro.mcat import Condition
from repro.scommands import Shell


@pytest.fixture
def shell(grid):
    client = SrbClient(grid.fed, "laptop", "srb1")
    sh = Shell(client)
    code, out = sh.run("Sinit sekar@sdsc secret")
    assert code == 0
    sh.run(f"Scd {grid.home}")
    return grid, sh


def ok(shell_obj, line):
    code, out = shell_obj.run(line)
    assert code == 0, f"{line!r} failed: {out}"
    return out


class TestSession:
    def test_bad_login(self, grid):
        sh = Shell(SrbClient(grid.fed, "laptop", "srb1"))
        code, out = sh.run("Sinit sekar@sdsc WRONG")
        assert code == 1
        assert "BadCredentials" in out

    def test_pwd_and_cd(self, shell):
        grid, sh = shell
        assert ok(sh, "Spwd") == grid.home
        ok(sh, "Smkdir sub")
        assert ok(sh, "Scd sub") == f"{grid.home}/sub"
        assert ok(sh, "Scd ..") == grid.home

    def test_cd_to_forbidden_fails(self, shell):
        grid, sh = shell
        code, out = sh.run("Scd /")
        assert code == 1

    def test_unknown_command(self, shell):
        grid, sh = shell
        code, out = sh.run("Sfrobnicate x")
        assert code == 1 and "unknown command" in out

    def test_help(self, shell):
        grid, sh = shell
        out = ok(sh, "help")
        assert "Sput" in out and "Squery" in out
        assert "Sput" in ok(sh, "help Sput")

    def test_empty_line(self, shell):
        grid, sh = shell
        assert sh.run("") == (0, "")

    def test_quote_handling(self, shell):
        grid, sh = shell
        ok(sh, 'Smkdir "Avian Culture"')
        assert "Avian Culture/" in ok(sh, "Sls")


class TestDataCommands:
    def test_put_get_roundtrip(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "in.txt"
        local.write_bytes(b"hello from disk")
        ok(sh, f"Sput {local} notes.txt")
        assert ok(sh, "Scat notes.txt") == "hello from disk"
        out_file = tmp_path / "out.txt"
        ok(sh, f"Sget notes.txt {out_file}")
        assert out_file.read_bytes() == b"hello from disk"

    def test_bload_directory(self, shell, tmp_path):
        grid, sh = shell
        for i in range(4):
            (tmp_path / f"f{i}.dat").write_bytes(b"payload-%d" % i)
        ok(sh, "Smkdir loaded")
        out = ok(sh, f"Sbload {tmp_path} loaded")
        assert "4/4" in out
        for i in range(4):
            assert ok(sh, f"Scat loaded/f{i}.dat") == f"payload-{i}"

    def test_bload_reports_per_file_failures(self, shell, tmp_path):
        grid, sh = shell
        (tmp_path / "dup.dat").write_bytes(b"one")
        (tmp_path / "new.dat").write_bytes(b"two")
        ok(sh, "Smkdir part")
        ok(sh, f"Sput {tmp_path / 'dup.dat'} part/dup.dat")
        out = ok(sh, f"Sbload {tmp_path} part")
        assert "1/2" in out and "dup.dat" in out and "failed" in out
        assert ok(sh, "Scat part/new.dat") == "two"

    def test_bload_one_rpc_pair(self, shell, tmp_path):
        """The point of Sbload: N files, one request/response message pair
        on the client--server link (vs 2N for a Sput loop)."""
        grid, sh = shell
        for i in range(10):
            (tmp_path / f"f{i}.dat").write_bytes(b"x")
        ok(sh, "Smkdir bulkdir")
        net = grid.fed.network
        before = net.messages_sent
        ok(sh, f"Sbload {tmp_path} bulkdir")
        # one RPC pair plus the data leg; far fewer than 2 messages/file
        assert net.messages_sent - before < 10

    def test_bload_empty_dir_is_usage_error(self, shell, tmp_path):
        grid, sh = shell
        code, out = sh.run(f"Sbload {tmp_path} .")
        assert code == 1
        assert "no files" in out

    def test_put_with_resource_and_type(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "x.txt"
        local.write_bytes(b"x")
        ok(sh, f"Sput -R logrsrc1 -D 'ascii text' {local} x.txt")
        info = ok(sh, "SgetD x.txt")
        assert "replica 1" in info and "replica 2" in info
        assert "ascii text" in info

    def test_ls_long(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"12345")
        ok(sh, f"Sput {local} f.dat")
        out = ok(sh, "Sls -l")
        assert "f.dat" in out and "5" in out and "sekar@sdsc" in out

    def test_cp_mv_rm(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"data")
        ok(sh, f"Sput {local} a.txt")
        ok(sh, "Scp a.txt b.txt")
        ok(sh, "Smv b.txt c.txt")
        assert ok(sh, "Scat c.txt") == "data"
        ok(sh, "Srm a.txt")
        code, _ = sh.run("Scat a.txt")
        assert code == 1

    def test_link(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"linked")
        ok(sh, f"Sput {local} orig.txt")
        ok(sh, "Sln orig.txt alias.txt")
        assert ok(sh, "Scat alias.txt") == "linked"

    def test_phymove(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"m")
        ok(sh, f"Sput -R unix-sdsc {local} m.txt")
        ok(sh, "Sphymove -R unix-caltech m.txt")
        assert "unix-caltech" in ok(sh, "SgetD m.txt")


class TestReplicaCommands:
    def test_replicate_sync_verify(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"r")
        ok(sh, f"Sput {local} r.txt")
        assert ok(sh, "Sreplicate -R unix-caltech r.txt") == "replica 2"
        out = ok(sh, "Sverify r.txt")
        assert out.count("ok") == 2
        ok(sh, "Ssync r.txt")

    def test_get_specific_replica(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"content")
        ok(sh, f"Sput -R logrsrc1 {local} two.txt")
        assert ok(sh, "Sget -n 2 two.txt") == "content"

    def test_replicate_needs_resource_flag(self, shell):
        grid, sh = shell
        code, out = sh.run("Sreplicate r.txt")
        assert code == 1 and "usage" in out


class TestMetadataCommands:
    def test_meta_add_ls_rm(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"x")
        ok(sh, f"Sput {local} m.txt")
        out = ok(sh, "Smeta add m.txt wingspan 1.2 m")
        mid = int(out.split()[1])
        listing = ok(sh, "Smeta ls m.txt")
        assert "wingspan = 1.2 (m)" in listing
        ok(sh, f"Smeta rm m.txt {mid}")
        assert "wingspan" not in ok(sh, "Smeta ls m.txt")

    def test_query(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"x")
        ok(sh, f"Sput {local} q.txt")
        ok(sh, "Smeta add q.txt species ibis")
        out = ok(sh, "Squery species = ibis")
        assert "q.txt" in out and "(1 hits)" in out

    def test_query_multiple_conditions(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"x")
        ok(sh, f"Sput {local} q2.txt")
        ok(sh, "Smeta add q2.txt species ibis")
        ok(sh, "Smeta add q2.txt wingspan 1.4")
        out = ok(sh, "Squery species = ibis wingspan > 1.2")
        assert "(1 hits)" in out
        out = ok(sh, "Squery species = ibis wingspan > 1.5")
        assert "(0 hits)" in out

    def test_query_bad_operator(self, shell):
        grid, sh = shell
        code, out = sh.run("Squery a ~= b")
        assert code == 1

    def test_attrs(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"x")
        ok(sh, f"Sput {local} at.txt")
        ok(sh, "Smeta add at.txt colour green")
        assert "colour" in ok(sh, "Sattrs")

    def test_annotate(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"x")
        ok(sh, f"Sput {local} an.txt")
        ok(sh, "Sannotate -t rating an.txt five stars")
        anns = grid.curator.annotations(f"{grid.home}/an.txt")
        assert anns[0]["text"] == "five stars"

    def test_meta_extract(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "h.fits"
        local.write_bytes(b"SIMPLE  = T\nRA      = 12.5\nEND\n")
        ok(sh, f"Sput -D 'fits image' {local} h.fits")
        out = ok(sh, "Smeta extract h.fits 'fits header'")
        assert "extracted" in out
        assert "RA = 12.5" in ok(sh, "Smeta ls h.fits")


class TestAdminCommands:
    def test_chmod_grant_revoke(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"s")
        ok(sh, f"Sput {local} g.txt")
        ok(sh, "Schmod grant g.txt * read")
        anon = SrbClient(grid.fed, "laptop", "srb1")
        assert anon.get(f"{grid.home}/g.txt") == b"s"
        ok(sh, "Schmod revoke g.txt *")
        from repro.errors import AccessDenied
        with pytest.raises(AccessDenied):
            anon.get(f"{grid.home}/g.txt")

    def test_audit_admin_only(self, shell):
        grid, sh = shell
        code, out = sh.run("Saudit")
        assert code == 1                      # curator cannot read audit
        admin_sh = Shell(SrbClient(grid.fed, "sdsc", "srb1"))
        admin_sh.run("Sinit srbadmin@sdsc hunter2")
        code, out = admin_sh.run("Saudit -a login")
        assert code == 0 and "sekar@sdsc" in out

    def test_lock_unlock(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"l")
        ok(sh, f"Sput {local} l.txt")
        ok(sh, "Slock -e l.txt")
        assert "1 lock(s) released" in ok(sh, "Sunlock l.txt")

    def test_checkout_checkin(self, shell, tmp_path):
        grid, sh = shell
        v1 = tmp_path / "v1"
        v1.write_bytes(b"one")
        v2 = tmp_path / "v2"
        v2.write_bytes(b"two")
        ok(sh, f"Sput {v1} v.txt")
        ok(sh, "Scheckout v.txt")
        assert ok(sh, f"Scheckin v.txt {v2}") == "version 2"
        assert ok(sh, "Scat v.txt") == "two"

    def test_container_commands(self, shell, tmp_path):
        grid, sh = shell
        grid.fed.add_logical_resource("shellres",
                                      ["unix-sdsc", "hpss-caltech"])
        ok(sh, "Smkcont -R shellres box")
        local = tmp_path / "f"
        local.write_bytes(b"member")
        ok(sh, f"Sput -c box {local} member.txt")
        assert ok(sh, "Scat member.txt") == "member"
        assert "1 replica(s) refreshed" in ok(sh, "Ssyncont box")

    def test_register_url_and_sql(self, shell):
        grid, sh = shell
        grid.fed.web.publish("http://x.org/page", b"web content")
        ok(sh, "Sregister url page http://x.org/page")
        assert ok(sh, "Scat page") == "web content"
        from repro.db import Column
        drv = grid.fed.resources.physical("dlib1").driver
        t = drv.create_user_table("vals", [Column("v", "TEXT")])
        t.insert({"v": "db-row"})
        ok(sh, "Sregister sql view dlib1 SELECT v FROM vals -T XMLREL")
        assert "db-row" in ok(sh, "Scat view")

    def test_pin_unpin(self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "f"
        local.write_bytes(b"p")
        ok(sh, f"Sput -R hpss-caltech {local} p.txt")
        ok(sh, "Spin -R hpss-caltech p.txt")
        drv = grid.fed.resources.physical("hpss-caltech").driver
        assert drv.purge_cache() == 0
        ok(sh, "Sunpin -R hpss-caltech p.txt")
        assert drv.purge_cache() == 1


class TestContainerCompaction:
    def test_scompact(self, shell, tmp_path):
        grid, sh = shell
        grid.fed.add_logical_resource("compres", ["unix-sdsc"])
        ok(sh, "Smkcont -R compres cbox")
        v1 = tmp_path / "v1"; v1.write_bytes(b"0123456789")
        v2 = tmp_path / "v2"; v2.write_bytes(b"new")
        ok(sh, f"Sput -c cbox {v1} cm.txt")
        # overwrite via checkout/checkin to exercise the update path
        ok(sh, "Scheckout cm.txt")
        ok(sh, f"Scheckin cm.txt {v2}")
        assert ok(sh, "Sgarbage cbox") == "10 byte(s) reclaimable"
        out = ok(sh, "Scompact cbox")
        assert "10 byte(s) reclaimed" in out
        assert ok(sh, "Sgarbage cbox") == "0 byte(s) reclaimable"
        assert ok(sh, "Scat cm.txt") == "new"


class TestDumpCommand:
    def test_sdump_admin_only(self, shell, tmp_path):
        grid, sh = shell
        code, out = sh.run(f"Sdump {tmp_path}/cat.json")
        assert code == 1                     # curator refused
        admin_sh = Shell(SrbClient(grid.fed, "sdsc", "srb1"))
        admin_sh.run("Sinit srbadmin@sdsc hunter2")
        code, out = admin_sh.run(f"Sdump {tmp_path}/cat.json")
        assert code == 0 and "bytes ->" in out
        # the dump round-trips
        from repro.mcat.dump import import_catalog
        restored = import_catalog((tmp_path / "cat.json").read_text())
        assert restored.zone == "demozone"
        assert restored.collection_exists(grid.home)


class TestObservability:
    def test_sstat_summary_and_prefix(self, shell):
        grid, sh = shell
        out = ok(sh, "Sstat")
        assert "messages:" in out            # federation summary
        assert "rpc.calls" in out            # metrics registry
        out = ok(sh, "Sstat net")
        assert "net.messages" in out and "rpc.calls" not in out
        assert ok(sh, "Sstat no.such.metric") == "(no matching metrics)"

    def test_strace_wraps_a_command(self, shell):
        grid, sh = shell
        out = ok(sh, f"Strace Sls {grid.home}")
        assert "scommand line=Sls" in out
        assert "rpc.call" in out and "net.transfer" in out

    def test_sstat_and_strace_keep_every_digit(self, shell, tmp_path):
        # ``:g`` printed a 4 MiB leg as bytes=4.1943e+06 and net.bytes
        # as 4.19e+06
        grid, sh = shell
        local = tmp_path / "four-mib.bin"
        local.write_bytes(b"\0" * (4 * 1024 * 1024))
        out = ok(sh, f"Strace Sput {local} {grid.home}/four-mib.bin")
        assert "e+0" not in out
        assert "payload_bytes=4194304" in out
        sent = grid.fed.obs.metrics.get("net.bytes", src="laptop", dst="sdsc")
        assert sent > 4 * 1024 * 1024
        assert f"net.bytes{{dst=sdsc,src=laptop}} {sent}" in ok(sh, "Sstat net")

    def test_strace_says_where_the_time_went(self, shell):
        grid, sh = shell
        out = ok(sh, f"Strace Sls {grid.home}")
        last = out.splitlines()[-1]
        assert last.startswith("time: admission 0.0000s  wan ")
        for part in ("storage", "catalog", "other"):
            assert f"  {part} " in last
        assert last.endswith("s") and " of " in last

    def test_strace_prints_what_a_relay_hid_beside_the_wan_time(
            self, shell, tmp_path):
        grid, sh = shell
        local = tmp_path / "one-mib.bin"
        local.write_bytes(b"\0" * (1024 * 1024))
        # laptop -> srb1 -> unix-caltech: the server relays the payload
        out = ok(sh, f"Strace Sput -R unix-caltech {local} "
                     f"{grid.home}/one-mib.bin")
        assert "relayed=True" in out and "hidden_s=" in out
        last = out.splitlines()[-1]
        hidden = grid.fed.stats()["relay_hidden_s"]
        assert hidden > 0
        assert f"s (+{hidden:.4f}s hidden by relaying)  storage " in last
        # a small command hid nothing and says nothing
        assert "hidden" not in ok(sh, f"Strace Sls {grid.home}")

    def test_strace_reports_inner_failure(self, shell):
        grid, sh = shell
        out = ok(sh, "Strace Scat /demozone/nope.dat")
        assert "(exit 1)" in out
        assert "scommand" in out             # the tree still renders

    def test_strace_needs_a_command(self, shell):
        grid, sh = shell
        code, out = sh.run("Strace")
        assert code == 1

    def test_sdispatch_lists_the_registry(self, shell):
        grid, sh = shell
        out = ok(sh, "Sdispatch")
        srv = grid.fed.server("srb1")
        for name in srv.dispatch.names():
            assert name in out
        out = ok(sh, "Sdispatch replica")
        assert "replicate" in out and "mkcoll" not in out
        code, out = sh.run("Sdispatch bogus")
        assert code == 1 and "no plane" in out

    def test_sdispatch_says_who_may_do_what(self, shell):
        """Each op shows its declared permission on its target, or that
        its handler checks for itself."""
        from repro.core.dispatch import WRITTEN_CHECKS
        grid, sh = shell
        lines = {line.split()[1]: line for line in
                 ok(sh, "Sdispatch").splitlines() if line.strip()}
        assert "need=own@entry" in lines["grant"]
        assert "need=read@collection" in lines["query"]
        assert "need=write@parent" in lines["mkcoll"]
        assert "need=" not in lines["get"]
        for name, line in lines.items():
            assert ("checks=written" in line) == (name in WRITTEN_CHECKS)
        assert "need=own@resolved checks=written" in \
            lines["extract_metadata"]
        assert "need=" not in lines["auth_login"] \
            and "checks=" not in lines["auth_login"]


#: One case per command that only forwards to one client op: ``(setup
#: lines, a good call, its output, a call missing a positional argument,
#: a call missing its required flag or None)``.  ``{local}`` is a local
#: file holding ``b"pin"``; the shell starts in the curator's home, where
#: ``pinres`` is a logical resource over unix-sdsc and hpss-caltech.
PINNED = {
    "Smkdir": ([], "Smkdir newc", "", "Smkdir", None),
    "Srmdir": (["Smkdir gone"], "Srmdir gone", "", "Srmdir", None),
    "Srm": (["Sput -R logrsrc1 {local} a.txt"], "Srm -n 1 a.txt", "",
            "Srm -n 1", None),
    "Scp": (["Sput {local} a.txt"], "Scp -R unix-caltech a.txt b.txt", "",
            "Scp -R unix-caltech a.txt", None),
    "Smv": (["Sput {local} a.txt"], "Smv a.txt c.txt", "", "Smv a.txt",
            None),
    "Sphymove": (["Sput -R unix-sdsc {local} a.txt"],
                 "Sphymove -R unix-caltech a.txt", "",
                 "Sphymove -R unix-caltech", "Sphymove a.txt"),
    "Sln": (["Sput {local} a.txt"], "Sln a.txt alias.txt", "", "Sln a.txt",
            None),
    "Sreplicate": (["Sput {local} a.txt"], "Sreplicate -R unix-caltech a.txt",
                   "replica 2", "Sreplicate -R unix-caltech",
                   "Sreplicate a.txt"),
    "Ssync": (["Sput -R logrsrc1 {local} a.txt"], "Ssync a.txt",
              "0 replica(s) refreshed", "Ssync", None),
    "Sunlock": (["Sput {local} a.txt", "Slock -e a.txt"], "Sunlock a.txt",
                "1 lock(s) released", "Sunlock", None),
    "Spin": (["Sput -R hpss-caltech {local} a.txt"],
             "Spin -R hpss-caltech a.txt", "", "Spin -R hpss-caltech",
             "Spin a.txt"),
    "Sunpin": (["Sput -R hpss-caltech {local} a.txt",
                "Spin -R hpss-caltech a.txt"],
               "Sunpin -R hpss-caltech a.txt", "", "Sunpin -R hpss-caltech",
               "Sunpin a.txt"),
    "Scheckout": (["Sput {local} a.txt"], "Scheckout a.txt", "", "Scheckout",
                  None),
    "Smkcont": ([], "Smkcont -R pinres box", "", "Smkcont -R pinres",
                "Smkcont box"),
    "Ssyncont": (["Smkcont -R pinres box", "Sput -c box {local} m.txt"],
                 "Ssyncont box", "1 replica(s) refreshed", "Ssyncont", None),
    "Scompact": (["Smkcont -R pinres box", "Sput -c box {local} m.txt",
                  "Scheckout m.txt", "Scheckin m.txt {local}"],
                 "Scompact box", "3 byte(s) reclaimed", "Scompact", None),
    "Sgarbage": (["Smkcont -R pinres box", "Sput -c box {local} m.txt",
                  "Scheckout m.txt", "Scheckin m.txt {local}"],
                 "Sgarbage box", "3 byte(s) reclaimable", "Sgarbage", None),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_forwarding_command_is_pinned(shell, tmp_path, name):
    """Name, flags, argument order, exit codes and success output stay
    as they were.  A refused call prints ``usage: <line>`` first; that
    line's wording is the one thing free to change, so only its start
    is checked here."""
    grid, sh = shell
    grid.fed.add_logical_resource("pinres", ["unix-sdsc", "hpss-caltech"])
    local = tmp_path / "local.dat"
    local.write_bytes(b"pin")
    setup, good, output, missing_arg, missing_flag = PINNED[name]
    for line in setup:
        ok(sh, line.format(local=local))
    refused = [missing_arg] + ([missing_flag] if missing_flag else [])
    for line in refused:
        code, out = sh.run(line)
        assert code == 1 and out.startswith(f"usage: {name}"), (line, out)
    assert sh.run(good) == (0, output)


def test_forwarding_command_usage_is_read_off_the_op(shell):
    grid, sh = shell
    assert ok(sh, "help Srm") == "Srm [-n replica_num] <path>   (op delete)"
    assert ok(sh, "help Sphymove") == \
        "Sphymove -R <resource> <path>   (op physical_move)"
    assert ok(sh, "help Sln") == "Sln <target> <link_path>   (op link)"
    listed = ok(sh, "help").split()
    assert set(PINNED) <= set(listed) and "Sput" in listed


class TestBadLocalInput:
    """A bad number or an unreadable local file is the caller's mistake:
    exit 1, never an exception out of the shell."""

    @pytest.mark.parametrize("line", [
        "Srm -n x f", "Sget -n x f", "Squery -n x a = b",
        "Squery -p x a = b", "Smeta rm {home} x"])
    def test_a_bad_number_prints_the_usage(self, shell, line):
        grid, sh = shell
        name = line.split()[0]
        code, out = sh.run(line.format(home=grid.home))
        assert code == 1 and out.startswith(f"usage: {name}")
        assert out.endswith("not a number: 'x'")

    def test_a_missing_local_file_is_reported(self, shell, tmp_path):
        grid, sh = shell
        missing = tmp_path / "nonexistent"
        code, out = sh.run(f"Sput {missing} x")
        assert code == 1
        assert out.startswith("Sput: FileNotFoundError: ")
        code, out = sh.run(f"Sbload {missing} .")
        assert code == 1 and out.startswith("Sbload: FileNotFoundError: ")

    def test_help_for_an_unknown_command_fails(self, shell):
        grid, sh = shell
        assert sh.run("help Sfrobnicate") == \
            (1, "unknown command 'Sfrobnicate'")


class TestStreamedCommands:
    """``Sls`` and ``Squery -n/-p`` ride the pushed stream; ``Scd`` asks
    for one entry.  What they print is what the unbounded calls gave."""

    BIG = 230

    @pytest.fixture
    def survey(self, shell):
        grid, sh = shell
        for coll, n in (("few", 5), ("big", self.BIG)):
            ok(sh, f"Smkdir {coll}")
            ok(sh, f"Smkdir {coll}/nested")
            grid.curator.bulk_ingest([
                {"path": f"{grid.home}/{coll}/o-{i:03d}.dat",
                 "data": b"x" * (1 + i % 7),
                 "metadata": {"band": "J", "n": str(i)}} for i in range(n)])
        return grid, sh

    @staticmethod
    def spent(grid, run):
        """messages, bytes on the wire and metric changes of ``run()``."""
        net, metrics = grid.fed.network, grid.fed.obs.metrics
        before = (net.messages_sent, net.bytes_sent, metrics.snapshot())
        run()
        return (net.messages_sent - before[0], net.bytes_sent - before[1],
                metrics.delta(before[2]))

    def test_sls_prints_the_unbounded_listing(self, survey):
        grid, sh = survey
        listing = grid.curator.ls(f"{grid.home}/big")
        names = [c.rsplit("/", 1)[1] + "/" for c in listing["collections"]] \
            + [o["name"] for o in listing["objects"]]
        assert len(names) == self.BIG + 1
        assert ok(sh, "Sls big") == "\n".join(names)
        long_lines = ok(sh, "Sls -l big").split("\n")
        assert long_lines[0] == "  C  nested/"
        obj = listing["objects"][0]
        assert long_lines[1] == (f"  d  {obj['name']:<30} "
                                 f"{obj['size']:>10} {obj['owner']}")
        assert len(long_lines) == self.BIG + 1

    def test_sls_is_one_request_and_a_reply_per_page(self, survey):
        grid, sh = survey
        messages, _bytes, changed = self.spent(grid, lambda: ok(sh, "Sls big"))
        assert messages == 1 + 3        # 231 entries, pages of 100
        assert not any("op=list_collection}" in k for k in changed)

    @pytest.mark.parametrize("limit,page", [(100, 100), (50, 100), (150, 100),
                                            (7, 3), (0, 64), (230, 115),
                                            (500, 100)])
    def test_squery_stream_prints_the_first_n_hits(self, survey, limit, page):
        grid, sh = survey
        full = grid.curator.query(f"{grid.home}/big",
                                  [Condition("band", "=", "J")])
        shown = full.rows[:limit] if limit else full.rows
        more = ", more available" if len(shown) < len(full.rows) else ""
        assert ok(sh, f"Squery -s big -n {limit} -p {page} band = J") == \
            "\n".join([" | ".join(full.columns)]
                      + [" | ".join(str(v) for v in row) for row in shown]
                      + [f"({len(shown)} hits{more})"])

    def test_squery_stops_on_the_page_boundary(self, survey):
        """``-n`` landing on a page boundary: the page in hand already
        says more would follow; the next one is not asked for."""
        grid, sh = survey
        messages, _bytes, changed = self.spent(
            grid, lambda: ok(sh, "Squery -s big -n 100 -p 100 band = J"))
        ops = {k: v for k, v in changed.items()
               if k.startswith("srb.ops{") and "op=query_page" in k}
        assert list(ops.values()) == [1]
        assert messages == 2

    def test_scd_does_not_fetch_the_listing(self, survey):
        grid, sh = survey
        _m, few, _c = self.spent(grid, lambda: ok(sh, "Scd few"))
        ok(sh, "Scd ..")
        _m, big, changed = self.spent(grid, lambda: ok(sh, "Scd big"))
        assert big < 2 * few
        assert not any("op=list_collection}" in k for k in changed)

    def test_scd_still_refuses_what_ls_refused(self, survey):
        grid, sh = survey
        code, out = sh.run("Scd big/o-001.dat")
        assert code == 1 and "NoSuchCollection" in out
        code, out = sh.run("Scd nowhere")
        assert code == 1 and "NoSuchCollection" in out
        grid.admin.mkcoll("/demozone/private")
        grid.fed.add_user("eve@sdsc", "pw", role="reader")
        eve = Shell(SrbClient(grid.fed, "laptop", "srb1"))
        ok(eve, "Sinit eve@sdsc pw")
        code, out = eve.run("Scd /demozone/private")
        assert code == 1 and "AccessDenied" in out
        assert ok(sh, "Spwd") == grid.home
