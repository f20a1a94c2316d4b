"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest gridbench/tests -q`` from the
repository root (not part of the tier-1 ``testpaths``).
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

import gridbench  # noqa: E402

gridbench.use_repo_sources()

from gridbench import compare, tracing  # noqa: E402
from gridbench.runner import run_workload  # noqa: E402
from gridbench.workloads import WORKLOADS  # noqa: E402

SPEC = gridbench.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gridbench", *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


# -- the declaration --------------------------------------------------------

def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["gridbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert m["better"] in ("higher", "lower")
        assert UNIT.match(m["unit"]), m
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_no_federation_behaviour_knob_is_passed_anywhere():
    """The benchmark measures what a user gets by default."""
    calls = 0
    for folder, _dirs, files in os.walk(os.path.join(ROOT, "gridbench")):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", "")
                        ) == "Federation":
                    calls += 1
                    assert not node.args, name
                    assert [k.arg for k in node.keywords] == ["zone"], name
    assert calls == 1       # the one grid builder in topology.py


# -- running it -------------------------------------------------------------

def test_smoke_suite_exits_zero_and_emits_every_declared_metric(tmp_path):
    out = tmp_path / "results.json"
    proc = run_cli("--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = json.loads(out.read_text())
    for w in SPEC["workloads"]:
        run = results["workloads"][w["name"]]["runs"][0]
        assert run["correct"] and run["failed"] == 0
        assert list(run["metrics"]) == [
            m["name"] for m in SPEC["end_to_end"]]
        assert all(v["value"] > 0 for v in run["metrics"].values())
        assert all(v > 0 for v in run["details"]["timing"].values())
        traced = results["traced"][w["name"]]
        assert traced["correct"]
        assert list(traced["metrics"]) == [
            m["name"] for m in SPEC["per_layer"]]
        # the layer table accounts for the traced calls on both clocks
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        d = traced["details"]
        wall = sum(m[f"{l}.self_us_per_op"] for l in tracing.LAYERS)
        virt = sum(m[f"{l}.virt_self_s_per_op"] for l in tracing.LAYERS)
        assert wall == pytest.approx(d["traced_call_us_per_op"], rel=0.05)
        assert virt == pytest.approx(d["traced_virt_s_per_op"], rel=1e-9)
        assert os.path.exists(os.path.join(ROOT, d["trace_file"]))


def test_driver_mode_prints_the_result_object_last():
    proc = run_cli("--workload", "small_write", "--seed", "5",
                   "--seconds", "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
    assert run_cli("--workload", "nope").returncode != 0


def test_one_seed_gives_identical_model_outputs_and_counts():
    a = run_workload("small_write", 11, 0.1, False, scale=0.05)
    b = run_workload("small_write", 11, 0.1, False, scale=0.05)
    c = run_workload("small_write", 12, 0.1, False, scale=0.05)
    for name in ("py_calls_per_op", "virt_s_per_op", "virt_p99_s",
                 "wan_bytes_per_op"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    assert a["details"]["input_digest"] == b["details"]["input_digest"]
    assert a["details"]["input_digest"] != c["details"]["input_digest"]
    assert a["details"]["op_counts"] == c["details"]["op_counts"]


# -- tracing ----------------------------------------------------------------

def test_entry_point_table_resolves_against_src():
    found = tracing.resolve_entrypoints()
    assert {layer for layer, *_ in found} == set(tracing.LAYERS)
    assert len(found) > 150


def test_a_renamed_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "LAYER_ENTRYPOINTS", (
        ("wire", "repro.net.wire", None, ("message_size", "size_of")),))
    with pytest.raises(LookupError, match="size_of"):
        tracing.resolve_entrypoints()
    monkeypatch.setattr(tracing, "LAYER_ENTRYPOINTS", (
        ("db", "repro.db.table", "Tabel", ("insert",)),))
    with pytest.raises(LookupError, match="Tabel"):
        tracing.resolve_entrypoints()


def test_wrappers_are_fully_restored_after_a_traced_run():
    def references():
        held = {(id(owner), name): vars(owner)[name]
                for _layer, owner, name, _label in
                tracing.resolve_entrypoints()}
        for mod_name, module in list(sys.modules.items()):
            if module is not None and (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                for attr, value in vars(module).items():
                    if callable(value):
                        held[(mod_name, attr)] = value
        return held

    before = references()
    result = run_workload("small_read", 3, 0.1, True, scale=0.05)
    assert result["correct"]
    after = references()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_install_undoes_itself_when_the_table_is_broken(monkeypatch):
    from repro.net import rpc, wire
    monkeypatch.setattr(tracing, "LAYER_ENTRYPOINTS", (
        ("wire", "repro.net.wire", None, ("message_size",)),
        ("db", "repro.db.table", "Table", ("no_such_method",)),))
    original = wire.message_size
    with pytest.raises(LookupError):
        tracing.install(tracing.Recorder())
    assert wire.message_size is original and rpc.message_size is original


# -- compare ----------------------------------------------------------------

def side(value, run_spread=0.0, pass_spread=0.0, runs=3):
    return {"median": {"m": value}, "run_spread": {"m": run_spread},
            "pass_spread": {"m": pass_spread}, "runs": [None] * runs}


@pytest.mark.parametrize("better,a,b,verdict", [
    ("lower", side(100), side(105), "ok"),
    ("lower", side(100), side(120), "REGRESSED"),
    ("lower", side(100), side(80), "improved"),
    ("higher", side(100), side(80), "REGRESSED"),
    ("higher", side(100), side(120), "improved"),
    ("lower", side(100, run_spread=0.2), side(150), "unresolved"),
    ("lower", side(100, pass_spread=0.2, runs=1), side(150, runs=1),
     "unresolved"),
    ("lower", side(100, pass_spread=0.2), side(150), "REGRESSED"),
])
def test_compare_verdicts(better, a, b, verdict):
    metric = {"name": "m", "unit": "us", "better": better, "bound": 0.1}
    assert compare.judge(metric, a, b, True)["verdict"] == verdict


def test_compare_holds_model_outputs_exact_for_equal_seeds():
    metric = {"name": "m", "unit": "virt_s", "better": "lower",
              "bound": 0.02}
    a, b = side(1.0), side(1.001)
    assert compare.judge(metric, a, a, True)["verdict"] == "identical"
    assert compare.judge(metric, a, b, True)["verdict"] == "REGRESSED"
    assert compare.judge(metric, a, b, False)["verdict"] == "ok"
