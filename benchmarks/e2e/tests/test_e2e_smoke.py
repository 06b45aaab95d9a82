"""Smoke test of the benchmark harness itself (not part of tier-1).

    python -m pytest benchmarks/e2e/tests -q

One ``run.py --quick`` over all four workloads (about 20 s) feeds every
assertion on its output; the rest checks the harness against
``BENCHMARK.json`` and the contract's refusal case.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(E2E))
from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = _run(E2E / "run.py", "--quick", "--seed", 7, "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text())


def test_benchmark_json_mirrors_the_metric_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert "setup_s" in END_TO_END and len(PER_LAYER) <= 128
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert UNIT.fullmatch(entry.get("unit", "s")), entry
        assert len(entry.get("why", "")) <= 200


def test_every_workload_reports_every_metric_with_its_unit(result):
    _, data = result
    runs = {(r["workload"], r["trace"]): r for r in data["runs"]}
    assert set(runs) == {(w, t) for w in WORKLOAD_NAMES for t in (0, 1)}
    for (workload, trace), run in runs.items():
        table = PER_LAYER if trace else END_TO_END
        assert set(run["metrics"]) == set(table), workload
        for name, metric in run["metrics"].items():
            assert metric["unit"] == table[name][0]
            assert isinstance(metric["value"], (int, float))
        if not trace:
            assert all(m["value"] > 0 for m in run["metrics"].values()), workload


def test_checks_pass_and_the_trace_covers_the_pass(result):
    _, data = result
    for run in data["runs"]:
        failed = [c for c in run["checks"] if not c["ok"]]
        assert run["checks"] and not failed, (run["workload"], failed)
        if run["trace"]:
            layers = {n: m["value"] for n, m in run["metrics"].items()}
            assert layers["trace.coverage"] >= 0.90, run["workload"]
            assert layers["trace.unattributed_s"] >= 0.0
    serve = next(r for r in data["runs"] if r["workload"] == "serve-shard")
    assert serve["result_err"] == 0.0


def test_layer_predictions(result):
    _, data = result
    layers = {r["workload"]: {n: m["value"] for n, m in r["metrics"].items()}
              for r in data["runs"] if r["trace"]}
    share = {w: layers[w]["connectivity.tracker.busy_s"]
             / layers[w]["simulation.engine.busy_s"] for w in ("figs-dense", "figs-sparse")}
    assert share["figs-dense"] > share["figs-sparse"] > 0
    for name, value in layers["analytic-optimize"].items():
        if name.startswith(("simulation.", "connectivity.", "serving.", "sharding.")):
            assert value == 0, name
    assert layers["analytic-optimize"]["analytic.cache.hit_ratio"] > 0
    assert layers["serve-shard"]["serving.reassignments"] >= 1


def test_manifest_names_what_ran(result):
    _, data = result
    manifest = data["manifest"]
    for key in ("git_sha", "nproc", "runtime", "sizes", "pinned_env",
                "scrubbed_env", "passes"):
        assert key in manifest
    assert manifest["pinned_env"]["OMP_NUM_THREADS"] == "1"
    assert set(manifest["runtime"]) >= {"python", "numpy", "scipy", "numba",
                                        "enumeration_backend"}
    assert set(manifest["sizes"]) == set(WORKLOAD_NAMES)


def test_compare_accepts_a_file_against_itself(result):
    out, _ = result
    done = _run(E2E / "compare.py", out, out)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout
    assert "DIFFERENT" not in done.stdout


def test_contract_line_for_one_workload():
    done = _run(E2E / "run.py", "--quick", "--workload", "analytic-optimize",
                "--seed", 11, "--trace", 0)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert set(line["metrics"]) == set(END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / "benchmarks" / "e2e" / "run.py", "--workload",
                "figs-sparse", "--seed", 1, "--seconds", 1, "--trace", 0,
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
