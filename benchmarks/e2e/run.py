#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                      # every workload, both runs
    python3 benchmarks/e2e/run.py --quick              # 1 pass at 1/10 volume
    python3 benchmarks/e2e/run.py --workload figs-dense --seed 3 --seconds 15 --trace 0

Each workload runs in a fresh subprocess (``child.py``) whose environment has
every ``REPRO_*`` variable removed, BLAS pinned to one thread and
``PYTHONPATH`` pointing at ``src/``, so the production defaults are what is
measured. An untraced run (``--trace 0``) gives the end-to-end metrics:
``setup_s`` from several fresh set-up-only launches whose CPU time is read
from outside, ``pass_s`` / ``work_per_s`` from the timed passes,
``peak_rss_mb`` from the child. Both times are CPU seconds scaled by the
reference loop of ``calibrate.py`` run just before and after, which is what
makes them repeat on a shared host. A traced run (``--trace 1``) gives the
per-layer metrics.

With ``--workload`` the last line of standard output is the one JSON object
``BENCHMARK.json``'s contract asks for. Without it, every workload runs
untraced and traced, the tables are printed and one result file is written
(``--out``, default ``benchmarks/e2e/results/e2e-<sha>-seed<N>.json``) for
``compare.py``. Exit codes: 2 when the benchmark could not run (nothing is
printed on standard output then); with ``--workload`` otherwise 0, the JSON
line's ``correct`` telling whether the checks passed; without it 1 when a
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from calibrate import calibrated, reference_slice  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

#: Fresh launches behind ``setup_s`` (one under ``--quick``).
SETUP_LAUNCHES = 3
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: One thread for every BLAS/OpenMP pool numpy or scipy may start.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result (exit code 2)."""


def child_env() -> tuple:
    """The child's environment and the names scrubbed from ours."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in scrubbed}
    env.update(PINNED_ENV)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env, scrubbed


def children_cpu_s() -> float:
    """CPU seconds of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(env: dict, workload: str, seed: int, mode: str, extra=()) -> str:
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, *extra]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload} ({mode}) did not finish in {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} ({mode}) exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout


def five_numbers(samples: list) -> dict:
    """n, min, quartiles, max. With n < 2 the quartiles are the sample."""
    ordered = sorted(samples)
    q1, q2, q3 = quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"n": len(ordered), "min": ordered[0], "q1": q1, "median": q2,
            "q3": q3, "max": ordered[-1]}


def run_workload(workload: str, seed: int, trace: int, args) -> dict:
    """One contract run: a record with ``metrics``, ``samples`` and ``checks``."""
    env, _ = child_env()
    extra = ["--quick"] if args.quick else []
    launch_cpu, launch_wall, slices = [], [], []
    if not trace:
        slices.append(reference_slice())
        for _ in range(1 if args.quick else SETUP_LAUNCHES):
            t0, c0 = perf_counter(), children_cpu_s()
            run_child(env, workload, seed, "setup", extra)
            launch_cpu.append(children_cpu_s() - c0)
            launch_wall.append(perf_counter() - t0)
            slices.append(reference_slice())
    if args.quick:
        extra += ["--passes", "1"]
    elif args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    else:
        extra += ["--passes", str(args.passes)]
    if trace:
        RESULTS.mkdir(exist_ok=True)
        extra += ["--spans", str(RESULTS / f"spans-{workload}.json")]
    stdout = run_child(env, workload, seed, "trace" if trace else "measure", extra)
    child = json.loads(stdout.strip().splitlines()[-1])

    if trace:
        tables, values, samples, raw = PER_LAYER, child["layers"], {}, {}
        if set(values) != set(tables):
            raise BenchmarkError(
                f"layer metrics differ from metrics.PER_LAYER: "
                f"{sorted(set(values) ^ set(tables))}")
    else:
        tables = END_TO_END
        samples = {
            "pass_s": child["pass_s"],
            "work_per_s": [child["work"] / s for s in child["pass_s"]],
            "setup_s": calibrated(launch_cpu, slices),
            "peak_rss_mb": [child["peak_rss_mb"]],
        }
        values = {name: median(s) for name, s in samples.items()}
        # What the calibrated times were made from; the wall times are what
        # this host happened to take, steal included.
        raw = {
            "pass_cpu_s": child["pass_cpu_s"], "pass_wall_s": child["pass_wall_s"],
            "pass_reference_s": child["reference_s"],
            "setup_cpu_s": launch_cpu, "setup_wall_s": launch_wall,
            "setup_reference_s": slices,
        }
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "metrics": {name: {"value": values[name], "unit": tables[name][0]}
                    for name in tables},
        "samples": samples, "raw": raw,
        "checks": child["checks"],
        "result_digest": child["result_digest"],
        "result_err": child["result_err"],
        "sizes": child["sizes"], "work": child["work"],
        "runtime": child["runtime"],
    }


def contract_line(record: dict) -> str:
    failed = sum(not c["ok"] for c in record["checks"])
    return json.dumps({
        "correct": failed == 0, "attempted": len(record["checks"]),
        "failed": failed, "metrics": record["metrics"],
    })


def describe(record: dict) -> str:
    """The human-readable block printed above the contract line."""
    failed = [c for c in record["checks"] if not c["ok"]]
    lines = [
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"checks {len(record['checks']) - len(failed)}/{len(record['checks'])} ok, "
        f"result_err {record['result_err']:.6g}, "
        f"result_digest {record['result_digest'][:16]}"
    ]
    lines += [f"  FAILED {c['name']}: {c['detail']}" for c in failed]
    for name, metric in record["metrics"].items():
        if record["trace"] and not metric["value"]:
            continue  # a layer this workload never enters
        line = f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}"
        if name in record["samples"]:
            five = five_numbers(record["samples"][name])
            line += ("   n={n} min={min:.4g} q1={q1:.4g} median={median:.4g} "
                     "q3={q3:.4g} max={max:.4g}".format(**five))
        lines.append(line)
    for name in ("pass_cpu_s", "pass_wall_s", "setup_cpu_s", "setup_wall_s"):
        if record["raw"].get(name):
            lines.append(f"  ({name} median {median(record['raw'][name]):.4g} s, "
                         "uncalibrated)")
    return "\n".join(lines)


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def manifest(args, records: list) -> dict:
    _, scrubbed = child_env()
    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "quick": args.quick,
        "passes": 1 if args.quick else args.passes, "seconds": args.seconds,
        "setup_launches": 1 if args.quick else SETUP_LAUNCHES,
        "pinned_env": PINNED_ENV, "scrubbed_env": scrubbed,
        "runtime": records[0]["runtime"],
        "sizes": {r["workload"]: r["sizes"] for r in records},
    }


def write_result_file(path: Path, args, records: list) -> None:
    """Write (or extend) one result file; all its runs share one commit."""
    payload = {"schema": 1, "manifest": manifest(args, records), "runs": records}
    if path.exists():
        previous = json.loads(path.read_text())
        for key in ("git_sha", "quick", "sizes"):
            if previous["manifest"][key] != payload["manifest"][key]:
                raise BenchmarkError(
                    f"{path} holds runs with another {key}; a result file is "
                    "one set of runs of one commit, so write this one elsewhere")
        payload["runs"] = previous["runs"] + records
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=5,
                        help="timed passes per run (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --passes: time passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="1 pass at 1/10 volume; every check and the traced "
                             "pass still run")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (without --workload); extended if it exists")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "repro").is_dir():
            raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
        if args.workload is not None:
            record = run_workload(args.workload, args.seed, args.trace, args)
            print(describe(record))
            print(contract_line(record))
            return 0
        records = []
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                records.append(run_workload(workload, args.seed, trace, args))
                print(describe(records[-1]), flush=True)
        out = args.out or RESULTS / f"e2e-{git_sha()[:12]}-seed{args.seed}.json"
        write_result_file(out, args, records)
        print(f"wrote {out}")
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    return 1 if any(not c["ok"] for r in records for c in r["checks"]) else 0


if __name__ == "__main__":
    sys.exit(main())
