#!/usr/bin/env python
"""Gate benchmark wall-clock against the committed BENCH_*.json baselines.

Usage (from the repo root, after re-running the benchmarks so fresh
sidecars exist):

    python scripts/check_bench_regression.py \
        --baseline-dir baselines/ --current-dir benchmarks/ \
        benchmarks/BENCH_serving.json \
        benchmarks/BENCH_parallel_scaling.json

For each named baseline file the script finds the freshly generated
sidecar of the same name in ``--current-dir`` and compares per-test mean
wall-clock. A test whose current mean exceeds the baseline mean by more
than ``--threshold`` (default 25%) fails the gate.

Robustness rules for shared CI runners:

- Non-timing entries (no ``mean`` field, e.g. the scaling summary) are
  compared only for *presence*, never timing.
- A baseline recorded on a machine with a different core count than the
  current runner skips fan-out-labelled tests (``cores`` field in the
  summary entry) — a 1-core baseline says nothing about 4-core scaling
  and vice versa.
- Improvements are reported but never fail the gate.

When both sidecars carry per-phase wall-clock tables (stamped by
``benchmarks/conftest.py``), a regression's failure message additionally
names the phase(s) whose growth dominates the slowdown — the explainer is
:func:`explain_regression`, importable for testing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Tests whose timing depends on physical core count, gated only when the
#: baseline and current runs saw the same number of cores.
CORE_SENSITIVE = ("4workers", "8workers")


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"missing benchmark sidecar: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"unparseable benchmark sidecar {path}: {exc}")


def _timing_entries(payload: dict) -> dict:
    return {
        entry["test"]: entry
        for entry in payload.get("results", [])
        if "mean" in entry
    }


def _cores(payload: dict):
    for entry in payload.get("results", []):
        if "cores" in entry:
            return entry["cores"]
    return None


def explain_regression(base: dict, curr: dict, min_share: float = 0.15) -> str:
    """Name the phase(s) whose growth accounts for a timing regression.

    Both entries carry the cumulative per-phase wall-clock table stamped
    by ``benchmarks/conftest.py``. The explanation ranks phases by
    absolute wall-clock growth and keeps those contributing at least
    ``min_share`` of the total growth (always at least the top one), so
    a failure message reads "dominated by enum.label" instead of leaving
    the reader to re-profile. Returns "" when either side lacks a phase
    table or nothing grew.
    """
    base_phases = {p["name"]: float(p["wall"]) for p in base.get("phases", [])}
    curr_phases = {p["name"]: float(p["wall"]) for p in curr.get("phases", [])}
    if not base_phases or not curr_phases:
        return ""
    growth = []
    for name in sorted(set(base_phases) | set(curr_phases)):
        delta = curr_phases.get(name, 0.0) - base_phases.get(name, 0.0)
        if delta > 0:
            growth.append((delta, name))
    total = sum(delta for delta, _ in growth)
    if total <= 0:
        return ""
    growth.sort(reverse=True)
    culprits = []
    for delta, name in growth:
        share = delta / total
        if culprits and share < min_share:
            break
        culprits.append(
            f"{name} ({base_phases.get(name, 0.0):.4f}s -> "
            f"{curr_phases.get(name, 0.0):.4f}s, {share:.0%} of growth)"
        )
    return "phase growth dominated by " + ", ".join(culprits)


def find_duplicate_sidecars(directory: Path) -> list:
    """Sidecars violating the one-``BENCH_<name>.json``-per-bench scheme.

    The harness once keyed sidecars by raw module stem, emitting
    double-prefixed ``BENCH_bench_serving.json`` next to the committed
    ``BENCH_serving.json`` baseline — and the gate silently compared the
    stale baseline against itself. Rejected here forever: any
    double-prefixed sidecar, and any two sidecars that normalize to the
    same bench name.
    """
    offenders = []
    seen: dict = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        if name.startswith("bench_"):
            offenders.append(
                f"{path.name}: double-prefixed sidecar (the bench is named "
                f"{name[len('bench_'):]!r}; fix the harness keying)"
            )
            name = name[len("bench_"):]
        if name in seen:
            offenders.append(
                f"{path.name}: duplicates {seen[name]} for bench {name!r}"
            )
        else:
            seen[name] = path.name
    return offenders


def check_file(baseline_path: Path, current_dir: Path, threshold: float) -> list:
    baseline = _load(baseline_path)
    current = _load(current_dir / baseline_path.name)
    base_entries = _timing_entries(baseline)
    curr_entries = _timing_entries(current)
    same_cores = _cores(baseline) == _cores(current)
    failures = []
    for test, base in sorted(base_entries.items()):
        curr = curr_entries.get(test)
        if curr is None:
            failures.append(f"{baseline_path.name}: {test} missing from current run")
            continue
        if not same_cores and any(tag in test for tag in CORE_SENSITIVE):
            print(f"  SKIP {baseline_path.name}:{test} (core counts differ)")
            continue
        ratio = curr["mean"] / base["mean"] if base["mean"] > 0 else float("inf")
        verdict = "OK"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            message = (
                f"{baseline_path.name}: {test} mean {curr['mean']:.4f}s vs "
                f"baseline {base['mean']:.4f}s ({ratio:.2f}x, "
                f"budget {1.0 + threshold:.2f}x)"
            )
            explanation = explain_regression(base, curr)
            if explanation:
                message += f"; {explanation}"
            failures.append(message)
        print(
            f"  {verdict:10s} {baseline_path.name}:{test} "
            f"{base['mean'] * 1e3:8.1f}ms -> {curr['mean'] * 1e3:8.1f}ms "
            f"({ratio:.2f}x)"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baselines", nargs="+", type=Path,
                        help="committed BENCH_*.json files to gate against")
    parser.add_argument("--current-dir", type=Path, default=Path("benchmarks"),
                        help="directory holding the freshly generated sidecars")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional mean regression (0.25 = +25%%)")
    args = parser.parse_args()

    failures = list(find_duplicate_sidecars(args.current_dir))
    for baseline_path in args.baselines:
        print(f"checking {baseline_path} against {args.current_dir}/...")
        failures.extend(check_file(baseline_path, args.current_dir,
                                   args.threshold))
    if failures:
        print("\nFAIL: benchmark regression gate")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: all benchmark means within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
