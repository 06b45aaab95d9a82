#!/usr/bin/env python3
"""Compare two result files of ``run.py``, parent first.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

For every workload x end-to-end metric it prints both sides' median and
quartiles (over all samples the file's untraced runs hold: pass times,
set-up launches, one RSS reading per run), the ratio change/parent with
its base, and a verdict that uses only the bounds in ``BENCHMARK.json``:

``better``      every change sample beats every parent sample, or the median
                improved by more than the parent's own spread;
``within``      no worse than the bound allows;
``worse``       worse than the parent's median by more than the bound;
``unresolved``  the parent's spread (q3 - q1 over its median) is wider than
                the bound, so the runs cannot tell "within" from "worse".

It also says whether ``result_digest``, ``result_err`` and the count-type
layer metrics are identical on both sides (the rule that a speed-up must
not move any simulated statistic). Exit 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
#: Fewer samples than this on a side (one RSS reading, say) show no gain.
MIN_SAMPLES_TO_CLAIM = 3


def load_bounds() -> Dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def pooled_samples(result: dict) -> Dict[tuple, List[float]]:
    """``(workload, metric) -> samples`` over the file's untraced runs."""
    pooled: Dict[tuple, List[float]] = {}
    for run in result["runs"]:
        if run["trace"]:
            continue
        for metric, samples in run["samples"].items():
            pooled.setdefault((run["workload"], metric), []).extend(samples)
    return pooled


def quartiles(samples: List[float]) -> tuple:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(quantiles(samples, n=4))


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    # Flip higher-is-better metrics so that smaller is better throughout.
    sign = 1.0 if better == "lower" else -1.0
    parent = [sign * x for x in parent]
    change = [sign * x for x in change]
    q1, mid, q3 = quartiles(parent)
    worse_by = (median(change) - mid) / abs(mid)
    spread = (q3 - q1) / abs(mid)
    enough = min(len(parent), len(change)) >= MIN_SAMPLES_TO_CLAIM
    if enough and max(change) < min(parent):
        return "better"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if enough and -worse_by > spread:
        return "better"
    return "within"


def identical_statistics(parent: dict, change: dict) -> List[str]:
    """One line per workload: are the simulated statistics the same?"""
    def keyed(result):
        out: Dict[tuple, dict] = {}
        for run in result["runs"]:
            counts = {n: m["value"] for n, m in run["metrics"].items()
                      if run["trace"] and m["unit"] == "count"}
            out[(run["workload"], run["seed"], run["trace"])] = {
                "digest": run["result_digest"], "err": run["result_err"],
                "counts": counts}
        return out

    a, b = keyed(parent), keyed(change)
    lines = []
    for key in sorted(set(a) & set(b)):
        same = a[key] == b[key]
        diff = [f for f in ("digest", "err", "counts") if a[key][f] != b[key][f]]
        lines.append(f"  {key[0]:18s} seed={key[1]} trace={key[2]}: "
                     + ("identical" if same else "DIFFERENT " + ",".join(diff)))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    bounds = load_bounds()
    a, b = pooled_samples(parent), pooled_samples(change)
    print(f"parent {parent['manifest']['git_sha'][:12]}  "
          f"change {change['manifest']['git_sha'][:12]}")
    print(f"{'workload':18s} {'metric':12s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'ratio (base: parent median)':>28s}  verdict")
    worse = 0
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        spec = bounds[metric]
        result = verdict(a[key], b[key], spec["better"], spec["bound"])
        worse += result == "worse"
        p, c = quartiles(a[key]), quartiles(b[key])
        ratio = f"{c[1] / p[1]:.3f} of {p[1]:.4g} {spec['unit']}"
        print(f"{workload:18s} {metric:12s} "
              f"{p[0]:>10.4g}/{p[1]:>10.4g}/{p[2]:>10.4g} "
              f"{c[0]:>10.4g}/{c[1]:>10.4g}/{c[2]:>10.4g} {ratio:>28s}  "
              f"{result} (bound {spec['bound']:.0%}, n={len(a[key])}/{len(b[key])})")
    print("simulated statistics (result_digest, result_err, count-type layer metrics):")
    print("\n".join(identical_statistics(parent, change)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
