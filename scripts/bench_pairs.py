#!/usr/bin/env python3
"""Parent/change pairs of the repo benchmark, judged by choosing-metrics §8.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload figs-dense --seeds 101-110 [--seconds 18]

For every seed it runs ``benchmarks/e2e/run.py --workload W --seed S
--seconds N --trace 0`` once in each checkout, as a subprocess of that
checkout, alternating which side goes first, and reads the final JSON line
of each run plus the ``result_digest <hex>`` that ``run.py`` prints above it.
It prints every pair (with ``digest equal`` or ``DIGEST DIFFERS``: a change
that claims to leave results alone must show the first on every pair) and,
per end-to-end metric, both sides' median and quartiles, the pairs the
change won, and the verdict:

``gain``     the change won at least nine tenths of all pairs run (ties
             count for neither side) **and** its median beats the parent's
             by more than the parent's own interquartile range;
``no gain``  anything else — including ten wins out of ten that sit inside
             the parent's spread.

A run that reports ``failed`` > 0 is listed and voids every verdict. The
summary ends with ``digests equal on k/n pairs``. The metric directions
come from ``PARENT_DIR/BENCHMARK.json``. Timing claims
need a quiet machine, so this is a tool to run by hand, not a CI job.

``--record PR --claim METRIC`` (``--claim`` repeats) also appends one row
per claimed metric to the committed perf record, ``BENCH_trajectory.json``
at the root of the repo this script is in; nothing else writes that file.
A row holds the PR, both checkouts' commits (``null`` for a directory
that is not a git checkout), the workload, the metric, both sides'
median and quartiles, the pairs won and lost, the verdict, the seeds,
the run length, the cores and CPU model the pairs ran on, and how many
pairs had equal digests. Rows taken from prose before the record existed
carry ``"source": "CHANGES.md"`` and ``null`` where it gave no figure.
Exit codes: 0 the pairs ran, 2 a run produced no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence

#: Share of all pairs run the change must win before a gain is claimed.
WIN_SHARE = 0.9

#: The committed perf record ``--record`` appends to.
TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_trajectory.json"


def parse_seeds(text: str) -> List[int]:
    """``"101-104,110"`` -> ``[101, 102, 103, 104, 110]``."""
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def spread(samples: Sequence[float]) -> tuple:
    """``(median, q1, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = quantiles(samples, n=4)
    return median(samples), q1, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> dict:
    """Judge paired samples (``parent[i]`` ran beside ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    lost = sum(sign * c > sign * p for p, c in zip(parent, change))
    p_mid, p_q1, p_q3 = spread(parent)
    gap = sign * (p_mid - median(change))  # > 0: the change is better
    return {
        "pairs": len(parent), "won": won, "lost": lost,
        "parent": (p_mid, p_q1, p_q3), "change": spread(change),
        "gap": gap, "parent_iqr": p_q3 - p_q1,
        "gain": len(parent) > 1 and won >= WIN_SHARE * len(parent)
        and gap > p_q3 - p_q1,
    }


def parse_digest(stdout: str) -> str:
    """The hex after ``result_digest`` in ``run.py``'s output; ``""`` if absent."""
    found = re.search(r"\bresult_digest ([0-9a-f]+)", stdout)
    return found.group(1) if found else ""


def digest_word(parent: str, change: str) -> str:
    """A missing digest proves nothing, so it reads as a difference."""
    return "digest equal" if parent and parent == change else "DIGEST DIFFERS"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``run.py`` in ``checkout``: its final JSON line, with the
    run's ``result_digest`` added."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return {**json.loads(lines[-1]), "result_digest": parse_digest(done.stdout)}


def checkout_commit(checkout: Path) -> Optional[str]:
    """HEAD of ``checkout`` when it is the top of a git work tree, else None."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True,
    )
    lines = done.stdout.split()
    if done.returncode or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


def cpu_model() -> str:
    """The ``model name`` of the first CPU, or what ``platform`` knows."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def trajectory_row(pr: int, args, metric: str, v: dict, digests_equal: int,
                   failed_runs: int) -> dict:
    """One claim's row of ``BENCH_trajectory.json``."""
    def side(mid_q1_q3):
        return dict(zip(("median", "q1", "q3"), mid_q1_q3))

    return {
        "pr": pr, "commit": checkout_commit(args.change),
        "parent_commit": checkout_commit(args.parent),
        "workload": args.workload, "metric": metric,
        "parent": side(v["parent"]), "change": side(v["change"]),
        "pairs": v["pairs"], "won": v["won"], "lost": v["lost"],
        "gain": v["gain"] and not failed_runs, "failed_runs": failed_runs,
        "seeds": args.seeds, "seconds": args.seconds,
        "cores": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "digests_equal": digests_equal, "source": "bench_pairs.py",
    }


def append_rows(rows: List[dict], path: Path) -> None:
    record = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(record + rows, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help='e.g. "101-110" or "101,103-105"')
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--record", type=int, metavar="PR",
                        help="append the claims' rows to BENCH_trajectory.json")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC",
                        help="a metric the change claims (with --record)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if (args.record is None) != (not args.claim):
        parser.error("--record and --claim go together")
    unknown = sorted(set(args.claim) - set(metrics))
    if unknown:
        parser.error(f"--claim names no end-to-end metric: {', '.join(unknown)}")
    samples: Dict[str, Dict[str, List[float]]] = {
        name: {"parent": [], "change": []} for name in metrics}
    failures = []
    digest_words = []
    sides = {"parent": args.parent, "change": args.change}
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            digests[side] = result["result_digest"]
            if result["failed"] or not result["correct"]:
                failures.append(f"seed {seed} {side}: failed {result['failed']} "
                                f"of {result['attempted']}, correct {result['correct']}")
            for name in metrics:
                samples[name][side].append(result["metrics"][name]["value"])
        digest_words.append(digest_word(digests["parent"], digests["change"]))
        print(f"seed {seed} ({order[0]} first): " + "  ".join(
            f"{name} {samples[name]['parent'][-1]:.6g} -> {samples[name]['change'][-1]:.6g}"
            for name in metrics) + "  " + digest_words[-1], flush=True)

    print(f"\n{args.workload}, {len(seeds)} pairs, --seconds {args.seconds:g}, "
          "parent -> change, median [q1, q3]:")
    rows = []
    for name, better in metrics.items():
        v = verdict(samples[name]["parent"], samples[name]["change"], better)
        if name in args.claim:
            rows.append(trajectory_row(args.record, args, name, v,
                                       digest_words.count("digest equal"),
                                       len(failures)))
        ratio = v["change"][0] / v["parent"][0] - 1.0 if v["parent"][0] else float("nan")
        word = "VOID (failed runs)" if failures else "gain" if v["gain"] else "no gain"
        print("  {:12s} {:.6g} [{:.6g}, {:.6g}] -> {:.6g} [{:.6g}, {:.6g}]  "
              "{:+.1%} of parent ({} is better); won {}/{}, lost {}; "
              "gap {:.4g} vs parent IQR {:.4g}: {}".format(
                  name, *v["parent"], *v["change"], ratio, better, v["won"],
                  v["pairs"], v["lost"], v["gap"], v["parent_iqr"], word))
    for line in failures:
        print("  FAILED " + line)
    print(f"  digests equal on {digest_words.count('digest equal')}"
          f"/{len(digest_words)} pairs")
    if rows:
        append_rows(rows, TRAJECTORY)
        print(f"  recorded {len(rows)} row(s) in {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
