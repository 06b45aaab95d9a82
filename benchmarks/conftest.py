"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports (run with ``-s`` to see
them; they are also appended to ``benchmarks/results.txt``). Timings are
collected by pytest-benchmark with one warm-up round plus ``BENCH_ROUNDS``
(default 5) timed rounds, so the mean/stddev/quantile fields in the
``BENCH_*.json`` sidecars carry real content. The sidecars are a local
record (git-ignored); what gates a PR is the repo benchmark,
``benchmarks/e2e`` + ``BENCHMARK.json``.

Scale is selected with the ``REPRO_BENCH_SCALE`` environment variable:

- ``bench`` (default): 101-site networks, 10 000 accesses x 2 batches —
  the whole suite finishes in a few minutes;
- ``small``: 30 000 accesses x 4 batches;
- ``paper``: the paper's full 100 000 + 1 000 000 x 5 configuration
  (hours, as on the original DEC Station 5000).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.experiments.paper import (
    PAPER_SCALE,
    SMALL_SCALE,
    ExperimentScale,
)
from repro.telemetry.metrics import Histogram

#: Default benchmark scale: full-size networks, laptop-size access volume.
#: Starts each batch from the exact stationary network state, so the short
#: warm-up carries no transient bias (the paper instead burns 100 000
#: accesses from an all-up reset; see simulation/processes.py).
BENCH_SCALE = ExperimentScale(
    name="bench",
    n_sites=101,
    warmup_accesses=500.0,
    accesses_per_batch=12_000.0,
    n_batches=2,
    initial_state="stationary",
)

_SCALES = {"bench": BENCH_SCALE, "small": SMALL_SCALE, "paper": PAPER_SCALE}

RESULTS_PATH = Path(__file__).parent / "results.txt"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "bench")
    try:
        return _SCALES[name]
    except KeyError:
        raise RuntimeError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {name!r}"
        ) from None


@pytest.fixture(scope="session")
def report():
    """Print a block and persist it to benchmarks/results.txt."""
    handle = RESULTS_PATH.open("a")

    def emit(text: str) -> None:
        print()
        print(text)
        handle.write(text + "\n\n")
        handle.flush()

    yield emit
    handle.close()


#: Timed rounds per benchmark (after one untimed warm-up). Overridable
#: for quick local iterations with REPRO_BENCH_ROUNDS=1.
BENCH_ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "5")))


def timed(benchmark, fn):
    """Run ``fn`` under pytest-benchmark: 1 warm-up + ``BENCH_ROUNDS`` rounds.

    A single-shot measurement records ``stddev: 0``; five rounds give
    the mean/stddev/quantile fields real content while keeping
    simulation-scale workloads tractable.
    """
    return benchmark.pedantic(fn, rounds=BENCH_ROUNDS, iterations=1,
                              warmup_rounds=1)


# ----------------------------------------------------------------------
# Machine-readable results: one BENCH_<name>.json per bench module
# ----------------------------------------------------------------------

#: Timing entries collected this session, keyed by normalized bench name.
_BENCH_JSON: Dict[str, List[dict]] = {}


def _bench_name(stem: str) -> str:
    """Normalize a bench module stem to its sidecar name.

    ``bench_serving.py`` -> ``serving`` -> ``BENCH_serving.json``; the
    raw stem would give a double-prefixed ``BENCH_bench_serving.json``.
    """
    return stem[len("bench_"):] if stem.startswith("bench_") else stem


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


@pytest.fixture(autouse=True)
def _bench_json_recorder(request):
    """Collect every pytest-benchmark timing into the JSON sidecar.

    Raw round timings feed a telemetry :class:`Histogram`, whose moment
    accumulators supply the reported mean/stddev — the same estimator the
    ``--telemetry`` path uses for span timings, so the two agree. The
    quantiles are exact, over the raw timings.

    Each benchmark also runs under a live recorder so the instrumented
    hot paths attribute their time to named phases; the cumulative phase
    table (warm-up round included) is stamped into the entry, so two
    sidecars can be compared phase by phase rather than just by test.
    """
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    if benchmark is None:
        yield
        return
    from repro.telemetry.recorder import Telemetry, use

    telemetry = Telemetry()
    with use(telemetry):
        yield
    meta = getattr(benchmark, "stats", None)
    stats = getattr(meta, "stats", None)
    data = list(getattr(stats, "data", None) or [])
    if not data:
        return
    hist = Histogram("bench_seconds", buckets=(1e-4, 1e-2, 0.1, 1.0, 10.0, 60.0))
    hist.observe_many(data)
    series = hist.series()[()]
    entry = {
        "test": request.node.name,
        "mean": series.mean(),
        "stddev": series.stddev(),
        "min": series.min,
        "max": series.max,
        "iterations": series.count,
        "quantiles": {
            str(q): float(np.quantile(data, q)) for q in (0.5, 0.9, 0.99)
        },
        "phases": telemetry.snapshot().phases,
    }
    _BENCH_JSON.setdefault(_bench_name(request.node.path.stem), []).append(entry)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write BENCH_<module>.json for every module that produced timings."""
    if not _BENCH_JSON:
        return
    sha = _git_sha()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    out_dir = Path(__file__).parent
    for name in sorted(_BENCH_JSON):
        payload = {
            "schema": 1,
            "bench": name,
            "git_sha": sha,
            "timestamp": stamp,
            "scale": scale,
            "results": _BENCH_JSON[name],
        }
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
