"""The import contract and the shape of the one-kernel-per-job API.

A module-level third-party import must be needed by every run. The
packages below serve no ``repro`` code path at all (or only the tests),
so a fresh interpreter that imports the library and its CLI *and runs the
analytic paths* must not have them in ``sys.modules``, and no file under
``src/`` may import ``scipy.optimize`` or ``numba`` even function-locally.
DESIGN.md ("Import contract") states the rule.

The second half pins what ISSUE 21 removed so it cannot silently
re-accrete: no environment variable picks the enumeration kernel, and
the three entry points expose no search-strategy / scoring / JIT selector.
ISSUE 22 added: one file starts processes (``repro/pool.py``), a serial
run never loads ``multiprocessing``, and no result transport can be
selected, by argument or by environment. The engine registry is gone:
callers name the backend they call, the reliability sweeps reach the
closed form without passing through ``repro.verification``, and neither
the serving config nor the sweeps nor the CLI offers an engine selector.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Never loaded by ``import repro, repro.cli`` nor by the analytic paths,
#: nor any submodule of them.
DENIED = (
    "scipy.stats", "scipy.optimize", "networkx", "numba",
    "hypothesis", "pytest", "matplotlib", "pandas",
    "multiprocessing", "repro.pool",
    "repro.verification", "repro.analytic.variance",
)

#: Not imported anywhere under ``src/``, at any scope.
NEVER_IMPORTED = ("scipy.optimize", "numba")

_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if any(m == d or m.startswith(d + ".") for d in sys.argv[1:]))

import repro, repro.cli
after_import = loaded()

import numpy as np
from repro.analytic import closed_form_density
from repro.analytic.enumeration import BACKENDS, enumerate_density_matrix
from repro.experiments.sweeps import find_majority_crossover, reliability_sweep
from repro.quorum.availability import AvailabilityModel
from repro.quorum.constraints import optimize_with_write_floor
from repro.quorum.optimizer import optimal_read_quorum
from repro.quorum.vote_optimizer import optimize_votes
from repro.topology.generators import ring
density = closed_form_density("ring", 11, 0.96, 0.96)
model = AvailabilityModel(density, density)
optimal_read_quorum(model, 0.5)
optimize_with_write_floor(model, 0.5, 0.01)
for backend in BACKENDS:
    enumerate_density_matrix(ring(5), 0.9, 0.8, backend=backend)
optimize_votes(ring(4), 0.5, 0.9, 0.9, n_samples=50)
for method in ("hillclimb", "exhaustive"):
    optimize_votes(ring(3), 0.5, 0.9, 0.9, method=method, n_samples=50)
reliability_sweep("ring", 11, 0.5, [0.9, 0.96])
find_majority_crossover("complete", 9, 0.8)
from repro.experiments.paper import TEST_SCALE
from repro.faults.chaos import run_chaos_campaign
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.runner import run_simulation
from repro.telemetry.recorder import Telemetry
config = TEST_SCALE.config(0, alpha=0.5, seed=1)
run_simulation(config, MajorityConsensusProtocol(21), telemetry=Telemetry())
run_chaos_campaign(config, MajorityConsensusProtocol(21), n_batches=2)
after_use = loaded()
print(json.dumps([after_import, after_use]))
"""


def _probe():
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + inherited if inherited else ""))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *DENIED],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_and_analytic_paths_load_no_denied_package():
    after_import, after_use = _probe()
    assert after_import == []
    assert after_use == [], (
        "optimizer / enumeration / vote search / sweeps / a serial run "
        "loaded a denied package")


def test_no_source_file_imports_scipy_optimize_or_numba():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if any(name == banned or name.startswith(banned + ".")
                       for banned in NEVER_IMPORTED):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert offenders == []


@pytest.mark.parametrize(
    "value", ["reference", "exact-order", "compiled", "auto", "gpu", ""])
def test_enum_backend_environment_variable_is_ignored(monkeypatch, value):
    from repro.analytic import cache as density_cache
    from repro.analytic.enumeration import enumerate_density_matrix, resolve_backend
    from repro.topology.generators import ring

    with density_cache.disabled():
        monkeypatch.delenv("REPRO_ENUM_BACKEND", raising=False)
        baseline = enumerate_density_matrix(ring(6), 0.9, 0.8)
        witness = enumerate_density_matrix(ring(6), 0.9, 0.8, backend="exact-order")
        # The two kernels differ in the last bits here, so equal bytes
        # below means the same kernel ran, not just a close answer.
        assert not np.array_equal(baseline, witness)

        monkeypatch.setenv("REPRO_ENUM_BACKEND", value)
        assert resolve_backend() == "collapse-dfs"
        assert np.array_equal(enumerate_density_matrix(ring(6), 0.9, 0.8), baseline)
        assert np.array_equal(
            enumerate_density_matrix(ring(6), 0.9, 0.8, backend="exact-order"),
            witness,
        )


def test_entry_points_expose_no_strategy_selector():
    from repro.analytic.enumeration import enumerate_density, enumerate_density_matrix
    from repro.cli import build_parser
    from repro.quorum.optimizer import optimal_read_quorum
    from repro.quorum.vote_optimizer import optimize_votes

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert params(optimal_read_quorum) == {"model", "alpha"}
    assert not params(optimize_votes) & {"scoring", "backend", "use_jit"}
    for fn in (enumerate_density, enumerate_density_matrix):
        assert not params(fn) & {"use_jit", "method", "scoring"}
    # optimize_votes' ``method`` is the vote search (hillclimb vs
    # exhaustive compositions), a different job from the Fig. 1 search.
    assert "method" in params(optimize_votes)

    parser = build_parser()
    for argv in (["optimize", "--method", "exhaustive"],
                 ["profile", "enumeration", "--backend", "exact-order"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_one_file_starts_processes_and_none_selects_a_transport():
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    assert [name for name, text in sources.items()
            if "ProcessPoolExecutor" in text] == ["repro/pool.py"]
    for banned in ("shared_memory", "REPRO_POOL_TRANSPORT"):
        assert [name for name, text in sources.items() if banned in text] == []
    assert not (SRC / "repro/simulation/shm.py").exists()
    assert not (SRC / "repro/sharding/transport.py").exists()

    pool_imports = [
        node.module for node in ast.walk(ast.parse(sources["repro/pool.py"]))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
    ]
    assert pool_imports == ["repro.errors"]


def test_fan_out_callers_expose_no_transport_selector():
    from repro.faults.chaos import run_chaos_campaign
    from repro.pool import fan_out
    from repro.sharding.runner import run_sharded
    from repro.simulation.parallel import BatchLoop
    from repro.simulation.runner import run_simulation

    for fn in (BatchLoop, run_simulation, run_chaos_campaign, run_sharded):
        assert not set(inspect.signature(fn).parameters) & {
            "transport", "transport_stats"}
    assert list(inspect.signature(fan_out).parameters) == [
        "task", "shared", "items", "n_workers"]


def test_no_engine_registry_and_no_engine_selector(capsys):
    import dataclasses

    from repro.cli import build_parser
    from repro.experiments.sweeps import find_majority_crossover, reliability_sweep
    from repro.serving import ServeConfig

    assert not (SRC / "repro/engines").exists()
    assert [f.name for f in dataclasses.fields(ServeConfig) if "engine" in f.name] == []
    for fn in (reliability_sweep, find_majority_crossover):
        assert "engine" not in inspect.signature(fn).parameters
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["engines"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'engines'" in capsys.readouterr().err


def test_one_recorder_package_with_one_histogram_mode():
    import dataclasses

    from repro.serving import ServeConfig
    from repro.telemetry import metrics
    from repro.telemetry.recorder import NULL, Telemetry

    assert not (SRC / "repro/tracing").exists()
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(sorted(m for m in sys.modules "
         "if m.startswith(('repro.telemetry', 'repro.tracing'))))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout.strip())
    assert not [m for m in loaded if m.startswith("repro.tracing")]
    assert len(loaded) <= 7, loaded
    assert "profile_phases" not in {f.name for f in dataclasses.fields(ServeConfig)}
    for fn in (metrics.Histogram, metrics.MetricsRegistry.histogram):
        assert "quantiles" not in inspect.signature(fn).parameters
    for recorder in (NULL, Telemetry()):
        assert not {"counter", "gauge", "histogram", "phases"} & set(dir(recorder))
