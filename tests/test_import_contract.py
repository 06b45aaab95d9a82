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
There is one variance-reduced sampler, proportional stratification: no
importance sampler, no allocation mode and no weighted histogram kernel.
There is one replicated data path: the sharded reference engine drives
bare trackers without importing ``repro.replication``, and the database
retries nothing and cannot switch its one-copy-serializability check off.
There is one fidelity battery, ``repro verify``: no ``validate``
subcommand, no second check-result type, no bounds module, and no second
ACC evaluator on the trace replayer. Code that no entry point runs is
gone: the multi-item database, the coterie classes, the tree density,
the sharded vote search and the alias shims; what the tests compare
against lives in ``tests/oracles.py``. There is one on-line reassignment
loop: serving calls the adaptive protocol's decision, ``ServeConfig``
holds only what its callers set, and QR memoizes its own grant masks.
There is one fault layer: a schedule is a list of events from the one
scenario table that ``repro chaos`` and ``repro serve`` share, and the
injector classes, the retry policy and the breaker config are gone.
numpy is the one module-level third-party import: scipy is imported by
the labelling, closed-form and t-interval functions that call it, so a
sparse simulation, a chaos campaign, a serve run and the ring optimizer
load no scipy module, and those calls do.
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
from repro.analytic.enumeration import enumerate_density_matrix
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
enumerate_density_matrix(ring(5), 0.9, 0.8)
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


def _probe(script=_PROBE, argv=DENIED):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + inherited if inherited else ""))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
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


_SCIPY_PROBE = """
import json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import repro, repro.cli
stages["import repro, repro.cli"] = scipy_loaded()

from repro.experiments.paper import TEST_SCALE
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.runner import run_simulation
from repro.topology.generators import fully_connected, ring, ring_with_chords
config = TEST_SCALE.config(0, alpha=0.5, seed=1)
run_simulation(config, MajorityConsensusProtocol(21))
chorded = ring_with_chords(101, 448)
assert chorded.n_links == 549
run_simulation(TEST_SCALE.config(0, alpha=0.5, seed=1, topology=chorded),
               MajorityConsensusProtocol(101))
from repro.experiments.figures import figure_data
from repro.topology.generators import paper_topology
figure_data(topology=paper_topology(16), scale=TEST_SCALE, seed=1)
stages["run_simulation"] = scipy_loaded()

from repro.faults.chaos import run_chaos_campaign
run_chaos_campaign(config, MajorityConsensusProtocol(21), n_batches=2)
stages["run_chaos_campaign"] = scipy_loaded()

from repro.quorum.assignment import QuorumAssignment
from repro.serving import ServeConfig, run_serve, serving_schedule
from repro.simulation.workload import AccessWorkload
topology = ring_with_chords(13, 2)
serve = ServeConfig(
    topology=topology, workload=AccessWorkload.uniform(13, 0.7),
    initial_assignment=QuorumAssignment.from_read_quorum(topology.total_votes, 1),
    n_requests=2000, n_clients=8, seed=7, scenario="correlated")
serve.fault_schedule = serving_schedule("correlated", topology, serve.n_requests)
assert run_serve(serve).outcomes["granted"] > 0
stages["run_serve"] = scipy_loaded()

from repro.analytic import closed_form_density
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
density = closed_form_density("ring", 11, 0.96, 0.96)
optimal_read_quorum(AvailabilityModel(density, density), 0.5)
stages["ring closed form + optimal_read_quorum"] = scipy_loaded()

import numpy as np
from repro.analytic.montecarlo import montecarlo_density_matrix
from repro.connectivity.components import component_labels
from repro.simulation.stats import student_t_half_width
montecarlo_density_matrix(ring(5), 0.9, 0.9, n_samples=64, seed=1)
closed_form_density("complete", 9, 0.9, 0.9)
assert student_t_half_width([0.5, 0.6]) > 0
dense = fully_connected(40)
assert dense.n_links == 780
labels = component_labels(dense, np.ones(40, dtype=bool), np.ones(780, dtype=bool))
assert (labels == labels[0]).all()
stages["scipy callers"] = scipy_loaded()
print(json.dumps(stages))
"""


def test_a_run_that_calls_no_scipy_loads_none():
    stages = _probe(_SCIPY_PROBE, argv=())
    callers = stages.pop("scipy callers")
    assert stages == dict.fromkeys(stages, []), (
        "a path that calls no scipy function loaded scipy")
    # The probe reached the labelling, closed-form and t-interval calls.
    assert {"scipy.sparse.csgraph", "scipy.special"} <= set(callers)


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

        monkeypatch.setenv("REPRO_ENUM_BACKEND", value)
        assert resolve_backend() == "collapse-dfs"
        assert np.array_equal(enumerate_density_matrix(ring(6), 0.9, 0.8), baseline)


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
        assert not params(fn) & {"use_jit", "method", "scoring", "backend",
                                 "chunk_size"}
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
    # The per-item reference is an oracle for tests and `repro verify`,
    # reached through run_sharded(engine=...), not a user option.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            ["shard", "--family", "ring", "--engine", "reference"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


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


def test_one_variance_reduced_sampler_and_an_unweighted_kernel():
    import dataclasses

    from repro.analytic import variance
    from repro.connectivity.components import batched_vote_histogram
    from repro.verification.differential import MODEL_ENGINES
    from repro.verification.witnesses import stratified_mc_engine

    def params(fn):
        return set(inspect.signature(fn).parameters)

    exported = set(variance.__all__) | set(dir(variance))
    assert [name for name in exported if "importance" in name.lower()] == []
    assert not params(variance.stratified_density_matrix) & {
        "allocation", "pilot_fraction", "tail_epsilon"}
    assert "allocation" not in {
        f.name for f in dataclasses.fields(variance.StratificationPlan)}
    assert "weights" not in params(batched_vote_histogram)
    assert params(stratified_mc_engine) == {"case"}
    assert [name for name, _ in MODEL_ENGINES if name.startswith("mc-")] == [
        "mc-stratified"]


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_one_replicated_data_path():
    import dataclasses

    from repro.replication import ReadResult, ReplicatedDatabase, WriteResult
    from repro.serving import ServeConfig

    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted((SRC / "repro/sharding").rglob("*.py"))
        for name in _imported_modules(path)
        if name == "repro.replication" or name.startswith("repro.replication.")
    ]
    assert offenders == []
    assert not set(inspect.signature(ReplicatedDatabase).parameters) & {
        "retry_policy", "retry_seed", "on_wait", "check_serializability"}
    assert "check_serializability" not in {
        f.name for f in dataclasses.fields(ServeConfig)}
    for result in (ReadResult, WriteResult):
        assert "attempts" not in {f.name for f in dataclasses.fields(result)}


def test_one_fidelity_battery(capsys):
    import repro.experiments
    from repro.cli import build_parser
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.trace import TraceReplayer

    for module in ("repro.experiments.validation", "repro.quorum.bounds"):
        with pytest.raises(ModuleNotFoundError):
            __import__(module)
    assert not {"CheckResult", "ValidationReport", "validate_reproduction"} & (
        set(repro.experiments.__all__) | set(dir(repro.experiments)))
    assert not hasattr(TraceReplayer, "availability_of")
    assert list(inspect.signature(SimulationEngine).parameters) == [
        "config", "protocol", "change_observer", "record_trace", "telemetry"]
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["validate"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'validate'" in capsys.readouterr().err


#: Modules with no CLI, benchmark or example caller, deleted outright.
DELETED_MODULES = (
    "repro.replication.multidb", "repro.quorum.coterie",
    "repro.protocols.coterie_protocol", "repro.analytic.tree",
    "repro.faults.retry", "repro.experiments.charts",
)

#: Names they exported, plus the sharded vote search, the alias shims and
#: the vote search's per-move delta scorer (a sweep scores every move)
#: and the `small` scale.
REMOVED_NAMES = {
    "MultiItemDatabase", "ItemBinding", "TransactionResult",
    "Coterie", "coterie_from_votes", "read_groups_from_votes",
    "CoterieProtocol", "tree_density", "tree_density_matrix",
    "optimize_shard_votes", "ShardVotePlan",
    "all_connected_probability", "spread_chords", "paper_config",
    "spawn_many", "iter_streams",
    "FaultInjector", "SiteCrash", "LinkCut", "ScriptedPartition",
    "FlappingSite", "CascadingFailure", "CorrelatedFailure", "RetryPolicy",
    "CircuitBreakerConfig", "replay_batch", "_chaos_schedule",
    "_CHAOS_SCENARIOS", "RETRY_POLICY", "BREAKER", "_STREAM_CHAOS",
    "gather_groups", "batched_component_entries", "moved_counts",
    "SMALL_SCALE", "figure_chart", "ascii_chart",
}


def test_code_no_entry_point_runs_is_gone():
    import importlib
    import pkgutil

    import repro

    for module in DELETED_MODULES:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    offenders = sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name in REMOVED_NAMES & (set(getattr(module, "__all__", ())) | set(dir(module)))
    )
    assert offenders == []
    from repro.quorum.vote_optimizer import _StateSample
    assert not REMOVED_NAMES & set(dir(_StateSample))

    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(sum(m == 'repro' or m.startswith('repro.') "
         "for m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 66


def test_one_online_reassignment_loop():
    import dataclasses

    import repro.serving.service as service
    from repro.protocols.adaptive import AdaptiveQuorumProtocol
    from repro.serving import ServeConfig, breakers

    assert [f.name for f in dataclasses.fields(ServeConfig)] == [
        "topology", "workload", "initial_assignment", "n_requests",
        "n_clients", "seed", "scenario", "fault_schedule"]
    assert (breakers.FAILURE_THRESHOLD, breakers.COOLDOWN) == (8, 20.0)
    assert not hasattr(service, "_MaskCachingProtocol")
    source = Path(service.__file__).read_text()
    assert "optimal_read_quorum" not in source
    assert "AvailabilityModel" not in source
    assert list(inspect.signature(AdaptiveQuorumProtocol).parameters) == [
        "n_sites", "total_votes", "min_observation_weight",
        "improvement_threshold", "forgetting_factor"]


def test_one_fault_layer(capsys):
    from repro.cli import build_parser
    from repro.faults.schedule import FaultSchedule
    from repro.serving import SERVE_SCENARIOS

    for command in ("chaos", "serve"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--scenario", "bogus"])
        choices = capsys.readouterr().err.split("choose from ")[1].strip().rstrip(")")
        assert [c.strip("'") for c in choices.split(", ")] == list(SERVE_SCENARIOS)

    names = ("FaultInjector", "SiteCrash", "LinkCut", "RetryPolicy",
             "CircuitBreakerConfig", "_chaos_schedule", "replay_batch",
             "raise_on_violation", "chaos_rng", "_STREAM_CHAOS")
    offenders = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for name in names
        if name in path.read_text()
    )
    assert offenders == []
    assert list(inspect.signature(FaultSchedule).parameters) == ["events"]
    assert list(inspect.signature(FaultSchedule.prime).parameters) == [
        "self", "queue", "topology"]
    assert list(inspect.signature(FaultSchedule.all_events).parameters) == [
        "self", "topology"]


_LABEL_PHASE_PROBE = """
import json, sys
from repro.telemetry.recorder import Telemetry
opened = []
real_phase = Telemetry.phase
def phase(self, name):
    if name.endswith(".label"):
        opened.append("scipy.sparse.csgraph" in sys.modules)
    return real_phase(self, name)
Telemetry.phase = phase
from repro.cli import main
assert main(["profile", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps(opened))
"""


@pytest.mark.parametrize("target", ["montecarlo", "votes"])
def test_a_profiled_label_phase_books_no_scipy_import(target, tmp_path):
    """csgraph is loaded before the first ``*.label`` phase opens, so the
    phase times the labelling, not scipy's first import."""
    opened = _probe(_LABEL_PHASE_PROBE, argv=(target, str(tmp_path / "p")))
    assert opened and all(opened), opened
