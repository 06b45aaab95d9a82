"""The import contract: what ``import repro`` may not load.

A module-level third-party import must be needed by every run. The
packages below serve one rarely-taken path each (or only the tests), so a
fresh interpreter that imports the library and its CLI must not have them
in ``sys.modules`` — and the one path that needs ``scipy.optimize`` must
still find it. DESIGN.md ("Import contract") states the rule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Never loaded by ``import repro, repro.cli``.
DENIED = (
    "scipy.stats", "scipy.optimize", "networkx", "numba",
    "hypothesis", "pytest", "matplotlib", "pandas",
)

_PROBE = """
import json, sys
import repro, repro.cli
after_import = sorted(m for m in sys.argv[1:] if m in sys.modules)

from repro.analytic import closed_form_density
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
density = closed_form_density("ring", 11, 0.96, 0.96)
model = AvailabilityModel(density, density)
optimal_read_quorum(model, 0.5)
after_default = "scipy.optimize" in sys.modules
optimal_read_quorum(model, 0.5, method="brent")
after_brent = "scipy.optimize" in sys.modules
print(json.dumps([after_import, after_default, after_brent]))
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


def test_import_loads_no_denied_package_and_brent_loads_scipy_optimize():
    after_import, after_default, after_brent = _probe()
    assert after_import == []
    assert not after_default, "the default strategy must not load scipy.optimize"
    assert after_brent, "method='brent' must import scipy.optimize itself"
