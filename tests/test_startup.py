"""What a process pays to start: `import impulselab` loads numpy but not scipy,
and `python -m impulselab` runs the command line interface.

Both run in a fresh interpreter on this checkout's `src`, because the test
process has already loaded scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_CONTRACT = """
import sys

import numpy as np

import impulselab as il

LAZY = ("scipy.special", "scipy.interpolate")


def loaded():
    return [name for name in LAZY if name in sys.modules]


print("import", loaded())
spec = il.SystemSpec.from_models(il.constant_drift(0.2), il.linear_reset(0.5),
                                 alpha=float(np.pi / 2), r0=1.0)
config = il.ExperimentConfig(eps_grid=(0.1, 0.2), replicas=4, beta=2, nu=1.5, p=2.0,
                             dt=0.005, horizon=2.0, master_seed=0)
il.clt_experiment(config, spec)
il.simulate_batch(spec, il.NoiseParams(epsilon=0.1, p=2.0), 2.0, 0.005, 0, 4)
print("run", loaded())
il.fpt_cdf(il.FptParams(alpha=1.0, eps_p=0.2), 1.0)
print("cdf", loaded())
il.table_drift([(0, 0.25), (1, 0.2), (4, 0.1)])
print("table", loaded())
"""


def _python(*args, cwd=None):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})


def test_scipy_loads_only_with_the_functions_that_use_it():
    proc = _python("-c", IMPORT_CONTRACT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import []",
        "run []",
        "cdf ['scipy.special']",
        "table ['scipy.special', 'scipy.interpolate']",
    ]


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "fpt.csv"
    proc = _python("-m", "impulselab", "fpt", "--alpha", "1", "--eps-p", "0.2",
                   "--grid=0.2:3:4", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(out.read_text().splitlines()) == 5
