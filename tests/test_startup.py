"""What a process pays to start: `import impulselab` loads numpy but not scipy,
no call the package makes loads a scipy module, and `python -m impulselab`
runs the command line interface.

Each runs in a fresh interpreter on this checkout's `src`, because the test
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


def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


print("import", loaded())
spec = il.SystemSpec.from_models(il.constant_drift(0.2), il.linear_reset(0.5),
                                 alpha=float(np.pi / 2), r0=1.0)
config = il.ExperimentConfig(eps_grid=(0.1, 0.2), replicas=4, beta=2, nu=1.5, p=2.0,
                             dt=0.005, horizon=2.0, master_seed=0)
il.clt_experiment(config, spec)
il.simulate_batch(spec, il.NoiseParams(epsilon=0.1, p=2.0), 2.0, 0.005, 0, 4)
print("run", loaded())
drift = il.table_drift([(0, 0.25), (1, 0.2), (4, 0.1)])
reset = il.table_reset([(0.5, 0.25), (1, 0.45), (2, 0.8)])
for model in (drift, reset):
    model.fn(np.linspace(-1.0, 5.0, 7))
    model.derivative(np.linspace(-1.0, 5.0, 7))
print("table", loaded())
il.fpt_cdf(il.FptParams(alpha=1.0, eps_p=0.2), 1.0)
print("cdf", loaded())
"""

# `impulselab experiment` on tabulated models, run in-process so that the
# modules it loaded can be listed.
TABLE_EXPERIMENT = """
import sys

from impulselab.cli import main

code = main(["experiment", "--mode", "lln", "--config", "table.ini", "--out", "lln.csv"])
print(code, [name for name in sys.modules if name.split(".")[0] == "scipy"])
"""

TABLE_CONFIG = """\
[model]
drift.kind = custom-table
drift.params = 0:0.25, 0.5:0.22, 1:0.2, 2:0.15, 4:0.1
reset.kind = custom-table
reset.params = 0.25:0.125, 0.5:0.25, 1:0.45, 2:0.8

[numerics]
dt = 0.005
horizon = 2.0
seed = 0

[experiment]
mode = lln
eps_grid = 0.1, 0.2
replicas = 4
beta = 1
nu = 1.5
"""


def _python(*args, cwd=None):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})


def test_no_call_loads_scipy():
    proc = _python("-c", IMPORT_CONTRACT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import []", "run []", "table []", "cdf []"]


def test_table_experiment_loads_no_scipy(tmp_path):
    (tmp_path / "table.ini").write_text(TABLE_CONFIG)
    proc = _python("-c", TABLE_EXPERIMENT, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 []"]
    assert len((tmp_path / "lln.csv").read_text().splitlines()) == 3


def test_python_dash_m_runs_the_cli(tmp_path):
    """`impulselab fpt` runs, writes nothing to stderr but the interpreter's
    import log, and imports no scipy module."""
    out = tmp_path / "fpt.csv"
    proc = _python("-X", "importtime", "-m", "impulselab", "fpt", "--alpha", "1",
                   "--eps-p", "0.2", "--grid=0.2:3:4", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert len(imported) == len(proc.stderr.splitlines())
    assert "impulselab.fpt" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []
    assert len(out.read_text().splitlines()) == 5
