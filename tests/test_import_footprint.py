"""The package loads scipy only where it calls it.

Importing netfeedback and running direct-observation experiments must not
load any scipy module: strong connectivity is decided in numpy, and the
optimizer (xie_guo_constant) and the LU solver (matrix-inverse observation)
are imported inside the code that calls them. The pytest process already
holds scipy, so the check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import netfeedback

_SCRIPT = r'''
import math, sys

import netfeedback, netfeedback.cli
from netfeedback import (ExperimentConfig, run_experiment, write_outputs,
                         xie_guo_constant)


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def config(kind, graph, observation=None, **extra):
    return ExperimentConfig({
        "graph": graph,
        "function": {"kind": "linear", "a": 0.8, "b": 0.0},
        "controller": {"kind": kind},
        "observation": observation or {"mode": "direct", "d0": 0.05,
                                       "noise_seed": 1},
        "disturbance": {"w_star": 0.1, "generator": "seeded_uniform", "seed": 2},
        "horizon": 30, "x0": {"seed": 3}, **extra})


random5 = {"kind": "random_strongly_connected", "n": 5, "seed": 4}
runs = [("network_flow", random5), ("local_flow", random5),
        ("max_enhanced", random5), ("cycle_global", {"kind": "cycle", "n": 4}),
        ("path_root", {"kind": "path_root_selfloop", "n": 4}),
        ("zero", {"kind": "cycle", "n": 3})]
for kind, graph in runs:
    assert run_experiment(config(kind, graph)).summary["steps_run"] == 30, kind
adversary = ExperimentConfig({
    "graph": {"kind": "cycle", "n": 3}, "adversary": True,
    "controller": {"kind": "network_flow", "epsilon": 1e-3},
    "observation": {"mode": "direct", "d0": 0.0},
    "disturbance": {"generator": "zero"},
    "horizon": 40, "x0": [0.4, -0.2, 0.1]})
written = write_outputs(run_experiment(adversary), sys.argv[1])
assert sorted(written) == ["certificate", "summary", "trajectory"], written
assert scipy_modules() == [], scipy_modules()[:5]

# the two callers of scipy still work once they load it
assert xie_guo_constant()[0] == 1.5 + math.sqrt(2)
inverse = config("cycle_global", {"kind": "cycle", "n": 4},
                 observation={"mode": "matrix_inverse"})
assert run_experiment(inverse).summary["steps_run"] == 30
assert "scipy.linalg" in scipy_modules()
print("ok")
'''


def test_running_direct_observation_loads_no_scipy(tmp_path):
    src = str(Path(netfeedback.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
