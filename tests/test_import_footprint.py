"""The package runs on numpy alone.

In a fresh interpreter (the pytest process already holds scipy, which the
tests use as an oracle) a meta-path finder makes every import of scipy raise
ImportError and records the attempt. Every law in direct observation, a
matrix-inverse run, an adversary run with its outputs, the Xie-Guo constant
and each capacity mode of the CLI must then run, and no code may have tried
to import scipy, not even inside a try block.
"""

import os
import subprocess
import sys
from pathlib import Path

import netfeedback

_SCRIPT = r'''
import contextlib, io, json, math, sys

attempts = []


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            attempts.append(name)
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

import netfeedback, netfeedback.cli
from netfeedback import (ExperimentConfig, run_experiment, write_outputs,
                         xie_guo_constant)


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
inverse = config("cycle_global", {"kind": "cycle", "n": 4},
                 observation={"mode": "matrix_inverse"})
assert run_experiment(inverse).summary["steps_run"] == 30
adversary = ExperimentConfig({
    "graph": {"kind": "cycle", "n": 3}, "adversary": True,
    "controller": {"kind": "network_flow", "epsilon": 1e-3},
    "observation": {"mode": "direct", "d0": 0.0},
    "disturbance": {"generator": "zero"},
    "horizon": 40, "x0": [0.4, -0.2, 0.1]})
written = write_outputs(run_experiment(adversary), sys.argv[1])
assert sorted(written) == ["certificate", "summary", "trajectory"], written
assert xie_guo_constant()[0] == 1.5 + math.sqrt(2)
for argv in (["capacity", "--xie-guo"],
             ["capacity", "--dagger", "--graph", "cycle:5"],
             ["capacity", "--scalar-recursion", "--M", "2.85"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert netfeedback.cli.main(argv) == 0, argv
    json.loads(out.getvalue())
assert attempts == [], attempts[:5]
print("ok")
'''


def test_every_run_mode_works_without_scipy(tmp_path):
    src = str(Path(netfeedback.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
