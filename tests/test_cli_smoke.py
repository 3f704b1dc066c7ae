"""The command line run as a user runs it: a fresh interpreter that turns a
RuntimeWarning into an error, whose stdout must parse as strict JSON (NaN and
Infinity are rejected)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import netfeedback


def _reject(name):
    raise ValueError(f"{name} is not a JSON number")


def _cli(tmp_path, *args) -> subprocess.CompletedProcess:
    src = str(Path(netfeedback.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "netfeedback.cli", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_adversary_run_against_local_flow_diverges_by_certificate(tmp_path):
    # one hull growth per step after the first, so chi has steps_run - 1
    # entries, and the guard below float max / (4 B) keeps every pin finite
    path = tmp_path / "adversary_run.json"
    path.write_text(json.dumps({
        "graph": {"kind": "cycle", "n": 3}, "adversary": True,
        "controller": {"kind": "local_flow"}, "horizon": 60,
        "x0": [0.1, 0.2, 0.3], "guard_cap": 1e307}))
    done = _cli(tmp_path, "simulate", "--config", str(path))
    assert done.returncode == 0, done.stderr
    d = json.loads(done.stdout, parse_constant=_reject)
    detail = d["certificate_detail"]
    assert d["verdict"] == "diverged" and d["verdict_basis"] == "certificate"
    assert detail["verdict"] == "pass"
    assert len(detail["chi"]) == d["steps_run"] - 1
