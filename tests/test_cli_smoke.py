"""The lab run as a user runs it. The command line must print strict JSON
(NaN and Infinity are rejected) without a RuntimeWarning, which pytest's
filter turns into an error here and which the runner's one np.errstate per
run must keep silent. The demos and the adversary run go through a fresh
interpreter started with -W error::RuntimeWarning, and the controller and
golden tests through one started with numpy's SIMD dispatch turned off."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netfeedback
from netfeedback.cli import main

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:   # numpy < 2
    from numpy.core import _multiarray_umath as _umath

TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


def _reject(name):
    raise ValueError(f"{name} is not a JSON number")


def _strict(text: str) -> dict:
    return json.loads(text, parse_constant=_reject)


def _python(tmp_path, *args, env=()) -> subprocess.CompletedProcess:
    """A fresh interpreter in tmp_path that imports this checkout's package
    and turns a RuntimeWarning into an error."""
    src = str(Path(netfeedback.__file__).resolve().parents[1])
    environ = {**os.environ, **dict(env)}
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=tmp_path, env=environ, capture_output=True, text=True, timeout=300)


def _simulate(tmp_path, capsys, raw) -> dict:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path)]) == 0
    return _strict(capsys.readouterr().out)


def test_adversary_run_against_local_flow_diverges_by_certificate(tmp_path):
    # one hull growth per step after the first, so chi has steps_run - 1
    # entries, and the guard below float max / (4 B) keeps every pin finite
    path = tmp_path / "adversary_run.json"
    path.write_text(json.dumps({
        "graph": {"kind": "cycle", "n": 3}, "adversary": True,
        "controller": {"kind": "local_flow"}, "horizon": 60,
        "x0": [0.1, 0.2, 0.3], "guard_cap": 1e307}))
    done = _python(tmp_path, "-m", "netfeedback.cli", "simulate",
                   "--config", str(path))
    assert done.returncode == 0, done.stderr
    d = _strict(done.stdout)
    detail = d["certificate_detail"]
    assert d["verdict"] == "diverged" and d["verdict_basis"] == "certificate"
    assert detail["verdict"] == "pass"
    assert len(detail["chi"]) == d["steps_run"] - 1


@pytest.mark.parametrize("mode", [
    ["--xie-guo"],
    ["--scalar-recursion", "--M", "2.85", "--mode", "seeded_slack"],
    ["--dagger", "--graph", "cycle:5"]], ids=lambda mode: mode[0][2:])
def test_capacity_modes_print_strict_json(mode, capsys):
    assert main(["capacity", *mode]) == 0
    _strict(capsys.readouterr().out)


@pytest.mark.parametrize("kind", ["zero", "network_flow", "local_flow",
                                  "max_enhanced", "cycle_global", "path_root"])
def test_every_law_whose_state_overflows_trips_the_guard(kind, tmp_path, capsys):
    graph, x0 = {"cycle_global": ("cycle", [0.1, 0.2, 0.3]),
                 "path_root": ("path_root_selfloop", [0.1, 0.2, 0.3])}.get(
                     kind, ("single_selfloop", [0.3]))
    d = _simulate(tmp_path, capsys, {
        "graph": {"kind": graph, "n": len(x0)},
        "function": {"kind": "linear", "a": 1e10},
        "controller": {"kind": kind}, "horizon": 60, "x0": x0,
        "guard_cap": 1e308})
    assert d["guard_tripped"] is True


def test_constant_sign_disturbance_at_float_max_runs(tmp_path, capsys):
    # drawn as uniform(0, w_star), whose span w_star is finite, so the
    # config that seeded_uniform's span 2 * w_star refuses must run
    _simulate(tmp_path, capsys, {
        "graph": {"kind": "cycle", "n": 3},
        "function": {"kind": "linear", "a": 0.5}, "horizon": 10,
        "x0": [0.1, 0.2, 0.3],
        "disturbance": {"w_star": 1e308, "generator": "constant_sign"}})


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    done = _python(tmp_path, str(demo))
    assert done.returncode == 0, done.stderr


def test_controllers_and_goldens_without_simd_dispatch(tmp_path):
    # The outputs must not depend on the SIMD level numpy dispatches to (its
    # max/min pick among tied zeros by it). The targets are read from numpy,
    # as they change between versions and numpy ignores a name it does not
    # know; the child checks that each one is off before it runs the tests.
    child = ("import importlib, sys, pytest\n"
             "umath = importlib.import_module(sys.argv[1])\n"
             "on = [t for t in umath.__cpu_dispatch__"
             " if umath.__cpu_features__[t]]\n"
             "if on:\n"
             "    sys.exit(f'dispatch targets still on: {on}')\n"
             "sys.exit(pytest.main(sys.argv[2:]))\n")
    done = _python(
        tmp_path, "-c", child, _umath.__name__, "-q", "-p", "no:cacheprovider",
        str(TESTS / "test_controllers.py"), str(TESTS / "test_golden.py"),
        env={"NPY_DISABLE_CPU_FEATURES": " ".join(_umath.__cpu_dispatch__)})
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr
