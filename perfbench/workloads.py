"""Benchmark workloads: inputs derived from one seed, operations, and checks.

A workload is a list of operations built once (the set-up) and then run in
passes. Each operation is one call into netfeedback. Its result is reduced to
a digest, compared with references.json at the seeds shipped there, and
checked against invariants that hold at any seed.
"""

import hashlib
import io
import json
import os
import contextlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

# "full" is what the benchmark measures; "tiny" is the warm-up pass run before
# timing starts and the size the self-test uses.
SIZES = {
    "full": dict(horizons=(600, 2400), wide_n=24, wide_arcs=214, wide_T=400,
                 adv_cap=None, sweep_T=1000, sweep_gains=8, dagger_graphs=20,
                 dagger_T=200, scalar_T=100_000, write_n=10, write_T=5000,
                 inverse_T=1000, cli_T=600),
    "tiny": dict(horizons=(30, 90), wide_n=8, wide_arcs=None, wide_T=30,
                 adv_cap=1e30, sweep_T=60, sweep_gains=3, dagger_graphs=2,
                 dagger_T=40, scalar_T=2000, write_n=4, write_T=100,
                 inverse_T=60, cli_T=60),
}

CRITICAL_GAIN = 1.5 + 2 ** 0.5
# Relative tolerance of the plant-equation check: the benchmark recomputes
# A f(X) + U + W with one matrix product over all steps, the runner with one
# per step, so the two may differ in the last bits.
PLANT_RTOL = 1e-9
# Absolute slack on the observation-error bounds, relative to |f(x)|.
OBS_RTOL = 1e-12


@dataclass
class Outcome:
    digest: str
    problems: list
    record: dict
    steps: int = 0


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    closed_loop: bool = False   # a direct run_experiment call


def _canon(obj):
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype.str}{obj.shape}".encode() + obj.tobytes()
    if isinstance(obj, bytes):
        return obj
    return json.dumps(obj, sort_keys=True).encode()


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = _canon(part)
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:20]


def numeric_fields(summary: dict) -> dict:
    """The numeric entries of a summary; verdict fields are recorded, not gated."""
    return {k: v for k, v in summary.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def run_invariants(cfg, res) -> list:
    """Checks that hold for every closed-loop run at any seed."""
    problems = []
    x, u, z, w = res.x_hist, res.u_hist, res.z_hist, res.w_hist
    steps = u.shape[0]
    if steps == 0:
        return ["no steps run"]
    if np.any(u[0] != 0.0):
        problems.append("u(0) != 0")
    a = cfg.graph.weights
    with np.errstate(all="ignore"):
        # the adversary's estimates are its committed function values
        fx = z if cfg.adversary else np.asarray(cfg.f(x[:steps]), dtype=float)
        rhs = fx @ a.T + u + w
        scale = 1.0 + np.abs(fx) @ np.abs(a).T + np.abs(u) + np.abs(w)
        gap = np.abs(x[1:steps + 1] - rhs)
        rows = np.isfinite(scale).all(axis=1) & np.isfinite(x[1:steps + 1]).all(axis=1)
        if np.any(gap[rows] > PLANT_RTOL * scale[rows]):
            problems.append("plant equation violated")
        if not cfg.adversary:
            obs = cfg.observation
            if obs.mode == "direct":
                limit = obs.d0
            else:
                limit = _inverse_gain(cfg) * cfg.disturbance.w_star
            err = np.abs(z - fx)
            slack = limit + OBS_RTOL * (1.0 + np.abs(fx)) + PLANT_RTOL * scale
            if np.any(err[rows] > slack[rows]):
                problems.append("|z - f(x)| exceeds the observation bound")
    if cfg.adversary and not (res.certificate is not None and res.certificate.verdict):
        problems.append("E did not double")
    return problems


def _inverse_gain(cfg) -> float:
    return float(np.abs(np.linalg.inv(cfg.graph.weights)).sum(axis=1).max())


def check_run(cfg):
    def check(res) -> Outcome:
        parts = [res.x_hist, res.u_hist, res.z_hist, res.w_hist,
                 numeric_fields(res.summary)]
        if res.certificate is not None:
            parts.append(res.certificate.to_dict())
        record = {k: res.summary[k] for k in ("verdict", "verdict_basis", "steps_run")}
        return Outcome(digest(*parts), run_invariants(cfg, res), record,
                       int(res.summary["steps_run"]))
    return check


def _seeds(seed: int, tag: int, k: int) -> list:
    rng = np.random.default_rng([seed, tag])
    return [int(v) for v in rng.integers(0, 2 ** 31 - 1, size=k)]


def _raw(graph: dict, kind: str, fn: dict | None, horizon: int, seeds: list,
         **extra) -> dict:
    raw = {"graph": graph, "controller": {"kind": kind}, "horizon": horizon,
           "observation": {"mode": "direct", "d0": 0.05, "noise_seed": seeds[0]},
           "disturbance": {"w_star": 0.1, "generator": "seeded_uniform",
                           "seed": seeds[1]},
           "x0": {"seed": seeds[2], "scale": 1.0}}
    if fn is not None:
        raw["function"] = fn
    raw.update(extra)
    return raw


def _run_op(nf, name: str, raw: dict) -> Op:
    cfg = nf.ExperimentConfig(raw)
    return Op(name, lambda: nf.run_experiment(cfg), check_run(cfg), closed_loop=True)


def build_long_horizon(nf, seed: int, size: dict, out_dir: str) -> list:
    """All five laws on n=5 canonical graphs, each at two horizons."""
    laws = [("network_flow", "cycle", 2.6), ("local_flow", "cycle", 0.8),
            ("max_enhanced", "cycle", 0.8), ("cycle_global", "cycle", 0.8),
            ("path_root", "path_root_selfloop", 0.8)]
    ops = []
    for k, (kind, graph, slope) in enumerate(laws):
        seeds = _seeds(seed, 100 + k, 3)
        fn = {"kind": "bounded_perturbed_linear", "a": slope, "amplitude": 0.5}
        for T in size["horizons"]:
            ops.append(_run_op(nf, f"{kind}.T{T}",
                               _raw({"kind": graph, "n": 5}, kind, fn, T, seeds)))
    return ops


def wide_graph_spec(nf, seed: int, size: dict) -> tuple:
    """A random strongly connected digraph with a fixed arc count, so that
    the per-arc work of a pass does not depend on the seed."""
    base = _seeds(seed, 200, 1)[0]
    for k in range(10_000):
        spec = {"kind": "random_strongly_connected", "n": size["wide_n"],
                "seed": base + k}
        g = nf.random_strongly_connected(spec["n"], spec["seed"])
        if size["wide_arcs"] is None or len(g.arcs) == size["wide_arcs"]:
            return spec, g
    raise RuntimeError("no graph with the target arc count")


def build_wide_graph(nf, seed: int, size: dict, out_dir: str) -> list:
    """Three neighbourhood laws on one n=24 random digraph, short horizon.
    The slope 2/inf_norm sits below the critical gain."""
    spec, g = wide_graph_spec(nf, seed, size)
    fn = {"kind": "bounded_perturbed_linear", "a": 2.0 / nf.inf_norm(g),
          "amplitude": 0.5}
    ops = []
    for k, kind in enumerate(("network_flow", "local_flow", "max_enhanced")):
        seeds = _seeds(seed, 210 + k, 3)
        ops.append(_run_op(nf, kind, _raw(spec, kind, fn, size["wide_T"], seeds)))
    return ops


def _sweep_check(n_gains: int):
    def check(report) -> Outcome:
        points = report["points"]
        gated = [{k: p.get(k) for k in ("L", "sup_state", "bound", "hull_growth",
                                        "explore_steps")} for p in points]
        verdicts = [p["verdict"] for p in points]
        disagree = sum(1 for v in verdicts if isinstance(v, list) and len(set(v)) > 1)
        problems = [] if len(points) == n_gains else ["wrong number of sweep points"]
        return Outcome(digest(gated), problems,
                       {"verdicts": verdicts, "trial_disagreements": disagree})
    return check


def _dagger_check(nrm: float):
    def check(est) -> Outcome:
        problems = []
        if est.estimate < 1.0 / nrm - 1e-12:
            problems.append("dagger estimate below 1/inf_norm")
        return Outcome(digest(est.to_dict()), problems,
                       {"estimate": est.estimate})
    return check


def _scalar_check(mode: str, M: float):
    def check(res) -> Outcome:
        problems = []
        if mode == "equality":
            want = "summable" if M < CRITICAL_GAIN else "diverging"
            if res.verdict != want:
                problems.append(f"M={M} is {res.verdict}, expected {want}")
        return Outcome(digest(res.to_dict()), problems, {"verdict": res.verdict})
    return check


def _files_outcome(paths: dict, n: int) -> Outcome:
    """Digest of written output files; summary.json by its numeric fields."""
    with open(paths["trajectory"], "rb") as fh:
        trajectory = fh.read()
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    parts = [trajectory, numeric_fields(summary)]
    if "certificate" in paths:
        with open(paths["certificate"], "rb") as fh:
            parts.append(fh.read())
    problems = []
    if trajectory.count(b"\n") != n * (summary["steps_run"] + 1) + 1:
        problems.append("trajectory.csv has the wrong number of rows")
    record = {k: summary.get(k) for k in ("verdict", "verdict_basis")}
    return Outcome(digest(*parts), problems, record)


def build_lab_batch(nf, seed: int, size: dict, out_dir: str) -> list:
    """The lab work other than closed-loop control: adversary, capacity,
    output writing and the CLI."""
    import netfeedback.cli as cli
    ops = []
    for k, kind in enumerate(("zero", "network_flow", "local_flow")):
        raw = {"graph": {"kind": "cycle", "n": 3}, "adversary": True,
               "controller": {"kind": kind}, "horizon": 2000,
               "x0": {"seed": _seeds(seed, 300 + k, 1)[0], "scale": 1.0}}
        if size["adv_cap"] is not None:
            raw["guard_cap"] = size["adv_cap"]
        ops.append(_run_op(nf, f"adversary.{kind}", raw))

    base = nf.ExperimentConfig(_raw(
        {"kind": "path_root_selfloop", "n": 5}, "path_root",
        {"kind": "bounded_perturbed_linear", "a": 1.0, "amplitude": 0.5},
        size["sweep_T"], _seeds(seed, 310, 3)))
    gains = np.linspace(2.0, 3.4, size["sweep_gains"]).tolist()
    ops.append(Op("sweep.path_root",
                  lambda: nf.threshold_sweep(base, gains, trials=2),
                  _sweep_check(len(gains))))

    rng = np.random.default_rng([seed, 320])
    for k in range(size["dagger_graphs"]):
        g = nf.random_strongly_connected(int(rng.integers(2, 6)),
                                         int(rng.integers(0, 2 ** 31 - 1)))
        ops.append(Op(f"dagger.{k:02d}",
                      lambda g=g: nf.estimate_dagger(g, T=size["dagger_T"]),
                      _dagger_check(nf.inf_norm(g))))
    slack_seed = _seeds(seed, 330, 1)[0]
    for mode in ("equality", "seeded_slack"):
        for M in (2.85, 2.97):
            ops.append(Op(f"scalar.{mode}.M{M}",
                          lambda mode=mode, M=M: nf.simulate_scalar_recursion(
                              M, mode=mode, T=size["scalar_T"], seed=slack_seed),
                          _scalar_check(mode, M)))

    seeds = _seeds(seed, 340, 4)
    spec = {"kind": "random_strongly_connected", "n": size["write_n"],
            "seed": seeds[3]}
    g = nf.random_strongly_connected(spec["n"], spec["seed"])
    source = _run_op(nf, "run.zero_for_write", _raw(
        spec, "zero", {"kind": "linear", "a": 0.5 / nf.inf_norm(g)},
        size["write_T"], seeds))
    held = {}
    run_source = source.call

    def run_and_keep():
        held["result"] = run_source()
        return held["result"]

    source.call = run_and_keep
    ops.append(source)
    ops.append(Op("write_outputs",
                  lambda: nf.write_outputs(held.pop("result"),
                                           os.path.join(out_dir, "write")),
                  lambda paths: _files_outcome(paths, spec["n"])))

    ops.append(_run_op(nf, "run.matrix_inverse", _raw(
        {"kind": "cycle", "n": 5}, "network_flow",
        {"kind": "bounded_perturbed_linear", "a": 0.8, "amplitude": 0.5},
        size["inverse_T"], _seeds(seed, 350, 3),
        observation={"mode": "matrix_inverse"})))

    cli_raw = _raw({"kind": "cycle", "n": 4}, "network_flow",
                   {"kind": "bounded_perturbed_linear", "a": 0.8, "amplitude": 0.5},
                   size["cli_T"], _seeds(seed, 360, 3))
    nf.ExperimentConfig(cli_raw)   # the CLI builds its own; set-up validates it
    cli_config = os.path.join(out_dir, "cli_config.json")
    with open(cli_config, "w") as fh:
        json.dump(cli_raw, fh)
    cli_out = os.path.join(out_dir, "cli")

    def simulate():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["simulate", "--config", cli_config, "--out", cli_out])
        return rc, buf.getvalue()

    def check_cli(result) -> Outcome:
        rc, text = result
        if rc != 0:
            return Outcome("", [f"cli exit code {rc}"], {})
        out = _files_outcome({"trajectory": os.path.join(cli_out, "trajectory.csv"),
                              "summary": os.path.join(cli_out, "summary.json")}, 4)
        with open(os.path.join(cli_out, "summary.json")) as fh:
            written = numeric_fields(json.load(fh))
        if numeric_fields(json.loads(text)) != written:
            out.problems.append("printed summary differs from summary.json")
        return out

    ops.append(Op("cli.simulate", simulate, check_cli))
    return ops


WORKLOAD_OPS = {"long_horizon": build_long_horizon, "wide_graph": build_wide_graph,
            "lab_batch": build_lab_batch}


def build(nf, workload: str, seed: int, scale: str, out_dir: str) -> list:
    """Build every config and graph a workload uses; returns its operations."""
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOAD_OPS[workload](nf, seed, SIZES[scale], out_dir)
