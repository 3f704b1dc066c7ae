"""Closed-loop execution of one experiment and bit-stable output emission.

One run is one sequential loop. Per step t: the network extremes are refreshed
if the controller needs them, the controller reads the flow record and fixes
U(t), the disturbance draws W(t), the plant (or the adversary's committed
function) produces X(t+1), and the estimate Z(t) is observed and logged. The
divergence guard stops the loop once states leave [-cap, cap] or go
non-finite; the partial trajectory is still written.

The extremes are taken in closed form: the first argmax/argmin of X(t), i.e.
the lowest-index holder on ties. That is the limit the flooding protocol
flows.run_extreme_consensus reaches on a strongly connected graph; the tests
prove the two agree, exhaustively on small digraphs and at every step of
seeded runs. Strong connectivity is checked once, before the first step.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .adversary import DivergenceCertificate, IntervalLedger, OnlineAdversary
from .capacity import xie_guo_constant
from .config import ExperimentConfig
from .controllers import Controller
from .dynamics import (InverseObserver, PlantModel, PlantState, observe_direct,
                       step)
from .flows import FlowLog
from .functions import certificate_for, residual_bound
from .graphs import inf_norm, is_strongly_connected, sharp_metric


@dataclass
class RunResult:
    config: ExperimentConfig
    log: FlowLog
    w_hist: np.ndarray
    interval: IntervalLedger
    summary: dict
    certificate: DivergenceCertificate | None = None
    branches: tuple = ()
    explore_log: tuple = ()
    enhanced: dict | None = None

    @property
    def x_hist(self) -> np.ndarray:
        return self.log.x_hist

    @property
    def u_hist(self) -> np.ndarray:
        return self.log.u_hist

    @property
    def z_hist(self) -> np.ndarray:
        return self.log.z_hist


def theoretical_bound(config: ExperimentConfig) -> float | None:
    """Guaranteed limsup bound (residual + estimate error) * inf_norm + w_*,
    when the closed loop actually carries the guarantee: network_flow
    controller and a certified slope strictly below the critical gain."""
    if config.adversary or config.controller.kind != "network_flow":
        return None
    g = config.graph
    nrm = inf_norm(g)
    if nrm <= 0:
        return None
    crit, _ = xie_guo_constant()
    try:
        cert = certificate_for(config.f)
    except ValueError:
        return None
    if not np.isfinite(cert.L) or cert.L * nrm >= crit:
        return None
    resid = residual_bound(cert, crit / nrm)
    if not np.isfinite(resid):
        return None
    if config.observation.mode == "direct":
        d0 = config.observation.d0
    else:
        try:
            d0 = InverseObserver(g).error_gain * config.disturbance.w_star
        except (ValueError, np.linalg.LinAlgError):
            return None
    return (resid + d0) * nrm + config.disturbance.w_star


def run_experiment(config: ExperimentConfig) -> RunResult:
    g = config.graph
    n = g.n
    x0 = np.array(config.x0, dtype=float)
    controller = Controller(config.controller, g)
    source = config.disturbance.make_source()
    obs = config.observation
    obs_rng = np.random.default_rng(obs.noise_seed)
    adv = OnlineAdversary(g, x0) if config.adversary else None
    inverse = None
    model = None
    if adv is None:
        model = PlantModel(g, config.f, config.disturbance, obs)
        if obs.mode == "matrix_inverse":
            inverse = InverseObserver(g)

    log = FlowLog(n, capacity=config.horizon + 1)
    log.append(x0)
    controller.ledger.update(x0)
    interval = IntervalLedger(x0)
    needs_enh = controller.needs_enhanced
    if needs_enh and not is_strongly_connected(g):
        raise ValueError("extreme consensus needs a strongly connected graph")
    # extreme series: x_* through the current step, z_at_* through the last
    x_max, x_min, z_hi, z_lo = (np.empty(config.horizon + 1) for _ in range(4))
    holders = []
    w_rows = []
    guard_tripped = False
    cap = config.guard_cap
    state = PlantState(0, x0)

    for t in range(config.horizon):
        if needs_enh:
            hi, lo = int(state.x.argmax()), int(state.x.argmin())
            x_max[t], x_min[t] = state.x[hi], state.x[lo]
            holders.append((hi, lo))
            series = (x_max[:t + 1], x_min[:t + 1], z_hi[:t], z_lo[:t])
        else:
            series = None
        u = controller.controls(log, t, series)
        w = source.draw(n)
        if adv is not None:
            fvals = adv.step(t, state.x, u, w)
            with np.errstate(over="ignore", invalid="ignore"):
                x_next = g.weights @ fvals + u + w
            z = fvals.copy()   # committed values are the exact estimates
            state = PlantState(t + 1, x_next)
        else:
            x_t = state.x
            state, w = step(model, state, u, w=w)
            if obs.mode == "direct":
                z = observe_direct(config.f, x_t, obs.d0, obs_rng)
            else:
                z = inverse.observe(state.x, u)
        if needs_enh:
            z_hi[t], z_lo[t] = z[hi], z[lo]
        log.append(state.x, z=z, u=u)
        w_rows.append(w)
        controller.ledger.update(state.x)
        interval.update(state.x)
        finite = np.isfinite(state.x)
        if not finite.all() or float(np.abs(state.x).max()) > cap:
            guard_tripped = True
            break

    steps = log.t
    x_hist = log.x_hist
    finite = np.isfinite(x_hist)
    non_finite = not bool(finite.all())
    absx = np.abs(np.where(finite, x_hist, 0.0))
    sup_state = float(absx.max())
    dec = max(1, (steps + 1) // 10)
    tail_state = float(absx[-dec:].max())
    bound = theoretical_bound(config)
    certificate = adv.certificate() if adv is not None else None

    if guard_tripped or non_finite:
        verdict, basis = "diverged", "guard"
    elif certificate is not None and certificate.verdict:
        verdict, basis = "diverged", "certificate"
    elif bound is not None:
        basis = "theorem_bound"
        verdict = "stabilized" if tail_state <= bound * 1.05 else "horizon_reached"
    else:
        basis = "tail_comparison"
        half = max(1, (steps + 1) // 2)
        verdict = ("stabilized" if tail_state <= float(absx[:half].max())
                   else "horizon_reached")

    summary = {
        "verdict": verdict,
        "verdict_basis": basis,
        "sup_state": sup_state,
        "tail_state": tail_state,
        "non_finite_states": non_finite,
        "bound": bound,
        "horizon": config.horizon,
        "steps_run": steps,
        "guard_tripped": guard_tripped,
        "guard_cap": cap,
        "controller": config.controller.kind,
        "adversary": config.adversary,
        "n": n,
        "inf_norm": inf_norm(g),
        "sharp_metric": sharp_metric(g),
        "label": config.label,
        "certificate": "certificate.json" if config.adversary else None,
        "explore_steps": (int(sum(controller.branch_log))
                          if config.controller.kind == "network_flow" else None),
    }
    enhanced = None
    if needs_enh:
        enhanced = {"x_max": x_max[:steps], "x_min": x_min[:steps],
                    "z_at_max": z_hi[:steps], "z_at_min": z_lo[:steps],
                    "holders": holders}
    return RunResult(config=config, log=log,
                     w_hist=np.asarray(w_rows).reshape(len(w_rows), n),
                     interval=interval, summary=summary,
                     certificate=certificate,
                     branches=tuple(adv.branches) if adv is not None else (),
                     explore_log=tuple(controller.branch_log),
                     enhanced=enhanced)


def _fmt(v) -> str:
    return "%.17g" % float(v)


def write_outputs(result: RunResult, out_dir) -> dict:
    """trajectory.csv, summary.json and, for adversary runs,
    certificate.json. Node ids are 1-based; floats carry 17 significant
    digits so they round-trip. The final row block holds the terminal state
    with empty u, z, w fields."""
    os.makedirs(out_dir, exist_ok=True)
    log = result.log
    steps = log.t
    x, z, u, w = log.x_hist, log.z_hist, log.u_hist, result.w_hist
    lines = ["t,node,x,u,z,w"]
    for t in range(steps):
        for i in range(log.n):
            lines.append(f"{t},{i + 1},{_fmt(x[t, i])},{_fmt(u[t, i])},"
                         f"{_fmt(z[t, i])},{_fmt(w[t, i])}")
    for i in range(log.n):
        lines.append(f"{steps},{i + 1},{_fmt(x[steps, i])},,,")
    paths = {"trajectory": os.path.join(out_dir, "trajectory.csv"),
             "summary": os.path.join(out_dir, "summary.json")}
    with open(paths["trajectory"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(paths["summary"], "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.certificate is not None:
        paths["certificate"] = os.path.join(out_dir, "certificate.json")
        with open(paths["certificate"], "w") as fh:
            json.dump(result.certificate.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return paths
