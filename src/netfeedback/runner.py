"""Closed-loop execution of one experiment and bit-stable output emission.

One run is one sequential loop with no branch on the law, the plant or the
observation channel. Per step t: the controller reads the flow record and
fixes U(t), the disturbance draws W(t), the plant (the model plant or the
adversary's committed function) returns X(t+1) and the estimate Z(t), and
the log takes the new row. One max and one min of X(t+1) per step serve
both the running hull (IntervalLedger) and the divergence guard, which stops
the loop once states leave [-cap, cap] or go non-finite; the partial
trajectory is still written.

The max_enhanced law needs a strongly connected graph, so that its
closed-form extremes are the limit of flows.run_extreme_consensus; that is
checked once, before the first step. RunResult.enhanced holds the same
extremes, taken after the loop from the state history.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .adversary import DivergenceCertificate, IntervalLedger, OnlineAdversary
from .capacity import xie_guo_constant
from .config import ExperimentConfig
from .controllers import Controller
from .dynamics import InverseObserver, PlantModel
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
    x = np.array(config.x0, dtype=float)
    kind = config.controller.kind
    controller = Controller(config.controller, g)
    source = config.disturbance.make_source()
    plant = (OnlineAdversary(g, x) if config.adversary
             else PlantModel(g, config.f, config.observation))
    if kind == "max_enhanced" and not is_strongly_connected(g):
        raise ValueError("extreme consensus needs a strongly connected graph")

    log = FlowLog(n, capacity=config.horizon + 1)
    log.append(x)
    interval = IntervalLedger(x)
    w_rows = []
    guard_tripped = False
    cap = config.guard_cap

    for t in range(config.horizon):
        u = controller.controls(log, t)
        w = source.draw(n)
        x, z = plant.advance(t, x, u, w)
        log.append(x, z=z, u=u)
        w_rows.append(w)
        hi, lo = float(x.max()), float(x.min())
        interval.push(hi, lo)
        if not (-cap <= lo and hi <= cap):   # a NaN fails both comparisons
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
    certificate = plant.certificate() if config.adversary else None

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
        "controller": kind,
        "adversary": config.adversary,
        "n": n,
        "inf_norm": inf_norm(g),
        "sharp_metric": sharp_metric(g),
        "label": config.label,
        "certificate": "certificate.json" if config.adversary else None,
        "explore_steps": (int(sum(controller.branch_log))
                          if kind == "network_flow" else None),
    }
    enhanced = None
    if kind == "max_enhanced":
        # the first argmax/argmin of each decided row, as the law took them
        rows = np.arange(steps)
        hi, lo = x_hist[:steps].argmax(axis=1), x_hist[:steps].argmin(axis=1)
        enhanced = {"x_max": x_hist[rows, hi], "x_min": x_hist[rows, lo],
                    "z_at_max": log.z_hist[rows, hi],
                    "z_at_min": log.z_hist[rows, lo],
                    "holders": list(zip(hi.tolist(), lo.tolist()))}
    return RunResult(config=config, log=log,
                     w_hist=np.asarray(w_rows).reshape(len(w_rows), n),
                     interval=interval, summary=summary,
                     certificate=certificate,
                     branches=tuple(plant.branches) if config.adversary else (),
                     explore_log=tuple(controller.branch_log),
                     enhanced=enhanced)


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
    # one row at a time: lists of whole histories would raise the peak memory
    for t in range(steps):
        lines.extend(["%d,%d,%.17g,%.17g,%.17g,%.17g" % (t, i, *vals)
                      for i, vals in enumerate(zip(x[t].tolist(), u[t].tolist(),
                                                   z[t].tolist(), w[t].tolist()), 1)])
    lines.extend(["%d,%d,%.17g,,," % (steps, i, v)
                  for i, v in enumerate(x[steps].tolist(), 1)])
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
