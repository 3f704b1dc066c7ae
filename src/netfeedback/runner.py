"""Closed-loop execution of one experiment and bit-stable output emission.

One run is one sequential loop with no branch on the law, the plant or the
observation channel. The disturbance table W(0..H-1) is filled a block of
rows per draw of the stream (_Blocks.rows), which gives the values that one
draw(n) per step would; the loop reads it row by row, and a run the guard
stops early has drawn at most one block past its last step. Per step t: the
controller reads the flow record and fixes U(t); the plant (the model plant
or the adversary's committed function) writes X(t+1) and the estimate Z(t)
in place into the log's next rows; and FlowLog.commit stores U(t), advances
the flow time and returns X(t+1) as a list of floats, built once for the
step. The divergence guard reads that list and stops the loop unless -cap <=
v <= cap for every state v, so a NaN fails; the partial trajectory is still
written. The log keeps the same list, with the one before it, for the law's
next call, so each value of a step is written once. The loop records only
the flow log and the W table: a sweep derives the hull from the log after
the run.

The runner owns overflow: it enters one np.errstate (overflow and invalid
ignored) around the whole loop, and the plants' advance methods enter none
of their own (the matrix-inverse channel multiplies by A^{-1} in advance,
not through InverseObserver.observe, which keeps its errstate for direct
callers), so a state that overflows reaches the guard without a
RuntimeWarning.

The max_enhanced law needs a strongly connected graph, so that its
closed-form extremes are the limit of flows.run_extreme_consensus;
ExperimentConfig checks that when the config is built.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .adversary import DivergenceCertificate, OnlineAdversary
from .config import ExperimentConfig
from .controllers import Controller
from .dynamics import InverseObserver, PlantModel
from .flows import FlowLog
from .functions import XIE_GUO, certificate_for
from .graphs import inf_norm, sharp_metric


@dataclass
class RunResult:
    config: ExperimentConfig
    log: FlowLog
    w_hist: np.ndarray
    summary: dict
    certificate: DivergenceCertificate | None = None
    branches: tuple = ()
    explore_log: tuple = ()

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
    try:
        cert = certificate_for(config.f)
    except ValueError:
        return None
    if cert.L * nrm >= XIE_GUO:
        return None
    resid = cert.residual_bound(XIE_GUO / nrm)
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
    controller = Controller(config.controller, g)
    source = config.disturbance.make_source()
    plant = (OnlineAdversary(g, x) if config.adversary
             else PlantModel(g, config.f, config.observation))

    log = FlowLog(x, config.horizon)
    w_hist = np.empty((config.horizon, n))
    guard_tripped = False
    cap = config.guard_cap

    with np.errstate(over="ignore", invalid="ignore"):
        for t, (w, (x_next, z)) in enumerate(zip(source.rows(w_hist),
                                                 log.open_rows())):
            u = controller.controls(log, t)
            x, _ = plant.advance(t, x, u, w, x_next, z)
            for v in log.commit(u):
                if not -cap <= v <= cap:   # NaN fails
                    break
            else:
                continue   # every state within the cap: next step
            guard_tripped = True
            break
    return _run_result(config, controller, plant, log, w_hist[:log.t],
                       guard_tripped)


def _run_result(config: ExperimentConfig, controller: Controller, plant,
                log: FlowLog, w_hist: np.ndarray,
                guard_tripped: bool) -> RunResult:
    """The RunResult of a finished loop: the verdict and summary from the
    flow log, the certificate and branches of an adversary plant."""
    g = config.graph
    kind = config.controller.kind
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
        "guard_cap": config.guard_cap,
        "controller": kind,
        "adversary": config.adversary,
        "n": g.n,
        "inf_norm": inf_norm(g),
        "sharp_metric": sharp_metric(g),
        "label": config.label,
        "certificate": "certificate.json" if config.adversary else None,
        "explore_steps": (int(sum(controller.branch_log))
                          if kind == "network_flow" else None),
    }
    return RunResult(config=config, log=log, w_hist=w_hist,
                     summary=summary, certificate=certificate,
                     branches=tuple(plant.branches) if config.adversary else (),
                     explore_log=tuple(controller.branch_log))


_WRITE_BLOCK = 256   # time rows of trajectory.csv formatted at once


def write_outputs(result: RunResult, out_dir) -> dict:
    """trajectory.csv, summary.json and, for adversary runs,
    certificate.json. Node ids are 1-based; floats carry 17 significant
    digits so they round-trip. The final row block holds the terminal state
    with empty u, z, w fields."""
    os.makedirs(out_dir, exist_ok=True)
    log = result.log
    steps, n = log.t, log.n
    x, z, u, w = log.x_hist, log.z_hist, log.u_hist, result.w_hist
    # one format per time row, filled from (t, x, u, z, w) a block of rows
    # at a time: %d prints the float t as its integer
    row = "".join(["%%d,%d,%%.17g,%%.17g,%%.17g,%%.17g\n" % i
                   for i in range(1, n + 1)])
    times = np.broadcast_to(np.arange(steps, dtype=float)[:, None], (steps, n))
    paths = {"trajectory": os.path.join(out_dir, "trajectory.csv"),
             "summary": os.path.join(out_dir, "summary.json")}
    with open(paths["trajectory"], "w") as fh:
        fh.write("t,node,x,u,z,w\n")
        for s in range(0, steps, _WRITE_BLOCK):
            e = min(s + _WRITE_BLOCK, steps)
            block = np.stack([times[s:e], x[s:e], u[s:e], z[s:e], w[s:e]],
                             axis=2)
            fh.write(row * (e - s) % tuple(block.ravel().tolist()))
        fh.write("".join(["%d,%d,%.17g,,,\n" % (steps, i, v)
                          for i, v in enumerate(x[steps].tolist(), 1)]))
    with open(paths["summary"], "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.certificate is not None:
        paths["certificate"] = os.path.join(out_dir, "certificate.json")
        with open(paths["certificate"], "w") as fh:
            json.dump(result.certificate.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return paths
