"""Acceptance gate: nine end-to-end criteria at fixed tolerances.

Each test prints exactly one PASS/FAIL line; run with `pytest -s` to see the
lines for passing criteria too. Every numeric tolerance and runtime budget is
asserted, so this file is the release gate for the package.
"""

import itertools
import json
import math
import time

import numpy as np

from netfeedback import (
    ExperimentConfig,
    FlowLog,
    LocalFlowView,
    control_local_flow,
    estimate_dagger,
    inf_norm,
    random_strongly_connected,
    run_experiment,
    run_extreme_consensus,
    simulate_scalar_recursion,
    WeightedDigraph,
)
from netfeedback.cli import main as cli_main


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_stabilization_bound():
    cfg = ExperimentConfig({
        "graph": {"kind": "cycle", "n": 5},
        "function": {"kind": "linear", "a": 2.6, "b": 0.0},
        "controller": {"kind": "network_flow", "epsilon": 1e-3},
        "observation": {"mode": "direct", "d0": 0.05, "noise_seed": 2},
        "disturbance": {"w_star": 0.1, "generator": "seeded_uniform", "seed": 5},
        "horizon": 5000,
        "x0": {"seed": 1, "scale": 0.5},
    })
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    tail = float(np.abs(res.x_hist[-500:]).max())
    bound = (0.0 + 0.05) * 1.0 + 0.1
    ok = (res.summary["verdict"] == "stabilized"
          and tail <= bound * 1.05
          and elapsed < 5.0)
    _report(1, "stabilization bound", ok,
            f"verdict={res.summary['verdict']}, tail={tail:.4f} <= "
            f"{bound * 1.05:.4f}, {elapsed:.2f}s < 5s")


def test_criterion_2_divergence_certificate():
    details = []
    ok = True
    for kind in ("zero", "network_flow", "local_flow", "max_enhanced"):
        cfg = ExperimentConfig({
            "graph": {"kind": "cycle", "n": 3},
            "controller": {"kind": kind, "epsilon": 1e-3},
            "observation": {"mode": "direct", "d0": 0.0},
            "disturbance": {"w_star": 0.0, "generator": "zero"},
            "adversary": True,
            "horizon": 40,
            "x0": [0.0, 0.5, 1.0],
        })
        t0 = time.perf_counter()
        res = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        cert = res.certificate
        E = np.asarray(cert.E)
        sharp, i0 = 1.0, 1.0
        run_ok = (res.summary["verdict"] == "diverged"
                  and cert.chi[0] >= sharp + 3.5 * i0
                  and bool(np.all(E[1:] > 2.0 * E[:-1]))
                  and elapsed < 1.0)
        ok = ok and run_ok
        details.append(f"{kind}: chi1={cert.chi[0]:.3g} {elapsed * 1e3:.0f}ms")
    _report(2, "adversary divergence certificate", ok,
            "chi(1) >= 4.5 and E doubles every step for " + "; ".join(details))


def test_criterion_3_critical_constant(capsys):
    t0 = time.perf_counter()
    assert cli_main(["capacity", "--xie-guo"]) == 0
    payload = json.loads(capsys.readouterr().out)
    crit = 1.5 + math.sqrt(2.0)
    val_ok = abs(payload["value"] - crit) <= 1e-9
    min_ok = abs(payload["minimizer"] - (1.0 + math.sqrt(2.0) / 2.0)) <= 1e-6
    below = simulate_scalar_recursion(2.85, T=100_000).verdict
    above = simulate_scalar_recursion(2.97, T=100_000).verdict
    elapsed = time.perf_counter() - t0
    ok = (val_ok and min_ok and below == "summable" and above == "diverging"
          and elapsed < 10.0)
    with capsys.disabled():
        _report(3, "critical constant", ok,
                f"value err={abs(payload['value'] - crit):.2e}, "
                f"minimizer err={abs(payload['minimizer'] - 1.0 - math.sqrt(2) / 2):.2e}, "
                f"M=2.85 {below}, M=2.97 {above}, {elapsed:.1f}s < 10s")


def test_criterion_4_dagger_floor():
    t0 = time.perf_counter()
    margins = []
    for n in (3, 4, 5, 6):
        for seed in range(5):
            g = random_strongly_connected(n, seed=seed)
            floor = 1.0 / inf_norm(g)
            margins.append(estimate_dagger(g).estimate - floor)
    elapsed = time.perf_counter() - t0
    worst = min(margins)
    ok = worst >= -1e-6 and elapsed < 60.0
    _report(4, "dagger capacity floor", ok,
            f"20 graphs, min(estimate - 1/inf_norm)={worst:.3f} >= -1e-6, "
            f"{elapsed:.1f}s < 60s")


def _strongly_connected_digraphs(n):
    """All labeled self-arc-free digraphs on n nodes that are strongly
    connected, as unit-weight matrices."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(arcs)):
        w = np.zeros((n, n))
        for b, (i, j) in enumerate(arcs):
            if mask >> b & 1:
                w[j, i] = 1.0
        g = WeightedDigraph(w)
        if n == 1 or (w.any() and _is_sc(g)):
            out.append(g)
    return out


def _is_sc(g):
    from netfeedback import is_strongly_connected
    return is_strongly_connected(g)


def test_criterion_5_consensus_exhaustive():
    t0 = time.perf_counter()
    counts = []
    failures = 0
    rounds_over = 0
    total = 0
    for n in (1, 2, 3, 4):
        graphs = _strongly_connected_digraphs(n)
        counts.append(len(graphs))
        rng = np.random.default_rng(n)
        for g in graphs:
            for _ in range(50):
                x = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n)
                z = rng.normal(size=n)
                res = run_extreme_consensus(g, x, z)
                hi = int(np.flatnonzero(x == x.max())[0])
                lo = int(np.flatnonzero(x == x.min())[0])
                good = (res.x_max == x.max() and res.holder_max == hi
                        and res.z_at_max == z[hi]
                        and res.x_min == x.min() and res.holder_min == lo
                        and res.z_at_min == z[lo])
                failures += not good
                rounds_over += res.rounds > n
                total += 1
    elapsed = time.perf_counter() - t0
    ok = (counts == [1, 1, 18, 1606] and failures == 0 and rounds_over == 0
          and elapsed < 30.0)
    _report(5, "consensus vs brute force", ok,
            f"graph counts {counts}, {total} runs, {failures} value failures, "
            f"{rounds_over} over n rounds, {elapsed:.1f}s < 30s")


def test_criterion_6_cycle_reduction():
    cfg = ExperimentConfig({
        "graph": {"kind": "cycle", "n": 4},
        "function": {"kind": "linear", "a": 0.8, "b": 0.0},
        "controller": {"kind": "cycle_global"},
        "observation": {"mode": "direct", "d0": 0.0},
        "disturbance": {"w_star": 0.0, "generator": "zero"},
        "horizon": 60,
        "x0": [0.9, -0.4, 0.2, -0.7],
    })
    res = run_experiment(cfg)
    x, u = res.x_hist, res.u_hist
    n, T = 4, 60
    f = cfg.f
    worst = 0.0
    for c in range(n):
        # the coordinate that rotates one node per step
        y = np.array([x[s, (c + s) % n] for s in range(T + 1)])
        v = np.array([u[t, (c + t + 1) % n] for t in range(T)])
        worst = max(worst, float(np.abs(y[1:] - (f(y[:-1]) + v)).max()))
        for t in range(1, T):
            s_star = int(np.abs(y[t] - y[:t]).argmin())
            v_ref = -f(y[s_star]) + 0.5 * (y[:t + 1].max() + y[:t + 1].min())
            worst = max(worst, abs(v[t] - v_ref))
    ok = worst <= 1e-12
    _report(6, "cycle reduction to the scalar loop", ok,
            f"worst recursion/law mismatch {worst:.2e} <= 1e-12")


def test_criterion_7_observer_bound():
    raw = {
        "graph": {"kind": "cycle", "n": 3},
        "function": {"kind": "bounded_perturbed_linear", "a": 0.5, "b": 0.0,
                     "amplitude": 0.3},
        "controller": {"kind": "zero"},
        "observation": {"mode": "matrix_inverse"},
        "disturbance": {"w_star": 0.1, "generator": "seeded_uniform", "seed": 12},
        "horizon": 200,
        "x0": [0.3, -0.2, 0.6],
    }
    cfg = ExperimentConfig(raw)
    res = run_experiment(cfg)
    err = float(np.abs(res.z_hist - cfg.f(res.x_hist[:-1])).max())

    raw0 = dict(raw, disturbance={"w_star": 0.0, "generator": "zero"})
    cfg0 = ExperimentConfig(raw0)
    res0 = run_experiment(cfg0)
    fx0 = cfg0.f(res0.x_hist[:-1])
    rel = float((np.abs(res0.z_hist - fx0) / np.maximum(1.0, np.abs(fx0))).max())
    ok = err <= 0.1 and rel <= 1e-10
    _report(7, "observer error bound", ok,
            f"max|z - f(x)|={err:.4f} <= w*=0.1; zero-disturbance rel err "
            f"{rel:.2e} <= 1e-10")


def test_criterion_8_information_confinement():
    weights = np.zeros((5, 5))
    for i in range(5):
        weights[i, (i - 1) % 5] = 1.0
    weights[2, 0] = 0.5
    cfg = ExperimentConfig({
        "graph": {"kind": "custom", "weights": weights.tolist()},
        "function": {"kind": "bounded_perturbed_linear", "a": 0.8, "b": 0.0,
                     "amplitude": 0.5},
        "controller": {"kind": "local_flow"},
        "observation": {"mode": "direct", "d0": 0.02, "noise_seed": 6},
        "disturbance": {"w_star": 0.05, "generator": "seeded_uniform", "seed": 9},
        "horizon": 25,
        "x0": [0.4, -0.2, 0.1, 0.3, -0.5],
    })
    res = run_experiment(cfg)
    g = cfg.graph
    x, z, u = res.x_hist, res.z_hist, res.u_hist
    mismatches = 0
    tampered_pairs = 0
    for i in range(5):
        members = sorted(set(g.neighbors(i)) | {i})
        outside = [j for j in range(5) if j not in members]
        tampered_pairs += len(outside)
        x2 = x.copy()
        z2 = z.copy()
        x2[:, outside] += 1e6
        z2[:, outside] -= 3e6
        fake = FlowLog(x2[0], 25)
        for t in range(25):
            fake.append(x2[t + 1], z=z2[t], u=u[t])
        for t in range(1, 25):
            replay = control_local_flow(LocalFlowView(fake, g, i), g, i, t)
            mismatches += not (replay == u[t, i])
    ok = tampered_pairs > 0 and mismatches == 0
    _report(8, "information confinement", ok,
            f"{tampered_pairs} (node, outsider) pairs perturbed by 1e6; "
            f"{mismatches} control mismatches (bit-exact replay)")


def test_criterion_9_local_anchor_fixed_point():
    # plant cycles the initial values among themselves, so every witness is
    # an exact revisit and the anchor returns each node to x_i(0)
    cfg = ExperimentConfig({
        "graph": {"kind": "cycle", "n": 3},
        "function": {"kind": "tabulated", "xs": [0.0, 1.0, 2.0],
                     "ys": [1.0, 2.0, 0.0]},
        "controller": {"kind": "local_flow"},
        "observation": {"mode": "direct", "d0": 0.0},
        "disturbance": {"w_star": 0.0, "generator": "zero"},
        "horizon": 30,
        "x0": [0.0, 1.0, 2.0],
    })
    res = run_experiment(cfg)
    dev = float(np.abs(res.x_hist[2:] - res.x_hist[0]).max())
    ok = dev <= 1e-12
    _report(9, "local anchor fixed point", ok,
            f"max |x(t) - x(0)| over t >= 2 is {dev:.2e} <= 1e-12")
