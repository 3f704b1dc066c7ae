"""Config validation, closed-loop runner, output files, and the CLI."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import netfeedback as nf
from netfeedback import ConfigError, ExperimentConfig, run_experiment, write_outputs
from netfeedback import cli
from netfeedback.cli import main
from netfeedback.config import read_json


def _cfg(**over):
    raw = {
        "graph": {"kind": "cycle", "n": 3},
        "function": {"kind": "linear", "a": 0.8, "b": 0.0},
        "controller": {"kind": "network_flow", "epsilon": 1e-3},
        "observation": {"mode": "direct", "d0": 0.05, "noise_seed": 1},
        "disturbance": {"w_star": 0.1, "generator": "seeded_uniform", "seed": 7},
        "horizon": 120,
        "x0": [0.4, -0.2, 0.1],
    }
    raw.update(over)
    return raw


# ---- config validation ----

def test_missing_fields_are_named():
    for field in ("graph", "function", "x0"):
        raw = _cfg()
        del raw[field]
        with pytest.raises(ConfigError) as ei:
            ExperimentConfig(raw)
        assert ei.value.field == field


def test_field_errors_are_attributed():
    cases = [
        ({"horizon": 0}, "horizon"),
        ({"horizon": 2.5}, "horizon"),
        ({"x0": [1.0, 2.0]}, "x0"),
        ({"x0": [1.0, float("nan"), 0.0]}, "x0"),
        ({"controller": {"kind": "pid"}}, "controller"),
        ({"controller": {"kind": "cycle_global"},
          "graph": {"kind": "single_selfloop", "n": 1, "a11": 1.0},
          "x0": [0.0]}, "controller"),
        ({"disturbance": {"w_star": 0.0, "generator": "seeded_uniform"}},
         "disturbance"),
        ({"observation": {"mode": "psychic"}}, "observation"),
        # the inverse channel takes no noise
        ({"observation": {"mode": "matrix_inverse", "d0": 0.05}},
         "observation"),
        ({"guard_cap": -5.0}, "guard_cap"),
        ({"function": {"kind": "cubic"}}, "function.kind"),
        # wrong-typed JSON values: true is not a number, null not a default
        ({"guard_cap": "big"}, "guard_cap"),
        ({"guard_cap": True}, "guard_cap"),
        ({"horizon": True}, "horizon"),
        ({"controller": {"kind": "network_flow", "epsilon": "small"}},
         "controller.epsilon"),
        ({"controller": ["network_flow"]}, "controller"),
        ({"disturbance": {"w_star": "0.1", "generator": "seeded_uniform"}},
         "disturbance.w_star"),
        ({"disturbance": {"w_star": 0.1, "generator": "seeded_uniform",
                          "seed": 1.5}}, "disturbance.seed"),
        ({"observation": {"mode": "direct", "d0": None}}, "observation.d0"),
        ({"x0": {"seed": "a"}}, "x0.seed"),
        ({"x0": {"seed": 1, "scale": "wide"}}, "x0.scale"),
        ({"x0": [0.4, "a", 0.1]}, "x0"),
        ({"graph": 5}, "graph"),
        ({"adversary": "no"}, "adversary"),
        # JSON booleans are not numbers in x0 lists or as the sign either
        ({"x0": [True, False, True]}, "x0"),
        ({"x0": 0.5}, "x0"),
        ({"x0": [10 ** 400, 0, 0]}, "x0"),
        ({"disturbance": {"w_star": 0.1, "generator": "constant_sign",
                          "sign": True}}, "disturbance.sign"),
        ({"disturbance": {"w_star": 0.1, "generator": "constant_sign",
                          "sign": "-1"}}, "disturbance.sign"),
        # numbers must be finite floats: NaN, Infinity and integers beyond
        # the float range raised TypeError or OverflowError, or ran silently
        ({"guard_cap": 10 ** 400}, "guard_cap"),
        ({"guard_cap": math.inf}, "guard_cap"),
        ({"guard_cap": math.nan}, "guard_cap"),
        ({"disturbance": {"w_star": 10 ** 400, "generator": "seeded_uniform"}},
         "disturbance.w_star"),
        ({"disturbance": {"w_star": math.inf, "generator": "seeded_uniform"}},
         "disturbance.w_star"),
        ({"observation": {"mode": "direct", "d0": 10 ** 400}}, "observation.d0"),
        ({"observation": {"mode": "direct", "d0": math.inf}}, "observation.d0"),
        ({"observation": {"mode": "direct", "d0": math.nan}}, "observation.d0"),
        ({"controller": {"kind": "network_flow", "epsilon": math.nan}},
         "controller.epsilon"),
        ({"controller": {"kind": "network_flow", "epsilon": -math.inf}},
         "controller.epsilon"),
        ({"x0": {"seed": 1, "scale": math.inf}}, "x0.scale"),
        ({"x0": {"seed": 1, "scale": 10 ** 400}}, "x0.scale"),
        # function and graph parameters: strings, booleans and non-finite
        # numbers ran, and a NaN slope even got a theoretical bound
        ({"function": {"kind": "linear", "a": 0.8, "b": "1"}}, "function.b"),
        ({"function": {"kind": "linear", "a": True}}, "function.a"),
        ({"function": {"kind": "linear", "a": math.nan}}, "function.a"),
        ({"function": {"kind": "bounded_perturbed_linear", "a": math.inf}},
         "function.a"),
        ({"function": {"kind": "bounded_perturbed_linear", "a": 0.8,
                       "amplitude": math.nan}}, "function.amplitude"),
        ({"function": {"kind": "bounded_perturbed_linear", "a": 0.8,
                       "amplitude": -math.inf}}, "function.amplitude"),
        ({"function": {"kind": "tabulated", "xs": [0.0, True],
                       "ys": [0.0, 1.0]}}, "function.xs"),
        ({"function": {"kind": "tabulated", "xs": [0.0, 1.0],
                       "ys": [0.0, math.nan]}}, "function.ys"),
        ({"function": {"kind": "tabulated", "xs": [0.0, 1.0],
                       "ys": "01"}}, "function.ys"),
        ({"function": {"kind": "tabulated", "ys": [0.0, 1.0]}}, "function.xs"),
        ({"graph": {"kind": "cycle", "n": 3, "weight": "2"}}, "graph.weight"),
        ({"graph": {"kind": "path_root_selfloop", "n": 3,
                    "root_weight": True}}, "graph.root_weight"),
        ({"graph": {"kind": "single_selfloop", "n": 3, "a11": math.nan}},
         "graph.a11"),
        # every field that reaches a constructor is typed, the random and
        # custom graph fields included
        ({"graph": {"kind": "random_strongly_connected", "n": 3, "seed": True}},
         "graph.seed"),
        ({"graph": {"kind": "custom", "weights": [[True]]}, "x0": [0.0]},
         "graph.weights"),
        ({"graph": {"kind": "random_strongly_connected", "n": 3, "seed": 1,
                    "allow_negative": "no"}}, "graph.allow_negative"),
        ({"graph": {"kind": "random_strongly_connected", "n": 3, "seed": 1,
                    "extra_arc_prob": math.nan}}, "graph.extra_arc_prob"),
        # a list where a kind name belongs is refused as that field
        ({"graph": {"kind": ["cycle"], "n": 3}}, "graph.kind"),
        ({"function": {"kind": ["linear"], "a": 0.8}}, "function.kind"),
        ({"disturbance": {"w_star": 0.1, "generator": ["seeded_uniform"]}},
         "disturbance.generator"),
        # a misspelt or unknown field is refused, not silently ignored
        ({"horizn": 5000}, "horizn"),
        ({"observation": {"mode": "direct", "D0": 0.05}}, "observation.D0"),
        ({"controller": {"kind": "network_flow", "eps": 1e-3}},
         "controller.eps"),
        ({"graph": {"kind": "cycle", "n": 3, "bogus": 1}}, "graph.bogus"),
        # so is a known field the chosen kind does not take, or a null
        ({"graph": {"kind": "cycle", "n": 3, "seed": 1}}, "graph"),
        ({"function": {"kind": "linear", "a": 0.8, "amplitude": 0.5}},
         "function"),
        ({"guard_cap": None}, "guard_cap"),
        # a parameter the constructor needs is named when it is missing
        ({"graph": {"kind": "random_strongly_connected", "n": 3}}, "graph.seed"),
        # a zero weight range would draw no arcs at all
        ({"graph": {"kind": "random_strongly_connected", "n": 3, "seed": 0,
                    "weight_range": [0, 0]}}, "graph"),
        # a negative seed is refused when the config is built, not by numpy
        # in the first step of the run
        ({"disturbance": {"w_star": 0.1, "generator": "seeded_uniform",
                          "seed": -1}}, "disturbance"),
        ({"disturbance": {"generator": "zero", "seed": -1}}, "disturbance"),
        ({"observation": {"mode": "direct", "d0": 0.05, "noise_seed": -1}},
         "observation"),
        # a uniform draw on [-v, v] needs a finite span 2 * v
        ({"x0": {"seed": 1, "scale": 1e308}}, "x0.scale"),
        ({"disturbance": {"w_star": 1e308, "generator": "seeded_uniform"}},
         "disturbance.w_star"),
        ({"observation": {"mode": "direct", "d0": 1e308}}, "observation.d0"),
    ]
    for over, field in cases:
        with pytest.raises(ConfigError) as ei:
            ExperimentConfig(_cfg(**over))
        assert ei.value.field == field, over
    # ints stand wherever floats are expected
    cfg = ExperimentConfig(_cfg(
        guard_cap=500, x0=[1, 0, -1], controller={"kind": "network_flow",
                                                  "epsilon": 1},
        disturbance={"w_star": 1, "generator": "seeded_uniform", "seed": 7},
        observation={"mode": "direct", "d0": 0, "noise_seed": 1}))
    assert (cfg.guard_cap, cfg.controller.epsilon, cfg.disturbance.w_star) == (
        500.0, 1, 1)


def test_adversary_preconditions_checked():
    raw = _cfg(adversary=True,
               graph={"kind": "custom", "weights": [[0.0, -1.0], [2.0, 0.0]]},
               x0=[0.0, 0.0])
    del raw["function"]
    with pytest.raises(ConfigError) as ei:
        ExperimentConfig(raw)
    assert ei.value.field == "adversary"


def test_adversary_config_needs_no_function():
    raw = _cfg(adversary=True)
    del raw["function"]
    cfg = ExperimentConfig(raw)
    assert cfg.f is None
    assert cfg.guard_cap == 1e300  # room for the doubling to be recorded


def test_adversary_guard_cap_keeps_the_pins_finite(tmp_path, capsys):
    # The pins reach 1 + B * (hull width) and the guard keeps the hull
    # within +-guard_cap, so an adversary run's cap is bounded by
    # float max / (4 B), and X(0), which the guard never reads, must lie
    # within the cap. Without these checks each config below raised "pins
    # must be finite" in mid-run, or at t = 0.
    adv = {"graph": {"kind": "cycle", "n": 3}, "adversary": True,
           "horizon": 3000, "x0": [0.1, 0.2, 0.3]}
    for name, over, field in (
            ("tiny_weight", {"graph": {"kind": "cycle", "n": 3, "weight": 1e-8},
                             "guard_cap": 1e300}, "guard_cap"),
            ("near_max_cap", {"guard_cap": 1.7e308}, "guard_cap"),
            ("huge_x0", {"x0": [1e308, -1e308, 0.0]}, "x0")):
        raw = {**adv, **over}
        with pytest.raises(ConfigError) as ei:
            ExperimentConfig(raw)
        assert ei.value.field == field, name
        out_dir = tmp_path / name
        path = _write_cfg(tmp_path, raw, f"{name}.json")
        assert main(["simulate", "--config", path, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{field}:" in captured.err, name
        assert not out_dir.exists(), name
    # the default cap is min(1e300, bound), and a run at the bound ends by
    # the guard with a passing certificate
    for weight in (1.0, 1e-8):
        graph = {"kind": "cycle", "n": 3, "weight": weight}
        bound = nf.adversary.guard_cap_bound(nf.build_canonical(**graph))
        assert ExperimentConfig({**adv, "graph": graph}).guard_cap == min(1e300, bound)
        for kind in ("zero", "local_flow", "network_flow"):
            res = run_experiment(ExperimentConfig({
                **adv, "graph": graph, "controller": {"kind": kind},
                "guard_cap": bound}))
            assert res.summary["guard_tripped"], (weight, kind)
            assert res.certificate.to_dict()["verdict"] == "pass", (weight, kind)


def test_default_guard_cap():
    assert ExperimentConfig(_cfg()).guard_cap == 1e12
    assert ExperimentConfig(_cfg(guard_cap=500.0)).guard_cap == 500.0


def test_seeded_x0():
    a = ExperimentConfig(_cfg(x0={"seed": 3, "scale": 2.0}))
    b = ExperimentConfig(_cfg(x0={"seed": 3, "scale": 2.0}))
    c = ExperimentConfig(_cfg(x0={"seed": 4, "scale": 2.0}))
    np.testing.assert_array_equal(a.x0, b.x0)
    assert not np.array_equal(a.x0, c.x0)
    assert np.all(np.abs(a.x0) <= 2.0)


def test_to_dict_is_a_copy():
    cfg = ExperimentConfig(_cfg())
    d = cfg.to_dict()
    d["horizon"] = 9999
    d["graph"]["n"] = 7
    assert cfg.horizon == 120
    assert cfg.graph.n == 3


def test_with_gain():
    cfg = ExperimentConfig(_cfg())
    g2 = cfg.with_gain(1.7, seed_offset=3)
    assert g2.f.a == 1.7
    assert g2.disturbance.seed == 7 + 3
    assert cfg.f.a == 0.8  # original untouched
    bad = ExperimentConfig(_cfg(function={"kind": "tabulated",
                                          "xs": [0.0, 1.0], "ys": [0.0, 0.5]}))
    with pytest.raises(ConfigError):
        bad.with_gain(2.0)


def test_from_json_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        read_json(p)
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        read_json(p2)


# ---- runner ----

def test_zero_everything_stays_at_zero():
    cfg = ExperimentConfig(_cfg(
        function={"kind": "linear", "a": 0.9, "b": 0.0},
        controller={"kind": "zero"},
        observation={"mode": "direct", "d0": 0.0},
        disturbance={"w_star": 0.0, "generator": "zero"},
        x0=[0.0, 0.0, 0.0], horizon=40))
    res = run_experiment(cfg)
    assert np.all(res.x_hist == 0.0)
    assert res.summary["verdict"] == "stabilized"
    assert res.summary["verdict_basis"] == "tail_comparison"
    assert res.summary["sup_state"] == 0.0


def test_summary_invariants_and_shapes():
    cfg = ExperimentConfig(_cfg())
    res = run_experiment(cfg)
    s = res.summary
    assert s["tail_state"] <= s["sup_state"]
    assert s["steps_run"] == 120
    assert res.x_hist.shape == (121, 3)
    assert res.u_hist.shape == (120, 3)
    assert res.z_hist.shape == (120, 3)
    assert res.w_hist.shape == (120, 3)
    assert np.all(np.abs(res.w_hist) <= 0.1)
    assert np.all(res.u_hist[0] == 0.0)  # no control before any estimate
    for key in ("verdict", "verdict_basis", "bound", "horizon", "n",
                "inf_norm", "sharp_metric", "controller", "explore_steps"):
        assert key in s


def test_theoretical_bound_values():
    cfg = ExperimentConfig(_cfg())
    assert nf.theoretical_bound(cfg) == pytest.approx(0.05 * 1.0 + 0.1)
    # no bound for other controllers or super-critical gains
    assert nf.theoretical_bound(ExperimentConfig(_cfg(
        controller={"kind": "zero"}))) is None
    assert nf.theoretical_bound(ExperimentConfig(_cfg(
        function={"kind": "linear", "a": 3.0, "b": 0.0}))) is None


def test_guard_trips_on_divergence():
    cfg = ExperimentConfig(_cfg(
        graph={"kind": "single_selfloop", "n": 1, "a11": 1.0},
        function={"kind": "linear", "a": 3.0, "b": 0.0},
        controller={"kind": "zero"},
        observation={"mode": "direct", "d0": 0.0},
        disturbance={"w_star": 0.0, "generator": "zero"},
        x0=[1.0], horizon=100, guard_cap=1e3))
    res = run_experiment(cfg)
    s = res.summary
    assert s["verdict"] == "diverged"
    assert s["verdict_basis"] == "guard"
    assert s["guard_tripped"]
    assert s["steps_run"] < 100
    assert abs(res.x_hist[-1, 0]) > 1e3


def test_a_long_run_the_guard_stops_early_draws_at_most_a_block_of_w(
        monkeypatch):
    # a run of horizon 10**6 that the guard stops within ten steps draws at
    # most one block of disturbance values, not its whole table
    drawn = []
    make_source = nf.dynamics.DisturbanceSpec.make_source

    def counted(spec):
        source = make_source(spec)
        draw = source.draw
        source.draw = lambda n: drawn.append(n) or draw(n)
        return source

    monkeypatch.setattr(nf.dynamics.DisturbanceSpec, "make_source", counted)
    res = run_experiment(ExperimentConfig(_cfg(
        graph={"kind": "cycle", "n": 5},
        function={"kind": "linear", "a": 3.0, "b": 0.0},
        controller={"kind": "zero"}, x0=[1.0] * 5, horizon=10 ** 6,
        guard_cap=1e3)))
    assert res.summary["guard_tripped"] and res.summary["steps_run"] < 10
    assert 0 < sum(drawn) <= nf.dynamics.BLOCK


class _RowPlant:
    """A plant whose every next state is one fixed row."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def advance(self, t, x, u, w, x_next=None, z=None):
        if x_next is None:
            return self.row.copy(), np.zeros_like(self.row)
        x_next[:], z[:] = self.row, 0.0
        return x_next, z


def test_guard_decides_as_the_isfinite_and_abs_max_rule(monkeypatch):
    # The runner's guard compares one max and one min with -cap and cap; it
    # must decide as the rule it replaced on NaN, infinities, the cap itself,
    # the next float beyond it and signed zeros.
    import netfeedback.runner as runner

    cap = 1e3
    beyond = np.nextafter(cap, math.inf)
    values = [math.nan, math.inf, -math.inf, cap, -cap, beyond, -beyond,
              0.0, -0.0, 1.0, np.nextafter(cap, 0.0)]
    rows = [[a, b, c] for a in values for b in (0.0, -0.0, -cap, cap)
            for c in (1.0, math.nan, -beyond, 0.0)]
    rows += [[v, v, v] for v in values]
    trips = 0
    for row in rows:
        monkeypatch.setattr(runner, "PlantModel", lambda g, f, obs, row=row:
                            _RowPlant(row))
        res = run_experiment(ExperimentConfig(_cfg(
            controller={"kind": "zero"}, horizon=2, guard_cap=cap)))
        x = np.asarray(row)
        want = bool(not np.isfinite(x).all() or np.abs(x).max() > cap)
        assert res.summary["guard_tripped"] == want, row
        assert res.summary["steps_run"] == (1 if want else 2), row
        trips += want
    assert 0 < trips < len(rows)


def test_overflowing_run_trips_the_guard_without_warnings(tmp_path):
    # f(X) overflows to inf (and inf - inf to NaN) inside the plant step; the
    # step and the matrix-inverse observer ignore it, the guard stops the
    # run, nothing warns, and the partial trajectory is written
    for k, (graph, x0, over) in enumerate((
            ({"kind": "custom", "weights": [[1.0]]}, [1e200], {}),
            ({"kind": "custom", "weights": [[1.0, 1.0], [1.0, 1.0]]},
             [1e200, -1e200], {}),
            ({"kind": "cycle", "n": 3}, [1e200, 1.0, -1.0],
             {"observation": {"mode": "matrix_inverse"},
              "disturbance": {"w_star": 0.0, "generator": "zero"}}))):
        cfg = ExperimentConfig(_cfg(
            graph=graph, function={"kind": "linear", "a": 1e200, "b": 0.0},
            controller={"kind": "zero"}, x0=x0, horizon=10, **over))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_experiment(cfg)
            write_outputs(res, tmp_path / str(k))
        assert res.summary["guard_tripped"] and res.summary["steps_run"] == 1
        assert not np.isfinite(res.x_hist[1]).any()
        assert res.summary["verdict"] == "diverged"
        assert res.summary["verdict_basis"] == "guard"
        rows = (tmp_path / str(k) / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * len(x0)


def test_cli_matrix_inverse_overflow_trips_the_guard(tmp_path, capsys):
    # network_flow on cycle:3 at slope 1e10 through the matrix-inverse
    # channel: the state overflows after 31 steps, the guard stops the run,
    # nothing warns, and stdout is strict JSON (NaN and Infinity rejected)
    def reject(name):
        raise ValueError(f"{name} is not a JSON number")

    path = _write_cfg(tmp_path, {
        "graph": {"kind": "cycle", "n": 3},
        "function": {"kind": "linear", "a": 1e10},
        "controller": {"kind": "network_flow"},
        "observation": {"mode": "matrix_inverse"},
        "horizon": 60, "x0": [0.1, 0.2, 0.3], "guard_cap": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", path]) == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert summary["guard_tripped"] is True
    assert summary["steps_run"] == 31 and summary["verdict_basis"] == "guard"


def _reference_run(config):
    """The closed loop as written before the lean step, kept as the oracle
    of run_experiment's loop: every row goes through np.asarray and a shape
    check before FlowLog.append, np.errstate is entered around each plant
    step, the guard takes one numpy max and min of X(t+1), and W is a list
    of per-step draws stacked at the end. The result is built by the
    runner's own _run_result, so the comparison covers the loop alone."""
    import netfeedback.runner as runner

    g = config.graph
    n = g.n
    x = np.array(config.x0, dtype=float)
    controller = nf.Controller(config.controller, g)
    source = config.disturbance.make_source()
    plant = (nf.OnlineAdversary(g, x) if config.adversary
             else nf.PlantModel(g, config.f, config.observation))
    log = nf.FlowLog(x, config.horizon)
    w_rows = []
    guard_tripped = False
    cap = config.guard_cap
    for t in range(config.horizon):
        u = controller.controls(log, t)
        w = source.draw(n)
        with np.errstate(over="ignore", invalid="ignore"):
            x, z = plant.advance(t, x, u, w)
        x, z, u = (np.asarray(a, dtype=float) for a in (x, z, u))
        assert x.shape == z.shape == u.shape == (n,)
        log.append(x, z, u)
        w_rows.append(w)
        if not (-cap <= float(x.min()) and float(x.max()) <= cap):  # NaN fails both
            guard_tripped = True
            break
    return runner._run_result(config, controller, plant, log,
                              np.asarray(w_rows).reshape(len(w_rows), n),
                              guard_tripped)


def _twelve_with_dense_rows() -> list:
    """A 12-cycle (sparse nodes, |N_i u {i}|^2 = 4 < 12) with two rows of
    five in-neighbours (dense, 6^2 >= 12)."""
    w = np.zeros((12, 12))
    w[np.arange(12), np.arange(12) - 1] = 0.3
    w[3, [0, 6, 9, 11]] = 0.1
    w[8, [1, 2, 4, 5]] = 0.2
    return w.tolist()


def test_run_experiment_matches_the_reference_loop():
    # The lean loop (one errstate per run, the guard on the row list, W
    # drawn a block of rows at a time, the plants writing into the log's
    # rows, one commit per step) must give the reference loop's run bit for
    # bit:
    # histories, summary, explore log, adversary branches and certificate,
    # for every law and both observation channels, on adversary runs, on
    # runs the guard stops mid-horizon (past the cap, or overflowing to inf
    # and NaN), on runs whose W crosses block refills and at horizon 0.
    cases = [_cfg(controller={"kind": kind}, graph={"kind": "cycle", "n": 5},
                  x0={"seed": 2}, horizon=150)
             for kind in ("zero", "network_flow", "local_flow",
                          "max_enhanced", "cycle_global")]
    cases += [
        _cfg(controller={"kind": "path_root"}, horizon=150, x0={"seed": 2},
             graph={"kind": "path_root_selfloop", "n": 5}),
        _cfg(controller={"kind": "network_flow"}, horizon=150,
             observation={"mode": "matrix_inverse"}),
        _cfg(controller={"kind": "local_flow"}, horizon=80, x0={"seed": 3},
             observation={"mode": "matrix_inverse"}),
        # the guard stops these mid-horizon
        _cfg(controller={"kind": "zero"}, horizon=200, guard_cap=50.0,
             function={"kind": "linear", "a": 1.5, "b": 0.0}),
        _cfg(controller={"kind": "zero"}, horizon=10, x0=[1e200, -1e200],
             graph={"kind": "custom", "weights": [[1.0, 1.0], [1.0, 1.0]]},
             function={"kind": "linear", "a": 1e200, "b": 0.0}),
        _cfg(controller={"kind": "zero"}, horizon=10, x0=[1e200, 1.0, -1.0],
             observation={"mode": "matrix_inverse"},
             disturbance={"w_star": 0.0, "generator": "zero"},
             function={"kind": "linear", "a": 1e200, "b": 0.0}),
    ]
    cases += [_cfg(controller={"kind": kind}, horizon=60, x0={"seed": 5},
                   graph={"kind": "custom", "weights": _twelve_with_dense_rows()},
                   function={"kind": "bounded_perturbed_linear", "a": 0.8,
                             "amplitude": 0.5})
              for kind in ("local_flow", "max_enhanced")]
    for kind in ("zero", "local_flow"):
        raw = _cfg(controller={"kind": kind}, adversary=True, horizon=40)
        del raw["function"]
        cases.append(raw)
    # horizon * n = 8500 values cross two refills of the disturbance block:
    # the run's block draws of W against the reference's draw per step
    cases += [_cfg(controller={"kind": "zero"}, graph={"kind": "cycle", "n": 5},
                   x0={"seed": 2}, horizon=1700, disturbance=dist)
              for dist in ({"w_star": 0.1, "generator": "seeded_uniform",
                            "seed": 7},
                           {"w_star": 0.1, "generator": "constant_sign",
                            "seed": 7, "sign": -1})]
    assert 1700 * 5 > 2 * nf.dynamics.BLOCK
    configs = [ExperimentConfig(raw) for raw in cases]
    empty = ExperimentConfig(_cfg(controller={"kind": "local_flow"}))
    empty.horizon = 0   # the config refuses it; FlowLog and the loop take it
    configs.append(empty)
    stopped = 0
    for cfg in configs:
        case = (cfg.raw, cfg.horizon)
        got, want = run_experiment(cfg), _reference_run(cfg)
        for name in ("x_hist", "u_hist", "z_hist", "w_hist"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, (case, name)
            assert a.tobytes() == b.tobytes(), (case, name)
        assert json.dumps(got.summary) == json.dumps(want.summary), case
        assert got.explore_log == want.explore_log, case
        assert got.branches == want.branches, case
        assert ((got.certificate is None and want.certificate is None)
                or got.certificate.to_dict() == want.certificate.to_dict()), case
        stopped += 0 < got.summary["steps_run"] < cfg.horizon
    assert stopped == 3


def test_matrix_inverse_observation_mode():
    cfg = ExperimentConfig(_cfg(
        observation={"mode": "matrix_inverse"}, horizon=60))
    res = run_experiment(cfg)
    f = cfg.f
    fx = f(res.x_hist[:-1])
    # Z = f(X) + A^{-1} W and the cycle's inverse has unit gain
    assert np.max(np.abs(res.z_hist - fx)) <= 0.1 + 1e-12


def test_closed_form_extremes_match_consensus_protocol():
    # At every step the runner's argmax/argmin extremes and holders equal the
    # flooding protocol's limit, bit for bit. The x0 rows carry duplicate
    # maxima and minima and +0.0/-0.0 ties; the noiseless a=0 plant makes
    # every later state the same folded midpoint on all nodes.
    graphs = [{"kind": "cycle", "n": 4},
              {"kind": "random_strongly_connected", "n": 4, "seed": 5,
               "weight_range": [0.2, 0.5]}]
    x0s = [[0.5, -0.3, 0.5, -0.3], [0.0, -0.0, -1.0, -1.0],
           [-1.0, -0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0]]
    plants = [
        {"function": {"kind": "bounded_perturbed_linear", "a": 0.8, "b": 0.0,
                      "amplitude": 0.5},
         "observation": {"mode": "direct", "d0": 0.02, "noise_seed": 3},
         "disturbance": {"w_star": 0.05, "generator": "seeded_uniform",
                         "seed": 4}},
        {"function": {"kind": "linear", "a": 0.0, "b": 0.0},
         "observation": {"mode": "direct", "d0": 0.0},
         "disturbance": {"w_star": 0.0, "generator": "zero"}},
    ]
    duplicate_steps = signed_zero_steps = 0
    for graph in graphs:
        for x0 in x0s:
            for plant in plants:
                cfg = ExperimentConfig(_cfg(
                    graph=graph, controller={"kind": "max_enhanced"}, x0=x0,
                    horizon=40, **plant))
                res = run_experiment(cfg)
                steps = res.summary["steps_run"]
                assert steps == 40
                for t in range(steps):
                    x, z = res.x_hist[t], res.z_hist[t]
                    # the first argmax/argmin of the row, as the law takes them
                    hi, lo = int(x.argmax()), int(x.argmin())
                    cons = nf.run_extreme_consensus(cfg.graph, x, z)
                    assert (hi, lo) == (cons.holder_max, cons.holder_min)
                    for got, want in ((x[hi], cons.x_max), (x[lo], cons.x_min),
                                      (z[hi], cons.z_at_max), (z[lo], cons.z_at_min)):
                        assert (np.float64(got).tobytes()
                                == np.float64(want).tobytes()), t
                    duplicate_steps += int((x == x.max()).sum() > 1)
                    signed_zero_steps += int(x.max() == 0.0
                                             and len(set(np.signbit(x[x == 0.0]))) == 2)
    assert duplicate_steps > 0 and signed_zero_steps > 0


def test_max_enhanced_needs_strong_connectivity_before_any_step():
    # checked when the config is built, so no run can start
    with pytest.raises(ConfigError, match="strongly connected") as ei:
        ExperimentConfig(_cfg(graph={"kind": "path_root_selfloop", "n": 3},
                              controller={"kind": "max_enhanced"}))
    assert ei.value.field == "controller"


def test_adversary_run_produces_certificate():
    raw = _cfg(adversary=True, horizon=25,
               observation={"mode": "direct", "d0": 0.0},
               disturbance={"w_star": 0.0, "generator": "zero"})
    del raw["function"]
    res = run_experiment(ExperimentConfig(raw))
    assert res.summary["verdict"] == "diverged"
    assert res.summary["verdict_basis"] == "certificate"
    assert res.certificate is not None and res.certificate.verdict


def test_run_is_deterministic(tmp_path):
    cfg_raw = _cfg(horizon=80)
    outs = []
    for sub in ("a", "b"):
        res = run_experiment(ExperimentConfig(cfg_raw))
        paths = write_outputs(res, tmp_path / sub)
        outs.append(paths)
    for key in ("trajectory", "summary"):
        b1 = open(outs[0][key], "rb").read()
        b2 = open(outs[1][key], "rb").read()
        assert b1 == b2


def test_trajectory_csv_schema(tmp_path):
    cfg = ExperimentConfig(_cfg(horizon=15))
    res = run_experiment(cfg)
    paths = write_outputs(res, tmp_path)
    lines = open(paths["trajectory"]).read().splitlines()
    assert lines[0] == "t,node,x,u,z,w"
    assert len(lines) == 1 + 16 * 3  # states 0..15, three nodes each
    first = lines[1].split(",")
    assert first[:2] == ["0", "1"]  # node ids are 1-based
    assert float(first[2]) == res.x_hist[0, 0]  # 17 digits round-trip
    for row in lines[-3:]:
        t, node, x, u, z, w = row.split(",")
        assert t == "15" and u == "" and z == "" and w == ""
        assert float(x) == res.x_hist[15, int(node) - 1]
    summary = json.load(open(paths["summary"]))
    assert summary["verdict"] == res.summary["verdict"]


def test_adversary_outputs_include_certificate(tmp_path):
    raw = _cfg(adversary=True, horizon=20,
               observation={"mode": "direct", "d0": 0.0},
               disturbance={"w_star": 0.0, "generator": "zero"})
    del raw["function"]
    res = run_experiment(ExperimentConfig(raw))
    paths = write_outputs(res, tmp_path)
    cert = json.load(open(paths["certificate"]))
    assert cert["verdict"] == "pass"
    assert len(cert["chi"]) >= 2


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _reference_files(res) -> dict:
    """trajectory.csv formatted value by value, and certificate.json."""
    log = res.log
    steps = log.t
    x, z, u, w = log.x_hist, log.z_hist, log.u_hist, res.w_hist
    lines = ["t,node,x,u,z,w"]
    for t in range(steps):
        for i in range(log.n):
            lines.append(f"{t},{i + 1},{_fmt(x[t, i])},{_fmt(u[t, i])},"
                         f"{_fmt(z[t, i])},{_fmt(w[t, i])}")
    for i in range(log.n):
        lines.append(f"{steps},{i + 1},{_fmt(x[steps, i])},,,")
    files = {"trajectory": "\n".join(lines) + "\n"}
    if res.certificate is not None:
        files["certificate"] = json.dumps(res.certificate.to_dict(), indent=2,
                                          sort_keys=True) + "\n"
    return files


def _with_special_values(res):
    """res with -0.0, infinities, nan, subnormals and huge values spliced into
    the first rows of every history."""
    special = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                        -2.5e-310, 1e300, -1e300, 0.1, 1.0 / 3.0, 2.0 ** 60])
    x, u, z, w = (np.array(a) for a in (res.x_hist, res.u_hist, res.z_hist,
                                        res.w_hist))
    for k, hist in enumerate((x, u, z, w)):
        hist.flat[:special.size] = np.roll(special, k)
    log = nf.FlowLog(x[0], len(u))
    for t in range(len(u)):
        log.append(x[t + 1], z=z[t], u=u[t])
    return dataclasses.replace(res, log=log, w_hist=w)


def _first_steps(res, k):
    """res cut to its first k steps."""
    log = nf.FlowLog(res.x_hist[0], k)
    for t in range(k):
        log.append(res.x_hist[t + 1], z=res.z_hist[t], u=res.u_hist[t])
    return dataclasses.replace(res, log=log, w_hist=res.w_hist[:k])


def test_outputs_match_the_value_by_value_formatter(tmp_path):
    tripped = run_experiment(ExperimentConfig(_cfg(
        function={"kind": "linear", "a": 3.0, "b": 0.0},
        controller={"kind": "zero"}, guard_cap=1e3, horizon=100)))
    assert tripped.summary["guard_tripped"] and tripped.summary["steps_run"] >= 4
    raw = _cfg(adversary=True, horizon=30,
               observation={"mode": "direct", "d0": 0.0},
               disturbance={"w_star": 0.0, "generator": "zero"})
    del raw["function"]
    adversary = run_experiment(ExperimentConfig(raw))
    assert adversary.certificate is not None
    # more than one block of time rows, the last one partial
    block = nf.runner._WRITE_BLOCK
    long = run_experiment(ExperimentConfig(_cfg(
        controller={"kind": "zero"}, horizon=block + 44)))
    assert long.summary["steps_run"] == block + 44
    for k, res in enumerate((tripped, _with_special_values(tripped), adversary,
                             long, _first_steps(long, block),
                             _first_steps(long, 0))):
        paths = write_outputs(res, tmp_path / str(k))
        want = _reference_files(res)
        assert set(want) | {"summary"} == set(paths)
        for key, text in want.items():
            with open(paths[key], "rb") as fh:
                assert fh.read() == text.encode(), (k, key)
    text = _reference_files(_with_special_values(tripped))["trajectory"]
    for token in (",-0,", ",inf,", ",-inf,", ",nan,", ",4.9406564584124654e-324,",
                  ",1.0000000000000001e+300,"):
        assert token in text, token


# ---- command line ----

def _write_cfg(tmp_path, raw, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def test_cli_simulate(tmp_path, capsys):
    path = _write_cfg(tmp_path, _cfg(horizon=30))
    assert main(["simulate", "--config", path]) == 0
    out1 = capsys.readouterr().out
    assert main(["simulate", "--config", path]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2  # byte-stable stdout
    summary = json.loads(out1)
    assert summary["steps_run"] == 30
    assert summary["verdict"] in ("stabilized", "diverged", "horizon_reached")


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    path = _write_cfg(tmp_path, _cfg(horizon=10))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    header = open(out_dir / "trajectory.csv").readline().rstrip("\n")
    assert header == "t,node,x,u,z,w"
    assert (out_dir / "summary.json").exists()


def test_cli_horizon_and_seed_overrides(tmp_path, capsys):
    path = _write_cfg(tmp_path, _cfg(horizon=30))
    assert main(["simulate", "--config", path, "--horizon", "12"]) == 0
    s1 = json.loads(capsys.readouterr().out)
    assert s1["steps_run"] == 12
    assert main(["simulate", "--config", path, "--horizon", "12",
                 "--seed", "99"]) == 0
    s2 = json.loads(capsys.readouterr().out)
    assert s1["tail_state"] != s2["tail_state"]  # different disturbance draw


def test_cli_adversary_subcommand(tmp_path, capsys):
    raw = _cfg(horizon=25,
               observation={"mode": "direct", "d0": 0.0},
               disturbance={"w_star": 0.0, "generator": "zero"})
    del raw["function"]  # the adversary forges the plant
    path = _write_cfg(tmp_path, raw)
    out_dir = tmp_path / "adv"
    assert main(["adversary", "--config", path, "--out", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["adversary"] is True
    assert summary["certificate_detail"]["verdict"] == "pass"
    assert (out_dir / "certificate.json").exists()


def test_cli_capacity_xie_guo(capsys):
    assert main(["capacity", "--xie-guo"]) == 0
    out = capsys.readouterr().out
    assert "2.914213562" in out
    payload = json.loads(out)
    assert payload["minimizer"] == pytest.approx(1.0 + math.sqrt(2) / 2, abs=1e-6)


def test_cli_capacity_dagger(capsys):
    assert main(["capacity", "--dagger", "--graph", "cycle:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"] >= 1.0 - 1e-6
    assert "heuristic" in payload["label"]


def test_cli_capacity_scalar_recursion(capsys):
    assert main(["capacity", "--scalar-recursion", "--M", "2.85"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "summable"
    assert main(["capacity", "--scalar-recursion", "--M", "2.97"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "diverging"


def test_cli_sweep(tmp_path, capsys):
    path = _write_cfg(tmp_path, _cfg(horizon=40))
    out_dir = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--L", "0.4,0.8",
                 "--out", str(out_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["L"] for p in report["points"]] == [0.4, 0.8]
    assert (out_dir / "sweep.json").exists()


def test_cli_grid_spec_colon_form(tmp_path, capsys):
    path = _write_cfg(tmp_path, _cfg(horizon=25))
    assert main(["sweep", "--config", path, "--L", "0.5:1.5:0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["L"] for p in report["points"]] == [0.5, 1.0, 1.5]


def test_cli_error_exit_codes(tmp_path, capsys):
    # missing file
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["simulate", "--config", str(bad)]) == 2
    # config that fails validation
    raw = _cfg()
    del raw["x0"]
    path = _write_cfg(tmp_path, raw, "nox0.json")
    assert main(["simulate", "--config", path]) == 2
    # wrong-typed field: a ConfigError, not a TypeError traceback
    path = _write_cfg(tmp_path, _cfg(guard_cap="big"), "bigcap.json")
    assert main(["simulate", "--config", path]) == 2
    assert "guard_cap" in capsys.readouterr().err
    path = _write_cfg(tmp_path, _cfg(function={"kind": "linear", "a": "2"}),
                      "stra.json")
    assert main(["simulate", "--config", path]) == 2
    assert "function.a" in capsys.readouterr().err
    # non-finite numbers (JSON NaN and Infinity) and integers beyond the
    # float range: a ConfigError, not a silent run or an OverflowError
    for name, over, field in (
            ("hugecap", {"guard_cap": 10 ** 400}, "guard_cap"),
            ("infw", {"disturbance": {"w_star": math.inf,
                                      "generator": "seeded_uniform"}},
             "disturbance.w_star"),
            ("nand0", {"observation": {"mode": "direct", "d0": math.nan}},
             "observation.d0"),
            ("nanepsilon", {"controller": {"kind": "network_flow",
                                           "epsilon": math.nan}},
             "controller.epsilon"),
            # spans 2 * value beyond the float range
            ("hugescale", {"x0": {"seed": 1, "scale": 1e308}}, "x0.scale"),
            ("hugew", {"disturbance": {"w_star": 1e308,
                                       "generator": "seeded_uniform"}},
             "disturbance.w_star"),
            ("huged0", {"observation": {"mode": "direct", "d0": 1e308}},
             "observation.d0"),
            # d0 in a mode that takes no noise
            ("inversed0", {"observation": {"mode": "matrix_inverse",
                                           "d0": 0.05}}, "observation"),
            # a misspelt field, a boolean graph seed, a zero weight range
            # and a negative seed
            ("horizn", {"horizn": 5000}, "horizn"),
            ("boolseed", {"graph": {"kind": "random_strongly_connected",
                                    "n": 3, "seed": True}}, "graph.seed"),
            ("zerorange", {"graph": {"kind": "random_strongly_connected",
                                     "n": 3, "seed": 0,
                                     "weight_range": [0, 0]}}, "graph"),
            ("negseed", {"disturbance": {"w_star": 0.1, "seed": -1,
                                         "generator": "seeded_uniform"}},
             "disturbance")):
        path = _write_cfg(tmp_path, _cfg(**over), f"{name}.json")
        assert main(["simulate", "--config", path]) == 2, name
        assert field in capsys.readouterr().err, name
    # malformed grid
    good = _write_cfg(tmp_path, _cfg(horizon=10), "good.json")
    assert main(["sweep", "--config", good, "--L", "1:2"]) == 2
    # a grid that never ends, or has no points, is refused before any run
    for grid in ("1:inf:1", "nan:1:1", ","):
        assert main(["sweep", "--config", good, "--L", grid]) == 2, grid
        assert capsys.readouterr().out == "", grid
    # so is a listed non-finite gain, on a config without a slope to check
    adv = _write_cfg(tmp_path, {"graph": {"kind": "cycle", "n": 3},
                                "adversary": True, "horizon": 20,
                                "x0": [0.1, 0.2, 0.3]}, "adv.json")
    for grid in ("nan,inf", "5,nan", "5,-inf"):
        assert main(["sweep", "--config", adv, "--L", grid]) == 2, grid
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err, grid
    # no trials: refused before any run, not an empty max()
    for trials in ("0", "-1"):
        assert main(["sweep", "--config", good, "--L", "1",
                     "--trials", trials]) == 2
        assert "trials" in capsys.readouterr().err
    # capacity without a mode, or with more than one
    assert main(["capacity"]) == 2
    for modes in (["--xie-guo", "--dagger"], ["--dagger", "--scalar-recursion"],
                  ["--xie-guo", "--dagger", "--scalar-recursion"]):
        assert main(["capacity", *modes, "--graph", "cycle:3", "--M", "2.85",
                     "--horizon", "10"]) == 2, modes
        assert capsys.readouterr().out == "", modes
    # a horizon too large to allocate (10^17 steps exceed any 57-bit
    # address space, so the allocation fails before a step runs)
    huge = str(10 ** 17)
    for argv in (["simulate", "--config", good, "--horizon", huge],
                 ["adversary", "--config", good, "--horizon", huge],
                 ["sweep", "--config", good, "--L", "0.5", "--horizon", huge],
                 ["capacity", "--dagger", "--graph", "cycle:5", "--horizon", huge],
                 ["capacity", "--scalar-recursion", "--M", "2.85", "--horizon", huge]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "allocate" in captured.err, argv
    # non-finite recursion parameters and a horizon below one step
    for argv in (["--scalar-recursion", "--M", "nan", "--horizon", "100"],
                 ["--scalar-recursion", "--M", "2.85", "--omega", "inf"],
                 ["--scalar-recursion", "--M", "2.85", "--rho", "nan"],
                 ["--scalar-recursion", "--M", "2.85", "--horizon", "0"],
                 ["--dagger", "--graph", "cycle:3", "--bracket", "1:inf"],
                 ["--dagger", "--graph", "cycle:3", "--bracket", "nan:2"],
                 ["--dagger", "--graph", "cycle:3", "--horizon", "0"]):
        assert main(["capacity", *argv]) == 2, argv
        assert capsys.readouterr().out == "", argv
    capsys.readouterr()


def test_sweep_grid_point_cap(tmp_path, capsys):
    cap = cli.MAX_GRID_POINTS
    # counted before any point is built: no MemoryError, exit 2
    for spec in ("0:1e12:1", f"0:{cap}:1", "-1e308:1e308:1e-300"):
        with pytest.raises(ValueError, match="points"):
            cli._parse_grid(spec)
    good = _write_cfg(tmp_path, _cfg(horizon=10), "good.json")
    assert main(["sweep", "--config", good, "--L", "0:1e12:1"]) == 2
    assert capsys.readouterr().out == ""
    # accepted grids keep their start + k*step values, stop inclusive
    assert len(cli._parse_grid(f"0:{cap - 1}:1")) == cap
    for spec, values in (("0.5:3.0:0.5", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
                         ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.1 * 3]),
                         ("2:1:1", [])):
        assert cli._parse_grid(spec) == values, spec


def test_cli_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["interrogate"])
    assert ei.value.code == 2


def test_cli_invariant_violation_exit_code(monkeypatch, tmp_path, capsys):
    import netfeedback.cli as cli_mod

    def boom(cfg):
        raise nf.InvariantError("synthetic")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    path = _write_cfg(tmp_path, _cfg(horizon=10))
    assert main(["simulate", "--config", path]) == 3
    capsys.readouterr()
