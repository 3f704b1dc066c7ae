"""Config validation, closed-loop runner, output files, and the CLI."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import netfeedback as nf
from netfeedback import ConfigError, ExperimentConfig, run_experiment, write_outputs
from netfeedback.cli import main


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
        ExperimentConfig.from_json(p)
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(p2)


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


class _RowPlant:
    """A plant whose every next state is one fixed row."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def advance(self, t, x, u, w):
        return self.row.copy(), np.zeros_like(self.row)


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
        assert res.interval.y_high[1] == max(0.4, float(x.max())), row
        trips += want
    assert 0 < trips < len(rows)


def test_overflowing_run_trips_the_guard_without_warnings():
    # f(X) overflows to inf (and inf - inf to NaN) inside the plant step; the
    # step ignores it, the guard stops the run, and nothing warns
    for weights, x0 in (([[1.0]], [1e200]),
                        ([[1.0, 1.0], [1.0, 1.0]], [1e200, -1e200])):
        cfg = ExperimentConfig(_cfg(
            graph={"kind": "custom", "weights": weights},
            function={"kind": "linear", "a": 1e200, "b": 0.0},
            controller={"kind": "zero"}, x0=x0, horizon=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_experiment(cfg)
        assert res.summary["guard_tripped"] and res.summary["steps_run"] == 1
        assert not np.isfinite(res.x_hist[1]).any()
        assert res.summary["verdict"] == "diverged"


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
                enh = res.enhanced
                assert len(enh["holders"]) == res.summary["steps_run"] == 40
                for t, holders in enumerate(enh["holders"]):
                    x = res.x_hist[t]
                    cons = nf.run_extreme_consensus(cfg.graph, x, res.z_hist[t])
                    assert holders == (cons.holder_max, cons.holder_min)
                    for key, want in (("x_max", cons.x_max), ("x_min", cons.x_min),
                                      ("z_at_max", cons.z_at_max),
                                      ("z_at_min", cons.z_at_min)):
                        assert (np.float64(enh[key][t]).tobytes()
                                == np.float64(want).tobytes()), (key, t)
                    duplicate_steps += int((x == x.max()).sum() > 1)
                    signed_zero_steps += int(x.max() == 0.0
                                             and len(set(np.signbit(x[x == 0.0]))) == 2)
    assert duplicate_steps > 0 and signed_zero_steps > 0


def test_max_enhanced_needs_strong_connectivity_before_any_step(monkeypatch):
    import netfeedback.dynamics as dynamics

    def no_step(*args, **kwargs):
        raise AssertionError("the plant stepped before the connectivity check")

    monkeypatch.setattr(dynamics, "step", no_step)
    monkeypatch.setattr(dynamics.PlantModel, "advance", no_step)
    cfg = ExperimentConfig(_cfg(
        graph={"kind": "path_root_selfloop", "n": 3},
        controller={"kind": "max_enhanced"}))
    with pytest.raises(ValueError, match="strongly connected"):
        run_experiment(cfg)


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
    log = nf.FlowLog(res.log.n, capacity=len(x))
    log.append(x[0])
    for t in range(len(u)):
        log.append(x[t + 1], z=z[t], u=u[t])
    return dataclasses.replace(res, log=log, w_hist=w)


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
    for k, res in enumerate((tripped, _with_special_values(tripped), adversary)):
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
             "controller.epsilon")):
        path = _write_cfg(tmp_path, _cfg(**over), f"{name}.json")
        assert main(["simulate", "--config", path]) == 2, name
        assert field in capsys.readouterr().err, name
    # malformed grid
    good = _write_cfg(tmp_path, _cfg(horizon=10), "good.json")
    assert main(["sweep", "--config", good, "--L", "1:2"]) == 2
    # capacity without a mode
    assert main(["capacity"]) == 2
    capsys.readouterr()


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
