"""One-step network dynamics, disturbance draws, and the two observers."""

import warnings

import numpy as np
import pytest

import netfeedback.dynamics as dynamics
from netfeedback import (
    DisturbanceSpec,
    InverseObserver,
    LinearFunction,
    ObservationSpec,
    PlantModel,
    WeightedDigraph,
    build_canonical,
    observe_direct,
    step,
)


def _model(g, f):
    return PlantModel(graph=g, f=f)


def test_step_two_cycle_oracle():
    # x+ = A f(x) + u + w on the unit 2-cycle with f = 2x
    g = build_canonical("cycle", 2)
    model = _model(g, LinearFunction(2.0))
    nxt = step(model, np.array([1.0, -1.0]), np.zeros(2), w=np.zeros(2))
    assert nxt.shape == (2,)
    np.testing.assert_array_equal(nxt, [-2.0, 2.0])


def test_step_applies_control_and_disturbance():
    g = build_canonical("cycle", 2)
    model = _model(g, LinearFunction(1.0))
    nxt = step(model, np.array([0.5, 0.25]), np.array([1.0, -1.0]),
               w=np.array([0.1, 0.2]))
    np.testing.assert_allclose(nxt, [0.25 + 1.0 + 0.1, 0.5 - 1.0 + 0.2])


def test_step_shape_validation():
    g = build_canonical("cycle", 3)
    model = _model(g, LinearFunction(1.0))
    x = np.zeros(3)
    with pytest.raises(ValueError):
        step(model, x, np.zeros(2), w=np.zeros(3))
    with pytest.raises(ValueError):
        step(model, x, np.zeros(3), w=np.zeros(4))
    with pytest.raises(TypeError):
        step(model, x, np.zeros(3))   # W is the caller's draw, never implied


def test_step_overflow_is_not_an_error():
    g = build_canonical("single_selfloop", 1, a11=1.0)
    model = _model(g, LinearFunction(1e200))
    nxt = step(model, np.array([1e200]), np.zeros(1), w=np.zeros(1))
    assert not np.isfinite(nxt).all()


# ---- disturbance generators ----

def test_disturbance_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=-1.0)
    # non-finite amplitudes are refused when the spec is built, not by numpy
    # at the first draw
    for w_star in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DisturbanceSpec(w_star=w_star, generator="seeded_uniform")
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=0.0, generator="seeded_uniform")
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=1.0, generator="white_noise")
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=1.0, generator="constant_sign", sign=0)


def test_spans_that_overflow_are_refused_when_built():
    # uniform(-v, v) needs its span 2 * v to be a float: a spec that cannot
    # draw is refused when it is built, not by numpy's OverflowError at the
    # first draw, whoever builds it
    with pytest.raises(ValueError, match="span"):
        DisturbanceSpec(w_star=1e308, generator="seeded_uniform")
    with pytest.raises(ValueError, match="span"):
        ObservationSpec(d0=1e308)
    # the largest amplitudes whose span is a float still draw
    top = np.finfo(float).max / 2
    w = DisturbanceSpec(w_star=top, generator="seeded_uniform").make_source()
    assert np.all(np.abs(w.draw(4)) <= top)
    # constant_sign draws uniform(0, w_star), which needs no span
    w = DisturbanceSpec(w_star=1e308, generator="constant_sign").make_source()
    drawn = w.draw(4)
    assert np.all((drawn >= 0.0) & (drawn <= 1e308))


def test_disturbance_draws_bounded_and_seeded():
    spec = DisturbanceSpec(w_star=0.3, generator="seeded_uniform", seed=9)
    a = spec.make_source()
    b = spec.make_source()
    for _ in range(50):
        wa = a.draw(4)
        assert np.all(np.abs(wa) <= 0.3)
        np.testing.assert_array_equal(wa, b.draw(4))


def test_constant_sign_draws():
    spec = DisturbanceSpec(w_star=0.5, generator="constant_sign", seed=2, sign=-1)
    src = spec.make_source()
    w = np.concatenate([src.draw(5) for _ in range(20)])
    assert np.all(w <= 0.0)
    assert np.all(w >= -0.5)
    assert w.min() < -1e-3  # actually draws something nonzero


def test_zero_generator():
    src = DisturbanceSpec().make_source()
    np.testing.assert_array_equal(src.draw(3), np.zeros(3))


# ---- observers ----

def test_observe_direct_exact_when_noiseless():
    f = LinearFunction(0.5, 0.1)
    x = np.array([1.0, -2.0, 0.0])
    np.testing.assert_array_equal(observe_direct(f, x), f(x))


def test_observe_direct_noise_bounded_and_seeded():
    f = LinearFunction(1.0)
    x = np.linspace(-1, 1, 6)
    r1 = np.random.default_rng(4)
    r2 = np.random.default_rng(4)
    z1 = observe_direct(f, x, d0=0.05, rng=r1)
    z2 = observe_direct(f, x, d0=0.05, rng=r2)
    np.testing.assert_array_equal(z1, z2)
    assert np.max(np.abs(z1 - f(x))) <= 0.05


def test_observation_spec_validation():
    with pytest.raises(ValueError):
        ObservationSpec(mode="telepathy")
    with pytest.raises(ValueError):
        ObservationSpec(d0=-0.1)
    for d0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ObservationSpec(d0=d0)


def test_inverse_observer_recovers_f_up_to_disturbance():
    # Z = A^{-1}(X(t+1) - U) = f(X) + A^{-1} W; permutation A has gain 1
    g = build_canonical("cycle", 3)
    f = LinearFunction(1.3, -0.2)
    obs = InverseObserver(g)
    assert obs.error_gain == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    model = _model(g, f)
    for _ in range(30):
        x = rng.uniform(-5, 5, 3)
        u = rng.uniform(-1, 1, 3)
        w = rng.uniform(-0.2, 0.2, 3)
        nxt = step(model, x, u, w=w)
        z = obs.observe(nxt, u)
        assert np.max(np.abs(z - f(x))) <= obs.error_gain * 0.2 + 1e-12


def test_inverse_observer_exact_without_disturbance():
    g = build_canonical("cycle", 4)
    f = LinearFunction(0.9, 0.4)
    obs = InverseObserver(g)
    x = np.array([2.0, -1.0, 0.5, 3.0])
    u = np.array([0.1, 0.2, 0.3, 0.4])
    nxt = step(_model(g, f), x, u, w=np.zeros(4))
    np.testing.assert_allclose(obs.observe(nxt, u), f(x), atol=1e-12)


def test_inverse_observer_matches_lu_solve_to_rounding():
    # observe multiplies by the inverse np.linalg.inv computes; the oracle is
    # scipy's LU solve on the same right-hand side. The invertible canonical
    # graphs are permutations, whose inverses and solves are exact, so the
    # bits agree.
    # Elsewhere they agree to rounding, |z - x| <= C n eps (|A^-1| |b|), with
    # C derived to first order from the n-term sums each side rounds, the
    # terms of entry i of each sum being bounded by (|A^-1| |b|)_i:
    #   - the product A^-1 b: one n-term sum, at most n eps/2;
    #   - each column of A^-1 and the solution x: a forward and a back
    #     substitution on the LU factors, at most 2 * n eps/2 each;
    # so C = 1/2 + 1 + 1 = 5/2. The term bound holds when the triangular
    # factors are well conditioned, as for these diagonally weighted A.
    # Non-finite right-hand sides give non-finite entries in the same places
    # (inf or NaN may differ: inf * 0 is NaN in the product).
    from scipy.linalg import lu_factor, lu_solve
    C = 2.5
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    graphs = [WeightedDigraph(rng.normal(size=(n, n)) + n * np.eye(n))
              for n in range(1, 9) for _ in range(4)]
    canonical = []
    for kind in ("cycle", "path_root_selfloop", "single_selfloop"):
        for n in range(1, 9):
            g = build_canonical(kind, n)
            if abs(np.linalg.det(g.weights)) > 0.0:
                canonical.append(g)
    specials = (np.inf, -np.inf, np.nan)
    bits_differ = non_finite = 0
    for g in graphs + canonical:
        obs = InverseObserver(g)
        factor = lu_factor(g.weights)
        abs_inv = np.abs(np.linalg.inv(g.weights))
        n = g.n
        for k in range(25):
            x_next, u = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(2, n))
            if k % 2:
                x_next[rng.integers(n)] = specials[k % 3]
            if k % 5 == 0:
                u[rng.integers(n)] = specials[k % 3]
            with np.errstate(invalid="ignore"):
                b = x_next - u
            want = lu_solve(factor, b, check_finite=False)
            z = obs.observe(x_next, u)
            assert (np.isfinite(z) == np.isfinite(want)).all(), (n, k)
            if not np.isfinite(b).all():
                non_finite += 1
            elif g in canonical:
                assert z.tobytes() == want.tobytes(), (n, k)
            else:
                bound = C * n * eps * (abs_inv @ np.abs(b))
                assert (np.abs(z - want) <= bound).all(), (n, k)
                bits_differ += int(z.tobytes() != want.tobytes())
    assert bits_differ > 0 and non_finite > 0


def test_inverse_observer_is_silent_on_overflow():
    # a direct caller gets a non-finite estimate and no RuntimeWarning
    obs = InverseObserver(build_canonical("cycle", 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = obs.observe([1e308, np.inf, 1.0], [-1e308, np.inf, 0.0])
    assert z.shape == (3,) and not np.isfinite(z).all()


def test_inverse_observer_rejects_singular_weights():
    w = np.zeros((2, 2))
    w[0, 1] = 1.0  # row 2 is all zero, A not invertible
    with pytest.raises(ValueError):
        InverseObserver(WeightedDigraph(w))


def test_inverse_observer_condition_limit():
    w = np.array([[1.0, 0.0], [1.0, 1e-13]])
    with pytest.raises(ValueError, match="direct"):
        InverseObserver(WeightedDigraph(w))   # cond ~ 2e13 > COND_LIMIT


# ---- the runner's plant step against its one-call references ----

def _advance_into_rows(plant, twin, t, x, u, w):
    """plant.advance allocating, and its twin's advance into preallocated
    rows of a table, as the runner passes the rows of its flow log: the
    rows themselves come back, holding the allocating call's bits."""
    want = plant.advance(t, x, u, w)
    table = np.full((2, x.size), 7.0)
    rows = table[0], table[1]
    got = twin.advance(t, x, u, w, *rows)
    assert got[0] is rows[0] and got[1] is rows[1], t
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want], t
    return want


def _replay_advance(obs, steps):
    # PlantModel.advance against step plus observe_direct (or the inverse
    # observer), the noise of each drawn by a fresh generator from one seed;
    # a twin plant with its own copy of the noise stream writes each step
    # into preallocated rows
    g = build_canonical("cycle", 3)
    f = LinearFunction(0.5, 0.1)
    model = PlantModel(graph=g, f=f, observation=obs)
    twin = PlantModel(graph=g, f=f, observation=obs)
    ref_rng = np.random.default_rng(obs.noise_seed)
    inverse = InverseObserver(g)
    inputs = np.random.default_rng(0)
    x = inputs.uniform(-1, 1, 3)
    for t in range(steps):
        u, w = inputs.uniform(-0.5, 0.5, (2, 3))
        x_next, z = _advance_into_rows(model, twin, t, x, u, w)
        ref = step(model, x, u, w)
        assert ref.shape == (3,)
        if obs.mode == "matrix_inverse":
            ref_z = inverse.observe(ref, u)
        elif obs.d0 > 0.0:
            ref_z = observe_direct(f, x, obs.d0, ref_rng)
        else:
            ref_z = observe_direct(f, x)
        assert x_next.tobytes() == ref.tobytes(), t
        assert z.tobytes() == ref_z.tobytes(), t
        x = x_next
    # the same stream: the next per-call draw is the plant's next noise
    if obs.mode == "direct" and obs.d0 > 0.0:
        _, z = model.advance(steps, x, np.zeros(3), np.zeros(3))
        want = f(x) + ref_rng.uniform(-obs.d0, obs.d0, 3)
        assert z.tobytes() == want.tobytes()
        twin.advance(steps, x, np.zeros(3), np.zeros(3))
    # a row that overflows: X(t+1) = (finite, inf, NaN), and under the
    # inverse channel a non-finite estimate
    x = np.array([1.5e308, -1.5e308, 1.0])
    u, w = np.array([0.0, 1.5e308, -np.inf]), np.array([0.0, 0.0, np.inf])
    with np.errstate(over="ignore", invalid="ignore"):
        x_next, z = _advance_into_rows(model, twin, steps + 1, x, u, w)
        ref = step(model, x, u, w)
    assert x_next.tobytes() == ref.tobytes()
    assert np.isfinite(x_next[0]) and np.isinf(x_next[1]) and np.isnan(x_next[2])
    assert np.isfinite(z).all() == (obs.mode == "direct")


def test_advance_replays_step_and_observers_across_noise_blocks():
    steps = 2 * dynamics.BLOCK // 3 + 5     # three blocks of noise
    for obs in (ObservationSpec("direct", d0=0.05, noise_seed=4),
                ObservationSpec("direct", d0=0.0, noise_seed=4),
                ObservationSpec("matrix_inverse", d0=0.0, noise_seed=4)):
        _replay_advance(obs, steps)


def test_advance_replays_with_small_blocks(monkeypatch):
    for block in (1, 2, 7):
        monkeypatch.setattr(dynamics, "BLOCK", block)
        _replay_advance(ObservationSpec("direct", d0=0.05, noise_seed=block), 40)


_SIZES = [3] * 10 + [7, 1, 1, 5]


def _per_call_draws(spec, sizes):
    rng = np.random.default_rng(spec.seed)
    for n in sizes:
        if spec.generator == "zero":
            yield np.zeros(n)
        elif spec.generator == "seeded_uniform":
            yield rng.uniform(-spec.w_star, spec.w_star, n)
        else:
            yield spec.sign * rng.uniform(0.0, spec.w_star, n)


def _check_draws(sizes):
    specs = [DisturbanceSpec(w_star=0.3, generator="seeded_uniform", seed=5),
             DisturbanceSpec(w_star=0.3, generator="constant_sign", seed=5, sign=1),
             DisturbanceSpec(w_star=0.3, generator="constant_sign", seed=5, sign=-1),
             DisturbanceSpec()]
    for spec in specs:
        src = spec.make_source()
        for k, (n, want) in enumerate(zip(sizes, _per_call_draws(spec, sizes))):
            got = src.draw(n)
            assert got.shape == (n,)
            assert got.tobytes() == want.tobytes(), (spec.generator, spec.sign, k)


def test_disturbance_draws_match_per_call_uniform_across_blocks():
    block = dynamics.BLOCK
    # a draw that ends exactly on the block end, draws that straddle it, a
    # change of n mid-stream and draws larger than a whole block
    sizes = [block // 2, block // 2, 3, 3, block - 8, 7, 7, 1,
             block + 3, 2, 2 * block + 1, 5]
    _check_draws(sizes)


def test_disturbance_draws_match_per_call_uniform_with_small_blocks(monkeypatch):
    for block in (1, 2, 3, 7):
        monkeypatch.setattr(dynamics, "BLOCK", block)
        _check_draws(_SIZES)


def test_disturbance_rows_match_per_call_uniform(monkeypatch):
    # rows(table) fills an (H, n) table a block of rows per draw and yields
    # the table's own rows, W(t) equal to a per-step draw of n, also when a
    # row is wider than a block and at small blocks
    specs = [DisturbanceSpec(w_star=0.3, generator="seeded_uniform", seed=5),
             DisturbanceSpec(w_star=0.3, generator="constant_sign", seed=5, sign=-1),
             DisturbanceSpec()]
    for block in (dynamics.BLOCK, 2, 7):
        monkeypatch.setattr(dynamics, "BLOCK", block)
        for h, n in ((1700, 5), (3, 4097), (9, 1)):
            for spec in specs:
                table = np.full((h, n), np.nan)
                rows = list(spec.make_source().rows(table))
                assert len(rows) == h
                for t, (row, want) in enumerate(
                        zip(rows, _per_call_draws(spec, [n] * h))):
                    assert np.shares_memory(row, table[t])
                    assert row.tobytes() == want.tobytes(), (block, h, n, t)
