"""One-step network dynamics, disturbance draws, and the two observers."""

import numpy as np
import pytest

import netfeedback.dynamics as dynamics
from netfeedback import (
    DisturbanceSpec,
    InverseObserver,
    LinearFunction,
    ObservationSpec,
    PlantModel,
    PlantState,
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
    state = PlantState(0, np.array([1.0, -1.0]))
    nxt = step(model, state, np.zeros(2), w=np.zeros(2))
    assert nxt.t == 1
    np.testing.assert_array_equal(nxt.x, [-2.0, 2.0])


def test_step_applies_control_and_disturbance():
    g = build_canonical("cycle", 2)
    model = _model(g, LinearFunction(1.0))
    state = PlantState(3, np.array([0.5, 0.25]))
    nxt = step(model, state, np.array([1.0, -1.0]), w=np.array([0.1, 0.2]))
    np.testing.assert_allclose(nxt.x, [0.25 + 1.0 + 0.1, 0.5 - 1.0 + 0.2])


def test_step_shape_validation():
    g = build_canonical("cycle", 3)
    model = _model(g, LinearFunction(1.0))
    state = PlantState(0, np.zeros(3))
    with pytest.raises(ValueError):
        step(model, state, np.zeros(2), w=np.zeros(3))
    with pytest.raises(ValueError):
        step(model, state, np.zeros(3), w=np.zeros(4))
    with pytest.raises(TypeError):
        step(model, state, np.zeros(3))   # W is the caller's draw, never implied


def test_step_overflow_is_not_an_error():
    g = build_canonical("single_selfloop", 1, a11=1.0)
    model = _model(g, LinearFunction(1e200))
    state = PlantState(0, np.array([1e200]))
    nxt = step(model, state, np.zeros(1), w=np.zeros(1))
    assert not np.isfinite(nxt.x).all()


# ---- disturbance generators ----

def test_disturbance_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=-1.0)
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=0.0, generator="seeded_uniform")
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=1.0, generator="white_noise")
    with pytest.raises(ValueError):
        DisturbanceSpec(w_star=1.0, generator="constant_sign", sign=0)


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
        nxt = step(model, PlantState(0, x), u, w=w)
        z = obs.observe(nxt.x, u)
        assert np.max(np.abs(z - f(x))) <= obs.error_gain * 0.2 + 1e-12


def test_inverse_observer_exact_without_disturbance():
    g = build_canonical("cycle", 4)
    f = LinearFunction(0.9, 0.4)
    obs = InverseObserver(g)
    x = np.array([2.0, -1.0, 0.5, 3.0])
    u = np.array([0.1, 0.2, 0.3, 0.4])
    nxt = step(_model(g, f), PlantState(0, x), u, w=np.zeros(4))
    np.testing.assert_allclose(obs.observe(nxt.x, u), f(x), atol=1e-12)


def test_inverse_observer_rejects_singular_weights():
    w = np.zeros((2, 2))
    w[0, 1] = 1.0  # row 2 is all zero, A not invertible
    with pytest.raises(ValueError):
        InverseObserver(WeightedDigraph(w))


def test_inverse_observer_condition_limit():
    w = np.array([[1.0, 0.0], [1.0, 1e-13]])
    with pytest.raises(ValueError, match="direct"):
        InverseObserver(WeightedDigraph(w), cond_limit=1e8)


# ---- the runner's plant step against its one-call references ----

def _replay_advance(obs, steps):
    # PlantModel.advance against step plus observe_direct (or the inverse
    # observer), the noise of each drawn by a fresh generator from one seed
    g = build_canonical("cycle", 3)
    f = LinearFunction(0.5, 0.1)
    model = PlantModel(graph=g, f=f, observation=obs)
    ref_rng = np.random.default_rng(obs.noise_seed)
    inverse = InverseObserver(g)
    inputs = np.random.default_rng(0)
    x = inputs.uniform(-1, 1, 3)
    for t in range(steps):
        u, w = inputs.uniform(-0.5, 0.5, (2, 3))
        x_next, z = model.advance(t, x, u, w)
        ref = step(model, PlantState(t, x), u, w)
        assert ref.t == t + 1
        if obs.mode == "matrix_inverse":
            ref_z = inverse.observe(ref.x, u)
        elif obs.d0 > 0.0:
            ref_z = observe_direct(f, x, obs.d0, ref_rng)
        else:
            ref_z = observe_direct(f, x)
        assert x_next.tobytes() == ref.x.tobytes(), t
        assert z.tobytes() == ref_z.tobytes(), t
        x = x_next
    # the same stream: the next per-call draw is the plant's next noise
    if obs.mode == "direct" and obs.d0 > 0.0:
        _, z = model.advance(steps, x, np.zeros(3), np.zeros(3))
        want = f(x) + ref_rng.uniform(-obs.d0, obs.d0, 3)
        assert z.tobytes() == want.tobytes()


def test_advance_replays_step_and_observers_across_noise_blocks():
    steps = 2 * dynamics.BLOCK // 3 + 5     # three blocks of noise
    for obs in (ObservationSpec("direct", d0=0.05, noise_seed=4),
                ObservationSpec("direct", d0=0.0, noise_seed=4),
                ObservationSpec("matrix_inverse", d0=0.05, noise_seed=4)):
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
