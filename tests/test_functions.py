"""Scalar plant families, quasi-norms, and growth certificates."""

import numpy as np
import pytest

from netfeedback import (
    BoundedPerturbedLinear,
    GrowthCertificate,
    LinearFunction,
    PinnedPiecewiseLinear,
    TabulatedFunction,
    certificate_for,
    check_growth_bound,
    sampled_quasi_norm,
)
from netfeedback import functions


# ---- families and exact quasi-norms ----

def test_linear_quasi_norm_is_abs_slope():
    assert LinearFunction(2.6, 1.0).quasi_norm() == 2.6
    assert LinearFunction(-0.8).quasi_norm() == 0.8
    assert LinearFunction(2.0, 3.0)(1.5) == 6.0


def test_bounded_perturbed_linear():
    f = BoundedPerturbedLinear(1.2, amplitude=0.5)
    assert f.quasi_norm() == 1.2
    assert abs(f.amplitude) == 0.5
    x = np.linspace(-10, 10, 101)
    assert np.max(np.abs(f(x) - 1.2 * x)) <= 0.5 + 1e-12


def test_tabulated_interp_and_tails():
    f = TabulatedFunction([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert f(0.5) == 0.5
    assert f(1.5) == 0.5
    # linear tail extension at the boundary slopes
    assert f(-1.0) == -1.0
    assert f(3.0) == -1.0
    with pytest.raises(ValueError):
        TabulatedFunction([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        f.quasi_norm()  # no analytic quasi-norm for tabulated data


# ---- sampled diagnostics ----

def test_sampled_quasi_norm_linear():
    f = LinearFunction(2.6)
    est = sampled_quasi_norm(f, alpha=1.0)
    assert est <= 2.6 + 1e-12
    assert est >= 2.59  # widest sampled pair dominates the offset


def test_sampled_quasi_norm_bounded_family():
    f = BoundedPerturbedLinear(1.2, amplitude=3.0)
    # small alpha is polluted by the bounded oscillation ...
    assert sampled_quasi_norm(f, alpha=1.0) > 2.0
    # ... a moderate offset suppresses it and recovers the linear rate
    assert abs(sampled_quasi_norm(f, alpha=10.0) - 1.2) < 0.05


def test_sampled_quasi_norm_alpha_monotone():
    f = BoundedPerturbedLinear(1.0, amplitude=2.0)
    vals = [sampled_quasi_norm(f, alpha=a) for a in (0.5, 5.0, 50.0)]
    assert vals[0] >= vals[1] >= vals[2]


def test_check_growth_bound():
    f = LinearFunction(2.6)
    assert check_growth_bound(f, 2.6, 1e-6, 0.0)
    # rate below the true slope with no offset is refuted by wide pairs
    assert not check_growth_bound(f, 2.0, 0.1, 0.0)
    g = BoundedPerturbedLinear(1.2, amplitude=0.5)
    assert check_growth_bound(g, 1.2, 1e-9, 1.0)  # c = 2s always works


def test_sample_spec_seeded_pairs():
    x1, y1 = functions._sample_pairs()
    x2, y2 = functions._sample_pairs()
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    near = np.abs(x1 - y1) <= 1.0   # half near collisions, half far apart
    assert near[5000:].all() and near[:5000].mean() < 0.01


# ---- growth certificates ----

def test_certificate_residual_is_constant_above_L():
    cert = GrowthCertificate(0.1, 5.0)
    assert [cert.residual_bound(r) for r in (0.1001, 0.4, 7.0)] == [5.0] * 3
    for r in (0.1, 0.05):
        with pytest.raises(ValueError):
            cert.residual_bound(r)

    lin = certificate_for(LinearFunction(-2.6, 1.0))
    assert (lin.L, lin.residual) == (2.6, 0.0)
    bpl = certificate_for(BoundedPerturbedLinear(0.8, amplitude=-1.5))
    assert (bpl.L, bpl.residual) == (0.8, 3.0)   # twice |amplitude|
    # a pinned piecewise-linear map: L is the sup slope, here an inner segment's
    pinned = certificate_for(PinnedPiecewiseLinear(
        3.0, [(-1.0, -0.5), (0.0, 0.0), (1.0, 2.5), (2.0, 3.0)]))
    assert (pinned.L, pinned.residual) == (2.5, 0.0)
    assert pinned.residual_bound(2.6) == 0.0
    with pytest.raises(ValueError):
        certificate_for(TabulatedFunction([0.0, 1.0], [0.0, 1.0]))


def test_certificate_for_analytic_families():
    c1 = certificate_for(LinearFunction(2.6))
    assert c1.L == 2.6
    assert c1.residual_bound(2.9) == 0.0

    c2 = certificate_for(BoundedPerturbedLinear(0.8, amplitude=1.5))
    assert c2.L == 0.8
    assert c2.residual_bound(1.0) == 3.0  # twice the amplitude

    with pytest.raises(ValueError):
        certificate_for(TabulatedFunction([0.0, 1.0], [0.0, 1.0]))


# ---- the shared piecewise-linear evaluator against its two former copies ----

def _tabulated_oracle(xs, ys, x):
    # TabulatedFunction.__call__ before the evaluator was shared: both tails
    # computed on every call
    lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
    hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    x = np.asarray(x, dtype=float)
    y = np.interp(x, xs, ys)
    y = np.where(x < xs[0], ys[0] + lo_slope * (x - xs[0]), y)
    y = np.where(x > xs[-1], ys[-1] + hi_slope * (x - xs[-1]), y)
    if y.ndim == 0:
        return float(y)
    return y


def _pinned_oracle(xs, vs, lslope, rslope, x):
    # PinnedPiecewiseLinear.__call__ before the evaluator was shared
    x = np.asarray(x, dtype=float)
    y = np.interp(x, xs, vs)
    below = x < xs[0]
    if below.any():
        y = np.where(below, vs[0] + lslope * (x - xs[0]), y)
    above = x > xs[-1]
    if above.any():
        y = np.where(above, vs[-1] + rslope * (x - xs[-1]), y)
    if y.ndim == 0:
        return float(y)
    return y


def _same(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


def _probe_points(xs):
    # inside the ends, on every end and pin, beyond both ends, and both zeros
    lo, hi = float(xs[0]), float(xs[-1])
    mids = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    return [*xs.tolist(), *mids, lo - 1.0, lo - 1e6, hi + 1.0, hi + 1e6,
            0.0, -0.0, lo - 1e-12, hi + 1e-12]


def test_shared_evaluator_matches_both_former_evaluators():
    pin_sets = [
        # (slope bound, pins)
        (2.0, [(-2.0, 1.0), (0.0, -0.0), (1.5, 3.0)]),
        (2.0, [(0.5, 1.0), (2.0, -0.5)]),     # zero lies outside
        (2.0, [(-0.0, 0.0), (1.0, 0.0)]),     # a flat segment
        # -0.0 at an end: a tail taken on the end pin itself would give +0.0
        (2.0, [(1.0, -0.0), (2.0, 1.0)]),
        (2.0, [(-2.0, -1.0), (-1.0, -0.0)]),
        (3.0, [(0.0, 0.5)]),                  # a single pin
        (3.0, [(-0.0, -0.0)]),
    ]
    for bound, pins in pin_sets:
        f = PinnedPiecewiseLinear(bound, pins)
        xs = np.array([p[0] for p in pins])
        vs = np.array([p[1] for p in pins])
        if len(pins) == 1:
            lslope, rslope = -bound, bound
        else:
            lslope = (vs[1] - vs[0]) / (xs[1] - xs[0])
            rslope = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
        points = _probe_points(xs)
        inside = [p for p in points if xs[0] <= p <= xs[-1]]
        vectors = [np.array(points), np.array(inside), np.array(points[::-1]),
                   np.array([xs[0] - 3.0, xs[-1] + 3.0]), np.empty(0)]
        for x in [*points, *vectors]:
            _same(f(x), _pinned_oracle(xs, vs, lslope, rslope, x))
        if len(pins) > 1:
            tab = TabulatedFunction(xs, vs)
            for x in [*points, *vectors]:
                _same(tab(x), _tabulated_oracle(xs, vs, x))
