"""Scalar plant families, quasi-norms, and growth certificates."""

import math

import numpy as np
import pytest

from netfeedback import (
    BoundedPerturbedLinear,
    GrowthCertificate,
    LinearFunction,
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
    assert f.bounded_sup() == 0.5
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

def test_certificate_pair_validation():
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, pairs=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, pairs=[(0.5, -1.0)])


def test_residual_bound_picks_qualifying_pair():
    cert = GrowthCertificate(0.1, pairs=[(0.1, 5.0), (0.5, 2.0)])
    # only the first pair has rate below r = L + 0.3
    assert cert.residual_bound(0.4) == 5.0
    # both qualify at a larger rate; the smaller constant wins
    assert cert.residual_bound(0.7) == 2.0
    # no pair qualifies and no analytic form: infimum over empty set
    assert cert.residual_bound(0.15) == math.inf
    with pytest.raises(ValueError):
        cert.residual_bound(0.1)
    with pytest.raises(ValueError):
        cert.residual_bound(0.05)


def test_residual_bound_non_increasing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pairs = [(float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.0, 9.0)))
                 for _ in range(4)]
        cert = GrowthCertificate(0.2, pairs=pairs)
        grid = np.linspace(0.25, 2.0, 12)
        vals = [cert.residual_bound(float(r)) for r in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_certificate_for_analytic_families():
    c1 = certificate_for(LinearFunction(2.6))
    assert c1.L == 2.6
    assert c1.residual_bound(2.9) == 0.0

    c2 = certificate_for(BoundedPerturbedLinear(0.8, amplitude=1.5))
    assert c2.L == 0.8
    assert c2.residual_bound(1.0) == 3.0  # twice the amplitude

    with pytest.raises(ValueError):
        certificate_for(TabulatedFunction([0.0, 1.0], [0.0, 1.0]))


def test_analytic_beats_loose_pairs():
    cert = GrowthCertificate(1.0, pairs=[(0.1, 7.0)],
                             analytic_residual=lambda r: 0.5)
    assert cert.residual_bound(1.2) == 0.5
