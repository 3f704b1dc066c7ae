"""Plant nonlinearities and their growth certificates.

The uncertainty class is measured by the quasi-norm: the limit over alpha of
the supremum of |f(x)-f(y)| / (|x-y| + alpha). Membership with quasi-norm at
most L is equivalent to a family of affine growth bounds

    |f(x) - f(y)| <= (L + eta) |x - y| + c        for every eta > 0,

and the residual bound W(r) is an additive constant c that serves every rate r
above L. Each analytic family has a constant one: linear maps have residual 0,
a bounded perturbation of amplitude s costs 2|s|, and a piecewise-linear map
with linear tails has residual 0 at its sup slope.
"""

import math
from dataclasses import dataclass

import numpy as np

# The Xie-Guo constant 3/2 + sqrt(2) (Xie and Guo 2000): the critical value of
# quasi-norm times ||A||_inf. capacity.xie_guo_constant recovers it by search.
XIE_GUO = 1.5 + math.sqrt(2.0)


class PlantFunction:
    """Base class: a scalar map applied elementwise to node states."""

    def __call__(self, x):
        raise NotImplementedError

    def quasi_norm(self) -> float:
        raise ValueError(f"quasi-norm unsupported for {type(self).__name__}")


class LinearFunction(PlantFunction):
    def __init__(self, a: float, b: float = 0.0):
        self.a = float(a)
        self.b = float(b)

    def __call__(self, x):
        return self.a * x + self.b

    def quasi_norm(self) -> float:
        return abs(self.a)

    def __repr__(self):
        return f"LinearFunction(a={self.a}, b={self.b})"


class BoundedPerturbedLinear(PlantFunction):
    """a*x + b + amplitude*sin(x): linear plus a bounded oscillation.

    The bounded part disappears in the quasi-norm but shows up as an additive
    residual of at most twice its sup.
    """

    def __init__(self, a: float, b: float = 0.0, amplitude: float = 1.0):
        self.a = float(a)
        self.b = float(b)
        self.amplitude = float(amplitude)

    def __call__(self, x):
        return self.a * x + self.b + self.amplitude * np.sin(x)

    def quasi_norm(self) -> float:
        return abs(self.a)

    def __repr__(self):
        return (f"BoundedPerturbedLinear(a={self.a}, b={self.b}, "
                f"amplitude={self.amplitude})")


class TabulatedFunction(PlantFunction):
    """Interpolates sample points; boundary segments extend linearly.

    No analytic structure is assumed, so quasi-norm queries are rejected.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d xs/ys with at least two samples")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("xs must be strictly increasing")
        self.xs = xs
        self.ys = ys
        self._slopes = _end_slopes(xs, ys)

    def __call__(self, x):
        return _piecewise_linear(x, self.xs, self.ys, *self._slopes)


def _end_slopes(xs, vs):
    """Slopes of the first and the last segment through (xs, vs)."""
    return (vs[1] - vs[0]) / (xs[1] - xs[0]), (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])


def _piecewise_linear(x, xs, vs, left, right):
    """Interpolation of (xs, vs) at x, continued with slope left below xs[0]
    and slope right above xs[-1]; a float for a scalar x."""
    x = np.asarray(x, dtype=float)
    y = np.interp(x, xs, vs)
    # the tails only where some point lies beyond the ends
    below = x < xs[0]
    if below.any():
        y = np.where(below, vs[0] + left * (x - xs[0]), y)
    above = x > xs[-1]
    if above.any():
        y = np.where(above, vs[-1] + right * (x - xs[-1]), y)
    if y.ndim == 0:
        return float(y)
    return y


def _sample_pairs():
    """Seeded pairs (x, y) for the sampled growth checks.

    Half the pairs are far apart (independent uniforms over [-1000, 1000]),
    half are near collisions (offset by a uniform on [-1, 1]), so both the
    slope and the additive constant of a growth bound get exercised.
    """
    rng = np.random.default_rng(0)
    x_far = rng.uniform(-1000.0, 1000.0, 5000)
    y_far = rng.uniform(-1000.0, 1000.0, 5000)
    x_near = rng.uniform(-1000.0, 1000.0, 5000)
    y_near = x_near + rng.uniform(-1.0, 1.0, 5000)
    return np.concatenate([x_far, x_near]), np.concatenate([y_far, y_near])


def sampled_quasi_norm(f, alpha: float) -> float:
    """Empirical sup of |f(x)-f(y)| / (|x-y| + alpha) over sampled pairs.

    Grows toward the true quasi-norm as alpha and the sample span increase;
    used as an independent check on the analytic values.
    """
    x, y = _sample_pairs()
    num = np.abs(np.asarray(f(x)) - np.asarray(f(y)))
    return float(np.max(num / (np.abs(x - y) + alpha)))


def check_growth_bound(f, L: float, eta: float, c: float) -> bool:
    """Does |f(x)-f(y)| <= (L+eta)|x-y| + c hold on the sampled pairs?

    A sampled check: True certifies nothing beyond the samples, False is a
    concrete refutation.
    """
    x, y = _sample_pairs()
    lhs = np.abs(np.asarray(f(x)) - np.asarray(f(y)))
    rhs = (L + eta) * np.abs(x - y) + c
    return bool(np.all(lhs <= rhs + 1e-12))


@dataclass(frozen=True)
class GrowthCertificate:
    """Certificate for one plant: |f(x)-f(y)| <= r|x-y| + residual for every
    rate r above the quasi-norm level L."""

    L: float
    residual: float

    def residual_bound(self, r: float) -> float:
        """The additive constant at rate r; rejects r <= L, where no finite
        residual can exist."""
        if r <= self.L:
            raise ValueError(f"rate r={r} must exceed the quasi-norm level L={self.L}")
        return self.residual


def certificate_for(f: PlantFunction) -> GrowthCertificate:
    """The constant-residual certificate of f's family; ValueError for a
    family without a quasi-norm."""
    return GrowthCertificate(f.quasi_norm(),
                             2.0 * abs(f.amplitude)
                             if isinstance(f, BoundedPerturbedLinear) else 0.0)
