"""Plant nonlinearities and their growth certificates.

The uncertainty class is measured by the quasi-norm: the limit over alpha of
the supremum of |f(x)-f(y)| / (|x-y| + alpha). Membership with quasi-norm at
most L is equivalent to a family of affine growth bounds

    |f(x) - f(y)| <= (L + eta) |x - y| + c        for every eta > 0,

and the residual bound W(r) is the cheapest additive constant c available from
certificate pairs (eta, c) with L + eta below a given rate r. Linear maps have
residual 0; a bounded perturbation of amplitude s costs at most 2s.
"""

import math

import numpy as np


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

    def bounded_sup(self) -> float:
        return abs(self.amplitude)

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
        self._lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        self._hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.xs, self.ys)
        y = np.where(x < self.xs[0], self.ys[0] + self._lo_slope * (x - self.xs[0]), y)
        y = np.where(x > self.xs[-1], self.ys[-1] + self._hi_slope * (x - self.xs[-1]), y)
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


class GrowthCertificate:
    """Certificate for one plant: quasi-norm level L plus (eta, c) pairs.

    pairs are witnesses that |f(x)-f(y)| <= (L+eta)|x-y| + c. For analytic
    families, analytic_residual(r) gives the exact residual; tabulated pairs
    alone only support upper estimates.
    """

    def __init__(self, L: float, pairs=(), analytic_residual=None):
        self.L = float(L)
        self.pairs = tuple((float(e), float(c)) for (e, c) in pairs)
        if any(e <= 0 or c < 0 for (e, c) in self.pairs):
            raise ValueError("certificate pairs need eta > 0 and c >= 0")
        self.analytic_residual = analytic_residual

    def residual_bound(self, r: float) -> float:
        """Infimum additive constant over certificates with rate below r.

        Returns math.inf when no pair qualifies and no analytic form exists.
        Non-increasing in r. Rejects r <= L, where no finite residual can
        exist.
        """
        if r <= self.L:
            raise ValueError(f"rate r={r} must exceed the quasi-norm level L={self.L}")
        best = math.inf
        if self.analytic_residual is not None:
            best = float(self.analytic_residual(r))
        for eta, c in self.pairs:
            if self.L + eta < r and c < best:
                best = c
        return best


def certificate_for(f: PlantFunction) -> GrowthCertificate:
    """Analytic certificate where the family supports one."""
    if isinstance(f, LinearFunction):
        return GrowthCertificate(abs(f.a), analytic_residual=lambda r: 0.0)
    if isinstance(f, BoundedPerturbedLinear):
        s = f.bounded_sup()
        return GrowthCertificate(abs(f.a), analytic_residual=lambda r: 2.0 * s)
    qn = f.quasi_norm()  # raises for unsupported families
    return GrowthCertificate(qn, analytic_residual=lambda r: 0.0)
