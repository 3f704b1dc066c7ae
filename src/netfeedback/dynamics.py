"""The uncertain network plant and its two observation channels.

One step of the plant, per node i:

    x_i(t+1) = sum_{j in N_i} a_ij f(x_j(t)) + u_i(t) + w_i(t)

with |w_i(t)| <= w_star. The estimate channel either reads f(x_i(t)) directly
with bounded error d0, or reconstructs all of f(X(t)) at once by inverting the
weight matrix on X(t+1) - U(t); the inverse route inherits an error of at most
||A^{-1}||_inf * w_star.

PlantModel.advance(t, X(t), U(t), W(t)) returns (X(t+1), Z(t)): it steps the
plant and observes through its own channel, whose noise generator and
factorized inverse it holds for the run. OnlineAdversary.advance has the same
signature, so the runner drives either plant through one call. advance
evaluates f(X(t)) once per step, for both the plant equation and the direct
estimate; step and observe_direct are the same computations one call each.

Disturbances and direct-observation noise are drawn BLOCK values per
Generator call and handed out n at a time. A uniform draw takes one value of
the generator's stream per element, so the values are the same stream as one
call per step, whatever the sequence of n.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .graphs import WeightedDigraph

BLOCK = 4096   # values drawn per Generator call for disturbances and noise


@dataclass(frozen=True)
class DisturbanceSpec:
    """Bounded per-step disturbance.

    generator:
      * "zero": W identically zero (w_star may be 0 in this case only).
      * "seeded_uniform": iid uniform on [-w_star, w_star], seeded.
      * "constant_sign": uniform magnitude in [0, w_star] times `sign`.
    """

    w_star: float = 0.0
    generator: str = "zero"
    seed: int = 0
    sign: int = 1

    def __post_init__(self):
        if self.generator not in ("zero", "seeded_uniform", "constant_sign"):
            raise ValueError(f"unknown disturbance generator {self.generator!r}")
        if self.w_star < 0:
            raise ValueError("w_star must be nonnegative")
        if self.w_star == 0.0 and self.generator != "zero":
            raise ValueError("w_star must be positive for a nonzero generator")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def make_source(self) -> "DisturbanceSource":
        return DisturbanceSource(self)


class _Blocks:
    """Successive n-value slices of one stream whose values come BLOCK at a
    time from draw(k), the next k values of the stream."""

    def __init__(self, draw):
        self._draw = draw
        self._buf = np.empty(0)
        self._i = 0

    def take(self, n: int) -> np.ndarray:
        i = self._i
        if i + n > self._buf.size:
            self._buf = np.concatenate((self._buf[i:], self._draw(max(BLOCK, n))))
            i = 0
        self._i = i + n
        return self._buf[i:i + n]


class DisturbanceSource:
    """Stateful draw-per-step wrapper so runs are reproducible; draw(n)
    returns the values one rng.uniform call of size n would."""

    def __init__(self, spec: DisturbanceSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        w_star, sign = spec.w_star, spec.sign
        self._blocks = _Blocks({
            "zero": np.zeros,
            "seeded_uniform": lambda k: rng.uniform(-w_star, w_star, k),
            "constant_sign": lambda k: sign * rng.uniform(0.0, w_star, k),
        }[spec.generator])

    def draw(self, n: int) -> np.ndarray:
        return self._blocks.take(n)


@dataclass(frozen=True)
class ObservationSpec:
    """How z_i(t), the estimate of f(x_i(t)), is produced.

    mode "direct": z_i = f(x_i) + e_i with |e_i| <= d0 (seeded uniform).
    mode "matrix_inverse": Z = A^{-1} (X(t+1) - U(t)); needs invertible A.
    """

    mode: str = "direct"
    d0: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("direct", "matrix_inverse"):
            raise ValueError(f"unknown observation mode {self.mode!r}")
        if self.d0 < 0:
            raise ValueError("d0 must be nonnegative")


@dataclass
class PlantModel:
    graph: WeightedDigraph
    f: object  # PlantFunction
    observation: ObservationSpec = field(default_factory=ObservationSpec)

    def __post_init__(self):
        obs = self.observation
        rng = np.random.default_rng(obs.noise_seed)
        d0 = obs.d0
        self._noise = (_Blocks(lambda k: rng.uniform(-d0, d0, k))
                       if d0 > 0.0 else None)
        self._inverse = (InverseObserver(self.graph)
                         if obs.mode == "matrix_inverse" else None)

    def advance(self, t: int, x: np.ndarray, u: np.ndarray, w: np.ndarray):
        """(X(t+1), Z(t)) from X(t), U(t) and W(t): step and observe_direct
        (or InverseObserver.observe) in one, with f(X(t)) evaluated once."""
        x_next, fx = _plant_equation(self.graph.weights, self.f, x, u, w)
        if self._inverse is not None:
            return x_next, self._inverse.observe(x_next, u)
        if self._noise is None:
            return x_next, fx
        return x_next, fx + self._noise.take(fx.size)


@dataclass
class PlantState:
    t: int
    x: np.ndarray


def step(model: PlantModel, state: PlantState, u: np.ndarray,
         w: np.ndarray) -> PlantState:
    """Advance the plant one step under control u and disturbance w.

    Overflow is not an error here: non-finite states are the runner's guard
    problem, not a crash.
    """
    x = np.asarray(state.x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    n = model.graph.n
    if x.shape != (n,) or u.shape != (n,) or w.shape != (n,):
        raise ValueError(f"state/control/disturbance must have shape ({n},)")
    return PlantState(state.t + 1,
                      _plant_equation(model.graph.weights, model.f, x, u, w)[0])


def _plant_equation(weights, f, x, u, w):
    """(A f(X) + U + W, f(X)) for float arrays X, U and W: the plant
    equation of step and PlantModel.advance, overflow ignored as in step."""
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(f(x), dtype=float)
        return weights @ fx + u + w, fx


def observe_direct(f, x: np.ndarray, d0: float = 0.0,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """z_i = f(x_i) + e_i with |e_i| <= d0."""
    z = np.asarray(f(np.asarray(x, dtype=float)), dtype=float)
    if d0 > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        z = z + rng.uniform(-d0, d0, z.shape)
    return z


class InverseObserver:
    """Matrix-inverse estimate channel with a one-time conditioning check."""

    def __init__(self, graph: WeightedDigraph, cond_limit: float = 1e12):
        a = graph.weights
        cond = np.linalg.cond(a)
        if not np.isfinite(cond) or cond > cond_limit:
            raise ValueError(
                "weight matrix is singular or ill-conditioned "
                f"(cond={cond:.3e} > {cond_limit:.1e}); use the direct "
                "observation mode instead (a least-squares variant is a "
                "documented extension point, not implemented)")
        self._lu = lu_factor(a)
        self.error_gain = float(np.abs(np.linalg.inv(a)).sum(axis=1).max())

    def observe(self, x_next: np.ndarray, u: np.ndarray) -> np.ndarray:
        return lu_solve(self._lu, np.asarray(x_next, float) - np.asarray(u, float))
