"""The uncertain network plant and its two observation channels.

One step of the plant, per node i:

    x_i(t+1) = sum_{j in N_i} a_ij f(x_j(t)) + u_i(t) + w_i(t)

with |w_i(t)| <= w_star. The estimate channel either reads f(x_i(t)) directly
with bounded error d0, or reconstructs all of f(X(t)) at once by multiplying
X(t+1) - U(t) by A^{-1}, the inverse of the weight matrix, computed once per
run; the inverse route inherits an error of at most ||A^{-1}||_inf * w_star.

PlantModel.advance(t, X(t), U(t), W(t), x_next, z) writes X(t+1) and Z(t)
into the rows x_next and z (numpy out=) and returns them: it steps the plant
and observes through its own channel, whose noise stream and A^{-1} it holds
for the run. OnlineAdversary.advance has the same signature, so the runner
drives either plant through one call, which writes straight into the next
rows of its flow log. advance evaluates f(X(t)) once per step, for both the
plant equation and the direct estimate; step and observe_direct are the
same computations one call each, and advance multiplies by the A^{-1} of an
InverseObserver itself. step and InverseObserver.observe silence overflow
themselves; advance leaves it to its caller, the runner, which enters one
np.errstate per run.

Disturbances and direct-observation noise are each one stream of a seeded
Generator, read as rows of n values by _rows: it fills an (H, n) table
max(1, BLOCK // n) rows per Generator call and yields each row. A uniform
draw takes one value of the generator's stream per element, so the rows are
the values of one draw of n per step. The runner fills its table
W(0..H-1) through DisturbanceSpec.rows, so a run the guard stops early has
drawn at most one block of rows it never reads; the plant's noise loops
over one reusable block of rows.
"""

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .graphs import WeightedDigraph

BLOCK = 4096   # values per Generator call: max(1, BLOCK // n) rows of n
COND_LIMIT = 1e12   # largest weight-matrix condition number InverseObserver takes

# disturbance generator -> draw(rng, w_star, sign, shape), its next values
_GENERATORS = {
    "zero": lambda rng, w_star, sign, shape: np.zeros(shape),
    "seeded_uniform": lambda rng, w_star, sign, shape: rng.uniform(
        -w_star, w_star, shape),
    "constant_sign": lambda rng, w_star, sign, shape: sign * rng.uniform(
        0.0, w_star, shape),
}


class SpanError(ValueError):
    """A parameter v drawn from as uniform(-v, v) whose span 2 * v exceeds
    the float range, so that numpy cannot draw; field names it."""

    def __init__(self, field: str, value: float):
        super().__init__(f"span 2 * {value!r} exceeds the float range")
        self.field = field


@dataclass(frozen=True)
class DisturbanceSpec:
    """Bounded per-step disturbance.

    generator, a name in _GENERATORS:
      * "zero": W identically zero (w_star may be 0 in this case only).
      * "seeded_uniform": iid uniform on [-w_star, w_star], seeded.
      * "constant_sign": uniform magnitude in [0, w_star] times `sign`.
    """

    w_star: float = 0.0
    generator: str = "zero"
    seed: int = 0
    sign: int = 1

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ValueError(f"unknown disturbance generator {self.generator!r}")
        if not math.isfinite(self.w_star) or self.w_star < 0:
            raise ValueError("w_star must be finite and nonnegative")
        if self.w_star == 0.0 and self.generator != "zero":
            raise ValueError("w_star must be positive for a nonzero generator")
        if self.generator == "seeded_uniform" and not math.isfinite(
                2.0 * self.w_star):
            raise SpanError("w_star", self.w_star)
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def rows(self, table: np.ndarray):
        """Fill table, an (H, n) array, with W(0..H-1) by _rows and yield
        each row W(t) once it is filled."""
        rng = np.random.default_rng(self.seed)
        gen = _GENERATORS[self.generator]
        return _rows(lambda shape: gen(rng, self.w_star, self.sign, shape),
                     table)


def _rows(fill, table: np.ndarray):
    """Fill table, an (H, n) array, with the next H * n values of a stream,
    max(1, BLOCK // n) rows per call of fill(shape), which returns the
    stream's next values in that shape, and yield each row once it is
    filled: a reader that stops early leaves at most one block of rows drawn
    past the last row it read."""
    k = max(1, BLOCK // table.shape[1])
    for t in range(0, len(table), k):
        block = table[t:t + k]
        block[...] = fill(block.shape)
        yield from block


@dataclass(frozen=True)
class ObservationSpec:
    """How z_i(t), the estimate of f(x_i(t)), is produced.

    mode "direct": z_i = f(x_i) + e_i with |e_i| <= d0 (seeded uniform).
    mode "matrix_inverse": Z = A^{-1} (X(t+1) - U(t)); needs invertible A
    and takes no noise, so a nonzero d0 is refused.
    """

    mode: str = "direct"
    d0: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("direct", "matrix_inverse"):
            raise ValueError(f"unknown observation mode {self.mode!r}")
        if not math.isfinite(self.d0) or self.d0 < 0:
            raise ValueError("d0 must be finite and nonnegative")
        if not math.isfinite(2.0 * self.d0):
            raise SpanError("d0", self.d0)
        if self.mode == "matrix_inverse" and self.d0 != 0.0:
            raise ValueError("d0 is for direct observation only; "
                             "matrix_inverse takes no noise")
        if self.noise_seed < 0:
            raise ValueError("noise_seed must be nonnegative")


@dataclass
class PlantModel:
    graph: WeightedDigraph
    f: object  # PlantFunction
    observation: ObservationSpec = field(default_factory=ObservationSpec)

    def __post_init__(self):
        obs = self.observation
        self._noise = None
        if obs.d0 > 0.0:
            # the noise rows: one block of rows, refilled in place for ever
            rng = np.random.default_rng(obs.noise_seed)
            d0, n = obs.d0, self.graph.n
            fill = lambda shape: rng.uniform(-d0, d0, shape)
            block = np.empty((max(1, BLOCK // n), n))
            self._noise = (row for b in repeat(block) for row in _rows(fill, b))
        # A^{-1} of the matrix-inverse channel, which advance multiplies by
        # under its caller's errstate, as InverseObserver.observe does under
        # its own
        self._inv = (InverseObserver(self.graph)._inv
                     if obs.mode == "matrix_inverse" else None)

    def advance(self, t: int, x: np.ndarray, u: np.ndarray, w: np.ndarray,
                x_next: np.ndarray, z: np.ndarray):
        """(X(t+1), Z(t)) from X(t), U(t) and W(t): step and observe_direct
        (or InverseObserver.observe) in one, with f(X(t)) evaluated once.
        x_next and z, float64 rows of shape (n,), take the two results in
        place and are returned. Unlike step and observe, it does not silence
        overflow itself: run_experiment enters one np.errstate for its whole
        loop, and a direct caller that may overflow enters its own."""
        fx = np.asarray(self.f(x), dtype=float)
        x_next = _next_state(self.graph.weights, fx, u, w, x_next)
        if self._inv is not None:
            return x_next, np.matmul(self._inv, x_next - u, z)
        if self._noise is None:
            return x_next, np.positive(fx, z)   # a copy of f(X(t))
        return x_next, np.add(fx, next(self._noise), z)


def step(model: PlantModel, x: np.ndarray, u: np.ndarray,
         w: np.ndarray) -> np.ndarray:
    """X(t+1) from X(t) = x under control u and disturbance w.

    Overflow is not an error here: non-finite states are the runner's guard
    problem, not a crash.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    n = model.graph.n
    if x.shape != (n,) or u.shape != (n,) or w.shape != (n,):
        raise ValueError(f"state/control/disturbance must have shape ({n},)")
    with np.errstate(over="ignore", invalid="ignore"):
        return _next_state(model.graph.weights,
                           np.asarray(model.f(x), dtype=float), u, w)


def _next_state(weights, fx, u, w, out=None):
    """A f(X) + U + W from fx = f(X), under its caller's errstate: the plant
    equation of step and both plants' advance. The next state goes into
    out when it is given; the sum runs in the order of weights @ fx + u + w,
    so the bits are the same either way."""
    x_next = np.matmul(weights, fx, out)
    x_next += u
    x_next += w
    return x_next


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
    """Matrix-inverse estimate channel with a one-time conditioning check.

    The weight matrix is inverted once (np.linalg.inv); error_gain is the
    inf-norm of that inverse, and each observe multiplies it by
    X(t+1) - U(t).
    """

    def __init__(self, graph: WeightedDigraph):
        a = graph.weights
        cond = np.linalg.cond(a)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ValueError(
                "weight matrix is singular or ill-conditioned "
                f"(cond={cond:.3e} > {COND_LIMIT:.1e}); use the direct "
                "observation mode instead (a least-squares variant is a "
                "documented extension point, not implemented)")
        self._inv = np.linalg.inv(a)
        self.error_gain = float(np.abs(self._inv).sum(axis=1).max())

    def observe(self, x_next: np.ndarray, u: np.ndarray) -> np.ndarray:
        """A^{-1} (X(t+1) - U(t)). Overflow is ignored as in step: a
        non-finite state gives a non-finite estimate for the guard to see."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._inv @ (np.asarray(x_next, float) - np.asarray(u, float))
