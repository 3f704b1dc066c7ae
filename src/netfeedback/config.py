"""Experiment configuration: one JSON document per run.

Every random choice is driven by a named seed in the config, so identical
config bytes give identical outputs. Node indices in configs and outputs are
1-based; everything internal is 0-based.
"""

import copy
import json
import math
from numbers import Integral, Real

import numpy as np

from .controllers import ControllerSpec
from .dynamics import DisturbanceSpec, ObservationSpec
from .functions import (BoundedPerturbedLinear, LinearFunction, PlantFunction,
                        TabulatedFunction)
from .graphs import (WeightedDigraph, build_canonical, is_strongly_connected,
                     random_strongly_connected, sharp_metric, sign_pattern)


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require(d: dict, field: str, ctx: str):
    if field not in d:
        raise ConfigError(f"{ctx}.{field}" if ctx else field, "missing required field")
    return d[field]


_KIND_NAMES = {Real: "a number", Integral: "an integer", int: "an integer",
               dict: "a JSON object"}


def _typed(d: dict, field: str, ctx: str, default, kind=Real):
    """d[field], or default when absent, if _checked passes it."""
    return _checked(d.get(field, default), f"{ctx}.{field}" if ctx else field,
                    kind)


def _checked(value, name: str, kind=Real):
    """value if it is of the kind; JSON true and false are not numbers, and
    a number must be finite as a float (NaN, Infinity and integers beyond
    the float range are refused)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(name, f"must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is Real:
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an integer beyond the float range
            raise ConfigError(name, "must be within the float range") from None
        if not finite:
            raise ConfigError(name, f"must be finite, got {value!r}")
    return value


def _numbers(value, name: str) -> np.ndarray:
    """value as a float array if it is a list whose entries _checked passes."""
    if not isinstance(value, list):
        raise ConfigError(name, f"must be a list of numbers, got {value!r}")
    return np.array([_checked(v, name) for v in value], dtype=float)


def read_json(path) -> dict:
    """The JSON object stored at path."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    return raw


def _build_graph(spec: dict) -> WeightedDigraph:
    kind = _require(spec, "kind", "graph")
    params = {k: v for k, v in spec.items() if k != "kind"}
    try:
        if kind == "random_strongly_connected":
            n = params.pop("n")
            seed = params.pop("seed")
            if "weight_range" in params:
                params["weight_range"] = tuple(params["weight_range"])
            return random_strongly_connected(n, seed, **params)
        if kind == "custom":
            return WeightedDigraph(np.asarray(params["weights"], dtype=float))
        for field in ("weight", "root_weight", "a11"):
            if field in params:
                _typed(params, field, "graph", None)
        return build_canonical(kind, **params)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("graph", str(exc)) from exc


def _build_function(spec: dict) -> PlantFunction:
    kind = _require(spec, "kind", "function")
    try:
        if kind == "linear":
            return LinearFunction(_typed(spec, "a", "function", 1.0),
                                  _typed(spec, "b", "function", 0.0))
        if kind == "bounded_perturbed_linear":
            return BoundedPerturbedLinear(
                _typed(spec, "a", "function", 1.0),
                _typed(spec, "b", "function", 0.0),
                _typed(spec, "amplitude", "function", 1.0))
        if kind == "tabulated":
            return TabulatedFunction(_numbers(spec.get("xs"), "function.xs"),
                                     _numbers(spec.get("ys"), "function.ys"))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("function", str(exc)) from exc
    raise ConfigError("function.kind", f"unknown kind {kind!r}")


class ExperimentConfig:
    """Validated cross-field view of one experiment JSON document."""

    def __init__(self, raw: dict):
        self.raw = copy.deepcopy(raw)
        self.label = raw.get("label", "")

        self.graph = _build_graph(_typed(raw, "graph", "", None, dict))
        n = self.graph.n

        self.adversary = raw.get("adversary", False)
        if not isinstance(self.adversary, bool):
            raise ConfigError("adversary", "must be true or false")
        if self.adversary:
            self.f = (_build_function(_typed(raw, "function", "", None, dict))
                      if "function" in raw else None)
            if sharp_metric(self.graph) <= 0:
                raise ConfigError("adversary", "graph has no arcs (sharp metric is 0)")
            if sign_pattern(self.graph) == "mixed":
                raise ConfigError("adversary", "graph weights must carry a uniform sign")
            if not is_strongly_connected(self.graph):
                raise ConfigError("adversary", "graph must be strongly connected")
        else:
            self.f = _build_function(_typed(raw, "function", "", None, dict))

        d = _typed(raw, "disturbance", "", {}, dict)
        w_star = _typed(d, "w_star", "disturbance", 0.0)
        seed = _typed(d, "seed", "disturbance", 0, Integral)
        sign = _typed(d, "sign", "disturbance", 1, Integral)
        try:
            self.disturbance = DisturbanceSpec(
                w_star=w_star, generator=d.get("generator", "zero"), seed=seed,
                sign=sign)
        except ValueError as exc:
            raise ConfigError("disturbance", str(exc)) from exc

        o = _typed(raw, "observation", "", {}, dict)
        d0 = _typed(o, "d0", "observation", 0.0)
        noise_seed = _typed(o, "noise_seed", "observation", 0, Integral)
        try:
            self.observation = ObservationSpec(
                mode=o.get("mode", "direct"), d0=d0, noise_seed=noise_seed)
        except ValueError as exc:
            raise ConfigError("observation", str(exc)) from exc

        c = _typed(raw, "controller", "", {"kind": "zero"}, dict)
        epsilon = _typed(c, "epsilon", "controller", 1e-3)
        try:
            self.controller = ControllerSpec(kind=c.get("kind", "zero"),
                                             epsilon=epsilon)
        except ValueError as exc:
            raise ConfigError("controller", str(exc)) from exc

        if self.controller.kind == "cycle_global" and \
                raw.get("graph", {}).get("kind") != "cycle":
            raise ConfigError("controller", "cycle_global requires a cycle graph")
        if self.controller.kind == "path_root" and \
                raw.get("graph", {}).get("kind") != "path_root_selfloop":
            raise ConfigError("controller",
                              "path_root requires a path_root_selfloop graph")

        self.horizon = _typed(raw, "horizon", "", 100, int)
        if self.horizon < 1:
            raise ConfigError("horizon", "must be an integer >= 1")

        x0 = _require(raw, "x0", "")
        if isinstance(x0, dict):
            seed = _typed(x0, "seed", "x0", None, Integral)
            scale = _typed(x0, "scale", "x0", 1.0)
            self.x0 = np.random.default_rng(seed).uniform(-scale, scale, n)
        else:
            self.x0 = _numbers(x0, "x0")
            if self.x0.shape != (n,):
                raise ConfigError("x0", f"needs {n} entries, got {self.x0.shape}")

        # adversary runs need room to record the full doubling horizon
        cap = raw.get("guard_cap")
        if cap is None:
            cap = 1e300 if self.adversary else 1e12
        elif _typed(raw, "guard_cap", "", None) <= 0:
            raise ConfigError("guard_cap", "must be a positive finite number")
        self.guard_cap = float(cap)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls(read_json(path))

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    def with_gain(self, L: float, seed_offset: int = 0) -> "ExperimentConfig":
        """Copy of this config with the function slope set to L; for sweeps
        with trials > 1 the seeds shift so trials differ."""
        raw = copy.deepcopy(self.raw)
        fn = raw.get("function")
        if fn is not None:
            if fn.get("kind") not in ("linear", "bounded_perturbed_linear"):
                raise ConfigError("function", "gain sweep needs a parametric slope")
            fn["a"] = float(L)
        elif not self.adversary:
            raise ConfigError("function", "gain sweep needs a function spec")
        if seed_offset:
            d = raw.setdefault("disturbance", {})
            d["seed"] = d.get("seed", 0) + seed_offset
            o = raw.setdefault("observation", {})
            o["noise_seed"] = o.get("noise_seed", 0) + seed_offset
            if isinstance(raw.get("x0"), dict):
                raw["x0"]["seed"] = raw["x0"].get("seed", 0) + seed_offset
        return ExperimentConfig(raw)
