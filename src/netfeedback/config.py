"""Experiment configuration: one JSON document per run.

Every random choice is driven by a named seed in the config, so identical
config bytes give identical outputs. Node indices in configs and outputs are
1-based; everything internal is 0-based.
"""

import copy
import inspect
import json
import math
from functools import partial
from numbers import Integral, Real

import numpy as np

from .adversary import check_adversary_graph, guard_cap_bound
from .controllers import ControllerSpec
from .dynamics import DisturbanceSpec, ObservationSpec, SpanError
from .functions import BoundedPerturbedLinear, LinearFunction, TabulatedFunction
from .graphs import (WeightedDigraph, build_canonical, is_strongly_connected,
                     random_strongly_connected)


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require(d: dict, field: str, ctx: str):
    if field not in d:
        raise ConfigError(f"{ctx}.{field}" if ctx else field, "missing required field")
    return d[field]


# section ("" is the top level) -> field -> kind, where [k] is a list of k. A
# field named after a section holds a JSON object of that section's fields;
# x0 holds either that or a list of numbers.
_FIELDS = {
    "": {"label": str, "graph": dict, "function": dict, "controller": dict,
         "observation": dict, "disturbance": dict, "horizon": int,
         "x0": [Real], "adversary": bool, "guard_cap": Real},
    "graph": {"kind": str, "n": Integral, "weight": Real, "root_weight": Real,
              "a11": Real, "weights": [[Real]], "seed": Integral,
              "extra_arc_prob": Real, "weight_range": [Real],
              "allow_negative": bool, "self_arc_prob": Real},
    "function": {"kind": str, "a": Real, "b": Real, "amplitude": Real,
                 "xs": [Real], "ys": [Real]},
    "controller": {"kind": str, "epsilon": Real},
    "observation": {"mode": str, "d0": Real, "noise_seed": Integral},
    "disturbance": {"w_star": Real, "generator": str, "seed": Integral,
                    "sign": Integral},
    "x0": {"seed": Integral, "scale": Real},
}

# fields drawn as uniform(-value, value) here: the span 2 * value must be a
# float (the specs check their own, raising SpanError)
_SPANS = {"x0.scale"}

_KIND_NAMES = {Real: "a number", Integral: "an integer", int: "an integer",
               dict: "a JSON object", str: "a string", bool: "true or false"}

# kind -> constructor of the graph and function sections
_GRAPHS = {"random_strongly_connected": random_strongly_connected,
           "custom": WeightedDigraph,
           **{kind: partial(build_canonical, kind)
              for kind in ("cycle", "path_root_selfloop", "single_selfloop")}}
_FUNCTIONS = {"linear": partial(LinearFunction, a=1.0),
              "bounded_perturbed_linear": partial(BoundedPerturbedLinear, a=1.0),
              "tabulated": TabulatedFunction}

# law -> (what it needs of the graph, test of the graph section and graph)
_LAW_GRAPHS = {
    "cycle_global": ("a cycle graph", lambda spec, g: spec["kind"] == "cycle"),
    "path_root": ("a path_root_selfloop graph",
                  lambda spec, g: spec["kind"] == "path_root_selfloop"),
    "max_enhanced": ("a strongly connected graph",
                     lambda spec, g: is_strongly_connected(g)),
}


def _typed(d: dict, section: str = "") -> dict:
    """d, each field passed by _checked as its kind in _FIELDS[section]; a
    JSON object in a field that is also a section is walked the same way.
    A field the section does not list is an error."""
    kinds = _FIELDS[section]
    typed = {}
    for field, value in d.items():
        name = f"{section}.{field}" if section else field
        if field not in kinds:
            raise ConfigError(name, "unknown field")
        typed[field] = (_typed(value, field)
                        if field in _FIELDS and isinstance(value, dict)
                        else _checked(value, name, kinds[field]))
    return typed


def _checked(value, name: str, kind=Real):
    """value if it is of the kind ([k]: a list of k); JSON true and false
    are only of kind bool, and a number must be finite as a float (NaN,
    Infinity and integers beyond the float range are refused), as must
    twice a number named in _SPANS."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(name, f"must be a list, got {value!r}")
        return [_checked(v, name, kind[0]) for v in value]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(name, f"must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is Real:
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an integer beyond the float range
            raise ConfigError(name, "must be within the float range") from None
        if not finite:
            raise ConfigError(name, f"must be finite, got {value!r}")
        if name in _SPANS and not math.isfinite(2.0 * value):
            raise ConfigError(name, f"span 2 * {value!r} exceeds the float range")
    return value


def _built(section: str, make, params: dict):
    """make(**params), its TypeError or ValueError raised as a ConfigError
    of section, or of the first parameter without default that params
    lacks, named as a missing field; a SpanError names its field."""
    try:
        return make(**params)
    except SpanError as exc:
        raise ConfigError(f"{section}.{exc.field}", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        missing = [p.name for p in inspect.signature(make).parameters.values()
                   if p.default is p.empty and p.name not in params
                   and p.kind is p.POSITIONAL_OR_KEYWORD]
        if missing:
            raise ConfigError(f"{section}.{missing[0]}",
                              "missing required field") from exc
        raise ConfigError(section, str(exc)) from exc


def _kinded(section: str, kinds: dict, spec: dict):
    """What kinds[spec["kind"]] builds from spec's other fields."""
    kind = _require(spec, "kind", section)
    if kind not in kinds:
        raise ConfigError(f"{section}.kind", f"unknown kind {kind!r}")
    return _built(section, kinds[kind],
                  {k: v for k, v in spec.items() if k != "kind"})


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


class ExperimentConfig:
    """Validated cross-field view of one experiment JSON document."""

    def __init__(self, raw: dict):
        self.raw = copy.deepcopy(raw)
        c = _typed(raw)
        self.label = c.get("label", "")

        spec = _require(c, "graph", "")
        self.graph = g = _kinded("graph", _GRAPHS, spec)
        n = g.n

        self.adversary = c.get("adversary", False)
        self.f = (_kinded("function", _FUNCTIONS, _require(c, "function", ""))
                  if "function" in c or not self.adversary else None)
        if self.adversary:
            _built("adversary", check_adversary_graph, {"graph": g})

        self.disturbance = _built("disturbance", DisturbanceSpec,
                                  c.get("disturbance", {}))
        self.observation = _built("observation", ObservationSpec,
                                  c.get("observation", {}))
        self.controller = _built("controller", ControllerSpec,
                                 {"kind": "zero", **c.get("controller", {})})
        kind = self.controller.kind
        if kind in _LAW_GRAPHS:
            need, holds = _LAW_GRAPHS[kind]
            if not holds(spec, g):
                raise ConfigError("controller", f"{kind} requires {need}")

        self.horizon = c.get("horizon", 100)
        if self.horizon < 1:
            raise ConfigError("horizon", "must be an integer >= 1")

        x0 = _require(c, "x0", "")
        if isinstance(x0, dict):
            self.x0 = _built("x0", lambda seed, scale=1.0:
                             np.random.default_rng(seed).uniform(-scale, scale, n), x0)
        else:
            self.x0 = np.array(x0, dtype=float)
            if self.x0.shape != (n,):
                raise ConfigError("x0", f"needs {n} entries, got {self.x0.shape}")

        # adversary runs need room to record the full doubling horizon, but
        # no more than keeps their pins finite
        cap_bound = guard_cap_bound(g) if self.adversary else math.inf
        self.guard_cap = float(c.get("guard_cap",
                                     min(1e300, cap_bound) if self.adversary
                                     else 1e12))
        if self.guard_cap <= 0:
            raise ConfigError("guard_cap", "must be a positive finite number")
        if self.guard_cap > cap_bound:
            raise ConfigError("guard_cap", f"an adversary run on this graph needs"
                              f" a cap <= float max / (4 B) = {cap_bound:.6g}")
        if self.adversary and not np.all(np.abs(self.x0) <= self.guard_cap):
            raise ConfigError("x0", "an adversary run needs X(0) within"
                              " +-guard_cap")

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
        if seed_offset:
            d = raw.setdefault("disturbance", {})
            d["seed"] = d.get("seed", 0) + seed_offset
            o = raw.setdefault("observation", {})
            o["noise_seed"] = o.get("noise_seed", 0) + seed_offset
            if isinstance(raw.get("x0"), dict):
                raw["x0"]["seed"] = raw["x0"].get("seed", 0) + seed_offset
        return ExperimentConfig(raw)
