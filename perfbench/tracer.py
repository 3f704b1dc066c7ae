"""Outside tracer for netfeedback.

The tracer replaces each public function at every netfeedback module
attribute bound to it, plus the methods listed in METHODS, with a wrapper that
records one span per call: name, start, end, parent span and operation id.
Spans stay in memory in flat arrays and are written out once at the end.
Counters are computed from call arguments and return values, so they repeat
exactly from run to run. uninstall() puts every original back.
"""

import os
import sys
import time
import types
from array import array

import numpy as np

from spec import (EVAL_SPANS, LAYERS, OBSERVE_SPANS, PER_LAYER,
                  RECURSION_SPANS)

PACKAGE = "netfeedback"
MARK = "__perfbench_original__"

# Methods wrapped on their classes, besides every public module function.
METHODS = (
    ("controllers", "Controller", "controls"),
    ("adversary", "OnlineAdversary", "step"),
    ("adversary", "PinnedPiecewiseLinear", "__init__"),
    ("flows", "FlowLog", "append"),
    ("flows", "LocalFlowView", "__init__"),
    ("dynamics", "InverseObserver", "observe"),
    ("functions", "LinearFunction", "__call__"),
    ("functions", "BoundedPerturbedLinear", "__call__"),
    ("functions", "TabulatedFunction", "__call__"),
    ("config", "ExperimentConfig", "__init__"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.names = []            # span name by id
        self._ids = {}
        self.installed = frozenset()   # span names found at install time
        self.op_names = []
        self._op = -1
        self._sid = array("q")
        self._parent = array("q")
        self._opid = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = []
        self.paused = False        # True while the benchmark checks outputs
        self._patched = []         # (owner, attribute, original)
        self.counts = dict.fromkeys(
            ("witness_queries", "candidates", "rounds", "view_bytes",
             "explore_steps", "steps_run", "guard_trips", "bytes_written",
             "recursion_steps", "bisection_iters", "sweep_disagreements"), 0)
        self._graphs = {}          # id -> graph, kept alive so ids stay unique
        self._pins = {}            # adversary id -> pin count after its last step
        self._hooks = {
            "controllers.global_witnesses": self._global_witnesses,
            "controllers.local_witness": self._local_witness,
            "controllers.enhanced_witness": self._enhanced_witness,
            "controllers.control_path_root": self._path_root,
            "controllers.control_cycle": self._cycle,
            "flows.run_extreme_consensus": self._consensus,
            "flows.LocalFlowView.__init__": self._view,
            "graphs.is_strongly_connected": self._connectivity,
            "adversary.OnlineAdversary.step": self._adversary_step,
            "capacity.simulate_scalar_recursion": self._recursion,
            "capacity.simulate_dagger_recursion": self._recursion,
            "capacity.estimate_dagger": self._dagger,
            "capacity.threshold_sweep": self._sweep,
            "runner.run_experiment": self._run,
            "runner.write_outputs": self._write,
        }

    # ---- counters computed from arguments and return values ----

    def _global_witnesses(self, args, kwargs, out):
        log, t = _arg(args, kwargs, 0, "log"), _arg(args, kwargs, 1, "t")
        self.counts["witness_queries"] += log.n
        self.counts["candidates"] += t * log.n * log.n

    def _local_witness(self, args, kwargs, out):
        view, t = _arg(args, kwargs, 0, "view"), _arg(args, kwargs, 2, "t")
        self.counts["witness_queries"] += 1
        self.counts["candidates"] += t * len(view.nodes)

    def _enhanced_witness(self, args, kwargs, out):
        view, t = _arg(args, kwargs, 0, "view"), _arg(args, kwargs, 2, "t")
        self.counts["witness_queries"] += 1
        self.counts["candidates"] += t * len(view.local.nodes) + 2 * t

    def _path_root(self, args, kwargs, out):
        t = _arg(args, kwargs, 1, "t")
        if t > 0:
            self.counts["witness_queries"] += 1
            self.counts["candidates"] += t

    def _cycle(self, args, kwargs, out):
        log, t = _arg(args, kwargs, 0, "log"), _arg(args, kwargs, 1, "t")
        if t > 0:
            self.counts["witness_queries"] += log.n
            self.counts["candidates"] += t * log.n

    def _consensus(self, args, kwargs, out):
        self.counts["rounds"] += out.rounds

    def _view(self, args, kwargs, out):
        view = args[0]
        self.counts["view_bytes"] += sum(v.nbytes for v in vars(view).values()
                                         if isinstance(v, np.ndarray))

    def _connectivity(self, args, kwargs, out):
        g = _arg(args, kwargs, 0, "g")
        self._graphs[id(g)] = g

    def _adversary_step(self, args, kwargs, out):
        adv = args[0]
        self._pins[id(adv)] = len(adv.function.pins)

    def _recursion(self, args, kwargs, out):
        self.counts["recursion_steps"] += out.steps

    def _dagger(self, args, kwargs, out):
        self.counts["bisection_iters"] += out.iterations

    def _sweep(self, args, kwargs, out):
        self.counts["sweep_disagreements"] += sum(
            1 for p in out["points"]
            if isinstance(p["verdict"], list) and len(set(p["verdict"])) > 1)

    def _run(self, args, kwargs, out):
        s = out.summary
        self.counts["explore_steps"] += s.get("explore_steps") or 0
        self.counts["steps_run"] += s["steps_run"]
        self.counts["guard_trips"] += int(bool(s["guard_tripped"]))

    def _write(self, args, kwargs, out):
        self.counts["bytes_written"] += sum(os.path.getsize(p) for p in out.values())

    # ---- spans ----

    def set_op(self, name: str):
        self.op_names.append(name)
        self._op = len(self.op_names) - 1

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        sid = self._span_id(name)
        hook = self._hooks.get(name)
        clock = time.perf_counter_ns
        stack, sids, parents, opids = self._stack, self._sid, self._parent, self._opid
        starts, ends = self._start, self._end
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(sids)
            sids.append(sid)
            parents.append(stack[-1] if stack else -1)
            opids.append(tracer._op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    def _patch(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap netfeedback's public functions and the METHODS; the package
        and every submodule it uses must already be imported."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(PACKAGE)):
                    continue
                if id(value) not in wrappers:
                    layer = value.__module__.rpartition(".")[2]
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__qualname__}")
                self._patch(mod, attr, wrappers[id(value)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            fn = vars(cls).get(method) if isinstance(cls, type) else None
            if isinstance(fn, types.FunctionType):
                self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}"))
        self.installed = frozenset(self.names)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- results ----

    def arrays(self) -> dict:
        """Copies of the span columns; the tracer may keep appending."""
        return {"span": np.array(self._sid, dtype=np.int64),
                "parent": np.array(self._parent, dtype=np.int64),
                "op": np.array(self._opid, dtype=np.int64),
                "start_ns": np.array(self._start, dtype=np.int64),
                "end_ns": np.array(self._end, dtype=np.int64)}

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), op_names=np.array(self.op_names),
                 **self.arrays())

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counters; None for a metric
        whose spans were not found. trace.overhead_frac, runner.t_ratio.* and
        ops.* need untraced timings or the benchmark's own checks and are
        filled in by the caller."""
        a = self.arrays()
        sid, parent = a["span"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = np.bincount(sid, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(sid, minlength=len(self.names))
        c = self.counts

        def count(*spans):
            return int(sum(calls[self._ids[s]] for s in spans if s in self._ids))

        def durations_us(span):
            if span not in self._ids:
                return np.zeros(0)
            return dur[sid == self._ids[span]] * 1e6

        def pct(span, q):
            d = durations_us(span)
            return float(np.percentile(d, q)) if d.size else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        v = {}
        for layer in LAYERS:
            v[f"{layer}.self_s"] = float(sum(
                own[i] for i, n in enumerate(self.names) if n.startswith(layer + ".")))
        v["controllers.decisions"] = count("controllers.Controller.controls")
        v["controllers.decide_us.p50"] = pct("controllers.Controller.controls", 50)
        v["controllers.decide_us.p99"] = pct("controllers.Controller.controls", 99)
        v["controllers.witness_queries"] = c["witness_queries"]
        v["controllers.candidates_scanned"] = c["candidates"]
        v["controllers.candidates_per_query"] = ratio(c["candidates"], c["witness_queries"])
        v["controllers.explore_steps"] = c["explore_steps"]
        calls_consensus = count("flows.run_extreme_consensus")
        v["flows.consensus_calls"] = calls_consensus
        v["flows.consensus_rounds"] = c["rounds"]
        v["flows.rounds_per_call"] = ratio(c["rounds"], calls_consensus)
        v["flows.view_builds"] = count("flows.LocalFlowView.__init__")
        v["flows.view_bytes_copied"] = c["view_bytes"]
        v["flows.log_appends"] = count("flows.FlowLog.append")
        checks = count("graphs.is_strongly_connected")
        v["graphs.connectivity_checks"] = checks
        v["graphs.connectivity_checks_per_graph"] = ratio(checks, len(self._graphs))
        v["dynamics.steps"] = count("dynamics.step")
        v["dynamics.observations"] = count(*OBSERVE_SPANS)
        v["functions.evals"] = count(*EVAL_SPANS)
        v["adversary.steps"] = count("adversary.OnlineAdversary.step")
        v["adversary.step_us.p50"] = pct("adversary.OnlineAdversary.step", 50)
        v["adversary.step_us.p99"] = pct("adversary.OnlineAdversary.step", 99)
        v["adversary.function_rebuilds"] = count("adversary.PinnedPiecewiseLinear.__init__")
        v["adversary.pins_final"] = sum(self._pins.values())
        v["capacity.recursions"] = count(*RECURSION_SPANS)
        v["capacity.recursion_steps"] = c["recursion_steps"]
        v["capacity.bisection_iters"] = c["bisection_iters"]
        v["runner.runs"] = count("runner.run_experiment")
        v["runner.steps_run"] = c["steps_run"]
        v["runner.guard_trips"] = c["guard_trips"]
        v["runner.write_s"] = float(durations_us("runner.write_outputs").sum() / 1e6)
        v["runner.bytes_written"] = c["bytes_written"]
        v["runner.sweep_trial_disagreements"] = c["sweep_disagreements"]
        v["config.builds"] = count("config.ExperimentConfig.__init__")
        v["cli.invocations"] = count("cli.main")
        v["trace.spans"] = int(sid.size)
        for name, _, _, sources in PER_LAYER:
            if name in v and not self._measured(sources):
                v[name] = None
        return v

    def _measured(self, sources: tuple) -> bool:
        """False when a span the metric is computed from was not found."""
        for src in sources:
            if src.startswith("layer:"):
                if not any(n.startswith(src[6:] + ".") for n in self.installed):
                    return False
            elif src not in self.installed:
                return False
        return True


def wrapped_attributes() -> list:
    """Every netfeedback module or class attribute still holding a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                found += [f"{name}.{attr}.{m}" for m, f in vars(value).items()
                          if hasattr(f, MARK)]
    return found
