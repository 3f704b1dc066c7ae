"""The benchmark's metric table, shared by run.py (stdlib only) and tracer.py."""

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s",
              "peak_rss_mb": "MiB", "ok_frac": "ratio"}

LAYERS = ("controllers", "flows", "graphs", "dynamics", "functions", "adversary",
          "capacity", "runner", "config", "cli")
LAW_KINDS = ("network_flow", "local_flow", "max_enhanced", "cycle_global",
             "path_root")

WITNESS_SPANS = ("controllers.global_witnesses", "controllers.local_witness",
                 "controllers.enhanced_witness", "controllers.control_path_root",
                 "controllers.control_cycle")
OBSERVE_SPANS = ("dynamics.observe_direct", "dynamics.InverseObserver.observe")
EVAL_SPANS = ("functions.LinearFunction.__call__",
              "functions.BoundedPerturbedLinear.__call__",
              "functions.TabulatedFunction.__call__")
RECURSION_SPANS = ("capacity.simulate_scalar_recursion",
                   "capacity.simulate_dagger_recursion")

# (name, unit, better, spans the value is computed from). A metric whose
# spans were not found at install time is reported as unmeasured (None).
# "layer:<module>" stands for any span of that module.
PER_LAYER = [
    *[(f"{layer}.self_s", "s", "lower", (f"layer:{layer}",)) for layer in LAYERS],
    ("controllers.decisions", "count", "higher", ("controllers.Controller.controls",)),
    ("controllers.decide_us.p50", "us", "lower", ("controllers.Controller.controls",)),
    ("controllers.decide_us.p99", "us", "lower", ("controllers.Controller.controls",)),
    ("controllers.witness_queries", "count", "higher", WITNESS_SPANS),
    ("controllers.candidates_scanned", "count", "lower", WITNESS_SPANS),
    ("controllers.candidates_per_query", "count", "lower", WITNESS_SPANS),
    ("controllers.explore_steps", "count", "lower", ("runner.run_experiment",)),
    ("flows.consensus_calls", "count", "lower", ("flows.run_extreme_consensus",)),
    ("flows.consensus_rounds", "count", "lower", ("flows.run_extreme_consensus",)),
    ("flows.rounds_per_call", "count", "lower", ("flows.run_extreme_consensus",)),
    ("flows.view_builds", "count", "lower", ("flows.LocalFlowView.__init__",)),
    ("flows.view_bytes_copied", "bytes", "lower", ("flows.LocalFlowView.__init__",)),
    ("flows.log_appends", "count", "higher", ("flows.FlowLog.append",)),
    ("graphs.connectivity_checks", "count", "lower", ("graphs.is_strongly_connected",)),
    ("graphs.connectivity_checks_per_graph", "count", "lower",
     ("graphs.is_strongly_connected",)),
    ("dynamics.steps", "count", "higher", ("dynamics.step",)),
    ("dynamics.observations", "count", "higher", OBSERVE_SPANS),
    ("functions.evals", "count", "lower", EVAL_SPANS),
    ("adversary.steps", "count", "higher", ("adversary.OnlineAdversary.step",)),
    ("adversary.step_us.p50", "us", "lower", ("adversary.OnlineAdversary.step",)),
    ("adversary.step_us.p99", "us", "lower", ("adversary.OnlineAdversary.step",)),
    ("adversary.function_rebuilds", "count", "lower",
     ("adversary.PinnedPiecewiseLinear.__init__",)),
    ("adversary.pins_final", "count", "higher", ("adversary.OnlineAdversary.step",)),
    ("capacity.recursions", "count", "higher", RECURSION_SPANS),
    ("capacity.recursion_steps", "count", "higher", RECURSION_SPANS),
    ("capacity.bisection_iters", "count", "higher", ("capacity.estimate_dagger",)),
    ("runner.runs", "count", "higher", ("runner.run_experiment",)),
    ("runner.steps_run", "count", "higher", ("runner.run_experiment",)),
    ("runner.guard_trips", "count", "higher", ("runner.run_experiment",)),
    ("runner.write_s", "s", "lower", ("runner.write_outputs",)),
    ("runner.bytes_written", "bytes", "lower", ("runner.write_outputs",)),
    *[(f"runner.t_ratio.{kind}", "ratio", "lower", ("runner.run_experiment",))
      for kind in LAW_KINDS],
    ("runner.sweep_trial_disagreements", "count", "lower", ("capacity.threshold_sweep",)),
    ("config.builds", "count", "lower", ("config.ExperimentConfig.__init__",)),
    ("cli.invocations", "count", "higher", ("cli.main",)),
    ("ops.attempted", "count", "higher", ()),
    ("ops.failed", "count", "lower", ()),
    ("trace.overhead_frac", "ratio", "lower", ()),
    ("trace.spans", "count", "lower", ()),
]
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
# Every per-layer metric in these units is a count that repeats exactly from
# run to run; the others are timings.
COUNT_METRICS = tuple(n for n, u, _, _ in PER_LAYER if u in ("count", "bytes"))
