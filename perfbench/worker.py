"""One benchmark process; run.py starts it and reads its last stdout line.

Modes:
  setup    import netfeedback and build the workload, print the set-up time
  measure  set up, run a tiny warm-up pass, then full passes for --seconds
  trace    set up and run one full pass with the outside tracer installed
  digests  set up and run one full pass, print each operation's digest
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The median of fewer passes than this is too easily moved by one slow pass.
MIN_PASSES = 3
# Host-speed probes run before every operation (see probe.py).
PROBES_PER_OP = 3


def import_program(root: Path):
    """Import netfeedback from root/src and nowhere else."""
    src = root / "src"
    try:
        import netfeedback
        import netfeedback.cli  # noqa: F401  (the lab_batch workload calls it)
    except ImportError as exc:
        sys.exit(f"error: cannot import netfeedback from {src}: {exc}")
    if Path(netfeedback.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: netfeedback imported from {netfeedback.__file__}, not {src}")
    return netfeedback


def run_pass(ops, refs: dict | None, tracer=None) -> dict:
    """Run every operation once, timing the call alone, then check its output.
    The host's speed is probed before each operation. refs maps an operation
    to its reference digest at this seed, if shipped."""
    import probe
    out = {"op_s": {}, "wall_s": 0.0, "steps": {}, "attempted": 0, "failed": 0,
           "failures": [], "records": {}, "digests": {}, "probe_s": []}
    for op in ops:
        out["probe_s"] += [probe.run() for _ in range(PROBES_PER_OP)]
        out["attempted"] += 1
        if tracer is not None:
            tracer.set_op(op.name)
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception:  # an operation that raises counts as failed
            result, error = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        out["op_s"][op.name] = dt
        out["wall_s"] += dt
        if error is not None:
            out["failed"] += 1
            out["failures"].append(f"{op.name}: {error}")
            continue
        if tracer is not None:
            tracer.paused = True
        try:
            outcome = op.check(result)
        except Exception:  # so does one whose output cannot be checked
            out["failed"] += 1
            out["failures"].append(f"{op.name}: check raised "
                                   f"{traceback.format_exc(limit=3)}")
            continue
        finally:
            if tracer is not None:
                tracer.paused = False
        problems = list(outcome.problems)
        if refs is not None and refs.get(op.name) != outcome.digest:
            problems.append(f"digest {outcome.digest} != reference {refs.get(op.name)}")
        if problems:
            out["failed"] += 1
            out["failures"].append(f"{op.name}: {'; '.join(problems)}")
        out["records"][op.name] = outcome.record
        out["digests"][op.name] = outcome.digest
        if op.closed_loop:
            out["steps"][op.name] = outcome.steps
    return out


def references(workload: str, seed: int) -> dict | None:
    with open(HERE / "references.json") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "digests"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    root = HERE.parent
    nf = import_program(root)
    import numpy
    import scipy
    import probe
    import workloads
    import tracer as tracing

    scale = "tiny" if args.tiny else "full"
    work = root / ".perfbench_out" / f"work-{args.workload}-{os.getpid()}"
    tr = None
    if args.mode == "trace":
        tr = tracing.Tracer()
        tr.install()
        tr.set_op("setup")
    try:
        ops = workloads.build(nf, args.workload, args.seed, scale, str(work / "main"))
        setup_s = time.perf_counter() - t0
        setup_probe_s = statistics.median(probe.run() for _ in range(5))
        refs = None if args.tiny else references(args.workload, args.seed)
        if args.mode == "setup":
            result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
        elif args.mode == "measure":
            warm = workloads.build(nf, args.workload, args.seed, "tiny", str(work / "warm"))
            warm_pass = run_pass(warm, None)
            passes = []
            start = time.perf_counter()
            while (len(passes) < MIN_PASSES
                   or time.perf_counter() - start < args.seconds):
                passes.append(run_pass(ops, refs))
            result = {
                "setup_s": setup_s, "setup_probe_s": setup_probe_s,
                "passes": passes, "warmup": warm_pass,
                "reference_seed": refs is not None,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                             "scipy": scipy.__version__},
            }
        elif args.mode == "trace":
            one = run_pass(ops, refs, tr)
            tr.uninstall()
            metrics = tr.metrics()
            spans = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            tr.save(str(spans))
            result = {"pass": one, "metrics": metrics, "spans_file": str(spans),
                      "left_wrapped": tracing.wrapped_attributes()}
        else:
            result = {"pass": run_pass(ops, None)}
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
