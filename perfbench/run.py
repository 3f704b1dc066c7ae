"""netfeedback benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload long_horizon --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; netfeedback is imported from its src/.
Every measurement happens in a fresh single-threaded child process (see
worker.py), one at a time. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced pass. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; a fuller record
goes to .perfbench_out/. See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, LAW_KINDS, UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("long_horizon", "wide_graph", "lab_batch")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many fresh processes' set-up times.
SETUP_SAMPLES = 5
# Every child must end by then, so that a run ends within 180 s.
DEADLINE_S = 170.0
# Timings are reported at the host speed on which probe.run() takes this long
# (about an idle 2-vCPU VM): each is scaled by PROBE_REFERENCE_S over the
# median time of the probes run beside it. Raw times stay in the result record.
PROBE_REFERENCE_S = 1.5e-3


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def machine() -> dict:
    """Where the numbers were measured."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": None, "caches": {},
            "threads": {var: "1" for var in THREAD_VARS}, "git_commit": git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def tally(passes: list) -> tuple:
    """(operations attempted, operations failed) over the passes."""
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def at_reference_speed(seconds: float, probe_s) -> float:
    return seconds * PROBE_REFERENCE_S / statistics.median(probe_s)


def scaled_op_times(one_pass: dict) -> dict:
    """A pass's operation times at the reference host speed, each scaled by
    the probes run just before and just after it."""
    probes, op_s = one_pass["probe_s"], one_pass["op_s"]
    k = len(probes) // len(op_s)
    return {op: at_reference_speed(t, probes[i * k:(i + 2) * k])
            for i, (op, t) in enumerate(op_s.items())}


def op_medians(passes: list) -> dict:
    """Each operation's median scaled time over the passes. Per-operation
    medians are moved less by a burst of host contention than the median of
    pass times."""
    scaled = [scaled_op_times(p) for p in passes]
    return {op: statistics.median(s[op] for s in scaled) for op in scaled[0]}


def end_to_end(measure: dict, setups: list, attempted: int, failed: int) -> dict:
    op_s = op_medians(measure["passes"])
    steps = measure["passes"][-1]["steps"]
    values = {
        "setup_s": statistics.median(at_reference_speed(s, [p]) for s, p in setups),
        "wall_s": sum(op_s.values()),
        "steps_per_s": sum(steps.values()) / sum(op_s[op] for op in steps),
        "peak_rss_mb": measure["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def t_ratios(op_s: dict) -> dict:
    """Per law, its run time at the longest horizon over that at the
    shortest; 0 when the workload runs that law at one horizon only."""
    out = {}
    for kind in LAW_KINDS:
        times = sorted((int(name.rpartition(".T")[2]), t) for name, t in op_s.items()
                       if name.startswith(kind + ".T"))
        out[f"runner.t_ratio.{kind}"] = times[-1][1] / times[0][1] if len(times) > 1 else 0.0
    return out


def per_layer(measure: dict, traced: dict) -> dict:
    op_s = op_medians(measure["passes"])
    values = dict(traced["metrics"])
    one = traced["pass"]
    values["ops.attempted"] = one["attempted"]
    values["ops.failed"] = one["failed"]
    traced_s = sum(scaled_op_times(one).values())
    values["trace.overhead_frac"] = traced_s / sum(op_s.values()) - 1.0
    values.update(t_ratios(op_s))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes and no reference digests (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "netfeedback" / "__init__.py").is_file():
        print(f"error: no netfeedback sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--tiny"] if args.tiny else []
    measure_args = common + ["--mode", "measure", "--seconds", str(args.seconds)]
    setups, traced = None, None
    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                one = run_worker(common + ["--mode", "setup"], deadline)
                setups.append((one["setup_s"], one["setup_probe_s"]))
            measure = run_worker(measure_args, deadline)
            setups.append((measure["setup_s"], measure["setup_probe_s"]))
            passes = measure["passes"] + [measure["warmup"]]
            metrics = end_to_end(measure, setups, *tally(passes))
        else:
            measure = run_worker(measure_args, deadline)
            traced = run_worker(common + ["--mode", "trace"], deadline)
            if traced["left_wrapped"]:
                raise BenchError(f"tracer left wrappers: {traced['left_wrapped']}")
            passes = measure["passes"] + [measure["warmup"], traced["pass"]]
            metrics = per_layer(measure, traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = tally(passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "machine": machine(), "versions": measure["versions"],
              "reference_seed": measure["reference_seed"], "result": result,
              "setup_samples": setups,
              "pass_wall_s": [p["wall_s"] for p in measure["passes"]],
              "op_s": [p["op_s"] for p in measure["passes"]],
              "probe_s": [p["probe_s"] for p in measure["passes"]],
              "records": measure["passes"][-1]["records"],
              "failures": [f for p in passes for f in p["failures"]][:50],
              "spans_file": traced["spans_file"] if traced else None}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:>12}  {name:<40} {m['value']!s:>22} {m['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
