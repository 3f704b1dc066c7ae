"""Self-test of the benchmark: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402

WORKLOADS = run.WORKLOADS


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]}, doc)


def test_declared_metrics_match_the_code():
    e2e, layer, doc = declared()
    assert e2e == spec.END_TO_END
    assert layer == spec.UNITS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_prints_every_metric_with_its_unit(trace):
    e2e, layer, _ = declared()
    want = layer if trace else e2e
    for workload in WORKLOADS:
        out = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                              "--trace", str(trace), "--tiny"))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        assert {k: m["unit"] for k, m in out["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
        if trace:
            values = {k: m["value"] for k, m in out["metrics"].items()}
            if workload != "lab_batch":
                assert values["controllers.decisions"] > 0
            if workload == "wide_graph":
                assert values["flows.consensus_calls"] > 0
            if workload == "lab_batch":
                assert values["adversary.steps"] > 0
                assert values["capacity.recursions"] > 0
                assert values["runner.bytes_written"] > 0


def test_reference_digests_match_at_the_default_seed():
    with open(HERE / "references.json") as fh:
        refs = json.load(fh)["digests"]
    for workload in WORKLOADS:
        one = run.run_worker(["--mode", "digests", "--workload", workload, "--seed", "0"],
                             time.monotonic() + 120)["pass"]
        assert one["failed"] == 0, one["failures"]
        assert one["digests"] == refs[workload]["0"]


def test_per_layer_counts_repeat_exactly():
    for workload in WORKLOADS:
        a, b = (run.run_worker(["--mode", "trace", "--workload", workload, "--seed", "5",
                                "--tiny"], time.monotonic() + 120)["metrics"]
                for _ in range(2))
        counts = [n for n in spec.COUNT_METRICS if n in a]
        assert counts
        assert {n: a[n] for n in counts} == {n: b[n] for n in counts}


def test_no_netfeedback_attribute_is_left_wrapped(tmp_path):
    import netfeedback
    import netfeedback.cli  # noqa: F401
    import tracer
    import worker
    import workloads

    before = {(name, attr): value for name, mod in sys.modules.items()
              if name.startswith("netfeedback") for attr, value in vars(mod).items()}
    tr = tracer.Tracer()
    tr.install()
    assert tracer.wrapped_attributes()
    try:
        ops = workloads.build(netfeedback, "lab_batch", 1, "tiny", str(tmp_path))
        one = worker.run_pass(ops, None, tr)
    finally:
        tr.uninstall()
    assert one["failed"] == 0, one["failures"]
    assert tracer.wrapped_attributes() == []
    after = {(name, attr): value for name, mod in sys.modules.items()
             if name.startswith("netfeedback") for attr, value in vars(mod).items()}
    assert all(after[key] is value for key, value in before.items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lab_batch", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
