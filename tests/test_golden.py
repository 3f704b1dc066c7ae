"""Golden digests of the output files of short seeded runs.

Identical configs and seeds must give byte-identical trajectory.csv,
summary.json and certificate.json under one OpenBLAS kernel: OpenBLAS picks
its kernel by CPU (or OPENBLAS_CORETYPE), and a kernel that sums in another
order moves the bytes of network_flow_long and local_flow_positive_sign,
the two runs on the n = 5 random graph (under OPENBLAS_CORETYPE=Sandybridge,
for one). These digests pin the bytes for every law, both observation
modes, all three disturbance generators, a guard trip and an adversary run,
so that a change to the loop, the plant, the noise draws or the writer that
moves one bit fails here. Two runs are long enough that their disturbance
and observation noise span several thousand values.
"""

import hashlib
from pathlib import Path

import pytest

from netfeedback import ExperimentConfig, run_experiment, write_outputs

_BPL = {"kind": "bounded_perturbed_linear", "a": 0.8, "b": 0.1, "amplitude": 0.4}
_RANDOM5 = {"kind": "random_strongly_connected", "n": 5, "seed": 2,
            "weight_range": [0.1, 0.3]}

RUNS = {
    "zero_direct_noisy": {
        "graph": {"kind": "cycle", "n": 3},
        "function": {"kind": "linear", "a": 0.8, "b": 0.0},
        "controller": {"kind": "zero"},
        "observation": {"mode": "direct", "d0": 0.05, "noise_seed": 1},
        "disturbance": {"generator": "zero"},
        "horizon": 60, "x0": [0.4, -0.2, 0.1]},
    "network_flow_long": {
        "graph": _RANDOM5, "function": _BPL,
        "controller": {"kind": "network_flow", "epsilon": 0.05},
        "observation": {"mode": "direct", "d0": 0.02, "noise_seed": 3},
        "disturbance": {"w_star": 0.05, "generator": "seeded_uniform", "seed": 4},
        "horizon": 1000, "x0": {"seed": 5}},
    "path_root_negative_sign_long": {
        "graph": {"kind": "path_root_selfloop", "n": 4},
        "function": {"kind": "linear", "a": 0.9, "b": 0.0},
        "controller": {"kind": "path_root"},
        "observation": {"mode": "direct", "d0": 0.0},
        "disturbance": {"w_star": 0.1, "generator": "constant_sign", "seed": 6,
                        "sign": -1},
        "horizon": 1100, "x0": {"seed": 7, "scale": 2.0}},
    "cycle_global_inverse": {
        "graph": {"kind": "cycle", "n": 4}, "function": _BPL,
        "controller": {"kind": "cycle_global"},
        "observation": {"mode": "matrix_inverse"},
        "disturbance": {"w_star": 0.05, "generator": "seeded_uniform", "seed": 8},
        "horizon": 80, "x0": {"seed": 9}},
    "local_flow_positive_sign": {
        "graph": _RANDOM5, "function": _BPL,
        "controller": {"kind": "local_flow"},
        "observation": {"mode": "direct", "d0": 0.03, "noise_seed": 10},
        "disturbance": {"w_star": 0.04, "generator": "constant_sign", "seed": 11,
                        "sign": 1},
        "horizon": 80, "x0": {"seed": 12}},
    "max_enhanced_tabulated_inverse": {
        "graph": {"kind": "cycle", "n": 5},
        "function": {"kind": "tabulated", "xs": [-1.0, 0.0, 0.5, 1.0],
                     "ys": [-0.7, 0.1, 0.2, 0.9]},
        "controller": {"kind": "max_enhanced"},
        "observation": {"mode": "matrix_inverse"},
        "disturbance": {"generator": "zero"},
        "horizon": 80, "x0": {"seed": 13}},
    "guard_trip": {
        "graph": {"kind": "cycle", "n": 3},
        "function": {"kind": "linear", "a": 3.0, "b": 0.0},
        "controller": {"kind": "zero"},
        "observation": {"mode": "direct", "d0": 0.1, "noise_seed": 14},
        "disturbance": {"w_star": 0.2, "generator": "seeded_uniform", "seed": 15},
        "horizon": 100, "x0": [0.4, -0.2, 0.1], "guard_cap": 1e6},
    "adversary": {
        "graph": {"kind": "cycle", "n": 3}, "adversary": True,
        "controller": {"kind": "network_flow", "epsilon": 1e-3},
        "observation": {"mode": "direct", "d0": 0.0},
        "disturbance": {"generator": "zero"},
        "horizon": 40, "x0": [0.4, -0.2, 0.1]},
}

# sha256 of (trajectory.csv, summary.json, certificate.json or None)
DIGESTS = {
    "adversary": (
        "13853ee985ff0535f9a1f760cda56275a66a5f168092f94b223db81c66ce611a",
        "31e9cf088d23d507fdb3860336401f7ea399a7e6ead72b574092c5ec71b60b39",
        "2dfc0450a230846a20541cc1027c9d32bc1734410e29548d8f377090b635163a"),
    "cycle_global_inverse": (
        "b2e8bb903f3585900297e49511c5d16d2e7c47734727870a9fda9b0c3179cf10",
        "5002b6baace19f6316e14c2236c47df37f628435b2212ea31e4eab6c1b9a52c1",
        None),
    "guard_trip": (
        "76b37a9443aa8b0c94b834c2479227e1968efcf7f2473ac04f7ce942672078d3",
        "f7577d9688fc61502e99443074c8a486fb7e74c898e39b451b046afc6e9abaa2",
        None),
    "local_flow_positive_sign": (
        "969154e6aef5541ac164cdaa92c44134d7a6c2d034b501bb645d62b01cb0edb4",
        "5bc6546b491561ad1091cf65d24b8803b0a97f8ff707f7abdb79ee0fffb403ea",
        None),
    "max_enhanced_tabulated_inverse": (
        "a96a6128b87a3c2750ddc0a06b4a8c7dc1df6b3de0af331f5cb2772d403300d8",
        "b90dc2f7679e3ab8db501b583931aa440782e359684367ddf268d5801dbbc6c6",
        None),
    "network_flow_long": (
        "5637d1d549721b1da30027002e95571ef0a8657531eb55745caefd82af370df7",
        "df8cc6a284ac85c8b786850af886469e34c14ca069bd32209af2e114d64e3a11",
        None),
    "path_root_negative_sign_long": (
        "1f3e053d54e3dda9fad64582c7ec1a03a0439910d5249a6d6812fefccbd32728",
        "327bcf7c0989c205bfd0b3fb43c1b0dc92b0c369b42775614d2faeae4957d4d2",
        None),
    "zero_direct_noisy": (
        "446a9f4ca18a0854ced7ffd1ef9ff7c698252cda7908ae3852cde4e8c6e2f132",
        "1343e23e23afa578e32ee98da2f78d2d68aafef386218607b88863f91e0ff572",
        None),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_files_match_their_golden_digests(name, tmp_path):
    result = run_experiment(ExperimentConfig(RUNS[name]))
    paths = write_outputs(result, tmp_path)
    got = tuple(hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest()
                if key in paths else None
                for key in ("trajectory", "summary", "certificate"))
    assert got == DIGESTS[name]


def test_the_runs_cover_what_they_claim():
    seen = {(key, RUNS[name].get(section, {}).get(key))
            for name in RUNS
            for section, key in (("controller", "kind"), ("observation", "mode"),
                                 ("disturbance", "generator"))}
    kinds = {v for k, v in seen if k == "kind"}
    assert kinds == {"zero", "network_flow", "path_root", "cycle_global",
                     "local_flow", "max_enhanced"}
    assert {v for k, v in seen if k == "mode"} == {"direct", "matrix_inverse"}
    assert {v for k, v in seen if k == "generator"} == {
        "zero", "seeded_uniform", "constant_sign"}
    assert run_experiment(ExperimentConfig(RUNS["guard_trip"])).summary[
        "guard_tripped"]
