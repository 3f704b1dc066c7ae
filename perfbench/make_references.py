"""Regenerate references.json: one digest per operation, workload and seed.

    python3 perfbench/make_references.py --seeds 0-19

Run it only at a commit whose outputs are known to be right: every later run
at these seeds is checked against the digests it writes. A seed at which any
operation fails its invariants is not recorded, and the script exits with 1.
"""

import argparse
import json
import sys
import time

from run import HERE, WORKLOADS, git_commit, run_worker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-19", help="first-last, inclusive")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    digests, bad = {}, 0
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in seeds:
            deadline = time.monotonic() + 600
            one = run_worker(["--mode", "digests", "--workload", workload,
                              "--seed", str(seed)], deadline)["pass"]
            if one["failed"]:
                bad += 1
                print(f"{workload} seed {seed}: not recorded", *one["failures"],
                      sep="\n  ", file=sys.stderr)
                continue
            digests[workload][str(seed)] = one["digests"]
            print(f"{workload} seed {seed}: {len(one['digests'])} digests, "
                  f"{one['wall_s']:.2f} s", file=sys.stderr)
    doc = {"commit": git_commit(), "digests": digests}
    (HERE / "references.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
