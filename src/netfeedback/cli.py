"""Command line front end.

Subcommands: simulate (closed-loop run from a config), adversary (same run
with the adversarially constructed plant function), capacity (critical-gain
utilities), sweep (gain grid over a base config). Results print as
deterministic JSON; --out additionally writes the trajectory/summary files.

Exit codes: 0 done, 2 bad input or config, 3 internal invariant violation.
"""

import argparse
import json
import sys

from .adversary import InvariantError
from .capacity import (estimate_dagger, simulate_scalar_recursion,
                       threshold_sweep, xie_guo_constant)
from .config import ConfigError, ExperimentConfig, read_json
from .graphs import WeightedDigraph, build_canonical
from .runner import run_experiment, write_outputs


def _parse_graph(spec: str) -> WeightedDigraph:
    kind, _, arg = spec.partition(":")
    if kind == "cycle":
        return build_canonical("cycle", int(arg))
    if kind == "path_root_selfloop":
        return build_canonical("path_root_selfloop", int(arg))
    if kind == "single_selfloop":
        return build_canonical("single_selfloop", 1, a11=float(arg) if arg else 1.0)
    raise ValueError(f"unknown graph spec {spec!r}; expected kind:arg like cycle:5")


def _parse_grid(spec: str) -> list:
    """Either comma-separated values or start:stop:step (stop inclusive)."""
    if "," in spec or ":" not in spec:
        return [float(v) for v in spec.split(",") if v]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec {spec!r} needs start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    vals = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        vals.append(v)
        k += 1
    return vals


def _parse_bracket(spec: str) -> tuple:
    lo, _, hi = spec.partition(":")
    return float(lo), float(hi)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_config(args) -> ExperimentConfig:
    # overrides are applied to the raw document before any validation, so the
    # adversary subcommand accepts configs that omit the plant function
    raw_cfg = read_json(args.config)
    if getattr(args, "horizon", None) is not None:
        raw_cfg["horizon"] = args.horizon
    if getattr(args, "seed", None) is not None:
        raw_cfg.setdefault("disturbance", {})["seed"] = args.seed
    if getattr(args, "force_adversary", False):
        raw_cfg["adversary"] = True
    return ExperimentConfig(raw_cfg)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg)
    if args.out:
        write_outputs(result, args.out)
    summary = dict(result.summary)
    if result.certificate is not None:
        summary["certificate_detail"] = result.certificate.to_dict()
    _emit(summary)
    return 0


def _cmd_capacity(args) -> int:
    if args.xie_guo:
        value, minimizer = xie_guo_constant()
        _emit({"value": value, "minimizer": minimizer})
        return 0
    if args.dagger:
        if not args.graph:
            raise ValueError("--dagger needs --graph")
        g = _parse_graph(args.graph)
        bracket = _parse_bracket(args.bracket) if args.bracket else None
        est = estimate_dagger(g, bracket=bracket, T=args.horizon or 400)
        _emit(est.to_dict())
        return 0
    if args.scalar_recursion:
        if args.M is None:
            raise ValueError("--scalar-recursion needs --M")
        res = simulate_scalar_recursion(
            args.M, omega=args.omega, rho=args.rho, mode=args.mode,
            T=args.horizon or 100_000, seed=args.seed or 0)
        _emit(res.to_dict())
        return 0
    raise ValueError("choose one of --xie-guo, --dagger, --scalar-recursion")


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    grid = _parse_grid(args.L)
    report = threshold_sweep(cfg, grid, trials=args.trials)
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netfeedback",
        description="Closed-loop network simulation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="directory for CSV/JSON outputs")
    sim.add_argument("--horizon", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None,
                     help="override the disturbance seed")
    sim.set_defaults(func=_cmd_simulate, force_adversary=False)

    adv = sub.add_parser("adversary",
                         help="run a config against the adversarial plant")
    adv.add_argument("--config", required=True)
    adv.add_argument("--out", default=None)
    adv.add_argument("--horizon", type=int, default=None)
    adv.add_argument("--seed", type=int, default=None)
    adv.set_defaults(func=_cmd_simulate, force_adversary=True)

    cap = sub.add_parser("capacity", help="critical-gain utilities")
    cap.add_argument("--xie-guo", action="store_true", dest="xie_guo")
    cap.add_argument("--dagger", action="store_true")
    cap.add_argument("--scalar-recursion", action="store_true",
                     dest="scalar_recursion")
    cap.add_argument("--graph", default=None, help="graph spec, e.g. cycle:5")
    cap.add_argument("--bracket", default=None, help="lo:hi bisection bracket")
    cap.add_argument("--horizon", type=int, default=None)
    cap.add_argument("--M", type=float, default=None)
    cap.add_argument("--omega", type=float, default=1.0)
    cap.add_argument("--rho", type=float, default=1.0)
    cap.add_argument("--mode", default="equality",
                     choices=("equality", "seeded_slack"))
    cap.add_argument("--seed", type=int, default=None)
    cap.set_defaults(func=_cmd_capacity)

    sw = sub.add_parser("sweep", help="gain grid over a base config")
    sw.add_argument("--config", required=True)
    sw.add_argument("--L", required=True, help="grid: start:stop:step or a,b,c")
    sw.add_argument("--trials", type=int, default=1)
    sw.add_argument("--out", default=None)
    sw.add_argument("--horizon", type=int, default=None)
    sw.add_argument("--seed", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep, force_adversary=False)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
