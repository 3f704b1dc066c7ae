"""Command line front end.

Subcommands: simulate (closed-loop run from a config), adversary (same run
with the adversarially constructed plant function), capacity (critical-gain
utilities), sweep (gain grid over a base config). Results print as
deterministic JSON; --out additionally writes the trajectory/summary files.

Exit codes: 0 done, 2 bad input or config (a horizon too large to allocate
included), 3 internal invariant violation.
"""

import argparse
import itertools
import json
import math
import os
import sys

from .adversary import InvariantError
from .capacity import (estimate_dagger, simulate_scalar_recursion,
                       threshold_sweep, xie_guo_constant)
from .config import ConfigError, ExperimentConfig, read_json
from .graphs import WeightedDigraph, build_canonical
from .runner import _write_json, run_experiment, write_outputs

MAX_GRID_POINTS = 100_000   # largest start:stop:step grid a sweep accepts


def _parse_graph(spec: str) -> WeightedDigraph:
    """kind:N (cycle, path_root_selfloop) or single_selfloop[:weight]."""
    kind, _, arg = spec.partition(":")
    if kind == "single_selfloop":
        return build_canonical(kind, 1, a11=float(arg) if arg else 1.0)
    return build_canonical(kind, int(arg))


def _parse_grid(spec: str) -> list:
    """Either comma-separated values or start:stop:step (stop inclusive)."""
    if "," in spec or ":" not in spec:
        return [float(v) for v in spec.split(",") if v]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec {spec!r} needs start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid spec {spec!r} needs finite start, stop and step")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if (stop + 1e-12 - start) / step >= MAX_GRID_POINTS:   # points: floor(this) + 1
        raise ValueError(f"grid spec {spec!r} has over {MAX_GRID_POINTS} points")
    return list(itertools.takewhile(lambda v: v <= stop + 1e-12,
                                    (start + k * step for k in itertools.count())))


def _parse_bracket(spec: str) -> tuple:
    lo, _, hi = spec.partition(":")
    return float(lo), float(hi)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_config(args) -> ExperimentConfig:
    # overrides are applied to the raw document before any validation, so the
    # adversary subcommand accepts configs that omit the plant function
    raw_cfg = read_json(args.config)
    if args.horizon is not None:
        raw_cfg["horizon"] = args.horizon
    if args.seed is not None:
        raw_cfg.setdefault("disturbance", {})["seed"] = args.seed
    if args.force_adversary:
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
    if args.xie_guo + args.dagger + args.scalar_recursion != 1:
        raise ValueError("choose exactly one of --xie-guo, --dagger, --scalar-recursion")
    # the library's default horizon unless --horizon is given
    horizon = {} if args.horizon is None else {"T": args.horizon}
    if args.xie_guo:
        value, minimizer = xie_guo_constant()
        _emit({"value": value, "minimizer": minimizer})
    elif args.dagger:
        if not args.graph:
            raise ValueError("--dagger needs --graph")
        g = _parse_graph(args.graph)
        bracket = _parse_bracket(args.bracket) if args.bracket else None
        _emit(estimate_dagger(g, bracket=bracket, **horizon).to_dict())
    else:
        if args.M is None:
            raise ValueError("--scalar-recursion needs --M")
        res = simulate_scalar_recursion(args.M, omega=args.omega, rho=args.rho,
                                        mode=args.mode, seed=args.seed, **horizon)
        _emit(res.to_dict())
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    grid = _parse_grid(args.L)
    report = threshold_sweep(cfg, grid, trials=args.trials)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "sweep.json"), report)
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netfeedback",
        description="Closed-loop network simulation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_, func, force_adversary in (
            ("simulate", "run one experiment config", _cmd_simulate, False),
            ("adversary", "run a config against the adversarial plant",
             _cmd_simulate, True),
            ("sweep", "gain grid over a base config", _cmd_sweep, False)):
        run = sub.add_parser(name, help=help_)
        run.add_argument("--config", required=True)
        run.add_argument("--out", default=None, help="directory for CSV/JSON outputs")
        run.add_argument("--horizon", type=int, default=None)
        run.add_argument("--seed", type=int, default=None,
                         help="override the disturbance seed")
        run.set_defaults(func=func, force_adversary=force_adversary)
        if name == "sweep":
            run.add_argument("--L", required=True,
                             help="grid: start:stop:step or a,b,c")
            run.add_argument("--trials", type=int, default=1)

    cap = sub.add_parser("capacity", help="critical-gain utilities")
    cap.add_argument("--xie-guo", action="store_true", dest="xie_guo")
    cap.add_argument(
        "--dagger", action="store_true",
        help="bisect for the summability threshold of the full-sum coupled "
             "recursion, which is not the capacity: it reads 3.973 on "
             "cycle:5, above (3/2+sqrt 2)/inf_norm = 2.914, yet local_flow "
             "diverges there at slope 2.0")
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
    cap.add_argument("--seed", type=int, default=0)
    cap.set_defaults(func=_cmd_capacity)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
