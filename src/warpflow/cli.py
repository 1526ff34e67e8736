"""Command-line entry points.

  warpflow run CONFIG [CONFIG ...] [--out DIR] [--h H] [--t-end T] [--jobs N]
  warpflow twin CONFIG [--delta D] [--out DIR]
  warpflow check REPORT.json

CONFIG is a config file path or the name of a shipped scenario.  Exit codes:
0 success, 1 config error, 2 diagnostic check failure, 3 solver error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigParseError, WarpflowError
from .scenario import (_load_config, build_scenario, builtin_scenarios, check_report_file,
                       resolve_config, run_dir, run_scenario, twin_run, write_json)


def _named(name, fn, *args):
    """fn(*args), its ConfigParseError prefixed with the config's name."""
    try:
        return fn(*args)
    except ConfigParseError as exc:
        raise ConfigParseError(f"{name}: {exc}") from exc


def _run_one(args_tuple):
    name, flat, out_dir, overrides = args_tuple
    result = _named(name, run_scenario, flat, out_dir, overrides)
    rec = result.report.records
    summary = (f"{result.config.name}: steps={result.state.step_count} "
               f"E_g={rec[-1].e_g:.6g} events={len(result.report.events)} "
               f"exit={result.exit_code} -> {result.out_dir}")
    return result.exit_code, summary


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigParseError(f"--jobs must be at least 1, got {args.jobs}")
    overrides = {"mesh.h": args.h, "schedule.t_end": args.t_end}
    configs = []
    for name in args.config:        # every config parses before any runs
        flat = _named(name, resolve_config, name)
        configs.append((name, flat, _named(name, _load_config, flat, overrides)))
    names = [cfg.name for _, _, cfg in configs]
    if len(set(names)) < len(names):
        raise ConfigParseError(f"two runs named {max(names, key=names.count)!r}")
    several = len(configs) > 1
    if several:                     # a refusal that needs the mesh stops every run too
        for name, _, cfg in configs:
            _named(name, build_scenario, cfg)
    # one run writes to --out, several to --out/<name>; run_scenario places a run without it
    out = Path(args.out) if args.out else None
    jobs = [(name, flat, out / cfg.name if out and several else out, overrides)
            for name, flat, cfg in configs]

    def summarize(results):         # each summary as its run ends
        code = 0
        for rc, summary in results:
            print(summary, flush=True)
            code = max(code, rc)
        return code
    if args.jobs > 1 and several:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return summarize(pool.map(_run_one, jobs))
    return summarize(map(_run_one, jobs))


def _cmd_twin(args) -> int:
    flat = resolve_config(args.config)
    result = twin_run(flat, {"twin.delta": args.delta})
    out = run_dir(f"{flat['name']}_twin", args.out)
    write_json(asdict(result), out / "twin_report.json")
    print(f"delta={result.delta:.6g} initial={result.initial_diff:.6g} "
          f"sup={result.sup_diff:.6g} amplification={result.amplification:.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="warpflow",
        description="Harmonic map flow into warped-product Lorentzian targets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more scenarios")
    p_run.add_argument("config", nargs="+",
                       help=f"config path or shipped scenario: {', '.join(builtin_scenarios())}")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--h", type=float, default=None, help="override mesh size")
    p_run.add_argument("--t-end", type=float, default=None, help="override end time")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="run independent scenarios concurrently")

    p_twin = sub.add_parser("twin", help="perturbed twin run")
    p_twin.add_argument("config")
    p_twin.add_argument("--delta", type=float, default=None,
                        help="perturbation size (default: twin.delta from config)")
    p_twin.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="re-evaluate a stored report")
    p_check.add_argument("report")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "twin":
            return _cmd_twin(args)
        return check_report_file(args.report)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WarpflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
