"""Output ledger: fingerprints of what warpflow's reference runs write.

    python3 tools/ledger.py [--out OUTPUTS.json]
    python3 tools/ledger.py --diff OLD.json NEW.json

The first form runs, with the `src/` of the checkout this file lives in,
every shipped scenario (`scenario.builtin_scenarios()`, six today),
`warp_coupled` at mesh.h = 1/128 and `twin_run("stability_twin")` at seeds
0 and 1601, and writes one JSON with, per run:

* the SHA-256 of `series.csv`, `mesh.txt` and `report.json`, the last with
  `solver_stats.wall_seconds` removed (the one value that reads the clock);
* every `solver_stats` entry but `wall_seconds` (nested keys joined by a
  dot), the exit code and the event count;
* the minimum and maximum of each `series.csv` column;
* for a twin run, the SHA-256 of its `times` and of its `diffs` as float64
  bytes, and the `solver_stats` of the context both members share;

and the machine it ran on (CPU, Python, numpy and scipy versions).  numpy's
SIMD paths differ between CPUs, so two ledgers compare bit for bit only
when they were written on one machine.

`--diff` lists every hash, count, exit code or event count that differs
between two ledgers, and the largest relative change of each run's
`series.csv` columns (|new - old| over the larger magnitude, of the minimum
and of the maximum); it exits 1 if any hash or count differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent

FINE_H = 0.0078125
TWIN_SEEDS = (0, 1601)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flat(stats: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in stats.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        elif prefix + key != "wall_seconds":
            out[prefix + key] = value
    return out


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def scenario_entry(out: Path, result) -> dict:
    """The ledger entry of one scenario run whose artifacts are in `out`."""
    payload = json.loads((out / "report.json").read_text())
    del payload["solver_stats"]["wall_seconds"]
    report = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    with open(out / "series.csv", newline="") as f:
        rows = list(csv.reader(f))
    columns = {name: [min(float(r[j]) for r in rows[1:]), max(float(r[j]) for r in rows[1:])]
               for j, name in enumerate(rows[0])}
    return {"sha256": {"series.csv": _sha256((out / "series.csv").read_bytes()),
                       "mesh.txt": _sha256((out / "mesh.txt").read_bytes()),
                       "report.json": _sha256(report)},
            "solver_stats": _flat(result.report.solver_stats),
            "exit_code": result.exit_code, "events": len(result.report.events),
            "columns": columns}


def twin_entry(scenario, seed: int) -> dict:
    """The ledger entry of `twin_run("stability_twin")` at `seed`."""
    twin = scenario.twin_run("stability_twin", overrides={"seed": str(seed)})
    return {"sha256": {key: _sha256(np.asarray(getattr(twin, key), dtype=np.float64).tobytes())
                       for key in ("times", "diffs")},
            "solver_stats": _flat(twin.solver_stats), "steps": len(twin.times) - 1}


def build_ledger() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from warpflow import scenario

    runs = {}
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        jobs = [(name, name, None) for name in scenario.builtin_scenarios()]
        jobs.append(("warp_coupled_h128", "warp_coupled", FINE_H))
        for key, name, h in jobs:
            out = Path(tmp) / key
            runs[key] = scenario_entry(out, scenario.run_scenario(
                name, out_dir=out, overrides={"mesh.h": h}))
    for seed in TWIN_SEEDS:
        runs[f"stability_twin_seed{seed}"] = twin_entry(scenario, seed)
    machine = {"cpu": _cpu(), "python": platform.python_version(),
               "numpy": np.__version__, "scipy": scipy.__version__}
    return {"machine": machine, "runs": runs}


def _rel(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def diff_ledgers(old: dict, new: dict) -> tuple:
    """(lines, differs): every hash, count or verdict that differs between
    two ledgers, and the largest relative change of each series column;
    `differs` is whether any hash or count differs."""
    lines, differs = [], False
    for key in ("cpu", "python", "numpy", "scipy"):
        a, b = old["machine"].get(key), new["machine"].get(key)
        if a != b:
            lines.append(f"machine {key}: {a} -> {b}")
    for run in sorted(old["runs"].keys() | new["runs"].keys()):
        if run not in old["runs"] or run not in new["runs"]:
            lines.append(f"{run}: only in the {'new' if run in new['runs'] else 'old'} ledger")
            differs = True
            continue
        a, b = old["runs"][run], new["runs"][run]
        for group in ("sha256", "solver_stats"):
            for key in sorted(a.get(group, {}).keys() | b.get(group, {}).keys()):
                x, y = a.get(group, {}).get(key), b.get(group, {}).get(key)
                if x != y:
                    lines.append(f"{run} {group} {key}: {x} -> {y}")
                    differs = True
        for key in ("exit_code", "events", "steps"):
            if a.get(key) != b.get(key):
                lines.append(f"{run} {key}: {a.get(key)} -> {b.get(key)}")
                differs = True
        for col in sorted(a.get("columns", {}).keys() & b.get("columns", {}).keys()):
            change = max(_rel(x, y) for x, y in zip(a["columns"][col], b["columns"][col]))
            if change > 0.0:
                lines.append(f"{run} series.csv {col}: largest relative change {change:.3g}")
    return lines, differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="OUTPUTS.json", help="where to write the ledger")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two ledgers instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text()) for p in args.diff)
        lines, differs = diff_ledgers(old, new)
        print("\n".join(lines) if lines else "ledgers identical")
        return int(differs)
    ledger = build_ledger()
    Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {len(ledger['runs'])} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
