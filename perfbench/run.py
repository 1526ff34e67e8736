"""warpflow benchmark: time to a verified run, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``bubbling``,
``warp_coupled_fine`` and ``twin_fine``.  The loop is closed, with one
client: one sample at a time, each in a fresh child interpreter with BLAS
and OpenMP pinned to one thread.  Samples are run until the next one would
end past ``--seconds`` (at least one), then set-up-only samples until at
least three set-up times exist and while time remains.  Every sample's
outputs are checked; a failed check counts against ``failed_frac`` and
makes the command exit 1.

``--trace 0`` reports the end-to-end metrics: ``run_s`` and ``peak_rss_mb``
(medians over full samples), ``setup_s`` (median over all samples).
``--trace 1`` runs the same untraced samples (without the set-up-only
ones), then one traced sample whose spans give the per-layer metrics, and
the tracing overhead against the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give every metric, with the ones ``BENCHMARK.json`` does not list.
Artifacts go to a temporary directory inside the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 3
MAX_SETUP_SAMPLES = 12
WALL_LIMIT_S = 170.0          # the command must end within 180 s
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def load_meta() -> dict:
    with open(HERE / "meta.json") as f:
        return json.load(f)


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               WARPFLOW_OUT=str(work / "warpflow_out"))
    return env


def run_child(work: Path, workload: str, seed: int, mode: str, trace: bool,
              smoke: bool, deadline: float) -> dict:
    """Run one sample in a fresh interpreter and return the facts it reported."""
    sample = Path(tempfile.mkdtemp(dir=work, prefix="sample-"))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(int(trace)),
           "--out", str(sample / "out"), "--result", str(sample / "facts.json"),
           "--spans", str(sample / "spans.json")] + (["--smoke"] if smoke else [])
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=sample, env=child_env(work), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        facts = {"error": f"{mode} sample timed out"}
    else:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            facts = {"error": f"{mode} sample exited {proc.returncode}: " + " | ".join(tail)}
        else:
            with open(sample / "facts.json") as f:
                facts = json.load(f)
            if trace:
                with open(sample / "spans.json") as f:
                    facts["layers"] = spans.layer_metrics(json.load(f))
    facts["wall"] = time.perf_counter() - t
    shutil.rmtree(sample, ignore_errors=True)
    return facts


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run the samples of one invocation and check them; see the module doc."""
    reference = load_meta()["reference"]
    start = time.monotonic()
    deadline = start + WALL_LIMIT_S

    def elapsed():
        return time.monotonic() - start

    full, setup_only, traced = [], [], None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)

        def sample(mode, with_trace=False):
            return run_child(work, workload, seed, mode, with_trace, smoke, deadline)

        while True:
            s = sample("full")
            full.append(s)
            if "error" in s or elapsed() + s["wall"] > seconds:
                break
        broken = "error" in full[-1]
        while not trace and not broken and len(setup_only) < MAX_SETUP_SAMPLES:
            have = len(full) + len(setup_only)
            last = setup_only[-1]["wall"] if setup_only else 0.0
            if have >= MIN_SETUPS and elapsed() + last > seconds:
                break
            setup_only.append(sample("setup"))
            broken = "error" in setup_only[-1]
        if trace and not broken:
            traced = sample("full", with_trace=True)

    samples = full + setup_only + ([traced] if traced else [])
    failures = [workloads.check_sample(workload, s, reference, smoke) for s in samples]
    digests = [s["digest"] for s in samples if "digest" in s]
    for s, bad in zip(samples, failures):
        if "digest" in s and s["digest"] != digests[0]:
            bad.append("output differs from the first sample of this invocation")
    return {"full": full, "setup_only": setup_only, "traced": traced,
            "failures": failures, "elapsed": elapsed()}


def tail(values):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return None, None


def end_to_end(outcome: dict) -> dict:
    """name -> values of the untraced samples that reported it."""
    full = [s for s in outcome["full"] if "run_s" in s]
    setups = [s["setup_s"] for s in outcome["full"] + outcome["setup_only"] if "setup_s" in s]
    out = {}
    if full:
        out["run_s"] = [s["run_s"] for s in full]
        out["peak_rss_mb"] = [s["peak_rss_mb"] for s in full]
    if setups:
        out["setup_s"] = setups
    return out


def per_layer(outcome: dict) -> dict:
    traced = outcome["traced"]
    if traced is None or "layers" not in traced:
        return {}
    m = dict(traced["layers"])
    m["trace.run_s"] = traced["run_s"]
    untraced = [s["run_s"] for s in outcome["full"] if "run_s" in s]
    if untraced:
        base = statistics.median(untraced)
        m["trace.overhead_s"] = traced["run_s"] - base
        m["trace.overhead_frac"] = m["trace.overhead_s"] / base
    return m


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".iters", ".nnz", ".rejected")):
        return "count"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("iters_per_call"):
        return "iters/call"
    return "s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="coarse h and short t_end, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its temp dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "warpflow" / "__init__.py").is_file():
        print(f"perfbench: no warpflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      smoke=args.smoke)
    attempted = len(outcome["failures"])
    failed = sum(1 for bad in outcome["failures"] if bad)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''} python={platform.python_version()} "
          f"cpus={os.cpu_count()} wall={outcome['elapsed']:.1f}s")
    print(f"  samples: {len(outcome['full'])} full, {len(outcome['setup_only'])} set-up only"
          f"{', 1 traced' if outcome['traced'] else ''}; one client, closed loop")
    for bad in outcome["failures"]:
        for b in bad:
            print(f"  FAILED CHECK: {b}")
    values = {}
    for name, xs in end_to_end(outcome).items():
        med = statistics.median(xs)
        values[name] = med
        p, v = tail(xs)
        tail_txt = (f"p{p:g} {v:.6g}" if p is not None
                    else "no percentile has 10 samples beyond it")
        unit = "MiB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<12} median {med:.6g} {unit}  ({tail_txt}; n={len(xs)})")
    print(f"  failed_frac  {failed / attempted:.6g} ratio  ({failed} of {attempted} samples)")
    if args.trace:
        layers = per_layer(outcome)
        values = layers
        for name in sorted(layers):
            print(f"  {name:<44} {layers[name]:.6g} {unit_of(name)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    correct = failed == 0 and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
