"""One benchmark sample, run by ``run.py`` in a fresh interpreter.

``--mode full`` runs the workload to the end and reports its timings and
the facts its output checks need; ``--mode setup`` stops at the first
``flow.step`` call and reports only the set-up time.  With ``--trace 1``
the public functions of every warpflow module are wrapped first and the
spans are written to ``--spans`` when the run ends.  The facts go to
``--result`` as JSON.

The clock starts after ``import warpflow`` and config parsing, and stops
when ``run_scenario`` (artifacts included) or ``twin_run`` returns.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
from pathlib import Path

import spans
import workloads


class _SetupDone(Exception):
    """Raised at the first flow.step call of a set-up-only sample."""


def _time_first_step(modules, setup_only):
    """Stamp the first flow.step call; afterwards the original runs unwrapped."""
    originals = {m: m.step for m in modules}
    stamps = []

    def restore():
        for m, fn in originals.items():
            m.step = fn

    def hook_for(mod):
        def first_step(*args, **kwargs):
            stamps.append(time.perf_counter())
            restore()
            if setup_only:
                raise _SetupDone
            return originals[mod](*args, **kwargs)
        return first_step

    for m in modules:
        m.step = hook_for(m)
    return stamps


def _capture_contexts(scenario_mod):
    """Collect each run's solver context as initial_state hands it out."""
    made = []
    original = scenario_mod.initial_state

    def initial_state(*args, **kwargs):
        state = original(*args, **kwargs)
        made.append(state.ctx)
        return state

    scenario_mod.initial_state = initial_state
    return made


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True, help="artifact directory")
    ap.add_argument("--result", required=True, help="where to write the facts (JSON)")
    ap.add_argument("--spans", help="where to write the spans (JSON) when tracing")
    args = ap.parse_args(argv)

    import warpflow.flow
    import warpflow.scenario as scenario

    spec = workloads.WORKLOADS[args.workload]
    flat = scenario.resolve_config(spec["config"])
    flat.update(workloads.overrides(args.workload, args.seed, args.smoke))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    contexts = _capture_contexts(scenario)
    stamps = _time_first_step([warpflow.flow, scenario], args.mode == "setup")

    out_dir = Path(args.out)
    if spec["kind"] == "scenario":
        def run():
            return scenario.run_scenario(flat, out_dir=out_dir)
    else:
        def run():
            return scenario.twin_run(flat)
    if tracer is not None:
        run = tracer.wrap("bench.run", run)

    t0 = time.perf_counter()
    try:
        result = run()
    except _SetupDone:
        result = None
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    facts = {"setup_s": stamps[0] - t0}
    if result is not None:
        facts.update(run_s=t1 - t0, peak_rss_mb=peak_rss_mb)
        if spec["kind"] == "scenario":
            report = result.report
            with contextlib.redirect_stdout(io.StringIO()):
                facts["check_rc"] = scenario.check_report_file(out_dir / "report.json")
            facts.update(
                exit_code=result.exit_code,
                events=[list(e.center) for e in report.events],
                E_g=report.records[-1].e_g, E_u=report.records[-1].e_u,
                digest=_sha256((out_dir / "series.csv").read_bytes()),
                stats={k: report.solver_stats[k] for k in
                       ("step_iterations", "rejected_steps", "elliptic_iterations")})
        else:
            facts.update(
                initial_diff=result.initial_diff, amplification=result.amplification,
                digest=_sha256(json.dumps([result.times, result.diffs]).encode()),
                stats={k: sum(c.stats[k] for c in contexts) for k in
                       ("step_iterations", "rejected_steps", "elliptic_iterations")})
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.result, "w") as f:
        json.dump(facts, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
