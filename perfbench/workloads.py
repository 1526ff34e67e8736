"""The benchmark's workloads and the checks every sample's outputs must pass.

Each workload is a shipped scenario config plus flat-key overrides.  The
``--seed`` of the benchmark goes into the ``seed`` key of every workload;
only ``twin_fine`` reads it (it seeds the twin perturbation), so the other
two are deterministic.  Smoke mode runs the same code at coarse ``h`` and a
short ``t_end`` for the benchmark's own tests.
"""

from __future__ import annotations

import math

WORKLOADS = {
    "bubbling": {
        "kind": "scenario", "config": "bubbling", "set": {},
        "smoke": {"mesh.h": "0.0625", "schedule.t_end": "0.004"},
    },
    "warp_coupled_fine": {
        "kind": "scenario", "config": "warp_coupled", "set": {"mesh.h": "0.0078125"},
        "smoke": {"mesh.h": "0.0625", "schedule.t_end": "0.05"},
    },
    "twin_fine": {
        "kind": "twin", "config": "stability_twin", "set": {"mesh.h": "0.0078125"},
        "smoke": {"mesh.h": "0.0625", "schedule.t_end": "0.02"},
    },
}

MAX_AMPLIFICATION = 2.0
EVENT_RADIUS = 0.1


def overrides(workload: str, seed: int, smoke: bool) -> dict:
    w = WORKLOADS[workload]
    out = dict(w["set"])
    if smoke:
        out.update(w["smoke"])
    out["seed"] = str(seed)
    return out


def check_sample(workload: str, facts: dict, reference: dict, smoke: bool) -> list:
    """Failed checks of one sample's reported facts; empty when it passed."""
    if "error" in facts:
        return [facts["error"]]
    if "run_s" not in facts:          # a set-up-only sample has no outputs
        return []
    bad = []
    if WORKLOADS[workload]["kind"] == "scenario":
        if facts["exit_code"] != 0:
            bad.append(f"run exit code {facts['exit_code']}")
        if facts["check_rc"] != 0:
            bad.append(f"check_report_file returned {facts['check_rc']}")
        if workload == "bubbling":
            events = facts["events"]
            if len(events) != 1 or math.hypot(*events[0]) > EVENT_RADIUS:
                bad.append(f"expected one event within {EVENT_RADIUS} of the origin, "
                           f"got centers {events}")
        ref = reference[workload]["smoke" if smoke else "full"]
        for key in ("E_g", "E_u"):
            if not abs(facts[key] - ref[key]) <= reference["rtol"] * abs(ref[key]):
                bad.append(f"final {key} = {facts[key]!r}, reference {ref[key]!r}")
    else:
        if not facts["initial_diff"] > 0.0:
            bad.append(f"initial_diff = {facts['initial_diff']!r} is not positive")
        amp = facts["amplification"]
        if not (math.isfinite(amp) and amp <= MAX_AMPLIFICATION):
            bad.append(f"amplification = {amp!r} is not finite and <= {MAX_AMPLIFICATION}")
    layers = facts.get("layers")
    if layers is not None:
        bad.extend(cross_check(layers, facts["stats"]))
    return bad


def cross_check(layers: dict, stats: dict) -> list:
    """Traced counters against the solver statistics the program kept itself."""
    pairs = [("elliptic.step_cg.iters", "step_iterations"),
             ("flow.step.rejected", "rejected_steps"),
             ("elliptic.solve_warped_laplace.iters", "elliptic_iterations")]
    return [f"traced {metric} = {layers[metric]} but solver_stats {key} = {stats[key]}"
            for metric, key in pairs if layers[metric] != stats[key]]
