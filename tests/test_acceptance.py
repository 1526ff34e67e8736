"""End-to-end acceptance criteria, one test per stated property.

Every test appends a single PASS/FAIL verdict line (with the measured values
and the pinned tolerance) to the session log, which conftest echoes after the
run, then asserts.  Criteria run at desk scale; the whole module takes on the
order of a minute.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import warpflow.scenario

from oracle_corotational import corotational_map, reduced_profile
from warpflow.diagnostics import mono_tolerance
from warpflow.mesh import build_mesh
from warpflow.scenario import resolve_config, run_scenario, twin_run

SHIPPED = ["bubbling", "geodesic_square", "harmonic_fixed_point",
           "heat_decay", "stability_twin", "warp_coupled"]


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """Each shipped scenario run twice with full artifacts: (first run, out dir
    of the repeat, wall time of the first run).  The first runs go in this
    process; alongside them, one `warpflow run` subprocess makes the repeats."""
    root = tmp_path_factory.mktemp("acceptance")
    src = Path(warpflow.scenario.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    firsts = {}
    with subprocess.Popen([sys.executable, "-B", "-m", "warpflow.cli", "run", *SHIPPED,
                           "--out", str(root / "repeat")], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as repeat:
        try:
            for name in SHIPPED:
                t0 = time.perf_counter()
                a = run_scenario(name, out_dir=root / name)
                firsts[name] = (a, time.perf_counter() - t0)
            _, err = repeat.communicate(timeout=600)
        except BaseException:
            repeat.kill()
            raise
    assert repeat.returncode == max(a.exit_code for a, _ in firsts.values()), err
    return {name: (a, root / "repeat" / name, wall) for name, (a, wall) in firsts.items()}


def _verdict(log, num, ok, text):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}"
    log.append(line)
    print(line)
    assert ok, line


def test_criterion_01_heat_decay_oracle(shipped_runs, acceptance_log):
    # L2 norm of the bump decays like exp(-2 pi^2 t) within 2%; run < 60 s
    res, _, wall = shipped_runs["heat_decay"]
    recs = res.report.records
    ts = np.array([r.t for r in recs])
    l2 = np.array([r.l2_centered for r in recs])    # squared L2 norm
    mask = (ts > 0.01) & (l2 > 1e-28)
    rate = -0.5 * np.polyfit(ts[mask], np.log(l2[mask]), 1)[0]
    target = 2.0 * np.pi ** 2
    rel = abs(rate - target) / target
    ok = rel <= 0.02 and wall < 60.0
    _verdict(acceptance_log, 1, ok,
             f"heat decay rate {rate:.4f} vs 2*pi^2 = {target:.4f} "
             f"(rel err {rel:.3%}, tol 2%); wall {wall:.1f}s < 60s")


def test_criterion_02_elliptic_manufactured_solution(acceptance_log):
    # beta = 1 + x/2, v* = sin(pi x) sin(pi y): L2 order in [1.8, 2.2]
    from warpflow.elliptic import solve_warped_laplace

    errs = []
    for h in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        m = build_mesh("square", h)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        beta = 1.0 + 0.5 * x
        f = (2.0 * np.pi ** 2 * beta * np.sin(np.pi * x) * np.sin(np.pi * y)
             - 0.5 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y))
        sol = solve_warped_laplace(m, beta, np.zeros(m.num_vertices), source=f)
        exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        errs.append(float(np.sqrt(np.dot(m.lumped_mass, (sol.v - exact) ** 2))))
    slopes = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    _verdict(acceptance_log, 2, ok,
             f"manufactured-solution L2 orders {slopes[0]:.3f}, {slopes[1]:.3f} "
             f"in [1.8, 2.2] (errors {errs[0]:.2e} -> {errs[2]:.2e})")


def test_criterion_03_energy_dissipation(shipped_runs, acceptance_log):
    # E_g dissipates stepwise and in integrated form on the coupled scenario
    res, _, _ = shipped_runs["warp_coupled"]
    recs = res.report.records
    h = res.report.bounds.h
    e_g0 = recs[0].e_g
    worst_step = -np.inf
    allowance = 0.0
    stepwise_ok = True
    for prev, cur in zip(recs, recs[1:]):
        tol = mono_tolerance(cur.dt, h, e_g0) * max(1, cur.step_count - prev.step_count)
        allowance += tol
        inc = cur.e_g - prev.e_g
        worst_step = max(worst_step, inc - tol)
        if inc > tol:
            stepwise_ok = False
    final = recs[-1].e_g + recs[-1].kinetic_cum
    integral_ok = final <= e_g0 + allowance
    ok = stepwise_ok and integral_ok
    _verdict(acceptance_log, 3, ok,
             f"E_g dissipation on warp_coupled: worst step excess "
             f"{worst_step:.2e} <= 0; E_g(T)+kinetic = {final:.6f} <= "
             f"E_g(0) + allowance = {e_g0 + allowance:.6f}")


def test_criterion_04_dirichlet_bounds_all_scenarios(shipped_runs, acceptance_log):
    worst = []
    ok = True
    for name in SHIPPED:
        res, _, _ = shipped_runs[name]
        b = res.report.bounds
        recs = res.report.records
        max_eu = max(r.e_u for r in recs)
        max_ev = max(r.e_v for r in recs)
        u_bound = b.budget + 1e-3
        v_bound = (b.warp_upper / b.warp_lower) * b.energy_psi_ext + 1e-3
        if max_eu > u_bound or max_ev > v_bound:
            ok = False
        worst.append(f"{name}: E_u {max_eu:.4f}<={u_bound:.4f} "
                     f"E_v {max_ev:.4f}<={v_bound:.4f}")
    _verdict(acceptance_log, 4, ok,
             "Dirichlet bounds on every shipped scenario (+1e-3 slack): "
             + "; ".join(worst))


def test_criterion_05_geodesic_stationarity(shipped_runs, acceptance_log):
    res, _, _ = shipped_runs["geodesic_square"]
    conv = res.report.convergence
    e_g0 = res.report.records[0].e_g
    rate_tol = 1e-5 * (1.0 + abs(e_g0))
    res_tol = 10.0 * res.state.mesh.h
    ok = (conv.converged and conv.rate_l2 <= rate_tol
          and conv.residual_norm <= res_tol)
    _verdict(acceptance_log, 5, ok,
             f"geodesic_square stationary by t=2: velocity {conv.rate_l2:.2e} "
             f"<= {rate_tol:.2e}, residual {conv.residual_norm:.2e} <= "
             f"{res_tol:.2e}, status {conv.status!r}")


def test_criterion_06_equivariant_oracle(acceptance_log):
    # 2D flow vs the independent 1D reduced solver, L-inf tol 5 (h + dt)
    h = 1.0 / 32.0
    t_end = 0.02
    flat = {
        "name": "corotational_check", "target": "sphere",
        "mesh.shape": "disk", "mesh.h": f"{h!r}",
        "warp.kind": "constant", "warp.a": "1.0",
        "boundary.phi": "north_pole",
        "boundary.phi0": "corotational amplitude=1.0",
        "boundary.psi": "constant value=0",
        "stepper.sigma": "0.2",
        "schedule.t_end": f"{t_end!r}", "schedule.diag_stride": "10",
    }
    res = run_scenario(flat, write_artifacts=False)
    nodes, prof = reduced_profile(1.0, t_end)
    expected = corotational_map(res.state.mesh.vertices, nodes, prof)
    err = float(np.max(np.abs(res.state.u - expected)))
    dt = 0.2 * h
    tol = 5.0 * (h + dt)
    ok = err <= tol and not res.report.events
    _verdict(acceptance_log, 6, ok,
             f"corotational flow vs 1D reduction: L-inf error {err:.5f} <= "
             f"{tol:.5f} at t={t_end} (no concentration events)")


def test_criterion_07_singularity_detection(shipped_runs, acceptance_log):
    res, _, _ = shipped_runs["bubbling"]
    events = res.report.events
    r_detect = res.report.thresholds.r_detect
    budget = res.report.bounds.budget
    quota = budget / res.report.thresholds.energy
    near_origin = any(
        float(np.hypot(*ev.center)) <= 2.0 * r_detect for ev in events)
    count_ok = (len(events) <= quota and
                sum(ev.multiplicity for ev in events) <= 2.0 * quota * quota)

    # same geometry with a wide bubble must stay quiet over the same horizon
    wide = run_scenario("bubbling", write_artifacts=False, overrides={
        "boundary.phi0": "inv_stereographic rho=0.2 center=0,0"})
    ok = (len(events) >= 1 and near_origin and count_ok
          and len(wide.report.events) == 0)
    dist = float(np.hypot(*events[0].center)) if events else float("nan")
    _verdict(acceptance_log, 7, ok,
             f"bubbling rho=0.05: {len(events)} event(s), first center at "
             f"distance {dist:.4f} <= {2 * r_detect}; counts K={len(events)} "
             f"<= {quota:.2f}, points <= {2 * quota * quota:.2f}; "
             f"rho=0.2: {len(wide.report.events)} events")


def test_criterion_08_twin_uniqueness_surrogate(acceptance_log):
    flat = resolve_config("heat_decay")
    zero = twin_run(flat, overrides={"twin.delta": 0.0})
    one = twin_run(flat, overrides={"twin.delta": 1e-3})
    half = twin_run(flat, overrides={"twin.delta": 5e-4})
    ratio = one.sup_diff / half.sup_diff if half.sup_diff > 0 else float("inf")
    ok = (zero.sup_diff == 0.0 and zero.final_diff == 0.0
          and one.amplification <= 2.0 and half.amplification <= 2.0
          and 1.6 <= ratio <= 2.4)
    _verdict(acceptance_log, 8, ok,
             f"twin runs on heat_decay: delta=0 gives sup diff "
             f"{zero.sup_diff!r}; amplification {one.amplification:.4f}, "
             f"{half.amplification:.4f} <= 2; scaling ratio {ratio:.4f} in "
             f"[1.6, 2.4]")


def test_criterion_09_fitted_constant_stability(shipped_runs, acceptance_log):
    res32, _, _ = shipped_runs["warp_coupled"]
    res64 = run_scenario("warp_coupled", overrides={"mesh.h": 1.0 / 64.0},
                         write_artifacts=False)

    def constants(res):
        out = {}
        for c in res.report.checks:
            if c.name == "two_ball":
                out["C1"] = c.constants["C1"]
                out["C2"] = c.constants["C2"]
            elif c.name == "ladyzhenskaya":
                out["C_lady"] = c.constants["C_lady"]
            elif c.name == "grad4_budget":
                out["C_struwe"] = c.constants["C_struwe"]
            elif c.name == "w22_budget":
                out["C_w22"] = c.constants["C_w22"]
        return out

    a, b = constants(res32), constants(res64)
    details = []
    ok = True
    for key in ("C1", "C2", "C_lady", "C_struwe", "C_w22"):
        x, y = a[key], b[key]
        if x <= 1e-9 and y <= 1e-9:
            details.append(f"{key}: both ~0")
            continue
        lo, hi = min(x, y), max(x, y)
        stable = lo > 0 and hi / lo <= 2.0
        ok = ok and stable
        details.append(f"{key}: {x:.4g} vs {y:.4g} (x{hi / lo if lo > 0 else float('inf'):.2f})")
    _verdict(acceptance_log, 9, ok,
             "fitted constants h=1/32 vs 1/64 within 2x: " + ", ".join(details))


def test_criterion_10_determinism(shipped_runs, acceptance_log):
    mismatched = [name for name, (a, b, _) in shipped_runs.items()
                  if (a.out_dir / "series.csv").read_bytes()
                  != (b / "series.csv").read_bytes()]
    ok = not mismatched
    _verdict(acceptance_log, 10, ok,
             "byte-identical series.csv on repeat runs, in a second process, of all shipped "
             "scenarios" + (f"; mismatches: {mismatched}" if mismatched else ""))
