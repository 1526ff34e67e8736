import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import warpflow.diagnostics
from brute_force import nearest_vertex, record_of, two_ball_reference
from warpflow.boundary import boundary_data_from_presets
from warpflow.diagnostics import (CheckResult, EnergyRecord, RunBounds,
                                  SingularityEvent, ThresholdConfig,
                                  _fit_two_ball, check_singularity_counts,
                                  convergence_monitor,
                                  hard_checks_pass, inequality_suite,
                                  mono_tolerance, record_from_dict,
                                  record_to_dict, report_from_dict,
                                  report_to_dict, singularity_detect)
from warpflow.errors import InsufficientSeries
from warpflow.flow import (Schedule, StepperConfig, initial_state, run_flow, step,
                           tension_residual)
from warpflow.geometry import WarpFunction, make_target
from warpflow.mesh import dirichlet_energy

SPHERE = make_target("sphere")
TORUS = make_target("torus")


@pytest.fixture(scope="module")
def coupled_run(square16):
    """Short fully-coupled run: sphere target, height-dependent warp."""
    warp = WarpFunction("linear_height", 2.0, 1.0)
    bd = boundary_data_from_presets(square16, SPHERE, "equator_circle kappa=1",
                                    "harmonic", "linear_x")
    cfg = StepperConfig(sigma=0.2)
    st = initial_state(square16, SPHERE, warp, bd, cfg)
    fin, rep = run_flow(st, Schedule(t_end=0.05, diag_stride=1),
                        ThresholdConfig())
    rep.checks = inequality_suite(rep.records, rep.bounds, ThresholdConfig())
    return fin, rep


def _rec(t, dt=0.01, step_count=0, **kw):
    base = dict(t=t, e_u=0.0, e_v=0.0, e_beta_v=0.0, e_g=0.0,
                kinetic_cum=0.0, laplacian_proxy=0.0,
                rate_l2=0.0, l2_centered=0.0, l4_centered=0.0, grad4_u=0.0,
                grad4_v=0.0, max_local_energy=0.0,
                dt=dt, step_count=step_count)
    base.update(kw)
    return EnergyRecord(**base)


def _bounds(**kw):
    base = dict(warp_lower=1.0, warp_upper=1.0, energy_phi0=2.0,
                energy_psi_ext=0.0, grad4_psi_ext=0.0, phi_c2_proxy=0.0,
                domain_area=1.0, h=1.0 / 16.0)
    base.update(kw)
    return RunBounds(**base)


def test_mono_tolerance_frozen_values():
    assert mono_tolerance(0.01, 0.1, 2.0) == pytest.approx(0.040001, abs=1e-12)
    assert mono_tolerance(0.0, 0.0, 5.0) == pytest.approx(1e-6, abs=1e-18)


def test_threshold_config_validation():
    with pytest.raises(ValueError):
        ThresholdConfig(energy=0.0)
    with pytest.raises(ValueError):
        ThresholdConfig(r_detect=-1.0)
    assert ThresholdConfig(r_detect=0.05, r_grid=(0.1,)).probe_radii() == \
        (0.05, 0.1, 0.2)


@pytest.mark.parametrize("name", ["warp_lower", "domain_area"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_run_bounds_refuse_a_non_positive_divisor(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        _bounds(**{name: value})


def test_run_bounds_budget():
    b = _bounds(energy_phi0=2.0, energy_psi_ext=4.0, warp_upper=3.0)
    assert b.budget == pytest.approx(14.0)


class TestEnergyFunctionals:
    def test_energies_match_direct_quadrature(self, square16):
        warp = WarpFunction("constant", 2.0)
        bd = boundary_data_from_presets(square16, SPHERE,
                                        "equator_circle kappa=1", "harmonic",
                                        "linear_x")
        st = initial_state(square16, SPHERE, warp, bd, StepperConfig())
        rec = record_of(st, 0.0, ThresholdConfig())
        assert rec.e_u == pytest.approx(dirichlet_energy(square16, st.u), rel=1e-14)
        assert rec.e_v == pytest.approx(dirichlet_energy(square16, st.v), rel=1e-14)
        assert rec.e_beta_v == pytest.approx(2.0 * rec.e_v, rel=1e-14)
        assert rec.e_g == pytest.approx(rec.e_u - rec.e_beta_v, rel=1e-14)
        # no step made the initial state; kinetic_cum is the one passed in
        assert (rec.kinetic_cum, rec.rate_l2, rec.dt) == (0.0, 0.0, 0.0)
        nxt = step(st, dt=1e-3)
        rec = record_of(nxt, 0.25, ThresholdConfig())
        assert (rec.rate_l2, rec.dt, rec.kinetic_cum) == (nxt.last_rate, 1e-3, 0.25)
        assert rec.rate_l2 > 0.0

    def test_centered_moments_vanish_for_constant_map(self, square16):
        bd = boundary_data_from_presets(square16, SPHERE, "north_pole",
                                        "north_pole", "constant value=0")
        st = initial_state(square16, SPHERE, WarpFunction("constant", 1.0),
                           bd, StepperConfig())
        rec = record_of(st, 0.0, ThresholdConfig())
        assert rec.l2_centered == pytest.approx(0.0, abs=1e-25)
        assert rec.l4_centered == pytest.approx(0.0, abs=1e-25)


class TestInequalitySuite:
    def test_requires_two_records(self):
        with pytest.raises(InsufficientSeries):
            inequality_suite([_rec(0.0)], _bounds(), ThresholdConfig())

    def test_healthy_run_passes_all_hard_checks(self, coupled_run):
        _, rep = coupled_run
        names = {c.name for c in rep.checks}
        assert {"energy_monotonicity", "dirichlet_bound_u", "dirichlet_bound_v",
                "kinetic_budget", "warp_sandwich", "two_ball", "ladyzhenskaya",
                "grad4_budget", "w22_budget"} <= names
        assert hard_checks_pass(rep.checks)
        for c in rep.checks:
            assert c.passed

    def test_lorentzian_energy_decreases(self, coupled_run):
        _, rep = coupled_run
        recs, e_g0 = rep.records, rep.records[0].e_g
        # one record per step: each step's decrease, up to its own dt's tolerance
        assert all(b.step_count == a.step_count + 1 for a, b in zip(recs, recs[1:]))
        assert all(b.e_g <= a.e_g + mono_tolerance(b.dt, rep.bounds.h, e_g0)
                   for a, b in zip(recs, recs[1:]))

    def test_energy_increase_detected(self, coupled_run):
        _, rep = coupled_run
        tol = mono_tolerance(max(r.dt for r in rep.records), rep.bounds.h,
                             rep.records[0].e_g)
        bad = [dataclasses.replace(r, e_g=r.e_g + i * 10.0 * (tol + 1.0))
               for i, r in enumerate(rep.records)]
        checks = inequality_suite(bad, rep.bounds, ThresholdConfig())
        mono = next(c for c in checks if c.name == "energy_monotonicity")
        assert not mono.passed
        assert not hard_checks_pass(checks)

    def test_dirichlet_bound_violation_detected(self, coupled_run):
        _, rep = coupled_run
        bad = list(rep.records)
        bad[-1] = dataclasses.replace(bad[-1], e_u=rep.bounds.budget + 1.0)
        checks = inequality_suite(bad, rep.bounds, ThresholdConfig())
        assert not next(c for c in checks if c.name == "dirichlet_bound_u").passed

    def test_warp_sandwich_violation_detected(self, coupled_run):
        _, rep = coupled_run
        bad = [dataclasses.replace(r, e_beta_v=10.0 * r.e_v if r.e_v > 0 else 0.0)
               for r in rep.records]
        checks = inequality_suite(bad, rep.bounds, ThresholdConfig())
        sandwich = next(c for c in checks if c.name == "warp_sandwich")
        assert not sandwich.passed            # warp upper bound is 3

    def test_warp_sandwich_reports_the_worst_violation(self):
        # lam = 1, Lam = 3: ratios 10 (7 above Lam) and 4 (1 above), largest
        # first; then a tie at 0.5 below lam against 3.5, and the first stays
        recs = [_rec(0.0, e_v=1.0, e_beta_v=2.0), _rec(0.1, e_v=1.0, e_beta_v=10.0),
                _rec(0.2, e_v=1.0, e_beta_v=4.0)]
        tie = [_rec(0.0, e_v=1.0, e_beta_v=0.5), _rec(0.1, e_v=1.0, e_beta_v=3.5)]
        for records, worst in ((recs, 10.0), (tie, 0.5), (tie[::-1], 3.5)):
            checks = inequality_suite(records, _bounds(warp_upper=3.0), ThresholdConfig())
            sandwich = next(c for c in checks if c.name == "warp_sandwich")
            assert not sandwich.passed and sandwich.constants == {"ratio": worst}

    def test_kinetic_budget_violation_detected(self, coupled_run):
        _, rep = coupled_run
        bad = list(rep.records)
        bad[-1] = dataclasses.replace(bad[-1],
                                      kinetic_cum=rep.bounds.budget + 10.0)
        checks = inequality_suite(bad, rep.bounds, ThresholdConfig())
        assert not next(c for c in checks if c.name == "kinetic_budget").passed

    def test_allowance_tracks_steps_not_final_dt(self):
        # a dt collapse late in the run must not retroactively shrink the
        # allowance earned by earlier full-size steps
        b = _bounds(energy_phi0=2.0)
        tol_big = mono_tolerance(0.01, b.h, 1.0)
        recs = [
            _rec(0.00, dt=0.01, step_count=0, e_g=1.0),
            _rec(0.01, dt=0.01, step_count=1, e_g=1.0 + 0.5 * tol_big),
            _rec(0.0101, dt=1e-6, step_count=2, e_g=1.0 + 0.5 * tol_big),
        ]
        checks = inequality_suite(recs, b, ThresholdConfig())
        assert next(c for c in checks if c.name == "energy_monotonicity").passed

    @pytest.mark.parametrize("name, field, key", [
        ("dirichlet_bound_u", "e_u", "max_e_u"),
        ("dirichlet_bound_v", "e_v", "max_e_v"),
        ("kinetic_budget", "kinetic_cum", "kinetic_total")])
    def test_a_bound_passes_at_budget_plus_slack_and_fails_above(self, name, field, key):
        # e_g != 0 and two steps, so the kinetic slack carries an allowance
        recs = [_rec(0.0, step_count=0, e_g=1.0), _rec(0.01, step_count=2, e_g=0.5)]
        b = _bounds(warp_upper=3.0, energy_psi_ext=0.5)

        def check(value):
            bad = recs[:-1] + [dataclasses.replace(recs[-1], **{field: value})]
            return next(c for c in inequality_suite(bad, b, ThresholdConfig()) if c.name == name)
        ref = check(0.0)
        assert ref.tolerance > 0.0 and ref.constants["budget"] > 0.0
        edge = ref.constants["budget"] + ref.tolerance
        at, above = check(edge), check(np.nextafter(edge, np.inf))
        assert at.passed and at.constants == {key: edge, "budget": ref.constants["budget"]}
        assert not above.passed and above.tolerance == ref.tolerance

    def test_ladyzhenskaya_zero_for_constant_map(self, square16):
        bd = boundary_data_from_presets(square16, SPHERE, "north_pole",
                                        "north_pole", "constant value=0")
        cfg = StepperConfig()
        st = initial_state(square16, SPHERE, WarpFunction("constant", 1.0),
                           bd, cfg)
        _, rep = run_flow(st, Schedule(t_end=0.01))
        checks = inequality_suite(rep.records, rep.bounds, ThresholdConfig())
        lady = next(c for c in checks if c.name == "ladyzhenskaya")
        assert lady.constants["C_lady"] == 0.0


class TestTwoBall:
    RADII = (0.1, 0.2, 0.4)

    def test_envelope_constants_on_synthetic_profile(self):
        r0 = _rec(0.0, ball_probes=[[0.0, 0.0, 0.0]])
        r1 = _rec(1.0, ball_probes=[[0.5, 0.6, 0.7]])
        c1, c2, samples = _fit_two_ball([r0, r1], self.RADII, (0.1, 0.2))
        assert samples == 2
        # r=0.1: deficit 0.5 against the 0.2-ball; r=0.2: deficit 0.6 against 0.4
        assert c2 == pytest.approx(0.6)
        assert c1 == pytest.approx(max(0.5 * 0.01, 0.6 * 0.04))

    def test_no_growth_means_zero_constants(self):
        r0 = _rec(0.0, ball_probes=[[0.5, 0.5, 0.5]])
        r1 = _rec(1.0, ball_probes=[[0.2, 0.3, 0.4]])
        c1, c2, samples = _fit_two_ball([r0, r1], self.RADII, (0.1, 0.2))
        assert (c1, c2) == (0.0, 0.0)
        assert samples == 2

    @pytest.mark.parametrize("n", [3, 7, 40, 75])
    def test_array_fit_equals_the_loop_reference_bitwise(self, n):
        # growing probe energies give positive deficits at every gap; a
        # repeated time gives a zero span that both must skip
        rng = np.random.default_rng(n)
        thr = ThresholdConfig(r_detect=0.05, r_grid=(0.1, 0.2))
        radii, centers = thr.probe_radii(), [3, 11, 4, 20, 7]
        ts = np.cumsum(rng.uniform(0.0, 0.01, n))
        ts[n // 2] = ts[n // 2 - 1]
        recs = [_rec(float(t), ball_probes=(rng.uniform(0.0, 1.0, (5, len(radii)))
                                            * (1.0 + 3.0 * k / n)).tolist())
                for k, t in enumerate(ts)]
        as_dicts = [dataclasses.replace(r, ball_probes={
            c: dict(zip(radii, row)) for c, row in zip(centers, r.ball_probes)}) for r in recs]
        got = _fit_two_ball(recs, radii, thr.r_grid)
        want = two_ball_reference(as_dicts, thr.r_grid)
        assert got[0] > 0.0 and got[1] > 0.0
        assert got == want
        assert all(type(x) is type(y) for x, y in zip(got, want))


class TestSingularityCounts:
    def _events(self, n, mult=1):
        return [SingularityEvent(time=0.1 * i, vertices=list(range(mult)),
                                 points=[[0.0, 0.0]] * mult, radius=0.1,
                                 peak_energies=[2.0] * mult)
                for i in range(n)]

    def test_within_quota_passes(self):
        b = _bounds(energy_phi0=2.0)          # budget 2, threshold 1 -> quota 2
        chk = check_singularity_counts(self._events(2), b, ThresholdConfig())
        assert chk.passed and chk.hard

    def test_too_many_events_fails(self):
        b = _bounds(energy_phi0=2.0)
        chk = check_singularity_counts(self._events(3), b, ThresholdConfig())
        assert not chk.passed

    def test_too_many_points_fails(self):
        b = _bounds(energy_phi0=2.0)
        chk = check_singularity_counts(self._events(1, mult=9), b,
                                       ThresholdConfig())
        assert not chk.passed                  # 9 > 2 * quota^2 = 8


def _crossing_records(hist, times, eps=1.0):
    """Records whose crossings are the entries of a dense (frames, nv)
    local-energy history above eps."""
    return [_rec(t, step_count=i,
                 crossings={int(c): float(row[c]) for c in np.flatnonzero(row > eps)})
            for i, (t, row) in enumerate(zip(times, hist))]


class TestSingularityDetect:
    def _detect(self, mesh, hist, times, thr):
        points = {c: [float(x) for x in mesh.vertices[c]] for c in range(mesh.num_vertices)}
        return singularity_detect(_crossing_records(hist, times, thr.energy), thr, points)

    def test_synthetic_concentration_history(self, square16):
        thr = ThresholdConfig(energy=1.0, r_detect=0.1, persist_frames=3)
        nv = square16.num_vertices
        F = 6
        hist = np.full((F, nv), 0.1)
        A = nearest_vertex(square16, [0.25, 0.25])
        C = nearest_vertex(square16, [0.3125, 0.25])    # within 2 r_detect of A
        B = nearest_vertex(square16, [0.75, 0.75])
        D = nearest_vertex(square16, [0.75, 0.25])
        E = nearest_vertex(square16, [0.5, 0.5])
        hist[1:, A] = 2.0
        hist[1:, C] = 1.5          # clusters into A's event
        hist[3:, B] = 1.8          # later, separate location
        hist[1, D] = 3.0           # one-frame spike: not sustained
        hist[0:, E] = 1.2          # above from the first frame
        times = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
        events = self._detect(square16, hist, times, thr)
        assert [ev.time for ev in events] == [0.0, 0.01, 0.03]
        assert events[0].vertices == [E]
        assert events[1].vertices == [A]       # C absorbed into the cluster
        assert events[2].vertices == [B]
        assert all(ev.multiplicity == 1 for ev in events)
        assert events[1].center == [0.25, 0.25]
        assert events[1].peak_energies == [2.0]

    def test_absorption_into_recorded_point(self, square16):
        thr = ThresholdConfig(energy=1.0, r_detect=0.1, persist_frames=2)
        nv = square16.num_vertices
        hist = np.full((4, nv), 0.1)
        A = nearest_vertex(square16, [0.25, 0.25])
        F_ = nearest_vertex(square16, [0.3125, 0.25])
        hist[0:, A] = 2.0
        hist[2:, F_] = 1.6         # crosses while A is still above: absorbed
        events = self._detect(square16, hist, [0.0, 0.1, 0.2, 0.3], thr)
        assert len(events) == 1
        assert events[0].vertices == [A]

    def test_empty_history_no_events(self, square16):
        assert singularity_detect([], ThresholdConfig(), {}) == []

    def test_simultaneous_far_crossings_one_event(self, square16):
        thr = ThresholdConfig(energy=1.0, r_detect=0.1, persist_frames=2)
        nv = square16.num_vertices
        hist = np.full((3, nv), 0.1)
        A = nearest_vertex(square16, [0.25, 0.25])
        B = nearest_vertex(square16, [0.75, 0.75])
        hist[1:, A] = 2.0
        hist[1:, B] = 1.5
        events = self._detect(square16, hist, [0.0, 0.1, 0.2], thr)
        assert len(events) == 1
        assert events[0].multiplicity == 2
        assert set(events[0].vertices) == {A, B}
        # higher peak listed first (greedy order), so center is A's location
        assert events[0].center == [0.25, 0.25]


def test_diagnostics_loads_without_flow():
    # a bare package (its __init__ imports flow) and warpflow.flow
    # blocked: only diagnostics' own imports load, and none of them is flow
    path = Path(warpflow.diagnostics.__file__)
    code = ("import sys, types; pkg = types.ModuleType('warpflow'); "
            f"pkg.__path__ = [{str(path.parent)!r}]; sys.modules['warpflow'] = pkg; "
            "sys.modules['warpflow.flow'] = None; import warpflow.diagnostics")
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # nor does any function of it import flow lazily
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "flow"
                   for node in ast.walk(ast.parse(path.read_text())))


def _monitor(rep, fin):
    return convergence_monitor(rep.records, fin.mesh.h, tension_residual(fin),
                               rep.thresholds)


class TestConvergenceMonitor:
    def test_constant_map_converges(self, square16):
        bd = boundary_data_from_presets(square16, SPHERE, "north_pole",
                                        "north_pole", "constant value=0")
        cfg = StepperConfig()
        st = initial_state(square16, SPHERE, WarpFunction("constant", 1.0),
                           bd, cfg)
        fin, rep = run_flow(st, Schedule(t_end=0.01))
        conv = _monitor(rep, fin)
        assert conv.status == "converged" and conv.converged
        assert conv.residual_norm < conv.residual_tolerance

    def test_active_decay_is_not_stationary(self, square16):
        bd = boundary_data_from_presets(
            square16, TORUS, "sine_bump amplitude=0.2",
            "sine_bump amplitude=0.2", "constant value=0")
        cfg = StepperConfig()
        st = initial_state(square16, TORUS, WarpFunction("constant", 1.0),
                           bd, cfg)
        fin, rep = run_flow(st, Schedule(t_end=0.005))
        conv = _monitor(rep, fin)
        assert conv.status == "not_stationary" and not conv.converged

    def test_halving_cascade_is_decreasing(self, square16):
        bd = boundary_data_from_presets(
            square16, TORUS, "sine_bump amplitude=0.2",
            "sine_bump amplitude=0.2", "constant value=0")
        cfg = StepperConfig()
        st = initial_state(square16, TORUS, WarpFunction("constant", 1.0),
                           bd, cfg)
        fin, rep = run_flow(st, Schedule(t_end=0.1, diag_stride=1))
        conv = _monitor(rep, fin)
        assert len(conv.halving_rates) >= 3
        for a, b in zip(conv.halving_rates, conv.halving_rates[1:]):
            assert b <= a / 2.0
        assert conv.halving_times == sorted(conv.halving_times)

    def test_persistent_vertices_reported(self, square16):
        bd = boundary_data_from_presets(square16, SPHERE, "north_pole",
                                        "north_pole", "constant value=0")
        cfg = StepperConfig()
        st = initial_state(square16, SPHERE, WarpFunction("constant", 1.0),
                           bd, cfg)
        fin, rep = run_flow(st, Schedule(t_end=0.01))
        hist = np.full((len(rep.records), square16.num_vertices), 0.1)
        hist[:, 5] = 2.0
        for r, c in zip(rep.records, _crossing_records(hist, [r.t for r in rep.records])):
            r.crossings = c.crossings
        conv = _monitor(rep, fin)
        assert conv.persistent_vertices == [5]


class TestDetectorInvariance:
    def test_constant_warp_rescaling_leaves_map_unchanged(self, disk16):
        # beta -> 2 beta rescales the potential equation without changing its
        # solution, and a constant warp exerts no force: the map trajectory,
        # the local energies and crossings, and the events must coincide bitwise,
        # while E_beta_v doubles exactly.
        results = []
        for a in (1.0, 2.0):
            warp = WarpFunction("constant", a)
            bd = boundary_data_from_presets(
                disk16, SPHERE, "north_pole",
                "inv_stereographic rho=0.3 center=0,0", "linear_x")
            cfg = StepperConfig(sigma=0.2)
            st = initial_state(disk16, SPHERE, warp, bd, cfg)
            thr = ThresholdConfig(energy=1.0, r_detect=0.1)
            fin, rep = run_flow(st, Schedule(t_end=0.01), thr)
            rep.events = singularity_detect(rep.records, thr, rep.crossing_points)
            results.append((fin, rep))
        (f1, r1), (f2, r2) = results
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)
        assert [(r.crossings, r.max_local_energy) for r in r1.records] == \
            [(r.crossings, r.max_local_energy) for r in r2.records]
        assert [e.time for e in r1.events] == [e.time for e in r2.events]
        assert [e.vertices for e in r1.events] == [e.vertices for e in r2.events]
        for a, b in zip(r1.records, r2.records):
            assert b.e_beta_v == 2.0 * a.e_beta_v
            assert b.e_u == a.e_u


class TestSerialization:
    def test_record_round_trip(self, coupled_run):
        _, rep = coupled_run
        for r in rep.records[:3]:
            back = record_from_dict(json.loads(json.dumps(record_to_dict(r))))
            assert back == r

    def test_report_round_trip_preserves_checks(self, coupled_run):
        _, rep = coupled_run
        payload = json.loads(json.dumps(report_to_dict(rep)))
        back = report_from_dict(payload)
        assert len(back.records) == len(rep.records)
        assert back.bounds == rep.bounds
        assert back.thresholds == rep.thresholds
        assert [c.name for c in back.checks] == [c.name for c in rep.checks]
        # re-running the suite on the restored series reproduces the verdicts
        rechecks = inequality_suite(back.records, back.bounds, back.thresholds)
        by_name = {c.name: c.passed for c in rechecks}
        for c in rep.checks:
            if c.name in by_name:
                assert by_name[c.name] == c.passed

    def test_a_check_result_holds_plain_numbers(self):
        c = CheckResult(name="n", passed=True, hard=False, tolerance=0.0, detail="",
                        constants={"K": np.int64(3), "C": np.float64(0.5)})
        assert c.constants == {"K": 3, "C": 0.5}
        assert [type(v) for v in c.constants.values()] == [int, float]

    def test_check_constants_are_plain_numbers(self, coupled_run):
        _, rep = coupled_run
        back = report_from_dict(json.loads(json.dumps(report_to_dict(rep))))
        rechecks = inequality_suite(back.records, back.bounds, back.thresholds)
        for checks in (rep.checks, rechecks):
            assert "C_w22" in {k for c in checks for k in c.constants}
            for c in checks:
                for value in c.constants.values():
                    assert type(value) in (float, int), (c.name, value)
