from dataclasses import replace

import numpy as np
import pytest

import warpflow.elliptic
import warpflow.flow
from oracle_corotational import reduced_profile
from warpflow.boundary import boundary_data_from_presets
from warpflow.diagnostics import ThresholdConfig
from warpflow.elliptic import CG_RTOL
from warpflow.errors import SolverFailure, StepRejected
from warpflow.flow import (GROW_AFTER, Schedule, StepperConfig, _forcing,
                           default_probe_centers, initial_state, march, run_flow, step,
                           tension_residual)
from warpflow.geometry import WarpFunction, make_target
from warpflow.mesh import DomainMesh, build_mesh, dirichlet_energy
from warpflow.scenario import ScenarioConfig, build_scenario, resolve_config

SPHERE = make_target("sphere")
TORUS = make_target("torus")
UNIT_WARP = WarpFunction("constant", 1.0)

# frozen: pi * int (h'^2 + sin^2(h)/r^2) r dr for h(r) = sin(pi r), adaptive
# quadrature on the radial form of the corotational Dirichlet energy
COROTATIONAL_ENERGY_AMP1 = 10.799779675392465


def _geodesic_data(mesh):
    return boundary_data_from_presets(mesh, SPHERE, "equator_circle kappa=1",
                                      "harmonic", "constant value=0")


def _bump_data(mesh, amp=0.1):
    spec = f"sine_bump amplitude={amp}"
    return boundary_data_from_presets(mesh, TORUS, spec, spec, "constant value=0")


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(sigma=0.0)
        with pytest.raises(ValueError):
            StepperConfig(sigma=0.6)
        with pytest.raises(ValueError):
            StepperConfig(theta=0.3)
        with pytest.raises(ValueError):
            StepperConfig(theta=1.1)

    def test_dt_policy(self):
        cfg = StepperConfig(sigma=0.2)
        assert cfg.dt_initial(0.1) == pytest.approx(0.02)
        assert cfg.dt_min(0.1) == pytest.approx(1e-6 * 0.01)


class TestInitialState:
    def test_rejects_off_target_map(self, square16):
        bd = boundary_data_from_presets(square16, SPHERE, "north_pole",
                                        "north_pole", "constant value=0")
        bd.phi0 = 2.0 * bd.phi0
        with pytest.raises(ValueError, match="target"):
            initial_state(square16, SPHERE, UNIT_WARP, bd, StepperConfig())

    def test_rejects_boundary_mismatch(self, square16):
        bd = _bump_data(square16)
        bd.phi0 = bd.phi0.copy()
        bd.phi0[np.flatnonzero(square16.boundary)[0]] += 1e-12
        with pytest.raises(ValueError, match="boundary"):
            initial_state(square16, TORUS, UNIT_WARP, bd, StepperConfig())

    def test_potential_solves_elliptic_problem(self, square16):
        warp = WarpFunction("linear_height", 2.0, 1.0)
        bd = boundary_data_from_presets(square16, SPHERE, "equator_circle kappa=1",
                                        "harmonic", "linear_x")
        st = initial_state(square16, SPHERE, warp, bd, StepperConfig())
        from warpflow.mesh import assemble_weighted_stiffness
        K = assemble_weighted_stiffness(square16, warp.beta(st.u))
        assert np.max(np.abs((K @ st.v)[square16.interior])) < 1e-8
        assert np.array_equal(st.v[square16.boundary],
                              bd.psi[square16.boundary])
        assert st.dt == pytest.approx(0.2 * square16.target_h)

    def test_step_rejects_nonpositive_dt(self, square16):
        bd = _bump_data(square16)
        cfg = StepperConfig()
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        with pytest.raises(ValueError):
            step(st, cfg, dt=0.0)


class TestFixedPoints:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_constant_map_is_exactly_stationary(self, square16, theta):
        cfg = StepperConfig(theta=theta)
        bd = boundary_data_from_presets(square16, SPHERE, "north_pole",
                                        "north_pole", "constant value=0")
        st = initial_state(square16, SPHERE, UNIT_WARP, bd, cfg)
        u0 = st.u.copy()
        for _ in range(5):
            st = step(st, cfg)
        assert np.array_equal(st.u, u0)
        assert dirichlet_energy(square16, st.u) == 0.0

    def test_geodesic_interpolant_has_zero_tension(self):
        # (cos x, sin x, 0) interpolated on the structured square: the discrete
        # Laplacian is purely radial, so the tangential tension vanishes
        for h in (1.0 / 16.0, 1.0 / 32.0):
            m = build_mesh("square", h)
            bd = boundary_data_from_presets(m, SPHERE, "equator_circle kappa=1",
                                            "constant value=1,0,0",
                                            "constant value=0")
            x = m.vertices[:, 0]
            bd.phi0 = np.column_stack([np.cos(x), np.sin(x),
                                       np.zeros(m.num_vertices)])
            st = initial_state(m, SPHERE, UNIT_WARP, bd, StepperConfig())
            assert tension_residual(st)[1] < 1e-10


class TestStepMechanics:
    def test_schemes_agree_to_second_order_in_dt(self, square16):
        # one step of Crank-Nicolson (theta = 1/2) and of backward Euler
        # (theta = 1) differ by O(dt^2)
        bd = _bump_data(square16)
        diffs = []
        for dt in (1e-4, 5e-5):
            us = []
            for theta in (0.5, 1.0):
                cfg = StepperConfig(theta=theta)
                us.append(step(initial_state(square16, TORUS, UNIT_WARP, bd, cfg),
                               cfg, dt=dt).u)
            diffs.append(np.max(np.abs(us[0] - us[1])))
        assert diffs[0] < 5e-7
        assert 3.5 <= diffs[0] / diffs[1] <= 4.5

    def test_sphere_constraint_enforced(self, square16):
        cfg = StepperConfig()
        bd = boundary_data_from_presets(square16, SPHERE,
                                        "equator_circle kappa=1", "harmonic",
                                        "constant value=0")
        st = initial_state(square16, SPHERE, UNIT_WARP, bd, cfg)
        for _ in range(10):
            st = step(st, cfg)
        assert np.max(np.abs(np.linalg.norm(st.u, axis=1) - 1.0)) < 1e-12

    def test_boundary_rows_pinned(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16, amp=0.2)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        for _ in range(5):
            st = step(st, cfg, dt=2e-3)
        b = square16.boundary
        assert np.array_equal(st.u[b], bd.phi[b])

    def test_move_cap_rejection(self, square16):
        bd = _bump_data(square16, amp=0.4)
        cfg = StepperConfig(max_move_fraction=1e-6)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        with pytest.raises(StepRejected):
            step(st, cfg, dt=0.01)
        assert st.ctx.stats["rejected_steps"] == 1
        assert st.ctx.stats["rejections"] == {"move_cap": 1, "projection": 0}

    def test_constant_warp_reuses_potential(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        solves0 = st.ctx.stats["elliptic_solves"]
        st2 = step(st, cfg, dt=2e-3)
        assert st2.v is st.v
        assert st.ctx.stats["elliptic_solves"] == solves0

    def test_varying_warp_resolves_potential(self, square16):
        warp = WarpFunction("linear_height", 2.0, 1.0)
        cfg = StepperConfig()
        bd = boundary_data_from_presets(square16, SPHERE,
                                        "equator_circle kappa=1", "harmonic",
                                        "linear_x")
        st = initial_state(square16, SPHERE, warp, bd, cfg)
        solves0 = st.ctx.stats["elliptic_solves"]
        step(st, cfg)
        assert st.ctx.stats["elliptic_solves"] == solves0 + 1

    def test_only_a_varying_warp_factors_the_potential(self, square16, monkeypatch):
        factored = []
        real_splu = warpflow.elliptic.splu
        monkeypatch.setattr(warpflow.elliptic, "splu",
                            lambda *a, **k: factored.append(1) or real_splu(*a, **k))
        cfg = StepperConfig()
        bd = boundary_data_from_presets(square16, SPHERE, "equator_circle kappa=1",
                                        "harmonic", "linear_x")
        st = initial_state(square16, SPHERE, UNIT_WARP, bd, cfg)
        for _ in range(3):
            st = step(st, cfg, dt=1e-3)
        assert st.ctx.potential is None and factored == []
        st = initial_state(square16, SPHERE, WarpFunction("linear_height", 2.0, 1.0),
                           bd, cfg)
        for _ in range(3):
            st = step(st, cfg, dt=1e-3)
        assert st.ctx.stats["elliptic_solves"] == 4 and factored == [1]

    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_constant_warp_takes_the_psi_extension(self, disk16, monkeypatch, a):
        solves = []
        real = warpflow.flow.solve_warped_laplace
        monkeypatch.setattr(warpflow.flow, "solve_warped_laplace",
                            lambda *args, **kw: solves.append(1) or real(*args, **kw))
        cfg = StepperConfig()
        bd = boundary_data_from_presets(disk16, SPHERE, "north_pole", "harmonic",
                                        "cos_theta scale=2")
        st = initial_state(disk16, SPHERE, WarpFunction("constant", a), bd, cfg)
        assert np.any(bd.psi_ext != 0.0)
        assert np.array_equal(st.v, bd.psi_ext)
        st = step(st, cfg, dt=1e-3)
        assert np.array_equal(st.v, bd.psi_ext)
        assert st.ctx.stats["elliptic_solves"] == 0 and solves == []

    def test_only_the_cfl_key_is_factored_from_its_second_time_level(
            self, square16, monkeypatch):
        factored = []
        real_splu = warpflow.flow.splu
        monkeypatch.setattr(warpflow.flow, "splu",
                            lambda *a, **k: factored.append(1) or real_splu(*a, **k))
        cfg = StepperConfig()
        st = initial_state(square16, SPHERE, UNIT_WARP, _geodesic_data(square16), cfg)
        ctx, dt_cfl = st.ctx, cfg.dt_initial(square16.target_h)
        assert ctx.cfl_key == (dt_cfl, cfg.theta)
        # every other key: Jacobi CG on a matrix cached with its inverse diagonal
        # when dt is dt_cfl / 2^k, built for its one use otherwise
        A, M = ctx.step_matrix(dt_cfl / 8, cfg.theta)
        assert np.array_equal(M, 1.0 / A.diagonal())
        assert all(x is y for x, y in zip(ctx.step_matrix(dt_cfl / 8, cfg.theta), (A, M)))
        A, M = ctx.step_matrix(1e-3, cfg.theta)
        assert np.array_equal(M, 1.0 / A.diagonal())
        assert (1e-3, cfg.theta) not in ctx._step_mat

        def iterations_of(*args, **kwargs):
            before = ctx.stats["step_iterations"]
            new = step(*args, **kwargs)
            return new, ctx.stats["step_iterations"] - before

        st1, iters = iterations_of(st, cfg, dt=dt_cfl)
        assert iters > 0
        assert iterations_of(st, cfg, dt=dt_cfl)[1] > 0      # same time level: CG again
        assert factored == []
        st2, iters = iterations_of(st1, cfg, dt=dt_cfl)        # a second time level
        assert factored == [1] and iters == 0
        assert iterations_of(st2, cfg, dt=1e-3)[1] > 0
        assert iterations_of(st2, cfg, dt=dt_cfl)[1] == 0
        assert factored == [1]

    def test_factored_cfl_step_matches_the_cg_step(self, square16):
        cfg = StepperConfig()
        bd = _geodesic_data(square16)
        st = initial_state(square16, SPHERE, UNIT_WARP, bd, cfg)
        st1 = step(st, cfg)
        # a fresh context meets the CFL key for the first time: Jacobi CG
        fresh = initial_state(square16, SPHERE, UNIT_WARP, bd, cfg).ctx
        by_cg = step(replace(st1, ctx=fresh), cfg)
        iters = st.ctx.stats["step_iterations"]
        by_lu = step(st1, cfg)
        assert fresh.stats["step_iterations"] > 0
        assert st.ctx.stats["step_iterations"] == iters
        m = square16.lumped_mass
        diff = np.sqrt(np.dot(m, np.sum((by_lu.u - by_cg.u) ** 2, axis=1)))
        assert diff <= CG_RTOL * np.sqrt(np.dot(m, np.sum(by_cg.u ** 2, axis=1)))

    def test_projection_rejection_is_counted(self, square16):
        cfg = StepperConfig()
        st = initial_state(square16, SPHERE, UNIT_WARP, _geodesic_data(square16), cfg)
        # a map at the sphere center inside: a tiny step cannot leave it
        u = np.array(st.u)
        u[square16.interior] = 0.0
        st = replace(st, u=u)
        with pytest.raises(StepRejected, match="projection"):
            step(st, cfg, dt=1e-6)
        assert st.ctx.stats["rejected_steps"] == 1
        assert st.ctx.stats["rejections"] == {"move_cap": 0, "projection": 1}

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_non_finite_state_is_a_solver_failure(self, theta):
        flat = {**resolve_config("warp_coupled"), "mesh.h": "0.125",
                "stepper.theta": repr(theta)}
        setup = build_scenario(ScenarioConfig.from_flat(flat))
        st = initial_state(setup.mesh, setup.target, setup.warp, setup.bdata,
                           setup.stepper)
        u = np.array(st.u)
        u[setup.mesh.interior[len(setup.mesh.interior) // 2]] = np.nan
        st = replace(st, u=u)
        with pytest.raises(SolverFailure, match="non-finite") as info:
            step(st, setup.stepper)
        assert info.value.time == st.t


class TestRunFlow:
    def test_zero_horizon_returns_empty_series(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        fin, rep = run_flow(st, cfg, Schedule(t_end=0.0))
        assert fin is st
        assert rep.records == []
        assert rep.crossing_points == {}

    def test_heat_decay_rate(self, square16):
        # torus target, no curvature or warp force: each component obeys the
        # scalar heat equation; the bump mode decays like exp(-2 pi^2 t)
        cfg = StepperConfig(sigma=0.2)
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        fin, rep = run_flow(st, cfg, Schedule(t_end=0.05, diag_stride=1))
        ts = np.array([r.t for r in rep.records])
        es = np.array([r.e_u for r in rep.records])
        mask = (ts > 0.01) & (es > 1e-14)
        rate = -0.5 * np.polyfit(ts[mask], np.log(es[mask]), 1)[0]
        assert rate == pytest.approx(2.0 * np.pi ** 2, rel=0.02)

    def test_record_bookkeeping(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        thr = ThresholdConfig(energy=1e-3)
        fin, rep = run_flow(st, cfg, Schedule(t_end=0.02, diag_stride=2), thr)
        recs = rep.records
        assert recs[0].t == 0.0 and recs[0].step_count == 0
        assert recs[-1].step_count == fin.step_count
        assert fin.t == pytest.approx(0.02, abs=1e-12)
        ts = [r.t for r in recs]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        kin = sum(r.kinetic_increment for r in recs)
        assert recs[-1].kinetic_cum == pytest.approx(kin, rel=1e-12)
        # controller never exceeds its CFL value
        assert all(r.dt <= cfg.dt_initial(square16.target_h) + 1e-15 for r in recs)
        # crossings: the vertices above the threshold, the maximum among them
        assert recs[0].crossings and len(recs[0].crossings) < square16.num_vertices
        for r in recs:
            assert all(e > thr.energy for e in r.crossings.values())
            if r.crossings:
                assert r.crossings[r.max_local_vertex] == r.max_local_energy
            else:
                assert r.max_local_energy <= thr.energy
        assert rep.crossing_points == {
            c: list(square16.vertices[c]) for r in recs for c in r.crossings}
        assert rep.solver_stats["accepted_steps"] == fin.step_count

    def test_ball_probes_cover_doubled_radii(self, square16):
        cfg = StepperConfig()
        thresholds = ThresholdConfig(r_grid=(0.1, 0.2))
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        _, rep = run_flow(st, cfg, Schedule(t_end=0.005), thresholds)
        probes = rep.records[0].ball_probes
        assert len(probes) == len(default_probe_centers(square16))
        for per_center in probes.values():
            assert {0.1, 0.2, 0.4} <= set(per_center)
            assert per_center[0.1] <= per_center[0.2] + 1e-15

    def test_snapshot_callback_stride(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        seen = []
        sched = Schedule(t_end=0.01, snapshot_stride=3,
                         snapshot_cb=lambda s: seen.append(s.step_count))
        fin, _ = run_flow(st, cfg, sched)
        assert seen
        assert all(c % 3 == 0 for c in seen[:-1])
        assert seen[-1] == fin.step_count        # final state always snapshotted

    def test_underflow_is_recorded_and_survived(self, square16):
        bd = _bump_data(square16, amp=0.4)
        cfg = StepperConfig(max_move_fraction=1e-9)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        t_end = 3.0 * cfg.dt_min(square16.target_h)
        fin, rep = run_flow(st, cfg, Schedule(t_end=t_end))
        assert rep.underflow_times
        assert rep.underflow_times[0] == 0.0
        assert fin.t >= t_end - 1e-14

    def test_persistent_underflow_raises(self, square16):
        bd = _bump_data(square16, amp=0.4)
        cfg = StepperConfig(max_move_fraction=1e-9, max_forced_steps=2)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        with pytest.raises(SolverFailure):
            run_flow(st, cfg, Schedule(t_end=1.0))


class TestProbeCenters:
    def test_centers_are_valid_and_distinct(self, square16, disk16, annulus8):
        for m in (square16, disk16, annulus8):
            centers = default_probe_centers(m)
            assert len(centers) == len(set(centers))
            assert all(0 <= c < m.num_vertices for c in centers)


class TestCorotationalReduction:
    def test_initial_energy_matches_radial_quadrature(self):
        m = build_mesh("disk", 1.0 / 32.0)
        from warpflow.boundary import evaluate_map_preset
        u0 = evaluate_map_preset("corotational amplitude=1.0", SPHERE,
                                 m.vertices)
        e = dirichlet_energy(m, u0)
        assert e == pytest.approx(COROTATIONAL_ENERGY_AMP1, rel=4e-3)

    def test_flow_tracks_reduced_profile(self):
        # cheap spot check of the 1D oracle; the acceptance suite runs the
        # full-tolerance comparison at h = 1/32
        h = 1.0 / 16.0
        t_end = 0.01
        m = build_mesh("disk", h)
        bd = boundary_data_from_presets(m, SPHERE, "north_pole",
                                        "corotational amplitude=1.0",
                                        "constant value=0")
        cfg = StepperConfig(sigma=0.2)
        st = initial_state(m, SPHERE, UNIT_WARP, bd, cfg)
        fin, _ = run_flow(st, cfg, Schedule(t_end=t_end, diag_stride=10))
        nodes, prof = reduced_profile(1.0, t_end, m=1024, dt=5e-5)
        r = np.linalg.norm(m.vertices, axis=1)
        theta = np.arctan2(m.vertices[:, 1], m.vertices[:, 0])
        hr = np.interp(r, nodes, prof)
        expected = np.column_stack([np.sin(hr) * np.cos(theta),
                                    np.sin(hr) * np.sin(theta), np.cos(hr)])
        err = np.max(np.abs(fin.u - expected))
        assert err <= 5.0 * (h + cfg.dt_initial(h))


class TestMarch:
    def test_members_share_every_time_through_underflow(self, square16):
        cfg = StepperConfig(max_move_fraction=1e-9)
        states = [initial_state(square16, TORUS, UNIT_WARP,
                                _bump_data(square16, amp), cfg)
                  for amp in (0.4, 0.2)]
        t_end = 3.0 * cfg.dt_min(square16.target_h)
        steps = list(march(states, cfg, t_end))
        assert steps
        for members, dt, forced in steps:
            assert forced
            assert dt == cfg.dt_min(square16.target_h)
            assert members[0].t == members[1].t
            assert members[0].dt == members[1].dt == cfg.dt_initial(square16.target_h)
        assert steps[-1][0][0].t >= t_end - 1e-14

    def test_dt_grows_only_after_a_run_of_accepted_steps(self, monkeypatch):
        trials = []                       # (dt, accepted) of every trial step
        real_step = warpflow.flow.step

        def recording_step(state, config, dt=None, enforce_cap=True):
            try:
                new = real_step(state, config, dt=dt, enforce_cap=enforce_cap)
            except StepRejected:
                trials.append((dt, False))
                raise
            trials.append((dt, True))
            return new

        monkeypatch.setattr(warpflow.flow, "step", recording_step)
        flat = {**resolve_config("bubbling"), "mesh.h": "0.0625"}
        setup = build_scenario(ScenarioConfig.from_flat(flat))
        st = initial_state(setup.mesh, setup.target, setup.warp, setup.bdata,
                           setup.stepper)
        for _ in march([st], setup.stepper, 0.004):
            pass
        grown = [i for i in range(1, len(trials)) if trials[i][0] > trials[i - 1][0]]
        assert grown and any(not ok for _, ok in trials)
        for i in grown:
            assert i >= GROW_AFTER
            assert all(ok for _, ok in trials[i - GROW_AFTER:i]), i


class TestDerivedFields:
    """Each state's gradients and forcing are evaluated once, and only its own."""

    @staticmethod
    def _gradient_arguments(monkeypatch):
        seen = []                         # held, so no argument's id is reused
        real = DomainMesh.tri_gradients

        def counting(mesh, values):
            seen.append(values)
            return real(mesh, values)

        monkeypatch.setattr(DomainMesh, "tri_gradients", counting)
        return seen

    def test_retried_step_evaluates_the_forcing_once(self, square16, monkeypatch):
        cfg = StepperConfig(max_move_fraction=1e-3)
        st = initial_state(square16, TORUS, UNIT_WARP, _bump_data(square16, amp=0.4), cfg)
        seen = self._gradient_arguments(monkeypatch)
        with pytest.raises(StepRejected):
            step(st, cfg, dt=0.01)
        new = step(st, cfg, dt=1e-7)
        assert st.ctx.stats["rejections"]["move_cap"] == 1
        assert len(seen) == 1 and seen[0] is st.u
        for s in (st, new):               # every state's u and v are read-only
            for a in (s.u, s.v):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    @pytest.mark.parametrize("warp", [UNIT_WARP, WarpFunction("linear_height", 2.0, 1.0)])
    def test_records_and_steps_share_gradients(self, square16, monkeypatch, warp):
        cfg = StepperConfig()
        bd = boundary_data_from_presets(square16, SPHERE, "equator_circle kappa=1",
                                        "harmonic", "linear_x")
        st = initial_state(square16, SPHERE, warp, bd, cfg)
        seen = self._gradient_arguments(monkeypatch)
        states = [st]
        schedule = Schedule(t_end=4.0 * cfg.dt_initial(square16.target_h), diag_stride=1,
                            snapshot_stride=1, snapshot_cb=states.append)
        fin, rep = run_flow(st, cfg, schedule)
        assert fin.step_count >= 4 and len(rep.records) == fin.step_count + 1
        # every state was recorded and all but the last stepped from, yet
        # each u and each v (one for all states under a constant warp)
        # reached the gradient operator once
        for s in states:
            assert sum(x is s.u for x in seen) == 1
            assert sum(x is s.v for x in seen) == 1
        assert (fin.v is st.v) == (warp is UNIT_WARP)

    def test_replaced_state_does_not_inherit_the_cache(self, square16):
        cfg = StepperConfig()
        st = initial_state(square16, SPHERE, UNIT_WARP, _geodesic_data(square16), cfg)
        F = _forcing(st)
        rng = np.random.default_rng(5)
        w = SPHERE.project_tangent(st.u, rng.standard_normal(st.u.shape))
        w[square16.boundary] = 0.0
        pert = replace(st, u=SPHERE.project_field(st.u + 1e-3 * w))
        assert pert.cache == {}
        assert not np.array_equal(_forcing(pert), F)
        assert np.array_equal(_forcing(replace(st, u=np.array(st.u))), F)
