import math
from dataclasses import fields, replace

import numpy as np
import pytest

import warpflow.elliptic
import warpflow.flow
from brute_force import reference_step, weighted_stiffness
from oracle_corotational import reduced_profile
from warpflow.boundary import BoundaryData, boundary_data_from_presets
from warpflow.diagnostics import (ThresholdConfig, energy_functionals, inequality_suite,
                                  mono_tolerance)
from warpflow.elliptic import CG_RTOL
from warpflow.elliptic import solve_warped_laplace
from warpflow.errors import NonPositiveCoefficient, SolverFailure, StepRejected
from warpflow.flow import (FACTOR_ITERS, LU_COL_ITERS, Schedule,
                           StepperConfig, _forcing, default_probe_centers, initial_state,
                           march, run_flow, step, tension_residual)
from warpflow.geometry import WarpFunction, make_target, warp_force
from warpflow.mesh import DomainMesh, build_mesh, dirichlet_energy, triangle_mean
from warpflow.scenario import ScenarioConfig, build_scenario, resolve_config, run_scenario

SPHERE = make_target("sphere")
TORUS = make_target("torus")
UNIT_WARP = WarpFunction("constant", 1.0)

# frozen: pi * int (h'^2 + sin^2(h)/r^2) r dr for h(r) = sin(pi r), adaptive
# quadrature on the radial form of the corotational Dirichlet energy
COROTATIONAL_ENERGY_AMP1 = 10.799779675392465


def _geodesic_data(mesh):
    return boundary_data_from_presets(mesh, SPHERE, "equator_circle kappa=1",
                                      "harmonic", "constant value=0")


def _geodesic_start(mesh):
    return initial_state(mesh, SPHERE, UNIT_WARP, _geodesic_data(mesh), StepperConfig())


def _paid(ctx, dt):
    """Whether the CG excess at dt pays for a factor at its next new time level."""
    return ctx._excess.get(dt, 0) >= ctx._excess.get(ctx._lu_dt, 0) + FACTOR_ITERS


def _earn_a_factor(state, dt):
    """The state one step at dt on, once the key has paid for a factor.

    `state`'s time level is solved again at dt until the excess pays (a
    converging flow may never pay by new levels alone), so the next step at
    dt, from a new time level, builds the factor."""
    nxt = step(state, dt=dt)
    for _ in range(100):
        if _paid(state.ctx, dt):
            return nxt
        step(state, dt=dt)
    raise AssertionError(f"no factor paid for at dt = {dt} after 100 solves")


def _counted_splu(monkeypatch):
    """A list that gains one entry per step factor built."""
    factored = []
    real_splu = warpflow.flow.splu
    monkeypatch.setattr(warpflow.flow, "splu",
                        lambda *a, **k: factored.append(1) or real_splu(*a, **k))
    return factored


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
        m = build_mesh("square", 0.1)
        bd = _bump_data(m)
        ctx = initial_state(m, TORUS, UNIT_WARP, bd, StepperConfig(sigma=0.2)).ctx
        assert m.target_h == 0.1
        assert ctx.dt_cfl == pytest.approx(0.02)
        assert ctx.dt_min == pytest.approx(1e-6 * 0.01)


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
        K = weighted_stiffness(square16, warp.beta(st.u))
        assert np.max(np.abs((K @ st.v)[square16.interior])) < 1e-8
        assert np.array_equal(st.v[square16.boundary],
                              bd.psi[square16.boundary])
        # no step made the initial state; a step takes the CFL dt by default
        assert (st.t, st.last_dt, st.last_rate) == (0.0, 0.0, 0.0)
        assert step(st).last_dt == st.ctx.dt_cfl == pytest.approx(0.2 * square16.target_h)

    def test_step_rejects_nonpositive_dt(self, square16):
        bd = _bump_data(square16)
        cfg = StepperConfig()
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        with pytest.raises(ValueError):
            step(st, dt=0.0)


class TestFixedPoints:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_constant_map_is_exactly_stationary(self, square16, theta):
        cfg = StepperConfig(theta=theta)
        bd = boundary_data_from_presets(square16, SPHERE, "north_pole",
                                        "north_pole", "constant value=0")
        st = initial_state(square16, SPHERE, UNIT_WARP, bd, cfg)
        u0 = st.u.copy()
        for _ in range(5):
            st = step(st)
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
                               dt=dt).u)
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
            st = step(st)
        assert np.max(np.abs(np.linalg.norm(st.u, axis=1) - 1.0)) < 1e-12

    def test_boundary_rows_pinned(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16, amp=0.2)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        for _ in range(5):
            st = step(st, dt=2e-3)
        b = square16.boundary
        assert np.array_equal(st.u[b], bd.phi[b])

    def test_move_cap_rejection(self, square16):
        bd = _bump_data(square16, amp=0.4)
        cfg = StepperConfig(max_move_fraction=1e-6)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        with pytest.raises(StepRejected):
            step(st, dt=0.01)
        assert st.ctx.stats["rejected_steps"] == 1
        assert st.ctx.stats["rejections"] == {"move_cap": 1, "projection": 0}

    def test_constant_warp_reuses_potential(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        solves0 = st.ctx.stats["elliptic_solves"]
        st2 = step(st, dt=2e-3)
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
        step(st)
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
            st = step(st, dt=1e-3)
        assert st.ctx.potential is None and factored == []
        st = initial_state(square16, SPHERE, WarpFunction("linear_height", 2.0, 1.0),
                           bd, cfg)
        for _ in range(3):
            st = step(st, dt=1e-3)
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
        st = step(st, dt=1e-3)
        assert np.array_equal(st.v, bd.psi_ext)
        assert st.ctx.stats["elliptic_solves"] == 0 and solves == []

    def test_a_cheap_key_is_never_factored(self, square16, monkeypatch):
        factored = _counted_splu(monkeypatch)
        st = _geodesic_start(square16)
        ctx = st.ctx
        # every dt: Jacobi CG on its matrix and inverse diagonal, kept while
        # the solves stay at that dt
        dt = ctx.dt_cfl / 64
        A, M = ctx.step_matrix(dt)
        assert np.array_equal(M, 1.0 / A.diagonal())
        st = step(st, dt=dt)
        kept = ctx._cg
        assert ctx._cg_dt == dt and (kept[0] != A).nnz == 0
        assert np.array_equal(kept[1], M)
        # at most LU_COL_ITERS CG iterations a column: the excess never grows,
        # however many time levels the key serves
        for _ in range(39):
            st = step(st, dt=dt)
            assert ctx._cg is kept
        assert 0 < ctx.stats["step_iterations"] <= LU_COL_ITERS * 3 * 40
        assert factored == [] and ctx.stats["step_factors"] == 0

    def test_an_off_ladder_step_is_never_factored(self, square16, monkeypatch):
        factored = _counted_splu(monkeypatch)
        st = _geodesic_start(square16)
        ctx = st.ctx
        dt = 0.4 * ctx.dt_cfl                      # a last step clipped to land on t_end
        nxt = _earn_a_factor(st, dt)
        before = ctx.stats["step_iterations"]
        step(nxt, dt=dt)                           # a new time level: CG all the same
        assert ctx.stats["step_iterations"] > before and ctx._cg_dt == dt
        assert factored == [] and ctx._lu is None

    def test_a_key_is_factored_at_the_first_new_time_level_after_its_excess_pays(
            self, square16, monkeypatch):
        factored = _counted_splu(monkeypatch)
        st = _geodesic_start(square16)
        ctx, dt = st.ctx, st.ctx.dt_cfl

        def iterations_of(state):
            before = ctx.stats["step_iterations"]
            new = step(state, dt=dt)
            return new, ctx.stats["step_iterations"] - before

        states = [st]
        while not _paid(ctx, dt):                  # a new time level a step
            assert factored == [] and len(states) < 50
            states.append(iterations_of(states[-1])[0])
        assert len(states) > 2                     # levels before the excess paid
        solves = len(states) - 1
        assert ctx._excess[dt] == ctx.stats["step_iterations"] - LU_COL_ITERS * 3 * solves
        assert iterations_of(states[-2])[1] > 0    # the same time level: CG again
        assert factored == []
        nxt, iters = iterations_of(states[-1])     # the next new time level
        assert factored == [1] and iters == 0 and ctx.stats["step_factors"] == 1
        assert ctx._lu_dt == dt and ctx._cg is None
        assert iterations_of(nxt)[1] == 0
        before = ctx.stats["step_iterations"]
        step(nxt, dt=dt / 2)                       # another key: CG
        assert ctx.stats["step_iterations"] > before and factored == [1]
        assert ctx._cg_dt == dt / 2 and ctx._lu_dt == dt

    def test_factored_step_matches_the_cg_step(self, square16):
        st = _geodesic_start(square16)
        dt = st.ctx.dt_cfl / 2
        st = _earn_a_factor(st, dt)
        # a fresh context has no CG excess at dt: Jacobi CG
        fresh = _geodesic_start(square16).ctx
        by_cg = step(replace(st, ctx=fresh), dt=dt)
        iters = st.ctx.stats["step_iterations"]
        by_lu = step(st, dt=dt)
        assert st.ctx.stats["step_factors"] == 1 and fresh.stats["step_factors"] == 0
        assert fresh.stats["step_iterations"] > 0
        assert st.ctx.stats["step_iterations"] == iters
        m = square16.lumped_mass
        diff = np.sqrt(np.dot(m, np.sum((by_lu.u - by_cg.u) ** 2, axis=1)))
        assert diff <= CG_RTOL * np.sqrt(np.dot(m, np.sum(by_cg.u ** 2, axis=1)))

    def test_a_switch_drops_the_old_factor_and_the_matrix_before_factoring(
            self, square16, monkeypatch):
        st = _geodesic_start(square16)
        ctx, a, b = st.ctx, st.ctx.dt_cfl, st.ctx.dt_cfl / 2
        held = []                  # (factor held, CG matrix held) at each build
        real_splu = warpflow.flow.splu
        monkeypatch.setattr(warpflow.flow, "splu", lambda *args, **kw: held.append(
            (ctx._lu, ctx._cg)) or real_splu(*args, **kw))
        st = step(_earn_a_factor(st, a), dt=a)
        assert ctx._lu_dt == a
        st = step(_earn_a_factor(st, b), dt=b)     # b's excess beat a's by FACTOR_ITERS
        assert ctx._lu_dt == b and ctx.stats["step_factors"] == len(held) == 2
        assert ctx._excess[b] >= ctx._excess[a] + FACTOR_ITERS
        # neither a factor nor a CG matrix is held while a factor is built
        assert held == [(None, None), (None, None)] and ctx._cg is None
        # the old key is back on Jacobi CG, on its matrix built again
        before = ctx.stats["step_iterations"]
        step(st, dt=a)
        assert ctx.stats["step_iterations"] > before and ctx._cg_dt == a

    def test_zero_delta_pair_stays_identical_across_a_factor_switch(self, square16):
        # the two members of a delta = 0 twin pair on one context, stepped in
        # lockstep as march steps them: the first member's solve decides for
        # the time level, so both solve alike through every build
        st = _geodesic_start(square16)
        ctx = st.ctx

        def lockstep(pair, dt):
            new = [step(s, dt=dt) for s in pair]
            assert new[0].t == new[1].t and np.array_equal(new[0].u, new[1].u)
            return new

        pair = [st, ctx.start(st.u)]
        for dt in (ctx.dt_cfl, ctx.dt_cfl / 2):
            nxt = lockstep(pair, dt)
            for _ in range(100):
                if _paid(ctx, dt):
                    break
                lockstep(pair, dt)                 # the same time level again
            pair = nxt
            for _ in range(3):                     # the first builds the factor
                pair = lockstep(pair, dt)
            assert ctx._lu_dt == dt
        assert ctx.stats["step_factors"] == 2
        for _ in range(3):                         # the CFL key is back on CG
            pair = lockstep(pair, ctx.dt_cfl)

    def test_projection_rejection_is_counted(self, square16):
        cfg = StepperConfig()
        st = initial_state(square16, SPHERE, UNIT_WARP, _geodesic_data(square16), cfg)
        # a map at the sphere center inside: a tiny step cannot leave it
        u = np.array(st.u)
        u[square16.interior] = 0.0
        st = replace(st, u=u)
        with pytest.raises(StepRejected, match="projection"):
            step(st, dt=1e-6)
        assert st.ctx.stats["rejected_steps"] == 1
        assert st.ctx.stats["rejections"] == {"move_cap": 0, "projection": 1}

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_non_finite_state_is_a_solver_failure(self, theta):
        flat = {**resolve_config("warp_coupled"), "mesh.h": "0.125",
                "stepper.theta": repr(theta)}
        st, _ = build_scenario(ScenarioConfig.from_flat(flat))
        u = np.array(st.u)
        u[st.mesh.interior[len(st.mesh.interior) // 2]] = np.nan
        st = replace(st, u=u)
        with pytest.raises(SolverFailure, match="non-finite") as info:
            step(st)
        assert info.value.time == st.t


class TestReferenceStep:
    """flow.step is bitwise the step of tests/brute_force.py's formulation."""

    @staticmethod
    def _start(case, square16, disk16, theta):
        cfg = StepperConfig(theta=theta)
        if case == "sphere_disk":
            bd = boundary_data_from_presets(disk16, SPHERE, "north_pole",
                                            "corotational amplitude=0.1", "cos_theta scale=2")
            return initial_state(disk16, SPHERE, WarpFunction("linear_height", 2.0, 1.0),
                                 bd, cfg)
        # a linear trace and a bump that is no eigenvector of K, so the step
        # CG takes enough iterations to pay for a factor
        x, y = square16.vertices.T
        phi = 0.2 * square16.vertices
        bump = (x * (1.0 - x) * y * (1.0 - y))[:, None] * np.array([1.0, -0.5])
        bd = BoundaryData.build(square16, TORUS, phi, phi + bump, 0.25 * x)
        warp = UNIT_WARP if case == "torus_square" else WarpFunction("sinusoidal", 2.0, 1.0)
        return initial_state(square16, TORUS, warp, bd, cfg)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["sphere_disk", "torus_square", "torus_square_warped"])
    def test_step_matches_the_reference_bitwise(self, square16, disk16, case, theta):
        st = self._start(case, square16, disk16, theta)
        ctx, dt = st.ctx, st.ctx.dt_cfl / 4

        def check(s):
            # both at one time level on one context: they solve alike
            new = step(s, dt=dt)
            u, v, move, rate = reference_step(s, dt)
            assert np.array_equal(new.u, u) and np.array_equal(new.v, v)
            assert (new.last_move, new.last_rate) == (move, rate)
            return new

        st = check(st)                           # Jacobi CG
        st = check(_earn_a_factor(st, dt))       # builds the factor
        assert ctx.stats["step_factors"] >= 1 and ctx._lu_dt == dt
        check(st)                                # on the bought factor


class TestPotential:
    """A varying warp's potential: warm-started solves and one beta per state."""

    WARP = WarpFunction("linear_height", 2.0, 1.0)

    def _start(self, mesh):
        bd = boundary_data_from_presets(mesh, SPHERE, "equator_circle kappa=1", "harmonic",
                                        "linear_x")
        return initial_state(mesh, SPHERE, self.WARP, bd, StepperConfig()), bd

    def test_warm_started_potential_matches_a_cold_solve(self, square16, monkeypatch):
        starts = []
        real = warpflow.flow.solve_warped_laplace
        monkeypatch.setattr(warpflow.flow, "solve_warped_laplace",
                            lambda *a, **k: starts.append(k["x0"]) or real(*a, **k))
        st0, bd = self._start(square16)
        dt = st0.ctx.dt_cfl
        st1 = step(st0, dt=dt)
        st2 = step(st1, dt=dt / 2)
        # the first step starts from v^n; the next from v^n + (dt / dt_prev)(v^n - v^(n-1))
        assert starts[0] is None and starts[1] is st0.v
        assert np.array_equal(starts[2], st1.v + 0.5 * (st1.v - st0.v))
        for st in (st1, st2):
            cold = solve_warped_laplace(square16, self.WARP.beta(st.u), bd.psi).v
            assert np.linalg.norm(st.v - cold) <= 10 * CG_RTOL * np.linalg.norm(cold)

    def test_each_state_forms_its_beta_once(self, square16, monkeypatch):
        used = []                                 # the beta of every potential solve
        real_solve = warpflow.flow.solve_warped_laplace
        monkeypatch.setattr(warpflow.flow, "solve_warped_laplace",
                            lambda *a, **k: used.append(k["beta_tri"]) or real_solve(*a, **k))
        st, _ = self._start(square16)
        seen = []
        real = self.WARP.beta
        monkeypatch.setattr(self.WARP, "beta", lambda y: seen.append(y) or real(y))
        states = [st]
        schedule = Schedule(t_end=4.0 * st.ctx.dt_cfl, diag_stride=1,
                            snapshot_stride=1, snapshot_cb=states.append)
        fin, rep = run_flow(st, schedule)
        assert fin.step_count >= 4 and len(rep.records) == fin.step_count + 1
        assert [s.step_count for s in states] == list(range(fin.step_count + 1))
        # the initial state's beta came from its solve, before `seen`; every
        # later state's from the solve of the step that made it, which the
        # record then reads from the state's cache
        assert len(used) == fin.step_count + 1
        for s in states:
            assert sum(y is s.u for y in seen) == (s is not st)
            beta = s.cache["beta_tri"]
            assert beta is used[s.step_count]
            assert np.array_equal(beta, triangle_mean(square16, real(s.u)))
            with pytest.raises(ValueError):
                beta[0] = 0.0

    def test_nonpositive_beta_is_refused(self, square16):
        st, _ = self._start(square16)
        far = np.array(st.u)
        far[:, 2] = -10.0                         # beta = 2 + y_3 < 0 off the sphere
        bad = replace(st, u=far)
        with pytest.raises(NonPositiveCoefficient):
            bad.beta_tri()
        with pytest.raises(NonPositiveCoefficient):
            energy_functionals(bad)

    def test_warp_coupled_potential_iterations_are_pinned(self):
        # 94 with each solve started from the last potential, 81 extrapolated
        stats = run_scenario("warp_coupled", write_artifacts=False).report.solver_stats
        assert (stats["elliptic_solves"], stats["elliptic_iterations"]) == (41, 81)


class TestRunFlow:
    def test_zero_horizon_returns_empty_series(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        fin, rep = run_flow(st, Schedule(t_end=0.0))
        assert fin is st
        assert rep.records == []
        assert rep.crossing_points == {}

    def test_heat_decay_rate(self, square16):
        # torus target, no curvature or warp force: each component obeys the
        # scalar heat equation; the bump mode decays like exp(-2 pi^2 t)
        cfg = StepperConfig(sigma=0.2)
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        fin, rep = run_flow(st, Schedule(t_end=0.05, diag_stride=1))
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
        states = []
        fin, rep = run_flow(st, Schedule(t_end=0.02, diag_stride=2, snapshot_stride=1,
                                         snapshot_cb=states.append), thr)
        recs = rep.records
        assert recs[0].t == 0.0 and recs[0].step_count == 0
        assert recs[-1].step_count == fin.step_count
        assert fin.t == pytest.approx(0.02, abs=1e-12)
        ts = [r.t for r in recs]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        # the kinetic integral sums every step, recorded or not
        kin = sum(s.last_rate ** 2 * s.last_dt for s in states)
        assert recs[-1].kinetic_cum == pytest.approx(kin, rel=1e-12)
        # no step exceeds the CFL value
        assert recs[0].dt == 0.0
        assert all(0.0 < r.dt <= st.ctx.dt_cfl + 1e-15 for r in recs[1:])
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
        _, rep = run_flow(st, Schedule(t_end=0.005), thresholds)
        probes = rep.records[0].ball_probes
        assert len(probes) == len(default_probe_centers(square16))
        for per_center in probes.values():
            assert {0.1, 0.2, 0.4} <= set(per_center)
            assert per_center[0.1] <= per_center[0.2] + 1e-15

    def test_snapshot_callback_stride(self, square16):
        cfg = StepperConfig()
        bd = _bump_data(square16)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        for stride in (3, 1):
            seen = []
            sched = Schedule(t_end=0.01, snapshot_stride=stride,
                             snapshot_cb=lambda s: seen.append(s.step_count))
            fin, _ = run_flow(st, sched)
            assert seen
            assert all(c % stride == 0 for c in seen[:-1])
            assert seen[-1] == fin.step_count    # final state always snapshotted
            assert len(set(seen)) == len(seen)   # and only once
        # stride 1 divides the final count: every state once, in order
        assert seen == list(range(1, fin.step_count + 1))

    @staticmethod
    def _scripted_run(square16, monkeypatch):
        """(report, {step count: dt of the step that made it}) of a run with a
        grown step, a forced dt_min step and a last step clipped to t_end.

        The CFL step is never taken, the first step is at most dt_cfl / 4,
        and every capped trial from the state after three steps is refused."""
        st = initial_state(square16, TORUS, UNIT_WARP, _bump_data(square16), StepperConfig())
        dt_cfl, taken = st.ctx.dt_cfl, {}
        real_step = warpflow.flow.step

        def scripted_step(state, dt=None, enforce_cap=True):
            if enforce_cap and (dt == dt_cfl or state.step_count == 3
                                or (state.step_count == 0 and dt > dt_cfl / 4)):
                raise StepRejected("scripted")
            new = real_step(state, dt=dt, enforce_cap=enforce_cap)
            taken[new.step_count] = dt
            return new

        monkeypatch.setattr(warpflow.flow, "step", scripted_step)
        _, rep = run_flow(st, Schedule(t_end=3.3 * dt_cfl, diag_stride=1))
        dts = list(taken.values())
        assert rep.underflow_times and st.ctx.dt_min in dts
        assert any(b == 2.0 * a for a, b in zip(dts, dts[1:]))          # grown
        assert math.frexp(dt_cfl / dts[-1])[0] != 0.5                   # clipped
        assert dt_cfl not in dts
        return rep, taken

    def test_each_record_holds_the_dt_of_the_step_that_made_it(self, square16, monkeypatch):
        rep, taken = self._scripted_run(square16, monkeypatch)
        recs = rep.records
        assert [r.step_count for r in recs] == list(range(len(taken) + 1))
        assert recs[0].dt == 0.0 and recs[0].rate_l2 == 0.0
        assert all(r.dt == taken[r.step_count] for r in recs[1:])

    def test_monotonicity_tolerance_is_that_of_the_steps_taken(self, square16, monkeypatch):
        rep, taken = self._scripted_run(square16, monkeypatch)
        checks = inequality_suite(rep.records, rep.bounds, rep.thresholds)
        mono = next(c for c in checks if c.name == "energy_monotonicity")
        e_g0 = rep.records[0].e_g
        assert mono.passed and mono.tolerance == max(
            mono_tolerance(dt, rep.bounds.h, e_g0) for dt in taken.values())

    def test_underflow_is_recorded_and_survived(self, square16):
        bd = _bump_data(square16, amp=0.4)
        cfg = StepperConfig(max_move_fraction=1e-9)
        for stride in (1, 2):
            st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
            t_end = 3.0 * st.ctx.dt_min
            fin, rep = run_flow(st, Schedule(t_end=t_end, diag_stride=stride))
            assert rep.underflow_times
            assert rep.underflow_times[0] == 0.0
            assert fin.t >= t_end - 1e-14
            # the state a forced step started from is recorded once
            counts = [r.step_count for r in rep.records]
            assert counts[0] == 0 and counts[-1] == fin.step_count
            assert all(b > a for a, b in zip(counts, counts[1:])), counts

    def test_persistent_underflow_raises(self, square16, monkeypatch):
        monkeypatch.setattr(warpflow.flow, "MAX_FORCED_STEPS", 2)
        bd = _bump_data(square16, amp=0.4)
        cfg = StepperConfig(max_move_fraction=1e-9)
        st = initial_state(square16, TORUS, UNIT_WARP, bd, cfg)
        with pytest.raises(SolverFailure):
            run_flow(st, Schedule(t_end=1.0))


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
        fin, _ = run_flow(st, Schedule(t_end=t_end, diag_stride=10))
        nodes, prof = reduced_profile(1.0, t_end, m=1024, dt=5e-5)
        r = np.linalg.norm(m.vertices, axis=1)
        theta = np.arctan2(m.vertices[:, 1], m.vertices[:, 0])
        hr = np.interp(r, nodes, prof)
        expected = np.column_stack([np.sin(hr) * np.cos(theta),
                                    np.sin(hr) * np.sin(theta), np.cos(hr)])
        err = np.max(np.abs(fin.u - expected))
        assert err <= 5.0 * (h + st.ctx.dt_cfl)


class TestTimeOrder:
    """Final-map errors at a fixed dt = sigma h (h = 1/32, t = 0.05, every step
    under the move cap), against a run at an eighth of the smallest dt.

    Without forcing (heat_decay) theta = 1/2 is second order; with the
    explicit forcing, its potential lagged one step, warp_coupled is first
    order for either theta.  warp_coupled's fixed dt pays for a step factor
    within a few steps, so the factored solve carries most of its steps."""

    @staticmethod
    def _errors(name, theta, sigmas):
        t_end = 0.05

        def final(sigma):
            flat = {**resolve_config(name), "mesh.h": "0.03125",
                    "stepper.sigma": repr(sigma), "stepper.theta": repr(theta)}
            st, _ = build_scenario(ScenarioConfig.from_flat(flat))
            for _ in range(round(t_end / st.ctx.dt_cfl)):
                st = step(st)                      # a rejection raises
            assert st.t == pytest.approx(t_end, rel=1e-12)
            return st

        ref = final(sigmas[-1] / 8)
        m, runs = ref.mesh.lumped_mass, [final(s) for s in sigmas]
        errs = [math.sqrt(np.dot(m, np.sum((r.u - ref.u) ** 2, axis=1))) for r in runs]
        factors = [r.ctx.stats["step_factors"] for r in runs]
        return [a / b for a, b in zip(errs, errs[1:])], factors

    def test_crank_nicolson_is_second_order_without_forcing(self):
        ratios, _ = self._errors("heat_decay", 0.5, (0.05, 0.025, 0.0125))
        assert all(3.6 <= r <= 4.4 for r in ratios), ratios     # measured ~4.0

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_forced_flow_is_first_order(self, theta):
        ratios, factors = self._errors("warp_coupled", theta, (0.2, 0.1, 0.05, 0.025))
        assert all(1.5 <= r <= 2.5 for r in ratios), ratios     # measured 1.69-2.13
        assert factors == [1, 1, 1, 1]


class TestMarch:
    def test_members_share_every_time_through_underflow(self, square16, monkeypatch):
        trials = []                     # (t, dt, enforce_cap) of every trial step
        real_step = warpflow.flow.step

        def recording_step(state, dt=None, enforce_cap=True):
            trials.append((state.t, dt, enforce_cap))
            return real_step(state, dt=dt, enforce_cap=enforce_cap)

        monkeypatch.setattr(warpflow.flow, "step", recording_step)
        cfg = StepperConfig(max_move_fraction=1e-9)
        states = [initial_state(square16, TORUS, UNIT_WARP,
                                _bump_data(square16, amp), cfg)
                  for amp in (0.4, 0.2)]
        ctx = states[0].ctx
        t_end = 3.0 * ctx.dt_min
        steps = list(march(states, t_end))
        assert steps
        for members, forced in steps:
            assert forced
            assert members[0].t == members[1].t
            assert members[0].last_dt == members[1].last_dt == ctx.dt_min
        assert steps[-1][0][0].t >= t_end - 1e-14
        # the march starts at the CFL step and restarts there after each
        # forced step, clipped to land on t_end
        restarts = [b for a, b in zip(trials, trials[1:]) if not a[2] and b[2]]
        assert len(restarts) == len(steps) - 1
        for t, dt, _ in [trials[0]] + restarts:
            assert dt == min(ctx.dt_cfl, t_end - t)

    def test_dt_grows_only_when_the_doubled_move_fits(self, monkeypatch):
        trials = []                  # (t, dt, last_move or None if rejected)
        real_step = warpflow.flow.step

        def recording_step(state, dt=None, enforce_cap=True):
            assert enforce_cap                     # no underflow in this run
            try:
                new = real_step(state, dt=dt, enforce_cap=enforce_cap)
            except StepRejected:
                trials.append((state.t, dt, None))
                raise
            trials.append((state.t, dt, new.last_move))
            return new

        monkeypatch.setattr(warpflow.flow, "step", recording_step)
        flat = {**resolve_config("bubbling"), "mesh.h": "0.0625"}
        st, _ = build_scenario(ScenarioConfig.from_flat(flat))
        t_end, dt_cfl = 0.02, st.ctx.dt_cfl
        for _ in march([st], t_end):
            pass
        moves = [m for _, _, m in trials if m is not None]
        assert any(m is None for _, _, m in trials)
        assert any(2.0 * m <= 1.0 for m in moves) and any(2.0 * m > 1.0 for m in moves)
        grown = 0
        for (t0, dt0, move), (t1, dt1, _) in zip(trials, trials[1:]):
            if move is None:                       # rejected: retried at half
                assert (t1, dt1) == (t0, dt0 / 2.0)
                continue
            # accepted: dt doubles only when the doubled move is predicted to
            # fit the cap, and otherwise stays (the next step may be clipped)
            planned = min(2.0 * dt0, dt_cfl) if 2.0 * move <= 1.0 else dt0
            assert dt1 == min(planned, t_end - t1), (t0, dt0, move)
            grown += dt1 > dt0
        assert grown

    def test_growth_waits_for_the_member_that_moves_most(self, square16):
        def steps(amps):
            states = [initial_state(square16, TORUS, UNIT_WARP,
                                    _bump_data(square16, amp), StepperConfig())
                      for amp in amps]
            return [(members[0].last_dt, [s.last_move for s in members])
                    for members, _ in march(states, 0.03)]

        pair = steps((0.4, 0.2))
        dts = [dt for dt, _ in pair]
        assert dts == [dt for dt, _ in steps((0.4,))]
        assert dts != [dt for dt, _ in steps((0.2,))]
        held = grown = 0
        # a step longer than the one before was grown into; a clipped last
        # step is never longer
        for (dt, (big, small)), (nxt, _) in zip(pair, pair[1:]):
            assert big > small
            if nxt > dt:
                assert 2.0 * big <= 1.0
                grown += 1
            elif 2.0 * small <= 1.0 < 2.0 * big:
                held += 1
        assert held and grown

    def test_march_changes_no_state(self, square16, monkeypatch):
        def snapshot(s):               # arrays by identity: they are read-only
            vals = {f.name: getattr(s, f.name) for f in fields(s) if f.name != "cache"}
            return {k: id(v) if isinstance(v, np.ndarray) else v for k, v in vals.items()}

        made = {}                      # id of each state step built -> its fields then
        real_step = warpflow.flow.step

        def recording_step(state, dt=None, enforce_cap=True):
            new = real_step(state, dt=dt, enforce_cap=enforce_cap)
            made[id(new)] = snapshot(new)
            return new

        monkeypatch.setattr(warpflow.flow, "step", recording_step)
        st = initial_state(square16, TORUS, UNIT_WARP, _bump_data(square16, 0.4),
                           StepperConfig())
        start, yielded = snapshot(st), []
        for members, _ in march([st], 0.03):
            assert snapshot(members[0]) == made[id(members[0])]
            yielded += members
        assert st.ctx.stats["rejected_steps"] and len({s.last_dt for s in yielded}) > 2
        assert snapshot(st) == start
        assert all(snapshot(s) == made[id(s)] for s in yielded)


class TestDerivedFields:
    """Each state's gradients, forcing and K u are evaluated once, and only its own."""

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
        st = initial_state(square16, SPHERE, UNIT_WARP, _geodesic_data(square16), cfg)
        seen = self._gradient_arguments(monkeypatch)
        with pytest.raises(StepRejected):
            step(st, dt=0.01)
        new = step(st, dt=1e-7)
        assert st.ctx.stats["rejections"]["move_cap"] == 1
        assert len(seen) == 1 and seen[0] is st.u
        for s in (st, new):               # every state's u and v are read-only
            for a in (s.u, s.v):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_flat_target_under_a_constant_warp_takes_no_forcing(self, square16,
                                                                monkeypatch):
        cfg = StepperConfig(max_move_fraction=1e-3)
        st = initial_state(square16, TORUS, UNIT_WARP, _bump_data(square16, amp=0.4), cfg)
        u0 = np.array(st.u)
        seen = self._gradient_arguments(monkeypatch)
        with pytest.raises(StepRejected):
            step(st, dt=0.01)
        new = step(st, dt=1e-7)
        assert st.ctx.stats["rejections"]["move_cap"] == 1 and new.step_count == 1
        assert seen == [] and _forcing(st) is None and "forcing" not in st.cache
        assert np.array_equal(st.u, u0) and not st.u.flags.writeable

    def test_flat_target_under_a_warp_takes_the_drift_alone(self, square16, monkeypatch):
        warp = WarpFunction("sinusoidal", 2.0, 1.0)
        spec = "sine_bump amplitude=0.4"
        bd = boundary_data_from_presets(square16, TORUS, spec, spec, "linear_x")
        st = initial_state(square16, TORUS, warp, bd, StepperConfig())
        seen = self._gradient_arguments(monkeypatch)
        F = _forcing(st)
        assert len(seen) == 1 and seen[0] is st.v          # |grad v|^2 only
        drift = warp_force(TORUS, warp, st.u, square16.nodal_from_tri(st.grad_sq_v()))
        assert np.array_equal(F, -drift) and np.any(F != 0.0)

    @pytest.mark.parametrize("warp", [UNIT_WARP, WarpFunction("linear_height", 2.0, 1.0)])
    def test_records_and_steps_share_gradients(self, square16, monkeypatch, warp):
        cfg = StepperConfig()
        bd = boundary_data_from_presets(square16, SPHERE, "equator_circle kappa=1",
                                        "harmonic", "linear_x")
        st = initial_state(square16, SPHERE, warp, bd, cfg)
        seen = self._gradient_arguments(monkeypatch)
        states = [st]
        schedule = Schedule(t_end=4.0 * st.ctx.dt_cfl, diag_stride=1,
                            snapshot_stride=1, snapshot_cb=states.append)
        fin, rep = run_flow(st, schedule)
        assert fin.step_count >= 4 and len(rep.records) == fin.step_count + 1
        assert [s.step_count for s in states] == list(range(fin.step_count + 1))
        # every state was recorded and all but the last stepped from, yet
        # each u and each v (one for all states under a constant warp)
        # reached the gradient operator once
        for s in states:
            assert sum(x is s.u for x in seen) == 1
            assert sum(x is s.v for x in seen) == 1
        assert (fin.v is st.v) == (warp is UNIT_WARP)

    def test_a_constant_warp_carries_the_potential_fields_down_each_chain(
            self, square16, monkeypatch):
        bd = boundary_data_from_presets(square16, SPHERE, "equator_circle kappa=1",
                                        "harmonic", "linear_x")
        st = initial_state(square16, SPHERE, UNIT_WARP, bd, StepperConfig())
        seen = self._gradient_arguments(monkeypatch)
        chains = [[st], [st.ctx.start(st.u)]]     # two members on one context
        for chain in chains:
            energy_functionals(chain[0])
        for members, _ in march([c[0] for c in chains], 4.0 * st.ctx.dt_cfl):
            for chain, s in zip(chains, members):
                energy_functionals(s)
                chain.append(s)
        # v and beta do not depend on u: each chain forms |grad v|^2 and its
        # beta once, and every later state keeps the same read-only arrays
        assert chains[0][0].v is not chains[1][0].v
        assert sum(x is c[0].v for c in chains for x in seen) == 2
        for first, *rest in chains:
            g2v, beta = first.grad_sq_v(), first.beta_tri()
            assert not g2v.flags.writeable and not beta.flags.writeable
            assert len(rest) >= 4 and all(
                s.v is first.v and s.grad_sq_v() is g2v and s.beta_tri() is beta
                for s in rest)
            assert replace(rest[-1], u=np.array(rest[-1].u)).cache == {}

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

    def test_stiffness_product_is_kept_read_only_and_exact(self, square16):
        cfg = StepperConfig(theta=0.5)
        st = initial_state(square16, SPHERE, UNIT_WARP, _geodesic_data(square16), cfg)
        new = step(st)
        Ku = st.cache["stiffness_u"]                # the step formed it
        assert np.array_equal(Ku, square16.stiffness @ st.u)
        assert st.stiffness_u() is Ku
        with pytest.raises(ValueError):
            Ku[0, 0] = 0.0
        # a record and the tension residual of the next state share one product
        rec = energy_functionals(new)
        Ku_new = new.cache["stiffness_u"]
        tension_residual(new)
        assert new.stiffness_u() is Ku_new
        lap = square16.laplacian(new.u)
        assert rec.laplacian_proxy == float(np.dot(square16.lumped_mass,
                                                   np.einsum("ij,ij->i", lap, lap)))
        assert "stiffness_u" not in replace(new, u=np.array(new.u)).cache
        # theta = 1 has no explicit Laplacian part: the step forms no product
        full = StepperConfig(theta=1.0)
        st1 = initial_state(square16, SPHERE, UNIT_WARP, _geodesic_data(square16), full)
        step(st1)
        assert "stiffness_u" not in st1.cache
