"""Projected time stepping for the coupled parabolic-elliptic flow.

The map u obeys  du/dt = Lap u + A(u)(grad u, grad u) - B_tan(u) |grad v|^2
with u = phi on the boundary, and v solves -div(beta(u) grad v) = 0 with
v = psi on the boundary at every time (no time derivative on v; the elliptic
solve inside a step uses the current u, lagged coupling).

The scheme is a theta-scheme on the Laplacian (theta in [1/2, 1]; 1 is fully
damped) with the nonlinear terms explicit: one SPD solve per component, CFL
timestep dt = sigma h.  theta = 1/2 is second order in time only without
forcing (the linear torus flow); the explicit forcing, with the potential
lagged one step, makes the coupled flow first order for either theta.

After every trial step the nodal values are projected back onto the target
and the boundary rows reset to phi exactly.  A trial step whose largest
nodal displacement exceeds max_move_fraction * h, or whose projection
degenerates, raises StepRejected; one whose map or potential is not finite
raises SolverFailure.  `march` owns the dt policy of every run (halving,
growth from the measured move, and at timestep underflow one uncapped dt_min
step, the discrete stand-in for restarting from the weak limit), so dt is
always dt_cfl / 2^k or the step that lands on t_end, and the theta-step
matrices stay few; `_FlowContext` decides how each is solved.

A run's fixed data (mesh, target, warp, boundary data and StepperConfig)
live once, in the `_FlowContext` that `initial_state` builds; a FlowState is
the evolving (u, v, t) on it.  A state's triangle gradients, nodal forcing,
K u and triangle beta are evaluated once, on first use, whether a retried
step, a record or the next step asks for them, or carried from the state
before where its step leaves them valid.  Each potential solve starts from
the potential extrapolated linearly in t from the last two states.
"""

from __future__ import annotations

import copy
import math
import time as _time
from dataclasses import InitVar, dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .boundary import BoundaryData
from .diagnostics import DiagnosticsReport, RunBounds, ThresholdConfig, energy_functionals
from .elliptic import (WarpedBlock, cg_solve, dirichlet_split, jacobi_preconditioner,
                       solve_warped_laplace)
from .errors import DegeneratePoint, SolverFailure, StepRejected
from .geometry import warp_force
from .mesh import (DomainMesh, ball_rows, local_energy_matrix, tri_energy_density,
                   triangle_mean)

DT_MIN_FACTOR = 1e-6
# forced (timestep underflow) steps in a row before the run fails
MAX_FORCED_STEPS = 50
# CG iterations that one LU column solve, and one LU factor build, cost
LU_COL_ITERS = 6
FACTOR_ITERS = 200


@dataclass
class StepperConfig:
    sigma: float = 0.2
    theta: float = 0.5
    max_move_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.sigma <= 0.5:
            raise ValueError("sigma must lie in (0, 0.5]")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0.5, 1]")
        if self.max_move_fraction <= 0:
            raise ValueError("max_move_fraction must be positive")


@dataclass
class Schedule:
    t_end: float
    diag_stride: int = 1
    snapshot_stride: int = 0
    snapshot_cb: object = None


class _FlowContext:
    """The fixed data, solver stats and theta-step solves of one run.

    It holds the mesh, target, warp, boundary data and StepperConfig, and the
    dt policy they fix: dt_cfl = sigma h and dt_min = DT_MIN_FACTOR h^2 for
    the configured mesh size h (tolerances elsewhere use the realized max
    edge mesh.h).  Every state started from it (`start`, a twin pair's two
    members too) shares it, so stats count every step call once.
    K_phi = (K phi)_I.  The theta-step matrix A = M_II + theta dt K_II is
    solved by Jacobi CG on one kept matrix and preconditioner, those of the
    last dt solved by CG, and each dt keeps its CG excess: iterations beyond
    LU_COL_ITERS a column.  At a solve whose (t, dt) is not the last solve's
    (`march` never revisits a (t, dt): only a twin pair's second member
    repeats it), at a key dt_cfl / 2^k whose excess is at least the factored
    key's (frozen while factored) plus FACTOR_ITERS, the kept matrix and the
    old factor are dropped and one sparse LU factor of the key's matrix
    solves all columns of its later steps.  So a context holds at most one
    matrix and one factor, decided from counts, step_iterations counts CG
    solves only and step_factors the builds.  `potential` is where the
    potential is decided: a non-constant warp re-solves it every step on
    this WarpedBlock (the fixed-pattern block and its cached factor); a
    constant warp has None, and its potential is the harmonic extension of
    psi for all time, solved nowhere in the flow.
    """

    def __init__(self, mesh: DomainMesh, target, warp, bdata: BoundaryData,
                 config: StepperConfig):
        self.mesh, self.target, self.warp, self.bdata, self.config = (
            mesh, target, warp, bdata, config)
        h = mesh.target_h
        self.dt_cfl, self.dt_min = config.sigma * h, DT_MIN_FACTOR * h * h
        self.K_II, self.K_phi, _ = dirichlet_split(mesh, mesh.stiffness, bdata.phi)
        self.potential = None if warp.kind == "constant" else WarpedBlock(mesh, bdata.psi)
        # CG excess per dt, the (t, dt) of the last solve, the one CG matrix
        # (A, inverse diagonal) and the one factor, each with its dt
        self._excess, self._last = {}, None
        self._cg_dt = self._cg = self._lu_dt = self._lu = None
        # M_II + theta dt K_II has K_II's pattern (its diagonal included): a
        # step matrix is one data array over K_II's index arrays
        M_II = self.K_II.copy()
        M_II.data[:] = 0.0
        M_II.setdiag(mesh.lumped_mass[mesh.interior])
        self._mass_data = M_II.data
        # a step gathers and scatters the interior rows of the (nv, d) map, and
        # resets its boundary rows to phi, by flat index i d + k
        d = bdata.phi.shape[1]
        self._flat_I, self._flat_B = ((rows[:, None] * d + np.arange(d)).ravel()
                                      for rows in (mesh.interior, mesh.boundary_index))
        self._phi_B = np.take(bdata.phi, self._flat_B)
        self.stats = {"elliptic_solves": 0, "elliptic_iterations": 0,
                      "step_iterations": 0, "step_factors": 0, "accepted_steps": 0,
                      "rejected_steps": 0, "rejections": {"move_cap": 0, "projection": 0},
                      "max_elliptic_residual": 0.0}

    def step_matrix(self, dt: float):
        """(A, its inverse diagonal) for A = M_II + theta dt K_II."""
        K = self.K_II
        A = sp.csr_matrix((self._mass_data + (self.config.theta * dt) * K.data,
                           K.indices, K.indptr), shape=K.shape)
        return A, jacobi_preconditioner(A)

    def theta_solve(self, dt: float, t: float, rhs_I: np.ndarray,
                    x0_I: np.ndarray) -> np.ndarray:
        """The columns X of (M_II + theta dt K_II) X = rhs_I for a step from time t."""
        if self._last != (t, dt):
            self._last = (t, dt)
            if (math.frexp(self.dt_cfl / dt)[0] == 0.5 and self._excess.get(dt, 0)
                    >= self._excess.get(self._lu_dt, 0) + FACTOR_ITERS):
                self._cg_dt = self._cg = self._lu_dt = self._lu = None  # free before factoring
                A = self.step_matrix(dt)[0].tocsc()
                self._lu_dt, self._lu = dt, splu(A, permc_spec="MMD_AT_PLUS_A")
                self.stats["step_factors"] += 1
        if dt == self._lu_dt:
            return self._lu.solve(rhs_I)
        if dt != self._cg_dt:
            self._cg_dt, self._cg = dt, self.step_matrix(dt)
        A, M = self._cg
        X = np.empty_like(rhs_I)
        for d in range(rhs_I.shape[1]):
            X[:, d], _, iters = cg_solve(A, rhs_I[:, d], x0=x0_I[:, d], M=M)
            self.stats["step_iterations"] += iters
            self._excess[dt] = self._excess.get(dt, 0) + iters - LU_COL_ITERS
        return X

    def start(self, u0: np.ndarray) -> "FlowState":
        """The validated state at t = 0 of the map u0, with its potential.

        The state keeps u0 itself, not a copy, and makes it read-only."""
        mesh, phi = self.mesh, self.bdata.phi
        if float(np.max(self.target.distance(u0))) > 1e-9:
            raise ValueError("initial map must lie on the target manifold")
        if np.max(np.abs(u0[mesh.boundary] - phi[mesh.boundary])) != 0.0:
            raise ValueError("initial map must equal the boundary trace on the boundary")
        v0, carry = ((np.array(self.bdata.psi_ext, dtype=float), None) if self.potential is None
                     else _solve_potential(self, u0))
        return FlowState(u=u0, v=v0, ctx=self, carry=carry)


@dataclass
class FlowState:
    """The map u and potential v at time t on a run's context, and what the
    step that made it measured (all zero at t = 0).  `step` builds states and
    nothing changes one afterwards, bar its cache of derived fields."""

    u: np.ndarray
    v: np.ndarray
    ctx: _FlowContext = field(repr=False)
    t: float = 0.0
    step_count: int = 0
    # the step that made this state: its L2 rate ||u - u_prev|| / dt, its
    # largest nodal move over the cap, its dt and the potential it started from
    last_rate: float = 0.0
    last_move: float = 0.0
    last_dt: float = 0.0
    v_prev: np.ndarray = field(default=None, repr=False)
    # read-only fields derived from (u, v), each evaluated on first use; a new
    # state's starts from `carry`, the fields its step left valid
    cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    carry: InitVar[dict] = None

    def __post_init__(self, carry):
        # the cache relies on u and v never changing once the state is built
        self.u.flags.writeable = self.v.flags.writeable = False
        self.cache.update(carry or {})

    @property
    def mesh(self) -> DomainMesh:
        return self.ctx.mesh

    def _derived(self, key, compute):
        val = self.cache.get(key)
        if val is None:
            val = self.cache[key] = compute()
            val.flags.writeable = False
        return val

    def grad_sq_u(self) -> np.ndarray:
        """Per-triangle |grad u|^2, evaluated once per state."""
        return self._derived("grad_sq_u", lambda: self.mesh.tri_grad_sq(self.u))

    def stiffness_u(self) -> np.ndarray:
        """K u (the unit stiffness times u), evaluated once per state."""
        return self._derived("stiffness_u", lambda: self.mesh.stiffness @ self.u)

    def beta_tri(self) -> np.ndarray:
        """Triangle mean of beta(u), evaluated once per state or kept from its solve."""
        return self._derived("beta_tri",
                             lambda: triangle_mean(self.mesh, self.ctx.warp.beta(self.u)))

    def grad_sq_v(self) -> np.ndarray:
        """Per-triangle |grad v|^2, evaluated once per state or carried forward."""
        return self._derived("grad_sq_v", lambda: self.mesh.tri_grad_sq(self.v))


def _solve_potential(ctx: _FlowContext, u, state: "FlowState" = None, dt: float = 0.0):
    """(v, carry): the potential of the map u, and the triangle mean of beta(u) it
    was solved with (NonPositiveCoefficient unless positive) for the new state's
    cache; the solve starts from the potential of `state`, if any, extrapolated
    linearly to state.t + dt."""
    x0 = None if state is None else state.v if state.v_prev is None else \
        state.v + (dt / state.last_dt) * (state.v - state.v_prev)
    beta = ctx.warp.beta(u)
    beta_tri = triangle_mean(ctx.mesh, beta)
    beta_tri.flags.writeable = False
    sol = solve_warped_laplace(ctx.mesh, beta, ctx.bdata.psi, x0=x0,
                               block=ctx.potential, beta_tri=beta_tri)
    ctx.stats["elliptic_solves"] += 1
    ctx.stats["elliptic_iterations"] += sol.iterations
    ctx.stats["max_elliptic_residual"] = max(ctx.stats["max_elliptic_residual"],
                                             sol.rel_residual)
    return sol.v, {"beta_tri": beta_tri}


def initial_state(mesh: DomainMesh, target, warp, bdata: BoundaryData,
                  config: StepperConfig) -> FlowState:
    """Validated starting state at phi0, on a new context for this run's data."""
    return _FlowContext(mesh, target, warp, bdata, config).start(
        np.array(bdata.phi0, dtype=float))


def _forcing(state: FlowState) -> np.ndarray | None:
    """Nodal explicit forcing: curvature term minus warp drift term, once per
    state; None where it is identically zero (a flat target under a constant
    warp).  A flat target takes no curvature term.  It reuses the |grad u|^2
    a record cached but keeps none of its own, so a state that is only
    stepped holds no gradients while its step solve runs."""
    ctx = state.ctx
    if ctx.target.flat and ctx.potential is None:
        return None

    def compute():
        mesh, F = state.mesh, 0.0
        if not ctx.target.flat:
            g2_u = state.cache.get("grad_sq_u")
            if g2_u is None:
                g2_u = mesh.tri_grad_sq(state.u)
            F = ctx.target.curvature_force(state.u, mesh.nodal_from_tri(g2_u))
        if ctx.potential is not None:
            s = mesh.nodal_from_tri(state.grad_sq_v())
            F = F - warp_force(ctx.target, ctx.warp, state.u, s)
        return F
    return state._derived("forcing", compute)


def tension_residual(state: FlowState):
    """Tangential discrete tension field and its L2 norm (boundary rows zero)."""
    mesh = state.mesh
    lap, F = mesh.laplacian(state.u, state.stiffness_u()), _forcing(state)
    R = state.ctx.target.project_tangent(state.u, lap if F is None else lap + F)
    R[mesh.boundary_index] = 0.0
    norm = math.sqrt(float(np.dot(mesh.lumped_mass, np.einsum("ij,ij->i", R, R))))
    return R, norm


def _count_rejection(ctx: _FlowContext, reason: str):
    ctx.stats["rejected_steps"] += 1
    ctx.stats["rejections"][reason] += 1


def step(state: FlowState, dt: float = None, enforce_cap: bool = True) -> FlowState:
    """One projected step of size dt (default the CFL step); returns the new
    state, whose last_dt is dt.

    Raises StepRejected when the largest nodal move exceeds
    max_move_fraction * h (with enforce_cap) or the projection degenerates,
    and SolverFailure with the time attached when a solve fails or the new
    map or potential is not finite; dt control belongs to `march`.
    """
    mesh, ctx, config = state.mesh, state.ctx, state.ctx.config
    dt = ctx.dt_cfl if dt is None else float(dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    u, m, I = state.u, mesh.lumped_mass, mesh.interior
    F = _forcing(state)

    try:
        theta = config.theta
        rhs = m[:, None] * (u if F is None else u + dt * F)
        if theta != 1.0:
            rhs -= ((1.0 - theta) * dt) * state.stiffness_u()
        rhs_I = np.take(rhs, I, axis=0) - (theta * dt) * ctx.K_phi
        X = ctx.theta_solve(dt, state.t, rhs_I, np.take(u, I, axis=0))
        u_star = u.copy()                  # C order: reshape(-1) is a view
        u_star.reshape(-1)[ctx._flat_I] = X.reshape(-1)
        if not np.all(np.isfinite(u_star)):
            raise SolverFailure("non-finite map after the step solve")
    except SolverFailure as exc:
        raise SolverFailure(f"{exc} (at t = {state.t:.6g})", time=state.t) from exc

    try:
        u_new = ctx.target.project_field(u_star)
    except DegeneratePoint as exc:
        _count_rejection(ctx, "projection")
        raise StepRejected(f"projection degenerated: {exc}") from exc
    np.put(u_new, ctx._flat_B, ctx._phi_B)

    du = u_new - u
    dd = np.einsum("ij,ij->i", du, du)              # squared nodal moves
    move = math.sqrt(float(np.max(dd)))
    cap = config.max_move_fraction * mesh.h
    if enforce_cap and move > cap:
        _count_rejection(ctx, "move_cap")
        raise StepRejected(
            f"nodal move {move:.3e} exceeds {config.max_move_fraction} * h")

    try:
        if ctx.potential is None:      # v and beta do not depend on u: keep the parent's
            v_new, carry = state.v, {k: state.cache[k] for k in ("grad_sq_v", "beta_tri")
                                     if k in state.cache}
        else:
            v_new, carry = _solve_potential(ctx, u_new, state, dt)
        if not np.all(np.isfinite(v_new)):
            raise SolverFailure("non-finite potential")
    except SolverFailure as exc:
        raise SolverFailure(f"{exc} (at t = {state.t + dt:.6g})",
                            time=state.t + dt) from exc

    ctx.stats["accepted_steps"] += 1
    diff2 = float(np.dot(m, dd))
    return replace(state, u=u_new, v=v_new, t=state.t + dt, step_count=state.step_count + 1,
                   last_rate=math.sqrt(diff2) / dt, last_move=move / cap, last_dt=dt,
                   v_prev=state.v, carry=carry)


def march(states: list, t_end: float):
    """Advance `states` in lockstep to t_end under one shared adaptive dt, on
    the dt policy of the first state's context.

    Every march starts at the CFL step, and the plan lives here alone: a
    trial step that any member rejects is retried at half the dt.  After
    an accepted step dt doubles, capped at the CFL value, only if every
    member's last_move is at most 1/2: the move scaled linearly to the
    doubled dt is predicted to fit the cap.  So dt stays dt_cfl / 2^k and
    is rarely grown into a step that the cap then rejects.
    When halving would drop dt below dt_min (timestep underflow), every
    member takes one uncapped dt_min step and dt restarts at the CFL value;
    more than MAX_FORCED_STEPS forced steps in a row raise SolverFailure.
    Yields (states, forced) after every step taken; each state's last_dt is
    the step that made it.
    """
    dt_cfl, dt_floor = states[0].ctx.dt_cfl, states[0].ctx.dt_min
    controller, forced_run = dt_cfl, 0
    while states[0].t < t_end - 1e-14:
        t = states[0].t
        dt = min(controller, t_end - t)
        try:
            new = [step(s, dt=dt) for s in states]
        except StepRejected:
            controller = dt / 2.0
            if controller >= dt_floor:
                continue
            forced_run += 1
            if forced_run > MAX_FORCED_STEPS:
                raise SolverFailure(
                    f"persistent timestep underflow at t = {t:.6g}", time=t)
            forced = True
            new = [step(s, dt=dt_floor, enforce_cap=False) for s in states]
            controller = dt_cfl
        else:
            forced, forced_run = False, 0
            if all(2.0 * s.last_move <= 1.0 for s in new):
                controller = min(controller * 2.0, dt_cfl)
        states = new
        yield states, forced


def default_probe_centers(mesh: DomainMesh) -> list:
    """Five deterministic interior probe vertices for local-energy profiles."""
    if mesh.shape == "square":
        anchors = [(0.5, 0.5), (0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
    elif mesh.shape == "disk":
        anchors = [(0.0, 0.0), (0.35, 0.0), (-0.35, 0.0), (0.0, 0.35), (0.0, -0.35)]
    else:
        rmid = float(np.median(np.linalg.norm(mesh.vertices[mesh.interior], axis=1)))
        anchors = [(rmid * math.cos(a), rmid * math.sin(a))
                   for a in np.linspace(0.0, 2.0 * np.pi, 6)[:5]]
    # the interior vertex nearest each anchor, repeats dropped
    I = mesh.interior
    return list(dict.fromkeys(
        int(I[np.argmin(np.linalg.norm(mesh.vertices[I] - np.asarray(a), axis=1))])
        for a in anchors))


def run_flow(state: FlowState, schedule: Schedule, thresholds: ThresholdConfig = None):
    """March to t_end with adaptive dt; returns (final state, DiagnosticsReport).

    The report carries one record per diag_stride accepted steps (plus the
    initial and final states), each with its probe ball energies and its
    crossings (the vertices whose r_detect-ball energy exceeds
    thresholds.energy), the coordinates of every crossing vertex, underflow
    times, and aggregate solver statistics.
    """
    thresholds = thresholds or ThresholdConfig()
    mesh = state.mesh
    bounds = RunBounds.from_run(mesh, state.ctx.warp, state.ctx.bdata)
    report = DiagnosticsReport(records=[], bounds=bounds, thresholds=thresholds)
    if schedule.t_end <= 0:
        return state, report

    L = local_energy_matrix(mesh, thresholds.r_detect)
    centers, radii = default_probe_centers(mesh), thresholds.probe_radii()
    probes = ball_rows(mesh, centers, radii)
    kin_total = 0.0
    wall0 = _time.perf_counter()

    def record(st: FlowState):
        rec = energy_functionals(st)
        rec.kinetic_cum = kin_total
        dens = tri_energy_density(mesh, st.u, st.grad_sq_u())
        local = L @ dens
        rec.max_local_energy = float(local.max())
        rec.max_local_vertex = int(np.argmax(local))
        e = (probes @ dens).reshape(len(centers), len(radii))
        rec.ball_probes = {c: dict(zip(radii, map(float, row))) for c, row in zip(centers, e)}
        rec.crossings = {int(c): float(local[c])
                         for c in np.flatnonzero(local > thresholds.energy)}
        for c in rec.crossings:
            report.crossing_points.setdefault(c, [float(x) for x in mesh.vertices[c]])
        report.records.append(rec)

    snapped = -1                     # the step count of the last snapshot
    record(state)
    for (new_state,), forced in march([state], schedule.t_end):
        if forced:
            # operational blow-up: log it and record the state the forced
            # step started from, unless it is the last record
            report.underflow_times.append(float(state.t))
            if report.records[-1].step_count != state.step_count:
                record(state)
        kin_total += new_state.last_rate ** 2 * new_state.last_dt
        state = new_state
        if forced or (schedule.diag_stride > 0
                      and state.step_count % schedule.diag_stride == 0):
            record(state)
        if (not forced and schedule.snapshot_cb is not None
                and schedule.snapshot_stride > 0
                and state.step_count % schedule.snapshot_stride == 0):
            schedule.snapshot_cb(state)
            snapped = state.step_count

    if report.records[-1].step_count != state.step_count:
        record(state)
    if schedule.snapshot_cb is not None and snapped != state.step_count:
        schedule.snapshot_cb(state)

    report.solver_stats = copy.deepcopy(state.ctx.stats)
    report.solver_stats["wall_seconds"] = _time.perf_counter() - wall0
    return state, report
