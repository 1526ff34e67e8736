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
K u and triangle beta are read-only cached properties, formed on first use by
a retried step, a record or the next step, unless the carry that
`_solve_potential` gives each new state with its potential seeds them;
`run_flow` measures every record in line, on the calling thread.  Each warped
solve starts from the potential extrapolated linearly in t from the last two.
"""

from __future__ import annotations

import copy
import math
import time as _time
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .boundary import BoundaryData
from .diagnostics import DiagnosticsReport, RunBounds, ThresholdConfig, energy_functionals
from .elliptic import (WarpedBlock, cg_solve, dirichlet_split, jacobi_preconditioner,
                       lu_factor, solve_warped_laplace)
from .errors import DegeneratePoint, SolverFailure, StepRejected
from .geometry import ON_TARGET_TOL, warp_force
from .mesh import DomainMesh, ball_rows, local_energy_matrix, triangle_mean

DT_MIN_FACTOR = 1e-6
# forced (timestep underflow) steps in a row before the run fails
MAX_FORCED_STEPS = 50
# CG iterations that one LU column solve, and one LU factor build, cost
LU_COL_ITERS = 6
FACTOR_ITERS = 200
# CFL steps, t_end / (sigma h), above which a config is refused
MAX_PLANNED_STEPS = 100_000
# the march ends within this of t_end, so a t_end at or below it is refused
END_SLACK = 1e-14


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
        if not self.max_move_fraction > 0:
            raise ValueError("max_move_fraction must be positive")

    def dt_policy(self, h: float) -> tuple:
        """(dt_cfl, dt_min) = (sigma h, DT_MIN_FACTOR h^2) at mesh size h > 0;
        a sigma whose dt_cfl lies below dt_min is refused, as no dt fits."""
        if not h > 0:
            raise ValueError(f"mesh size h must be positive, got {h!r}")
        dt_cfl, dt_min = self.sigma * h, DT_MIN_FACTOR * h * h
        if dt_cfl < dt_min:
            raise ValueError(f"sigma = {self.sigma:g} is too small for h = {h:g}: the CFL "
                             f"step sigma h lies below the dt floor {DT_MIN_FACTOR:g} h^2")
        return dt_cfl, dt_min


@dataclass
class Schedule:
    t_end: float = 0.1
    diag_stride: int = 1
    snapshot_stride: int = 0

    def __post_init__(self):
        if not self.t_end > END_SLACK:
            raise ValueError(f"t_end must be positive, above {END_SLACK:g}, got {self.t_end!r}")
        for name in ("diag_stride", "snapshot_stride"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")


class _FlowContext:
    """The fixed data, solver stats and theta-step solves of one run.

    It holds the mesh, target, warp, boundary data and StepperConfig, and the
    dt policy they fix, StepperConfig.dt_policy at the configured mesh size
    (tolerances elsewhere use the realized max edge mesh.h).  Every state
    started from it (`start`, a twin pair's two members too) shares it, so
    stats count every step call once.
    K_phi = (K phi)_I.  The theta-step matrix A = M_II + theta dt K_II is
    solved by Jacobi CG on one kept matrix and preconditioner, those of the
    last dt solved by CG, and each dt keeps its CG excess: iterations beyond
    LU_COL_ITERS a column.  At a solve whose (t, dt) is not the last solve's
    (`march` never revisits a (t, dt): only a twin pair's second member
    repeats it), at a key dt_cfl / 2^k whose excess is at least the factored
    key's (frozen while factored) plus FACTOR_ITERS, the kept matrix and the
    old factor are dropped and one sparse LU factor of the key's matrix
    solves all columns of its later steps.  So a context holds at most one
    matrix and one factor, decided from counts.  Its stats count the step
    solves (CG iterations, solves by the factor, factor builds) and the
    potential's, and carry the boundary data's setup_factors.
    `potential` is where the potential is decided: a non-constant warp
    re-solves it every step on this WarpedBlock (the fixed-pattern block and
    its cached factor); a constant warp has None, and its potential is the
    harmonic extension of psi for all time, solved nowhere in the flow.
    """

    def __init__(self, mesh: DomainMesh, target, warp, bdata: BoundaryData,
                 config: StepperConfig):
        self.mesh, self.target, self.warp, self.bdata, self.config = (
            mesh, target, warp, bdata, config)
        self.dt_cfl, self.dt_min = config.dt_policy(mesh.target_h)
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
        self.stats = {"setup_factors": bdata.setup_factors, "elliptic_solves": 0,
                      "elliptic_iterations": 0, "step_iterations": 0, "step_lu_solves": 0,
                      "step_factors": 0, "accepted_steps": 0, "rejected_steps": 0,
                      "rejections": {"move_cap": 0, "projection": 0},
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
                self._lu_dt, self._lu = dt, lu_factor(self.step_matrix(dt)[0])
                self.stats["step_factors"] += 1
        if dt == self._lu_dt:
            self.stats["step_lu_solves"] += 1
            return self._lu.solve(rhs_I)
        if dt != self._cg_dt:
            self._cg_dt, self._cg = dt, self.step_matrix(dt)
        A, M = self._cg
        X, _, iters = cg_solve(A, rhs_I, x0=x0_I, M=M)
        self.stats["step_iterations"] += iters
        self._excess[dt] = self._excess.get(dt, 0) + iters - LU_COL_ITERS * rhs_I.shape[1]
        return X

    def start(self, u0: np.ndarray) -> "FlowState":
        """The validated state at t = 0 of the map u0, with its potential.

        The state keeps u0 itself, not a copy, and makes it read-only."""
        mesh, phi = self.mesh, self.bdata.phi
        if not np.all(np.einsum("ij,ij->i", u0, u0) < np.inf):
            raise ValueError("initial map must be finite, with a finite squared norm")
        if float(np.max(self.target.distance(u0))) > ON_TARGET_TOL:
            raise ValueError("initial map must lie on the target manifold")
        if np.max(np.abs(u0[mesh.boundary] - phi[mesh.boundary])) != 0.0:
            raise ValueError("initial map must equal the boundary trace on the boundary")
        v0, carry = _solve_potential(self, u0)
        return FlowState(u=u0, v=v0, ctx=self, carry=carry)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class FlowState:
    """The map u and potential v at time t on a run's context, and what the
    step that made it measured (all zero at t = 0).  Nothing changes a state
    once `step` builds it: its |grad u|^2, |grad v|^2, forcing, K u and triangle
    beta are read-only cached properties, formed once by whichever of a step, a
    retry or a record asks first, or seeded by the `carry` it is built with."""

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
    carry: InitVar[dict] = None

    def __post_init__(self, carry):
        # the cached values rely on u and v never changing once the state is built
        self.u.flags.writeable = self.v.flags.writeable = False
        vars(self).update(carry or {})

    @property
    def mesh(self) -> DomainMesh:
        return self.ctx.mesh

    @cached_property
    def grad_sq_u(self) -> np.ndarray:
        """Per-triangle |grad u|^2."""
        return _read_only(self.mesh.tri_grad_sq(self.u))

    @cached_property
    def stiffness_u(self) -> np.ndarray:
        """K u (the unit stiffness times u)."""
        return _read_only(self.mesh.stiffness @ self.u)

    @cached_property
    def beta_tri(self) -> np.ndarray:
        """Triangle mean of beta(u), unless the potential's solve seeded it."""
        return _read_only(triangle_mean(self.mesh, self.ctx.warp.beta(self.u)))

    @cached_property
    def grad_sq_v(self) -> np.ndarray:
        """Per-triangle |grad v|^2, unless carried from the state before."""
        return _read_only(self.mesh.tri_grad_sq(self.v))

    @cached_property
    def forcing(self) -> np.ndarray:
        """Nodal explicit forcing: curvature term minus warp drift term; a flat
        target takes no curvature term, so a flat one under a constant warp gets
        a 0-d zero and forms no gradient.  It reads the state's own |grad u|^2
        and |grad v|^2, which stay cached for its record."""
        ctx, mesh, F = self.ctx, self.mesh, 0.0
        if not ctx.target.flat:
            F = ctx.target.curvature_force(self.u, mesh.nodal_from_tri(self.grad_sq_u))
        if ctx.potential is not None:
            F = F - warp_force(ctx.target, ctx.warp, self.u, mesh.nodal_from_tri(self.grad_sq_v))
        return _read_only(np.asarray(F))


def _solve_potential(ctx: _FlowContext, u, state: FlowState = None, dt: float = 0.0):
    """(v, carry): the potential of a new state of map u, stepped by dt from
    `state` (None at t = 0), and the cached values it starts with.  Under a
    constant warp v is psi's extension (a copy at t = 0, then the parent's)
    and carry the parent's |grad v|^2 and beta where formed; else v is the
    warped solve from `state`'s v extrapolated to t + dt, and carry its beta."""
    if ctx.potential is None:
        if state is None:
            return np.array(ctx.bdata.psi_ext, dtype=float), {}
        formed = vars(state)
        return state.v, {k: formed[k] for k in ("grad_sq_v", "beta_tri") if k in formed}
    x0 = None if state is None else state.v if state.v_prev is None else \
        state.v + (dt / state.last_dt) * (state.v - state.v_prev)
    sol = solve_warped_laplace(ctx.mesh, ctx.warp.beta(u), ctx.bdata.psi, x0=x0,
                               block=ctx.potential)
    ctx.stats["elliptic_solves"] += 1
    ctx.stats["elliptic_iterations"] += sol.iterations
    ctx.stats["max_elliptic_residual"] = max(ctx.stats["max_elliptic_residual"],
                                             sol.rel_residual)
    return sol.v, {"beta_tri": sol.beta_tri}


def initial_state(mesh: DomainMesh, target, warp, bdata: BoundaryData,
                  config: StepperConfig) -> FlowState:
    """Validated starting state at phi0, on a new context for this run's data."""
    return _FlowContext(mesh, target, warp, bdata, config).start(
        np.array(bdata.phi0, dtype=float))


def tension_residual(state: FlowState) -> float:
    """L2 norm of the tangential discrete tension field (boundary rows zero)."""
    mesh = state.mesh
    lap = mesh.laplacian(state.u, state.stiffness_u)
    R = state.ctx.target.project_tangent(state.u, lap + state.forcing)
    R[mesh.boundary_index] = 0.0
    return math.sqrt(mesh.mass_sum(np.einsum("ij,ij->i", R, R)))


def _count_rejection(ctx: _FlowContext, reason: str):
    ctx.stats["rejected_steps"] += 1
    ctx.stats["rejections"][reason] += 1


def step(state: FlowState, dt: float = None, enforce_cap: bool = True) -> FlowState:
    """One projected step of size dt (default the CFL step); returns the new
    state, whose last_dt is dt.

    Raises StepRejected when the largest nodal move exceeds
    max_move_fraction * h (with enforce_cap) or the projection degenerates,
    and SolverFailure, whose message names the time, when a solve fails or
    the new map or potential is not finite; dt control belongs to `march`.
    """
    mesh, ctx, config = state.mesh, state.ctx, state.ctx.config
    dt = ctx.dt_cfl if dt is None else float(dt)
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    u, m, I = state.u, mesh.lumped_mass, mesh.interior

    try:
        theta = config.theta
        rhs = u + dt * state.forcing
        rhs *= m[:, None]               # in place: one (nv, d) temporary a step, not two
        if theta != 1.0:
            rhs -= ((1.0 - theta) * dt) * state.stiffness_u
        rhs_I = np.take(rhs, I, axis=0) - (theta * dt) * ctx.K_phi
        X = ctx.theta_solve(dt, state.t, rhs_I, np.take(u, I, axis=0))
        u_star = u.copy()                  # C order: reshape(-1) is a view
        u_star.reshape(-1)[ctx._flat_I] = X.reshape(-1)
        if not np.all(np.isfinite(u_star)):
            raise SolverFailure("non-finite map after the step solve")
    except SolverFailure as exc:
        raise SolverFailure(f"{exc} (at t = {state.t:.6g})") from exc

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
        v_new, carry = _solve_potential(ctx, u_new, state, dt)
        if not np.all(np.isfinite(v_new)):
            raise SolverFailure("non-finite potential")
    except SolverFailure as exc:
        raise SolverFailure(f"{exc} (at t = {state.t + dt:.6g})") from exc

    ctx.stats["accepted_steps"] += 1
    return replace(state, u=u_new, v=v_new, t=state.t + dt, step_count=state.step_count + 1,
                   last_rate=math.sqrt(mesh.mass_sum(dd)) / dt, last_move=move / cap, last_dt=dt,
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
    while states[0].t < t_end - END_SLACK:
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
                raise SolverFailure(f"persistent timestep underflow at t = {t:.6g}")
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


def run_flow(state: FlowState, schedule: Schedule, thresholds: ThresholdConfig = None,
             snapshot=None):
    """March to t_end with adaptive dt; returns (final state, DiagnosticsReport).

    The report carries one record per diag_stride accepted steps (plus the
    initial and final states and each forced step's start; each state once),
    with its probe_centers ball energies and crossings (the vertices whose
    r_detect-ball energy exceeds thresholds.energy), the coordinates of every
    crossing vertex, underflow times, and aggregate solver statistics.  Each
    record is measured on the calling thread as soon as its state exists.
    `snapshot`, if given, is called with every snapshot_stride-th accepted
    state that no forced step made, and with the final state once.
    """
    thresholds = thresholds or ThresholdConfig()
    mesh = state.mesh
    bounds = RunBounds.from_run(mesh, state.ctx.warp, state.ctx.bdata)
    report = DiagnosticsReport(records=[], bounds=bounds, thresholds=thresholds)
    L = local_energy_matrix(mesh, thresholds.r_detect)
    report.probe_centers = default_probe_centers(mesh)
    probes = ball_rows(mesh, report.probe_centers, thresholds.probe_radii())
    kin_total = 0.0
    snapped = -1                     # the step count of the last snapshot
    wall0 = _time.perf_counter()

    def record(st: FlowState):
        if not report.records or report.records[-1].step_count != st.step_count:
            report.records.append(energy_functionals(st, kin_total, L, probes, thresholds))

    record(state)
    for (new_state,), forced in march([state], schedule.t_end):
        if forced:
            # operational blow-up: log it and record the state it started from
            report.underflow_times.append(float(state.t))
            record(state)
        kin_total += new_state.last_rate ** 2 * new_state.last_dt
        state = new_state
        if forced or (schedule.diag_stride > 0
                      and state.step_count % schedule.diag_stride == 0):
            record(state)
        if (not forced and snapshot is not None and schedule.snapshot_stride > 0
                and state.step_count % schedule.snapshot_stride == 0):
            snapshot(state)
            snapped = state.step_count
    record(state)
    if snapshot is not None and snapped != state.step_count:
        snapshot(state)
    report.crossing_points = {c: [float(x) for x in mesh.vertices[c]]
                              for rec in report.records for c in rec.crossings}

    report.solver_stats = copy.deepcopy(state.ctx.stats)
    report.solver_stats["wall_seconds"] = _time.perf_counter() - wall0
    return state, report
