"""Projected time stepping for the coupled parabolic-elliptic flow.

The map u obeys  du/dt = Lap u + A(u)(grad u, grad u) - B_tan(u) |grad v|^2
with u = phi on the boundary, and v solves -div(beta(u) grad v) = 0 with
v = psi on the boundary at every time (no time derivative on v; the elliptic
solve inside a step uses the current u, lagged coupling).

The scheme is a theta-scheme on the Laplacian (theta in [1/2, 1]; 1/2 is
second order in time, 1 is fully damped) with the nonlinear terms explicit:
one SPD solve per component, CFL timestep dt = sigma h.

After every trial step the nodal values are projected back onto the target
and the boundary rows reset to phi exactly.  A trial step whose largest
nodal displacement exceeds max_move_fraction * h, or whose projection
degenerates, raises StepRejected; one whose map or potential is not finite
raises SolverFailure.
`march` owns the dt policy of every run: it halves dt and retries, grows
it back (doubling, capped at the CFL value) only once GROW_AFTER steps in a
row have been accepted since the last rejection, and once dt falls below
dt_min = DT_MIN_FACTOR * h^2 (timestep underflow) it takes one uncapped
dt_min step (the discrete stand-in for restarting from the weak limit) and
resumes with the CFL timestep.  So dt is always dt_cfl / 2^k (or the step
that lands on t_end), and the theta-step matrices stay few: the one at the
CFL value, which most steps use, is factored once; every other one is
solved by Jacobi CG.  All states marched from one `initial_state` (the two
members of a twin pair) share one `_FlowContext`.  A state's triangle
gradients and nodal forcing are evaluated once, on first use, whether a
retried step, a record or the next step asks for them.
"""

from __future__ import annotations

import copy
import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .boundary import BoundaryData
from .diagnostics import (DiagnosticsReport, ThresholdConfig, energy_functionals)
from .elliptic import (WarpedBlock, cg_solve, dirichlet_split, jacobi_preconditioner,
                       solve_warped_laplace)
from .errors import DegeneratePoint, SolverFailure, StepRejected
from .geometry import warp_force
from .mesh import BallIndex, DomainMesh, local_energy_matrix, tri_energy_density

DT_MIN_FACTOR = 1e-6
# accepted steps in a row since the last rejection before dt may grow again
GROW_AFTER = 4


@dataclass
class StepperConfig:
    sigma: float = 0.2
    theta: float = 0.5
    max_move_fraction: float = 0.1
    max_forced_steps: int = 50

    def __post_init__(self):
        if not 0.0 < self.sigma <= 0.5:
            raise ValueError("sigma must lie in (0, 0.5]")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0.5, 1]")
        if self.max_move_fraction <= 0:
            raise ValueError("max_move_fraction must be positive")

    def dt_initial(self, h: float) -> float:
        return self.sigma * h

    def dt_min(self, h: float) -> float:
        return DT_MIN_FACTOR * h * h


@dataclass
class Schedule:
    t_end: float
    diag_stride: int = 1
    snapshot_stride: int = 0
    snapshot_cb: object = None


class _FlowContext:
    """Solver stats, theta-step solves and the warped potential's block of one run.

    It depends only on the mesh, the boundary traces and the warp, so all
    states marched from one `initial_state` share it (a twin pair too), and
    stats count every step call once.  K_phi = (K phi)_I.  The theta-step
    matrix A = M_II + theta dt K_II is solved by Jacobi CG, cached per
    (dt, theta) with its preconditioner, except at `cfl_key` = (dt_cfl,
    theta): the first time that key is used at a second time level, one
    sparse LU factor replaces its matrix and solves all columns of every
    later step there.  So a context holds at most one factor, a run that
    tries the CFL step once builds none, members of a twin pair always
    solve alike, and step_iterations counts CG solves only.  `potential` is
    where the potential is decided: a non-constant warp re-solves it every
    step on this WarpedBlock (the fixed-pattern block and its cached
    factor); a constant warp has None, and its potential is the harmonic
    extension of psi for all time, solved nowhere in the flow.
    """

    def __init__(self, mesh: DomainMesh, bdata: BoundaryData, warp, cfl_key):
        self.mesh = mesh
        self.K_II, self.K_phi, _ = dirichlet_split(mesh, mesh.stiffness, bdata.phi)
        self.potential = None if warp.kind == "constant" else WarpedBlock(mesh, bdata.psi)
        self.cfl_key = (float(cfl_key[0]), float(cfl_key[1]))
        self._cfl_first_t = None
        self._cfl_lu = None
        # M_II + theta dt K_II has K_II's pattern (its diagonal included): a
        # step matrix is one data array over K_II's index arrays
        M_II = self.K_II.copy()
        M_II.data[:] = 0.0
        M_II.setdiag(mesh.lumped_mass[mesh.interior])
        self._mass_data = M_II.data
        self._step_mat = {}
        # |grad v|^2 per triangle under a constant warp, whose potential is
        # the same psi_ext in every state
        self.grad_sq_psi_ext = None
        self.stats = {"elliptic_solves": 0, "elliptic_iterations": 0,
                      "step_iterations": 0, "accepted_steps": 0, "rejected_steps": 0,
                      "rejections": {"move_cap": 0, "projection": 0},
                      "max_elliptic_residual": 0.0}

    def step_matrix(self, dt: float, theta: float):
        """(A, its inverse diagonal) for A = M_II + theta dt K_II; cached
        only for dt = dt_cfl / 2^k, so a step clipped to land on t_end is not."""
        key = (float(dt), float(theta))
        entry = self._step_mat.get(key)
        if entry is None:
            K = self.K_II
            A = sp.csr_matrix((self._mass_data + (theta * dt) * K.data, K.indices, K.indptr),
                              shape=K.shape)
            entry = (A, jacobi_preconditioner(A))
            if math.frexp(self.cfl_key[0] / key[0])[0] == 0.5:
                self._step_mat[key] = entry
        return entry

    def theta_solve(self, dt: float, theta: float, t: float, rhs_I: np.ndarray,
                    x0_I: np.ndarray) -> np.ndarray:
        """The columns X of (M_II + theta dt K_II) X = rhs_I for a step from time t."""
        if (float(dt), float(theta)) == self.cfl_key:
            if self._cfl_first_t is None:
                self._cfl_first_t = t
            elif self._cfl_lu is None and t != self._cfl_first_t:
                A = self.step_matrix(dt, theta)[0]
                self._cfl_lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
                del self._step_mat[self.cfl_key]      # the factor replaces it
            if self._cfl_lu is not None:
                return self._cfl_lu.solve(rhs_I)
        A, M = self.step_matrix(dt, theta)
        X = np.empty_like(rhs_I)
        for d in range(rhs_I.shape[1]):
            X[:, d], _, iters = cg_solve(A, rhs_I[:, d], x0=x0_I[:, d], M=M)
            self.stats["step_iterations"] += iters
        return X


@dataclass
class FlowState:
    mesh: DomainMesh
    target: object
    warp: object
    bdata: BoundaryData
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0
    dt: float = 0.0
    step_count: int = 0
    last_rate: float = 0.0
    ctx: _FlowContext = field(default=None, repr=False)
    # read-only fields derived from (u, v), each evaluated on first use;
    # `replace` starts every new state with an empty cache
    cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        # the cache relies on u and v never changing once the state is built
        self.u.flags.writeable = self.v.flags.writeable = False

    def _derived(self, key, compute):
        val = self.cache.get(key)
        if val is None:
            val = self.cache[key] = compute()
            val.flags.writeable = False
        return val

    def grad_sq_u(self) -> np.ndarray:
        """Per-triangle |grad u|^2, evaluated once per state."""
        return self._derived("grad_sq_u", lambda: self.mesh.tri_grad_sq(self.u))

    def grad_sq_v(self) -> np.ndarray:
        """Per-triangle |grad v|^2, evaluated once per state, or once per
        context under a constant warp."""
        ctx = self.ctx
        if ctx.potential is not None:
            return self._derived("grad_sq_v", lambda: self.mesh.tri_grad_sq(self.v))
        if ctx.grad_sq_psi_ext is None:
            ctx.grad_sq_psi_ext = self.mesh.tri_grad_sq(self.v)
            ctx.grad_sq_psi_ext.flags.writeable = False
        return ctx.grad_sq_psi_ext


def _solve_potential(ctx, warp, bdata, u, x0=None):
    sol = solve_warped_laplace(ctx.mesh, warp.beta(u), bdata.psi, x0=x0,
                               block=ctx.potential)
    ctx.stats["elliptic_solves"] += 1
    ctx.stats["elliptic_iterations"] += sol.iterations
    ctx.stats["max_elliptic_residual"] = max(ctx.stats["max_elliptic_residual"],
                                             sol.rel_residual)
    return sol.v


def initial_state(mesh: DomainMesh, target, warp, bdata: BoundaryData,
                  config: StepperConfig) -> FlowState:
    """Validated starting state with the matching elliptic potential."""
    u0 = np.array(bdata.phi0, dtype=float)
    if float(np.max(target.distance(u0))) > 1e-9:
        raise ValueError("initial map must lie on the target manifold")
    if np.max(np.abs(u0[mesh.boundary] - bdata.phi[mesh.boundary])) != 0.0:
        raise ValueError("initial map must equal the boundary trace on the boundary")
    dt_cfl = config.dt_initial(mesh.target_h)
    ctx = _FlowContext(mesh, bdata, warp, (dt_cfl, config.theta))
    if ctx.potential is None:
        v0 = np.array(bdata.psi_ext, dtype=float)
    else:
        v0 = _solve_potential(ctx, warp, bdata, u0)
    # dt policy keys off the configured mesh size; tolerances elsewhere use
    # the realized max edge mesh.h
    return FlowState(mesh=mesh, target=target, warp=warp, bdata=bdata,
                     u=u0, v=v0, t=0.0, dt=dt_cfl, ctx=ctx)


def _forcing(state: FlowState) -> np.ndarray:
    """Nodal explicit forcing: curvature term minus warp drift term, once per
    state.  It reuses the |grad u|^2 a record cached but keeps none of its
    own, so a state that is only stepped holds no gradients while its step
    solve runs."""
    def compute():
        mesh = state.mesh
        g2_u = state.cache.get("grad_sq_u")
        if g2_u is None:
            g2_u = mesh.tri_grad_sq(state.u)
        F = state.target.curvature_force(state.u, mesh.nodal_from_tri(g2_u))
        if state.ctx.potential is not None:
            s = mesh.nodal_from_tri(state.grad_sq_v())
            F = F - warp_force(state.target, state.warp, state.u, s)
        return F
    return state._derived("forcing", compute)


def tension_residual(state: FlowState):
    """Tangential discrete tension field and its L2 norm (boundary rows zero)."""
    mesh = state.mesh
    lap = mesh.laplacian(state.u)
    R = lap + _forcing(state)
    R = state.target.project_tangent(state.u, R)
    R[mesh.boundary] = 0.0
    norm = math.sqrt(float(np.dot(mesh.lumped_mass, np.sum(R * R, axis=1))))
    return R, norm


def _count_rejection(ctx: _FlowContext, reason: str):
    ctx.stats["rejected_steps"] += 1
    ctx.stats["rejections"][reason] += 1


def step(state: FlowState, config: StepperConfig, dt: float = None,
         enforce_cap: bool = True) -> FlowState:
    """One projected step of size dt (default state.dt); returns the new state.

    Raises StepRejected when the largest nodal move exceeds
    max_move_fraction * h (with enforce_cap) or the projection degenerates,
    and SolverFailure with the time attached when a solve fails or the new
    map or potential is not finite; dt control belongs to `march`.
    """
    mesh, ctx = state.mesh, state.ctx
    dt = state.dt if dt is None else float(dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    u, m = state.u, mesh.lumped_mass
    F = _forcing(state)

    try:
        theta, I = config.theta, mesh.interior
        rhs = m[:, None] * (u + dt * F)
        if theta != 1.0:
            rhs -= ((1.0 - theta) * dt) * (mesh.stiffness @ u)
        rhs_I = rhs[I] - (theta * dt) * ctx.K_phi
        u_star = np.array(u)
        u_star[I] = ctx.theta_solve(dt, theta, state.t, rhs_I, u[I])
        if not np.all(np.isfinite(u_star)):
            raise SolverFailure("non-finite map after the step solve")
    except SolverFailure as exc:
        raise SolverFailure(f"{exc} (at t = {state.t:.6g})", time=state.t) from exc

    try:
        u_new = state.target.project_field(u_star)
    except DegeneratePoint as exc:
        _count_rejection(ctx, "projection")
        raise StepRejected(f"projection degenerated: {exc}") from exc
    u_new[mesh.boundary] = state.bdata.phi[mesh.boundary]

    move = float(np.max(np.linalg.norm(u_new - u, axis=1)))
    if enforce_cap and move > config.max_move_fraction * mesh.h:
        _count_rejection(ctx, "move_cap")
        raise StepRejected(
            f"nodal move {move:.3e} exceeds {config.max_move_fraction} * h")

    try:
        v_new = state.v if ctx.potential is None else \
            _solve_potential(ctx, state.warp, state.bdata, u_new, x0=state.v)
        if not np.all(np.isfinite(v_new)):
            raise SolverFailure("non-finite potential")
    except SolverFailure as exc:
        raise SolverFailure(f"{exc} (at t = {state.t + dt:.6g})",
                            time=state.t + dt) from exc

    ctx.stats["accepted_steps"] += 1
    diff2 = float(np.dot(m, np.sum((u_new - u) ** 2, axis=1)))
    return replace(state, u=u_new, v=v_new, t=state.t + dt,
                   step_count=state.step_count + 1,
                   last_rate=math.sqrt(diff2) / dt)


def march(states: list, config: StepperConfig, t_end: float):
    """Advance `states` in lockstep to t_end under one shared adaptive dt.

    A trial step that any member rejects is retried at half the dt.  dt
    grows back only after GROW_AFTER steps in a row have been accepted since
    the last rejection (or since the march began): from then on each
    accepted step doubles it, capped at the CFL value.  So dt stays
    dt_cfl / 2^k and does not swing between a rejected dt and its half.
    When halving would drop dt below dt_min (timestep underflow), every
    member takes one uncapped dt_min step and dt restarts at the CFL value;
    more than max_forced_steps forced steps in a row raise SolverFailure.
    Yields (states, dt, forced) after every step taken, each state's dt set
    to the next planned step.
    """
    h = states[0].mesh.target_h
    dt_cfl, dt_floor = config.dt_initial(h), config.dt_min(h)
    controller = states[0].dt if states[0].dt > 0 else dt_cfl
    forced_run = accepted_run = 0
    while states[0].t < t_end - 1e-14:
        t = states[0].t
        dt = min(controller, t_end - t)
        try:
            new = [step(s, config, dt=dt) for s in states]
        except StepRejected:
            controller, accepted_run = dt / 2.0, 0
            if controller >= dt_floor:
                continue
            forced_run += 1
            if forced_run > config.max_forced_steps:
                raise SolverFailure(
                    f"persistent timestep underflow at t = {t:.6g}", time=t)
            forced, dt = True, dt_floor
            new = [step(s, config, dt=dt, enforce_cap=False) for s in states]
            controller = dt_cfl
        else:
            forced, forced_run = False, 0
            accepted_run += 1
            if accepted_run >= GROW_AFTER:
                controller = min(controller * 2.0, dt_cfl)
        for s in new:
            s.dt = controller
        states = new
        yield states, dt, forced


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


def run_flow(state: FlowState, config: StepperConfig, schedule: Schedule,
             thresholds: ThresholdConfig = None):
    """March to t_end with adaptive dt; returns (final state, DiagnosticsReport).

    The report carries one record per diag_stride accepted steps (plus the
    initial and final states), each with its probe ball energies and its
    crossings (the vertices whose r_detect-ball energy exceeds
    thresholds.energy), the coordinates of every crossing vertex, underflow
    times, and aggregate solver statistics.
    """
    from .diagnostics import RunBounds

    thresholds = thresholds or ThresholdConfig()
    mesh = state.mesh
    bounds = RunBounds.from_run(mesh, state.warp, state.bdata)
    report = DiagnosticsReport(records=[], bounds=bounds, thresholds=thresholds)
    if schedule.t_end <= 0:
        return state, report

    L = local_energy_matrix(mesh, thresholds.r_detect)
    probes = BallIndex.build(mesh, default_probe_centers(mesh), thresholds.probe_radii())
    kin_since_record = kin_total = 0.0
    wall0 = _time.perf_counter()

    def record(st: FlowState):
        nonlocal kin_since_record
        rec = energy_functionals(st)
        rec.kinetic_increment = kin_since_record
        rec.kinetic_cum = kin_total
        rec.rate_l2 = st.last_rate
        dens = tri_energy_density(mesh, st.u, st.grad_sq_u())
        local = L @ dens
        rec.max_local_energy = float(local.max())
        rec.max_local_vertex = int(np.argmax(local))
        rec.ball_probes = probes.energies(dens)
        rec.crossings = {int(c): float(local[c])
                         for c in np.flatnonzero(local > thresholds.energy)}
        for c in rec.crossings:
            report.crossing_points.setdefault(c, [float(x) for x in mesh.vertices[c]])
        report.records.append(rec)
        kin_since_record = 0.0

    record(state)
    for (new_state,), dt, forced in march([state], config, schedule.t_end):
        if forced:
            # operational blow-up: log it and record the state the forced
            # step started from
            report.underflow_times.append(float(state.t))
            record(state)
        kin = new_state.last_rate ** 2 * dt
        kin_since_record += kin
        kin_total += kin
        state = new_state
        if forced or (schedule.diag_stride > 0
                      and state.step_count % schedule.diag_stride == 0):
            record(state)
        if (not forced and schedule.snapshot_cb is not None
                and schedule.snapshot_stride > 0
                and state.step_count % schedule.snapshot_stride == 0):
            schedule.snapshot_cb(state)

    if report.records[-1].step_count != state.step_count:
        record(state)
    if schedule.snapshot_cb is not None:
        schedule.snapshot_cb(state)

    recs = report.records
    sup_grad_u = max(math.sqrt(2.0 * r.e_u) for r in recs)
    sup_grad4_v = max(r.grad4_v for r in recs) ** 0.25
    ts = np.array([r.t for r in recs])
    proxy = np.array([r.laplacian_proxy for r in recs])
    proxy_int = float(np.trapezoid(proxy, ts)) if len(recs) > 1 else 0.0
    report.v_norm = sup_grad_u + sup_grad4_v + kin_total + proxy_int
    report.solver_stats = copy.deepcopy(state.ctx.stats)
    report.solver_stats["wall_seconds"] = _time.perf_counter() - wall0
    return state, report
