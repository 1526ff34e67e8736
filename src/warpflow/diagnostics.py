"""Energy records, inequality checks, concentration detection, convergence.

`energy_functionals` measures a live flow state into a record and
`RunBounds.from_run` reads a run's mesh, warp and boundary data; every
analysis after them consumes the records only, so the same code runs inside
a live flow and on a deserialized report.  Conventions:

* E_u, E_v are plain Dirichlet energies (factor 1/2 included); E_beta_v is
  the beta-weighted potential energy and E_g = E_u - E_beta_v the Lorentzian
  energy driving the flow.
* kinetic_cum is the running sum over steps of (lumped) ||u_{j+1} - u_j||^2 / dt,
  the discrete integral of |du/dt|^2 in time.
* |D^2 u|^2 is everywhere replaced by the lumped discrete-Laplacian square
  ("laplacian_proxy"); every check that uses it says so in its detail string.
* the monotonicity tolerance per accepted step is
      tol_mono = 1e-6 + MONO_C * (dt + h^2) * |E_g(0)|,
  with MONO_C pinned below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import InsufficientSeries
from .mesh import DomainMesh, dirichlet_energy, tri_energy_density

MONO_C = 1.0
HARD_CHECK_SLACK = 1e-3   # additive slack on the a priori bounds
STATIONARITY_FACTOR = 1e-5
RESIDUAL_FACTOR = 10.0


@dataclass
class ThresholdConfig:
    energy: float = 1.0          # concentration threshold on local energy
    r_detect: float = 0.1
    r_grid: tuple = (0.1, 0.2)   # radii for two-ball profiles
    persist_frames: int = 3

    def __post_init__(self):
        if not self.energy > 0:
            raise ValueError("energy threshold must be positive")
        if not self.r_detect > 0:
            raise ValueError("r_detect must be positive")
        if not all(r > 0 for r in self.r_grid):
            raise ValueError("r_grid radii must be positive")
        if not self.persist_frames >= 1:
            raise ValueError("persist_frames must be at least 1")

    def probe_radii(self) -> tuple:
        radii = {float(self.r_detect)}
        for r in self.r_grid:
            radii.add(float(r))
            radii.add(2.0 * float(r))
        return tuple(sorted(radii))


@dataclass
class EnergyRecord:
    """One recorded state; ball_probes has a row per centre of the report's
    probe_centers and a column per radius of thresholds.probe_radii()."""

    t: float
    e_u: float
    e_v: float
    e_beta_v: float
    e_g: float
    kinetic_cum: float
    laplacian_proxy: float
    rate_l2: float
    l2_centered: float
    l4_centered: float
    grad4_u: float
    grad4_v: float
    max_local_energy: float
    dt: float                     # the step that made the state, 0 at t = 0
    step_count: int
    ball_probes: list = field(default_factory=list)  # [centre][radius] ball energy
    crossings: dict = field(default_factory=dict)    # {vertex: energy > thresholds.energy}


@dataclass
class SingularityEvent:
    time: float
    vertices: list                # cluster representatives, >= 2 r_detect apart
    points: list                  # their coordinates [[x, y], ...]
    radius: float
    peak_energies: list

    @property
    def multiplicity(self) -> int:
        return len(self.vertices)

    @property
    def center(self):
        k = int(np.argmax(self.peak_energies))
        return self.points[k]


@dataclass
class CheckResult:
    name: str
    passed: bool
    hard: bool
    constants: dict
    tolerance: float
    detail: str

    def __post_init__(self):
        # plain Python numbers, so stored and printed constants never show numpy types
        self.constants = {k: int(v) if isinstance(v, (int, np.integer)) else float(v)
                          for k, v in self.constants.items()}


@dataclass
class ConvergenceReport:
    status: str                   # "converged" | "not_stationary"
    converged: bool
    rate_l2: float
    rate_tolerance: float
    residual_norm: float
    residual_tolerance: float
    halving_times: list
    halving_rates: list
    persistent_vertices: list


@dataclass
class RunBounds:
    """Scalars entering the a priori inequalities, frozen at setup time."""

    warp_lower: float
    warp_upper: float
    energy_phi0: float
    energy_psi_ext: float
    grad4_psi_ext: float
    phi_c2_proxy: float
    domain_area: float
    h: float

    def __post_init__(self):
        # the suite divides by both; a stored report may hold any number
        for name in ("warp_lower", "domain_area"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    @property
    def budget(self) -> float:
        return self.energy_phi0 + self.warp_upper * self.energy_psi_ext

    @classmethod
    def from_run(cls, mesh: DomainMesh, warp, bdata) -> "RunBounds":
        g2 = mesh.tri_grad_sq(bdata.psi_ext)
        # phi_c2_proxy = sup |phi| + sup |grad phi| + sup |D^2 phi| of the
        # extension, the second-derivative part replaced by the lumped
        # discrete Laplacian (documented proxy)
        phi = bdata.phi_ext
        c2 = (float(np.max(np.linalg.norm(phi, axis=1)))
              + float(np.sqrt(np.max(mesh.tri_grad_sq(phi))))
              + float(np.max(np.linalg.norm(mesh.laplacian(phi, mesh.stiffness @ phi), axis=1))))
        return cls(warp_lower=warp.lower, warp_upper=warp.upper,
                   energy_phi0=dirichlet_energy(mesh, bdata.phi0),
                   energy_psi_ext=float(tri_energy_density(mesh, g2).sum()),
                   grad4_psi_ext=float(np.sum(mesh.areas * g2 * g2)),
                   phi_c2_proxy=c2, domain_area=mesh.domain_area, h=mesh.h)


@dataclass
class DiagnosticsReport:
    records: list
    bounds: RunBounds
    thresholds: ThresholdConfig
    events: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    convergence: ConvergenceReport = None
    underflow_times: list = field(default_factory=list)
    v_norm: float = 0.0
    solver_stats: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    crossing_points: dict = field(default_factory=dict)  # {vertex: [x, y]} of any crossing
    probe_centers: list = field(default_factory=list)    # the vertex of each ball_probes row


def mono_tolerance(dt: float, h: float, e_g0: float) -> float:
    return 1e-6 + MONO_C * (dt + h * h) * abs(e_g0)


# -- record construction ----------------------------------------------------

def energy_functionals(state, kinetic_cum: float, L, probes,
                       thresholds: ThresholdConfig) -> EnergyRecord:
    """The whole record of a flow state: its energies, the dt and rate of the
    step that made it (0 at t = 0), the run's kinetic_cum, and from its energy
    density the r_detect-ball sums L @ dens (their maximum, and the crossings:
    the vertices above thresholds.energy) and probes @ dens, one row of
    ball_probes per probe centre.  The gradients, K u and beta are the state's
    own, evaluated once per state.
    """
    mesh = state.mesh
    g2u, g2v = state.grad_sq_u, state.grad_sq_v
    dens_u = tri_energy_density(mesh, g2u)
    dens_v = tri_energy_density(mesh, g2v)
    beta_tri = state.beta_tri
    e_u = float(dens_u.sum())
    e_v = float(dens_v.sum())
    e_beta_v = float((beta_tri * dens_v).sum())

    lap = mesh.laplacian(state.u, state.stiffness_u)
    proxy = mesh.mass_sum(np.einsum("ij,ij->i", lap, lap))

    mean = np.einsum("i,ij->j", mesh.lumped_mass, state.u) / mesh.domain_area
    centered = state.u - mean
    c2 = np.einsum("ij,ij->i", centered, centered)
    l2c = mesh.mass_sum(c2)
    l4c = mesh.mass_sum(c2 * c2)

    grad4_u = float(np.sum(mesh.areas * g2u * g2u))
    grad4_v = float(np.sum(mesh.areas * g2v * g2v))
    local = L @ dens_u

    return EnergyRecord(
        t=state.t, e_u=e_u, e_v=e_v, e_beta_v=e_beta_v, e_g=e_u - e_beta_v,
        kinetic_cum=kinetic_cum, laplacian_proxy=proxy,
        rate_l2=state.last_rate, l2_centered=l2c, l4_centered=l4c,
        grad4_u=grad4_u, grad4_v=grad4_v,
        max_local_energy=float(local.max()), dt=state.last_dt, step_count=state.step_count,
        ball_probes=(probes @ dens_u).reshape(-1, len(thresholds.probe_radii())).tolist(),
        crossings={int(c): float(local[c]) for c in np.flatnonzero(local > thresholds.energy)})


# -- inequality suite --------------------------------------------------------

def _fit_two_ball(records, radii, r_grid):
    """Envelope constants C1, C2 for the local energy comparison between
    radius-r balls at time t and radius-2r balls at earlier time s; `radii`
    are the columns of every record's ball_probes."""
    c1, c2, samples, n = 0.0, 0.0, 0, len(records)
    r = np.array(r_grid, dtype=float)
    col_r, col_2r = ([radii.index(x) for x in k * r] for k in (1.0, 2.0))
    probes = np.reshape([rec.ball_probes for rec in records], (n, -1, len(radii)))
    ts = np.array([rec.t for rec in records])
    for gap in (1, 5, 10):
        j = np.arange(0, n - gap, max(1, (n - gap) // 30))
        span = ts[j + gap] - ts[j]
        j, span = j[span > 0], span[span > 0, None, None]
        deficit = probes[j + gap][:, :, col_r] - probes[j][:, :, col_2r]
        samples += deficit.size
        c1 = float(np.max(deficit * r * r / span, initial=c1))
        c2 = float(np.max(deficit / span, initial=c2))
    return c1, c2, samples


def inequality_suite(records, bounds: RunBounds, thresholds: ThresholdConfig,
                     events=None) -> list:
    """Named checks against the a priori inequalities of the flow.

    Hard checks (monotonicity, Dirichlet bounds, kinetic budget, warp
    sandwich, count bounds) assert with pinned tolerances; profile checks
    (two-ball, quartic interpolation, gradient-quartic budget, second-order
    budget) report fitted constants whose stability under refinement is
    asserted elsewhere.
    """
    if len(records) < 2:
        raise InsufficientSeries("inequality suite needs at least 2 records")
    checks = []

    def bound(name, key, value, budget, slack, detail):
        checks.append(CheckResult(name=name, passed=bool(value <= budget + slack), hard=True,
                                  constants={key: value, "budget": budget},
                                  tolerance=slack, detail=detail))

    def profile(name, constants, detail):
        checks.append(CheckResult(name=name, passed=True, hard=False, constants=constants,
                                  tolerance=0.0, detail=detail))

    e_g0 = records[0].e_g
    h = bounds.h

    # (a) integrated dissipation: F_j = E_g + kinetic_cum minus the running
    # per-step allowance must be non-increasing; covers pairwise monotonicity
    # for all record pairs.  mono_tolerance is affine in dt, so the tolerances
    # of the steps since record 0 sum to (1e-6 + MONO_C h^2 |E_g(0)|) steps
    # + MONO_C |E_g(0)| (t - t_0), whatever dt each step took.
    F = np.array([r.e_g + r.kinetic_cum for r in records])
    steps = np.array([r.step_count for r in records], dtype=float)
    ts = np.array([r.t for r in records])
    allowance = (mono_tolerance(0.0, h, e_g0) * (steps - steps[0])
                 + MONO_C * abs(e_g0) * (ts - ts[0]))
    Fs = F - allowance
    inc = np.diff(Fs)
    worst = float(inc.max()) if inc.size else 0.0
    checks.append(CheckResult(
        name="energy_monotonicity", passed=bool(worst <= 1e-12 * max(1.0, abs(e_g0))),
        hard=True, constants={"max_increase": worst},
        tolerance=mono_tolerance(max(r.dt for r in records), h, e_g0),
        detail="E_g + cumulative kinetic non-increasing up to steps*tol_mono"))

    # (b) Dirichlet bounds and kinetic budget
    budget = bounds.budget
    bound("dirichlet_bound_u", "max_e_u", max(r.e_u for r in records), budget,
          HARD_CHECK_SLACK, "E_u(t) <= E(phi0) + Lam*E(psi_ext) at every record")
    bound("dirichlet_bound_v", "max_e_v", max(r.e_v for r in records),
          (bounds.warp_upper / bounds.warp_lower) * bounds.energy_psi_ext,
          HARD_CHECK_SLACK, "E_v(t) <= (Lam/lam)*E(psi_ext) at every record")
    bound("kinetic_budget", "kinetic_total", records[-1].kinetic_cum, budget,
          HARD_CHECK_SLACK + float(allowance[-1]),
          "integral of |du/dt|^2 bounded by the energy budget")

    # warp sandwich: lam <= E_beta_v / E_v <= Lam whenever E_v > 0; a failure
    # reports the ratio farthest outside [lam, Lam], the first on a tie
    worst_ratio = worst_gap = None
    for r in records:
        if r.e_v > 1e-14:
            ratio = r.e_beta_v / r.e_v
            gap = max(bounds.warp_lower - ratio, ratio - bounds.warp_upper)
            if (not bounds.warp_lower - 1e-9 <= ratio <= bounds.warp_upper + 1e-9
                    and (worst_gap is None or gap > worst_gap)):
                worst_ratio, worst_gap = ratio, gap
    checks.append(CheckResult(
        name="warp_sandwich", passed=worst_ratio is None, hard=True,
        constants={} if worst_ratio is None else {"ratio": worst_ratio},
        tolerance=1e-9, detail="lam <= E_beta_v/E_v <= Lam"))

    # (c) two-ball comparison, envelope constants
    c1, c2, samples = _fit_two_ball(records, thresholds.probe_radii(),
                                     thresholds.r_grid)
    profile("two_ball", {"C1": c1, "C2": c2, "samples": samples},
            "local energy growth E(t;B_r) - E(s;B_2r) <= C1 (t-s)/r^2 + C2 (t-s)")

    # (d) quartic interpolation bound on the mean-free map
    c_lady = 0.0
    for r in records:
        grad2 = 2.0 * r.e_u
        denom = r.l2_centered * (grad2 + r.l2_centered / bounds.domain_area)
        if denom > 1e-28:
            c_lady = max(c_lady, r.l4_centered / denom)
    profile("ladyzhenskaya", {"C_lady": c_lady},
            "int |u-mean|^4 <= C int |u-mean|^2 (int |grad u|^2 + |O|^-1 int |u-mean|^2)")

    # time weights for the space-time integrals (trapezoid on record times)
    w = np.zeros(len(records))
    if len(records) > 1:
        dt_seg = np.diff(ts)
        w[:-1] += 0.5 * dt_seg
        w[1:] += 0.5 * dt_seg

    # (e) space-time gradient-quartic budget, |D^2 u|^2 -> laplacian_proxy
    lhs = float(np.sum(w * np.array([r.grad4_u for r in records])))
    sup_local = max(r.max_local_energy for r in records)
    proxy_int = float(np.sum(w * np.array([r.laplacian_proxy for r in records])))
    grad2_int = float(np.sum(w * np.array([2.0 * r.e_u for r in records])))
    r_det = thresholds.r_detect
    rhs0 = sup_local * (proxy_int + grad2_int / (r_det * r_det))
    c_struwe = lhs / rhs0 if rhs0 > 1e-28 else 0.0
    profile("grad4_budget", {"C_struwe": c_struwe, "radius": r_det},
            "int int |grad u|^4 <= C sup_ball E * (int int |D^2 u|^2_proxy + r^-2 int int |grad u|^2);"
            " |D^2 u|^2 replaced by the lumped discrete-Laplacian square")

    # (f) second-order energy budget, |D^2 u|^2 -> laplacian_proxy
    T = ts[-1] - ts[0]
    lhs_w = records[-1].e_u + proxy_int
    rhs_w = ((1.0 + T / (r_det * r_det)) * budget
             + (T / (r_det * r_det)) * (bounds.grad4_psi_ext + bounds.phi_c2_proxy ** 2))
    c_w22 = lhs_w / rhs_w if rhs_w > 1e-28 and lhs_w > 1e-14 else 0.0
    profile("w22_budget", {"C_w22": c_w22, "radius": r_det},
            "E(u(T)) + int int |D^2 u|^2_proxy bounded by budget terms;"
            " |D^2 u|^2 replaced by the lumped discrete-Laplacian square,"
            " C2 norm of the trace replaced by a discrete sup proxy")

    if events is not None and len(events) > 0:
        checks.append(check_singularity_counts(events, bounds, thresholds))
    return checks


def check_singularity_counts(events, bounds: RunBounds,
                             thresholds: ThresholdConfig) -> CheckResult:
    """Count bounds: K <= budget/eps and sum of multiplicities <= 2 (budget/eps)^2."""
    quota = bounds.budget / thresholds.energy
    K = len(events)
    total = sum(ev.multiplicity for ev in events)
    passed = (K <= quota) and (total <= 2.0 * quota * quota)
    return CheckResult(
        name="singularity_counts", passed=bool(passed), hard=True,
        constants={"K": K, "sum_multiplicities": total, "quota": quota},
        tolerance=0.0,
        detail="event count <= budget/threshold; total points <= 2 (budget/threshold)^2")


def hard_checks_pass(checks) -> bool:
    return all(c.passed for c in checks if c.hard)


# -- singularity detection ---------------------------------------------------

def _above(record: EnergyRecord, eps: float) -> set:
    return {c for c, e in record.crossings.items() if e > eps}


def singularity_detect(records: list, thresholds: ThresholdConfig, points: dict) -> list:
    """Concentration events from the records' crossings; `points` maps a vertex to [x, y].

    A vertex "crosses" at frame f when its r_detect-ball energy exceeds the
    threshold there but not at frame f-1 (the state before the first frame
    counts as below), and stays above for persist_frames consecutive frames.
    Simultaneous crossings cluster greedily by peak energy with minimum
    separation 2 r_detect; crossings adjacent to a still-above recorded point
    are absorbed into it.  Each frame with new cluster centers yields one
    event whose multiplicity is the number of centers.  A vertex's peak is
    its largest crossing value from the event's frame on: a frame below the
    threshold cannot hold the maximum.
    """
    eps = thresholds.energy
    persist = thresholds.persist_frames
    sep = 2.0 * thresholds.r_detect
    above = [_above(r, eps) for r in records]
    xy = {c: np.asarray(points[c], dtype=float) for c in set().union(*above)}

    events = []
    recorded = []   # every retained point, across events
    for f in range(len(records) - persist + 1):
        newly = above[f] if f == 0 else above[f] - above[f - 1]
        cand = np.array(sorted(c for c in newly
                               if all(c in a for a in above[f + 1:f + persist])), dtype=int)
        if cand.size == 0:
            continue
        values = np.array([records[f].crossings[c] for c in cand])
        cand = cand[np.argsort(-values)]
        centers = []
        for i in cand:
            if any(np.linalg.norm(xy[i] - xy[pv]) < sep and pv in above[f]
                   for pv in recorded):
                continue
            if any(np.linalg.norm(xy[i] - xy[c]) < sep for c in centers):
                continue
            centers.append(int(i))
        if centers:
            peaks = [max(r.crossings[c] for r, a in zip(records[f:], above[f:]) if c in a)
                     for c in centers]
            events.append(SingularityEvent(
                time=float(records[f].t), vertices=centers,
                points=[[float(x) for x in xy[c]] for c in centers],
                radius=thresholds.r_detect, peak_energies=[float(p) for p in peaks]))
            recorded.extend(centers)
    return events


def persistent_vertices(records: list, thresholds: ThresholdConfig) -> list:
    """Vertices above the detection threshold in every one of the late frames,
    the last max(2, frames // 4); none with fewer than 2 frames."""
    F = len(records)
    if F < 2:
        return []
    late = [_above(r, thresholds.energy) for r in records[F - max(2, F // 4):]]
    return sorted(set.intersection(*late))


# -- convergence --------------------------------------------------------------

def convergence_monitor(records: list, h: float, residual_norm: float,
                        thresholds: ThresholdConfig) -> ConvergenceReport:
    """Stationarity assessment at the end of a run.

    Stationary means the last recorded map velocity is below
    STATIONARITY_FACTOR * (1 + |E_g(0)|) and the final tension residual below
    RESIDUAL_FACTOR * h.  The persistent set is `persistent_vertices` of the
    records.
    """
    rate = records[-1].rate_l2
    rate_tol = STATIONARITY_FACTOR * (1.0 + abs(records[0].e_g))
    res_tol = RESIDUAL_FACTOR * h
    converged = bool(rate < rate_tol and residual_norm < res_tol)

    # times where the velocity first drops below each successive halving of
    # its initial recorded value
    halving_times, halving_rates = [], []
    if len(records) > 1:
        level = records[1].rate_l2
        for r in records[1:]:
            if r.rate_l2 <= level:
                halving_times.append(float(r.t))
                halving_rates.append(float(r.rate_l2))
                level = r.rate_l2 / 2.0

    return ConvergenceReport(
        status="converged" if converged else "not_stationary",
        converged=converged, rate_l2=float(rate), rate_tolerance=float(rate_tol),
        residual_norm=float(residual_norm), residual_tolerance=float(res_tol),
        halving_times=halving_times, halving_rates=halving_rates,
        persistent_vertices=persistent_vertices(records, thresholds))


def derive_verdicts(report: DiagnosticsReport, residual_norm: float) -> int:
    """Fill the report's events, checks, convergence and v_norm from its
    records, bounds, thresholds and crossing points; the exit code, 2 when a
    hard check fails and 0 otherwise.  No records is a ValueError.

    A run passes its final tension residual and `check` the stored one, so
    both reach every verdict through this one function.
    """
    records, thresholds = report.records, report.thresholds
    if not records:
        raise ValueError("report has no records")
    report.events = singularity_detect(records, thresholds, report.crossing_points)
    report.checks = (inequality_suite(records, report.bounds, thresholds, events=report.events)
                     if len(records) >= 2 else [])
    report.convergence = convergence_monitor(records, report.bounds.h, residual_norm,
                                             thresholds)
    # sup |grad u| + sup ||grad v||_4 + int |du/dt|^2 + int |D^2 u|^2_proxy
    ts = np.array([r.t for r in records])
    proxy = np.array([r.laplacian_proxy for r in records])
    report.v_norm = (max(math.sqrt(2.0 * r.e_u) for r in records)
                     + max(r.grad4_v for r in records) ** 0.25 + records[-1].kinetic_cum
                     + float((np.diff(ts) * (proxy[1:] + proxy[:-1]) / 2.0).sum()))
    return 0 if hard_checks_pass(report.checks) else 2


# -- serialization helpers ----------------------------------------------------

def record_to_dict(r: EnergyRecord) -> dict:
    # one level of copies: asdict would recurse into every float of ball_probes
    d = dict(vars(r))
    d["ball_probes"] = [list(row) for row in r.ball_probes]
    d["crossings"] = {str(c): e for c, e in r.crossings.items()}
    return d


def _refuse_non_finite(numbers: list, where: str):
    if not np.all(np.isfinite(np.asarray(numbers, dtype=float))):
        raise ValueError(f"non-finite number in {where}")


def record_from_dict(d: dict) -> EnergyRecord:
    """The record stored in d; ValueError if any of its numbers is not finite."""
    d = dict(d)
    d["crossings"] = {int(c): e for c, e in d["crossings"].items()}
    rec = EnergyRecord(**d)
    numbers = [v for k, v in d.items() if k not in ("ball_probes", "crossings")]
    numbers += [e for row in rec.ball_probes for e in row] + list(rec.crossings.values())
    _refuse_non_finite(numbers, f"the record at t = {rec.t!r}")
    return rec


def report_to_dict(report: DiagnosticsReport) -> dict:
    return {
        "records": [record_to_dict(r) for r in report.records],
        "bounds": asdict(report.bounds),
        "thresholds": asdict(report.thresholds),
        "events": [asdict(e) for e in report.events],
        "checks": [asdict(c) for c in report.checks],
        "convergence": asdict(report.convergence) if report.convergence else None,
        "underflow_times": list(report.underflow_times),
        "v_norm": report.v_norm,
        "solver_stats": dict(report.solver_stats),
        "notes": list(report.notes),
        "crossing_points": {str(c): list(xy) for c, xy in report.crossing_points.items()},
        "probe_centers": list(report.probe_centers),
    }


def report_from_dict(d: dict) -> DiagnosticsReport:
    """The report in d; ValueError on a bad threshold, a non-finite record,
    bound or verdict, or a ball_probes not of probe_centers by probe radii."""
    for key in ("bounds", "convergence"):
        _refuse_non_finite([x for v in (d[key] or {}).values()
                            for x in (v if isinstance(v, list) else [v])
                            if not isinstance(x, str)], key)
    thr = ThresholdConfig(**{**d["thresholds"], "r_grid": tuple(d["thresholds"]["r_grid"])})
    records = [record_from_dict(r) for r in d["records"]]
    if any(np.shape(r.ball_probes) != (len(d["probe_centers"]), len(thr.probe_radii()))
           for r in records):
        raise ValueError("ball_probes is not one row per probe centre by one column per radius")
    return DiagnosticsReport(
        records=records, probe_centers=list(d["probe_centers"]),
        bounds=RunBounds(**d["bounds"]), thresholds=thr,
        events=[SingularityEvent(**e) for e in d["events"]],
        checks=[CheckResult(**c) for c in d["checks"]],
        convergence=ConvergenceReport(**d["convergence"]) if d["convergence"] else None,
        underflow_times=list(d["underflow_times"]), v_norm=d["v_norm"],
        solver_stats=d["solver_stats"], notes=list(d["notes"]),
        crossing_points={int(c): xy for c, xy in d["crossing_points"].items()})
