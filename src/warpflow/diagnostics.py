"""Energy records, inequality checks, concentration detection, convergence.

Every analysis here consumes the recorded time series only, so the same code
runs inside a live flow and on a deserialized report.  Conventions:

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
    max_local_vertex: int
    dt: float                     # the step that made the state, 0 at t = 0
    step_count: int
    ball_probes: dict = field(default_factory=dict)  # {vertex: {radius: energy}}
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
              + float(np.max(np.linalg.norm(mesh.laplacian(phi), axis=1))))
        return cls(warp_lower=warp.lower, warp_upper=warp.upper,
                   energy_phi0=dirichlet_energy(mesh, bdata.phi0),
                   energy_psi_ext=dirichlet_energy(mesh, bdata.psi_ext),
                   grad4_psi_ext=float(np.sum(mesh.areas * g2 * g2)),
                   phi_c2_proxy=c2, domain_area=mesh.domain_area, h=mesh.h)


@dataclass
class DiagnosticsReport:
    records: list
    bounds: RunBounds = None
    thresholds: ThresholdConfig = None
    events: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    convergence: ConvergenceReport = None
    underflow_times: list = field(default_factory=list)
    v_norm: float = 0.0
    solver_stats: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    crossing_points: dict = field(default_factory=dict)  # {vertex: [x, y]} of any crossing

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])


def mono_tolerance(dt: float, h: float, e_g0: float) -> float:
    return 1e-6 + MONO_C * (dt + h * h) * abs(e_g0)


# -- record construction ----------------------------------------------------

def energy_functionals(state) -> EnergyRecord:
    """The record of a flow state: its energies, and the dt and rate of the
    step that made it (0 at t = 0).  The run-level fields (kinetic_cum, local
    energy, probes and crossings) are left empty for run_flow to fill.  The
    gradients, K u and beta are the state's own, evaluated once per state.
    """
    mesh = state.mesh
    g2u, g2v = state.grad_sq_u(), state.grad_sq_v()
    dens_u = tri_energy_density(mesh, state.u, g2u)
    dens_v = tri_energy_density(mesh, state.v, g2v)
    beta_tri = state.beta_tri()
    e_u = float(dens_u.sum())
    e_v = float(dens_v.sum())
    e_beta_v = float((beta_tri * dens_v).sum())

    lap = mesh.laplacian(state.u, state.stiffness_u())
    proxy = float(np.dot(mesh.lumped_mass, np.einsum("ij,ij->i", lap, lap)))

    mean = mesh.lumped_mass @ state.u / mesh.domain_area
    centered = state.u - mean
    c2 = np.einsum("ij,ij->i", centered, centered)
    l2c = float(np.dot(mesh.lumped_mass, c2))
    l4c = float(np.dot(mesh.lumped_mass, c2 * c2))

    grad4_u = float(np.sum(mesh.areas * g2u * g2u))
    grad4_v = float(np.sum(mesh.areas * g2v * g2v))

    return EnergyRecord(
        t=state.t, e_u=e_u, e_v=e_v, e_beta_v=e_beta_v, e_g=e_u - e_beta_v,
        kinetic_cum=0.0, laplacian_proxy=proxy,
        rate_l2=state.last_rate, l2_centered=l2c, l4_centered=l4c,
        grad4_u=grad4_u, grad4_v=grad4_v,
        max_local_energy=0.0, max_local_vertex=-1,
        dt=state.last_dt, step_count=state.step_count)


# -- inequality suite --------------------------------------------------------

def _fit_two_ball(records, r_grid):
    """Envelope constants C1, C2 for the local energy comparison between
    radius-r balls at time t and radius-2r balls at earlier time s."""
    c1 = c2 = 0.0
    samples = 0
    n = len(records)
    for gap in (1, 5, 10):
        if gap >= n:
            continue
        stride = max(1, (n - gap) // 30)
        for j in range(0, n - gap, stride):
            a, b = records[j], records[j + gap]
            span = b.t - a.t
            if span <= 0:
                continue
            for center, probes in b.ball_probes.items():
                for r in r_grid:
                    r = float(r)
                    if r not in probes or (2.0 * r) not in records[j].ball_probes.get(center, {}):
                        continue
                    deficit = probes[r] - records[j].ball_probes[center][2.0 * r]
                    samples += 1
                    if deficit > 0:
                        c1 = max(c1, deficit * r * r / span)
                        c2 = max(c2, deficit / span)
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
    e_g0 = records[0].e_g
    h = bounds.h

    # (a) integrated dissipation: F_j = E_g + kinetic_cum minus the running
    # per-step allowance must be non-increasing; covers pairwise monotonicity
    # for all record pairs.  Each record adds the tolerance at the dt of the
    # step that made it, once per step since the record before.
    tols = np.array([mono_tolerance(r.dt, h, e_g0) for r in records])
    F = np.array([r.e_g + r.kinetic_cum for r in records])
    steps = np.array([r.step_count for r in records], dtype=float)
    allowance = np.concatenate(
        [[0.0], np.cumsum(np.diff(steps) * tols[1:])])
    Fs = F - allowance
    inc = np.diff(Fs)
    worst = float(inc.max()) if inc.size else 0.0
    checks.append(CheckResult(
        name="energy_monotonicity", passed=bool(worst <= 1e-12 * max(1.0, abs(e_g0))),
        hard=True, constants={"max_increase": worst},
        tolerance=float(tols.max()),
        detail="E_g + cumulative kinetic non-increasing up to steps*tol_mono"))

    # (b) Dirichlet bounds and kinetic budget
    budget = bounds.budget
    max_eu = max(r.e_u for r in records)
    checks.append(CheckResult(
        name="dirichlet_bound_u", passed=bool(max_eu <= budget + HARD_CHECK_SLACK),
        hard=True, constants={"max_e_u": max_eu, "budget": budget},
        tolerance=HARD_CHECK_SLACK,
        detail="E_u(t) <= E(phi0) + Lam*E(psi_ext) at every record"))
    v_budget = (bounds.warp_upper / bounds.warp_lower) * bounds.energy_psi_ext
    max_ev = max(r.e_v for r in records)
    checks.append(CheckResult(
        name="dirichlet_bound_v", passed=bool(max_ev <= v_budget + HARD_CHECK_SLACK),
        hard=True, constants={"max_e_v": max_ev, "budget": v_budget},
        tolerance=HARD_CHECK_SLACK,
        detail="E_v(t) <= (Lam/lam)*E(psi_ext) at every record"))
    kin_total = records[-1].kinetic_cum
    kin_slack = HARD_CHECK_SLACK + float(steps[-1]) * float(tols.max())
    checks.append(CheckResult(
        name="kinetic_budget", passed=bool(kin_total <= budget + kin_slack),
        hard=True, constants={"kinetic_total": kin_total, "budget": budget},
        tolerance=kin_slack,
        detail="integral of |du/dt|^2 bounded by the energy budget"))

    # warp sandwich: lam <= E_beta_v / E_v <= Lam whenever E_v > 0
    ok = True
    worst_ratio = None
    for r in records:
        if r.e_v > 1e-14:
            ratio = r.e_beta_v / r.e_v
            if not (bounds.warp_lower - 1e-9 <= ratio <= bounds.warp_upper + 1e-9):
                ok = False
                worst_ratio = ratio
    checks.append(CheckResult(
        name="warp_sandwich", passed=ok, hard=True,
        constants={} if worst_ratio is None else {"ratio": worst_ratio},
        tolerance=1e-9, detail="lam <= E_beta_v/E_v <= Lam"))

    # (c) two-ball comparison, envelope constants
    c1, c2, samples = _fit_two_ball(records, thresholds.r_grid)
    checks.append(CheckResult(
        name="two_ball", passed=True, hard=False,
        constants={"C1": c1, "C2": c2, "samples": samples}, tolerance=0.0,
        detail="local energy growth E(t;B_r) - E(s;B_2r) <= C1 (t-s)/r^2 + C2 (t-s)"))

    # (d) quartic interpolation bound on the mean-free map
    c_lady = 0.0
    for r in records:
        grad2 = 2.0 * r.e_u
        denom = r.l2_centered * (grad2 + r.l2_centered / bounds.domain_area)
        if denom > 1e-28:
            c_lady = max(c_lady, r.l4_centered / denom)
    checks.append(CheckResult(
        name="ladyzhenskaya", passed=True, hard=False,
        constants={"C_lady": c_lady}, tolerance=0.0,
        detail="int |u-mean|^4 <= C int |u-mean|^2 (int |grad u|^2 + |O|^-1 int |u-mean|^2)"))

    # time weights for the space-time integrals (trapezoid on record times)
    ts = np.array([r.t for r in records])
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
    checks.append(CheckResult(
        name="grad4_budget", passed=True, hard=False,
        constants={"C_struwe": c_struwe, "radius": r_det}, tolerance=0.0,
        detail="int int |grad u|^4 <= C sup_ball E * (int int |D^2 u|^2_proxy + r^-2 int int |grad u|^2);"
               " |D^2 u|^2 replaced by the lumped discrete-Laplacian square"))

    # (f) second-order energy budget, |D^2 u|^2 -> laplacian_proxy
    T = ts[-1] - ts[0]
    lhs_w = records[-1].e_u + proxy_int
    rhs_w = ((1.0 + T / (r_det * r_det)) * budget
             + (T / (r_det * r_det)) * (bounds.grad4_psi_ext + bounds.phi_c2_proxy ** 2))
    c_w22 = lhs_w / rhs_w if rhs_w > 1e-28 and lhs_w > 1e-14 else 0.0
    checks.append(CheckResult(
        name="w22_budget", passed=True, hard=False,
        constants={"C_w22": c_w22, "radius": r_det}, tolerance=0.0,
        detail="E(u(T)) + int int |D^2 u|^2_proxy bounded by budget terms;"
               " |D^2 u|^2 replaced by the lumped discrete-Laplacian square,"
               " C2 norm of the trace replaced by a discrete sup proxy"))

    if events is not None and len(events) > 0:
        checks.append(check_singularity_counts(events, bounds, thresholds))
    # plain Python numbers, so stored and printed constants never show numpy types
    for c in checks:
        c.constants = {k: int(v) if isinstance(v, (int, np.integer)) else float(v)
                       for k, v in c.constants.items()}
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
                     + float(np.trapezoid(proxy, ts)))
    return 0 if hard_checks_pass(report.checks) else 2


# -- serialization helpers ----------------------------------------------------

def record_to_dict(r: EnergyRecord) -> dict:
    d = asdict(r)
    d["ball_probes"] = {str(c): {f"{rad:.17g}": val for rad, val in probes.items()}
                        for c, probes in r.ball_probes.items()}
    d["crossings"] = {str(c): e for c, e in r.crossings.items()}
    return d


def record_from_dict(d: dict) -> EnergyRecord:
    """The record stored in d; ValueError if any of its numbers is not finite."""
    d = dict(d)
    d["ball_probes"] = {int(c): {float(rad): val for rad, val in probes.items()}
                        for c, probes in d["ball_probes"].items()}
    d["crossings"] = {int(c): e for c, e in d["crossings"].items()}
    rec = EnergyRecord(**d)
    numbers = [v for k, v in d.items() if k not in ("ball_probes", "crossings")]
    numbers += [e for probes in rec.ball_probes.values() for e in probes.values()]
    numbers += list(rec.crossings.values())
    if not np.all(np.isfinite(np.asarray(numbers, dtype=float))):
        raise ValueError(f"non-finite number in the record at t = {rec.t!r}")
    return rec


def report_to_dict(report: DiagnosticsReport) -> dict:
    return {
        "records": [record_to_dict(r) for r in report.records],
        "bounds": asdict(report.bounds) if report.bounds else None,
        "thresholds": asdict(report.thresholds) if report.thresholds else None,
        "events": [asdict(e) for e in report.events],
        "checks": [asdict(c) for c in report.checks],
        "convergence": asdict(report.convergence) if report.convergence else None,
        "underflow_times": list(report.underflow_times),
        "v_norm": report.v_norm,
        "solver_stats": dict(report.solver_stats),
        "notes": list(report.notes),
        "crossing_points": {str(c): list(xy) for c, xy in report.crossing_points.items()},
    }


def report_from_dict(d: dict) -> DiagnosticsReport:
    """The report in d; ValueError on a bad threshold or a non-finite record, bound or verdict."""
    for key in ("bounds", "convergence"):
        numbers = [x for v in (d.get(key) or {}).values()
                   for x in (v if isinstance(v, list) else [v]) if not isinstance(x, str)]
        if not np.all(np.isfinite(np.asarray(numbers, dtype=float))):
            raise ValueError(f"non-finite number in {key}")
    bounds = RunBounds(**d["bounds"]) if d.get("bounds") else None
    thr = None
    if d.get("thresholds"):
        td = dict(d["thresholds"])
        td["r_grid"] = tuple(td.get("r_grid", ()))
        thr = ThresholdConfig(**td)
    events = [SingularityEvent(**e) for e in d.get("events", [])]
    checks = [CheckResult(**c) for c in d.get("checks", [])]
    conv = ConvergenceReport(**d["convergence"]) if d.get("convergence") else None
    return DiagnosticsReport(
        records=[record_from_dict(r) for r in d["records"]],
        bounds=bounds, thresholds=thr, events=events, checks=checks,
        convergence=conv, underflow_times=list(d.get("underflow_times", [])),
        v_norm=d.get("v_norm", 0.0), solver_stats=d.get("solver_stats", {}),
        notes=list(d.get("notes", [])),
        crossing_points={int(c): xy for c, xy in d.get("crossing_points", {}).items()})
