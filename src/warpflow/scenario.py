"""Scenario configs, the run driver, and twin (perturbed initial data) runs.

Config files are flat ``key = value`` text with ``#`` comments and dotted
keys; boundary specs are named analytic presets with inline parameters, e.g.
``boundary.phi0 = inv_stereographic rho=0.1 center=0,0``.  Unknown keys are
rejected so typos fail loudly.

Artifacts written per run (under the output directory):
  mesh.txt       plain-text mesh dump
  series.csv     t, E_u, E_v, E_beta_v, E_g, kinetic_cum, max_local_energy, dt
  report.json    full diagnostics report (records, checks, events, convergence)
  snapshots/     one file per snapshot stride, u components then v per vertex

Identical config + seed reproduces series.csv byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .boundary import boundary_data_from_presets
from .diagnostics import (DiagnosticsReport, ThresholdConfig, convergence_monitor,
                          hard_checks_pass, inequality_suite, persistent_vertices,
                          report_from_dict, report_to_dict, singularity_detect,
                          stationarity)
from .errors import (ConfigParseError, InvalidShapeParameters,
                     NonPositiveCoefficient)
# step is unused here but stays bound: perfbench/child.py patches
# scenario.step next to flow.step to stamp the first step of a run
from .flow import (Schedule, StepperConfig, _solve_potential, initial_state, march,
                   run_flow, step)
from .geometry import WarpFunction, make_target
from .mesh import build_mesh, dump_mesh, write_snapshot

_KNOWN_KEYS = {
    "name", "seed", "target",
    "mesh.shape", "mesh.h", "mesh.r_in", "mesh.r_out",
    "warp.kind", "warp.a", "warp.b",
    "boundary.phi", "boundary.phi0", "boundary.psi",
    "stepper.sigma", "stepper.theta",
    "stepper.max_move_fraction",
    "thresholds.energy", "thresholds.r_detect", "thresholds.r_grid",
    "thresholds.persist_frames",
    "schedule.t_end", "schedule.diag_stride", "schedule.snapshot_stride",
    "twin.delta",
}


def parse_config_text(text: str, path=None) -> dict:
    flat = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {ln}: expected 'key = value', got {raw!r}",
                                   path=path, line=ln)
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise ConfigParseError(f"line {ln}: empty key or value", path=path, line=ln)
        if key in flat:
            raise ConfigParseError(f"line {ln}: duplicate key {key!r}", path=path, line=ln)
        if key not in _KNOWN_KEYS:
            raise ConfigParseError(f"line {ln}: unknown key {key!r}", path=path, line=ln)
        flat[key] = val
    return flat


def parse_config_file(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}", path=str(path))
    flat = parse_config_text(text, path=str(path))
    flat.setdefault("name", path.stem)
    return flat


def _flt(flat, key, default):
    try:
        return float(flat[key]) if key in flat else default
    except ValueError as exc:
        raise ConfigParseError(f"key {key!r}: expected a number, got {flat[key]!r}") from exc


def _intval(flat, key, default):
    try:
        return int(flat[key]) if key in flat else default
    except ValueError as exc:
        raise ConfigParseError(f"key {key!r}: expected an integer, got {flat[key]!r}") from exc


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    mesh_shape: str = "square"
    mesh_h: float = 1.0 / 32.0
    r_in: float = None
    r_out: float = None
    target_name: str = "sphere"
    warp_kind: str = "constant"
    warp_a: float = 1.0
    warp_b: float = 0.0
    phi_spec: str = "north_pole"
    phi0_spec: str = "harmonic"
    psi_spec: str = "constant value=0"
    sigma: float = StepperConfig.sigma
    theta: float = StepperConfig.theta
    max_move_fraction: float = StepperConfig.max_move_fraction
    threshold_energy: float = ThresholdConfig.energy
    r_detect: float = ThresholdConfig.r_detect
    r_grid: tuple = ThresholdConfig.r_grid
    persist_frames: int = ThresholdConfig.persist_frames
    t_end: float = 0.1
    diag_stride: int = 1
    snapshot_stride: int = 0
    twin_delta: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        # every number a run reads, from a file key or an override, passes here
        for f in fields(self):
            val = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (val if isinstance(val, tuple) else (val,))):
                raise ConfigParseError(f"{f.name} must be finite, got {val!r}")
        if self.t_end <= 0:
            raise ConfigParseError(f"t_end must be positive, got {self.t_end!r}")

    @classmethod
    def from_flat(cls, flat: dict) -> "ScenarioConfig":
        r_grid = cls.r_grid
        if "thresholds.r_grid" in flat:
            try:
                r_grid = tuple(float(s) for s in flat["thresholds.r_grid"].split(","))
            except ValueError as exc:
                raise ConfigParseError("thresholds.r_grid must be comma-separated numbers") from exc
        cfg = cls(
            name=flat.get("name", "scenario"),
            mesh_shape=flat.get("mesh.shape", cls.mesh_shape),
            mesh_h=_flt(flat, "mesh.h", cls.mesh_h),
            r_in=_flt(flat, "mesh.r_in", None),
            r_out=_flt(flat, "mesh.r_out", None),
            target_name=flat.get("target", cls.target_name),
            warp_kind=flat.get("warp.kind", cls.warp_kind),
            warp_a=_flt(flat, "warp.a", cls.warp_a),
            warp_b=_flt(flat, "warp.b", cls.warp_b),
            phi_spec=flat.get("boundary.phi", cls.phi_spec),
            phi0_spec=flat.get("boundary.phi0", cls.phi0_spec),
            psi_spec=flat.get("boundary.psi", cls.psi_spec),
            sigma=_flt(flat, "stepper.sigma", cls.sigma),
            theta=_flt(flat, "stepper.theta", cls.theta),
            max_move_fraction=_flt(flat, "stepper.max_move_fraction", cls.max_move_fraction),
            threshold_energy=_flt(flat, "thresholds.energy", cls.threshold_energy),
            r_detect=_flt(flat, "thresholds.r_detect", cls.r_detect),
            r_grid=r_grid,
            persist_frames=_intval(flat, "thresholds.persist_frames", cls.persist_frames),
            t_end=_flt(flat, "schedule.t_end", cls.t_end),
            diag_stride=_intval(flat, "schedule.diag_stride", cls.diag_stride),
            snapshot_stride=_intval(flat, "schedule.snapshot_stride", cls.snapshot_stride),
            twin_delta=_flt(flat, "twin.delta", cls.twin_delta),
            seed=_intval(flat, "seed", cls.seed),
        )
        if cfg.target_name not in ("sphere", "torus"):
            raise ConfigParseError(f"unknown target {cfg.target_name!r}")
        if cfg.mesh_shape == "annulus":
            missing = [k for k in ("mesh.r_in", "mesh.r_out") if k not in flat]
            if missing:
                raise ConfigParseError(f"annulus config is missing {', '.join(missing)}")
        return cfg


def builtin_scenarios() -> list:
    base = resources.files("warpflow") / "scenarios"
    return sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".cfg"))


def resolve_config(name_or_path) -> dict:
    """Accepts a filesystem path or the name of a shipped scenario."""
    p = Path(name_or_path)
    if p.exists():
        return parse_config_file(p)
    base = resources.files("warpflow") / "scenarios" / f"{name_or_path}.cfg"
    if base.is_file():
        flat = parse_config_text(base.read_text(), path=str(base))
        flat.setdefault("name", str(name_or_path))
        return flat
    raise ConfigParseError(f"no config file or shipped scenario named {name_or_path!r}")


def _load_config(flat_or_cfg, overrides: dict = None) -> ScenarioConfig:
    """A ScenarioConfig from itself, a flat key dict, a path or a shipped name.

    `overrides` patches the flat keys; it is ignored for a ScenarioConfig.
    """
    if isinstance(flat_or_cfg, ScenarioConfig):
        return flat_or_cfg
    if isinstance(flat_or_cfg, (str, Path)):
        flat_or_cfg = resolve_config(flat_or_cfg)
    return ScenarioConfig.from_flat({**flat_or_cfg, **(overrides or {})})


@dataclass
class ScenarioSetup:
    config: ScenarioConfig
    mesh: object
    target: object
    warp: WarpFunction
    bdata: object
    stepper: StepperConfig
    thresholds: ThresholdConfig


def build_scenario(cfg: ScenarioConfig) -> ScenarioSetup:
    """Everything a run needs; a value the constructors reject is a ConfigParseError."""
    try:
        mesh = build_mesh(cfg.mesh_shape, cfg.mesh_h, r_in=cfg.r_in, r_out=cfg.r_out)
        target = make_target(cfg.target_name)
        warp = WarpFunction(cfg.warp_kind, cfg.warp_a, cfg.warp_b)
        stepper = StepperConfig(sigma=cfg.sigma, theta=cfg.theta,
                                max_move_fraction=cfg.max_move_fraction)
        thresholds = ThresholdConfig(energy=cfg.threshold_energy,
                                     r_detect=cfg.r_detect, r_grid=cfg.r_grid,
                                     persist_frames=cfg.persist_frames)
    except (ValueError, InvalidShapeParameters, NonPositiveCoefficient) as exc:
        raise ConfigParseError(str(exc)) from exc
    bdata = boundary_data_from_presets(mesh, target, cfg.phi_spec,
                                       cfg.phi0_spec, cfg.psi_spec)
    return ScenarioSetup(cfg, mesh, target, warp, bdata, stepper, thresholds)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    state: object
    report: DiagnosticsReport
    out_dir: Path
    exit_code: int


def write_series_csv(report: DiagnosticsReport, path) -> None:
    cols = ["t", "E_u", "E_v", "E_beta_v", "E_g", "kinetic_cum",
            "max_local_energy", "dt"]
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        for r in report.records:
            f.write(",".join(f"{float(x):.17g}" for x in (
                r.t, r.e_u, r.e_v, r.e_beta_v, r.e_g, r.kinetic_cum,
                r.max_local_energy, r.dt)) + "\n")


def default_out_root() -> Path:
    return Path(os.environ.get("WARPFLOW_OUT", "warpflow_out"))


def run_scenario(flat_or_cfg, out_dir=None, h=None, t_end=None,
                 overrides: dict = None, write_artifacts: bool = True) -> ScenarioResult:
    """Run one scenario end to end; returns the result with its exit code.

    `flat_or_cfg` is a flat key dict (from parse/resolve) or a ScenarioConfig.
    `h` and `t_end` override the config; `overrides` patches flat keys first.
    """
    cfg = _load_config(flat_or_cfg, overrides)
    if h is not None:
        cfg = replace(cfg, mesh_h=float(h))
    if t_end is not None:
        cfg = replace(cfg, t_end=float(t_end))

    setup = build_scenario(cfg)
    state = initial_state(setup.mesh, setup.target, setup.warp, setup.bdata,
                          setup.stepper)

    out = None
    snapshot_cb = None
    if write_artifacts:
        out = Path(out_dir) if out_dir is not None else default_out_root() / cfg.name
        out.mkdir(parents=True, exist_ok=True)
        if cfg.snapshot_stride > 0:
            snap_dir = out / "snapshots"
            snap_dir.mkdir(exist_ok=True)

            def snapshot_cb(st):
                write_snapshot(setup.mesh, st.u, st.v,
                               snap_dir / f"step_{st.step_count:06d}.txt")

    schedule = Schedule(t_end=cfg.t_end, diag_stride=cfg.diag_stride,
                        snapshot_stride=cfg.snapshot_stride,
                        snapshot_cb=snapshot_cb)
    state, report = run_flow(state, setup.stepper, schedule, setup.thresholds)

    report.events = singularity_detect(report.records, setup.thresholds,
                                       report.crossing_points)
    if len(report.records) >= 2:
        report.checks = inequality_suite(report.records, report.bounds,
                                         setup.thresholds, events=report.events)
    report.convergence = convergence_monitor(report, state)
    if setup.warp.kind == "constant":
        report.notes.append("constant warp: potential decoupled, solved once")
    if report.underflow_times:
        report.notes.append(
            "continued past timestep underflow from the last accepted state")

    exit_code = 0 if hard_checks_pass(report.checks) else 2

    if write_artifacts:
        dump_mesh(setup.mesh, out / "mesh.txt")
        write_series_csv(report, out / "series.csv")
        payload = report_to_dict(report)
        payload["scenario"] = asdict(cfg)
        payload["exit_code"] = exit_code
        with open(out / "report.json", "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
    return ScenarioResult(config=cfg, state=state, report=report,
                          out_dir=out, exit_code=exit_code)


# -- twin runs ----------------------------------------------------------------

@dataclass
class TwinResult:
    delta: float
    initial_diff: float
    sup_diff: float
    final_diff: float
    amplification: float
    times: list = field(default_factory=list)
    diffs: list = field(default_factory=list)
    underflow_times: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _l2_diff(mesh, u1, u2) -> float:
    return math.sqrt(float(np.dot(mesh.lumped_mass,
                                  np.sum((u1 - u2) ** 2, axis=1))))


def twin_run(flat_or_cfg, delta: float = None, overrides: dict = None) -> TwinResult:
    """Two lockstep runs differing only by a tangential O(delta) kick to phi0.

    The perturbation is seeded white noise projected to the tangent space,
    zeroed on the boundary and scaled so its largest nodal norm is delta;
    delta = 0 reuses the exact same initial array, so the difference is
    identically zero.  Both runs march together under run_flow's dt
    controller and share one solver context, so they take the same dt
    sequence, solve each step alike and survive timestep underflow the same
    way; underflow_times lists where it struck.
    """
    cfg = _load_config(flat_or_cfg, overrides)
    if delta is not None:
        cfg = replace(cfg, twin_delta=float(delta))
    delta = cfg.twin_delta

    setup = build_scenario(cfg)
    mesh, target = setup.mesh, setup.target
    base = initial_state(mesh, target, setup.warp, setup.bdata, setup.stepper)

    if delta == 0.0:
        u0p = np.array(base.u)
    else:
        rng = np.random.default_rng(cfg.seed)
        noise = rng.standard_normal(base.u.shape)
        w = target.project_tangent(base.u, noise)
        w[mesh.boundary] = 0.0
        wmax = float(np.max(np.linalg.norm(w, axis=1)))
        if wmax == 0.0:
            raise ValueError("degenerate twin perturbation")
        u0p = target.project_field(base.u + (delta / wmax) * w)
        u0p[mesh.boundary] = setup.bdata.phi[mesh.boundary]
    # only phi0 differs: the traces, their extensions and so the solver
    # context are the base run's, shared by both members
    bdata_p = replace(setup.bdata, phi0=u0p)
    v0p = base.v if base.ctx.potential is None else \
        _solve_potential(base.ctx, setup.warp, bdata_p, u0p)
    pert = replace(base, u=u0p, bdata=bdata_p, v=v0p)

    times = [0.0]
    diffs = [_l2_diff(mesh, base.u, pert.u)]
    initial_diff = diffs[0]
    underflow_times = []
    for (base, pert), _, forced in march([base, pert], setup.stepper, cfg.t_end):
        if forced:
            underflow_times.append(times[-1])
        times.append(float(base.t))
        diffs.append(_l2_diff(mesh, base.u, pert.u))

    sup_diff = max(diffs)
    amp = sup_diff / initial_diff if initial_diff > 0 else 0.0
    return TwinResult(delta=delta, initial_diff=initial_diff, sup_diff=sup_diff,
                      final_diff=diffs[-1], amplification=amp,
                      times=times, diffs=diffs, underflow_times=underflow_times)


# -- report re-checking --------------------------------------------------------

def check_report_file(path) -> int:
    """Re-derive every verdict of a stored report; 0 ok, 2 failure.

    Fails on a file that does not parse into a report, a failed hard check,
    or stored checks, verdicts, events, persistent vertices, convergence
    verdict or exit code that differ from the re-derived ones.  Events and
    persistent vertices come from the records' crossings through the same
    functions a run calls; the convergence verdict from the records, the
    bounds and the stored tension residual.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
        report = report_from_dict(payload)
        if report.bounds is None or report.thresholds is None or len(report.records) < 2:
            print("report lacks the data needed for re-checking")
            return 2
        events = singularity_detect(report.records, report.thresholds,
                                    report.crossing_points)
        persistent = persistent_vertices(report.records, report.thresholds)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        print(f"malformed report: {type(exc).__name__}: {exc}")
        return 2
    checks = inequality_suite(report.records, report.bounds, report.thresholds,
                              events=events)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        kind = "hard" if c.hard else "info"
        print(f"[{status}] {c.name} ({kind}) constants={c.constants}")
    ok = hard_checks_pass(checks)
    exit_code = 0 if ok else 2
    stored = {c["name"]: bool(c["passed"]) for c in payload.get("checks", [])}
    recomputed = {c.name: bool(c.passed) for c in checks}
    for name in sorted(stored.keys() | recomputed.keys()):
        if stored.get(name) != recomputed.get(name):
            print(f"[FAIL] {name}: stored result {stored.get(name)} disagrees with "
                  f"re-evaluation {recomputed.get(name)}")
            ok = False
    if report.events != events:
        print(f"[FAIL] stored events at t = {[e.time for e in report.events]} != "
              f"re-derived events at t = {[e.time for e in events]}")
        ok = False
    conv = report.convergence
    if conv is None:
        print("[FAIL] stored report has no convergence verdict")
        ok = False
    else:
        converged = stationarity(report.records, report.bounds.h, conv.residual_norm)[0]
        verdict = ("converged" if converged else "not_stationary", converged)
        if (conv.status, conv.converged) != verdict:
            print(f"[FAIL] stored convergence {(conv.status, conv.converged)} != "
                  f"recomputed {verdict}")
            ok = False
        if conv.persistent_vertices != persistent:
            print(f"[FAIL] stored persistent vertices {conv.persistent_vertices} != "
                  f"re-derived {persistent}")
            ok = False
    if payload.get("exit_code") != exit_code:
        print(f"[FAIL] stored exit_code {payload.get('exit_code')!r} != recomputed {exit_code}")
        ok = False
    return 0 if ok else 2
