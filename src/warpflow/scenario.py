"""Scenario configs, the run driver, and twin (perturbed initial data) runs.

Config files are flat ``key = value`` text with ``#`` comments and dotted
keys; boundary specs are named analytic presets with inline parameters, e.g.
``boundary.phi0 = inv_stereographic rho=0.1 center=0,0``.  Unknown keys are
rejected so typos fail loudly.

Artifacts written per run (under the output directory):
  mesh.txt       plain-text mesh dump
  series.csv     t, E_u, E_v, E_beta_v, E_g, kinetic_cum, max_local_energy, dt
                 (dt: the step that made the record, 0 at t = 0)
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
from .diagnostics import (DiagnosticsReport, ThresholdConfig, derive_verdicts,
                          report_from_dict, report_to_dict)
from .errors import (ConfigParseError, InvalidShapeParameters,
                     NonPositiveCoefficient)
# step is unused here but stays bound: perfbench/child.py patches
# scenario.step next to flow.step to stamp the first step of a run
from .flow import (Schedule, StepperConfig, initial_state, march, run_flow, step,
                   tension_residual)
from .geometry import WarpFunction, make_target
from .mesh import build_mesh, dump_mesh, write_snapshot


def _floats(text):
    return tuple(float(s) for s in text.split(","))


# flat key -> (ScenarioConfig field, parser, what its parse error asks for)
_KEYS = {
    "name": ("name", str, "text"),
    "seed": ("seed", int, "an integer"),
    "target": ("target_name", str, "text"),
    "mesh.shape": ("mesh_shape", str, "text"),
    "mesh.h": ("mesh_h", float, "a number"),
    "mesh.r_in": ("r_in", float, "a number"),
    "mesh.r_out": ("r_out", float, "a number"),
    "warp.kind": ("warp_kind", str, "text"),
    "warp.a": ("warp_a", float, "a number"),
    "warp.b": ("warp_b", float, "a number"),
    "boundary.phi": ("phi_spec", str, "text"),
    "boundary.phi0": ("phi0_spec", str, "text"),
    "boundary.psi": ("psi_spec", str, "text"),
    "stepper.sigma": ("sigma", float, "a number"),
    "stepper.theta": ("theta", float, "a number"),
    "stepper.max_move_fraction": ("max_move_fraction", float, "a number"),
    "thresholds.energy": ("threshold_energy", float, "a number"),
    "thresholds.r_detect": ("r_detect", float, "a number"),
    "thresholds.r_grid": ("r_grid", _floats, "comma-separated numbers"),
    "thresholds.persist_frames": ("persist_frames", int, "an integer"),
    "schedule.t_end": ("t_end", float, "a number"),
    "schedule.diag_stride": ("diag_stride", int, "an integer"),
    "schedule.snapshot_stride": ("snapshot_stride", int, "an integer"),
    "twin.delta": ("twin_delta", float, "a number"),
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
        if key not in _KEYS:
            raise ConfigParseError(f"line {ln}: unknown key {key!r}", path=path, line=ln)
        flat[key] = val
    return flat


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
        # every config, from a file, an override or a flag, passes this gate
        for f in fields(self):
            val = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (val if isinstance(val, tuple) else (val,))):
                raise ConfigParseError(f"{f.name} must be finite, got {val!r}")
        if self.t_end <= 0:
            raise ConfigParseError(f"t_end must be positive, got {self.t_end!r}")
        for name in ("seed", "diag_stride", "snapshot_stride", "twin_delta"):
            if getattr(self, name) < 0:
                raise ConfigParseError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.target_name not in ("sphere", "torus"):
            raise ConfigParseError(f"unknown target {self.target_name!r}")
        if self.mesh_shape == "annulus":
            missing = [key for key, (name, _, _) in _KEYS.items()
                       if name in ("r_in", "r_out") and getattr(self, name) is None]
            if missing:
                raise ConfigParseError(f"annulus config is missing {', '.join(missing)}")

    @classmethod
    def from_flat(cls, flat: dict) -> "ScenarioConfig":
        """The config of a flat key dict; an unknown key or a value its parser
        refuses is a ConfigParseError."""
        unknown = sorted(flat.keys() - _KEYS.keys())
        if unknown:
            raise ConfigParseError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        values = {}
        for key, text in flat.items():
            name, parse, expected = _KEYS[key]
            try:
                values[name] = parse(text)
            except ValueError as exc:
                raise ConfigParseError(f"key {key!r}: expected {expected}, got {text!r}") from exc
        return cls(**values)


def builtin_scenarios() -> list:
    base = resources.files("warpflow") / "scenarios"
    return sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".cfg"))


def resolve_config(name_or_path) -> dict:
    """The flat keys of a config path or of a shipped scenario's name; `name`
    defaults to the file's stem."""
    path = Path(name_or_path)
    if not path.exists():
        path = resources.files("warpflow") / "scenarios" / f"{name_or_path}.cfg"
        if not path.is_file():
            raise ConfigParseError(f"no config file or shipped scenario named {name_or_path!r}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}", path=str(path))
    flat = parse_config_text(text, path=str(path))
    flat.setdefault("name", Path(path.name).stem)
    return flat


def _load_config(flat_or_path, *patches) -> ScenarioConfig:
    """The ScenarioConfig of a flat key dict, a path or a shipped name, its
    keys patched by each of `patches` in turn (a None value patches nothing)."""
    flat = dict(resolve_config(flat_or_path) if isinstance(flat_or_path, (str, Path))
                else flat_or_path)
    for patch in patches:
        flat.update((k, v) for k, v in (patch or {}).items() if v is not None)
    return ScenarioConfig.from_flat(flat)


def build_scenario(cfg: ScenarioConfig):
    """(initial state, ThresholdConfig) of a run; a value the constructors
    reject is a ConfigParseError."""
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
    return initial_state(mesh, target, warp, bdata, stepper), thresholds


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


def run_scenario(flat_or_path, out_dir=None, h=None, t_end=None,
                 overrides: dict = None, write_artifacts: bool = True) -> ScenarioResult:
    """Run one scenario end to end; returns the result with its exit code.

    `flat_or_path` is a flat key dict (from parse/resolve), a config path or
    a shipped name.  `overrides` patches its flat keys, then `h` and `t_end`
    patch `mesh.h` and `schedule.t_end`.
    """
    cfg = _load_config(flat_or_path, overrides, {"mesh.h": h, "schedule.t_end": t_end})

    state, thresholds = build_scenario(cfg)

    out = None
    snapshot_cb = None
    if write_artifacts:
        out = Path(out_dir) if out_dir is not None else default_out_root() / cfg.name
        out.mkdir(parents=True, exist_ok=True)
        if cfg.snapshot_stride > 0:
            snap_dir = out / "snapshots"
            snap_dir.mkdir(exist_ok=True)

            def snapshot_cb(st):
                write_snapshot(st.mesh, st.u, st.v,
                               snap_dir / f"step_{st.step_count:06d}.txt")

    schedule = Schedule(t_end=cfg.t_end, diag_stride=cfg.diag_stride,
                        snapshot_stride=cfg.snapshot_stride,
                        snapshot_cb=snapshot_cb)
    state, report = run_flow(state, schedule, thresholds)

    exit_code = derive_verdicts(report, tension_residual(state)[1])
    if cfg.warp_kind == "constant":
        report.notes.append("constant warp: potential decoupled, the harmonic extension of psi")
    if report.underflow_times:
        report.notes.append(
            "continued past timestep underflow from the last accepted state")

    if write_artifacts:
        dump_mesh(state.mesh, out / "mesh.txt")
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
    du = u1 - u2
    return math.sqrt(float(np.dot(mesh.lumped_mass, np.einsum("ij,ij->i", du, du))))


def twin_run(flat_or_path, delta: float = None, overrides: dict = None) -> TwinResult:
    """Two lockstep runs differing only by a tangential O(delta) kick to phi0.

    The perturbation is seeded white noise projected to the tangent space,
    zeroed on the boundary and scaled so its largest nodal norm is delta;
    delta = 0 starts both from the same initial map, so the difference is
    identically zero.  Both runs march together under run_flow's dt
    controller and share one solver context, so they take the same dt
    sequence, solve each step alike and survive timestep underflow the same
    way; underflow_times lists where it struck.
    """
    cfg = _load_config(flat_or_path, overrides, {"twin.delta": delta})
    delta = cfg.twin_delta

    base, _ = build_scenario(cfg)
    mesh, target = base.mesh, base.ctx.target

    if delta == 0.0:
        u0p = base.u
    else:
        rng = np.random.default_rng(cfg.seed)
        noise = rng.standard_normal(base.u.shape)
        w = target.project_tangent(base.u, noise)
        w[mesh.boundary] = 0.0
        wmax = float(np.max(np.linalg.norm(w, axis=1)))
        if wmax == 0.0:
            raise ValueError("degenerate twin perturbation")
        u0p = target.project_field(base.u + (delta / wmax) * w)
        u0p[mesh.boundary] = base.ctx.bdata.phi[mesh.boundary]
    # only the initial map differs: the perturbed member starts on the base
    # member's context, so both share its data and solver state
    pert = base.ctx.start(u0p)

    times = [0.0]
    diffs = [_l2_diff(mesh, base.u, pert.u)]
    initial_diff = diffs[0]
    underflow_times = []
    for (base, pert), forced in march([base, pert], cfg.t_end):
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

    The stored records, bounds, thresholds, crossing points and tension
    residual go through `derive_verdicts`, as in a run.  Fails on a file that
    does not parse into a report, a failed hard check, or stored events,
    checks, convergence, v_norm or exit code that differ from the re-derived
    ones.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
        report = report_from_dict(payload)
        exit_code = derive_verdicts(report, report.convergence.residual_norm)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        print(f"malformed report: {type(exc).__name__}: {exc}")
        return 2
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        kind = "hard" if c.hard else "info"
        print(f"[{status}] {c.name} ({kind}) constants={c.constants}")
    # the records are the input, not a verdict: leave them out of the serialization
    derived = {**report_to_dict(replace(report, records=[])), "exit_code": exit_code}
    for key in ("events", "checks", "convergence", "v_norm", "exit_code"):
        if payload.get(key) != derived[key]:
            print(f"[FAIL] stored {key} disagrees with the re-derived {key}")
            exit_code = 2
    return exit_code
