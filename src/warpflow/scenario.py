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

import copy
import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .boundary import boundary_data_from_presets, evaluate_presets
from .diagnostics import (DiagnosticsReport, ThresholdConfig, derive_verdicts,
                          report_from_dict, report_to_dict)
from .errors import ConfigParseError, NonPositiveCoefficient, SolverFailure
# step is unused here but stays bound: perfbench/child.py patches
# scenario.step next to flow.step to stamp the first step of a run
from .flow import (MAX_PLANNED_STEPS, Schedule, StepperConfig, initial_state, march,
                   run_flow, step, tension_residual)
from .geometry import WarpFunction, make_target
from .mesh import build_mesh, check_shape, dump_mesh, write_snapshot


def parse_config_text(text: str) -> dict:
    flat = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise ConfigParseError(f"line {ln}: empty key or value")
        if key in flat:
            raise ConfigParseError(f"line {ln}: duplicate key {key!r}")
        if key not in _KEYS:
            raise ConfigParseError(f"line {ln}: unknown key {key!r}")
        flat[key] = val
    return flat


@dataclass
class ScenarioConfig:
    """A run's parameters; its stepper, thresholds, warp and schedule are the
    objects the run uses, each of which checks its own values."""

    name: str = "scenario"
    mesh_shape: str = field(default="square", metadata={"key": "mesh.shape"})
    mesh_h: float = field(default=1.0 / 32.0, metadata={"key": "mesh.h"})
    r_in: float = field(default=None, metadata={"key": "mesh.r_in"})
    r_out: float = field(default=None, metadata={"key": "mesh.r_out"})
    target_name: str = field(default="sphere", metadata={"key": "target"})
    warp: WarpFunction = field(default_factory=WarpFunction)
    phi_spec: str = field(default="north_pole", metadata={"key": "boundary.phi"})
    phi0_spec: str = field(default="harmonic", metadata={"key": "boundary.phi0"})
    psi_spec: str = field(default="constant value=0", metadata={"key": "boundary.psi"})
    stepper: StepperConfig = field(default_factory=StepperConfig)
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    schedule: Schedule = field(default_factory=Schedule)
    twin_delta: float = field(default=1e-3, metadata={"key": "twin.delta"})
    seed: int = 0

    def __post_init__(self):
        # every value that needs no mesh, the dt floor, the shape's and the
        # preset specs' too (evaluated at no point); from_flat refuses each
        # as a ConfigParseError.  The name names the run's directory.
        if self.name in ("", ".", "..") or "\0" in self.name or Path(self.name).name != self.name:
            raise ValueError(f"name must be one plain path component, got {self.name!r}")
        for name in ("seed", "twin_delta"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        check_shape(self.mesh_shape, self.mesh_h, self.r_in, self.r_out)
        evaluate_presets(make_target(self.target_name), self.phi_spec, self.phi0_spec,
                         self.psi_spec, np.zeros((0, 2)))
        dt_cfl, _ = self.stepper.dt_policy(self.mesh_h)
        if self.schedule.t_end > MAX_PLANNED_STEPS * dt_cfl:
            raise ValueError(f"t_end = {self.schedule.t_end:g} plans more than "
                             f"{MAX_PLANNED_STEPS} CFL steps of sigma h = {dt_cfl:g}")
        if self.warp.kind == "linear_height" and self.target_name == "torus":
            raise ValueError("warp.kind = linear_height needs target = sphere: on the "
                             "torus a + b * (last component) is unbounded")

    @classmethod
    def from_flat(cls, flat: dict) -> "ScenarioConfig":
        """The config of a flat key dict; an unknown key, a value its parser
        refuses, a non-finite number or a value out of range is a
        ConfigParseError, raised before any mesh is built.  Each value is
        parsed as str(value), the text a config file would hold, so 3.7 is
        no seed and a float patch round-trips exactly."""
        unknown = sorted(flat.keys() - _KEYS.keys())
        if unknown:
            raise ConfigParseError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        values, nested = {}, {}
        for key, text in flat.items():
            name, parse, expected = _KEYS[key]
            try:
                value = parse(str(text))
            except ValueError as exc:
                raise ConfigParseError(f"key {key!r}: expected {expected}, got {text!r}") from exc
            if not all(math.isfinite(x) for x in np.ravel(value) if isinstance(x, float)):
                raise ConfigParseError(f"key {key!r} must be finite, got {text!r}")
            obj, _, attr = name.rpartition(".")
            (nested.setdefault(obj, {}) if obj else values)[attr] = value
        make = {f.name: f.default_factory for f in fields(cls)}
        try:
            values.update((obj, make[obj](**kw)) for obj, kw in nested.items())
            return cls(**values)
        except (ValueError, NonPositiveCoefficient) as exc:
            raise ConfigParseError(str(exc)) from exc


def _floats(text):
    return tuple(float(s) for s in text.split(","))


_PARSERS = {"str": (str, "text"), "int": (int, "an integer"), "float": (float, "a number"),
            "tuple": (_floats, "comma-separated numbers")}


def _key_table(cls, prefix=""):
    """flat key -> (field path, parser, parse-error words), by each field's annotation
    text; a field holding an object gives "object.field" for each of its fields."""
    keys = {}
    for f in fields(cls):
        if f.default_factory is MISSING:
            keys[f.metadata.get("key", prefix + f.name)] = (prefix + f.name, *_PARSERS[f.type])
        else:
            keys.update(_key_table(f.default_factory, f"{f.name}."))
    return keys


_KEYS = _key_table(ScenarioConfig)


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
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    flat = parse_config_text(text)
    flat.setdefault("name", Path(path.name).stem)
    return flat


def _load_config(flat_or_path, overrides: dict = None) -> ScenarioConfig:
    """The ScenarioConfig of a flat key dict, a path or a shipped name, its
    keys patched by `overrides` (a None value patches nothing)."""
    flat = dict(resolve_config(flat_or_path) if isinstance(flat_or_path, (str, Path))
                else flat_or_path)
    flat.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return ScenarioConfig.from_flat(flat)


def build_scenario(cfg: ScenarioConfig):
    """The initial state of a run, from what of its config needs the mesh:
    the mesh, the boundary data and the start.  A mesh the shape refuses, or
    an initial map the start refuses, is a ConfigParseError."""
    mesh = build_mesh(cfg.mesh_shape, cfg.mesh_h, r_in=cfg.r_in, r_out=cfg.r_out)
    target = make_target(cfg.target_name)
    bdata = boundary_data_from_presets(mesh, target, cfg.phi_spec,
                                       cfg.phi0_spec, cfg.psi_spec)
    try:
        return initial_state(mesh, target, cfg.warp, bdata, cfg.stepper)
    except ValueError as exc:           # the start refuses the initial map
        raise ConfigParseError(str(exc)) from exc


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    state: object
    report: DiagnosticsReport
    out_dir: Path
    exit_code: int


def write_json(payload: dict, path) -> None:
    """Write json.dumps(payload, sort_keys=True, separators=(",", ":")) to path,
    byte for byte, for a payload with string keys.  Each top-level value, and
    each item of a top-level list, goes through json's C encoder and is
    written on its own, so the whole text is never held at once: on
    bubbling's report that transient is 4.4 MiB, above the run's own peak
    RSS.  (json.dump, which streams, runs the pure-Python encoder.)"""
    enc = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    with open(path, "w") as f:
        f.write("{")
        for i, key in enumerate(sorted(payload)):
            f.write(("," if i else "") + enc.encode(key) + ":")
            value = payload[key]
            if isinstance(value, list):
                f.write("[")
                for j, item in enumerate(value):
                    f.write(("," if j else "") + enc.encode(item))
                f.write("]")
            else:
                f.write(enc.encode(value))
        f.write("}")


def write_series_csv(report: DiagnosticsReport, path) -> None:
    cols = ["t", "E_u", "E_v", "E_beta_v", "E_g", "kinetic_cum",
            "max_local_energy", "dt"]
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        for r in report.records:
            f.write(",".join(f"{float(x):.17g}" for x in (
                r.t, r.e_u, r.e_v, r.e_beta_v, r.e_g, r.kinetic_cum,
                r.max_local_energy, r.dt)) + "\n")


def run_dir(name: str, out_dir) -> Path:
    """`out_dir`, or else $WARPFLOW_OUT/<name> (warpflow_out/<name> if unset), made
    with its parents; one it cannot make is a ConfigParseError that names it."""
    out = Path(out_dir) if out_dir is not None else Path(
        os.environ.get("WARPFLOW_OUT", "warpflow_out"), name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigParseError(f"cannot make the run directory {str(out)!r}: {exc}") from exc
    return out


def run_scenario(flat_or_path, out_dir=None, overrides: dict = None,
                 write_artifacts: bool = True) -> ScenarioResult:
    """Run one scenario end to end; returns the result with its exit code.

    `flat_or_path` is a flat key dict (from parse/resolve), a config path or
    a shipped name; `overrides` patches its flat keys.  The artifacts go to
    `run_dir(name, out_dir)`, by default $WARPFLOW_OUT/<name>.
    """
    cfg = _load_config(flat_or_path, overrides)

    state = build_scenario(cfg)

    out = snapshot = None
    if write_artifacts:
        out = run_dir(cfg.name, out_dir)
        if cfg.schedule.snapshot_stride > 0:
            snap_dir = run_dir(cfg.name, out / "snapshots")

            def snapshot(st):
                write_snapshot(st.mesh, st.u, st.v,
                               snap_dir / f"step_{st.step_count:06d}.txt")

    state, report = run_flow(state, cfg.schedule, cfg.thresholds, snapshot)

    exit_code = derive_verdicts(report, tension_residual(state))
    if cfg.warp.kind == "constant":
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
        write_json(payload, out / "report.json")
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
    solver_stats: dict            # the shared context's counts, and wall_seconds
    times: list = field(default_factory=list)
    diffs: list = field(default_factory=list)
    underflow_times: list = field(default_factory=list)


def _l2_diff(mesh, u1, u2) -> float:
    du = u1 - u2
    return math.sqrt(mesh.mass_sum(np.einsum("ij,ij->i", du, du)))


def twin_run(flat_or_path, overrides: dict = None) -> TwinResult:
    """Two lockstep runs differing only by a tangential kick of size twin.delta to phi0.

    The perturbation is seeded white noise projected to the tangent space,
    zeroed on the boundary and scaled so its largest nodal norm is delta;
    delta = 0 starts both from the same initial map, so the difference is
    identically zero.  Both runs march together under run_flow's dt
    controller and share one solver context, so they take the same dt
    sequence, solve each step alike and survive timestep underflow the same
    way; underflow_times lists where it struck, and solver_stats holds
    that context's counts and the march's wall_seconds, as a run's report does.
    """
    cfg = _load_config(flat_or_path, overrides)
    delta = cfg.twin_delta

    base = build_scenario(cfg)
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
    try:
        pert = base.ctx.start(u0p)
    except ValueError as exc:       # a delta so large that the perturbed map overflows
        raise SolverFailure(f"perturbed initial map refused: {exc}") from exc

    times = [0.0]
    diffs = [_l2_diff(mesh, base.u, pert.u)]
    initial_diff = diffs[0]
    underflow_times = []
    wall0 = time.perf_counter()
    for (base, pert), forced in march([base, pert], cfg.schedule.t_end):
        if forced:
            underflow_times.append(times[-1])
        times.append(float(base.t))
        diffs.append(_l2_diff(mesh, base.u, pert.u))

    stats = copy.deepcopy(base.ctx.stats)
    stats["wall_seconds"] = time.perf_counter() - wall0
    sup_diff = max(diffs)
    amp = sup_diff / initial_diff if initial_diff > 0 else 0.0
    return TwinResult(delta=delta, initial_diff=initial_diff, sup_diff=sup_diff,
                      final_diff=diffs[-1], amplification=amp, solver_stats=stats,
                      times=times, diffs=diffs, underflow_times=underflow_times)


# -- report re-checking --------------------------------------------------------

def check_report_file(path) -> int:
    """Re-derive every verdict of a stored report; 0 ok, 2 failure.

    The stored records, bounds, thresholds, crossing points and tension
    residual go through `derive_verdicts`, as in a run.  Fails on a path that
    cannot be read or does not parse into a report, a failed hard check, or
    stored events, checks, convergence, v_norm or exit code that differ from
    the re-derived ones.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
        report = report_from_dict(payload)
        exit_code = derive_verdicts(report, report.convergence.residual_norm)
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
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
