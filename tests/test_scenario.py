import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import warpflow.boundary
import warpflow.diagnostics
import warpflow.elliptic
import warpflow.flow
import warpflow.mesh
import warpflow.scenario
from warpflow.cli import main
from warpflow.diagnostics import ThresholdConfig
from warpflow.errors import ConfigParseError, InvalidShapeParameters
from warpflow.flow import MAX_PLANNED_STEPS, Schedule, StepperConfig
from warpflow.geometry import WarpFunction, make_target
from warpflow.scenario import (_KEYS, ScenarioConfig, build_scenario,
                               builtin_scenarios, check_report_file,
                               parse_config_text, resolve_config, run_scenario,
                               twin_run, write_json)

GOOD_TEXT = """\
# comment line
name = demo
target = torus            # trailing comment
mesh.shape = square
mesh.h = 0.125
boundary.phi = sine_bump amplitude=0.1
boundary.phi0 = sine_bump amplitude=0.1
boundary.psi = constant value=0
schedule.t_end = 0.004
"""

CSV_HEADER = "t,E_u,E_v,E_beta_v,E_g,kinetic_cum,max_local_energy,dt"


class TestConfigParsing:
    def test_happy_path(self):
        flat = parse_config_text(GOOD_TEXT)
        assert flat["target"] == "torus"
        assert flat["mesh.h"] == "0.125"
        assert flat["boundary.phi"] == "sine_bump amplitude=0.1"
        assert "# comment line" not in flat

    def test_missing_equals(self):
        with pytest.raises(ConfigParseError) as exc:
            parse_config_text("target = torus\nmesh.shape square\n")
        assert str(exc.value).startswith("line 2:")

    def test_empty_value(self):
        with pytest.raises(ConfigParseError) as exc:
            parse_config_text("target =\n")
        assert str(exc.value).startswith("line 1:")

    def test_duplicate_key(self):
        with pytest.raises(ConfigParseError) as exc:
            parse_config_text("target = torus\ntarget = sphere\n")
        assert "duplicate" in str(exc.value)

    def test_unknown_key(self):
        with pytest.raises(ConfigParseError) as exc:
            parse_config_text("mesh.size = 0.1\n")
        assert "unknown key" in str(exc.value)

    def test_from_flat_defaults_and_types(self):
        cfg = ScenarioConfig.from_flat(parse_config_text(GOOD_TEXT))
        assert cfg.name == "demo"
        assert cfg.mesh_h == 0.125
        assert cfg.schedule.t_end == 0.004
        assert cfg.thresholds.r_grid == (0.1, 0.2)

    def test_from_flat_r_grid(self):
        cfg = ScenarioConfig.from_flat({"thresholds.r_grid": "0.05, 0.1"})
        assert cfg.thresholds.r_grid == (0.05, 0.1)
        with pytest.raises(ConfigParseError):
            ScenarioConfig.from_flat({"thresholds.r_grid": "a,b"})

    def test_from_flat_rejections(self):
        with pytest.raises(ConfigParseError):
            ScenarioConfig.from_flat({"target": "hyperbolic"})
        with pytest.raises(ConfigParseError):
            ScenarioConfig.from_flat({"mesh.h": "tiny"})
        with pytest.raises(ConfigParseError):
            ScenarioConfig.from_flat({"schedule.diag_stride": "1.5"})
        with pytest.raises(ConfigParseError, match="mesh.r_out"):
            ScenarioConfig.from_flat({"mesh.shape": "annulus", "mesh.r_in": "0.5"})

    @pytest.mark.parametrize("key, value", [
        ("seed", 3.7), ("schedule.diag_stride", 2.9), ("seed", True),
        ("thresholds.r_grid", (0.1, 0.2)), ("mesh.h", [0.1])])
    def test_a_value_that_is_not_its_text_is_refused(self, key, value):
        # each value is parsed as the text a config file would hold: a float
        # is no integer (3.7 once became seed 3), a sequence no number list
        with pytest.raises(ConfigParseError, match=re.escape(repr(key))):
            ScenarioConfig.from_flat({key: value})
        with pytest.raises(ConfigParseError):
            warpflow.scenario._load_config("heat_decay", {key: value})

    def test_a_number_patch_round_trips_exactly(self):
        cfg = warpflow.scenario._load_config(
            "heat_decay", {"seed": 3, "mesh.h": 0.1, "schedule.t_end": 1 / 3,
                           "thresholds.r_grid": "0.1, 0.2"})
        assert (cfg.seed, cfg.mesh_h, cfg.schedule.t_end) == (3, 0.1, 1 / 3)
        assert cfg.thresholds.r_grid == (0.1, 0.2)

    def test_planned_steps_are_bounded(self):
        # t_end / (sigma h) CFL steps: a config at MAX_PLANNED_STEPS stands, above is refused
        flat = {"mesh.h": "0.125", "stepper.sigma": "0.2"}
        limit = MAX_PLANNED_STEPS * (0.2 * 0.125)
        assert ScenarioConfig.from_flat({**flat, "schedule.t_end": repr(limit)})
        with pytest.raises(ConfigParseError, match="plans more than"):
            ScenarioConfig.from_flat({**flat, "schedule.t_end": repr(limit * (1 + 1e-12))})

    def test_a_mesh_past_max_vertices_is_refused(self):
        # the square at h = 1e-4 has 268M vertices; t_end keeps its planned steps
        # under MAX_PLANNED_STEPS, so only the vertex bound refuses it
        with pytest.raises(ConfigParseError, match="too fine for the square"):
            ScenarioConfig.from_flat({"mesh.h": "0.0001", "schedule.t_end": "0.001"})
        assert ScenarioConfig.from_flat({"mesh.h": repr(1 / 512), "schedule.t_end": "0.001"})

    # a valid value for each key, none of them its default, and the field value
    ROUND_TRIP = {
        "name": ("demo", "demo"), "seed": ("7", 7), "target": ("torus", "torus"),
        "mesh.shape": ("annulus", "annulus"), "mesh.h": ("0.125", 0.125),
        "mesh.r_in": ("0.5", 0.5), "mesh.r_out": ("1.5", 1.5),
        "warp.kind": ("sinusoidal", "sinusoidal"), "warp.a": ("2", 2.0),
        "warp.b": ("0.5", 0.5),
        "boundary.phi": ("constant value=0.2,0.7", "constant value=0.2,0.7"),
        "boundary.phi0": ("sine_bump amplitude=0.1", "sine_bump amplitude=0.1"),
        "boundary.psi": ("cos_theta", "cos_theta"), "stepper.sigma": ("0.1", 0.1),
        "stepper.theta": ("1", 1.0), "stepper.max_move_fraction": ("0.05", 0.05),
        "thresholds.energy": ("0.5", 0.5), "thresholds.r_detect": ("0.05", 0.05),
        "thresholds.r_grid": ("0.05,0.1,0.2", (0.05, 0.1, 0.2)),
        "thresholds.persist_frames": ("2", 2), "schedule.t_end": ("0.004", 0.004),
        "schedule.diag_stride": ("3", 3), "schedule.snapshot_stride": ("2", 2),
        "twin.delta": ("0.0005", 0.0005),
    }

    def test_every_key_reaches_its_field(self, tmp_path):
        assert self.ROUND_TRIP.keys() == _KEYS.keys()
        p = tmp_path / "all.cfg"
        p.write_text("".join(f"{k} = {text}\n" for k, (text, _) in self.ROUND_TRIP.items()))
        cfg = ScenarioConfig.from_flat(resolve_config(p))
        default = ScenarioConfig()
        for key, (_, value) in self.ROUND_TRIP.items():
            path = _KEYS[key][0].split(".")
            assert (reduce(getattr, path, cfg) == value
                    != reduce(getattr, path, default)), key
        build_scenario(cfg)                     # the values are valid together
        # one definition per parameter: the config holds the run's stepper,
        # thresholds, warp and schedule and mirrors none of their fields, and
        # each stepper.*, thresholds.*, warp.* and schedule.* key reaches its
        # object's field
        own = {f.name for f in fields(ScenarioConfig)}
        for obj, cls in (("stepper", StepperConfig), ("thresholds", ThresholdConfig),
                         ("warp", WarpFunction), ("schedule", Schedule)):
            assert isinstance(getattr(cfg, obj), cls)
            nested = {f.name for f in fields(cls)}
            assert not own & nested, obj
            assert {_KEYS[k][0] for k in _KEYS if k.startswith(obj + ".")} == {
                f"{obj}.{name}" for name in nested}, obj

    def test_defaults_are_the_solver_defaults(self):
        cfg = ScenarioConfig()
        state = build_scenario(cfg)
        assert state.ctx.config == cfg.stepper == StepperConfig()
        assert cfg.thresholds == ThresholdConfig()
        assert cfg.schedule == Schedule()

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("All keys:", 1)[1].split("\n\n", 2)[1]
        documented, default = set(), ScenarioConfig()
        for row in table.splitlines()[2:]:
            keys, values = (re.findall(r"`([^`]+)`", cell) for cell in row.split("|")[1:3])
            documented.update(keys)
            if set(keys) <= {"name", "mesh.r_in", "mesh.r_out"}:    # a default in prose
                continue
            # each listed default, read by its key's parser, is the value the key reaches
            assert len(values) == len(keys), row
            for key, text in zip(keys, values):
                name, parse, _ = _KEYS[key]
                assert parse(text) == reduce(getattr, name.split("."), default), key
        assert documented == set(_KEYS)

    def test_package_root_exports_what_the_readme_lists(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
        listing = section.split("The package root exports", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"`(\w+)`", listing)) - {"__version__"}
        root = importlib.import_module("warpflow")
        public = {name for name, obj in vars(root).items()
                  if not name.startswith("_") and not inspect.ismodule(obj)}
        assert public == documented
        assert root.__version__
        # the README's own root import names only exported pieces
        imported = re.search(r"from warpflow import \(([^)]*)\)", section).group(1)
        assert set(re.findall(r"\w+", imported)) <= documented

    @pytest.mark.parametrize("name", ["", ".", "..", "../esc", "a/b", "/abs"])
    def test_a_name_that_is_not_one_path_component_is_refused(self, tmp_path, monkeypatch,
                                                              name):
        # the name names the run's directory under $WARPFLOW_OUT
        monkeypatch.setenv("WARPFLOW_OUT", str(tmp_path / "w"))
        flat = {**parse_config_text(GOOD_TEXT), "name": name}
        with pytest.raises(ConfigParseError, match="name must be one plain path component"):
            run_scenario(flat)
        assert not any(tmp_path.iterdir())


class TestResolveConfig:
    def test_shipped_names(self):
        assert builtin_scenarios() == ["bubbling", "geodesic_square",
                                       "harmonic_fixed_point", "heat_decay",
                                       "stability_twin", "warp_coupled"]
        for name in builtin_scenarios():
            flat = resolve_config(name)
            assert flat["name"] == name
            ScenarioConfig.from_flat(flat)     # parses cleanly

    def test_path_beats_shipped(self, tmp_path):
        p = tmp_path / "mine.cfg"
        p.write_text(GOOD_TEXT)
        flat = resolve_config(p)
        assert flat["name"] == "demo"          # explicit name wins over stem

    def test_stem_used_when_name_missing(self, tmp_path):
        p = tmp_path / "unnamed.cfg"
        p.write_text("target = torus\n")
        assert resolve_config(p)["name"] == "unnamed"

    def test_unknown_name(self):
        with pytest.raises(ConfigParseError):
            resolve_config("no_such_scenario")

    def test_unreadable_path_is_a_config_error(self, tmp_path):
        # a directory exists, so it is not looked up as a shipped name
        with pytest.raises(ConfigParseError, match="cannot read config"):
            resolve_config(tmp_path)


class TestPresets:
    XY = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, -1.0]])

    @pytest.mark.parametrize("spec, refusal", [
        ("", "empty scalar preset"), ("linear_x scale", "malformed"),
        ("linear_x scale=x", "non-numeric"), ("constant value=nan", "non-finite"),
        ("linear_x scale=-inf", "non-finite"), ("linear_x scale=1e999", "non-finite"),
        ("linear_x scale=1,nan", "non-finite")])
    def test_malformed_spec_is_refused(self, spec, refusal):
        with pytest.raises(ConfigParseError, match=refusal):
            warpflow.boundary.evaluate_scalar_preset(spec, self.XY)

    @pytest.mark.parametrize("name", ["north_pole", "equator_circle", "inv_stereographic",
                                      "corotational"])
    def test_sphere_only_preset_on_the_torus_is_refused(self, name):
        with pytest.raises(ConfigParseError, match="needs the 2-sphere"):
            warpflow.boundary.evaluate_map_preset(name, make_target("torus"), self.XY)

    def test_unknown_presets_are_refused(self):
        with pytest.raises(ConfigParseError, match="unknown map preset 'bogus'"):
            warpflow.boundary.evaluate_map_preset("bogus", make_target("sphere"), self.XY)
        with pytest.raises(ConfigParseError, match="unknown scalar preset 'bogus'"):
            warpflow.boundary.evaluate_scalar_preset("bogus", self.XY)

    def test_empty_initial_map_preset_is_refused(self):
        mesh = warpflow.mesh.build_mesh("square", 0.25)
        with pytest.raises(ConfigParseError, match="empty map preset"):
            warpflow.boundary.boundary_data_from_presets(
                mesh, make_target("sphere"), "north_pole", "", "constant value=0")

    def test_linear_y(self):
        out = warpflow.boundary.evaluate_scalar_preset("linear_y scale=2", self.XY)
        assert np.array_equal(out, 2.0 * self.XY[:, 1])
        assert np.array_equal(warpflow.boundary.evaluate_scalar_preset("linear_y", self.XY),
                              self.XY[:, 1])


def _recorded_solves(run):
    """Run `run()`; (its context, every theta-step solve as (dt, whether a
    factor solved it)).

    After each solve it checks the one CG matrix a context keeps: the matrix
    and dt of the last solve by CG, or none since a factor build, and never
    at the factored dt."""
    solves, used, ctxs = [], [], []
    real_cg, real_solve = warpflow.flow.cg_solve, warpflow.flow._FlowContext.theta_solve
    last_cg = [None, None]

    def solve(ctx, dt, *args):
        n = len(used)
        X = real_solve(ctx, dt, *args)
        by_lu = len(used) == n
        if not by_lu:
            last_cg[:] = dt, used[-1]
            assert ctx._cg is not None
        if ctx._cg is not None:
            assert ctx._cg_dt == last_cg[0] and ctx._cg[0] is last_cg[1]
            assert ctx._cg_dt != ctx._lu_dt
        solves.append((dt, by_lu))
        ctxs.append(ctx)
        return X

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(warpflow.flow, "cg_solve",
                   lambda A, *a, **k: used.append(A) or real_cg(A, *a, **k))
        mp.setattr(warpflow.flow._FlowContext, "theta_solve", solve)
        run()
    assert all(c is ctxs[0] for c in ctxs)
    return ctxs[0], solves


# heat_decay at h = 1/16 to t_end = 2.4 dt_cfl: three rejections, then a last
# step clipped to 0.4 dt_cfl
CLIPPED_RUN = {"mesh.h": "0.0625", "schedule.t_end": "0.03"}
# the same to t_end = 3 dt_min under a move cap no step fits: forced dt_min steps
UNDERFLOW_RUN = {"mesh.h": "0.0625", "stepper.max_move_fraction": "1e-9",
                 "schedule.t_end": repr(3.0 * warpflow.flow.DT_MIN_FACTOR * 0.0625 * 0.0625)}


@pytest.mark.parametrize("runner", ["run_scenario", "twin_run"])
def test_one_step_matrix_and_clipped_or_forced_steps_on_cg(runner):
    def run(name, overrides):
        if runner == "run_scenario":
            return lambda: run_scenario(name, overrides=overrides, write_artifacts=False)
        return lambda: twin_run(name, overrides={**overrides, "twin.delta": 1e-3})

    ctx, solves = _recorded_solves(run("heat_decay", CLIPPED_RUN))
    ladder = {ctx.dt_cfl / 2 ** k for k in range(64)}
    assert len({dt for dt, _ in solves}) >= 3
    assert solves[-1] == (pytest.approx(0.4 * ctx.dt_cfl), False)
    assert solves[-1][0] not in ladder
    ctx, solves = _recorded_solves(run("heat_decay", UNDERFLOW_RUN))
    forced = [by_lu for dt, by_lu in solves if dt == ctx.dt_min]
    assert len(forced) == 3 * (1 if runner == "run_scenario" else 2) and not any(forced)
    # a run that buys a factor and changes dt around it: bubbling at h = 1/16,
    # the shipped stability twin pair
    ctx, solves = _recorded_solves(run("bubbling", {"mesh.h": "0.0625", "schedule.t_end": "0.1"})
                                   if runner == "run_scenario" else run("stability_twin", {}))
    first = [by_lu for _, by_lu in solves].index(True)
    assert ctx.stats["step_factors"] >= 1
    assert len({dt for dt, _ in solves[first:]}) >= 2


@pytest.mark.parametrize("name", builtin_scenarios())
def test_only_varying_shipped_data_take_a_setup_factor(name):
    # warp_coupled's psi and geodesic_square's phi vary on the boundary; the
    # other four shipped traces are constant, so their extensions solve nothing
    ctx = build_scenario(ScenarioConfig.from_flat(resolve_config(name))).ctx
    assert ctx.stats["setup_factors"] == (name in ("warp_coupled", "geodesic_square"))


@pytest.mark.parametrize("runner", ["run_scenario", "twin_run"])
def test_solver_stats_count_every_solve(runner, monkeypatch):
    # every solve, wrapped where it is bound: a factor the elliptic module
    # builds inside the set-up extensions, the potential's CG (its block's
    # factor as M) in the elliptic module, the step CG flow's, and a step
    # factor's solve is the solve of what flow's lu_factor returns
    counts = dict.fromkeys(("setup_factors", "elliptic_iterations", "step_iterations",
                            "step_factors", "step_lu_solves", "step_cg_solves",
                            "theta_solves"), 0)
    real_cg, real_lu = warpflow.elliptic.cg_solve, warpflow.flow.lu_factor
    real_ext, real_elliptic_lu = warpflow.boundary.harmonic_extension, warpflow.elliptic.lu_factor
    real_theta, real_build = warpflow.flow._FlowContext.theta_solve, build_scenario
    contexts, in_setup = [], []

    def harmonic_extension(*args):
        in_setup.append(1)
        try:
            return real_ext(*args)
        finally:
            in_setup.pop()

    def elliptic_lu(A):
        counts["setup_factors"] += bool(in_setup)
        return real_elliptic_lu(A)

    def elliptic_cg(*args, **kw):
        out = real_cg(*args, **kw)
        counts["elliptic_iterations"] += out[2]
        return out

    def step_cg(*args, **kw):
        out = real_cg(*args, **kw)
        counts["step_iterations"] += out[2]
        counts["step_cg_solves"] += 1
        return out

    class CountedFactor:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            counts["step_lu_solves"] += 1
            return self._lu.solve(rhs)

    def lu_factor(A):
        counts["step_factors"] += 1
        return CountedFactor(real_lu(A))

    def theta_solve(*args):
        counts["theta_solves"] += 1
        return real_theta(*args)

    def build(cfg):
        state = real_build(cfg)
        contexts.append(state.ctx)
        return state

    monkeypatch.setattr(warpflow.boundary, "harmonic_extension", harmonic_extension)
    monkeypatch.setattr(warpflow.elliptic, "lu_factor", elliptic_lu)
    monkeypatch.setattr(warpflow.elliptic, "cg_solve", elliptic_cg)
    monkeypatch.setattr(warpflow.flow, "cg_solve", step_cg)
    monkeypatch.setattr(warpflow.flow, "lu_factor", lu_factor)
    monkeypatch.setattr(warpflow.flow._FlowContext, "theta_solve", theta_solve)
    monkeypatch.setattr(warpflow.scenario, "build_scenario", build)
    if runner == "run_scenario":     # the potential, the extensions and both step methods
        stats = run_scenario("warp_coupled", overrides={"mesh.h": "0.0625"},
                             write_artifacts=False).report.solver_stats
        assert counts["setup_factors"] == 1 and counts["elliptic_iterations"] > 0
    else:                            # a pair on one context, factored as it goes
        twin_run("stability_twin")
        stats = contexts[0].stats
        assert counts["setup_factors"] == 0         # its data are constant
    assert len(contexts) == 1 and counts["step_factors"] >= 1
    assert min(counts["step_lu_solves"], counts["step_cg_solves"]) > 0
    for key in ("setup_factors", "step_iterations", "step_lu_solves", "step_factors",
                "elliptic_iterations"):
        assert stats[key] == counts[key], key
    assert stats["step_lu_solves"] + counts["step_cg_solves"] == counts["theta_solves"]


class TestRunScenario:
    def test_artifact_layout(self, tmp_path):
        out = tmp_path / "run"
        res = run_scenario("harmonic_fixed_point", out_dir=out)
        assert res.exit_code == 0
        assert (out / "mesh.txt").exists()
        assert (out / "report.json").exists()
        csv = (out / "series.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) - 1 == len(res.report.records)
        assert sorted(p.name for p in out.iterdir()) == ["mesh.txt", "report.json",
                                                         "series.csv"]

    def test_report_json_contents(self, tmp_path):
        out = tmp_path / "run"
        res = run_scenario("harmonic_fixed_point", out_dir=out)
        text = (out / "report.json").read_text()
        payload = json.loads(text)
        # compact, keys sorted: one line, no spaces between tokens
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert payload["exit_code"] == 0
        assert payload["scenario"]["name"] == "harmonic_fixed_point"
        assert len(payload["records"]) == len(res.report.records)
        assert {c["name"] for c in payload["checks"]} >= {
            "energy_monotonicity", "dirichlet_bound_u"}

    def test_write_json_writes_the_compact_dump(self, tmp_path):
        for payload in ({}, {"b": [], "a": [1.5, {"y": [2, None], "x": "s"}], "c": {"k": [0.1]},
                             "d": float("nan")}):
            write_json(payload, tmp_path / "p.json")
            assert (tmp_path / "p.json").read_text() == json.dumps(
                payload, sort_keys=True, separators=(",", ":"))

    def test_report_counts_every_step_factor(self, tmp_path, monkeypatch):
        built = []
        real_lu_factor = warpflow.flow.lu_factor
        monkeypatch.setattr(warpflow.flow, "lu_factor",
                            lambda A: built.append(1) or real_lu_factor(A))
        out = tmp_path / "run"
        run_scenario("warp_coupled", out_dir=out,
                     overrides={"mesh.h": "0.0625", "schedule.t_end": "0.1"})
        payload = json.loads((out / "report.json").read_text())
        assert payload["solver_stats"]["step_factors"] == len(built) >= 1
        # a count of the solver's work: report.json only, never series.csv
        assert (out / "series.csv").read_text().splitlines()[0] == CSV_HEADER

    def test_series_is_parseable_and_ordered(self, tmp_path):
        out = tmp_path / "run"
        run_scenario("harmonic_fixed_point", out_dir=out)
        rows = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 8
        assert np.all(np.diff(rows[:, 0]) > 0)

    def test_no_artifacts_mode(self):
        res = run_scenario("harmonic_fixed_point", write_artifacts=False)
        assert res.out_dir is None
        assert res.exit_code == 0

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        root = tmp_path / "custom_root"
        monkeypatch.setenv("WARPFLOW_OUT", str(root))
        run_scenario("harmonic_fixed_point")
        assert (root / "harmonic_fixed_point" / "series.csv").exists()

    def test_overrides_patch_the_flat_keys(self, tmp_path):
        res = run_scenario("heat_decay", out_dir=tmp_path / "o",
                           overrides={"mesh.h": 0.125, "schedule.t_end": 0.002, "target": None})
        assert res.config.mesh_h == 0.125
        assert res.config.schedule.t_end == 0.002
        assert res.config.target_name == "torus"       # a None value patches nothing
        assert res.state.t == pytest.approx(0.002, abs=1e-12)
        # a number patches its key as its text does
        keys = run_scenario("heat_decay", write_artifacts=False,
                            overrides={"mesh.h": "0.125", "schedule.t_end": "0.002"})
        assert keys.config == res.config

    def test_misspelled_override_is_config_error(self):
        with pytest.raises(ConfigParseError, match="'mesh.hh', 'schedule.t_endd'"):
            run_scenario("heat_decay", write_artifacts=False,
                         overrides={"mesh.hh": "0.125", "schedule.t_endd": "0.004"})

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario("harmonic_fixed_point", out_dir=a)
        run_scenario("harmonic_fixed_point", out_dir=b)
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_annulus_scenario_from_dict(self, tmp_path):
        flat = {
            "name": "ring", "target": "torus", "mesh.shape": "annulus",
            "mesh.r_in": "0.5", "mesh.r_out": "1.0", "mesh.h": "0.125",
            "boundary.phi": "constant value=0.2,0.7",
            "boundary.phi0": "constant value=0.2,0.7",
            "boundary.psi": "cos_theta", "schedule.t_end": "0.002",
        }
        res = run_scenario(flat, out_dir=tmp_path / "ring")
        assert res.exit_code == 0
        assert res.config.mesh_shape == "annulus"

    def test_snapshots_written_on_stride(self, tmp_path):
        out = tmp_path / "snaps"
        res = run_scenario("harmonic_fixed_point", out_dir=out,
                           overrides={"schedule.snapshot_stride": "2"})
        snaps = sorted((out / "snapshots").iterdir())
        assert snaps
        assert snaps[-1].name == f"step_{res.state.step_count:06d}.txt"


class TestTwinRun:
    def test_zero_delta_is_bitwise_identical(self):
        res = twin_run("heat_decay", overrides={"mesh.h": "0.0625", "schedule.t_end": "0.01",
                                                "twin.delta": 0.0})
        assert res.initial_diff == 0.0
        assert res.sup_diff == 0.0
        assert res.final_diff == 0.0
        assert res.amplification == 0.0

    def test_zero_delta_stays_identical_across_the_factored_step(self):
        # warp_coupled's CFL key pays for a step factor within this run: both
        # members must move from CG to the one factor at the same step
        res = twin_run("warp_coupled", overrides={"mesh.h": "0.0625", "schedule.t_end": "0.05",
                                                  "twin.delta": 0.0})
        assert len(res.times) > 2
        assert res.sup_diff == 0.0

    def test_small_perturbation_is_stable(self):
        overrides = {"mesh.h": "0.0625", "schedule.t_end": "0.01"}
        res = twin_run("heat_decay", overrides={**overrides, "twin.delta": 1e-3})
        assert 0.0 < res.initial_diff <= 1e-3 + 1e-12
        assert res.amplification <= 2.0
        assert res.sup_diff <= 2e-3
        assert len(res.times) == len(res.diffs)
        half = twin_run("heat_decay", overrides={**overrides, "twin.delta": 5e-4})
        assert 1.6 <= res.sup_diff / half.sup_diff <= 2.4

    def test_perturbed_data_reuses_the_base_extensions(self, monkeypatch):
        overrides = {"mesh.h": "0.0625", "schedule.t_end": "0.002"}
        calls = []
        real = warpflow.boundary.harmonic_extension
        monkeypatch.setattr(warpflow.boundary, "harmonic_extension",
                            lambda *a: calls.append(1) or real(*a))
        warpflow.scenario.build_scenario(
            ScenarioConfig.from_flat({**resolve_config("stability_twin"), **overrides}))
        per_setup = len(calls)
        twin_run("stability_twin", overrides=overrides)
        assert len(calls) == 2 * per_setup

    def test_the_result_carries_the_shared_context_s_solver_stats(self, monkeypatch):
        built, real = [], warpflow.scenario.build_scenario
        monkeypatch.setattr(warpflow.scenario, "build_scenario",
                            lambda cfg: built.append(real(cfg)) or built[-1])
        res = twin_run("stability_twin", overrides={"mesh.h": "0.0625",
                                                    "schedule.t_end": "0.02"})
        stats, ctx = dict(res.solver_stats), built[0].ctx
        assert stats.pop("wall_seconds") > 0.0
        assert stats == ctx.stats and stats["rejections"] is not ctx.stats["rejections"]
        # both members count each of their steps
        assert stats["accepted_steps"] == 2 * (len(res.times) - 1) > 0

    def test_times_match_run_flow_records(self):
        overrides = {"mesh.h": "0.0625", "schedule.t_end": "0.01",
                     "schedule.diag_stride": "1"}
        twin = twin_run("heat_decay", overrides={**overrides, "twin.delta": 0.0})
        run = run_scenario("heat_decay", overrides=overrides, write_artifacts=False)
        assert twin.times == [r.t for r in run.report.records]
        assert twin.underflow_times == run.report.underflow_times == []

    def test_underflow_is_recorded_and_survived(self):
        t_end = 3.0 * warpflow.flow.DT_MIN_FACTOR * 0.0625 * 0.0625   # 3 dt_min
        overrides = {"mesh.h": "0.0625", "schedule.t_end": repr(t_end),
                     "stepper.max_move_fraction": "1e-9"}
        res = twin_run("heat_decay", overrides={**overrides, "twin.delta": 1e-3})
        assert res.underflow_times
        assert res.underflow_times[0] == 0.0
        assert res.times[-1] >= t_end - 1e-14
        assert len(res.times) == len(res.diffs)
        zero = twin_run("heat_decay", overrides={**overrides, "twin.delta": 0.0})
        assert zero.times == res.times
        assert zero.underflow_times == res.underflow_times
        assert zero.sup_diff == 0.0


    def test_members_share_one_context_and_count_every_call(self, monkeypatch):
        made, calls, built = [], [], []
        real_initial, real_step = warpflow.scenario.initial_state, warpflow.flow.step
        real_build = warpflow.boundary.BoundaryData.build.__func__

        def capturing_initial(*args, **kwargs):
            state = real_initial(*args, **kwargs)
            made.append(state.ctx)
            return state

        def counting_step(state, *args, **kwargs):
            calls.append(state.ctx)
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(warpflow.scenario, "initial_state", capturing_initial)
        monkeypatch.setattr(warpflow.flow, "step", counting_step)
        # the perturbed member differs only in phi0: its data are not rebuilt
        monkeypatch.setattr(warpflow.boundary.BoundaryData, "build", classmethod(
            lambda cls, *a, **k: built.append(1) or real_build(cls, *a, **k)))
        twin_run("bubbling", overrides={"mesh.h": "0.0625", "schedule.t_end": "0.001",
                                        "twin.delta": 1e-3})
        assert len(made) == 1 and len(built) == 1
        assert all(ctx is made[0] for ctx in calls)
        stats = made[0].stats
        assert stats["rejected_steps"] > 0
        assert stats["accepted_steps"] + stats["rejected_steps"] == len(calls)


BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(name):
    """The namespace of perfbench/<name>.py, executed from its source so no
    bytecode is written next to it."""
    path = BENCH_DIR / f"{name}.py"
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


class TestBenchmarkHooks:
    """perfbench patches these module attributes; they must stay in use."""

    def test_steps_and_states_route_through_patchable_names(self, monkeypatch):
        assert warpflow.scenario.step is warpflow.flow.step
        made, stepped = [], []
        real_initial, real_step = warpflow.scenario.initial_state, warpflow.flow.step

        def counting_initial(*args, **kwargs):
            made.append(1)
            return real_initial(*args, **kwargs)

        def counting_step(*args, **kwargs):
            stepped.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(warpflow.scenario, "initial_state", counting_initial)
        monkeypatch.setattr(warpflow.flow, "step", counting_step)
        overrides = {"mesh.h": "0.0625", "schedule.t_end": "0.01"}
        twin_run("heat_decay", overrides=overrides)
        assert len(made) == 1
        assert stepped
        stepped.clear()
        res = run_scenario("heat_decay", overrides=overrides, write_artifacts=False)
        stats = res.report.solver_stats
        assert len(stepped) == stats["accepted_steps"] + stats["rejected_steps"]

    def test_traced_names_exist(self):
        # perfbench/spans.py wraps these by name: methods through the class
        # __dict__, functions on every module that re-binds them
        mesh_cls = vars(warpflow.mesh.DomainMesh)
        for name in ("tri_gradients", "tri_grad_sq", "nodal_from_tri", "laplacian"):
            assert callable(mesh_cls[name]), name
        for cls, name in ((warpflow.mesh.BallIndex, "build"),
                          (warpflow.boundary.BoundaryData, "build"),
                          (warpflow.diagnostics.RunBounds, "from_run")):
            assert isinstance(vars(cls)[name], classmethod), (cls.__name__, name)
        for cls in (warpflow.geometry.UnitSphere, warpflow.geometry.FlatTorus):
            for name in ("project_field", "project_tangent", "curvature_force",
                         "distance"):
                assert callable(vars(cls)[name]), (cls.__name__, name)
        assert warpflow.flow.cg_solve is warpflow.elliptic.cg_solve
        assert warpflow.flow.solve_warped_laplace is warpflow.elliptic.solve_warped_laplace
        assert warpflow.scenario.run_flow is warpflow.flow.run_flow
        assert warpflow.diagnostics.tri_energy_density is warpflow.mesh.tri_energy_density

    def test_every_traced_method_resolves(self):
        # read the benchmark's own list (executed from its source, so no
        # bytecode is written next to it): a rename fails here, not in a
        # traced benchmark run
        spans = _bench_module("spans")
        assert spans["METHODS"]
        for module, cls_name, meth, _ in spans["METHODS"]:
            cls = getattr(importlib.import_module(f"warpflow.{module}"), cls_name)
            assert meth in vars(cls), (cls_name, meth)

    @pytest.mark.parametrize("workload", ["bubbling", "warp_coupled_fine", "twin_fine"])
    def test_tracer_installs_on_the_names_the_benchmark_binds(self, tmp_path, workload):
        # perfbench/child.py stamps flow.step and scenario.step and wraps
        # scenario.initial_state; spans.py renames flow.cg_solve.  -B keeps
        # bytecode out of perfbench/
        root = BENCH_DIR.parent
        src = Path(warpflow.flow.__file__).parents[1]
        code = (f"import sys; sys.path[:0] = [{str(root / 'perfbench')!r}, {str(src)!r}]; "
                "import spans; spans.Tracer().install(); "
                "import warpflow.flow as flow, warpflow.scenario as scenario; "
                "assert callable(flow.step) and callable(scenario.step); "
                "assert callable(scenario.initial_state); "
                "assert flow.cg_solve.__wrapped__.__module__ == 'warpflow.elliptic'")
        proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # one traced smoke sample: the theta-step CG, the potential solve and
        # the rejected steps must run under the names the spans count, and
        # agree with solver_stats (on the twin too, whose factored steps count
        # no CG iterations, and on bubbling, whose sample rejects steps)
        facts, spans_path = tmp_path / "facts.json", tmp_path / "spans.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-B", str(BENCH_DIR / "child.py"), "--workload",
             workload, "--seed", "3", "--mode", "full", "--trace", "1",
             "--smoke", "--out", str(tmp_path / "out"), "--result", str(facts),
             "--spans", str(spans_path)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        layers = _bench_module("spans")["layer_metrics"](json.loads(spans_path.read_text()))
        stats = json.loads(facts.read_text())["stats"]
        assert _bench_module("workloads")["cross_check"](layers, stats) == []
        assert layers["elliptic.step_cg.calls"] > 0
        assert workload != "bubbling" or stats["rejected_steps"] > 0
        # only warp_coupled's warp is not constant
        assert (layers["elliptic.solve_warped_laplace.calls"] > 0) == (
            workload == "warp_coupled_fine")


class TestCheckReportFile:
    def _fresh_report(self, tmp_path) -> Path:
        out = tmp_path / "run"
        run_scenario("heat_decay", out_dir=out,
                     overrides={"mesh.h": 0.125, "schedule.t_end": 0.004})
        return out / "report.json"

    def test_clean_report_passes(self, tmp_path, capsys):
        path = self._fresh_report(tmp_path)
        assert check_report_file(path) == 0
        printed = capsys.readouterr().out
        assert "[pass] energy_monotonicity" in printed

    def test_tampered_series_fails(self, tmp_path):
        path = self._fresh_report(tmp_path)
        payload = json.loads(path.read_text())
        payload["records"][-1]["e_u"] = 1e6     # breaks the a priori bound
        path.write_text(json.dumps(payload))
        assert check_report_file(path) == 2

    def test_stored_verdict_disagreement_fails(self, tmp_path, capsys):
        path = self._fresh_report(tmp_path)
        payload = json.loads(path.read_text())
        for c in payload["checks"]:
            if c["name"] == "energy_monotonicity":
                c["passed"] = False             # claim a failure that isn't there
        path.write_text(json.dumps(payload))
        assert check_report_file(path) == 2
        assert "disagrees" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def bubbling_report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bubbling")
        res = run_scenario("bubbling", out_dir=out,
                           overrides={"mesh.h": 0.0625, "schedule.t_end": 0.004})
        assert res.report.events and res.exit_code == 0
        return json.loads((out / "report.json").read_text())

    def _check(self, tmp_path, payload) -> int:
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        return check_report_file(path)

    def test_untouched_bubbling_report_passes(self, tmp_path, bubbling_report):
        assert self._check(tmp_path, bubbling_report) == 0

    def test_emptied_events_fail(self, tmp_path, bubbling_report, capsys):
        payload = {**bubbling_report, "events": []}
        assert self._check(tmp_path, payload) == 2
        assert "singularity_counts" in capsys.readouterr().out

    def test_moved_event_fails(self, tmp_path, bubbling_report, capsys):
        [event] = bubbling_report["events"]
        moved = {**event, "time": 0.5, "points": [[0.9, 0.0]]}
        assert self._check(tmp_path, {**bubbling_report, "events": [moved]}) == 2
        assert "re-derived events" in capsys.readouterr().out

    def test_edited_persistent_vertices_fail(self, tmp_path, bubbling_report, capsys):
        stored = bubbling_report["convergence"]["persistent_vertices"]
        conv = {**bubbling_report["convergence"], "persistent_vertices": stored + [0]}
        assert self._check(tmp_path, {**bubbling_report, "convergence": conv}) == 2
        assert "stored convergence disagrees" in capsys.readouterr().out

    def test_raised_crossing_fails(self, tmp_path, bubbling_report):
        [event] = bubbling_report["events"]
        key = str(event["vertices"][0])
        records = [dict(r) for r in bubbling_report["records"]]
        last = max(i for i, r in enumerate(records) if key in r["crossings"])
        records[last]["crossings"] = {**records[last]["crossings"],
                                      key: 2.0 * max(event["peak_energies"])}
        assert self._check(tmp_path, {**bubbling_report, "records": records}) == 2

    def test_crossing_without_point_is_malformed(self, tmp_path, bubbling_report, capsys):
        points = dict(bubbling_report["crossing_points"])
        del points[str(bubbling_report["events"][0]["vertices"][0])]
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**bubbling_report, "crossing_points": points}))
        self._check_malformed(path, capsys)

    def test_changed_exit_code_fails(self, tmp_path, bubbling_report):
        assert self._check(tmp_path, {**bubbling_report, "exit_code": 2}) == 2

    @pytest.mark.parametrize("key, edit", [
        ("checks", lambda p: p["checks"][0]["constants"].update(max_increase=1.0)),
        ("checks", lambda p: p["checks"][0].update(tolerance=1.0)),
        ("convergence", lambda p: p["convergence"]["halving_times"].append(1.0)),
        ("convergence", lambda p: p["convergence"].update(rate_tolerance=1.0)),
        ("v_norm", lambda p: p.update(v_norm=p["v_norm"] + 1.0)),
    ], ids=["constants", "tolerance", "halving_times", "rate_tolerance", "v_norm"])
    def test_edited_derived_value_fails(self, tmp_path, bubbling_report, capsys, key, edit):
        payload = json.loads(json.dumps(bubbling_report))
        edit(payload)
        assert self._check(tmp_path, payload) == 2
        assert f"stored {key} disagrees with the re-derived {key}" in capsys.readouterr().out

    def test_deleted_check_fails(self, tmp_path, bubbling_report):
        checks = [c for c in bubbling_report["checks"] if c["name"] != "two_ball"]
        assert self._check(tmp_path, {**bubbling_report, "checks": checks}) == 2

    def test_claimed_convergence_fails(self, tmp_path, bubbling_report, capsys):
        assert bubbling_report["convergence"]["status"] == "not_stationary"
        for change in ({"status": "converged"}, {"converged": True},
                       {"status": "converged", "converged": True}):
            conv = {**bubbling_report["convergence"], **change}
            assert self._check(tmp_path, {**bubbling_report, "convergence": conv}) == 2
        assert "stored convergence" in capsys.readouterr().out

    def test_missing_convergence_fails(self, tmp_path, bubbling_report):
        assert self._check(tmp_path, {**bubbling_report, "convergence": None}) == 2

    def test_empty_records_are_malformed(self, tmp_path, bubbling_report, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**bubbling_report, "records": []}))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().out == "malformed report: ValueError: report has no records\n"

    def _check_malformed(self, path, capsys):
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("malformed report:")

    @pytest.mark.parametrize("name", ["warp_lower", "domain_area"])
    def test_zero_bound_is_malformed(self, tmp_path, bubbling_report, capsys, name):
        bounds = {**bubbling_report["bounds"], name: 0.0}
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**bubbling_report, "bounds": bounds}))
        self._check_malformed(path, capsys)

    def test_non_json_report_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        self._check_malformed(path, capsys)

    @pytest.mark.parametrize("field", ["e_u", "e_v", "grad4_u", "max_local_energy",
                                       "ball_probes", "crossings"])
    def test_non_finite_record_number_is_malformed(self, tmp_path, bubbling_report,
                                                   capsys, field):
        records = [json.loads(json.dumps(r)) for r in bubbling_report["records"]]
        if field == "crossings":
            rec = next(r for r in records if r["crossings"])
            rec["crossings"][next(iter(rec["crossings"]))] = float("nan")
        else:
            rec = records[len(records) // 2]
            if field == "ball_probes":
                rec["ball_probes"][0][0] = float("nan")
            else:
                rec[field] = float("nan")
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**bubbling_report, "records": records}))
        self._check_malformed(path, capsys)

    @pytest.mark.parametrize("edit", [
        lambda p: p["records"][1]["ball_probes"].pop(),
        lambda p: p["records"][1]["ball_probes"].append(p["records"][1]["ball_probes"][0]),
        lambda p: p["records"][1]["ball_probes"][2].pop(),
        lambda p: p["records"][-1]["ball_probes"][0].append(0.0),
        lambda p: p["probe_centers"].pop(),
        lambda p: p.pop("probe_centers"),
    ], ids=["row_missing", "row_extra", "column_missing", "column_extra",
            "center_missing", "no_probe_centers"])
    def test_probe_layout_mismatch_is_malformed(self, tmp_path, bubbling_report, capsys,
                                                edit):
        payload = json.loads(json.dumps(bubbling_report))
        edit(payload)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        self._check_malformed(path, capsys)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_record_key_mismatch_is_malformed(self, tmp_path, bubbling_report, capsys,
                                              change):
        rec = dict(bubbling_report["records"][0])
        if change == "missing":
            del rec["e_u"]
        else:
            rec["e_w"] = 0.0
        payload = {**bubbling_report, "records": [rec] + bubbling_report["records"][1:]}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        self._check_malformed(path, capsys)

    def test_invalid_stored_threshold_is_malformed(self, tmp_path, bubbling_report, capsys):
        thresholds = {**bubbling_report["thresholds"], "energy": -1}
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**bubbling_report, "thresholds": thresholds}))
        self._check_malformed(path, capsys)

    @pytest.mark.parametrize("section, key, value", [
        ("thresholds", "energy", "NaN"), ("thresholds", "r_detect", "NaN"),
        ("bounds", "energy_psi_ext", "Infinity"), ("convergence", "residual_norm", "NaN")])
    def test_non_finite_number_outside_the_records_is_malformed(self, tmp_path, capsys,
                                                                section, key, value):
        path = self._fresh_report(tmp_path)
        payload = json.loads(path.read_text())
        payload[section][key] = float(value)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        self._check_malformed(path, capsys)

    def test_truncated_report_fails(self, tmp_path):
        path = self._fresh_report(tmp_path)
        payload = json.loads(path.read_text())
        payload["records"] = payload["records"][:1]
        path.write_text(json.dumps(payload))
        assert check_report_file(path) == 2


class TestCli:
    def test_run_single(self, tmp_path, capsys):
        out = tmp_path / "cli_out"
        assert main(["run", "harmonic_fixed_point", "--out", str(out)]) == 0
        assert (out / "series.csv").exists()
        assert "harmonic_fixed_point" in capsys.readouterr().out

    def test_run_with_overrides(self, tmp_path):
        out = tmp_path / "cli_h"
        code = main(["run", "heat_decay", "--out", str(out),
                     "--h", "0.125", "--t-end", "0.002"])
        assert code == 0
        rows = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
        assert rows[-1, 0] == pytest.approx(0.002, abs=1e-12)

    def test_a_run_is_placed_by_its_config_s_name(self, tmp_path, monkeypatch, capsys):
        # the name, not the file's stem, names the directory, in the CLI and the library alike
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("WARPFLOW_OUT", "w")
        Path("my.cfg").write_text(GOOD_TEXT.replace("name = demo", "name = foo"))
        assert main(["run", "my.cfg"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"-> {Path('w', 'foo')}")
        assert sorted(p.name for p in Path("w").iterdir()) == ["foo"]
        assert run_scenario("my.cfg").out_dir == Path("w", "foo")
        assert main(["twin", "my.cfg"]) == 0
        assert sorted(p.name for p in Path("w").iterdir()) == ["foo", "foo_twin"]
        assert Path("w", "foo", "series.csv").exists()
        assert Path("w", "foo_twin", "twin_report.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_two_runs_of_one_name_are_a_config_error(self, tmp_path, capsys, jobs):
        other = tmp_path / "other.cfg"
        other.write_text(GOOD_TEXT.replace("name = demo", "name = heat_decay"))
        out = tmp_path / "out"
        for configs in (["heat_decay", "heat_decay"], ["heat_decay", str(other)]):
            assert main(["run", *configs, "--out", str(out), "--jobs", jobs]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == "config error: two runs named 'heat_decay'\n"

    def test_run_parallel_jobs(self, tmp_path):
        args = ["run", "harmonic_fixed_point", "heat_decay", "--h", "0.125",
                "--t-end", "0.004"]
        assert main(args + ["--out", str(tmp_path / "j2"), "--jobs", "2"]) == 0
        assert main(args + ["--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
        for name in ("harmonic_fixed_point", "heat_decay"):
            assert ((tmp_path / "j2" / name / "series.csv").read_bytes()
                    == (tmp_path / "j1" / name / "series.csv").read_bytes())

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "no_such_scenario"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        assert main(["run", "harmonic_fixed_point", "--out", str(tmp_path / "out"),
                     "--jobs", jobs]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_annulus_without_radii_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "ring.cfg"
        cfg.write_text("target = torus\nmesh.shape = annulus\nmesh.h = 0.125\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "mesh.r_in" in err and "mesh.r_out" in err

    @pytest.mark.parametrize("line", [
        "stepper.sigma = 0.9", "warp.kind = cubic", "thresholds.energy = -1",
        "mesh.shape = hexagon", "mesh.h = 0",
        "thresholds.persist_frames = 0", "thresholds.persist_frames = -2",
        "mesh.h = 1", "mesh.h = nan",
        "stepper.max_move_fraction = nan", "schedule.t_end = nan",
        "boundary.phi = equator_circle kappa=1,2", "boundary.psi = linear_x scale=1,2",
        "boundary.phi0 = inv_stereographic rho=0.1 center=1,2,3",
        "boundary.phi = constant value=0,0,2", "schedule.t_end = 0", "schedule.t_end = -1",
        "stepper.max_move_fraction = 0", "thresholds.r_grid = 0.1,-0.2",
        "boundary.phi = equator_circle kapa=3", "boundary.phi0 = harmonic rho=0.1",
        "boundary.psi = linear_x scael=2", "boundary.phi0 = sine_bump amplitude=0.1",
        "stepper.scheme = semi_implicit", "output.formats = csv,json",
        "seed = -1", "schedule.diag_stride = -1", "schedule.snapshot_stride = -1",
        "twin.delta = -0.001"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"target = sphere\n{line}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "twin"])
    @pytest.mark.parametrize("text, named", [
        ("target = sphere\nboundary.phi = north_pole\n"
         "boundary.phi0 = constant value=1e200,0,0\n", "initial map"),
        ("target = torus\nwarp.kind = linear_height\nwarp.a = 2\nwarp.b = 1\n"
         "boundary.phi = constant value=0,-10\nboundary.phi0 = constant value=0,-10\n",
         "linear_height"),
        ("target = torus\nboundary.phi = constant value=nan,0\n", "non-finite preset"),
        ("target = sphere\nwarp.kind = linear_height\nwarp.a = 2\nwarp.b = 1\n"
         "boundary.phi = equator_circle kappa=1\nboundary.psi = constant value=nan\n",
         "non-finite preset parameter 'value=nan'"),
        ("target = torus\nboundary.phi = constant value=0,0\n"
         "boundary.phi0 = sine_bump amplitude=inf\n", "non-finite preset parameter"),
        ("target = torus\nboundary.phi = constant value=0,0\n"
         "boundary.phi0 = constant value=1e300,0\n", "initial map must be finite"),
    ], ids=["overflowing_initial_map", "linear_height_on_the_torus", "nan_trace_on_the_torus",
            "nan_psi_value", "infinite_phi0_amplitude", "overflowing_map_on_the_torus"])
    def test_refused_data_is_one_config_error_line(self, tmp_path, capsys, command,
                                                   text, named):
        # the initial map's squared norm overflows, and its projection would be
        # 0; a + b * (last component) of a torus lift leaves the warp's bounds;
        # a non-finite preset number is refused as it parses; a finite map whose
        # squared norm overflows passes the torus's distance test but not the start's
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "mesh.h = 0.25\nschedule.t_end = 0.01\n")
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "twin"])
    @pytest.mark.parametrize("sigma", ["1e-300", "1e-7"])
    def test_sigma_below_the_dt_floor_is_config_error(self, tmp_path, capsys, command,
                                                      sigma):
        # sigma h < DT_MIN_FACTOR h^2: 1e-300 overflowed the kinetic sum, 1e-7
        # needs 8e5 steps; both are refused before the first step
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("target = sphere\nmesh.h = 0.125\nboundary.phi = equator_circle "
                       f"kappa=1\nstepper.sigma = {sigma}\nschedule.t_end = 0.01\n")
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dt floor" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "twin"])
    def test_too_many_planned_steps_is_config_error(self, tmp_path, capsys, command):
        # sigma h lies above the dt floor, but t_end / (sigma h) plans 4e5 CFL
        # steps: such a run had not ended after 15 s, and is now refused before
        # any run starts
        cfg = tmp_path / "long.cfg"
        cfg.write_text("target = torus\nmesh.h = 0.125\nboundary.phi = constant value=0,0\n"
                       "boundary.phi0 = sine_bump amplitude=0.1\nstepper.sigma = 2e-7\n"
                       "schedule.t_end = 0.01\n")
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"more than {MAX_PLANNED_STEPS} CFL steps" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "twin"])
    def test_a_mesh_past_max_vertices_is_config_error(self, tmp_path, capsys, command):
        # 268M vertices: refused from the config, before any array is allocated
        cfg = tmp_path / "fine.cfg"
        cfg.write_text("mesh.h = 0.0001\nschedule.t_end = 0.001\n")
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "MAX_VERTICES" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_an_overflowing_twin_perturbation_is_a_solver_error(self, tmp_path, capsys):
        # run never perturbs the map; twin's perturbed start is refused at t = 0
        cfg = tmp_path / "kick.cfg"
        cfg.write_text("target = torus\nmesh.h = 0.25\nboundary.phi = constant value=0,0\n"
                       "boundary.phi0 = sine_bump\ntwin.delta = 1e200\n"
                       "schedule.t_end = 0.01\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert main(["twin", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: perturbed initial map refused")

    def test_several_configs_all_parse_before_any_runs(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("target = sphere\nmesh.h = 0.25\nfoo = 1\n")
        out = tmp_path / "out"
        assert main(["run", "harmonic_fixed_point", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {bad}: line 3: unknown key 'foo'\n"
        assert captured.out == "" and not out.exists()

    def test_a_one_cell_square_stops_run_before_any_config_runs(self, tmp_path, capsys):
        # mesh.h = 1 leaves the square one cell a side, with no interior vertex
        sq = tmp_path / "sq.cfg"
        sq.write_text("target = sphere\nmesh.h = 1\n")
        out = tmp_path / "out"
        assert main(["run", "heat_decay", str(sq), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"config error: {sq}: ")
        assert "too coarse for the square" in captured.err

    @pytest.mark.parametrize("text", [
        "stepper.sigma = 0.9", "thresholds.persist_frames = 0",
        "warp.kind = linear_height\nwarp.a = 0.5\nwarp.b = 1", "warp.kind = cubic",
        "mesh.shape = hexagon", "mesh.h = -0.25", "mesh.h = 0.25\nstepper.sigma = 1e-9",
        "mesh.shape = annulus\nmesh.r_in = 2\nmesh.r_out = 1", "mesh.h = 2",
        "mesh.shape = disk\nmesh.h = 0.75", "boundary.phi = nonsense",
        "boundary.psi = linear_x scal=2", "boundary.phi0 = harmonic x=1",
        "boundary.phi = equator_circle kappa=1,2"],
        ids=["sigma", "persist_frames", "warp_bounds", "warp_kind", "mesh_shape",
             "mesh_h", "sigma_floor", "annulus_radii", "square_too_coarse",
             "disk_too_coarse", "phi_preset", "psi_parameter", "phi0_parameter",
             "phi_parameter_shape"])
    def test_a_bad_value_stops_run_before_any_config_runs(self, tmp_path, capsys, text):
        # each value is refused as its config is read, with no mesh built
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"target = sphere\n{text}\n")
        out = tmp_path / "out"
        assert main(["run", "harmonic_fixed_point", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"config error: {bad}: ")
        assert main(["twin", str(bad), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("text, refusal", [
        ("target = torus\nboundary.phi = constant value=0,0\n"
         "boundary.phi0 = constant value=1e300,0", "initial map must be finite"),
        ("target = sphere\nboundary.phi = constant value=0,0,0",
         "boundary trace 'constant value=0,0,0' does not lie on the sphere"),
        ("target = sphere\nboundary.phi = constant value=0,0,2",
         "boundary trace 'constant value=0,0,2' does not lie on the sphere"),
        ("target = sphere\nboundary.phi0 = sine_bump amplitude=100",
         "initial map 'sine_bump amplitude=100' cannot be projected onto the sphere")],
        ids=["start_overflows", "phi_at_the_center", "phi_off_the_sphere", "phi0_too_large"])
    def test_a_config_refused_at_set_up_stops_every_run(self, tmp_path, capsys, monkeypatch,
                                                        text, refusal, jobs):
        # the keys parse; the set-up refuses the config before heat_decay runs
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + "\n")
        monkeypatch.setenv("WARPFLOW_OUT", str(tmp_path / "out"))
        assert main(["run", "heat_decay", str(bad), "--h", "0.25", "--t-end", "0.004",
                     "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert captured.err.startswith(f"config error: {bad}: {refusal}")

    @pytest.mark.parametrize("flag", ["--h", "--t-end"])
    def test_non_finite_override_is_config_error(self, tmp_path, capsys, flag):
        assert main(["run", "heat_decay", flag, "nan", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    def test_negative_seed_is_twin_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("target = sphere\nmesh.h = 0.125\nseed = -1\n")
        assert main(["twin", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: seed must be non-negative")

    def test_non_finite_twin_delta_is_config_error(self, tmp_path, capsys):
        assert main(["twin", "stability_twin", "--delta", "nan",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    def test_negative_twin_delta_is_config_error(self, tmp_path, capsys):
        assert main(["twin", "stability_twin", "--delta", "-0.001",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: twin_delta must be non-negative")
        assert not (tmp_path / "out").exists()

    def test_check_exit_codes(self, tmp_path):
        out = tmp_path / "for_check"
        run_scenario("heat_decay", out_dir=out,
                     overrides={"mesh.h": 0.125, "schedule.t_end": 0.004})
        report = out / "report.json"
        assert main(["check", str(report)]) == 0
        payload = json.loads(report.read_text())
        payload["records"][-1]["e_u"] = 1e6
        report.write_text(json.dumps(payload))
        assert main(["check", str(report)]) == 2

    @pytest.mark.parametrize("name", ["missing.json", "a_directory"])
    def test_check_of_an_unreadable_path_is_malformed(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        assert main(["check", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert len(out) == 1 and out[0].startswith("malformed report:")
        assert captured.err == ""

    def test_twin_writes_report(self, tmp_path):
        out = tmp_path / "twin_out"
        code = main(["twin", "stability_twin", "--delta", "0", "--out", str(out)])
        assert code == 0
        text = (out / "twin_report.json").read_text()
        payload = json.loads(text)
        assert payload["sup_diff"] == 0.0
        assert payload["solver_stats"]["accepted_steps"] == 2 * (len(payload["times"]) - 1)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_module_runs_in_subprocess(self, tmp_path):
        out = tmp_path / "sub"
        code = ("import sys; from warpflow.cli import main; "
                f"sys.exit(main(['run', 'harmonic_fixed_point', '--out', {str(out)!r}]))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()

    @staticmethod
    def _config_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["run", "twin"])
    def test_a_name_holding_a_nul_is_refused_before_anything_is_made(
            self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("WARPFLOW_OUT", str(tmp_path / "w"))
        cfg = tmp_path / "nul.cfg"
        cfg.write_text(GOOD_TEXT.replace("name = demo", "name = a\0b"))
        assert main([command, str(cfg)]) == 1
        assert "name must be one plain path component" in self._config_error_line(capsys)
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("command", ["run", "twin"])
    def test_an_out_under_a_regular_file_is_a_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(GOOD_TEXT)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        assert main([command, str(cfg), "--out", str(out)]) == 1
        assert f"cannot make the run directory {str(out)!r}" in self._config_error_line(capsys)

    @pytest.mark.parametrize("command", ["run", "twin"])
    def test_a_name_too_long_for_a_directory_is_a_config_error(self, tmp_path, monkeypatch,
                                                              capsys, command):
        monkeypatch.setenv("WARPFLOW_OUT", str(tmp_path / "w"))
        cfg = tmp_path / "long.cfg"
        cfg.write_text(GOOD_TEXT.replace("name = demo", "name = " + "a" * 300))
        assert main([command, str(cfg)]) == 1
        assert "cannot make the run directory" in self._config_error_line(capsys)
        assert list((tmp_path / "w").iterdir()) == []

    def test_a_file_named_snapshots_in_out_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text(GOOD_TEXT + "schedule.snapshot_stride = 1\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "snapshots").write_text("")
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = self._config_error_line(capsys)
        assert f"cannot make the run directory {str(out / 'snapshots')!r}" in err

    @pytest.mark.parametrize("command", ["run", "twin"])
    def test_a_t_end_within_the_march_s_end_slack_is_a_config_error(
            self, tmp_path, monkeypatch, capsys, command):
        # the march would take no step, so a run would end with one record and no checks
        monkeypatch.setenv("WARPFLOW_OUT", str(tmp_path / "w"))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(GOOD_TEXT.replace("schedule.t_end = 0.004", "schedule.t_end = 1e-14"))
        assert main([command, str(cfg)]) == 1
        assert "t_end must be positive" in self._config_error_line(capsys)
        assert not (tmp_path / "w").exists()

    def test_a_t_end_just_above_the_end_slack_takes_one_step(self, tmp_path):
        result = run_scenario(parse_config_text(GOOD_TEXT), out_dir=tmp_path / "out",
                              overrides={"schedule.t_end": "2e-14"})
        assert result.state.step_count == 1 and result.state.t == 2e-14
        assert len(result.report.records) == 2


def test_a_mesh_refusal_is_a_config_error():
    assert issubclass(InvalidShapeParameters, ConfigParseError)


def test_a_detection_ball_wider_than_the_mesh_runs():
    runs = [run_scenario("warp_coupled", write_artifacts=False,
                         overrides={"mesh.h": 0.25, "thresholds.r_detect": r})
            for r in ("1e200", "10")]
    assert runs[0].exit_code == 0
    wide, ref = ([(r.max_local_energy, r.crossings) for r in res.report.records]
                 for res in runs)
    assert wide == ref


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """warp_coupled at h = 1/128 (the smallest run whose series.csv moved with
    the BLAS thread count when its reductions went to BLAS) and a twin at the
    same h, each under 1 and 2 BLAS threads in a fresh interpreter."""
    code = (
        "import hashlib, sys\n"
        "from warpflow.scenario import run_scenario, twin_run\n"
        "h = {'mesh.h': '0.0078125', 'schedule.t_end': '0.005'}\n"
        "run_scenario('warp_coupled', out_dir=sys.argv[1], overrides=h)\n"
        "with open(sys.argv[1] + '/series.csv', 'rb') as f:\n"
        "    print(hashlib.sha256(f.read()).hexdigest())\n"
        "print(repr(twin_run('stability_twin', overrides={**h, 'seed': '3'}).final_diff))\n")
    procs = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
        procs.append(subprocess.Popen([sys.executable, "-c", code, str(tmp_path / n)],
                                      env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True))
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.append(out.split())
    (series_1, diff_1), (series_2, diff_2) = outs
    assert series_1 == series_2
    assert diff_1 == diff_2


# numpy names new in 2.0: the package supports numpy >= 1.24, which has none of them
NUMPY_2_NAMES = {"trapezoid", "vecdot", "cumulative_sum", "cumulative_prod", "unstack",
                 "isdtype", "concat", "permute_dims", "matrix_transpose", "astype", "pow"}


def test_the_package_calls_no_numpy_name_new_in_2_0():
    used = []
    for path in sorted(Path(warpflow.scenario.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in NUMPY_2_NAMES
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                used.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
                  and any(a.name in NUMPY_2_NAMES for a in node.names)):
                used.append(f"{path.name}:{node.lineno} from {node.module} import")
    assert used == []


def test_only_run_dir_makes_a_directory():
    # one function places and makes every run's directory, and refuses one it cannot make
    makers = []
    for path in sorted(Path(warpflow.scenario.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        defs = [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in nodes:
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("mkdir", "makedirs")):
                inner = max((d for d in defs if d.lineno <= call.lineno <= d.end_lineno),
                            key=lambda d: d.lineno, default=None)
                makers.append(f"{path.stem}.{inner.name if inner else '<module>'}")
    assert makers == ["scenario.run_dir"]
