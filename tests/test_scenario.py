import json
import re
import subprocess
import sys
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
from warpflow.errors import ConfigParseError
from warpflow.flow import StepperConfig
from warpflow.scenario import (_KNOWN_KEYS, ScenarioConfig, build_scenario,
                               builtin_scenarios, check_report_file,
                               parse_config_text, resolve_config, run_scenario,
                               twin_run)

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
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_empty_value(self):
        with pytest.raises(ConfigParseError) as exc:
            parse_config_text("target =\n")
        assert exc.value.line == 1

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
        assert cfg.t_end == 0.004
        assert cfg.r_grid == (0.1, 0.2)

    def test_from_flat_r_grid(self):
        cfg = ScenarioConfig.from_flat({"thresholds.r_grid": "0.05, 0.1"})
        assert cfg.r_grid == (0.05, 0.1)
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

    def test_defaults_are_the_solver_defaults(self):
        setup = build_scenario(ScenarioConfig())
        assert setup.stepper == StepperConfig()
        assert setup.thresholds == ThresholdConfig()

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("All keys:", 1)[1].split("\n\n", 2)[1]
        documented = set()
        for row in table.splitlines()[2:]:
            documented.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
        assert documented == _KNOWN_KEYS


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


def _cached_step_keys(monkeypatch, run):
    """Run `run()`; (step-matrix keys its context cached, dt_cfl, every dt stepped)."""
    made, dts = [], []
    real_initial, real_step = warpflow.scenario.initial_state, warpflow.flow.step
    monkeypatch.setattr(warpflow.scenario, "initial_state",
                        lambda *a, **k: made.append(real_initial(*a, **k)) or made[-1])
    monkeypatch.setattr(warpflow.flow, "step",
                        lambda s, c, dt=None, **k: dts.append(dt) or real_step(s, c, dt=dt, **k))
    run()
    [state] = made
    return set(state.ctx._step_mat), state.ctx.cfl_key, dts


# heat_decay at h = 1/16 to t_end = 2.4 dt_cfl: three rejections, then a last
# step clipped to 0.4 dt_cfl
CLIPPED_RUN = {"mesh.h": "0.0625", "schedule.t_end": "0.03"}


@pytest.mark.parametrize("runner", ["run_scenario", "twin_run"])
def test_only_halvings_of_the_cfl_step_stay_cached(monkeypatch, runner):
    if runner == "run_scenario":
        def run():
            run_scenario("heat_decay", overrides=CLIPPED_RUN, write_artifacts=False)
    else:
        def run():
            twin_run("heat_decay", delta=1e-3, overrides=CLIPPED_RUN)
    keys, (dt_cfl, theta), dts = _cached_step_keys(monkeypatch, run)
    ladder = {(dt_cfl / 2 ** k, theta) for k in range(64)}
    assert dts[-1] == pytest.approx(0.4 * dt_cfl) and (dts[-1], theta) not in ladder
    assert len(keys) >= 2 and keys <= ladder


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
        payload = json.loads((out / "report.json").read_text())
        assert payload["exit_code"] == 0
        assert payload["scenario"]["name"] == "harmonic_fixed_point"
        assert len(payload["records"]) == len(res.report.records)
        assert {c["name"] for c in payload["checks"]} >= {
            "energy_monotonicity", "dirichlet_bound_u"}

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

    def test_overrides_and_kwargs(self, tmp_path):
        res = run_scenario("heat_decay", out_dir=tmp_path / "o",
                           overrides={"schedule.t_end": "0.01"}, h=0.125,
                           t_end=0.002)
        assert res.config.mesh_h == 0.125
        assert res.config.t_end == 0.002       # kwarg wins over override
        assert res.state.t == pytest.approx(0.002, abs=1e-12)

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
        res = twin_run("heat_decay", delta=0.0,
                       overrides={"mesh.h": "0.0625", "schedule.t_end": "0.01"})
        assert res.initial_diff == 0.0
        assert res.sup_diff == 0.0
        assert res.final_diff == 0.0
        assert res.amplification == 0.0

    def test_zero_delta_stays_identical_across_the_factored_step(self):
        # warp_coupled accepts its CFL step at t = 0 and takes it again later:
        # both members must move from CG to the one factor at the same step
        res = twin_run("warp_coupled", delta=0.0,
                       overrides={"mesh.h": "0.0625", "schedule.t_end": "0.05"})
        assert len(res.times) > 2
        assert res.sup_diff == 0.0

    def test_small_perturbation_is_stable(self):
        overrides = {"mesh.h": "0.0625", "schedule.t_end": "0.01"}
        res = twin_run("heat_decay", delta=1e-3, overrides=overrides)
        assert 0.0 < res.initial_diff <= 1e-3 + 1e-12
        assert res.amplification <= 2.0
        assert res.sup_diff <= 2e-3
        assert len(res.times) == len(res.diffs)
        half = twin_run("heat_decay", delta=5e-4, overrides=overrides)
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

    def test_times_match_run_flow_records(self):
        overrides = {"mesh.h": "0.0625", "schedule.t_end": "0.01",
                     "schedule.diag_stride": "1"}
        twin = twin_run("heat_decay", delta=0.0, overrides=overrides)
        run = run_scenario("heat_decay", overrides=overrides, write_artifacts=False)
        assert twin.times == [r.t for r in run.report.records]
        assert twin.underflow_times == run.report.underflow_times == []

    def test_underflow_is_recorded_and_survived(self):
        t_end = 3.0 * StepperConfig().dt_min(0.0625)
        overrides = {"mesh.h": "0.0625", "schedule.t_end": repr(t_end),
                     "stepper.max_move_fraction": "1e-9"}
        res = twin_run("heat_decay", delta=1e-3, overrides=overrides)
        assert res.underflow_times
        assert res.underflow_times[0] == 0.0
        assert res.times[-1] >= t_end - 1e-14
        assert len(res.times) == len(res.diffs)
        zero = twin_run("heat_decay", delta=0.0, overrides=overrides)
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
        twin_run("bubbling", delta=1e-3,
                 overrides={"mesh.h": "0.0625", "schedule.t_end": "0.001"})
        assert len(made) == 1 and len(built) == 1
        assert all(ctx is made[0] for ctx in calls)
        stats = made[0].stats
        assert stats["rejected_steps"] > 0
        assert stats["accepted_steps"] + stats["rejected_steps"] == len(calls)


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


class TestCheckReportFile:
    def _fresh_report(self, tmp_path) -> Path:
        out = tmp_path / "run"
        run_scenario("heat_decay", out_dir=out, h=0.125, t_end=0.004)
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
        res = run_scenario("bubbling", out_dir=out, h=0.0625, t_end=0.004)
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
        assert "persistent vertices" in capsys.readouterr().out

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

    def _check_malformed(self, path, capsys):
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("malformed report:")

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
                probes = next(iter(rec["ball_probes"].values()))
                probes[next(iter(probes))] = float("nan")
            else:
                rec[field] = float("nan")
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**bubbling_report, "records": records}))
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

    def test_run_parallel_jobs(self, tmp_path):
        out = tmp_path / "multi"
        code = main(["run", "harmonic_fixed_point", "heat_decay",
                     "--out", str(out), "--jobs", "2", "--t-end", "0.002"])
        assert code == 0
        assert (out / "harmonic_fixed_point" / "series.csv").exists()
        assert (out / "heat_decay" / "series.csv").exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "no_such_scenario"]) == 1
        assert "config error" in capsys.readouterr().err

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
        "boundary.phi = constant value=0,0,2", "schedule.t_end = 0",
        "stepper.max_move_fraction = 0", "thresholds.r_grid = 0.1,-0.2",
        "boundary.phi = equator_circle kapa=3", "boundary.phi0 = harmonic rho=0.1",
        "boundary.psi = linear_x scael=2", "boundary.phi0 = sine_bump amplitude=0.1",
        "stepper.scheme = semi_implicit", "output.formats = csv,json"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"target = sphere\n{line}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--h", "--t-end"])
    def test_non_finite_override_is_config_error(self, tmp_path, capsys, flag):
        assert main(["run", "heat_decay", flag, "nan", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    def test_non_finite_twin_delta_is_config_error(self, tmp_path, capsys):
        assert main(["twin", "stability_twin", "--delta", "nan",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    def test_check_exit_codes(self, tmp_path):
        out = tmp_path / "for_check"
        run_scenario("heat_decay", out_dir=out, h=0.125, t_end=0.004)
        report = out / "report.json"
        assert main(["check", str(report)]) == 0
        payload = json.loads(report.read_text())
        payload["records"][-1]["e_u"] = 1e6
        report.write_text(json.dumps(payload))
        assert main(["check", str(report)]) == 2

    def test_twin_writes_report(self, tmp_path):
        out = tmp_path / "twin_out"
        code = main(["twin", "stability_twin", "--delta", "0", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "twin_report.json").read_text())
        assert payload["sup_diff"] == 0.0

    def test_module_runs_in_subprocess(self, tmp_path):
        out = tmp_path / "sub"
        code = ("import sys; from warpflow.cli import main; "
                f"sys.exit(main(['run', 'harmonic_fixed_point', '--out', {str(out)!r}]))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
