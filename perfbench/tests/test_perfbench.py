"""Tests of the benchmark harness itself, in smoke mode (coarse h, short t_end).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _traced_child(tmp_path, workload):
    """Facts and spans of one traced smoke sample."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", "5",
           "--mode", "full", "--trace", "1", "--smoke", "--out", str(tmp_path / "out"),
           "--result", str(tmp_path / "facts.json"), "--spans", str(tmp_path / "spans.json")]
    subprocess.run(cmd, env=run.child_env(tmp_path), cwd=tmp_path, check=True, timeout=120)
    facts = json.loads((tmp_path / "facts.json").read_text())
    return facts, json.loads((tmp_path / "spans.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_and_reports_declared_metrics(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke"])
    result = _last_json(capsys.readouterr().out)
    assert rc == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in result["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_root_span(tmp_path, workload):
    _, sp = _traced_child(tmp_path, workload)
    root = next(i for i, s in enumerate(sp) if s[0] == "bench.run")
    inside = [False] * len(sp)
    inside[root] = True
    for i, s in enumerate(sp):
        if s[3] >= 0 and inside[s[3]]:
            inside[i] = True
    selfs = spans.self_times(sp)
    total = sum(t for t, keep in zip(selfs, inside) if keep)
    assert total == pytest.approx(sp[root][2] - sp[root][1], rel=1e-9, abs=1e-9)
    assert min(selfs) > -1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_match_solver_stats(tmp_path, workload):
    facts, sp = _traced_child(tmp_path, workload)
    layers = spans.layer_metrics(sp)
    assert workloads.cross_check(layers, facts["stats"]) == []
    assert layers["elliptic.step_cg.calls"] > 0
    assert layers["flow.step.calls"] >= layers["flow.step.rejected"] + 1
    if workload == "twin_fine":
        assert layers["boundary.BoundaryData.build.calls"] == 2
        assert layers["mesh.local_energy_matrix.nnz"] == 0
    else:
        assert layers["diagnostics.energy_functionals.calls"] > 0


def test_cross_check_reports_a_mismatch():
    layers = {"elliptic.step_cg.iters": 10, "flow.step.rejected": 1,
              "elliptic.solve_warped_laplace.iters": 0}
    stats = {"step_iterations": 11, "rejected_steps": 1, "elliptic_iterations": 0}
    bad = workloads.cross_check(layers, stats)
    assert len(bad) == 1 and "step_iterations" in bad[0]


def test_wrappers_sit_on_rebound_imports(tmp_path):
    code = (
        "import spans, warpflow.flow as f, warpflow.elliptic as e, warpflow.scenario as s, "
        "warpflow.diagnostics as d, warpflow.mesh as m\n"
        "spans.Tracer().install()\n"
        "assert f.cg_solve.__wrapped__ is e.cg_solve.__wrapped__\n"
        "assert f.cg_solve is not e.cg_solve\n"
        "assert f.solve_warped_laplace is e.solve_warped_laplace\n"
        "assert s.run_flow is f.run_flow and hasattr(s.run_flow, '__wrapped__')\n"
        "assert d.tri_energy_density is m.tri_energy_density\n"
        "assert hasattr(d.tri_energy_density, '__wrapped__')\n")
    env = run.child_env(tmp_path)
    env["PYTHONPATH"] = str(HERE) + os.pathsep + env["PYTHONPATH"]
    subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                   timeout=60)


def test_failing_output_check_raises_failed_frac(monkeypatch, capsys):
    meta = run.load_meta()
    ref = meta["reference"]["warp_coupled_fine"]["smoke"]
    ref["E_g"] *= 2.0
    monkeypatch.setattr(run, "load_meta", lambda: meta)
    rc = run.main(["--workload", "warp_coupled_fine", "--seed", "0", "--seconds", "0",
                   "--trace", "0", "--smoke"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert rc == 1 and result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert "FAILED CHECK: final E_g" in out


@pytest.mark.parametrize("facts,needle", [
    ({"error": "full sample exited 3"}, "exited 3"),
    ({"run_s": 1.0, "exit_code": 2, "check_rc": 0, "events": [[0.0, 0.0]],
      "E_g": 1.0, "E_u": 1.0}, "exit code 2"),
    ({"run_s": 1.0, "exit_code": 0, "check_rc": 2, "events": [[0.0, 0.0]],
      "E_g": 1.0, "E_u": 1.0}, "check_report_file"),
    ({"run_s": 1.0, "exit_code": 0, "check_rc": 0, "events": [[0.3, 0.0]],
      "E_g": 1.0, "E_u": 1.0}, "one event"),
    ({"run_s": 1.0, "exit_code": 0, "check_rc": 0, "events": [[0.0, 0.0], [0.5, 0.5]],
      "E_g": 1.0, "E_u": 1.0}, "one event"),
])
def test_bubbling_checks_flag_bad_outputs(facts, needle):
    reference = {"rtol": 0.01, "bubbling": {"full": {"E_g": 1.0, "E_u": 1.0}}}
    bad = workloads.check_sample("bubbling", facts, reference, smoke=False)
    assert any(needle in b for b in bad)


@pytest.mark.parametrize("initial_diff,amp", [(0.0, 1.0), (1e-4, float("nan")),
                                              (1e-4, 2.5)])
def test_twin_checks_flag_bad_outputs(initial_diff, amp):
    facts = {"run_s": 1.0, "initial_diff": initial_diff, "amplification": amp}
    assert workloads.check_sample("twin_fine", facts, {}, smoke=False)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) == (None, None)
    p, v = run.tail([float(i) for i in range(20)])
    assert p == 50.0 and v == pytest.approx(9.5)


def test_benchmark_needs_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bubbling",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_outputs_differing_between_samples_fail(monkeypatch):
    digests, walls = iter("aab"), iter([0.0, 0.0, 1.0])

    def fake_child(work, workload, seed, mode, trace, smoke, deadline):
        return {"run_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 1.0, "wall": next(walls),
                "initial_diff": 1e-4, "amplification": 1.0, "digest": next(digests)}

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "MAX_SETUP_SAMPLES", 0)
    outcome = run.measure("twin_fine", 0, seconds=0.5, trace=False)
    assert [len(b) for b in outcome["failures"]] == [0, 0, 1]
    assert "differs" in outcome["failures"][2][0]
