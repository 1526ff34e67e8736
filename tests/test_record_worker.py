"""run_flow's worker path: each record measured on one worker thread while
the next step runs, forced on small meshes by lowering the triangle gate."""

import math
import sys
import threading

import numpy as np
import pytest

import warpflow.flow
from brute_force import sequential_run
from warpflow.boundary import boundary_data_from_presets
from warpflow.cli import main as cli_main
from warpflow.diagnostics import ThresholdConfig
from warpflow.errors import SolverFailure
from warpflow.flow import Schedule, StepperConfig, initial_state, run_flow
from warpflow.geometry import WarpFunction, make_target

SPHERE = make_target("sphere")
TORUS = make_target("torus")


def _sphere_start(mesh):
    # a varying warp: every step re-solves the potential
    warp = WarpFunction("linear_height", 2.0, 1.0)
    bd = boundary_data_from_presets(mesh, SPHERE, "equator_circle kappa=1", "harmonic",
                                    "linear_x")
    return initial_state(mesh, SPHERE, warp, bd, StepperConfig())


def _torus_start(mesh, amp=0.1, **config):
    spec = f"sine_bump amplitude={amp}"
    bd = boundary_data_from_presets(mesh, TORUS, spec, spec, "constant value=0")
    return initial_state(mesh, TORUS, WarpFunction("constant", 1.0), bd,
                         StepperConfig(**config))


def _worker(monkeypatch, on: bool):
    monkeypatch.setattr(warpflow.flow, "RECORD_THREAD_MIN_TRIANGLES", 0 if on else 10 ** 9)


def _measured(monkeypatch):
    """A list that gains, for every record measured, the name of its thread
    and the cached fields its state held when the measure began."""
    seen = []
    real = warpflow.flow.energy_functionals

    def spy(st):
        seen.append((threading.current_thread().name, set(st.cache)))
        return real(st)
    monkeypatch.setattr(warpflow.flow, "energy_functionals", spy)
    return seen


def _failing_record(monkeypatch, at_step, exc):
    real = warpflow.flow.energy_functionals

    def fail(st):
        if st.step_count == at_step:
            raise exc
        return real(st)
    monkeypatch.setattr(warpflow.flow, "energy_functionals", fail)


def _underflow_case(mesh):
    # no trial step fits a 1e-9 h move cap: every step is a forced dt_min step
    st = _torus_start(mesh, amp=0.4, max_move_fraction=1e-9)
    return st, Schedule(t_end=3.0 * st.ctx.dt_min), ThresholdConfig()


# name -> mesh -> (a fresh start, its schedule, its thresholds)
CASES = {
    "sphere": lambda m: (_sphere_start(m), Schedule(t_end=0.03), ThresholdConfig()),
    "torus_stride_2": lambda m: (_torus_start(m), Schedule(t_end=0.02, diag_stride=2),
                                 ThresholdConfig(energy=1e-3)),
    "torus_underflow": _underflow_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_worker_records_equal_the_sequential_reference(square16, monkeypatch, case):
    ref_records, ref_points, ref_underflow, ref_stats = sequential_run(*CASES[case](square16))
    state, schedule, thr = CASES[case](square16)
    _worker(monkeypatch, True)
    seen = _measured(monkeypatch)
    formed_on = []                  # the thread of every cached field formed
    real_derived = warpflow.flow.FlowState._derived

    def derived(st, key, compute):
        if st.cache.get(key) is None:
            formed_on.append(threading.current_thread().name)
        return real_derived(st, key, compute)
    monkeypatch.setattr(warpflow.flow.FlowState, "_derived", derived)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter can
    try:
        _, rep = run_flow(state, schedule, thr)
    finally:
        sys.setswitchinterval(interval)
    # every record was measured off the main thread, on a state whose fields
    # the record reads were formed before: the worker only reads, and the
    # next step forms the forcing on the main thread
    formed = {"grad_sq_u", "grad_sq_v", "beta_tri", "stiffness_u"}
    main = threading.main_thread().name
    assert len(seen) == len(rep.records)
    for thread, cached in seen:
        assert thread != main and formed <= cached
    assert formed_on and set(formed_on) == {main}
    assert len(rep.records) == len(ref_records) > 2
    for got, want in zip(rep.records, ref_records):
        for name, value in vars(want).items():
            # floats, lists and dicts equal value for value
            assert getattr(got, name) == value, (got.step_count, name)
    assert rep.crossing_points == ref_points
    assert rep.underflow_times == ref_underflow
    assert bool(ref_underflow) == (case == "torus_underflow")
    stats = dict(rep.solver_stats)
    del stats["wall_seconds"]
    assert stats == ref_stats


def test_worker_on_and_off_give_the_same_report(square16, monkeypatch):
    reports = []
    for on in (False, True):
        _worker(monkeypatch, on)
        fin, rep = run_flow(_sphere_start(square16), Schedule(t_end=0.03))
        reports.append((fin, rep))
    (fin0, rep0), (fin1, rep1) = reports
    assert np.array_equal(fin0.u, fin1.u) and np.array_equal(fin0.v, fin1.v)
    assert rep0.records == rep1.records
    assert rep0.crossing_points == rep1.crossing_points
    assert ({k: v for k, v in rep0.solver_stats.items() if k != "wall_seconds"}
            == {k: v for k, v in rep1.solver_stats.items() if k != "wall_seconds"})


@pytest.mark.parametrize("on", [False, True])
def test_a_failing_record_keeps_its_exception_and_exit_code(tmp_path, monkeypatch, on):
    _worker(monkeypatch, on)
    before = threading.active_count()
    argv = ["run", "warp_coupled", "--h", "0.0625", "--t-end", "0.05",
            "--out", str(tmp_path / "out")]
    _failing_record(monkeypatch, 2, SolverFailure("record failed"))
    assert cli_main(argv) == 3
    _failing_record(monkeypatch, 2, FloatingPointError("record overflowed"))
    with pytest.raises(FloatingPointError, match="record overflowed"):
        cli_main(argv)
    assert threading.active_count() == before


@pytest.mark.parametrize("on", [False, True])
def test_the_record_error_wins_over_the_step_it_overlapped(square16, monkeypatch, on):
    _worker(monkeypatch, on)
    before = threading.active_count()

    class RecordError(Exception):
        pass

    _failing_record(monkeypatch, 2, RecordError("record of step 2"))
    stepped = []
    real_step = warpflow.flow.step

    def step(state, dt=None, enforce_cap=True):
        if state.step_count == 2:
            stepped.append(state.step_count)
            raise SolverFailure("step from step 2")
        return real_step(state, dt=dt, enforce_cap=enforce_cap)
    monkeypatch.setattr(warpflow.flow, "step", step)
    with pytest.raises(RecordError) as info:
        run_flow(_sphere_start(square16), Schedule(t_end=0.03))
    # the sequential path raises before the step; the worker path after it,
    # with the step's error as the context of the record's
    assert stepped == ([2] if on else [])
    assert isinstance(info.value.__context__, SolverFailure) == on
    assert threading.active_count() == before


def test_no_worker_outlives_a_run(square16, monkeypatch):
    _worker(monkeypatch, True)
    before = threading.active_count()
    fin, rep = run_flow(_torus_start(square16), Schedule(t_end=0.01))
    assert rep.records[-1].step_count == fin.step_count
    assert threading.active_count() == before
    assert math.isfinite(rep.records[-1].e_g)
