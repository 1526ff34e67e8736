"""Randomized robustness properties of the config parser and the `run` and
`twin` commands.

Every config the CLI accepts or refuses must end in one of its exit codes
(0 ok, 1 config error, 2 failed check, 3 solver error), never in an uncaught
exception, and `twin` must refuse exactly the configs `run` refuses, as must
a `run` of another config and it, before the other runs; every report a run
writes must hold only finite record numbers, `warpflow check` on it must
return that run's exit code, and a run that exits 0 must fail no hard check.
Examples are derandomized, so a failure reproduces.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from warpflow.cli import main  # noqa: E402
from warpflow.errors import ConfigParseError  # noqa: E402
from warpflow.scenario import _KEYS, parse_config_text  # noqa: E402

SETTINGS = dict(derandomize=True, max_examples=30, deadline=None, database=None)

_LINE = st.one_of(
    st.text(max_size=40),
    st.builds(lambda k, sep, v: f"{k}{sep}{v}",
              st.sampled_from(sorted(_KEYS) + ["bogus", ""]),
              st.sampled_from([" = ", "=", " ", "==", " = # "]),
              st.text(max_size=20)))


@settings(**SETTINGS)
@given(st.lists(_LINE, max_size=8).map("\n".join))
def test_any_text_parses_or_is_a_config_error(text):
    try:
        flat = parse_config_text(text)
    except ConfigParseError:
        return
    assert isinstance(flat, dict)
    assert set(flat) <= _KEYS.keys()


# small value sets per key, valid ones first, then zero, negative, non-finite,
# tuple-valued and unknown entries
_VALUES = {
    "target": ["sphere", "torus", "klein"],
    "mesh.shape": ["square", "disk", "annulus", "hexagon"],
    "mesh.r_in": ["0.5", "0", "-1", "2"],
    "mesh.r_out": ["1", "0.5", "nan"],
    "warp.kind": ["constant", "linear_height", "sinusoidal", "cubic"],
    "warp.a": ["1", "2", "0", "-1", "nan"],
    "warp.b": ["0", "0.5", "3", "inf"],
    "boundary.phi": ["north_pole", "equator_circle kappa=1", "constant value=0,0",
                     "equator_circle kappa=1,2", "constant value=0,0,2", "corotational",
                     "bogus"],
    "boundary.phi0": ["harmonic", "north_pole", "sine_bump amplitude=0.1",
                      "inv_stereographic rho=0.1 center=0.5,0.5",
                      "inv_stereographic rho=0.1 center=1,2,3",
                      "constant value=1e200,0,0", "sine_bump amplitude=inf",
                      "constant value=1e300,0", "bogus"],
    "boundary.psi": ["constant value=0", "linear_x scale=1", "cos_theta",
                     "linear_x scale=1,2", "constant value=nan", "bogus"],
    "stepper.sigma": ["0.2", "0.5", "0", "-0.1", "nan", "1e-300"],
    "stepper.theta": ["0.5", "1", "0.3", "nan"],
    "stepper.max_move_fraction": ["0.1", "1", "0", "-1", "nan"],
    "thresholds.energy": ["1", "0.01", "0", "-1", "nan"],
    "thresholds.r_detect": ["0.1", "0.05", "0", "-0.1", "nan"],
    "thresholds.r_grid": ["0.1,0.2", "0.1", "0", "-0.1", "nan", "a,b"],
    "thresholds.persist_frames": ["1", "3", "0", "-2", "x"],
    "schedule.diag_stride": ["1", "2", "0", "-1"],
    "schedule.snapshot_stride": ["0", "1", "-1"],
    "twin.delta": ["0.001", "nan"],
    "name": ["plain", "a\0b", "a/b", "..", "a" * 300],
}
# mesh.h and schedule.t_end are always set, so every run stays coarse and
# short, and so is seed, which only twin reads
_H = ["0.125", "0.25", "0.5", "1", "0", "nan"]
_T_END = ["0.005", "0.01", "0", "nan", "1e-14", "1e-15"]
_SEED = ["0", "1", "-1", "x"]


def _numbers(value):
    """Every number nested in a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)):
        yield value


@st.composite
def _configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True, max_size=6))
    lines = [f"{k} = {draw(st.sampled_from(_VALUES[k]))}" for k in keys]
    lines.append(f"mesh.h = {draw(st.sampled_from(_H))}")
    lines.append(f"schedule.t_end = {draw(st.sampled_from(_T_END))}")
    lines.append(f"seed = {draw(st.sampled_from(_SEED))}")
    return "\n".join(lines) + "\n"


@settings(**SETTINGS)
@given(_configs())
def test_random_config_runs_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "random.cfg"
        cfg.write_text(text)
        rc = main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
        assert rc in (0, 1, 2, 3)
        # a written report holds finite records and re-derives to the run's
        # own verdict; an exit-0 run fails no hard check
        for report in Path(tmp).glob("out/**/report.json"):
            payload = json.loads(report.read_text())
            assert all(math.isfinite(x) for x in _numbers(payload["records"]))
            assert main(["check", str(report)]) == rc
            if rc == 0:
                assert all(c["passed"] for c in payload["checks"] if c["hard"])
        twin_rc = main(["twin", str(cfg), "--out", str(Path(tmp) / "twin")])
        assert twin_rc in (0, 1, 3)
        assert (twin_rc == 1) == (rc == 1)


# the keys a run's set-up reads, with values that mostly pass the reading, so
# that some configs are refused only once the mesh exists: a trace off the
# target, or an initial map the target cannot take
_SETUP_VALUES = {
    "target": ["sphere", "torus"],
    "mesh.shape": ["square", "disk"],
    "boundary.phi": ["north_pole", "equator_circle kappa=1", "constant value=0,0",
                     "constant value=0,0,0", "constant value=0,0,2"],
    "boundary.phi0": ["harmonic", "sine_bump amplitude=0.1", "sine_bump amplitude=100",
                      "constant value=1e300,0"],
}


@st.composite
def _setup_configs(draw):
    lines = [f"{k} = {draw(st.sampled_from(v))}" for k, v in _SETUP_VALUES.items()]
    return "\n".join(lines + ["mesh.h = 0.25", "schedule.t_end = 0.005"]) + "\n"


@settings(**SETTINGS)
@given(_setup_configs())
def test_a_config_run_refuses_stops_a_run_of_several_before_any_runs(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "random.cfg"
        cfg.write_text(text)
        if main(["run", str(cfg), "--out", str(Path(tmp) / "alone")]) == 1:
            out = Path(tmp) / "pair"
            assert main(["run", "harmonic_fixed_point", str(cfg), "--out", str(out)]) == 1
            assert not out.exists()
