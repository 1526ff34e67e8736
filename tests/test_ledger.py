import copy
import importlib.util
import json
from pathlib import Path

LEDGER_PY = Path(__file__).resolve().parent.parent / "tools" / "ledger.py"


def _ledger_module():
    spec = importlib.util.spec_from_file_location("ledger", LEDGER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD = {
    "machine": {"cpu": "cpu A", "python": "3.11", "numpy": "2.0", "scipy": "1.14"},
    "runs": {
        "heat_decay": {
            "sha256": {"series.csv": "aa", "mesh.txt": "bb", "report.json": "cc"},
            "solver_stats": {"accepted_steps": 10, "rejections.move_cap": 0},
            "exit_code": 0, "events": 0,
            "columns": {"t": [0.0, 0.1], "E_u": [1.0, 2.0]}},
        "stability_twin_seed0": {
            "sha256": {"times": "dd", "diffs": "ee"},
            "solver_stats": {"step_iterations": 50}, "steps": 12},
    },
}


def test_diff_lists_every_changed_hash_count_and_column(tmp_path, capsys):
    ledger = _ledger_module()
    new = copy.deepcopy(OLD)
    new["machine"]["cpu"] = "cpu B"
    heat = new["runs"]["heat_decay"]
    heat["sha256"]["series.csv"] = "ab"
    heat["solver_stats"]["rejections.move_cap"] = 1
    heat["columns"]["E_u"] = [1.0, 2.5]
    new["runs"]["stability_twin_seed0"]["steps"] = 13
    paths = []
    for name, payload in (("old.json", OLD), ("new.json", new), ("same.json", OLD)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(payload))

    assert ledger.main(["--diff", str(paths[0]), str(paths[2])]) == 0
    assert capsys.readouterr().out == "ledgers identical\n"

    assert ledger.main(["--diff", str(paths[0]), str(paths[1])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "machine cpu: cpu A -> cpu B",
        "heat_decay sha256 series.csv: aa -> ab",
        "heat_decay solver_stats rejections.move_cap: 0 -> 1",
        "heat_decay series.csv E_u: largest relative change 0.2",
        "stability_twin_seed0 steps: 12 -> 13",
    ]

    # a column that moves while every hash and count holds is listed, not a failure
    lines, differs = ledger.diff_ledgers(OLD, {**OLD, "runs": {
        **OLD["runs"], "heat_decay": {**OLD["runs"]["heat_decay"],
                                      "columns": {"t": [0.0, 0.1], "E_u": [1.0, 2.0 + 1e-15]}}}})
    assert not differs and lines == ["heat_decay series.csv E_u: largest relative change 4.44e-16"]
