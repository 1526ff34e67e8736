"""In-memory spans around warpflow's public functions, and the per-layer metrics.

A span is ``(name, start, end, parent, value, error)``: ``parent`` is the
index of the enclosing span (-1 for none), ``value`` a count taken from the
return value (CG iterations, matrix nonzeros) or None, and ``error`` the
exception class name when the call raised.  Spans stay in a list until the
run ends; ``Tracer.dump`` then writes them out in one piece.

The wrappers are installed from outside the package: every public function
of each module is replaced on its module and on every module that re-bound
it with ``from .x import f`` (``warpflow.flow.cg_solve``,
``warpflow.scenario.run_flow``, ...), and a few hot methods are replaced on
their classes.  ``cg_solve`` as bound in ``warpflow.flow`` is the theta-step
solve and gets its own name, ``elliptic.step_cg``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ("mesh", "elliptic", "boundary", "geometry", "diagnostics", "flow",
           "scenario")

# (module, class, method, span name)
METHODS = [
    ("mesh", "DomainMesh", "tri_gradients", "mesh.tri_gradients"),
    ("mesh", "DomainMesh", "tri_grad_sq", "mesh.tri_grad_sq"),
    ("mesh", "DomainMesh", "nodal_from_tri", "mesh.nodal_from_tri"),
    ("mesh", "DomainMesh", "laplacian", "mesh.laplacian"),
    ("mesh", "BallIndex", "build", "mesh.BallIndex.build"),
    ("boundary", "BoundaryData", "build", "boundary.BoundaryData.build"),
    ("diagnostics", "RunBounds", "from_run", "diagnostics.RunBounds.from_run"),
] + [("geometry", cls, m, f"geometry.{m}")
     for cls in ("UnitSphere", "FlatTorus")
     for m in ("project_field", "project_tangent", "curvature_force", "distance")]

# (module holding the binding, attribute) -> span name, where it differs
# from "<defining module>.<function>"
RENAMED = {("flow", "cg_solve"): "elliptic.step_cg"}

# span name -> count read off the return value
VALUES = {
    "elliptic.step_cg": lambda r: r[2],
    "elliptic.solve_warped_laplace": lambda r: r.iterations,
    "mesh.local_energy_matrix": lambda r: r.nnz,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        value_of = VALUES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx][5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if value_of is not None:
                spans[idx][4] = value_of(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package="warpflow"):
        """Wrap the package's public functions and METHODS in place."""
        pkg = importlib.import_module(package)
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        holders = [pkg] + list(mods.values())
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                default = f"{short}.{attr}"
                wrappers = {}
                for holder in holders:
                    for bound_as, obj in list(vars(holder).items()):
                        if obj is not fn:
                            continue
                        where = holder.__name__.rpartition(".")[2]
                        name = RENAMED.get((where, bound_as), default)
                        if name not in wrappers:
                            wrappers[name] = self.wrap(name, fn)
                        setattr(holder, bound_as, wrappers[name])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, meth, type(raw)(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, value sum, errors."""
    selfs = self_times(spans)
    out = {}
    for i, (name, start, end, parent, value, error) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "value": 0, "errors": {}})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        # inclusive time counts only the outermost span of a name
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
        if value is not None:
            row["value"] += value
        if error is not None:
            row["errors"][error] = row["errors"].get(error, 0) + 1
    return out


def layer_metrics(spans):
    """The per-layer metrics of one traced run, keyed by metric name."""
    rows = summarize(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "errors": {}}

    def row(name):
        return rows.get(name, empty)

    m = {}
    for name in ("scenario.build_scenario", "scenario.write_series_csv",
                 "scenario.check_report_file", "mesh.build_mesh",
                 "mesh.local_energy_matrix", "mesh.assemble_weighted_stiffness",
                 "mesh.dump_mesh", "boundary.boundary_data_from_presets",
                 "elliptic.step_cg", "elliptic.solve_warped_laplace",
                 "elliptic.harmonic_extension", "geometry.project_field",
                 "geometry.curvature_force", "geometry.warp_force",
                 "flow.initial_state", "flow.tension_residual",
                 "diagnostics.energy_functionals", "diagnostics.singularity_detect",
                 "diagnostics.inequality_suite", "diagnostics.convergence_monitor",
                 "diagnostics.report_to_dict"):
        m[f"{name}.s"] = row(name)["s"]
    for name in ("scenario.run_scenario", "scenario.twin_run", "mesh.tri_gradients",
                 "mesh.nodal_from_tri", "flow.step", "flow.run_flow"):
        m[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("mesh.tri_gradients", "mesh.nodal_from_tri",
                 "mesh.assemble_weighted_stiffness", "boundary.BoundaryData.build",
                 "elliptic.step_cg", "elliptic.solve_warped_laplace", "flow.step",
                 "diagnostics.energy_functionals"):
        m[f"{name}.calls"] = row(name)["calls"]
    m["mesh.local_energy_matrix.nnz"] = row("mesh.local_energy_matrix")["value"]
    m["elliptic.step_cg.iters"] = row("elliptic.step_cg")["value"]
    m["elliptic.solve_warped_laplace.iters"] = row("elliptic.solve_warped_laplace")["value"]
    calls = m["elliptic.step_cg.calls"]
    m["elliptic.step_cg.iters_per_call"] = m["elliptic.step_cg.iters"] / calls if calls else 0.0
    step = row("flow.step")
    m["flow.step.rejected"] = step["errors"].get("StepRejected", 0)
    m["flow.step.accept_ratio"] = ((step["calls"] - m["flow.step.rejected"]) / step["calls"]
                                   if step["calls"] else 0.0)
    return m
