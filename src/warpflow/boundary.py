"""Boundary and initial data: analytic presets and precomputed extensions.

BoundaryData freezes everything the flow and diagnostics need about the data:
the map trace phi, the initial map phi0 (on the target, agreeing with phi on
the boundary exactly), the potential trace psi, and the componentwise
harmonic extensions of both traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import harmonic_extension
from .errors import ConfigParseError, DegeneratePoint
from .mesh import DomainMesh


@dataclass
class BoundaryData:
    mesh: DomainMesh
    phi: np.ndarray        # (nv, K); boundary rows are the trace of u
    phi0: np.ndarray       # (nv, K); initial map, on target, phi0|bnd == phi|bnd
    psi: np.ndarray        # (nv,);  boundary rows are the trace of v
    phi_ext: np.ndarray = field(default=None, repr=False)
    psi_ext: np.ndarray = field(default=None, repr=False)

    @classmethod
    def build(cls, mesh: DomainMesh, target, phi_vals: np.ndarray,
              phi0_vals: np.ndarray, psi_vals: np.ndarray) -> "BoundaryData":
        """Freeze the data; phi0 is phi0_vals projected onto the target, or
        with phi0_vals None the harmonic extension of phi_vals projected once."""
        phi = np.asarray(phi_vals, dtype=float)
        phi_ext = harmonic_extension(mesh, phi)
        phi0 = target.project_field(
            phi_ext if phi0_vals is None else np.asarray(phi0_vals, dtype=float))
        phi0[mesh.boundary] = phi[mesh.boundary]
        psi = np.asarray(psi_vals, dtype=float)
        return cls(mesh=mesh, phi=phi, phi0=phi0, psi=psi, phi_ext=phi_ext,
                   psi_ext=harmonic_extension(mesh, psi))


# -- analytic presets -------------------------------------------------------
#
# A preset spec is "name key=value key=value ...", values are floats or
# comma-separated float tuples.  Map presets depend on the target manifold.
# Each preset reads its parameters with `_param`, which pops them, so a name
# left over afterwards is a parameter the preset does not know.

def _parse_spec(spec: str, kind: str):
    tokens = spec.split()
    if not tokens:
        raise ConfigParseError(f"empty {kind} preset")
    params = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigParseError(f"malformed preset parameter {tok!r}")
        key, val = tok.split("=", 1)
        parts = val.split(",")
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigParseError(f"non-numeric preset parameter {tok!r}") from exc
        params[key] = nums[0] if len(nums) == 1 else tuple(nums)
    return tokens[0], params


def _param(params, key, default):
    """Pop params[key], or the default; it must be shaped like the default."""
    val = params.pop(key, default)
    if np.shape(val) != np.shape(default):
        want = "one number" if np.ndim(default) == 0 else f"{len(default)} numbers"
        raise ConfigParseError(f"preset parameter {key!r} needs {want}, got {val!r}")
    return val


def _no_unknown_params(name, params):
    if params:
        raise ConfigParseError(
            f"unknown parameter(s) {', '.join(sorted(params))} for preset {name!r}")


def _bubble_profile(r: np.ndarray, rho: float) -> np.ndarray:
    # Colatitude of the degree-1 bubble, tapered to vanish at |x| = 1 so the
    # trace is exactly the north pole on the unit-disk rim.
    ang = np.where(r > 0, 2.0 * np.arctan2(rho, np.maximum(r, 1e-300)), np.pi)
    return ang * (1.0 - r * r)


def _corotational(xy: np.ndarray, profile: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(xy, axis=1)
    theta = np.arctan2(xy[:, 1], xy[:, 0])
    sh, ch = np.sin(profile), np.cos(profile)
    return np.column_stack([sh * np.cos(theta), sh * np.sin(theta), ch])


def evaluate_map_preset(spec: str, target, xy: np.ndarray) -> np.ndarray:
    """Evaluate a named map-valued preset at the points xy; returns (n, K)."""
    name, params = _parse_spec(spec, "map")
    n = xy.shape[0]
    K = target.embedding_dim
    if name in ("north_pole", "equator_circle", "inv_stereographic", "corotational") \
            and K != 3:
        raise ConfigParseError(f"{name} preset needs the 2-sphere target")

    if name == "constant":
        out = np.tile(np.asarray(_param(params, "value", (0.0,) * K), dtype=float), (n, 1))
    elif name == "north_pole":
        out = np.zeros((n, 3))
        out[:, 2] = 1.0
    elif name == "equator_circle":
        ang = _param(params, "kappa", 1.0) * xy[:, 0] + _param(params, "phase", 0.0)
        out = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n)])
    elif name == "sine_bump":
        out = np.zeros((n, K))
        out[:, 0] = (_param(params, "amplitude", 0.1)
                     * np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1]))
    elif name == "inv_stereographic":
        rho = _param(params, "rho", 0.1)
        rel = xy - np.asarray(_param(params, "center", (0.0, 0.0)), dtype=float)
        out = _corotational(rel, _bubble_profile(np.linalg.norm(rel, axis=1), rho))
    elif name == "corotational":
        amp = _param(params, "amplitude", 0.5)
        out = _corotational(xy, amp * np.sin(np.pi * np.linalg.norm(xy, axis=1)))
    else:
        raise ConfigParseError(f"unknown map preset {name!r}")
    _no_unknown_params(name, params)
    return out


def evaluate_scalar_preset(spec: str, xy: np.ndarray) -> np.ndarray:
    """Evaluate a named scalar preset (potential trace) at the points xy."""
    name, params = _parse_spec(spec, "scalar")
    if name == "constant":
        out = np.full(xy.shape[0], _param(params, "value", 0.0))
    elif name == "linear_x":
        out = _param(params, "scale", 1.0) * xy[:, 0]
    elif name == "linear_y":
        out = _param(params, "scale", 1.0) * xy[:, 1]
    elif name == "cos_theta":
        out = _param(params, "scale", 1.0) * np.cos(np.arctan2(xy[:, 1], xy[:, 0]))
    else:
        raise ConfigParseError(f"unknown scalar preset {name!r}")
    _no_unknown_params(name, params)
    return out


def boundary_data_from_presets(mesh: DomainMesh, target, phi_spec: str,
                               phi0_spec: str, psi_spec: str) -> BoundaryData:
    """Assemble BoundaryData from preset strings; phi0 = "harmonic" extends phi.

    ConfigParseError when the trace of phi does not lie on the target, or
    the initial map cannot be projected onto it.
    """
    xy = mesh.vertices
    phi = evaluate_map_preset(phi_spec, target, xy)
    if float(np.max(target.distance(phi[mesh.boundary]))) > 1e-9:
        raise ConfigParseError(f"boundary trace {phi_spec!r} does not lie on the {target.kind}")
    psi = evaluate_scalar_preset(psi_spec, xy)
    try:
        if phi0_spec.split()[0] == "harmonic":
            _no_unknown_params("harmonic", _parse_spec(phi0_spec, "map")[1])
            phi0 = None
        else:
            phi0 = evaluate_map_preset(phi0_spec, target, xy)
        return BoundaryData.build(mesh, target, phi, phi0, psi)
    except DegeneratePoint as exc:
        raise ConfigParseError(
            f"initial map {phi0_spec!r} cannot be projected onto the {target.kind}: {exc}") from exc
