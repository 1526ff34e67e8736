"""Boundary and initial data: analytic presets and precomputed extensions.

BoundaryData freezes everything the flow and diagnostics need about the data:
the map trace phi, the initial map phi0 (on the target, agreeing with phi on
the boundary exactly), the potential trace psi, the componentwise harmonic
extensions of both traces, and the reference energies entering the a priori
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import harmonic_extension
from .errors import ConfigParseError
from .mesh import DomainMesh, dirichlet_energy
from .geometry import UnitSphere


@dataclass
class BoundaryData:
    mesh: DomainMesh
    phi: np.ndarray        # (nv, K); boundary rows are the trace of u
    phi0: np.ndarray       # (nv, K); initial map, on target, phi0|bnd == phi|bnd
    psi: np.ndarray        # (nv,);  boundary rows are the trace of v
    phi_ext: np.ndarray = field(default=None, repr=False)
    psi_ext: np.ndarray = field(default=None, repr=False)
    energy_phi0: float = 0.0
    energy_psi_ext: float = 0.0
    grad4_psi_ext: float = 0.0
    phi_c2_proxy: float = 0.0

    @classmethod
    def build(cls, mesh: DomainMesh, target, phi_vals: np.ndarray,
              phi0_vals: np.ndarray, psi_vals: np.ndarray,
              phi_ext: np.ndarray = None, psi_ext: np.ndarray = None) -> "BoundaryData":
        """Freeze the data; pass `phi_ext` / `psi_ext`, the harmonic extensions of
        phi_vals / psi_vals, when they are known."""
        phi = np.asarray(phi_vals, dtype=float)
        phi0 = target.project_field(np.asarray(phi0_vals, dtype=float))
        phi0[mesh.boundary] = phi[mesh.boundary]
        psi = np.asarray(psi_vals, dtype=float)
        bd = cls(mesh=mesh, phi=phi, phi0=phi0, psi=psi)
        bd.phi_ext = harmonic_extension(mesh, phi) if phi_ext is None else phi_ext
        bd.psi_ext = harmonic_extension(mesh, psi) if psi_ext is None else psi_ext
        bd.energy_phi0 = dirichlet_energy(mesh, phi0)
        bd.energy_psi_ext = dirichlet_energy(mesh, bd.psi_ext)
        g2 = mesh.tri_grad_sq(bd.psi_ext)
        bd.grad4_psi_ext = float(np.sum(mesh.areas * g2 * g2))
        bd.phi_c2_proxy = cls._c2_proxy(mesh, bd.phi_ext)
        return bd

    @staticmethod
    def _c2_proxy(mesh: DomainMesh, phi_ext: np.ndarray) -> float:
        # sup |phi| + sup |grad phi| + sup |D^2 phi| with the second-derivative
        # part replaced by the lumped discrete Laplacian (documented proxy).
        sup0 = float(np.max(np.linalg.norm(phi_ext, axis=1)))
        sup1 = float(np.sqrt(np.max(mesh.tri_grad_sq(phi_ext))))
        lap = mesh.laplacian(phi_ext)
        sup2 = float(np.max(np.linalg.norm(lap, axis=1)))
        return sup0 + sup1 + sup2


# -- analytic presets -------------------------------------------------------
#
# A preset spec is "name key=value key=value ...", values are floats or
# comma-separated float tuples.  Map presets depend on the target manifold.

def _parse_params(tokens):
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigParseError(f"malformed preset parameter {tok!r}")
        key, val = tok.split("=", 1)
        parts = val.split(",")
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigParseError(f"non-numeric preset parameter {tok!r}") from exc
        params[key] = nums[0] if len(nums) == 1 else tuple(nums)
    return params


def _param(params, key, default):
    """params[key] or the default; it must be shaped like the default."""
    val = params.get(key, default)
    if np.shape(val) != np.shape(default):
        want = "one number" if np.ndim(default) == 0 else f"{len(default)} numbers"
        raise ConfigParseError(f"preset parameter {key!r} needs {want}, got {val!r}")
    return val


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
    tokens = spec.split()
    if not tokens:
        raise ConfigParseError("empty map preset")
    name, params = tokens[0], _parse_params(tokens[1:])
    n = xy.shape[0]
    K = target.embedding_dim

    if name == "constant":
        return np.tile(np.asarray(_param(params, "value", (0.0,) * K), dtype=float), (n, 1))

    if name == "north_pole":
        if K != 3:
            raise ConfigParseError("north_pole preset needs the 2-sphere target")
        out = np.zeros((n, 3))
        out[:, 2] = 1.0
        return out

    if name == "equator_circle":
        if K != 3:
            raise ConfigParseError("equator_circle preset needs the 2-sphere target")
        kappa = _param(params, "kappa", 1.0)
        phase = _param(params, "phase", 0.0)
        ang = kappa * xy[:, 0] + phase
        return np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n)])

    if name == "sine_bump":
        amp = _param(params, "amplitude", 0.1)
        out = np.zeros((n, K))
        out[:, 0] = amp * np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
        return out

    if name == "inv_stereographic":
        if K != 3:
            raise ConfigParseError("inv_stereographic preset needs the 2-sphere target")
        rho = _param(params, "rho", 0.1)
        center = np.asarray(_param(params, "center", (0.0, 0.0)), dtype=float)
        rel = xy - center
        r = np.linalg.norm(rel, axis=1)
        return _corotational(rel, _bubble_profile(r, rho))

    if name == "corotational":
        if K != 3:
            raise ConfigParseError("corotational preset needs the 2-sphere target")
        amp = _param(params, "amplitude", 0.5)
        r = np.linalg.norm(xy, axis=1)
        return _corotational(xy, amp * np.sin(np.pi * r))

    raise ConfigParseError(f"unknown map preset {name!r}")


def evaluate_scalar_preset(spec: str, xy: np.ndarray) -> np.ndarray:
    """Evaluate a named scalar preset (potential trace) at the points xy."""
    tokens = spec.split()
    if not tokens:
        raise ConfigParseError("empty scalar preset")
    name, params = tokens[0], _parse_params(tokens[1:])

    if name == "constant":
        return np.full(xy.shape[0], _param(params, "value", 0.0))
    if name == "linear_x":
        return _param(params, "scale", 1.0) * xy[:, 0]
    if name == "linear_y":
        return _param(params, "scale", 1.0) * xy[:, 1]
    if name == "cos_theta":
        scale = _param(params, "scale", 1.0)
        theta = np.arctan2(xy[:, 1], xy[:, 0])
        return scale * np.cos(theta)
    raise ConfigParseError(f"unknown scalar preset {name!r}")


def boundary_data_from_presets(mesh: DomainMesh, target, phi_spec: str,
                               phi0_spec: str, psi_spec: str) -> BoundaryData:
    """Assemble BoundaryData from preset strings; phi0 = "harmonic" extends phi.

    ConfigParseError when the trace of phi does not lie on the target.
    """
    xy = mesh.vertices
    phi = evaluate_map_preset(phi_spec, target, xy)
    if float(np.max(target.distance(phi[mesh.boundary]))) > 1e-9:
        raise ConfigParseError(f"boundary trace {phi_spec!r} does not lie on the {target.kind}")
    ext = None
    if phi0_spec.split()[0] == "harmonic":
        ext = harmonic_extension(mesh, phi)
        if isinstance(target, UnitSphere):
            norms = np.linalg.norm(ext, axis=1)
            if np.any(norms < 1e-8):
                raise ConfigParseError(
                    "harmonic initial preset degenerates; boundary trace wraps the sphere")
        phi0 = target.project_field(ext)
    else:
        phi0 = evaluate_map_preset(phi0_spec, target, xy)
    psi = evaluate_scalar_preset(psi_spec, xy)
    return BoundaryData.build(mesh, target, phi, phi0, psi, phi_ext=ext)
