"""Variable-coefficient elliptic solves: -div(beta grad v) = f, v = psi on the boundary.

Dirichlet conditions are imposed by elimination in `dirichlet_split` (never
by penalty): the interior block A_II is solved by diagonally preconditioned
conjugate gradients to relative tolerance 1e-10 with an iteration cap of
50 * sqrt(#unknowns), and boundary rows carry the data exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg as _scipy_cg

from .errors import DegenerateBoundaryData, SolverFailure
from .mesh import DomainMesh, assemble_weighted_stiffness

CG_RTOL = 1e-10


@dataclass
class EllipticSolution:
    v: np.ndarray
    rel_residual: float
    iterations: int


def cg_solve(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray = None,
             rtol: float = CG_RTOL, maxiter: int = None):
    """Jacobi-preconditioned CG; returns (x, rel_residual, iterations).

    SolverFailure if the cap is hit before the tolerance.
    """
    n = b.shape[0]
    if n == 0:
        return np.zeros(0), 0.0, 0
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0
    if maxiter is None:
        maxiter = max(100, int(50 * math.sqrt(n)))
    diag = A.diagonal()
    M = sp.diags(np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 1.0))
    count = [0]

    def _cb(_):
        count[0] += 1

    x, info = _scipy_cg(A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter,
                        M=M, callback=_cb)
    rel = float(np.linalg.norm(b - A @ x)) / bnorm
    if info > 0 and rel > rtol * 10:
        raise SolverFailure(
            f"CG stalled at relative residual {rel:.3e} after {count[0]} iterations")
    return x, rel, count[0]


def dirichlet_split(mesh: DomainMesh, K: sp.csr_matrix, boundary_values: np.ndarray):
    """(K_II, (K g)_I, g) for g = boundary_values on boundary rows, 0 inside.

    g is (nv,) or (nv, d); (K g)_I is the load the data put on interior rows.
    """
    I = mesh.interior
    bv = np.asarray(boundary_values, dtype=float)
    g = np.zeros(bv.shape)
    g[mesh.boundary] = bv[mesh.boundary]
    return K[I][:, I].tocsr(), (K @ g)[I], g


def solve_dirichlet(mesh: DomainMesh, K: sp.csr_matrix, boundary_values: np.ndarray,
                    load: np.ndarray = None, x0: np.ndarray = None):
    """Solve K v = load with v = boundary_values on boundary rows, by elimination.

    (nv, d) data is solved per column; returns (v, max residual, total iterations).
    """
    I = mesh.interior
    A_II, coupling, v = dirichlet_split(mesh, K, boundary_values)
    cols = v.reshape(len(v), -1)                  # a view: columns write into v
    rhs = ((0.0 if load is None else np.asarray(load, dtype=float)[I]) - coupling
           ).reshape(len(I), -1)
    guess = None if x0 is None else np.asarray(x0, dtype=float)[I].reshape(len(I), -1)
    rel, iters = 0.0, 0
    for d in range(cols.shape[1]):
        cols[I, d], r, n = cg_solve(A_II, rhs[:, d],
                                    x0=None if guess is None else guess[:, d])
        rel, iters = max(rel, r), iters + n
    return v, rel, iters


def solve_warped_laplace(mesh: DomainMesh, beta_vertex: np.ndarray,
                         psi: np.ndarray, source: np.ndarray = None,
                         x0: np.ndarray = None) -> EllipticSolution:
    """Weak P1 solution of -div(beta grad v) = f with trace psi.

    `psi` is a full-length nodal array whose boundary entries carry the data;
    `source` (optional) is a nodal density, integrated with the lumped mass.
    """
    K = assemble_weighted_stiffness(mesh, beta_vertex)
    load = None if source is None else mesh.lumped_mass * np.asarray(source, dtype=float)
    v, rel, iters = solve_dirichlet(mesh, K, psi, load=load, x0=x0)
    return EllipticSolution(v=v, rel_residual=rel, iterations=iters)


def harmonic_extension(mesh: DomainMesh, trace: np.ndarray) -> np.ndarray:
    """Componentwise discrete harmonic extension of boundary data.

    `trace` is full-length nodal data, (nv,) or (nv, d); only boundary rows
    are read.  Linear boundary data is reproduced exactly.
    """
    return solve_dirichlet(mesh, mesh.stiffness, trace)[0]


def gradient_norm_probe(mesh: DomainMesh, v: np.ndarray, psi_ext: np.ndarray,
                        p: float) -> float:
    """Ratio integral |grad v|^p / integral |grad psi_ext|^p (p >= 2).

    Piecewise-constant gradients, exact per-triangle quadrature.  Emits
    DegenerateBoundaryData when the reference energy vanishes but the
    numerator does not.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    num = float(np.sum(mesh.areas * mesh.tri_grad_sq(v) ** (p / 2.0)))
    den = float(np.sum(mesh.areas * mesh.tri_grad_sq(psi_ext) ** (p / 2.0)))
    if den == 0.0:
        if num < 1e-14:
            return 0.0
        raise DegenerateBoundaryData("reference boundary data has zero gradient")
    return num / den
