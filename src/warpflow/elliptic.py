"""Variable-coefficient elliptic solves: -div(beta grad v) = f, v = psi on the boundary.

Dirichlet conditions are imposed by elimination in `dirichlet_split` (never
by penalty): the interior block A_II is solved by preconditioned conjugate
gradients to relative tolerance 1e-10 with an iteration cap of
50 * sqrt(#unknowns), and boundary rows carry the data exactly.  Two solves
use it: `harmonic_extension` (the unit stiffness, Jacobi preconditioner) and
`solve_warped_laplace`, which solves on a `WarpedBlock`: the interior block
on a fixed pattern, re-weighted in place for each beta, with a sparse LU
factorization of its first beta as the CG preconditioner.  The flow calls
`solve_warped_laplace` only under a non-constant warp; under a constant one
the potential is the harmonic extension of psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from .errors import SolverFailure
from .mesh import DomainMesh, triangle_mean

CG_RTOL = 1e-10


@dataclass
class EllipticSolution:
    v: np.ndarray
    rel_residual: float
    iterations: int


def jacobi_preconditioner(A: sp.csr_matrix) -> np.ndarray:
    """1 / A_ii, with 1 where the diagonal is not positive."""
    diag = A.diagonal()
    return np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 1.0)


def cg_solve(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray = None,
             rtol: float = CG_RTOL, maxiter: int = None, M=None):
    """Preconditioned CG; returns (x, rel_residual, iterations).

    M approximates A^{-1}: a vector is an inverse diagonal, applied as one
    multiply; anything else is applied through M.matvec (a LinearOperator).
    The default is jacobi_preconditioner(A).  The iteration is
    scipy.sparse.linalg.cg's, operation for operation (start residual
    b - A x0, stop once |r| < rtol |b|), so both give the same iterates.
    SolverFailure if the cap is hit before the tolerance.
    """
    n = b.shape[0]
    if n == 0:
        return np.zeros(0), 0.0, 0
    b = np.ascontiguousarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0
    if maxiter is None:
        maxiter = max(100, int(50 * math.sqrt(n)))
    if M is None:
        M = jacobi_preconditioner(A)
    psolve = M.__mul__ if isinstance(M, np.ndarray) else M.matvec
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x if x.any() else b.copy()
    atol = rtol * bnorm
    iters, stalled, p, rho_prev = 0, True, None, None
    while iters < maxiter:
        if math.sqrt(np.dot(r, r)) < atol:
            stalled = False
            break
        z = psolve(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        iters += 1
    rel = float(np.linalg.norm(b - A @ x)) / bnorm
    if stalled and rel > rtol * 10:
        raise SolverFailure(
            f"CG stalled at relative residual {rel:.3e} after {iters} iterations")
    return x, rel, iters


def dirichlet_split(mesh: DomainMesh, K: sp.csr_matrix, boundary_values: np.ndarray):
    """(K_II, (K g)_I, g) for g = boundary_values on boundary rows, 0 inside.

    g is (nv,) or (nv, d); (K g)_I is the load the data put on interior rows.
    """
    I = mesh.interior
    bv = np.asarray(boundary_values, dtype=float)
    g = np.zeros(bv.shape)
    g[mesh.boundary] = bv[mesh.boundary]
    return K[I][:, I].tocsr(), (K @ g)[I], g


def _solve_split(mesh, A_II, coupling, v, load, x0, M=None):
    """Fill the interior rows of the padded data v from a `dirichlet_split`."""
    I = mesh.interior
    cols = v.reshape(len(v), -1)                  # a view: columns write into v
    rhs = ((0.0 if load is None else np.asarray(load, dtype=float)[I]) - coupling
           ).reshape(len(I), -1)
    guess = None if x0 is None else np.asarray(x0, dtype=float)[I].reshape(len(I), -1)
    rel, iters = 0.0, 0
    for d in range(cols.shape[1]):
        cols[I, d], r, n = cg_solve(A_II, rhs[:, d], M=M,
                                    x0=None if guess is None else guess[:, d])
        rel, iters = max(rel, r), iters + n
    return v, rel, iters


class WarpedBlock:
    """The split of -div(beta grad .) with data psi, re-weighted in place for each beta.

    Built once per (mesh, psi): the interior block's pattern comes from
    `dirichlet_split` of the element connectivity, and two sparse maps take
    the triangle weights area * beta_tri to the block's data and to the load
    psi puts on interior rows.  The block of the first beta is factored once
    (sparse LU) and preconditions CG for every later beta; a stale factor
    costs iterations, never accuracy.
    """

    def __init__(self, mesh: DomainMesh, psi: np.ndarray):
        t, nv = mesh.triangles, mesh.num_vertices
        nt = t.shape[0]
        # G[t, e, a] = d_e lambda_a of triangle t's vertex a; loc = unit element stiffness
        G = np.asarray(mesh.grad_op[np.repeat(np.arange(2 * nt), 3),
                                    np.repeat(t, 2, axis=0).ravel()]).reshape(nt, 2, 3)
        loc = np.einsum("tea,teb->tab", G, G).ravel()
        # element entries that vanish (right angle opposite the edge) vanish for any beta
        nz = loc != 0.0
        loc = loc[nz]
        rows = np.repeat(t, 3, axis=1).ravel()[nz]
        cols = np.tile(t, (1, 3)).ravel()[nz]
        tri = np.repeat(np.arange(nt), 9)[nz]
        # the connectivity pattern, each entry's data its slot number + 1
        keys, slot = np.unique(rows * nv + cols, return_inverse=True)
        pattern = sp.csr_matrix((np.arange(1.0, len(keys) + 1), (keys // nv, keys % nv)),
                                shape=(nv, nv))
        self.block, _, self._g = dirichlet_split(mesh, pattern, psi)
        per_slot = sp.csr_matrix((loc, (slot.ravel(), tri)), shape=(len(keys), nt))
        self._to_block = per_slot[self.block.data.astype(np.int64) - 1]
        load = sp.csr_matrix((loc * self._g[cols], (rows, tri)), shape=(nv, nt))
        self._to_load = load[mesh.interior]
        self._mesh = mesh
        self._M = None

    def split(self, beta_vertex: np.ndarray):
        """(A_II, (K g)_I, g) for K the stiffness of -div(beta grad .); A_II is reused."""
        aw = self._mesh.areas * triangle_mean(self._mesh, beta_vertex)
        self.block.data[:] = self._to_block @ aw
        return self.block, self._to_load @ aw, self._g.copy()

    def preconditioner(self):
        """The LU factor of the block as it is now, kept for every later call."""
        if self._M is None:
            lu = splu(self.block.tocsc(), permc_spec="MMD_AT_PLUS_A")
            self._M = LinearOperator(self.block.shape, matvec=lu.solve, dtype=float)
        return self._M


def solve_warped_laplace(mesh: DomainMesh, beta_vertex: np.ndarray,
                         psi: np.ndarray, source: np.ndarray = None,
                         x0: np.ndarray = None,
                         block: WarpedBlock = None) -> EllipticSolution:
    """Weak P1 solution of -div(beta grad v) = f with trace psi.

    `psi` is a full-length nodal array whose boundary entries carry the data;
    `source` (optional) is a nodal density, integrated with the lumped mass.
    `block` is a WarpedBlock of this mesh and psi, kept across solves; without
    one, a block is built for this call.
    """
    load = None if source is None else mesh.lumped_mass * np.asarray(source, dtype=float)
    block = WarpedBlock(mesh, psi) if block is None else block
    v, rel, iters = _solve_split(mesh, *block.split(beta_vertex), load, x0,
                                 block.preconditioner())
    return EllipticSolution(v=v, rel_residual=rel, iterations=iters)


def harmonic_extension(mesh: DomainMesh, trace: np.ndarray) -> np.ndarray:
    """Componentwise discrete harmonic extension of boundary data.

    `trace` is full-length nodal data, (nv,) or (nv, d); only boundary rows
    are read.  Linear boundary data is reproduced exactly.
    """
    return _solve_split(mesh, *dirichlet_split(mesh, mesh.stiffness, trace), None, None)[0]
