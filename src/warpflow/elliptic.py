"""Variable-coefficient elliptic solves: -div(beta grad v) = f, v = psi on the boundary.

Every linear solve of a run is one `cg_solve` (block CG) or one solve by a
`lu_factor` (sparse LU, built one column panel at a time, so that building it
lifts the process high-water mark no higher than the factor it keeps; see
PANEL_SIZE).  Dirichlet conditions are imposed by elimination in
`dirichlet_split` (never by penalty): the interior block A_II is solved by
preconditioned CG to relative tolerance 1e-10 with an iteration cap of
max(100, 50 sqrt(#unknowns)), or by its LU factor, and boundary rows carry
the data exactly.  Three kinds of solve use it: `harmonic_extension` at
set-up (one LU factor of the unit stiffness for every column whose data are
not constant; a constant column is its own extension and takes no solve);
the flow's theta step (Jacobi CG, or the LU factor of its matrix); and
`solve_warped_laplace`, which re-weights a `WarpedBlock`, the interior block
on a fixed pattern, in place for each beta and solves by CG with the LU factor
of the first beta as preconditioner, under a non-constant warp only
(under a constant one the potential is the harmonic extension of psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverFailure
from .mesh import DomainMesh, _dot, triangle_mean

CG_RTOL = 1e-10


@dataclass
class EllipticSolution:
    v: np.ndarray
    rel_residual: float
    iterations: int
    beta_tri: np.ndarray          # the triangle mean of beta it was solved with, read-only


def jacobi_preconditioner(A: sp.csr_matrix) -> np.ndarray:
    """1 / A_ii of a positive diagonal, as a step matrix's (mass plus stiffness) is."""
    return 1.0 / A.diagonal()


def cg_solve(A: sp.csr_matrix, B: np.ndarray, M, x0: np.ndarray = None):
    """Preconditioned CG on each column of B, (n,) or (n, d), from x0 shaped
    like B; returns (X shaped like B, worst relative residual, total iterations).

    M approximates A^{-1}: a vector is an inverse diagonal, applied as one
    multiply (e.g. jacobi_preconditioner(A)); a callable is applied to the
    residual (e.g. a factor's solve).  Each column runs
    scipy.sparse.linalg.cg's iteration, operation for operation (start
    residual b - A x0, stop once |r| < CG_RTOL |b|, the same true-residual
    check), so both take the same steps; their iterates agree to round-off,
    since every reduction here is a BLAS-free einsum.  Under an inverse
    diagonal, r.r and r.z are one einsum over the rows of one (2, n) buffer.
    A zero column gives zeros in 0 iterations.  SolverFailure if B is not
    finite, or a column breaks down or hits the cap, max(100, 50 sqrt(n)) iterations.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    maxiter = max(100, int(50 * math.sqrt(n)))
    jacobi = isinstance(M, np.ndarray)
    cols = B if B.ndim == 2 else B[:, None]
    guess = None if x0 is None else np.asarray(x0, dtype=float).reshape(cols.shape)
    X, worst, total = np.zeros(cols.shape), 0.0, 0
    r, z = rz = np.empty((2, n))
    for d in range(cols.shape[1]):
        b = np.ascontiguousarray(cols[:, d])
        bnorm = math.sqrt(_dot(b, b))
        if not math.isfinite(bnorm):
            raise SolverFailure("CG got a non-finite right-hand side")
        if bnorm == 0.0:
            continue
        x = np.zeros(n) if guess is None else guess[:, d].copy()
        r[:] = b - A @ x
        atol = CG_RTOL * bnorm
        iters, stalled, p, rho_prev = 0, True, None, None
        while iters < maxiter:
            if jacobi:
                np.multiply(M, r, out=z)
                rr, rho = np.einsum("ij,j->i", rz, r)
            else:
                rr = _dot(r, r)
            if math.sqrt(rr) < atol:
                stalled = False
                break
            if not jacobi:
                # after the test: a z formed before it would cost a factor solve per call
                z[:] = M(r)
                rho = _dot(r, z)
            if p is None:
                p = z.copy()
            else:
                p *= rho / rho_prev
                p += z
            q = A @ p
            alpha = rho / _dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
            iters += 1
        res = b - A @ x
        rel = math.sqrt(_dot(res, res)) / bnorm
        if stalled and not rel <= CG_RTOL * 10:      # a NaN residual too
            raise SolverFailure(
                f"CG stalled at relative residual {rel:.3e} after {iters} iterations")
        X[:, d] = x
        worst, total = max(worst, rel), total + iters
    return X.reshape(B.shape), worst, total


# SuperLU factors PANEL_SIZE columns at a time, in a dense workspace of
# PANEL_SIZE x n doubles.  At its default width of 20 that workspace lifts the
# process high-water mark above the RSS the factor keeps: by 2.5 MiB on the
# square's h = 1/128 step matrix, by 10.4 MiB at 1/256.  At width 1, 2 or 4 the
# mark stays at the RSS after the factor, solves take as long, and the factor
# builds faster (medians on 2 vCPUs: 32 -> 25 ms at 1/128, 207 -> 168 ms at 1/256).
PANEL_SIZE = 1


def lu_factor(A: sp.spmatrix):
    """Sparse LU of a square A (SuperLU, minimum degree on A^T + A, panels of
    PANEL_SIZE columns); `.solve` applies A^{-1}."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=PANEL_SIZE)


def dirichlet_split(mesh: DomainMesh, K: sp.csr_matrix, boundary_values: np.ndarray):
    """(K_II, (K g)_I, g) for g = boundary_values on boundary rows, 0 inside.

    g is (nv,) or (nv, d); (K g)_I is the load the data put on interior rows.
    """
    I = mesh.interior
    bv = np.asarray(boundary_values, dtype=float)
    g = np.zeros(bv.shape)
    g[mesh.boundary] = bv[mesh.boundary]
    return K[I][:, I].tocsr(), (K @ g)[I], g


class WarpedBlock:
    """The split of -div(beta grad .) with data psi, which `solve_warped_laplace`
    re-weights in place for each beta.

    Built once per (mesh, psi): `matrix` is the interior block on the pattern
    `dirichlet_split` takes from the element connectivity, `g` the data (psi on
    boundary rows, 0 inside), and `to_matrix` and `to_load` take the triangle
    weights area * beta_tri to its entries and to the load g puts on interior
    rows.  `factor`, the LU solve of the first beta's block that the first
    solve builds, preconditions CG for every later beta; a stale factor costs
    iterations, never accuracy.
    """

    def __init__(self, mesh: DomainMesh, psi: np.ndarray):
        t, nv = mesh.triangles, mesh.num_vertices
        nt = t.shape[0]
        # G[t, e, a] = d_e lambda_a of triangle t's vertex a, grad_op's data in
        # its triangle-vertex order; loc = unit element stiffness
        G = mesh.grad_op.data.reshape(nt, 2, 3)
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
        self.matrix, _, self.g = dirichlet_split(mesh, pattern, psi)
        per_slot = sp.csr_matrix((loc, (slot.ravel(), tri)), shape=(len(keys), nt))
        self.to_matrix = per_slot[self.matrix.data.astype(np.int64) - 1]
        load = sp.csr_matrix((loc * self.g[cols], (rows, tri)), shape=(nv, nt))
        self.to_load = load[mesh.interior]
        self.factor = None


def solve_warped_laplace(mesh: DomainMesh, beta_vertex: np.ndarray,
                         psi: np.ndarray, source: np.ndarray = None,
                         x0: np.ndarray = None, block: WarpedBlock = None) -> EllipticSolution:
    """Weak P1 solution of -div(beta grad v) = f with trace psi.

    Forms the triangle mean of beta_vertex (NonPositiveCoefficient unless
    positive), re-weights the block and the data's load, factors the block on
    its first solve and solves by CG from x0.  `source` (optional) is a nodal
    density, integrated with the lumped mass.  `block` is a WarpedBlock of
    this mesh, kept across solves; it carries its own boundary data.  `psi`,
    a full-length nodal array whose boundary entries carry the data, is read
    only to build a block for this call when no `block` is given.
    """
    block = WarpedBlock(mesh, psi) if block is None else block
    beta_tri = triangle_mean(mesh, beta_vertex)
    beta_tri.flags.writeable = False
    aw = mesh.areas * beta_tri
    block.matrix.data[:] = block.to_matrix @ aw
    if block.factor is None:
        block.factor = lu_factor(block.matrix).solve
    I, v = mesh.interior, block.g.copy()
    load = 0.0 if source is None else (mesh.lumped_mass * np.asarray(source, dtype=float))[I]
    v[I], rel, iters = cg_solve(block.matrix, load - block.to_load @ aw, M=block.factor,
                                x0=None if x0 is None else np.asarray(x0, dtype=float)[I])
    return EllipticSolution(v=v, rel_residual=rel, iterations=iters, beta_tri=beta_tri)


def harmonic_extension(mesh: DomainMesh, trace: np.ndarray):
    """(ext, factors): the componentwise discrete harmonic extension of
    boundary data, and the LU factors it built (0 or 1).

    `trace` is full-length nodal data, (nv,) or (nv, d); only boundary rows
    are read.  A column whose boundary values are all equal is that constant
    everywhere, exactly; the other columns are solved together by one LU
    factor of the interior stiffness.  Linear boundary data is reproduced to
    round-off.  SolverFailure if the boundary data are not finite.
    """
    trace = np.asarray(trace, dtype=float)
    cols = trace.reshape(trace.shape[0], -1)
    data = cols[mesh.boundary_index]
    if not np.all(np.isfinite(data)):
        raise SolverFailure("harmonic extension got non-finite boundary data")
    vary = np.any(data != data[0], axis=0)
    ext = np.empty(cols.shape)
    ext[:, ~vary] = data[0, ~vary]
    if vary.any():
        A_II, coupling, g = dirichlet_split(mesh, mesh.stiffness, cols[:, vary])
        g[mesh.interior] = lu_factor(A_II).solve(0.0 - coupling)
        ext[:, vary] = g
    return ext.reshape(trace.shape), int(vary.any())
