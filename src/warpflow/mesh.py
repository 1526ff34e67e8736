"""Conforming P1 triangulations of the unit square, unit disk and annulus.

A DomainMesh bundles the triangulation with everything the solvers need:
triangle areas, the lumped mass vector, the P1 gradient operator grad_op
(2 nt x nv; row 2 t + e holds d_e lambda_i of the vertices of triangle t, in
triangle-vertex order, so grad_op @ f is d_e f on every triangle) and the
unit stiffness grad_op^T diag(area) grad_op; a weight w per triangle gives
the stiffness of -div(w grad .) as grad_op^T diag(area w) grad_op.  Three
values are built on first use and then kept, since many runs read none of
them: the barycenters, and the two averaging operators tri_mean_op (nt x nv,
1/3 at each vertex of a triangle) and nodal_mean_op (nv x nt, area_t / (3 m_v)
at each triangle t of vertex v, so nodal_mean_op @ q is the mass-weighted
nodal average of q).

Disk meshes place vertices on concentric rings with the angular count
growing linearly with radius (quasi-uniform, no slivers) and let a Delaunay
triangulation stitch the rings.  The annulus is a structured polar lattice,
each cell split by a diagonal; the unit square uses the structured diagonal
split.  `build_mesh` checks that every mesh is weakly acute: no off-diagonal
stiffness entry above WEAKLY_ACUTE_RTOL * max|K| (round-off).  That gives
the discrete maximum principle, and the nodal projection onto the sphere
then does not raise the Dirichlet energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay

from .errors import InvalidShapeParameters, NonPositiveCoefficient


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two vectors, summed by einsum: no BLAS, so in one order whatever
    the BLAS thread count (np.dot, np.linalg.norm and np.vecdot may split a long
    sum across BLAS threads and change its last bits)."""
    return float(np.einsum("i,i->", a, b))


@dataclass
class DomainMesh:
    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3), positively oriented
    shape: str
    target_h: float
    # derived from the vertices and triangles by _finalize; barycenters,
    # tri_mean_op and nodal_mean_op are cached properties below
    boundary: np.ndarray = field(init=False)                      # (nv,) bool
    h: float = field(init=False)                                  # realized max edge length
    areas: np.ndarray = field(init=False, repr=False)
    grad_op: sp.csr_matrix = field(init=False, repr=False)        # (2 nt, nv)
    lumped_mass: np.ndarray = field(init=False, repr=False)       # (nv,)
    stiffness: sp.csr_matrix = field(init=False, repr=False)      # (nv, nv)
    interior: np.ndarray = field(init=False, repr=False)          # interior vertex ids
    boundary_index: np.ndarray = field(init=False, repr=False)    # boundary vertex ids

    def __post_init__(self):
        self._finalize()

    def _finalize(self):
        v, t = self.vertices, self.triangles
        e1 = v[t[:, 1]] - v[t[:, 0]]
        e2 = v[t[:, 2]] - v[t[:, 0]]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        flip = det < 0
        if np.any(flip):
            # swapping vertices 1 and 2 negates det exactly
            t[flip, 1], t[flip, 2] = t[flip, 2].copy(), t[flip, 1].copy()
            det[flip] = -det[flip]
        if np.any(det <= 0):
            raise InvalidShapeParameters("degenerate (zero-area) triangle in mesh")
        self.areas = 0.5 * det

        # g[t, e, i] = d_e lambda_i; grad lambda_i = (y_j - y_k, x_k - x_j) / 2A, ijk cyclic
        pj, pk = v[np.roll(t, -1, axis=1)], v[np.roll(t, -2, axis=1)]   # (nt, 3, 2)
        g = np.stack([pj[:, :, 1] - pk[:, :, 1], pk[:, :, 0] - pj[:, :, 0]], axis=1)
        g /= (2.0 * self.areas)[:, None, None]
        nt = t.shape[0]
        self.grad_op = sp.csr_matrix(
            (g.ravel(), np.repeat(t, 2, axis=0).ravel(), np.arange(0, 6 * nt + 1, 3)),
            shape=(2 * nt, self.num_vertices))
        self.stiffness = stiffness_from_tri_weights(self, np.ones(nt))

        nv = self.num_vertices
        self.lumped_mass = np.bincount(t.ravel(), np.repeat(self.areas / 3.0, 3), nv)

        # edge keys e0 nv + e1 (e0 < e1) sort as the rows (e0, e1) of a row-wise unique
        a, b = t.ravel().astype(np.int64), np.roll(t, -1, axis=1).ravel()
        keys, counts = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_counts=True)
        if np.any(counts > 2):
            raise InvalidShapeParameters("non-conforming mesh: edge shared by > 2 triangles")
        e0, e1 = np.divmod(keys, nv)
        self.h = float(np.linalg.norm(v[e0] - v[e1], axis=1).max())
        self.boundary = np.zeros(nv, dtype=bool)
        self.boundary[np.concatenate([e0[counts == 1], e1[counts == 1]])] = True
        self.interior = np.flatnonzero(~self.boundary)
        self.boundary_index = np.flatnonzero(self.boundary)
        self.interior.flags.writeable = self.boundary_index.flags.writeable = False

    # -- built on first use, then kept: a run that never reads one holds none ---

    @cached_property
    def barycenters(self) -> np.ndarray:
        """(nt, 2) triangle barycenters."""
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def tri_mean_op(self) -> sp.csr_matrix:
        """(nt, nv), 1/3 at each vertex of a triangle; built from its CSR arrays."""
        nt = self.num_triangles
        return sp.csr_matrix((np.full(3 * nt, 1.0 / 3.0), self.triangles.ravel(),
                              np.arange(0, 3 * nt + 1, 3)), shape=(nt, self.num_vertices))

    @cached_property
    def nodal_mean_op(self) -> sp.csr_matrix:
        """(nv, nt), area_t / (3 m_v) at each triangle t of vertex v; built from
        its CSR arrays."""
        nv, nt, tv = self.num_vertices, self.num_triangles, self.triangles.ravel()
        order = np.argsort(tv, kind="stable")        # incidences by vertex
        tri, vert = order // 3, tv[order]
        return sp.csr_matrix(
            (self.areas[tri] / (3.0 * self.lumped_mass[vert]), tri,
             np.concatenate([[0], np.cumsum(np.bincount(tv, minlength=nv))])), shape=(nv, nt))

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def domain_area(self) -> float:
        return float(self.areas.sum())

    # -- P1 field operators ---------------------------------------------

    def tri_gradients(self, values: np.ndarray) -> np.ndarray:
        """Per-triangle constant gradient of a nodal field; (nt, 2, d)."""
        G = self.grad_op @ np.asarray(values, dtype=float)
        return G.reshape((self.num_triangles, 2) + G.shape[1:])

    def tri_grad_sq(self, values: np.ndarray) -> np.ndarray:
        """Per-triangle |grad f|^2 (all components summed); (nt,)."""
        G = self.tri_gradients(values).reshape(self.num_triangles, -1)
        return np.einsum("tk,tk->t", G, G)

    def mass_sum(self, nodal: np.ndarray) -> float:
        """sum_i m_i q_i of a nodal density q, the lumped integral; BLAS-free (`_dot`)."""
        return _dot(self.lumped_mass, nodal)

    def nodal_from_tri(self, tri_values: np.ndarray) -> np.ndarray:
        """Mass-weighted nodal average of a per-triangle quantity."""
        return self.nodal_mean_op @ tri_values

    def laplacian(self, values: np.ndarray, K_values: np.ndarray) -> np.ndarray:
        """Lumped-mass discrete Laplacian -M^{-1} K f of f = values, from
        K_values = stiffness @ values; boundary rows zeroed."""
        m = self.lumped_mass if np.ndim(values) == 1 else self.lumped_mass[:, None]
        lap = -K_values / m
        lap[self.boundary_index] = 0.0
        return lap


# -- constructors --------------------------------------------------------

def _doubling_count(length: float, step: float, start: int = 1) -> int:
    """Smallest start*2^k subdivisions so each piece is <= step.

    Power-of-two counts make halving `step` exactly double the count, so a
    refinement by halving nests and at least quadruples the triangle count
    (plain ceil can fall short: ceil(2x) may be 2*ceil(x) - 1).
    """
    n = start
    while n * step < length * (1.0 - 1e-12):
        n *= 2
    return n


def _square_lattice(n: int) -> tuple:
    """(vertices, triangles) of the unit square's n x n lattice: vertex (i, j),
    at (i, j) / n, is i (n + 1) + j; cells in (i, j) order, two triangles each."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    I, J = np.meshgrid(np.arange(n, dtype=np.int64), np.arange(n), indexing="ij")
    v00 = (I * (n + 1) + J).ravel()
    v10, v01, v11 = v00 + (n + 1), v00 + 1, v00 + (n + 2)
    return (np.column_stack([X.ravel(), Y.ravel()]),
            np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3))


def _disk_rings(nr: int) -> tuple:
    """(vertices, triangles) of the unit disk with nr rings: ring k of radius
    k / nr holds 6 k points, odd rings turned by a quarter spacing; Delaunay
    stitches the rings."""
    k = np.arange(1, nr + 1)
    r, n = np.repeat(k / nr, 6 * k), np.repeat(6 * k, 6 * k)
    j = np.arange(n.size) - np.repeat(3 * k * (k - 1), 6 * k)      # index on its ring
    th = np.repeat(0.5 * np.pi * (k % 2) / (6 * k), 6 * k) + 2.0 * np.pi * j / n
    pts = np.vstack([[[0.0, 0.0]], np.column_stack([r * np.cos(th), r * np.sin(th)])])
    return pts, Delaunay(pts).simplices.astype(np.int64)


def _annulus_lattice(r_in: float, r_out: float, nr: int, nth: int) -> tuple:
    """(vertices, triangles) of the annulus with nr cells across and nth around."""
    radii = r_in + (r_out - r_in) * np.arange(nr + 1) / nr
    # structured lattice: same angular count on every ring, quad cells split
    # by a diagonal; triangle count 2*nth*nr doubles exactly in each index
    th = 2.0 * np.pi * np.arange(nth) / nth
    pts = np.concatenate([np.column_stack([r * np.cos(th), r * np.sin(th)])
                          for r in radii])
    k = np.repeat(np.arange(nr), nth)
    j = np.tile(np.arange(nth), nr)
    a = k * nth + j
    b = k * nth + (j + 1) % nth
    c = (k + 1) * nth + j
    d = (k + 1) * nth + (j + 1) % nth
    tris = np.concatenate([np.column_stack([a, c, d]),
                           np.column_stack([a, d, b])])
    return pts, tris.astype(np.int64)


# the most vertices check_shape accepts: the square at h = 1/512, 4x the 1/256 rung
MAX_VERTICES = 263_169


def check_shape(shape: str, target_h: float, r_in: float = None, r_out: float = None) -> tuple:
    """The cell counts `build_mesh` builds the shape from: (n,) cells a side of
    the square, (nr,) rings of the disk, (nr, nth) cells across and around the
    annulus.  InvalidShapeParameters for arguments refused without a mesh: a
    size not positive, too coarse for the shape (a square of one cell a side
    has no interior vertex) or so fine that the mesh would have more than
    MAX_VERTICES vertices, an unknown shape, bad annulus radii."""
    if not target_h > 0:
        raise InvalidShapeParameters(f"target_h must be positive, got {target_h!r}")
    try:        # the vertex count of each generator, in closed form
        if shape == "square":
            counts = (_doubling_count(1.0, target_h),)
            coarse, vertices = counts[0] == 1, (counts[0] + 1) ** 2
        elif shape == "disk":
            counts = (_doubling_count(1.0, target_h),)
            coarse, vertices = target_h > 0.5, 1 + 3 * counts[0] * (counts[0] + 1)
        elif shape != "annulus":
            raise InvalidShapeParameters(f"unknown shape {shape!r}")
        elif r_in is None or r_out is None:
            raise InvalidShapeParameters("annulus needs both radii, mesh.r_in and mesh.r_out")
        elif not 0 < r_in < r_out:
            raise InvalidShapeParameters(
                f"annulus needs 0 < r_in < r_out, got r_in={r_in}, r_out={r_out}")
        else:
            coarse = 2.0 * target_h > r_out - r_in or 8.0 * target_h > 2.0 * np.pi * r_out
            counts = (_doubling_count(r_out - r_in, target_h, start=2),
                      _doubling_count(2.0 * np.pi * r_out, target_h, start=8))
            vertices = (counts[0] + 1) * counts[1]
    except OverflowError:       # a count of cells past the largest float
        coarse, vertices = False, math.inf
    if coarse:
        raise InvalidShapeParameters(f"target_h={target_h} too coarse for the {shape}")
    if vertices > MAX_VERTICES:
        raise InvalidShapeParameters(f"target_h={target_h} too fine for the {shape}: more "
                                     f"than MAX_VERTICES = {MAX_VERTICES} vertices")
    return counts


# largest off-diagonal stiffness entry build_mesh accepts, relative to max|K|
WEAKLY_ACUTE_RTOL = 1e-12


def build_mesh(shape: str, target_h: float, r_in: float = None,
               r_out: float = None) -> DomainMesh:
    """Build a conforming, weakly acute triangulation with max edge <= 1.5 * target_h.

    InvalidShapeParameters for arguments `check_shape` refuses and for a
    mesh that is not weakly acute.
    """
    counts = check_shape(shape, target_h, r_in, r_out)
    arrays = (_annulus_lattice(r_in, r_out, *counts) if shape == "annulus"
              else (_square_lattice if shape == "square" else _disk_rings)(*counts))
    mesh = DomainMesh(*arrays, shape=shape, target_h=target_h)
    if mesh.h > 1.5 * target_h:
        raise InvalidShapeParameters(
            f"mesh generator exceeded edge budget: h={mesh.h} > 1.5*{target_h}")
    K = mesh.stiffness.tocoo()
    off = K.data[K.row != K.col]
    if off.size and off.max() > WEAKLY_ACUTE_RTOL * np.abs(K.data).max():
        raise InvalidShapeParameters(
            f"{shape} mesh at target_h={target_h} is not weakly acute: off-diagonal "
            f"stiffness entry {off.max():.3e} > {WEAKLY_ACUTE_RTOL} * max|K|")
    return mesh


# -- energies and balls ---------------------------------------------------

def tri_energy_density(mesh: DomainMesh, grad_sq: np.ndarray) -> np.ndarray:
    """Per-triangle (1/2) area |grad f|^2 of grad_sq = mesh.tri_grad_sq(f)."""
    return 0.5 * mesh.areas * grad_sq


def dirichlet_energy(mesh: DomainMesh, values: np.ndarray) -> float:
    """(1/2) integral of |grad f|^2."""
    return float(tri_energy_density(mesh, mesh.tri_grad_sq(values)).sum())


def ball_triangles(mesh: DomainMesh, center, radius: float) -> np.ndarray:
    """Indices of triangles whose barycenter lies in the ball (membership rule)."""
    d = mesh.barycenters - np.asarray(center, dtype=float)
    return np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= radius * radius)


def ball_rows(mesh: DomainMesh, centers, radii) -> sp.csr_matrix:
    """One 0/1 row per (center vertex, radius), center-major, holding the
    triangles of `ball_triangles`: (rows @ dens) are the ball sums."""
    rows = [ball_triangles(mesh, mesh.vertices[c], r) for c in centers for r in radii]
    indptr = np.cumsum([0] + [len(t) for t in rows])
    return sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(rows), indptr),
                         shape=(len(rows), mesh.num_triangles))


CELL_MARGIN = 1e-9          # of (radius + largest |coordinate|): far above round-off
LOCAL_ENERGY_BLOCK = 512    # balls per block of the build: bounds its transients
LATTICE_TIE_RTOL = 1e-9     # of 9 r^2 / h^2: far above the round-off of `ball_triangles`
WRITE_ROWS = 4096           # rows per write of the text formats: no transient holds the file


def _clamped_radius(mesh: DomainMesh, radius: float) -> float:
    """radius, at most the bounding box's diagonal: a ball that wide already
    holds every triangle."""
    V = mesh.vertices
    return min(float(radius), math.dist(V.min(axis=0), V.max(axis=0)))


@dataclass
class BallIndex:
    """Sums of a per-triangle quantity over the balls of one radius about
    every vertex, one row per vertex.  With barycenters binned into square
    cells of side sqrt(mean triangle area) and P[j, i] the sum over the cells
    left of cell i in cell row j, a row of `op` acts on [P.ravel(); dens]: -1
    and +1 at the ends of each run of cells wholly inside its ball (shrunk by
    CELL_MARGIN), and 1 at each triangle of a cell its rim cuts that passes
    the exact rule of `ball_triangles`."""

    cells: np.ndarray = field(repr=False)   # (nt,) flat grid index of each barycenter
    grid: tuple                             # (ny, nx + 1)
    op: sp.csr_matrix = field(repr=False)   # (nv, ny (nx + 1) + nt)

    @property
    def nnz(self) -> int:
        return self.op.nnz

    def __matmul__(self, dens: np.ndarray) -> np.ndarray:
        P = np.bincount(self.cells, dens, math.prod(self.grid)).reshape(self.grid)
        return self.op @ np.concatenate([P.cumsum(axis=1).ravel(), dens])

    @classmethod
    def build(cls, mesh: DomainMesh, radius: float) -> "BallIndex":
        nv, r = mesh.num_vertices, _clamped_radius(mesh, radius)
        B, c = mesh.barycenters, math.sqrt(mesh.areas.mean())
        lo = B.min(axis=0)
        ij = np.floor((B - lo) / c).astype(np.int64)
        nx, ny = (int(n) + 1 for n in ij.max(axis=0))
        cells = ij[:, 1] * (nx + 1) + ij[:, 0] + 1
        order = np.argsort(cells, kind="stable")      # a run of cells is one slice
        # before[j (nx + 1) + i]: the number of triangles sorted before cell (j, i)
        before = np.cumsum(np.bincount(cells, minlength=ny * (nx + 1)))
        B_sorted = np.ascontiguousarray(B[order].T)
        blocks = []
        margin = CELL_MARGIN * (r + np.abs(B).max())
        r_out, r_in = r + margin, max(r - margin, 0.0)
        for s in range(0, nv, LOCAL_ENERGY_BLOCK):
            X = mesh.vertices[s:s + LOCAL_ENERGY_BLOCK]
            cx, cy = (X - lo).T[:, :, None]
            # the cell rows j the ball reaches; row j spans [y0, y0 + c] about the center
            j = np.floor((cy - r_out) / c).astype(np.int64)
            j = j + np.arange(int((np.floor((cy + r_out) / c) - j).max()) + 1)
            row = (j >= 0) & (j < ny) & (j * c <= cy + r_out)
            y0 = j * c - cy
            near, far = np.maximum(np.maximum(y0, -y0 - c), 0.0), np.maximum(-y0, y0 + c)
            # candidate cells [i_lo, i_hi] of each row; of them, [i0, i1] wholly inside
            w = np.sqrt(np.maximum(r_out * r_out - near * near, 0.0))
            i_lo, i_hi = (np.clip(np.floor((cx + w * sg) / c), 0, nx - 1).astype(np.int64)
                          for sg in (-1, 1))
            w2 = r_in * r_in - far * far
            w = np.sqrt(np.maximum(w2, 0.0))
            i0 = np.maximum(np.ceil((cx - w) / c).astype(np.int64), i_lo)
            i1 = np.minimum(np.floor((cx + w) / c).astype(np.int64) - 1, i_hi)
            inside = row & (w2 >= 0.0) & (i0 <= i1)
            i0, i1 = np.where(inside, i0, i_hi + 1), np.where(inside, i1, i_hi)
            # rim cells [i_lo, i0) and (i1, i_hi]: two slices of the sorted triangles
            base = np.where(row, j, 0)[..., None] * (nx + 1)
            a = before[base + np.stack([i_lo, i1 + 1], axis=-1)]
            n = np.where(row[..., None], before[base + np.stack([i0, i_hi + 1], axis=-1)] - a,
                         0).ravel()
            pos = np.repeat(a.ravel() - np.cumsum(n) + n, n) + np.arange(n.sum())
            per_ball = n.reshape(len(X), -1).sum(axis=1)
            dx, dy = (xy[pos] - np.repeat(X[:, k], per_ball) for k, xy in enumerate(B_sorted))
            keep = dx * dx + dy * dy <= r * r
            tri, ball = order[pos[keep]], np.repeat(np.arange(len(X)), per_ball)[keep]
            # a row, stably sorted: -P[j, i0], +P[j, i1 + 1] per inside run, then its rim triangles
            rows = np.concatenate([np.repeat(np.nonzero(inside)[0], 2), ball])
            at = np.argsort(rows, kind="stable")
            idx = np.concatenate([(base + np.stack([i0, i1 + 1], axis=-1))[inside].ravel(),
                                  ny * (nx + 1) + tri])[at].astype(np.int32)
            sgn = np.ones(rows.size, dtype=np.int8)
            sgn[:rows.size - ball.size:2] = -1
            blocks.append((np.bincount(rows, minlength=len(X)), idx, sgn[at]))
        lengths, indices, signs = zip(*blocks)
        del blocks                                    # each block goes once it is copied
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
        indices = np.concatenate(indices)
        op = sp.csr_matrix((np.concatenate(signs).astype(float), indices, indptr),
                           shape=(nv, ny * (nx + 1) + len(B)))
        return cls(cells, (ny, nx + 1), op)


@dataclass
class LatticeBalls:
    """Sums of a per-triangle quantity over the radius-ball of every vertex of
    the unit square of `_square_lattice`, n cells a side, with nothing stored
    per vertex.  Cell (i, j) holds triangle 2 (i n + j), barycenter (i + 2/3,
    j + 1/3) h, and triangle 2 (i n + j) + 1, barycenter (i + 1/3, j + 2/3) h.
    So in units of (h/3)^2 the squared distance from vertex (p, q) to the
    kind-k triangle of cell (p + di, q + dj) is the integer (3 di + a_k)^2 +
    (3 dj + b_k)^2, (a, b) = (2, 1) or (1, 2), whatever the vertex: for each
    (k, di) the cells in the ball form one run dj in [lo, hi].  A run's sum
    is C_k[p + di, q + hi + 1] - C_k[p + di, q + lo], with C_k the prefix
    sums along j of the kind-k densities, clamped to the row's ends; for all
    vertices at once that is two slice updates."""

    n: int
    runs: tuple          # (k, di, lo, hi) of every run

    @property
    def nnz(self) -> int:
        return 2 * len(self.runs)

    def __matmul__(self, dens: np.ndarray) -> np.ndarray:
        n = self.n
        # C[k, i, n + j] = C_k[i, j]: 0 for j <= 0, the row total for j >= n
        C = np.zeros((2, n, 3 * n + 1))
        np.cumsum(dens.reshape(n, n, 2).transpose(2, 0, 1), axis=2,
                  out=C[:, :, n + 1:2 * n + 1])
        C[:, :, 2 * n + 1:] = C[:, :, 2 * n:2 * n + 1]
        out = np.zeros((n + 1, n + 1))               # out[p, q]: vertex p (n + 1) + q
        for k, di, lo, hi in self.runs:
            p0, p1 = max(-di, 0), min(n - di, n + 1)   # vertices whose row p + di exists
            rows = C[k, p0 + di:p1 + di]
            out[p0:p1] += rows[:, n + hi + 1:2 * n + hi + 2]
            out[p0:p1] -= rows[:, n + lo:2 * n + lo + 1]
        return out.ravel()

    @classmethod
    def build(cls, n: int, r: float) -> "LatticeBalls | None":
        """The runs of the radius-r ball on the n x n lattice, or None when
        a lattice distance lies within LATTICE_TIE_RTOL of r: the float
        barycenters of `ball_triangles` may then fall either side."""
        T = 9.0 * r * r * n * n                   # r^2 in units of (h/3)^2
        w = min(n, math.ceil(r * n) + 1)
        d = np.arange(-w, w)                       # every di and dj of a cell in the ball
        runs = []
        for k, (a, b) in enumerate(((2, 1), (1, 2))):
            D = ((3 * d + a) ** 2)[:, None] + ((3 * d + b) ** 2)[None, :]
            if np.any(np.abs(D - T) <= LATTICE_TIE_RTOL * T):
                return None
            inside = D <= T
            for i in np.flatnonzero(inside.any(axis=1)):
                dj = d[inside[i]]
                runs.append((k, int(d[i]), int(dj[0]), int(dj[-1])))
        return cls(n, tuple(runs))


def local_energy_matrix(mesh: DomainMesh, radius: float) -> "LatticeBalls | BallIndex":
    """Ball sums over the radius-ball of every vertex: (L @ tri_energy_density)[v]
    is the Dirichlet energy in the ball at vertex v.  A square mesh whose
    vertex and triangle arrays are those of `_square_lattice` takes
    `LatticeBalls` unless a lattice distance ties the radius; every other
    mesh, and such a tie, takes `BallIndex`."""
    n = math.isqrt(mesh.num_vertices) - 1
    if mesh.shape == "square" and (n + 1) ** 2 == mesh.num_vertices:
        vertices, triangles = _square_lattice(n)
        if np.array_equal(mesh.vertices, vertices) and np.array_equal(mesh.triangles, triangles):
            lattice = LatticeBalls.build(n, _clamped_radius(mesh, radius))
            if lattice is not None:
                return lattice
    return BallIndex.build(mesh, radius)


# -- assembly -------------------------------------------------------------

def stiffness_from_tri_weights(mesh: DomainMesh, tri_weights: np.ndarray) -> sp.csr_matrix:
    """grad_op^T diag(area * w) grad_op: the P1 stiffness of -div(w grad .)."""
    D = mesh.grad_op
    WD = D.copy()
    WD.data *= np.repeat(mesh.areas * np.asarray(tri_weights, dtype=float), 6)
    return (D.T @ WD).tocsr()


def triangle_mean(mesh: DomainMesh, beta_vertex: np.ndarray) -> np.ndarray:
    """Mean of a vertex coefficient over each triangle's vertices; (nt,).

    NonPositiveCoefficient if any vertex value is <= 0 or NaN.
    """
    beta_vertex = np.asarray(beta_vertex, dtype=float)
    if not np.all(beta_vertex > 0):
        raise NonPositiveCoefficient("beta must be strictly positive at every vertex")
    return mesh.tri_mean_op @ beta_vertex


# -- plain-text formats ----------------------------------------------------

def dump_mesh(mesh: DomainMesh, path) -> None:
    """Header (counts), coordinate rows, index rows, one boundary-flag row;
    written in blocks of rows, so no transient holds the whole file."""
    V, T = mesh.vertices, mesh.triangles
    with open(path, "w") as f:
        f.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
        for s in range(0, len(V), WRITE_ROWS):
            f.write("".join([f"{x:.17g} {y:.17g}\n" for x, y in V[s:s + WRITE_ROWS].tolist()]))
        for s in range(0, len(T), WRITE_ROWS):
            f.write("".join([f"{i} {j} {k}\n" for i, j, k in T[s:s + WRITE_ROWS].tolist()]))
        f.write(" ".join("1" if b else "0" for b in mesh.boundary.tolist()) + "\n")


def write_snapshot(mesh: DomainMesh, u: np.ndarray, v: np.ndarray, path) -> None:
    """One row per vertex, u components then v, mesh vertex ordering; written
    in blocks of rows."""
    with open(path, "w") as f:
        f.write(f"{mesh.num_vertices} {u.shape[1] + 1}\n")
        for s in range(0, mesh.num_vertices, WRITE_ROWS):
            f.write("".join([" ".join(f"{x:.17g}" for x in row) + "\n" for row in
                             np.column_stack([u[s:s + WRITE_ROWS], v[s:s + WRITE_ROWS]]).tolist()]))
