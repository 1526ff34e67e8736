"""Brute-force references the tests compare the package's operators against."""

import math

import numpy as np

from warpflow.mesh import (_doubling_count, ball_triangles, stiffness_from_tri_weights,
                           tri_energy_density, triangle_mean)


def nearest_vertex(mesh, point) -> int:
    d = np.linalg.norm(mesh.vertices - np.asarray(point, dtype=float), axis=1)
    return int(np.argmin(d))


def ball_energy(mesh, values, center, radius) -> float:
    """Dirichlet energy of the barycenter-membership ball, summed exactly (fsum)."""
    dens = tri_energy_density(mesh, values)
    return math.fsum(dens[ball_triangles(mesh, center, radius)].tolist())


def weighted_stiffness(mesh, beta_vertex):
    """Stiffness of -div(beta grad .) with beta averaged over each triangle."""
    return stiffness_from_tri_weights(mesh, triangle_mean(mesh, beta_vertex))


def square_lattice(target_h):
    """(vertices, triangles) of the unit-square mesh, built one cell at a time."""
    n = _doubling_count(1.0, target_h)
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return verts, np.array(tris, dtype=np.int64)


def disk_points(target_h):
    """The unit-disk mesh's vertices, built one ring at a time."""
    nr = _doubling_count(1.0, target_h)
    pts = [np.zeros((1, 2))]
    for k in range(1, nr + 1):
        n, r = 6 * k, k / nr
        th = 0.5 * np.pi * (k % 2) / n + 2.0 * np.pi * np.arange(n) / n
        pts.append(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    return np.concatenate(pts)


def edge_table(mesh):
    """(boundary mask, max edge length) from a row-wise unique of the edges."""
    t, v = mesh.triangles, mesh.vertices
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    lengths = np.linalg.norm(v[uniq[:, 0]] - v[uniq[:, 1]], axis=1)
    boundary = np.zeros(mesh.num_vertices, dtype=bool)
    boundary[uniq[counts == 1].ravel()] = True
    return boundary, float(lengths.max())
