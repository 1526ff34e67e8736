"""Brute-force references the tests compare the package's operators against."""

import math

import numpy as np

from warpflow.flow import _solve_potential
from warpflow.geometry import warp_force
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


def reference_step(state, dt):
    """(u, v, last_move, last_rate) of flow.step(state, dt), move cap aside.

    Every target takes an explicit forcing (the flat torus its zeros), the
    interior rows move by 2-D fancy indexing and the boundary rows are reset
    through the boolean mask.  The solve and the potential go through
    state.ctx, as the step's do."""
    mesh, ctx, u = state.mesh, state.ctx, state.u
    theta, I, m = ctx.config.theta, mesh.interior, mesh.lumped_mass
    F = ctx.target.curvature_force(u, mesh.nodal_from_tri(mesh.tri_grad_sq(u)))
    if ctx.potential is not None:
        s = mesh.nodal_from_tri(mesh.tri_grad_sq(state.v))
        F = F - warp_force(ctx.target, ctx.warp, u, s)
    rhs = m[:, None] * (u + dt * F)
    if theta != 1.0:
        rhs -= ((1.0 - theta) * dt) * (mesh.stiffness @ u)
    rhs_I = rhs[I] - (theta * dt) * ctx.K_phi
    u_star = np.array(u)
    u_star[I] = ctx.theta_solve(dt, state.t, rhs_I, u[I])
    u_new = ctx.target.project_field(u_star)
    u_new[mesh.boundary] = ctx.bdata.phi[mesh.boundary]
    du = u_new - u
    dd = np.einsum("ij,ij->i", du, du)
    move = math.sqrt(float(np.max(dd))) / (ctx.config.max_move_fraction * mesh.h)
    v_new = state.v if ctx.potential is None else _solve_potential(ctx, u_new, state, dt)[0]
    return u_new, v_new, move, math.sqrt(float(np.dot(m, dd))) / dt
