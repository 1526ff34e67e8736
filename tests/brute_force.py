"""Brute-force references the tests compare the package's operators against."""

import copy
import math

import numpy as np
import scipy.sparse as sp

from warpflow.diagnostics import energy_functionals
from warpflow.flow import _solve_potential, default_probe_centers, march
from warpflow.geometry import warp_force
from warpflow.mesh import (_doubling_count, ball_rows, ball_triangles, local_energy_matrix,
                           stiffness_from_tri_weights, tri_energy_density, triangle_mean)


def nearest_vertex(mesh, point) -> int:
    d = np.linalg.norm(mesh.vertices - np.asarray(point, dtype=float), axis=1)
    return int(np.argmin(d))


def ball_energy(mesh, values, center, radius) -> float:
    """Dirichlet energy of the barycenter-membership ball, summed exactly (fsum)."""
    dens = tri_energy_density(mesh, mesh.tri_grad_sq(values))
    return math.fsum(dens[ball_triangles(mesh, center, radius)].tolist())


def two_ball_reference(records, r_grid):
    """C1, C2 and the sample count of the two-ball fit, one centre and one
    radius at a time, over records whose ball_probes map each centre to
    {radius: energy}."""
    c1 = c2 = 0.0
    samples = 0
    n = len(records)
    for gap in (1, 5, 10):
        if gap >= n:
            continue
        stride = max(1, (n - gap) // 30)
        for j in range(0, n - gap, stride):
            a, b = records[j], records[j + gap]
            span = b.t - a.t
            if span <= 0:
                continue
            for center, probes in b.ball_probes.items():
                for r in r_grid:
                    r = float(r)
                    if r not in probes or (2.0 * r) not in a.ball_probes.get(center, {}):
                        continue
                    deficit = probes[r] - a.ball_probes[center][2.0 * r]
                    samples += 1
                    if deficit > 0:
                        c1 = max(c1, deficit * r * r / span)
                        c2 = max(c2, deficit / span)
    return c1, c2, samples


def weighted_stiffness(mesh, beta_vertex):
    """Stiffness of -div(beta grad .) with beta averaged over each triangle."""
    return stiffness_from_tri_weights(mesh, triangle_mean(mesh, beta_vertex))


def eager_averages(mesh):
    """(barycenters, tri_mean_op, nodal_mean_op) by the formulas a DomainMesh
    once ran for every mesh as it was built, whether a run read them or not."""
    v, t = mesh.vertices, mesh.triangles
    nt, nv, tv = t.shape[0], mesh.num_vertices, t.ravel()
    barycenters = v[t].mean(axis=1)
    m = np.bincount(tv, np.repeat(mesh.areas / 3.0, 3), nv)
    tri_mean_op = sp.csr_matrix(
        (np.full(3 * nt, 1.0 / 3.0), tv, np.arange(0, 3 * nt + 1, 3)), shape=(nt, nv))
    order = np.argsort(tv, kind="stable")
    tri, vert = order // 3, tv[order]
    nodal_mean_op = sp.csr_matrix(
        (mesh.areas[tri] / (3.0 * m[vert]), tri,
         np.concatenate([[0], np.cumsum(np.bincount(tv, minlength=nv))])), shape=(nv, nt))
    return barycenters, tri_mean_op, nodal_mean_op


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
    # the rate's mass-weighted sum is the step's BLAS-free einsum, in its order
    return u_new, v_new, move, math.sqrt(float(np.einsum("i,i->", m, dd))) / dt


def record_operators(mesh, thresholds):
    """(L, probes) as run_flow builds them: the r_detect-ball sums about every
    vertex, and one ball row per (probe centre, radius)."""
    return (local_energy_matrix(mesh, thresholds.r_detect),
            ball_rows(mesh, default_probe_centers(mesh), thresholds.probe_radii()))


def record_of(state, kinetic_cum, thresholds):
    """energy_functionals' record of `state` on the operators run_flow builds."""
    return energy_functionals(state, kinetic_cum, *record_operators(state.mesh, thresholds),
                              thresholds)


def sequential_run(state, schedule, thresholds):
    """(records, crossing_points, underflow_times, solver stats) of
    run_flow(state, schedule, thresholds), every record measured on the
    calling thread as soon as its state exists, with the states it records
    picked by run_flow's rules written out: the start, every diag_stride-th
    step, each forced step's start and the forced step itself, and the end,
    each state once."""
    mesh = state.mesh
    L, probes = record_operators(mesh, thresholds)
    records, points, underflow, kin = [], {}, [], 0.0

    def record(st):
        if records and records[-1].step_count == st.step_count:
            return
        records.append(energy_functionals(st, kin, L, probes, thresholds))

    record(state)
    for (new,), forced in march([state], schedule.t_end):
        if forced:
            underflow.append(float(state.t))
            record(state)
        kin += new.last_rate ** 2 * new.last_dt
        state = new
        if forced or state.step_count % schedule.diag_stride == 0:
            record(state)
    record(state)
    for rec in records:
        for c in rec.crossings:
            points.setdefault(c, [float(x) for x in mesh.vertices[c]])
    return records, points, underflow, copy.deepcopy(state.ctx.stats)
