import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import warpflow.mesh
import warpflow.scenario
from brute_force import (ball_energy, disk_points, eager_averages, edge_table, nearest_vertex,
                         square_lattice, weighted_stiffness)
from warpflow.boundary import boundary_data_from_presets
from warpflow.diagnostics import ThresholdConfig
from warpflow.errors import InvalidShapeParameters, NonPositiveCoefficient
from warpflow.geometry import make_target
from warpflow.mesh import (BallIndex, DomainMesh, LatticeBalls, ball_rows, ball_triangles,
                           build_mesh, check_shape, dirichlet_energy, dump_mesh,
                           local_energy_matrix, tri_energy_density,
                           triangle_mean, write_snapshot)
from warpflow.flow import default_probe_centers
from warpflow.scenario import twin_run


# -- constructors -----------------------------------------------------------

def test_square_at_half_h():
    m = build_mesh("square", 0.5)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert m.domain_area == pytest.approx(1.0, abs=1e-15)
    assert m.boundary.sum() == 8          # all but the center vertex
    assert m.h == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_disk_structured_counts():
    # rings of 6k points around a center vertex; Delaunay of a convex set
    m = build_mesh("disk", 0.5)
    nr = 2
    assert m.num_vertices == 1 + 3 * nr * (nr + 1)
    assert m.num_triangles == 6 * nr * nr
    assert m.boundary.sum() == 6 * nr


def test_annulus_lattice_counts():
    m = build_mesh("annulus", 0.125, r_in=0.5, r_out=1.0)
    assert m.num_vertices == 320          # (nr + 1) * ntheta = 5 * 64
    assert m.num_triangles == 512         # 2 * ntheta * nr
    assert m.boundary.sum() == 128        # the two rims


@pytest.mark.parametrize("shape,kwargs,h", [
    ("square", {}, 0.125), ("square", {}, 0.4),
    ("disk", {}, 0.25), ("disk", {}, 0.3),
    ("annulus", dict(r_in=0.5, r_out=1.0), 0.125),
    ("annulus", dict(r_in=0.3, r_out=1.2), 0.11),
])
def test_refinement_quadruples_triangles(shape, kwargs, h):
    coarse = build_mesh(shape, h, **kwargs)
    fine = build_mesh(shape, h / 2.0, **kwargs)
    assert fine.num_triangles == 4 * coarse.num_triangles


@pytest.mark.parametrize("shape,kwargs,h", [
    ("square", {}, 1.0 / 16.0), ("square", {}, 0.3),
    ("disk", {}, 1.0 / 16.0), ("disk", {}, 0.09),
    ("annulus", dict(r_in=0.5, r_out=1.0), 0.1),
])
def test_edge_length_budget(shape, kwargs, h):
    m = build_mesh(shape, h, **kwargs)
    assert m.h <= 1.5 * h
    assert np.all(m.areas > 0)


def test_shape_guards():
    with pytest.raises(InvalidShapeParameters):
        build_mesh("square", 0.0)
    with pytest.raises(InvalidShapeParameters):
        build_mesh("square", 1.2)
    with pytest.raises(InvalidShapeParameters, match="too coarse"):
        build_mesh("square", 1.0)             # one cell a side: no interior vertex
    with pytest.raises(InvalidShapeParameters):
        build_mesh("disk", 0.6)
    with pytest.raises(InvalidShapeParameters):
        build_mesh("annulus", 0.05, r_in=1.0, r_out=0.5)
    with pytest.raises(InvalidShapeParameters):
        build_mesh("annulus", 0.05)           # radii required
    with pytest.raises(InvalidShapeParameters):
        build_mesh("annulus", 0.4, r_in=0.5, r_out=1.0)  # too coarse radially
    with pytest.raises(InvalidShapeParameters):
        build_mesh("hexagon", 0.1)


@pytest.mark.parametrize("shape, kwargs", [("square", {}), ("disk", {}),
                                           ("annulus", {"r_in": 0.5, "r_out": 1.0})])
@pytest.mark.parametrize("h", [1e-4, 1 / 1024, 5e-324])
def test_a_mesh_past_max_vertices_is_refused_before_it_is_built(shape, kwargs, h):
    # h = 1e-4 gives the square 268M vertices; 5e-324 a cell count past the floats
    with pytest.raises(InvalidShapeParameters, match="too fine"):
        build_mesh(shape, h, **kwargs)


def test_max_vertices_is_the_square_at_h_1_512():
    assert warpflow.mesh.MAX_VERTICES == 513 ** 2
    check_shape("square", 1 / 512)
    check_shape("disk", 1 / 256)                  # 197377 vertices
    with pytest.raises(InvalidShapeParameters, match="too fine"):
        check_shape("square", 1 / 512 * (1 - 1e-9))


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    with pytest.raises(InvalidShapeParameters):
        DomainMesh(verts, tris, shape="square", target_h=1.0)


def test_nonconforming_mesh_rejected():
    # three triangles sharing the edge (0, 1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [0.0, -1.0], [0.5, 1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(InvalidShapeParameters):
        DomainMesh(verts, tris, shape="square", target_h=1.0)


# the benchmark's square at h = 1/128; the disk and annulus at 1/64 to keep
# the suite quick (their edge table is the same code at every size)
@pytest.mark.parametrize("shape, h, kwargs", [
    ("square", 1 / 128, {}), ("square", 0.3, {}), ("disk", 1 / 64, {}),
    ("disk", 0.3, {}), ("annulus", 1 / 64, {"r_in": 0.5, "r_out": 1.0}),
    ("annulus", 0.3, {"r_in": 0.3, "r_out": 1.2}),
])
def test_meshes_match_the_per_cell_lattice_and_row_wise_edge_table(shape, h, kwargs,
                                                                    monkeypatch):
    m = build_mesh(shape, h, **kwargs)
    # check_shape's closed-form vertex count is the mesh's: a bound of
    # exactly that many passes it, one fewer refuses it
    monkeypatch.setattr(warpflow.mesh, "MAX_VERTICES", m.num_vertices)
    check_shape(shape, h, **kwargs)
    monkeypatch.setattr(warpflow.mesh, "MAX_VERTICES", m.num_vertices - 1)
    with pytest.raises(InvalidShapeParameters, match="too fine"):
        check_shape(shape, h, **kwargs)
    # grad_op's data are d_e lambda_a in triangle-vertex order, as its entries say
    nt, t = m.num_triangles, m.triangles
    entries = m.grad_op[np.repeat(np.arange(2 * nt), 3), np.repeat(t, 2, axis=0).ravel()]
    assert np.array_equal(m.grad_op.data, np.asarray(entries).ravel())
    if shape == "square":
        verts, tris = square_lattice(h)
        assert np.array_equal(m.vertices, verts)
        assert m.triangles.dtype == tris.dtype and np.array_equal(m.triangles, tris)
    if shape == "disk":                   # Delaunay then gives the same triangles
        assert np.array_equal(m.vertices, disk_points(h))
    boundary, max_edge = edge_table(m)
    assert np.array_equal(m.boundary, boundary)
    assert m.h == max_edge


def _max_off_diagonal(mesh):
    K = mesh.stiffness.tocoo()
    return K.data[K.row != K.col].max() / np.abs(K.data).max()


# the meshes of the shipped scenarios, of the tests' annulus and of the
# benchmark workloads (bubbling's disk, the square at h = 1/128)
@pytest.mark.parametrize("shape, h, kwargs", [
    ("square", 1 / 16, {}), ("square", 1 / 32, {}), ("square", 1 / 64, {}),
    ("square", 1 / 128, {}), ("disk", 1 / 16, {}), ("disk", 1 / 32, {}),
    ("annulus", 1 / 8, {"r_in": 0.5, "r_out": 1.0}),
    ("annulus", 1 / 32, {"r_in": 0.5, "r_out": 1.0}),
])
def test_built_meshes_are_weakly_acute(shape, h, kwargs):
    assert _max_off_diagonal(build_mesh(shape, h, **kwargs)) <= warpflow.mesh.WEAKLY_ACUTE_RTOL


def test_obtuse_mesh_is_refused(monkeypatch):
    # a fan around an interior vertex pushed close to the bottom edge: the
    # angle opposite that boundary edge is obtuse
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.1]])
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    obtuse = DomainMesh(verts, tris, shape="square", target_h=1.0)
    assert _max_off_diagonal(obtuse) > 0.0
    monkeypatch.setattr(warpflow.mesh, "_square_mesh", lambda h: obtuse)
    with pytest.raises(InvalidShapeParameters, match="weakly acute"):
        build_mesh("square", 0.75)       # within the edge budget, above one cell a side


# -- geometry of the builders ------------------------------------------------

def test_square_boundary_detection(square16):
    xy = square16.vertices
    on_rim = (np.isclose(xy[:, 0], 0) | np.isclose(xy[:, 0], 1)
              | np.isclose(xy[:, 1], 0) | np.isclose(xy[:, 1], 1))
    assert np.array_equal(square16.boundary, on_rim)


def test_disk_boundary_on_unit_circle(disk16):
    r = np.linalg.norm(disk16.vertices[disk16.boundary], axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)
    inner = np.linalg.norm(disk16.vertices[~disk16.boundary], axis=1)
    assert inner.max() < 1.0 - 1e-6


def test_annulus_boundary_rings(annulus8):
    r = np.linalg.norm(annulus8.vertices[annulus8.boundary], axis=1)
    near_rim = np.isclose(r, 0.5, atol=1e-12) | np.isclose(r, 1.0, atol=1e-12)
    assert near_rim.all()


def test_disk_area_converges():
    # inscribed polygon: area defect positive and O(h^2); prefactor ~0.57
    for h in (0.125, 0.0625):
        m = build_mesh("disk", h)
        defect = np.pi - m.domain_area
        assert 0.0 < defect <= 0.75 * h * h


def test_lumped_mass_partitions_area(square16, disk16):
    for m in (square16, disk16):
        assert np.isclose(m.lumped_mass.sum(), m.domain_area, atol=1e-13)
        assert np.all(m.lumped_mass > 0)


def test_nearest_vertex(square16):
    idx = nearest_vertex(square16, [0.49, 0.52])
    assert np.allclose(square16.vertices[idx], [0.5, 0.5])


# -- P1 operators ------------------------------------------------------------

def test_tri_gradients_exact_for_linear(square16):
    xy = square16.vertices
    f = 2.0 * xy[:, 0] - 3.0 * xy[:, 1]
    G = square16.tri_gradients(f)
    assert np.allclose(G, np.tile([2.0, -3.0], (square16.num_triangles, 1)),
                       atol=1e-12)


def test_dirichlet_energy_linear_exact(square16, annulus8):
    # |grad x|^2 = 1 everywhere, so the energy is half the domain area
    for m in (square16, annulus8):
        e = dirichlet_energy(m, m.vertices[:, 0])
        assert e == pytest.approx(0.5 * m.domain_area, rel=1e-13)


def test_dirichlet_energy_quadratic_on_disk():
    # continuum value of (1/2) int |grad(x^2 - y^2)|^2 over the unit disk is pi;
    # the interpolant misses it by O(h^2) with prefactor ~0.9
    for h in (0.125, 0.0625):
        m = build_mesh("disk", h)
        e = dirichlet_energy(m, m.vertices[:, 0] ** 2 - m.vertices[:, 1] ** 2)
        assert abs(e - np.pi) <= 1.5 * h * h


def test_vector_field_energy_adds_components(square16):
    xy = square16.vertices
    u = np.column_stack([xy[:, 0], 2.0 * xy[:, 1]])
    assert dirichlet_energy(square16, u) == pytest.approx(0.5 + 2.0, rel=1e-13)


def test_integration_by_parts_identity(square16):
    # w^T K u equals the weighted-gradient inner product, by construction
    rng = np.random.default_rng(7)
    beta = 1.0 + 0.3 * square16.vertices[:, 0]
    K = weighted_stiffness(square16, beta)
    u = rng.standard_normal(square16.num_vertices)
    w = rng.standard_normal(square16.num_vertices)
    lhs = float(w @ (K @ u))
    tri_beta = beta[square16.triangles].mean(axis=1)
    Gu = square16.tri_gradients(u)
    Gw = square16.tri_gradients(w)
    rhs = float(np.sum(tri_beta * square16.areas * np.sum(Gu * Gw, axis=1)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_stiffness_annihilates_constants(square16):
    K = square16.stiffness
    r = K @ np.ones(square16.num_vertices)
    assert np.max(np.abs(r)) < 1e-12


def test_weighted_stiffness_rejects_nonpositive(square16):
    # every beta weighting goes through triangle_mean; NaN <= 0 is False,
    # so NaN has to be refused explicitly
    for bad in (0.0, -1.0, np.nan):
        beta = np.ones(square16.num_vertices)
        beta[3] = bad
        with pytest.raises(NonPositiveCoefficient):
            triangle_mean(square16, beta)


def _ulps(new, old):
    """Largest |new - old| in units of the last place of old."""
    return float(np.max(np.abs(new - old) / np.spacing(np.abs(old))))


@pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
def test_averaging_operators_match_the_scatter_and_the_mean(mesh_name, request):
    m = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(5)
    for _ in range(3):
        q = 0.1 + rng.random(m.num_triangles)       # positive, like |grad u|^2
        acc = np.zeros(m.num_vertices)
        np.add.at(acc, m.triangles.ravel(), np.repeat(m.areas * q / 3.0, 3))
        assert _ulps(m.nodal_from_tri(q), acc / m.lumped_mass) <= 4.0
        beta = 0.5 + rng.random(m.num_vertices)
        assert _ulps(triangle_mean(m, beta), beta[m.triangles].mean(axis=1)) <= 4.0
    # the nodal average of a constant is that constant (rows sum to one)
    assert np.allclose(m.nodal_from_tri(np.full(m.num_triangles, 2.5)), 2.5,
                       rtol=4 * np.finfo(float).eps, atol=0.0)


AVERAGES = ("barycenters", "tri_mean_op", "nodal_mean_op")


def test_a_twin_run_builds_none_of_the_mesh_averages(monkeypatch):
    # stability_twin (torus target, constant warp, no records) reads none of them
    meshes, real = [], warpflow.scenario.build_mesh

    def build(*args, **kwargs):
        meshes.append(real(*args, **kwargs))
        return meshes[-1]
    monkeypatch.setattr(warpflow.scenario, "build_mesh", build)
    twin_run("stability_twin")
    assert len(meshes) == 1
    assert not set(AVERAGES) & set(vars(meshes[0]))


@pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
def test_mesh_averages_built_on_first_use_equal_the_eager_formulas(mesh_name, request):
    m = request.getfixturevalue(mesh_name)
    m = DomainMesh(m.vertices.copy(), m.triangles.copy(), m.shape, m.target_h)
    assert not set(AVERAGES) & set(vars(m))
    for name, ref in zip(AVERAGES, eager_averages(m)):
        got = getattr(m, name)
        assert getattr(m, name) is got          # built once, then kept
        if sp.issparse(ref):
            assert got.shape == ref.shape
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got, part), getattr(ref, part)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, part)
        else:
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def test_laplacian_exact_on_quadratic(square16):
    # structured diagonal split reproduces the five-point stencil, which is
    # exact on quadratics: lap(x^2 + y^2) = 4 at interior nodes
    f = square16.vertices[:, 0] ** 2 + square16.vertices[:, 1] ** 2
    lap = square16.laplacian(f, square16.stiffness @ f)
    assert np.max(np.abs(lap[square16.interior] - 4.0)) < 1e-10
    assert np.array_equal(lap[square16.boundary], np.zeros(square16.boundary.sum()))


# -- balls -------------------------------------------------------------------

def test_ball_membership_nested(disk16):
    center = [0.0, 0.0]
    small = ball_triangles(disk16, center, 0.2)
    big = ball_triangles(disk16, center, 0.4)
    assert set(small) <= set(big)
    assert ball_energy(disk16, disk16.vertices[:, 0] ** 2, center, 0.2) <= \
        ball_energy(disk16, disk16.vertices[:, 0] ** 2, center, 0.4) + 1e-15


def test_ball_covers_domain(disk16):
    allt = ball_triangles(disk16, [0.0, 0.0], 3.0)
    assert np.array_equal(allt, np.arange(disk16.num_triangles))
    f = disk16.vertices[:, 0] ** 2
    assert ball_energy(disk16, f, [0.0, 0.0], 3.0) == \
        pytest.approx(dirichlet_energy(disk16, f), rel=1e-14)


@pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
def test_probe_rows_match_ball_energy(mesh_name, request):
    m = request.getfixturevalue(mesh_name)
    f = np.sin(3.0 * m.vertices[:, 0]) * m.vertices[:, 1]
    centers = default_probe_centers(m)
    radii = ThresholdConfig(r_detect=0.05).probe_radii()
    rows = ball_rows(m, centers, radii)
    assert rows.shape == (len(centers) * len(radii), m.num_triangles)
    energies = iter(rows @ tri_energy_density(m, m.tri_grad_sq(f)))
    for c in centers:
        for r in radii:
            assert next(energies) == pytest.approx(ball_energy(m, f, m.vertices[c], r),
                                                   abs=1e-15)


def test_probe_energies_keep_relative_accuracy_next_to_a_bubble():
    # a small ball in the cell row of a concentrated bubble: sums taken as
    # differences of per-row prefix sums missed by 4.9e-13 relative here
    # (vertex 331, r = 0.05); direct membership rows sum only the ball
    m = build_mesh("disk", 1.0 / 32.0)
    bd = boundary_data_from_presets(m, make_target("sphere"), "north_pole",
                                    "inv_stereographic rho=0.01 center=0,0",
                                    "constant value=0")
    dens = tri_energy_density(m, m.tri_grad_sq(bd.phi0))
    centers = default_probe_centers(m)
    radii = ThresholdConfig(r_detect=0.05).probe_radii()
    energies = iter(ball_rows(m, centers, radii) @ dens)
    for c in centers:
        for r in radii:
            exact = math.fsum(dens[ball_triangles(m, m.vertices[c], r)].tolist())
            assert next(energies) == pytest.approx(exact, rel=1e-14, abs=0.0), (c, r)


def test_local_energy_matrix_rows(disk16):
    f = disk16.vertices[:, 0] ** 2 - disk16.vertices[:, 1]
    dens = tri_energy_density(disk16, disk16.tri_grad_sq(f))
    vertices = (0, 7, nearest_vertex(disk16, [0.5, 0.0]), disk16.num_vertices - 1)
    for radius in (0.1, 0.15, 0.2):
        local = BallIndex.build(disk16, radius) @ dens
        assert local.shape == (disk16.num_vertices,)
        for vid in vertices:
            direct = ball_energy(disk16, f, disk16.vertices[vid], radius)
            assert local[vid] == pytest.approx(direct, abs=1e-15)


def _membership(L, num_triangles):
    """The 0/1 matrix of L: its ball sums of every unit vector e_t."""
    return np.column_stack([L @ e for e in np.eye(num_triangles)])


def _brute_force(m, radius):
    d = m.vertices[:, None, :] - m.barycenters[None, :, :]
    return (d[:, :, 0] ** 2 + d[:, :, 1] ** 2) <= radius * radius


@pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
@pytest.mark.parametrize("radius", [0.02, 0.1, 0.237])
def test_local_energy_matrix_matches_brute_force(mesh_name, radius, request,
                                                 monkeypatch):
    m = request.getfixturevalue(mesh_name)
    monkeypatch.setattr(warpflow.mesh, "LOCAL_ENERGY_BLOCK", 7)   # many blocks
    L = local_energy_matrix(m, radius)
    assert np.array_equal(_membership(L, m.num_triangles), _brute_force(m, radius))


@pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
def test_ball_covering_the_domain_holds_every_triangle(mesh_name, request):
    m = request.getfixturevalue(mesh_name)
    L = local_energy_matrix(m, 3.0)
    assert np.array_equal(_membership(L, m.num_triangles),
                          np.ones((m.num_vertices, m.num_triangles)))


@pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
def test_ball_of_any_width_holds_every_triangle(mesh_name, request):
    # the radius is clamped to the bounding-box diagonal: at 1e200 the cell
    # half-widths were inf and cast to int64
    m = request.getfixturevalue(mesh_name)
    L = local_energy_matrix(m, 1e200)
    assert np.array_equal(_membership(L, m.num_triangles),
                          np.ones((m.num_vertices, m.num_triangles)))


def test_a_radius_that_ties_a_lattice_distance_takes_the_ball_index(square16):
    # sqrt(5) h / 3 is the distance from a vertex to its nearest barycenters:
    # float rounding in ball_triangles decides each of them
    radius = math.sqrt(5.0) / 3.0 / 16.0
    L = local_energy_matrix(square16, radius)
    assert isinstance(L, BallIndex)
    assert np.array_equal(_membership(L, square16.num_triangles),
                          _brute_force(square16, radius))


def _look_alike_squares():
    """Two square meshes on the h = 1/8 lattice's vertices that are not its
    numbering: the other diagonal in every cell, and its triangles shuffled."""
    verts, tris = square_lattice(1 / 8)
    other = np.column_stack([tris[0::2, 0], tris[0::2, 1], tris[1::2, 2],
                             tris[0::2, 1], tris[0::2, 2], tris[1::2, 2]]).reshape(-1, 3)
    shuffled = tris[np.random.default_rng(5).permutation(len(tris))]
    return {"other_diagonal": other, "shuffled": shuffled}, verts


@pytest.mark.parametrize("kind", ["other_diagonal", "shuffled"])
def test_a_square_that_is_not_the_lattice_takes_the_ball_index(kind):
    # LatticeBalls reads the lattice's own vertex and triangle numbering: on
    # these meshes its sums were off by up to 1.69 and 5.44 (largest sum 21.5)
    tris, verts = _look_alike_squares()
    m = DomainMesh(verts.copy(), tris[kind].copy(), shape="square", target_h=1 / 8)
    L = local_energy_matrix(m, 0.3)
    assert isinstance(L, BallIndex)
    assert np.array_equal(_membership(L, m.num_triangles), _brute_force(m, 0.3))


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
def test_lattice_ball_sums_match_the_ball_index(h):
    m = build_mesh("square", h)
    L, B = local_energy_matrix(m, 0.1), BallIndex.build(m, 0.1)
    assert isinstance(L, LatticeBalls) and L.nnz == 2 * len(L.runs)
    f = np.sin(3.0 * m.vertices[:, 0]) * np.cos(2.0 * m.vertices[:, 1])
    dens = tri_energy_density(m, m.tri_grad_sq(f))
    exact = B @ dens
    assert np.max(np.abs(L @ dens - exact) / exact) <= 1e-14
    # a sharp spike on a faint background, the threshold just below it: the
    # crossings are the vertices whose ball holds the spike
    t = m.num_triangles // 2 + 7
    spiked = 1e-6 * dens / dens.max()
    spiked[t] = 1.0
    crossings = [np.flatnonzero(op @ spiked > 1.0 - 1e-12) for op in (L, B)]
    assert np.array_equal(crossings[0], crossings[1])
    assert np.array_equal(crossings[0], np.flatnonzero(_brute_force(m, 0.1)[:, t]))


def test_lattice_ball_sums_keep_no_operator():
    # the square's ball sums keep their runs only: the ball index kept ~3 MiB here
    m = build_mesh("square", 1.0 / 64.0)
    tracemalloc.start()
    try:
        L = local_energy_matrix(m, 0.1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(L, LatticeBalls)
    assert kept < 64 * 1024


# the three tests below check the ball index itself, which the disk and the
# annulus use; on the square, local_energy_matrix takes the lattice

def test_local_energy_matrix_keeps_empty_rows(square16, monkeypatch):
    monkeypatch.setattr(warpflow.mesh, "LOCAL_ENERGY_BLOCK", 5)
    # below the nearest barycenter distance of the two corner vertices
    radius = 0.5 * square16.h / np.sqrt(2.0)
    L = BallIndex.build(square16, radius)
    member = _membership(L, square16.num_triangles)
    assert np.array_equal(member, _brute_force(square16, radius))
    empty = ~member.any(axis=1)
    assert 0 < np.count_nonzero(empty) < square16.num_vertices
    assert L.op.shape[0] == square16.num_vertices
    assert L.nnz == L.op.indptr[-1] == len(L.op.indices)


def test_local_energy_matrix_is_a_fraction_of_the_membership_lists():
    # the square at h = 1/128 with r = 0.1 (warp_coupled_fine) holds
    # 15,683,200 (vertex, triangle-in-ball) pairs
    m = build_mesh("square", 1.0 / 128.0)
    assert BallIndex.build(m, 0.1).nnz <= 15_683_200 / 4


def test_local_energy_matrix_memory_stays_near_its_size():
    # the build may not hold much more than the arrays of the operator it returns
    m = build_mesh("square", 1.0 / 64.0)
    tracemalloc.start()
    try:
        L = BallIndex.build(m, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (L.op.data.nbytes + L.op.indices.nbytes + L.op.indptr.nbytes
                          + L.cells.nbytes)


# -- plain-text formats ------------------------------------------------------

def test_dump_mesh_round_trip(tmp_path):
    m = build_mesh("square", 0.5)
    path = tmp_path / "mesh.txt"
    dump_mesh(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "9 8"
    assert len(lines) == 1 + 9 + 8 + 1
    coords = np.array([[float(t) for t in ln.split()] for ln in lines[1:10]])
    assert np.array_equal(coords, m.vertices)    # %.17g round-trips exactly
    tris = np.array([[int(t) for t in ln.split()] for ln in lines[10:18]])
    assert np.array_equal(tris, m.triangles)
    flags = np.array([int(t) for t in lines[18].split()], dtype=bool)
    assert np.array_equal(flags, m.boundary)


def test_write_snapshot_round_trip(tmp_path):
    m = build_mesh("square", 0.5)
    rng = np.random.default_rng(8)
    u = rng.standard_normal((m.num_vertices, 3))
    v = rng.standard_normal(m.num_vertices)
    path = tmp_path / "snap.txt"
    write_snapshot(m, u, v, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"{m.num_vertices} 4"
    data = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    assert np.array_equal(data[:, :3], u)
    assert np.array_equal(data[:, 3], v)


def _dump_mesh_per_row(mesh, path):
    """The row-at-a-time writer dump_mesh must match byte for byte."""
    with open(path, "w") as f:
        f.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            f.write(f"{i} {j} {k}\n")
        f.write(" ".join("1" if b else "0" for b in mesh.boundary) + "\n")


def _write_snapshot_per_row(mesh, u, v, path):
    """The row-at-a-time writer write_snapshot must match byte for byte."""
    with open(path, "w") as f:
        f.write(f"{mesh.num_vertices} {u.shape[1] + 1}\n")
        for i in range(mesh.num_vertices):
            row = [f"{x:.17g}" for x in u[i]] + [f"{v[i]:.17g}"]
            f.write(" ".join(row) + "\n")


@pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
def test_writers_match_the_row_at_a_time_output(mesh_name, request, tmp_path):
    m = request.getfixturevalue(mesh_name)
    dump_mesh(m, tmp_path / "a.txt")
    _dump_mesh_per_row(m, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    rng = np.random.default_rng(9)
    for k in (2, 3):
        u = rng.standard_normal((m.num_vertices, k)) * 10.0 ** rng.integers(-20, 20, (1, k))
        v = rng.standard_normal(m.num_vertices)
        write_snapshot(m, u, v, tmp_path / "a.txt")
        _write_snapshot_per_row(m, u, v, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@pytest.mark.parametrize("shape", ["square", "disk"])
def test_writers_hold_no_whole_file_transient(shape, tmp_path):
    # at h = 1/64 (4225 and 12481 vertices: more than one block of rows) the
    # writers that joined the whole file first peaked at 2.25 and 7.15 MiB
    # (dump_mesh) and 1.33 and 3.93 MiB (write_snapshot); a block of rows
    # peaks near 1.0 and 1.3 MiB, whatever the mesh size
    m = build_mesh(shape, 1 / 64)
    rng = np.random.default_rng(10)
    u, v = rng.standard_normal((m.num_vertices, 3)), rng.standard_normal(m.num_vertices)
    for write, per_row in ((lambda p: dump_mesh(m, p), lambda p: _dump_mesh_per_row(m, p)),
                           (lambda p: write_snapshot(m, u, v, p),
                            lambda p: _write_snapshot_per_row(m, u, v, p))):
        tracemalloc.start()
        try:
            write(tmp_path / "a.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20
        per_row(tmp_path / "b.txt")                 # across block boundaries too
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
