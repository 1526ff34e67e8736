import numpy as np
import pytest

from warpflow.errors import DegeneratePoint, NonPositiveCoefficient
from warpflow.geometry import FlatTorus, UnitSphere, WarpFunction, make_target, warp_force


class TestUnitSphere:
    sph = UnitSphere()

    def test_project_normalizes(self):
        rng = np.random.default_rng(1)
        p = 3.0 * rng.standard_normal((40, 3))
        q = self.sph.project_field(p)
        assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-14)
        # projection is radial
        cross = np.cross(p, q)
        assert np.max(np.abs(cross)) < 1e-13

    def test_project_single_point(self):
        q = self.sph.project_field(np.array([[3.0, 0.0, 4.0]]))
        assert np.allclose(q, [[0.6, 0.0, 0.8]])

    def test_project_field_degenerate(self):
        vals = np.array([[1.0, 0.0, 0.0], [1e-9, 0.0, 0.0]])
        with pytest.raises(DegeneratePoint):
            self.sph.project_field(vals)

    def test_distance(self):
        p = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(self.sph.distance(p), [1.0, 0.0])

    def test_tangent_projection_orthogonal_and_idempotent(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((25, 3))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        X = rng.standard_normal((25, 3))
        Xt = self.sph.project_tangent(y, X)
        assert np.max(np.abs(np.sum(Xt * y, axis=1))) < 1e-14
        assert np.allclose(self.sph.project_tangent(y, Xt), Xt, atol=1e-15)

    def test_curvature_force(self):
        y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        g2 = np.array([2.0, 3.0])
        F = self.sph.curvature_force(y, g2)
        assert np.allclose(F, [[0.0, 2.0, 0.0], [3.0, 0.0, 0.0]])


class TestFlatTorus:
    tor = FlatTorus()

    def test_field_projection_is_identity_on_lifts(self):
        vals = np.array([[1.7, -0.3], [0.2, 0.9]])
        out = self.tor.project_field(vals)
        assert np.array_equal(out, vals)

    def test_distance_vanishes(self):
        p = np.array([[5.0, -2.0], [0.1, 0.2]])
        assert np.array_equal(self.tor.distance(p), [0.0, 0.0])

    def test_flat_curvature(self):
        y = np.array([[0.3, 0.4]])
        X = np.array([[1.0, 2.0]])
        assert np.array_equal(self.tor.project_tangent(y, X), X)
        assert np.array_equal(self.tor.curvature_force(y, np.array([7.0])),
                              [[0.0, 0.0]])


def test_make_target():
    assert make_target("sphere").embedding_dim == 3
    assert make_target("sphere", embedding_dim=4).embedding_dim == 4
    assert make_target("torus").kind == "torus"
    with pytest.raises(ValueError):
        make_target("hyperbolic")


class TestWarpFunction:
    def test_constant(self):
        w = WarpFunction("constant", 2.5)
        assert (w.lower, w.upper) == (2.5, 2.5)
        y = np.zeros((4, 3))
        assert np.array_equal(w.beta(y), np.full(4, 2.5))
        assert np.array_equal(w.grad_beta(y), np.zeros((4, 3)))

    def test_constant_positivity(self):
        with pytest.raises(NonPositiveCoefficient):
            WarpFunction("constant", 0.0)

    def test_linear_height(self):
        w = WarpFunction("linear_height", 2.0, 1.0)
        assert (w.lower, w.upper) == (1.0, 3.0)
        y = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        assert np.allclose(w.beta(y), [3.0, 1.0, 2.0])
        g = w.grad_beta(y)
        assert np.allclose(g, [[0, 0, 1.0]] * 3)

    def test_linear_height_bound_violation(self):
        with pytest.raises(NonPositiveCoefficient):
            WarpFunction("linear_height", 1.0, 1.0)   # lower bound hits zero

    def test_sinusoidal(self):
        w = WarpFunction("sinusoidal", 2.0, 0.5)
        assert (w.lower, w.upper) == (1.5, 2.5)
        y = np.array([[0.25, 0.0], [0.75, 0.3]])
        assert np.allclose(w.beta(y), [2.5, 1.5])
        g = w.grad_beta(y)
        assert np.allclose(g[:, 0], [0.0, 0.0], atol=1e-12)
        assert np.array_equal(g[:, 1], [0.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WarpFunction("quadratic", 1.0)


class TestWarpForce:
    def test_constant_warp_has_no_force(self):
        sph = UnitSphere()
        w = WarpFunction("constant", 1.0)
        y = np.random.default_rng(5).standard_normal((6, 3))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        F = warp_force(sph, w, y, np.arange(6.0))
        assert np.array_equal(F, np.zeros((6, 3)))

    def test_linear_height_force_on_sphere(self):
        # B = -b/2 e3; at the north pole B is normal, so the force vanishes;
        # on the equator B is already tangent.
        sph = UnitSphere()
        w = WarpFunction("linear_height", 2.0, 1.0)
        north = np.array([0.0, 0.0, 1.0])
        assert np.allclose(warp_force(sph, w, north, 3.0), 0.0, atol=1e-15)
        equator = np.array([1.0, 0.0, 0.0])
        assert np.allclose(warp_force(sph, w, equator, 3.0), [0.0, 0.0, -1.5])

    def test_force_scales_with_gradient_square(self):
        sph = UnitSphere()
        w = WarpFunction("linear_height", 2.0, 0.5)
        y = np.random.default_rng(6).standard_normal((5, 3))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        s = np.linspace(0.5, 2.5, 5)
        F1 = warp_force(sph, w, y, s)
        F2 = warp_force(sph, w, y, 2.0 * s)
        assert np.allclose(F2, 2.0 * F1)
        # force is tangential
        assert np.max(np.abs(np.sum(F1 * y, axis=1))) < 1e-15

    def test_sinusoidal_force_on_torus(self):
        tor = FlatTorus()
        w = WarpFunction("sinusoidal", 2.0, 0.5)
        y = np.array([[0.0, 0.0]])              # cos(0) = 1: grad = (2 pi b, 0)
        F = warp_force(tor, w, y, np.array([2.0]))
        assert np.allclose(F, [[-2.0 * np.pi * 0.5, 0.0]])
