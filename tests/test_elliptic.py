import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from brute_force import weighted_stiffness
from warpflow.boundary import boundary_data_from_presets
from warpflow.elliptic import (WarpedBlock, cg_solve, dirichlet_split,
                               harmonic_extension, jacobi_preconditioner,
                               solve_warped_laplace)
from warpflow.errors import NonPositiveCoefficient, SolverFailure
from warpflow.geometry import make_target
from warpflow.mesh import build_mesh


class TestCgSolve:
    def test_matches_direct_solver(self, square16):
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        rng = np.random.default_rng(11)
        b = rng.standard_normal(ii.size)
        x, rel, iters = cg_solve(A, b)
        assert rel <= 1e-9
        assert iters > 0
        x_ref = spla.spsolve(A.tocsc(), b)
        assert np.allclose(x, x_ref, atol=1e-7)

    @staticmethod
    def _scipy_reference(A, b, x0, M):
        """scipy's CG under cg_solve's stopping rule: (x, iterations)."""
        count = [0]
        x, info = spla.cg(A, b, x0=x0, rtol=1e-10, atol=0.0, M=M,
                          maxiter=max(100, int(50 * np.sqrt(b.size))),
                          callback=lambda _: count.__setitem__(0, count[0] + 1))
        assert info == 0
        return x, count[0]

    @pytest.mark.parametrize("dt", [1e-2, 1e-4, 1e-7])
    @pytest.mark.parametrize("with_guess", [False, True])
    def test_jacobi_theta_step_matches_scipy(self, disk16, dt, with_guess):
        ii = disk16.interior
        A = (sp.diags(disk16.lumped_mass[ii]) + dt * disk16.stiffness[ii][:, ii]).tocsr()
        rng = np.random.default_rng(31)
        cols = rng.standard_normal((ii.size, 3))     # strided columns, as in a step
        b = cols[:, 0]
        x0 = cols[:, 1] + 1e-3 * cols[:, 2] if with_guess else None
        M = jacobi_preconditioner(A)
        x, rel, iters = cg_solve(A, b, x0=x0, M=M)
        x_ref, iters_ref = self._scipy_reference(A, b, x0, sp.diags(M))
        assert iters == iters_ref > 0
        assert np.max(np.abs(x - x_ref)) <= 1e-15 * np.max(np.abs(x_ref))
        assert rel < 1e-10

    def test_warped_block_factor_matches_scipy(self, disk16):
        x, y = disk16.vertices[:, 0], disk16.vertices[:, 1]
        block = WarpedBlock(disk16, np.cos(2.0 * np.arctan2(y, x)))
        block.split(1.0 + 0.5 * x)
        M = block.preconditioner()                  # the factor of the first beta
        A, load, _ = block.split(2.0 - 0.3 * y)
        b = -load
        xs, rel, iters = cg_solve(A, b, M=M)
        x_ref, iters_ref = self._scipy_reference(A, b, None,
                                                 spla.LinearOperator(A.shape, matvec=M))
        assert iters == iters_ref > 1
        assert np.max(np.abs(xs - x_ref)) <= 1e-15 * np.max(np.abs(x_ref))

    def test_zero_rhs_shortcut(self, square16):
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        x, rel, iters = cg_solve(A, np.zeros(ii.size))
        assert np.array_equal(x, np.zeros(ii.size))
        assert (rel, iters) == (0.0, 0)

    def test_empty_system(self, square16):
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        x, rel, iters = cg_solve(A[:0][:, :0], np.zeros(0))
        assert x.size == 0 and iters == 0

    def test_iteration_cap_raises(self, square16):
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        b = np.ones(ii.size)
        with pytest.raises(SolverFailure):
            cg_solve(A, b, maxiter=1, rtol=1e-14)


class TestSolveDirichlet:
    """The Dirichlet solve by elimination, as harmonic_extension runs it."""

    def test_reproduces_linear_data(self, square16):
        # x is discretely harmonic on any conforming mesh
        x = square16.vertices[:, 0]
        v = harmonic_extension(square16, x)
        assert np.max(np.abs(v - x)) < 1e-9
        residual = (square16.stiffness @ v)[square16.interior]
        assert np.max(np.abs(residual)) <= 1e-9

    def test_boundary_rows_exact(self, disk16):
        data = np.cos(3.0 * np.arctan2(disk16.vertices[:, 1],
                                       disk16.vertices[:, 0]))
        v = harmonic_extension(disk16, data)
        b = disk16.boundary
        assert np.array_equal(v[b], data[b])

    def test_discrete_maximum_principle(self, square16):
        # square mesh is non-obtuse: interior values stay inside the data range
        rng = np.random.default_rng(12)
        data = rng.random(square16.num_vertices)
        v = harmonic_extension(square16, data)
        lo, hi = data[square16.boundary].min(), data[square16.boundary].max()
        assert v.min() >= lo - 1e-9
        assert v.max() <= hi + 1e-9


class TestWarpedLaplace:
    def test_manufactured_solution_convergence(self):
        # beta = 1 + x/2, v* = sin(pi x) sin(pi y): second-order L2 convergence
        errs = []
        for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
            m = build_mesh("square", h)
            x, y = m.vertices[:, 0], m.vertices[:, 1]
            beta = 1.0 + 0.5 * x
            f = (2.0 * np.pi ** 2 * beta * np.sin(np.pi * x) * np.sin(np.pi * y)
                 - 0.5 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y))
            sol = solve_warped_laplace(m, beta, np.zeros(m.num_vertices),
                                       source=f)
            exact = np.sin(np.pi * x) * np.sin(np.pi * y)
            errs.append(np.sqrt(np.dot(m.lumped_mass, (sol.v - exact) ** 2)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= s <= 2.2 for s in slopes)

    def test_homogeneous_with_constant_data(self, square16):
        beta = 1.0 + 0.25 * square16.vertices[:, 1]
        psi = np.full(square16.num_vertices, 3.0)
        sol = solve_warped_laplace(square16, beta, psi)
        assert np.max(np.abs(sol.v - 3.0)) < 1e-9

    def test_flux_balance(self, square16):
        # weak form: K v annihilates interior test functions
        beta = 1.0 + 0.5 * square16.vertices[:, 0]
        psi = square16.vertices[:, 1]
        sol = solve_warped_laplace(square16, beta, psi)
        K = weighted_stiffness(square16, beta)
        residual = (K @ sol.v)[square16.interior]
        assert np.max(np.abs(residual)) < 1e-9

    def test_coefficient_doubling_invariance(self, square16):
        # -div(c beta grad v) = 0 has the same solution for any c > 0; with
        # c = 2 every CG intermediate scales exactly, so bitwise equality
        beta = 1.0 + 0.5 * square16.vertices[:, 0]
        psi = np.sin(2.0 * np.pi * square16.vertices[:, 0])
        a = solve_warped_laplace(square16, beta, psi)
        b = solve_warped_laplace(square16, 2.0 * beta, psi)
        assert np.array_equal(a.v, b.v)
        assert a.iterations == b.iterations

    def test_coefficient_scaling_invariance_general(self, square16):
        beta = 1.0 + 0.5 * square16.vertices[:, 0]
        psi = np.sin(2.0 * np.pi * square16.vertices[:, 0])
        a = solve_warped_laplace(square16, beta, psi)
        c = solve_warped_laplace(square16, 3.0 * beta, psi)
        assert np.max(np.abs(a.v - c.v)) < 1e-8


class TestWarpedBlock:
    @pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
    def test_reweighted_split_matches_assembly(self, mesh_name, request):
        m = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(21)
        psi = rng.standard_normal(m.num_vertices)
        block = WarpedBlock(m, psi)
        for _ in range(2):                      # the second call re-weights in place
            beta = 0.5 + rng.random(m.num_vertices)
            A, load, g = block.split(beta)
            A_ref, load_ref, g_ref = dirichlet_split(
                m, weighted_stiffness(m, beta), psi)
            assert spla.norm(A - A_ref) <= 1e-14 * spla.norm(A_ref)
            assert np.linalg.norm(load - load_ref) <= 1e-14 * np.linalg.norm(load_ref)
            assert np.array_equal(g, g_ref)

    def test_factor_preconditioned_solve_matches_jacobi(self, disk16):
        x, y = disk16.vertices[:, 0], disk16.vertices[:, 1]
        psi = np.cos(2.0 * np.arctan2(y, x))
        block = WarpedBlock(disk16, psi)
        first = solve_warped_laplace(disk16, 1.0 + 0.5 * x, psi, block=block)
        I = disk16.interior
        for beta in (1.0 + 0.5 * x + 0.2 * y * y, 2.0 - 0.3 * y):
            # reference: cg_solve's Jacobi default on the assembled split
            K = weighted_stiffness(disk16, beta)
            A, load, plain = dirichlet_split(disk16, K, psi)
            plain[I], _, jacobi_iters = cg_solve(A, -load)
            pre = solve_warped_laplace(disk16, beta, psi, block=block)
            assert pre.rel_residual <= 1e-10
            assert np.linalg.norm(pre.v - plain) <= 1e-9 * np.linalg.norm(plain)
            assert pre.iterations < jacobi_iters
        assert first.iterations <= 2            # the factor of its own beta

    def test_solve_without_a_block_equals_the_blocked_solve(self, square16):
        x, y = square16.vertices[:, 0], square16.vertices[:, 1]
        beta, psi = 1.0 + 0.5 * x, np.sin(2.0 * np.pi * y)
        own = solve_warped_laplace(square16, beta, psi)
        blocked = solve_warped_laplace(square16, beta, psi, block=WarpedBlock(square16, psi))
        assert np.array_equal(own.v, blocked.v)
        assert own.iterations == blocked.iterations

    def test_rejects_nonpositive_beta(self, square16):
        block = WarpedBlock(square16, np.zeros(square16.num_vertices))
        with pytest.raises(NonPositiveCoefficient):
            block.split(np.zeros(square16.num_vertices))

    def test_nan_beta_is_refused_not_solved(self, square16):
        # NaN <= 0 is False: a check written that way let one NaN vertex
        # through to a NaN potential with no SolverFailure
        beta = 1.0 + 0.5 * square16.vertices[:, 0]
        beta[square16.interior[3]] = np.nan
        psi = square16.vertices[:, 1]
        with pytest.raises(NonPositiveCoefficient):
            solve_warped_laplace(square16, beta, psi)
        with pytest.raises(NonPositiveCoefficient):
            WarpedBlock(square16, psi).split(beta)


class TestHarmonicExtension:
    def test_reproduces_linears(self, square16, disk16):
        for m in (square16, disk16):
            f = 1.0 + 2.0 * m.vertices[:, 0] - m.vertices[:, 1]
            ext = harmonic_extension(m, f)
            assert np.max(np.abs(ext - f)) < 1e-8

    @pytest.mark.parametrize("shape", ["square", "disk"])
    def test_harmonic_initial_map_is_the_extension_projected_once(self, shape):
        # the sphere projection is not idempotent bit for bit: a second pass
        # moves rows by an ulp
        m, sphere = build_mesh(shape, 1.0 / 32.0), make_target("sphere")
        bd = boundary_data_from_presets(m, sphere, "equator_circle kappa=1", "harmonic",
                                        "constant value=0")
        ext = harmonic_extension(m, bd.phi)
        assert np.array_equal(bd.phi_ext, ext)
        I, B = m.interior, m.boundary_index       # the boundary rows are phi's own
        assert np.array_equal(bd.phi0[I], sphere.project_field(ext)[I])
        assert np.array_equal(bd.phi0[B], bd.phi[B])

    def test_componentwise(self, square16):
        tr = np.column_stack([square16.vertices[:, 0],
                              np.ones(square16.num_vertices)])
        ext = harmonic_extension(square16, tr)
        assert ext.shape == tr.shape
        assert np.max(np.abs(ext[:, 0] - square16.vertices[:, 0])) < 1e-8
        assert np.max(np.abs(ext[:, 1] - 1.0)) < 1e-9

