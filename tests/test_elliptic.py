import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import warpflow.elliptic
from brute_force import weighted_stiffness
from warpflow.boundary import boundary_data_from_presets
from warpflow.elliptic import (WarpedBlock, cg_solve, dirichlet_split,
                               harmonic_extension, jacobi_preconditioner, lu_factor,
                               solve_warped_laplace)
from warpflow.errors import NonPositiveCoefficient, SolverFailure
from warpflow.geometry import make_target
from warpflow.mesh import build_mesh, triangle_mean


def _capture_solves(monkeypatch):
    """(A_II, right-hand side, preconditioner) of every CG solve in the
    elliptic module from now on, copied as a solve hands them to cg_solve."""
    seen = []
    real = warpflow.elliptic.cg_solve

    def capture(A, B, x0=None, M=None):
        seen.append((A.copy(), np.array(B), M))
        return real(A, B, x0=x0, M=M)

    monkeypatch.setattr(warpflow.elliptic, "cg_solve", capture)
    return seen


class TestCgSolve:
    def test_matches_direct_solver(self, square16):
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        rng = np.random.default_rng(11)
        b = rng.standard_normal(ii.size)
        x, rel, iters = cg_solve(A, b, jacobi_preconditioner(A))
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

    def test_warped_block_factor_matches_scipy(self, disk16, monkeypatch):
        x, y = disk16.vertices[:, 0], disk16.vertices[:, 1]
        block = WarpedBlock(disk16, np.cos(2.0 * np.arctan2(y, x)))
        block.solve(1.0 + 0.5 * x)
        solves = _capture_solves(monkeypatch)
        block.solve(2.0 - 0.3 * y)
        A, b, M = solves[0]                         # M: the factor of the first beta
        xs, rel, iters = cg_solve(A, b, M=M)
        x_ref, iters_ref = self._scipy_reference(A, b, None,
                                                 spla.LinearOperator(A.shape, matvec=M))
        assert iters == iters_ref > 1
        assert np.max(np.abs(xs - x_ref)) <= 1e-15 * np.max(np.abs(x_ref))

    def test_zero_rhs_shortcut(self, square16):
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        x, rel, iters = cg_solve(A, np.zeros(ii.size), jacobi_preconditioner(A))
        assert np.array_equal(x, np.zeros(ii.size))
        assert (rel, iters) == (0.0, 0)

    def test_empty_system(self, square16):
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        x, rel, iters = cg_solve(A[:0][:, :0], np.zeros(0), np.ones(0))
        assert x.size == 0 and iters == 0

    @pytest.mark.parametrize("preconditioner", ["jacobi", "factor"])
    def test_block_solve_is_its_column_solves(self, disk16, preconditioner):
        ii = disk16.interior

        def theta_matrix(dt):
            return (sp.diags(disk16.lumped_mass[ii]) + dt * disk16.stiffness[ii][:, ii]).tocsr()

        A = theta_matrix(1e-3)
        # the factor of another dt's matrix: CG still has iterations to take
        M = (jacobi_preconditioner(A) if preconditioner == "jacobi"
             else lu_factor(theta_matrix(1e-1)).solve)
        rng = np.random.default_rng(41)
        B = rng.standard_normal((ii.size, 3))
        X0 = B / disk16.lumped_mass[ii, None] + rng.standard_normal(B.shape)
        for x0 in (None, X0):
            X, rel, iters = cg_solve(A, B, x0=x0, M=M)
            cols = [cg_solve(A, B[:, d], x0=None if x0 is None else x0[:, d], M=M)
                    for d in range(3)]
            assert X.shape == B.shape
            assert np.array_equal(X, np.column_stack([c[0] for c in cols]))
            assert iters == sum(c[2] for c in cols) and min(c[2] for c in cols) > 1
            assert rel == max(c[1] for c in cols)
        B[:, 1] = 0.0                               # a zero column: zeros, in 0 iterations
        X, rel, iters = cg_solve(A, B, x0=X0, M=M)
        assert np.array_equal(X[:, 1], np.zeros(ii.size))
        kept = [cg_solve(A, B[:, d], x0=X0[:, d], M=M) for d in (0, 2)]
        assert np.array_equal(X[:, [0, 2]], np.column_stack([c[0] for c in kept]))
        assert iters == sum(c[2] for c in kept) and rel == max(c[1] for c in kept)

    def test_iteration_cap_raises(self, monkeypatch):
        # a tolerance no residual reaches: the CG runs to its cap, 50 sqrt(63^2)
        # iterations, and fails (at h = 1/64 its residual stays finite that long)
        monkeypatch.setattr(warpflow.elliptic, "CG_RTOL", 1e-300)
        mesh = build_mesh("square", 1 / 64)
        ii = mesh.interior
        A = mesh.stiffness[ii][:, ii].tocsr()
        with pytest.raises(SolverFailure, match="after 3150 iterations"):
            cg_solve(A, np.ones(ii.size), jacobi_preconditioner(A))

    def test_a_non_finite_rhs_raises_before_iterating(self, square16):
        ii = square16.interior
        b = np.ones(ii.size)
        b[ii.size // 2] = np.nan
        A = square16.stiffness[ii][:, ii].tocsr()
        with pytest.raises(SolverFailure, match="non-finite right-hand side"):
            cg_solve(A, b, jacobi_preconditioner(A))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_breakdown_raises(self, square16, monkeypatch):
        # at h = 1/16 the recursive residual underflows to zero first: alpha is
        # 0/0, the iterate turns NaN, and a NaN true residual is a failure
        monkeypatch.setattr(warpflow.elliptic, "CG_RTOL", 1e-300)
        ii = square16.interior
        A = square16.stiffness[ii][:, ii].tocsr()
        with pytest.raises(SolverFailure, match="residual nan after 750 iterations"):
            cg_solve(A, np.ones(ii.size), jacobi_preconditioner(A))


class TestSolveDirichlet:
    """The Dirichlet solve by elimination, as harmonic_extension runs it."""

    def test_reproduces_linear_data(self, square16):
        # x is discretely harmonic on any conforming mesh
        x = square16.vertices[:, 0]
        v, _ = harmonic_extension(square16, x)
        assert np.max(np.abs(v - x)) < 1e-9
        residual = (square16.stiffness @ v)[square16.interior]
        assert np.max(np.abs(residual)) <= 1e-9

    def test_boundary_rows_exact(self, disk16):
        data = np.cos(3.0 * np.arctan2(disk16.vertices[:, 1],
                                       disk16.vertices[:, 0]))
        v, _ = harmonic_extension(disk16, data)
        b = disk16.boundary
        assert np.array_equal(v[b], data[b])

    def test_discrete_maximum_principle(self, square16):
        # square mesh is non-obtuse: interior values stay inside the data range
        rng = np.random.default_rng(12)
        data = rng.random(square16.num_vertices)
        v, _ = harmonic_extension(square16, data)
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
    def test_reweighted_split_matches_assembly(self, mesh_name, request, monkeypatch):
        m = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(21)
        psi = rng.standard_normal(m.num_vertices)
        block = WarpedBlock(m, psi)
        solves = _capture_solves(monkeypatch)
        for _ in range(2):                      # the second call re-weights in place
            beta = 0.5 + rng.random(m.num_vertices)
            v = block.solve(beta).v
            A, rhs, _ = solves[-1]
            A_ref, load_ref, g_ref = dirichlet_split(
                m, weighted_stiffness(m, beta), psi)
            assert spla.norm(A - A_ref) <= 1e-14 * spla.norm(A_ref)
            assert np.linalg.norm(rhs + load_ref) <= 1e-14 * np.linalg.norm(load_ref)
            assert np.array_equal(v[m.boundary], g_ref[m.boundary])

    def test_factor_preconditioned_solve_matches_jacobi(self, disk16):
        x, y = disk16.vertices[:, 0], disk16.vertices[:, 1]
        psi = np.cos(2.0 * np.arctan2(y, x))
        block = WarpedBlock(disk16, psi)
        first = solve_warped_laplace(disk16, 1.0 + 0.5 * x, psi, block=block)
        I = disk16.interior
        for beta in (1.0 + 0.5 * x + 0.2 * y * y, 2.0 - 0.3 * y):
            # reference: Jacobi CG on the assembled split
            K = weighted_stiffness(disk16, beta)
            A, load, plain = dirichlet_split(disk16, K, psi)
            plain[I], _, jacobi_iters = cg_solve(A, -load, jacobi_preconditioner(A))
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
        # the solve returns the triangle beta it formed, read-only
        assert np.array_equal(own.beta_tri, triangle_mean(square16, beta))
        with pytest.raises(ValueError):
            own.beta_tri[0] = 1.0

    def test_rejects_nonpositive_beta(self, square16):
        block = WarpedBlock(square16, np.zeros(square16.num_vertices))
        with pytest.raises(NonPositiveCoefficient):
            block.solve(np.zeros(square16.num_vertices))

    def test_nan_beta_is_refused_not_solved(self, square16):
        # NaN <= 0 is False: a check written that way let one NaN vertex
        # through to a NaN potential with no SolverFailure
        beta = 1.0 + 0.5 * square16.vertices[:, 0]
        beta[square16.interior[3]] = np.nan
        psi = square16.vertices[:, 1]
        with pytest.raises(NonPositiveCoefficient):
            solve_warped_laplace(square16, beta, psi)
        with pytest.raises(NonPositiveCoefficient):
            WarpedBlock(square16, psi).solve(beta)


def _count_factors(monkeypatch):
    """A list that gains one entry per elliptic.lu_factor call from now on."""
    built, real = [], warpflow.elliptic.lu_factor
    monkeypatch.setattr(warpflow.elliptic, "lu_factor", lambda A: built.append(1) or real(A))
    return built


class TestHarmonicExtension:
    def test_reproduces_linears(self, square16, disk16):
        for m in (square16, disk16):
            f = 1.0 + 2.0 * m.vertices[:, 0] - m.vertices[:, 1]
            ext, factors = harmonic_extension(m, f)
            assert np.max(np.abs(ext - f)) < 1e-12 and factors == 1

    @pytest.mark.parametrize("value", [0.0, 3.0, -0.7])
    def test_a_constant_column_is_its_own_extension_and_builds_no_factor(
            self, disk16, value, monkeypatch):
        built = _count_factors(monkeypatch)
        ext, factors = harmonic_extension(disk16, np.full((disk16.num_vertices, 2), value))
        assert np.array_equal(ext, np.full((disk16.num_vertices, 2), value))
        assert factors == 0 and built == []
        # only boundary rows are read: interior values do not make a column vary
        trace = np.full(disk16.num_vertices, value)
        trace[disk16.interior] = np.arange(disk16.interior.size)
        ext, factors = harmonic_extension(disk16, trace)
        assert np.array_equal(ext, np.full(disk16.num_vertices, value))
        assert factors == 0 and built == []

    @pytest.mark.parametrize("mesh_name", ["square16", "disk16", "annulus8"])
    def test_varying_columns_match_jacobi_cg_by_one_factor(self, mesh_name, request,
                                                           monkeypatch):
        m = request.getfixturevalue(mesh_name)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        trace = np.column_stack([np.cos(3.0 * np.arctan2(y, x)), np.full(x.size, 2.0),
                                 x * y, np.zeros(x.size)])
        built = _count_factors(monkeypatch)
        ext, factors = harmonic_extension(m, trace)
        assert factors == len(built) == 1
        A, load, ref = dirichlet_split(m, m.stiffness, trace[:, [0, 2]])
        ref[m.interior], _, _ = cg_solve(A, -load, jacobi_preconditioner(A))
        assert np.max(np.abs(ext[:, [0, 2]] - ref)) <= 1e-9
        assert np.array_equal(ext[:, 1], np.full(x.size, 2.0))
        assert np.array_equal(ext[:, 3], np.zeros(x.size))
        B = m.boundary
        assert np.array_equal(ext[B], trace[B])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_trace_raises(self, square16, bad):
        trace = np.ones((square16.num_vertices, 2))
        trace[square16.boundary_index[3], 0] = bad
        with pytest.raises(SolverFailure, match="non-finite boundary data"):
            harmonic_extension(square16, trace)
        trace[:, 0] = bad                           # a constant column too
        with pytest.raises(SolverFailure, match="non-finite boundary data"):
            harmonic_extension(square16, trace)

    @pytest.mark.parametrize("phi, psi, factors", [
        ("equator_circle kappa=1", "linear_x", 1), ("north_pole", "linear_x", 1),
        ("equator_circle kappa=1", "constant value=0.5", 1),
        ("north_pole", "constant value=0", 0)])
    def test_one_build_makes_at_most_one_factor(self, disk16, phi, psi, factors, monkeypatch):
        # phi and psi are extended together: one factor if either varies
        built = _count_factors(monkeypatch)
        bd = boundary_data_from_presets(disk16, make_target("sphere"), phi, "harmonic", psi)
        assert bd.setup_factors == len(built) == factors
        assert bd.phi_ext.flags.c_contiguous and bd.psi_ext.flags.c_contiguous
        for ext, trace in ((bd.phi_ext, bd.phi), (bd.psi_ext, bd.psi)):
            assert np.max(np.abs(ext - harmonic_extension(disk16, trace)[0])) < 1e-15

    @pytest.mark.parametrize("shape", ["square", "disk"])
    def test_harmonic_initial_map_is_the_extension_projected_once(self, shape):
        # the sphere projection is not idempotent bit for bit: a second pass
        # moves rows by an ulp
        m, sphere = build_mesh(shape, 1.0 / 32.0), make_target("sphere")
        bd = boundary_data_from_presets(m, sphere, "equator_circle kappa=1", "harmonic",
                                        "constant value=0")
        ext, factors = harmonic_extension(m, bd.phi)
        assert np.array_equal(bd.phi_ext, ext)
        # the data keep the factors of both extensions: psi is constant, phi is not
        assert bd.setup_factors == factors == 1
        I, B = m.interior, m.boundary_index       # the boundary rows are phi's own
        assert np.array_equal(bd.phi0[I], sphere.project_field(ext)[I])
        assert np.array_equal(bd.phi0[B], bd.phi[B])

    @pytest.mark.parametrize("target", ["sphere", "torus"])
    def test_initial_map_shares_no_memory_with_the_extension(self, square16, target):
        # on the flat torus the projection returns its argument, so a harmonic
        # phi0 could alias phi_ext, and an edit of phi0 would move phi_ext
        tgt = make_target(target)
        trace = "equator_circle kappa=1" if target == "sphere" else "sine_bump amplitude=0.1"
        bd = boundary_data_from_presets(square16, tgt, trace, "harmonic", "constant value=0")
        assert not np.shares_memory(bd.phi0, bd.phi_ext)
        ext = bd.phi_ext.copy()
        bd.phi0[square16.interior] += 1.0
        assert np.array_equal(bd.phi_ext, ext)

    def test_componentwise(self, square16):
        tr = np.column_stack([square16.vertices[:, 0],
                              np.ones(square16.num_vertices)])
        ext, factors = harmonic_extension(square16, tr)
        assert ext.shape == tr.shape and factors == 1
        assert np.max(np.abs(ext[:, 0] - harmonic_extension(square16, tr[:, 0])[0])) < 1e-15
        assert np.max(np.abs(ext[:, 0] - square16.vertices[:, 0])) < 1e-12
        assert np.array_equal(ext[:, 1], np.ones(square16.num_vertices))


# the factor is built and measured in a fresh process, whose high-water mark
# before the call is its own; reads ru_maxrss in KiB and /proc/self/statm
_FACTOR_TRANSIENT = """
import json, os, resource
import numpy as np, scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from warpflow.elliptic import dirichlet_split, lu_factor
from warpflow.flow import StepperConfig
from warpflow.mesh import build_mesh

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20

def high_water():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

h, cfg = 1 / 128, StepperConfig()
mesh = build_mesh("square", h)
K_II = dirichlet_split(mesh, mesh.stiffness, np.zeros(mesh.num_vertices))[0]
A = (sp.diags(mesh.lumped_mass[mesh.interior])
     + (cfg.theta * cfg.dt_policy(h)[0]) * K_II).tocsr()
B = np.random.default_rng(4).standard_normal((A.shape[0], 3))
before = high_water()
lu = lu_factor(A)
after, kept = high_water(), rss()
X, ref = lu.solve(B), spsolve(A.tocsc(), B)
err = float(np.max(np.linalg.norm(X - ref, axis=0) / np.linalg.norm(ref, axis=0)))
print(json.dumps({"before": before, "after": after, "kept": kept, "err": err}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB and /proc/self/statm")
def test_a_factor_lifts_the_high_water_mark_no_higher_than_it_keeps():
    # SuperLU's default panel of 20 columns lifted the mark ~2.7 MiB above
    # both on this h = 1/128 step matrix
    src = Path(warpflow.elliptic.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-B", "-c", _FACTOR_TRANSIENT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout)
    assert m["after"] <= max(m["before"], m["kept"]) + 1.0, m
    assert m["err"] <= 1e-12, m
