"""Finite-element cross-checks: energies, torsion, eigenpair residuals."""

import gc
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from robinlab import (
    Domain,
    SolverError,
    TrigPoly,
    ellipse_domain,
    energy_series,
    fem_dirichlet_T,
    fem_robin_energy,
    oracle,
    rigidity,
    spectrum_annulus,
    spectrum_ball,
    spectrum_star2d,
    steklov_residual,
)


def square_torsion_series(side: float) -> float:
    """Double-Fourier value of the square torsion integral, frozen oracle."""
    s = 0.0
    for m in range(1, 120, 2):
        for n in range(1, 120, 2):
            s += 64.0 / (math.pi ** 6 * m * m * n * n * (m * m + n * n))
    return -side ** 4 * s


class TestRobinEnergy:
    def test_disc_both_signs(self, disc):
        sol = fem_robin_energy(disc, 1.0)
        assert sol.energy == pytest.approx(3 * math.pi / 8, abs=1e-5)
        assert abs(sol.energy - 3 * math.pi / 8) < 1e-7
        neg = fem_robin_energy(disc, -1.0)
        assert neg.energy == pytest.approx(-5 * math.pi / 8, abs=1e-5)

    def test_error_indicator_covers_truth(self, disc):
        sol = fem_robin_energy(disc, 1.0)
        assert abs(sol.energy - 3 * math.pi / 8) <= 10 * sol.error

    def test_ellipse_against_series(self, ellipse):
        sol = fem_robin_energy(ellipse, 0.5)
        series = energy_series(ellipse, 0.5, n_modes=32, M=256).E_total
        assert sol.energy == pytest.approx(series, abs=1e-6)

    def test_near_pole_flagged_by_indicator(self, ellipse):
        # alpha=2.0 sits close to the pole at 1.9576; accuracy degrades
        # and the Richardson jump must admit it
        sol = fem_robin_energy(ellipse, 2.0)
        series = energy_series(ellipse, 2.0, n_modes=32, M=256).E_total
        assert abs(sol.energy - series) < 1e-4
        assert sol.error > 1e-5

    def test_boundary_residual_first_order(self, disc):
        fine = fem_robin_energy(disc, 1.0)
        coarse = fem_robin_energy(disc, 1.0, h_max=0.13)
        assert 0 < fine.boundary_residual < coarse.boundary_residual

    def test_zero_alpha_rejected(self, disc):
        with pytest.raises(SolverError):
            fem_robin_energy(disc, 0.0)

    def test_solution_serializes(self, disc):
        sol = fem_robin_energy(disc, 1.0, h_max=0.2, levels=2)
        data = json.loads(sol.to_json())
        assert data["alpha"] == 1.0
        assert len(data["values"]) == len(data["coords"])
        assert data["energy"] == pytest.approx(sol.energy)


class TestDirichletTorsion:
    def test_disc(self, disc):
        assert fem_dirichlet_T(disc) == pytest.approx(-math.pi / 8, abs=1e-6)

    def test_square_against_double_series(self):
        side = math.sqrt(math.pi)
        rho = lambda t: (side / 2.0) / np.maximum(np.abs(np.cos(t)),
                                                  np.abs(np.sin(t)))
        got = fem_dirichlet_T(rho, h_max=0.05)
        assert got == pytest.approx(square_torsion_series(side), abs=1e-6)
        # same area as the unit disc but torsion strictly above -pi/8
        assert got > -math.pi / 8

    def test_ellipse_against_boundary_solve(self, ellipse):
        assert fem_dirichlet_T(ellipse) == pytest.approx(
            rigidity(ellipse, 256), abs=1e-6)


class TestSteklovResidual:
    def test_disc_analytic_basis(self):
        res = steklov_residual(spectrum_ball(2, 1.0, k_max=8))
        assert res == 0.0

    def test_ball3_analytic_basis(self):
        assert steklov_residual(spectrum_ball(3, 1.0, k_max=4)) < 1e-10

    def test_star_basis_first_ten(self, three_mode):
        basis = spectrum_star2d(three_mode, n_modes=16, M=256)
        res = steklov_residual(basis, sample_density=256, n_modes=10)
        assert res < 1e-5

    def test_residual_decreases_under_refinement(self, three_mode):
        basis = spectrum_star2d(three_mode, n_modes=12, M=256)
        r1 = steklov_residual(basis, sample_density=128, n_modes=6)
        r2 = steklov_residual(basis, sample_density=256, n_modes=6)
        assert r2 < r1

    def test_density_off_multiple_of_four(self, three_mode):
        # 130 boundary nodes round up to 132; the fine mesh must double
        # that, so its even nodes line up with the coarse ones
        basis = spectrum_star2d(three_mode, n_modes=12, M=256)
        r128 = steklov_residual(basis, sample_density=128, n_modes=6)
        r130 = steklov_residual(basis, sample_density=130, n_modes=6)
        assert r130 == pytest.approx(r128, rel=0.2)

    def test_annulus_unsupported(self):
        with pytest.raises(ValueError):
            steklov_residual(spectrum_annulus(3, 1.0, 0.5))


class TestMeshArguments:
    @pytest.mark.parametrize("kwargs", [
        {"h_max": 0.0}, {"h_max": -0.1}, {"h_max": math.nan},
        {"h_max": math.inf}, {"levels": 1},
    ])
    def test_rejected(self, disc, kwargs):
        with pytest.raises(ValueError):
            fem_dirichlet_T(disc, **kwargs)
        with pytest.raises(ValueError):
            fem_robin_energy(disc, 1.0, **kwargs)


class TestFactor:
    def test_singular_matrix_raises_solver_error(self):
        A = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SolverError):
            oracle._factor(A)

    def test_matches_colamd_spsolve_on_finest_disc_mesh(self, disc):
        assert_matches_colamd_spsolve(disc, 25601)

    def test_matches_colamd_spsolve_on_finest_star_mesh(self):
        assert_matches_colamd_spsolve(rmax_star(1.1), 31105)


def assert_matches_colamd_spsolve(d, nodes: int) -> None:
    """Robin and Dirichlet solves on d's finest mesh against a reference.

    The reference is SuperLU with its default COLAMD ordering on the
    assembly the oracle used before its stencil, with the free block
    picked by index sets.  Alpha stays off the disc's Steklov spectrum
    (the integers): at alpha=1 the k=1 modes are near-null and any two
    orderings differ along them by ~1e-5, although the energy agrees to
    ~1e-14.
    """
    rho, drho = oracle._rho_callable(d)
    *_, mesh = oracle._mesh_levels(rho, 0.065, 3)
    assert mesh.coords.shape[0] == nodes
    K_ref, f_ref, Mb_ref = coo_assembly(mesh, rho, drho)
    K, f = mesh.assemble()
    Mb = mesh.boundary_mass(rho, drho)
    full = oracle._System(mesh, 1, mesh.n_r)
    free = oracle._System(mesh, 1, mesh.n_r - 1)
    nf = mesh.n_free
    idx = np.setdiff1d(np.arange(nodes), nf + np.arange(mesh.n_t))
    cases = [(full, K[full.gather] - a * Mb[full.gather], f,
              K_ref - a * Mb_ref, f_ref) for a in (-1.0, 0.5)]
    cases.append((free, K[free.gather], f[:nf], K_ref[idx][:, idx], f_ref[idx]))
    for system, data, b, A_ref, b_ref in cases:
        got = system.solve(data, b)
        ref = spla.spsolve(A_ref.tocsc(), b_ref, permc_spec="COLAMD")
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def rmax_star(rmax: float) -> Domain:
    """A three-mode star scaled to maximum radius rmax."""
    a0, cos, sin = 1.0, np.array([0.0, 0.1, 0.06]), np.array([0.0, 0.0, 0.04])
    th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    s = rmax / float(TrigPoly(a0, tuple(cos), tuple(sin))(th).max())
    return Domain.star2d(TrigPoly(a0 * s, tuple(cos * s), tuple(sin * s)))


def coo_assembly(mesh, rho, drho):
    """(K, f, Mb) as the oracle assembled them before its stencil, frozen.

    Nine COO entries per triangle from the P1 gradients, and four per
    boundary edge from 4-point Gauss quadrature on the exact curve.
    """
    det, bmat, cmat = oracle._p1_gradients(mesh.coords[mesh.tris])
    area = 0.5 * det
    kloc = (bmat[:, :, None] * bmat[:, None, :]
            + cmat[:, :, None] * cmat[:, None, :]) * area[:, None, None]
    rows = np.repeat(mesh.tris, 3, axis=1).ravel()
    cols = np.tile(mesh.tris, (1, 3)).ravel()
    n = mesh.coords.shape[0]
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    f = np.zeros(n)
    np.add.at(f, mesh.tris.ravel(), np.repeat(area / 3.0, 3))

    gx, gw = np.polynomial.legendre.leggauss(4)
    dt = 2.0 * np.pi / mesh.n_t
    t0 = mesh.thetas
    tq = t0[:, None] + 0.5 * dt * (gx[None, :] + 1.0)
    r = np.asarray(rho(tq.ravel()), float).reshape(tq.shape)
    rp = np.asarray(drho(tq.ravel()), float).reshape(tq.shape)
    w = 0.5 * dt * gw[None, :] * np.sqrt(r * r + rp * rp)
    n1 = (tq - t0[:, None]) / dt
    n0 = 1.0 - n1
    m00 = (w * n0 * n0).sum(axis=1)
    m01 = (w * n0 * n1).sum(axis=1)
    m11 = (w * n1 * n1).sum(axis=1)
    b = mesh.n_free + np.arange(mesh.n_t)
    bn = np.roll(b, -1)
    Mb = sp.coo_matrix((np.concatenate([m00, m01, m01, m11]),
                        (np.concatenate([b, b, bn, bn]),
                         np.concatenate([b, bn, b, bn]))), shape=(n, n)).tocsr()
    return K, f, Mb


def in_mesh_numbering(system, data, n):
    """The block with entries `data` as an n x n CSR in mesh numbering."""
    A = system.matrix(data).tocoo()
    return sp.csr_matrix((A.data, (system.perm[A.row], system.perm[A.col])),
                         shape=(n, n))


class TestStencil:
    @pytest.mark.parametrize("name", ["disc", "ellipse", "wobbly"])
    def test_matches_frozen_coo_assembly(self, request, name):
        rho, drho = oracle._rho_callable(request.getfixturevalue(name))
        for mesh in oracle._mesh_levels(rho, 0.065, 3):
            n = mesh.coords.shape[0]
            K_ref, f_ref, Mb_ref = coo_assembly(mesh, rho, drho)
            K, f = mesh.assemble()
            Mb = mesh.boundary_mass(rho, drho)
            full = oracle._System(mesh, 1, mesh.n_r)
            for got, ref in ((in_mesh_numbering(full, K[full.gather], n), K_ref),
                             (in_mesh_numbering(full, Mb[full.gather], n), Mb_ref)):
                assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
            assert np.abs(f - f_ref).max() <= 1e-14 * np.abs(f_ref).max()


def oracle_meshes():
    """Every mesh the oracle builds in this module's tests and in the CLI."""
    ellipse = oracle._rho_callable(ellipse_domain())[0]
    side = math.sqrt(math.pi)
    square = lambda t: (side / 2.0) / np.maximum(np.abs(np.cos(t)),
                                                 np.abs(np.sin(t)))
    yield from oracle._mesh_levels(ellipse, 0.2, 2)
    yield from oracle._mesh_levels(square, 0.05, 3)
    for density in (128, 256, 512):
        yield from oracle._doubled_meshes(ellipse, density, 2)


class TestOrdering:
    def test_every_block_is_a_permutation(self):
        for mesh in oracle_meshes():
            for lo, hi in ((1, mesh.n_r), (1, mesh.n_r - 1), (mesh.n_r, mesh.n_r)):
                perm = oracle._System(mesh, lo, hi).perm
                size = int(lo == 1) + (hi - lo + 1) * mesh.n_t
                assert np.array_equal(np.sort(perm), np.arange(size))

    def test_order_leaves_no_reference_cycle(self):
        # a cycle would keep the order's index arrays alive until the next
        # full garbage collection
        gc.collect()
        gc.disable()
        try:
            oracle._nd_order(256, 60, True)
            assert gc.collect() == 0
        finally:
            gc.enable()
