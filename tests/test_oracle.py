"""Finite-element cross-checks: energies, torsion, eigenpair residuals."""

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
        basis = spectrum_star2d(three_mode, n_modes=16, M_nodes=256)
        res = steklov_residual(basis, sample_density=256, n_modes=10)
        assert res < 1e-5

    def test_residual_decreases_under_refinement(self, three_mode):
        basis = spectrum_star2d(three_mode, n_modes=12, M_nodes=256)
        r1 = steklov_residual(basis, sample_density=128, n_modes=6)
        r2 = steklov_residual(basis, sample_density=256, n_modes=6)
        assert r2 < r1

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
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SolverError):
            oracle._factor(A)

    def test_matches_colamd_spsolve_on_finest_disc_mesh(self, disc):
        # reference: SuperLU with its default COLAMD ordering on the free
        # block picked by index sets, as the oracle solved before.  Alpha
        # stays off the disc's Steklov spectrum (the integers): at alpha=1
        # the k=1 modes are near-null and any two orderings differ along
        # them by ~1e-5, although the energy agrees to ~1e-14.
        rho, drho = oracle._rho_callable(disc)
        *_, mesh = oracle._mesh_levels(rho, 0.065, 3)
        K, f = mesh.assemble()
        Mb = mesh.boundary_mass(rho, drho)
        free = np.setdiff1d(np.arange(mesh.coords.shape[0]), mesh.boundary)
        nf = mesh.n_free
        cases = [(K - a * Mb, f, K - a * Mb, f) for a in (-1.0, 0.5)]
        cases.append((K[:nf, :nf], f[:nf], K[free][:, free], f[free]))
        for A, b, A_ref, b_ref in cases:
            got = oracle._factor(A).solve(b)
            ref = spla.spsolve(A_ref.tocsc(), b_ref, permc_spec="COLAMD")
            assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
