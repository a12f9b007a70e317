"""Steklov spectra: closed forms, shell pencils, Nystrom bases."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from robinlab import (
    Domain,
    STATUS_FAMILY,
    STATUS_UNIQUE,
    SolverError,
    annulus_radial_eigenvalue,
    random_star_domain,
    solve_robin,
    spectrum_annulus,
    spectrum_ball,
    spectrum_star2d,
    surface_components,
    tol_res,
)

TAU = 2.0 * math.pi


class TestBallSpectrum:
    def test_disc_eigenvalues(self):
        b = spectrum_ball(2, 1.0, k_max=6)
        assert b.mu[0] == 0.0
        # mu = k/R with multiplicity 2 per positive degree
        assert np.array_equal(b.k[:7], [0, 1, 1, 2, 2, 3, 3])
        assert np.allclose(b.mu, b.k / 1.0)
        assert b.mu[1] == pytest.approx(1.0)

    def test_radius_scaling(self):
        b = spectrum_ball(2, 2.0, k_max=4)
        assert b.mu[1] == pytest.approx(0.5)
        assert np.allclose(b.mu, b.k / 2.0)

    def test_ball3_multiplicities(self):
        b = spectrum_ball(3, 1.0, k_max=3)
        counts = [int(np.sum(b.k == k)) for k in range(4)]
        assert counts == [1, 3, 5, 7]

    def test_tol_res_scaling(self):
        assert tol_res(0.5) == pytest.approx(1e-9)
        assert tol_res(-40.0) == pytest.approx(4e-8)


class TestAnnulusSpectrum:
    def test_radial_eigenvalue_closed_form(self, shell):
        # n=3, R=1, inner/outer ratio 1/2: (1 + 4) / (2 - 1) = 5
        assert annulus_radial_eigenvalue(3, 1.0, 0.5) == pytest.approx(5.0)
        b = spectrum_annulus(3, 1.0, 0.5, k_max=4)
        i = b.parity.index("radial")
        assert b.mu[i] == pytest.approx(5.0, abs=1e-12)

    def test_radial_profile(self):
        # unit-trace-norm radial mode: (c1, c2) = 3/sqrt(5 pi) * (1, -5/6)
        b = spectrum_annulus(3, 1.0, 0.5, k_max=2)
        i = b.parity.index("radial")
        c1, c2 = b.radial_profiles[i]
        s = 3.0 / math.sqrt(5.0 * math.pi)
        assert c1 == pytest.approx(s, rel=1e-12)
        assert c2 == pytest.approx(-5.0 * s / 6.0, rel=1e-12)

    def test_radial_traces_orthonormal(self, shell):
        b = spectrum_annulus(3, 1.0, 0.5, k_max=1)
        s_out, s_in = surface_components(shell)
        k0 = [i for i in range(b.count) if b.k[i] == 0]
        vals = []
        for i in k0:
            c1, c2 = b.radial_profiles[i]
            vals.append((c1 + c2 / 1.0, c1 + c2 / 0.5))
        for a, i in enumerate(k0):
            for bb, j in enumerate(k0):
                ip = vals[a][0] * vals[bb][0] * s_out + vals[a][1] * vals[bb][1] * s_in
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_eigencondition_independent(self):
        # each reported (mu, k) must admit A r^k + B r^{2-n-k} that meets the
        # boundary condition on both spheres; test via the 2x2 determinant
        n, R, kap = 3, 1.0, 0.5
        a = kap * R
        b = spectrum_annulus(n, R, kap, k_max=5)
        for mu, k in zip(b.mu, b.k):
            e1, e2 = k, 2 - n - k
            # rows: d_nu u - mu u at r=R (outward) and r=a (inward normal)
            M = np.array([
                [e1 * R ** (e1 - 1) - mu * R ** e1,
                 e2 * R ** (e2 - 1) - mu * R ** e2],
                [-e1 * a ** (e1 - 1) - mu * a ** e1,
                 -e2 * a ** (e2 - 1) - mu * a ** e2],
            ])
            scale = np.abs(M).max()
            assert abs(np.linalg.det(M)) < 1e-9 * scale ** 2

    def test_planar_radial_closed_form(self):
        kap = 0.5
        mu = annulus_radial_eigenvalue(2, 1.0, kap)
        assert mu == pytest.approx((1 + 1 / kap) / math.log(1 / kap))
        b = spectrum_annulus(2, 1.0, kap, k_max=3)
        assert np.min(np.abs(b.mu - mu)) < 1e-10


    def test_high_degree_pencil_finite(self, shell):
        # the unscaled quadratic overflowed from degree 501 on this shell
        b = spectrum_annulus(3, 1.0, 0.5, k_max=600)
        assert np.all(np.isfinite(b.mu))
        assert np.all(np.diff(b.mu) >= 0)
        sol = solve_robin(shell, 800.0)
        assert sol.status in (STATUS_UNIQUE, STATUS_FAMILY)
        assert math.isfinite(sol.energy)

    @pytest.mark.parametrize("R, k_max, degree", [(1.0, 1100, 1013), (1e10, 40, 31)])
    def test_pencil_out_of_range_names_its_degree(self, R, k_max, degree):
        # at R = 1 a derivative entry overflows to inf; at R = 1e10 the
        # power R ** k itself is out of range
        with pytest.raises(SolverError, match=f"degree-{degree} shell pencil"):
            spectrum_annulus(3, R, 0.5, k_max=k_max)

    def test_out_of_range_pencil_fails_before_any_mode(self, monkeypatch):
        # every pencil is solved first: no mode is listed for degrees 0..1012
        import robinlab.steklov as steklov

        def listed(*args):
            raise AssertionError("a mode was listed before the failing pencil")
        monkeypatch.setattr(steklov, "_normalize_radial", listed)
        monkeypatch.setattr(steklov.geo, "ball_mode_multiplicity", listed)
        with pytest.raises(SolverError, match="degree-1013 shell pencil"):
            spectrum_annulus(3, 1.0, 0.5, k_max=1100)

    def test_direct_status_past_the_pencil_range(self, shell):
        assert solve_robin(shell, 1011.5).status == STATUS_UNIQUE
        with pytest.raises(SolverError, match="degree-1013 shell pencil"):
            solve_robin(shell, 1012.5)

    @pytest.mark.parametrize("n, R, kappa", [
        (3, 1.0, 0.5), (2, 1.0, 0.5), (4, 2.3, 0.25), (3, 0.7, 0.9)])
    def test_scaled_pencil_keeps_root_bits(self, n, R, kappa):
        # the column scaling is by powers of two, so the roots of the
        # unscaled quadratic come back bit for bit
        a = kappa * R
        b = spectrum_annulus(n, R, kappa, k_max=12)
        for k in range(1, 13):
            e1, e2 = k, 2 - n - k
            P = ((e1 * R ** (e1 - 1), e2 * R ** (e2 - 1)),
                 (-e1 * a ** (e1 - 1), -e2 * a ** (e2 - 1)))
            Q = ((R ** e1, R ** e2), (a ** e1, a ** e2))
            c2 = Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0]
            c1 = -(P[0][0] * Q[1][1] + P[1][1] * Q[0][0]
                   - P[0][1] * Q[1][0] - P[1][0] * Q[0][1])
            c0 = P[0][0] * P[1][1] - P[0][1] * P[1][0]
            disc = math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0))
            ref = sorted(((-c1 - disc) / (2.0 * c2), (-c1 + disc) / (2.0 * c2)))
            assert np.unique(b.mu[b.k == k]).tolist() == ref


class TestStarSpectrum:
    def test_disc_matches_closed_form(self):
        b = spectrum_star2d(Domain.ball(2, 1.0), n_modes=15, M=256)
        exact = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7], float)
        assert np.abs(b.mu - exact).max() < 1e-9
        assert np.array_equal(b.k, exact.astype(int))

    def test_three_mode_basis(self, three_mode):
        b = spectrum_star2d(three_mode, n_modes=16, M=256)
        assert b.mu[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.diff(b.mu) > -1e-12)
        assert float(b.residuals.max()) < 1e-6
        T = b.traces
        gram = (T * b.operator.weights) @ T.T
        assert np.abs(gram - np.eye(16)).max() < 1e-11

    def test_node_guard(self, three_mode):
        with pytest.raises(ValueError):
            spectrum_star2d(three_mode, n_modes=32, M=128)

    @given(seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_random_domain_spectrum(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        b = spectrum_star2d(d, n_modes=8, M=192)
        assert abs(b.mu[0]) < 1e-8
        assert np.all(np.diff(b.mu) > -1e-10)
        assert b.mu[1] > 0.0
        assert float(b.residuals.max()) < 1e-4

