"""Steklov spectra: closed forms, shell pencils, Nystrom bases, expansions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from robinlab import (
    Domain,
    STATUS_FAMILY,
    STATUS_NO_SOLUTION,
    STATUS_UNIQUE,
    SolverError,
    annulus_radial_eigenvalue,
    expand_harmonic,
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

    def test_disc_traces_orthonormal(self):
        b = spectrum_ball(2, 1.5, k_max=4)
        t, w = b.boundary_quadrature()
        T = b.trace_matrix(t)
        gram = (T * w) @ T.T
        assert np.allclose(gram, np.eye(b.count), atol=1e-12)

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

    def test_constant_moments(self, shell):
        # fluxes (-5/24, -1/3) of the shell torsion function give the
        # hand-derived squared moments 49 pi / 180 and pi / 80
        b = spectrum_annulus(3, 1.0, 0.5, k_max=2)
        m = b.moments((-5.0 / 24.0, -1.0 / 3.0))
        i0 = b.parity.index("const")
        ir = b.parity.index("radial")
        assert m[i0] ** 2 == pytest.approx(49.0 * math.pi / 180.0, rel=1e-12)
        assert m[ir] ** 2 == pytest.approx(math.pi / 80.0, rel=1e-12)
        others = [i for i in range(b.count) if i not in (i0, ir)]
        assert np.allclose(m[others], 0.0)


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
        t, w = b.boundary_quadrature()
        T = b.trace_matrix(t)
        gram = (T * w) @ T.T
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


class TestExpandHarmonic:
    def test_single_mode_unique(self, disc):
        # alpha off the integer spectrum of the unit disc
        b = spectrum_ball(2, 1.0, k_max=4)
        out = expand_harmonic(b, 2.5, lambda t: np.cos(t))
        assert out.status == STATUS_UNIQUE
        # m_2 = sqrt(pi), mu_2 = 1, so h_2 = sqrt(pi) / (1 - 2.5)
        assert out.coefficients[1] == pytest.approx(-2.0 * math.sqrt(math.pi) / 3.0)
        mask = np.ones(b.count, bool)
        mask[1] = False
        assert np.allclose(out.coefficients[mask], 0.0, atol=1e-12)

    def test_boundary_condition_recovered(self):
        b = spectrum_ball(2, 1.0, k_max=4)
        alpha = 2.5
        out = expand_harmonic(b, alpha, lambda t: np.cos(t))
        t = np.linspace(0, TAU, 17)
        h = out.coefficients @ b.trace_matrix(t)
        dnu = (out.coefficients * b.mu) @ b.trace_matrix(t)
        assert np.allclose(dnu - alpha * h, np.cos(t), atol=1e-12)

    def test_resonant_no_solution(self):
        b = spectrum_ball(2, 1.0, k_max=4)
        out = expand_harmonic(b, 1.0, lambda t: np.cos(t))
        assert out.status == STATUS_NO_SOLUTION
        assert out.resonant_indices == (2, 3)

    def test_resonant_family(self):
        # constant data has no moment on the degree-1 eigenspace
        b = spectrum_ball(2, 1.0, k_max=4)
        out = expand_harmonic(b, 1.0, 2.0)
        assert out.status == STATUS_FAMILY
        assert out.coefficients[1] == 0.0 and out.coefficients[2] == 0.0
        assert out.coefficients[0] == pytest.approx(
            2.0 * math.sqrt(TAU) / (0.0 - 1.0))

    def test_zero_alpha_constant_incompatible(self):
        b = spectrum_ball(2, 1.0, k_max=3)
        out = expand_harmonic(b, 0.0, 1.0)
        assert out.status == STATUS_NO_SOLUTION
        assert out.resonant_indices == (1,)

    def test_star_basis_expansion(self, three_mode):
        # cos(t) is not in any finite mode span on a wobbly domain, so the
        # boundary misfit is truncation; it must shrink as the basis grows
        def misfit(n_modes, M):
            b = spectrum_star2d(three_mode, n_modes=n_modes, M=M)
            out = expand_harmonic(b, 0.5, lambda t: np.cos(t))
            assert out.status == STATUS_UNIQUE
            t, w = b.boundary_quadrature()
            h = out.coefficients @ b.trace_matrix()
            dnu = (out.coefficients * b.mu) @ b.trace_matrix()
            resid = dnu - 0.5 * h - np.cos(t)
            return math.sqrt(float(np.sum(resid ** 2 * w)))

        r12, r24 = misfit(12, 128), misfit(24, 256)
        assert r12 < 1e-2
        assert r24 < r12 / 5.0


class TestInteriorValues:
    def test_disc_mode_interior(self):
        b = spectrum_ball(2, 1.0, k_max=3)
        pts = np.array([[0.3, 0.1], [-0.2, 0.4]])
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        got = b.interior_values(1, pts)     # phi_2 = r cos(theta)/sqrt(pi)
        assert np.allclose(got, r * np.cos(th) / math.sqrt(math.pi))

    def test_star_interior_matches_closed_form(self):
        # run the layer-potential machinery on the disc, where every mode
        # has the closed form (r/R)^k trig(k theta) / sqrt(pi R)
        b = spectrum_star2d(Domain.ball(2, 1.0), n_modes=8, M=128)
        t = np.array([0.3, 1.1, 2.0, 4.4])
        pts = 0.5 * np.column_stack([np.cos(t), np.sin(t)])
        got = b.interior_values(1, pts)          # degree-1 mode
        k = int(b.k[1])
        assert k == 1
        # the numeric eigenvector fixes its own sign and phase; compare
        # against the best-matching phase of the analytic pair
        proj_c = np.cos(k * b.operator.thetas) / math.sqrt(math.pi)
        proj_s = np.sin(k * b.operator.thetas) / math.sqrt(math.pi)
        w = b.operator.weights
        cc = float(np.sum(b.traces[1] * proj_c * w))
        cs = float(np.sum(b.traces[1] * proj_s * w))
        expect = 0.5 ** k * (cc * np.cos(k * t) + cs * np.sin(k * t)) / math.sqrt(math.pi)
        assert np.allclose(got, expect, atol=1e-8)
