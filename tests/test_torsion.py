"""Torsion solves: closed-form anchors, star quadrature, flux identities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from robinlab import (
    Domain,
    TrigPoly,
    flux_coefficients,
    gauss_identity_residual,
    random_star_domain,
    solve_torsion,
    spectrum_annulus,
    spectrum_ball,
    spectrum_star2d,
    surface_area,
    volume,
)


class TestClosedForms:
    def test_disc(self):
        for R in (1.0, 2.0):
            ts = solve_torsion(Domain.ball(2, R))
            assert ts.T == pytest.approx(-math.pi * R ** 4 / 8.0, rel=1e-14)
            assert ts.flux == pytest.approx(-R / 2.0)
            assert ts.error == 0.0

    def test_ball3(self):
        ts = solve_torsion(Domain.ball(3, 1.0))
        assert ts.T == pytest.approx(-4.0 * math.pi / 45.0, rel=1e-14)
        assert ts.flux == pytest.approx(-1.0 / 3.0)

    def test_shell(self, shell):
        # n=3, R=1, ratio 1/2: T = -17 pi / 720, fluxes (-5/24, -1/3)
        ts = solve_torsion(shell)
        assert ts.T == pytest.approx(-17.0 * math.pi / 720.0, rel=1e-13)
        assert ts.flux[0] == pytest.approx(-5.0 / 24.0, rel=1e-13)
        assert ts.flux[1] == pytest.approx(-1.0 / 3.0, rel=1e-13)

    def test_radial_profile_vanishes_on_boundary(self, shell):
        ts = solve_torsion(shell)
        assert ts.s_radial(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ts.s_radial(0.5) == pytest.approx(0.0, abs=1e-15)
        assert ts.s_radial(0.75) > 0.0

    def test_ball_center_value(self):
        ts = solve_torsion(Domain.ball(2, 1.0))
        assert ts.s_radial(0.0) == pytest.approx(0.25)


class TestStarSolve:
    def test_ellipse_exact(self, ellipse):
        # (1 - x^2/A^2 - y^2/B^2) * A^2 B^2 / (2 (A^2 + B^2)) integrates to
        # pi A^3 B^3 / (4 (A^2 + B^2)); A, B = 1 +/- 0.1 gives -3025 pi/24641
        ts = solve_torsion(ellipse, M=256)
        assert ts.T == pytest.approx(-3025.0 * math.pi / 24641.0, rel=1e-9)
        assert ts.error < 1e-8

    def test_disc_as_star_matches_closed_form(self):
        ts = solve_torsion(Domain.star2d(TrigPoly.constant(1.0)), M=128)
        assert ts.T == pytest.approx(-math.pi / 8.0, rel=1e-11)
        assert np.allclose(ts.flux, -0.5, atol=1e-11)

    def test_node_doubling_error_indicator(self, three_mode):
        ts = solve_torsion(three_mode, M=192)
        assert ts.error < 1e-7
        ts2 = solve_torsion(three_mode, M=384)
        assert abs(ts2.T - ts.T) <= max(ts.error, 1e-12)

    def test_error_with_odd_half_node_count(self, three_mode):
        # the estimate runs at 2 (M // 4) nodes: 128 for M = 258
        ts = solve_torsion(three_mode, M=258)
        assert math.isfinite(ts.error) and ts.error < 1e-7


class TestFluxIdentities:
    def test_gauss_identity_closed_forms(self, shell):
        assert gauss_identity_residual(solve_torsion(Domain.ball(2, 1.5))) < 1e-13
        assert gauss_identity_residual(solve_torsion(shell)) < 1e-13

    def test_gauss_identity_star(self, three_mode):
        assert gauss_identity_residual(solve_torsion(three_mode, M=256)) < 1e-9

    def test_disc_first_coefficient(self, disc):
        # a_1 = -|Omega| / sqrt(|boundary|); all higher moments vanish
        ts = solve_torsion(disc)
        b = spectrum_ball(2, 1.0, k_max=4)
        a = flux_coefficients(ts, b)
        assert a[0] == pytest.approx(-volume(disc) / math.sqrt(surface_area(disc)))
        assert np.allclose(a[1:], 0.0)

    def test_shell_coefficients(self, shell):
        ts = solve_torsion(shell)
        b = spectrum_annulus(3, 1.0, 0.5, k_max=2)
        a = flux_coefficients(ts, b)
        i0, ir = b.parity.index("const"), b.parity.index("radial")
        assert a[i0] ** 2 == pytest.approx(49.0 * math.pi / 180.0, rel=1e-12)
        assert a[ir] ** 2 == pytest.approx(math.pi / 80.0, rel=1e-12)

    def test_star_node_counts_must_match(self, three_mode):
        # the flux is integrated against the traces node by node, so a
        # torsion solved at another count is refused, not resampled
        b = spectrum_star2d(three_mode, n_modes=12, M=256)
        with pytest.raises(ValueError, match="192 nodes.*256"):
            flux_coefficients(solve_torsion(three_mode, M=192), b)

    @pytest.mark.parametrize("d, basis", [
        (Domain.ball(2, 1.0), lambda: spectrum_star2d(Domain.ball(2, 1.0), n_modes=8)),
        (Domain.annulus(3, 1.0, 0.5), lambda: spectrum_ball(3, 1.0)),
    ], ids=["disc-star-basis", "shell-ball-basis"])
    def test_basis_of_another_kind_rejected(self, d, basis):
        # one flux rule per basis kind: a disc is not read as a star here
        with pytest.raises(ValueError, match="needs a .* basis"):
            flux_coefficients(solve_torsion(d), basis())

    def test_star_basis_required(self, three_mode):
        ts = solve_torsion(three_mode, M=128)
        with pytest.raises(ValueError):
            flux_coefficients(ts, spectrum_ball(2, 1.0))


class TestTorsionProperties:
    @given(seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_negative_on_random_domains(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        ts = solve_torsion(d, M=128)
        assert ts.T < 0.0
        # torsion flux points outward-decreasing: d_nu s <= 0 everywhere
        assert np.all(ts.flux < 1e-10)

    @given(R=hst.floats(min_value=0.3, max_value=3.0),
           kappa=hst.floats(min_value=0.15, max_value=0.85))
    def test_shell_between_bounds(self, R, kappa):
        # removing the core raises T toward 0 but keeps it below the
        # value of the ball of equal volume... just pin sign and scaling
        d = Domain.annulus(3, R, kappa)
        t1 = solve_torsion(d).T
        assert t1 < 0.0
        t2 = solve_torsion(Domain.annulus(3, 2.0 * R, kappa)).T
        assert t2 == pytest.approx(t1 * 2.0 ** 5, rel=1e-12)
