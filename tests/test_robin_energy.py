"""Robin energies: closed forms, series vs direct solves, splits, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from robinlab import (
    Domain,
    ENERGY_COLUMNS,
    STATUS_FAMILY,
    STATUS_NO_SOLUTION,
    STATUS_UNIQUE,
    SolverError,
    TrigPoly,
    alpha0,
    energy_direct,
    energy_series,
    energy_split_variational,
    finite_difference_check,
    j_functional,
    pole_scan,
    random_star_domain,
    series_pack,
    solve_robin,
    solve_torsion,
    spectrum_annulus,
    spectrum_ball,
    unit_ball_volume,
)
from robinlab.shape_calculus import NormalSpeedFamily
from robinlab import robin_energy, steklov

from conftest import series_report


def ball_energy(n, R, alpha):
    """Closed form E = |B_R| (-R^2/(n(n+2)) + R/(alpha n))."""
    vol = unit_ball_volume(n) * R ** n
    return vol * (-R * R / (n * (n + 2)) + R / (alpha * n))


class TestBallClosedForm:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("R", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.7, 1.3, -1.0, 4.2])
    def test_series_matches_formula(self, n, R, alpha):
        rep = energy_series(Domain.ball(n, R), alpha)
        assert rep.E_total == pytest.approx(ball_energy(n, R, alpha), rel=1e-12)

    def test_disc_reference_values(self, disc):
        assert energy_series(disc, 1.0).E_total == pytest.approx(3 * math.pi / 8)
        assert energy_series(disc, -1.0).E_total == pytest.approx(-5 * math.pi / 8)

    def test_resonance_is_family(self, disc):
        # alpha = 1 hits the degree-1 modes, which carry no torsion flux
        rep = energy_series(disc, 1.0)
        assert rep.status == STATUS_FAMILY
        pack = robin_energy.series_pack(disc)
        resonant, blocked, _ = steklov._resonance(pack.mu, np.array([1.0]), pack.nonzero)
        assert tuple(np.flatnonzero(resonant[0]) + 1) == (2, 3) and not blocked[0]
        assert energy_series(disc, 1.5).status == STATUS_UNIQUE

    def test_direct_solve_matches(self, disc, ball3):
        for d, a in [(disc, 0.7), (disc, -1.0), (ball3, 2.0)]:
            assert energy_direct(d, a) == pytest.approx(
                ball_energy(d.dim, d.R, a), rel=1e-12)

    def test_zero_alpha_no_solution(self, disc):
        assert solve_robin(disc, 0.0).status == STATUS_NO_SOLUTION
        with pytest.raises(SolverError):
            energy_direct(disc, 0.0)


def frozen_disc_energy(R, alpha):
    """The disc energy as the planar module once wrote it."""
    return math.pi * R ** 2 * (-R ** 2 / 8.0 + R / (2.0 * alpha))


def frozen_gauss_legendre_energy(d, alpha):
    """-int_Omega of the radial Robin solution by 96-node Gauss-Legendre in r.

    The solution is -r^2/(2n) + c1 + c2 g(r), with g(r) = r^(2-n) (ln r
    in the plane); a ball has c1 = R^2/(2n) - R/(alpha n) and c2 = 0.
    """
    n, R = d.dim, d.R
    if d.kind == "annulus":
        r0 = d.kappa * R
        c1, c2 = robin_energy._radial_robin_coefficients(d, alpha)
    else:
        r0, c1, c2 = 0.0, R ** 2 / (2 * n) - R / (alpha * n), 0.0
    x, w = np.polynomial.legendre.leggauss(96)
    r = 0.5 * (R - r0) * (x + 1.0) + r0
    profile = -r ** 2 / (2.0 * n) + c1
    if c2:
        profile = profile + c2 * (np.log(r) if n == 2 else r ** (2 - n))
    return -float(n * unit_ball_volume(n) * np.sum(w * profile * r ** (n - 1))
                  * 0.5 * (R - r0))


class TestOneClosedForm:
    @given(R=hst.floats(min_value=1e-3, max_value=1e3),
           alpha=hst.floats(min_value=1e-3, max_value=1e3),
           sign=hst.sampled_from([1.0, -1.0]))
    def test_ball_energy_is_the_disc_expression(self, R, alpha, sign):
        assert robin_energy.ball_energy(2, R, sign * alpha) \
            == frozen_disc_energy(R, sign * alpha)

    @pytest.mark.parametrize("d", [Domain.ball(2, 1.0), Domain.ball(2, 0.7),
                                   Domain.ball(3, 1.3), Domain.annulus(2, 1.0, 0.3),
                                   Domain.annulus(3, 1.0, 0.5),
                                   Domain.annulus(3, 1.7, 0.2)],
                             ids=lambda d: f"{d.kind}{d.dim}-R{d.R}")
    @pytest.mark.parametrize("alpha", [-2.5, -0.4, 0.3, 1.7, 3.3])
    def test_direct_energy_matches_quadrature(self, d, alpha):
        sol = solve_robin(d, alpha)
        ref = frozen_gauss_legendre_energy(d, alpha)
        assert abs(sol.energy - ref) <= 1e-13 * abs(ref)

    def test_alpha0_of_a_ball_has_no_deficit(self):
        rep = alpha0(Domain.ball(3, 0.8))
        assert rep.T_omega == rep.T_ball
        assert math.isinf(rep.alpha0) and rep.epsilon0 == 0.0


class TestShellSeries:
    def test_reference_value(self, shell):
        # T + a_1^2/alpha + a_r^2/(alpha - 5) at alpha = 2:
        # -17pi/720 + 49pi/360 - pi/240 = 13pi/120
        rep = energy_series(shell, 2.0)
        assert rep.E_total == pytest.approx(13 * math.pi / 120, rel=1e-12)
        assert energy_direct(shell, 2.0) == pytest.approx(
            13 * math.pi / 120, rel=1e-12)

    def test_pole_set(self, shell):
        assert pole_scan(shell) == (0.0, 5.0)
        assert min(abs(1.0 - p) for p in pole_scan(shell)) == pytest.approx(1.0)

    def test_series_vs_direct_grid(self, shell):
        for a in np.linspace(-3.0, 8.0, 23):
            if min(abs(a), abs(a - 5.0)) < 0.2:
                continue
            assert energy_series(shell, float(a)).E_total == pytest.approx(
                energy_direct(shell, float(a)), rel=1e-10)

    def test_radial_resonance_no_solution(self, shell):
        rep = energy_series(shell, 5.0)
        assert rep.status == STATUS_NO_SOLUTION
        assert math.isnan(rep.E_total)
        assert solve_robin(shell, 5.0).status == STATUS_NO_SOLUTION

    def test_nonradial_resonance_family(self, shell):
        # degree-1 pencil eigenvalues carry zero flux: Family, finite E
        from robinlab.steklov import _annulus_pencil
        mus, _ = _annulus_pencil(3, 1.0, 0.5, 1)
        rep = energy_series(shell, mus[1])
        assert rep.status == STATUS_FAMILY
        assert math.isfinite(rep.E_total)
        assert solve_robin(shell, mus[1]).status == STATUS_FAMILY


class TestOneStatusRule:
    """The direct route reads the series' Unique / Family / NoSolution rule."""

    @pytest.mark.parametrize("d", [Domain.ball(2, 1.0), Domain.ball(3, 1.0),
                                   Domain.annulus(2, 1.0, 0.5),
                                   Domain.annulus(3, 1.0, 0.5)],
                             ids=lambda d: f"{d.kind}{d.dim}")
    def test_direct_status_is_series_status(self, d):
        def spectrum(k_max):
            if d.kind == "ball":
                return spectrum_ball(d.dim, d.R, k_max=k_max)
            return spectrum_annulus(d.dim, d.R, d.kappa, k_max=k_max)

        mu = np.unique(spectrum(60).mu)            # every eigenvalue up to degree 60
        alphas = np.concatenate([mu, (mu[:-1] + mu[1:]) / 2])
        basis = spectrum(int(mu[-1] * d.R) + 2)
        assert basis.mu[basis.k == basis.k.max()].min() > mu[-1]   # k_max past alpha
        statuses = set()
        for a in alphas.tolist():
            series = series_report(d, a, basis=basis).status
            assert solve_robin(d, a).status == series, a
            statuses.add(series)
        assert statuses == {STATUS_UNIQUE, STATUS_FAMILY, STATUS_NO_SOLUTION}


class TestStarSeries:
    def test_tail_guard(self):
        d5 = Domain.star2d(TrigPoly(1.0, (0.0, 0.0, 0.0, 0.0, 0.15)))
        # at the basis floor of 256 nodes, which resolves d5; 64 nodes do not
        with pytest.raises(SolverError, match="series tail bound"):
            series_report(d5, 0.5, n_modes=6)
        rep = series_report(d5, 0.5, n_modes=64, M=512)
        assert rep.status == STATUS_UNIQUE
        assert rep.E_total == pytest.approx(2.4559363974167256, rel=1e-9)
        assert rep.tail_bound < 1e-6 * abs(rep.E_total)

    def test_series_vs_direct(self):
        d = random_star_domain(np.random.default_rng(3))
        rep = series_report(d, 0.8, n_modes=48, M=512)
        assert rep.E_total == pytest.approx(energy_direct(d, 0.8, M=512),
                                            abs=1e-10)

    def test_alpha_above_truncation_rejected(self, three_mode):
        with pytest.raises(SolverError):
            series_report(three_mode, 100.0, n_modes=16, M=256)

    def test_report_row_contract(self, disc):
        rep = energy_series(disc, 0.5)
        row = tuple(getattr(rep, c) for c in ENERGY_COLUMNS)
        assert len(row) == len(ENERGY_COLUMNS)
        assert row[0] == 0.5 and row[-1] == STATUS_UNIQUE

    @given(seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_sign_split(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        rep = series_report(d, 0.5, n_modes=32, M=256)
        assert rep.E_plus >= 0.0 and rep.E_minus <= 0.0
        assert rep.E_total == pytest.approx(rep.T + rep.E_plus + rep.E_minus)


class TestVariationalSplit:
    def test_eplus_dual_route(self, three_mode):
        pack = series_pack(three_mode, n_modes=24, M=256)
        rep = series_report(three_mode, 0.5, n_modes=24, M=256)
        (ep,), (em_bound,) = robin_energy.split_variational_grid(pack, [0.5])
        assert ep == pytest.approx(rep.E_plus, rel=1e-10)
        # trial value sits above the exact stable-side minimum
        assert rep.E_minus <= em_bound + 1e-12
        assert em_bound <= 0.0

    def test_bound_not_applicable_above_mu2(self, three_mode):
        pack = series_pack(three_mode, n_modes=24, M=256)
        _, (em_bound,) = robin_energy.split_variational_grid(pack, [50.0])
        assert math.isnan(em_bound)

    def test_ball_trial_is_exact_zero(self, disc):
        ep, em_bound = energy_split_variational(disc, 0.5)
        rep = energy_series(disc, 0.5)
        assert ep == pytest.approx(rep.E_plus, rel=1e-12)
        assert em_bound == 0.0 == rep.E_minus


class TestJAndThreshold:
    def test_j_matches_two_term_series(self, disc):
        # on a ball the series has the single pole at 0, so J is exact
        for a in (0.5, 2.0, -1.0):
            assert j_functional(disc, a, solve_torsion(disc).T) == pytest.approx(
                energy_series(disc, a).E_total, rel=1e-12)

    def test_j_zero_alpha_rejected(self, disc):
        with pytest.raises(ValueError):
            j_functional(disc, 0.0, solve_torsion(disc).T)

    def test_ellipse_threshold(self, ellipse):
        rep = alpha0(ellipse)
        # torsion deficit of the 1.1-eccentric area-preserving ellipse:
        # -3025 pi/24641 + pi/8 = 441 pi / 197128
        assert rep.epsilon0 == pytest.approx(441 * math.pi / 197128, rel=1e-8)
        assert rep.R == pytest.approx(1.0, rel=1e-12)
        assert rep.alpha0 == pytest.approx(1.51270077, rel=1e-6)
        assert rep.alpha0 == pytest.approx(
            math.pi ** 2 * rep.area_ratio_gap / rep.epsilon0, rel=1e-12)

    def test_crossover_direction(self, ellipse):
        rep = alpha0(ellipse)
        ball = Domain.ball(2, rep.R)
        for a, side in [(rep.alpha0 / 2, -1.0), (2 * rep.alpha0, 1.0)]:
            diff = j_functional(ellipse, a, T_omega=rep.T_omega) \
                - j_functional(ball, a, T_omega=rep.T_ball)
            assert math.copysign(1.0, diff) == side
        at = j_functional(ellipse, rep.alpha0, T_omega=rep.T_omega) \
            - j_functional(ball, rep.alpha0, T_omega=rep.T_ball)
        assert abs(at) < 1e-12

    def test_ball_degenerate_threshold(self, disc):
        rep = alpha0(disc)
        assert math.isinf(rep.alpha0)
        assert rep.epsilon0 == 0.0

    @given(seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_torsion_deficit_nonnegative(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        rep = alpha0(d, M=128)
        assert rep.epsilon0 >= 0.0
        assert rep.alpha0 > 0.0


class TestPoleScan:
    def test_disc_single_pole(self, disc):
        assert pole_scan(disc) == (0.0,)

    def test_ellipse_poles(self, ellipse):
        ps = series_pack(ellipse, n_modes=24, M=512).poles
        assert ps[0] == pytest.approx(0.0, abs=1e-9)
        # symmetry kills the odd-degree moments; the next poles sit just
        # below the even disc eigenvalues
        assert ps[1] == pytest.approx(1.95759496, abs=1e-6)
        assert ps[2] == pytest.approx(3.97219073, abs=1e-6)


class TestNonFiniteAlpha:
    """NaN or infinite alpha has no energy: every entry point says so."""

    CALLS = {
        "series_disc": lambda d, a: energy_series(d["disc"], a),
        "series_star": lambda d, a: series_report(d["star"], a, n_modes=24, M=192),
        "direct_disc": lambda d, a: energy_direct(d["disc"], a),
        "direct_star": lambda d, a: energy_direct(d["star"], a, 192),
        "solve_robin_shell": lambda d, a: solve_robin(d["shell"], a),
        "fd_scalar": lambda d, a: finite_difference_check(
            d["family"], [a], [-0.01, 0.01], route="direct", M=192),
        "fd_list": lambda d, a: finite_difference_check(
            d["family"], [0.5, a], [-0.01, 0.01], route="series", M=192),
    }

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, disc, shell, three_mode, call, alpha):
        doms = {"disc": disc, "star": three_mode, "shell": shell,
                "family": NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 1.0)}
        with pytest.raises(ValueError, match="alpha must be finite"):
            self.CALLS[call](doms, alpha)

