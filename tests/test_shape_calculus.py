"""Shape derivatives: modal coefficients, dual routes, zones, FD cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from robinlab import (
    Domain,
    PerturbationField,
    STATUS_FAMILY,
    SolverError,
    TrigPoly,
    classify_sign,
    energy_direct,
    finite_difference_check,
    first_variation_general,
    j_variations,
    modal_coefficient,
    second_variation_ball,
    solve_robin,
    solve_u_prime,
    volume,
)
from robinlab.shape_calculus import NormalSpeedFamily


def mode(k, amp=1.0, n=2):
    return PerturbationField.from_modes(n, {k: amp})


class TestModalCoefficient:
    def test_reference_value(self):
        # n=2, xi=1/2, k=2: 2*(1/2)*(1/2)*1/(3/2) - 4 + 1 = -8/3
        assert modal_coefficient(2, 2, 0.5) == pytest.approx(-8.0 / 3.0)

    def test_translation_mode_vanishes(self):
        for n in (2, 3, 4):
            for xi in (0.3, 0.7, 1.4, 2.6):
                assert modal_coefficient(n, 1, xi) == pytest.approx(0.0, abs=1e-13)

    def test_large_degree_negative(self):
        ks = np.arange(2, 60)
        assert np.all(modal_coefficient(3, ks, 0.4) < 0)

    @given(xi=hst.floats(min_value=0.05, max_value=0.95),
           k=hst.integers(min_value=2, max_value=40))
    def test_stable_zone_everywhere_negative(self, xi, k):
        for n in (2, 3, 4):
            assert modal_coefficient(n, k, xi) < 0


class TestSecondVariation:
    def test_ellipse_mode_closed_form(self):
        # single k=2 component: Edd = [-3/(4 alpha) + R(1-xi)/(2(2-xi))] pi R^3
        R = 1.0
        for alpha in (0.4, 1.0, 1.7):
            xi = alpha * R
            p = PerturbationField.from_modes(2, {2: math.sqrt(math.pi * R ** 3)})
            rep = second_variation_ball(Domain.ball(2, R), alpha, p)
            expect = (-3.0 / (4 * alpha)
                      + R * (1 - xi) / (2 * (2 - xi))) * math.pi * R ** 3
            assert rep.E_ddot == pytest.approx(expect, rel=1e-12)

    def test_value_at_xi_one(self):
        p = PerturbationField.from_modes(2, {2: math.sqrt(math.pi)})
        rep = second_variation_ball(Domain.ball(2, 1.0), 1.0, p)
        assert rep.E_ddot == pytest.approx(-3.0 * math.pi / 4.0, rel=1e-12)

    def test_sign_flip_across_xi_two(self):
        p = mode(2)
        low = second_variation_ball(Domain.ball(2, 1.0), 1.95, p)
        high = second_variation_ball(Domain.ball(2, 1.0), 2.05, p)
        assert low.E_ddot < 0 < high.E_ddot

    @given(xi=hst.floats(min_value=0.1, max_value=3.4),
           k=hst.integers(min_value=2, max_value=12),
           amp=hst.floats(min_value=0.1, max_value=2.0))
    def test_routes_agree(self, xi, k, amp):
        if abs(xi - round(xi)) < 1e-3:
            return
        rep = second_variation_ball(Domain.ball(2, 1.0), xi, mode(k, amp))
        assert rep.agreement_ok()
        assert rep.route_gap <= 1e-10 * max(1.0, abs(rep.E_ddot))

    def test_routes_agree_3d(self):
        rep = second_variation_ball(Domain.ball(3, 1.3), 0.9,
                                    mode(3, 0.7, n=3))
        assert rep.agreement_ok()

    def test_mean_component_rejected(self):
        p = PerturbationField((0.5, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            second_variation_ball(Domain.ball(2, 1.0), 0.5, p)

    def test_integer_xi_resonance(self):
        with pytest.raises(SolverError):
            second_variation_ball(Domain.ball(2, 1.0), 2.0, mode(2))
        # xi = 1 is regular: the (k-1) factor cancels the pole
        rep = second_variation_ball(Domain.ball(2, 1.0), 1.0, mode(2))
        assert math.isfinite(rep.E_ddot)


    @pytest.mark.parametrize("R, alpha, resonant", [
        (1.0, 2.000000001, True), (0.5, 6.0 - 5e-9, True),
        (2.0, 1.5 + 1e-9, True), (1.0, 2.000000002, False)])
    def test_resonance_window_is_the_steklov_rule(self, R, alpha, resonant):
        # alpha within tol_res of mu_k = k/R, where solve_robin reports Family
        d = Domain.ball(2, R)
        assert (solve_robin(d, alpha).status == STATUS_FAMILY) == resonant
        if resonant:
            with pytest.raises(SolverError):
                second_variation_ball(d, alpha, mode(2))
        else:
            assert math.isfinite(second_variation_ball(d, alpha, mode(2)).E_ddot)

    def test_translation_warns_and_drops(self):
        p = PerturbationField((0.0, 1.0, 0.0, 0.8))
        with pytest.warns(UserWarning):
            rep = second_variation_ball(Domain.ball(2, 1.0), 0.5, p)
        only = second_variation_ball(Domain.ball(2, 1.0), 0.5,
                                     PerturbationField((0.0, 0.0, 0.0, 0.8)))
        assert rep.E_ddot == pytest.approx(only.E_ddot, rel=1e-14)

    def test_star_domain_rejected(self, three_mode):
        with pytest.raises(ValueError):
            second_variation_ball(three_mode, 0.5, mode(2))


class TestSignZones:
    def test_stable_low(self):
        rep = classify_sign(Domain.ball(2, 1.0), 0.5, mode(2))
        assert rep.zone == "stable-low"
        assert rep.bound == pytest.approx(-0.75)
        assert rep.variation.E_ddot == pytest.approx(-4.0 / 3.0)
        assert rep.bound_satisfied is True
        assert rep.definite_negative

    def test_stable_mid(self):
        rep = classify_sign(Domain.ball(2, 1.0), 1.5, mode(2))
        assert rep.zone == "stable-mid"
        assert rep.bound == 0.0
        assert rep.variation.E_ddot == pytest.approx(-1.0)
        assert rep.bound_satisfied is True

    def test_stable_mid_near_upper_edge(self):
        # at xi = 1.875 the k=3 coefficient (-13.83) dominates the k=2
        # one (-29.25); nonpositivity must still hold for mixtures
        p = PerturbationField.from_modes(2, {2: 0.3, 3: 1.0})
        rep = classify_sign(Domain.ball(2, 1.0), 1.875, p)
        assert rep.zone == "stable-mid"
        assert rep.bound_satisfied is True
        assert rep.variation.E_ddot < 0

    def test_positive_window(self):
        rep = classify_sign(Domain.ball(2, 1.0), 2.5, mode(2))
        assert rep.zone == "positive-window"
        assert math.isnan(rep.bound) and rep.bound_satisfied is None
        assert rep.variation.E_ddot > 0 and not rep.definite_negative

    def test_mixed_zone(self):
        p = PerturbationField.from_modes(2, {2: 1.0, 5: 1.0})
        rep = classify_sign(Domain.ball(2, 1.0), 2.5, p)
        assert rep.zone == "mixed"

    @given(xi=hst.floats(min_value=0.05, max_value=1.95),
           seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_zone_bounds_hold(self, xi, seed):
        if abs(xi - 1.0) < 1e-6 or xi < 1e-3:
            return
        rng = np.random.default_rng(seed)
        amps = {k: float(a) for k, a in
                zip(range(2, 7), rng.normal(size=5)) if abs(a) > 1e-3}
        if not amps:
            return
        rep = classify_sign(Domain.ball(2, 1.0), xi,
                            PerturbationField.from_modes(2, amps))
        assert rep.zone in ("stable-low", "stable-mid")
        assert rep.bound_satisfied is True
        assert rep.definite_negative


class TestFirstVariation:
    def test_ball_uniform_speed_matches_radius_derivative(self, disc):
        # E(R) = pi R^2 (-R^2/8 + R/(2 alpha)); dE/dR at R=1, alpha=1 is pi
        got = first_variation_general(disc, 1.0, 1.0)
        assert got == pytest.approx(math.pi, rel=1e-12)

    def test_volume_preserving_speed_is_critical(self, disc):
        vn = NormalSpeedFamily.from_perturbation(mode(3), 1.0).vdotnu
        assert first_variation_general(disc, 0.7, vn) == pytest.approx(0.0, abs=1e-14)

    def test_star_dilation_matches_energy_derivative(self, ellipse):
        # dilation speed x.nu = rho^2 / sqrt(rho^2 + rho'^2)
        alpha, r = 0.8, ellipse.rho

        def scaled(c):
            return Domain.star2d(TrigPoly(c * r.a0, tuple(c * x for x in r.cos),
                                          tuple(c * x for x in r.sin)))

        vn = lambda t: r(t) ** 2 / np.sqrt(r(t) ** 2 + r(t, 1) ** 2)
        had = first_variation_general(ellipse, alpha, vn, M=256)
        h = 1e-4
        fd = (energy_direct(scaled(1 + h), alpha, 256)
              - energy_direct(scaled(1 - h), alpha, 256)) / (2 * h)
        assert had == pytest.approx(fd, abs=1e-7)

    def test_shell_rejected(self, shell):
        with pytest.raises(ValueError):
            first_variation_general(shell, 1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1e-12, -1e-10])
    def test_no_solution_raises(self, disc, ball3, ellipse, alpha):
        for d in (disc, ball3, ellipse):
            with pytest.raises(SolverError, match="no Robin solution"):
                first_variation_general(d, alpha, 1.0, M=64)


class TestJVariations:
    def test_jdot_vanishes_volume_preserving(self, disc):
        rep = j_variations(disc, 0.6, mode(2))
        assert rep.J_dot == pytest.approx(0.0, abs=1e-14)

    def test_bracket_and_per_mode_slack(self):
        R, alpha, n = 1.0, 0.7, 2
        p = PerturbationField.from_modes(2, {2: 0.8, 4: -0.5})
        rep = j_variations(Domain.ball(2, R), alpha, p)
        assert rep.lower_bound <= rep.J_ddot <= rep.upper_bound
        sol = solve_u_prime(Domain.ball(2, R), alpha, p)
        t = np.asarray(sol.t)
        ks = sol.degrees.astype(float)
        live = ks >= 2
        slack_lo = float(np.sum(2 * (ks[live] - 1) / R * t[live] ** 2))
        slack_up = float(np.sum(2 * (ks[live] - 1) ** 2 / (n * R) * t[live] ** 2))
        assert rep.slack_lower == pytest.approx(slack_lo, rel=1e-12)
        assert rep.slack_upper == pytest.approx(slack_up, rel=1e-12)

    @given(alpha=hst.floats(min_value=0.1, max_value=5.0),
           k=hst.integers(min_value=2, max_value=15))
    def test_bracket_always_holds(self, alpha, k):
        if abs(alpha - round(alpha)) < 1e-6 and round(alpha) >= 2:
            return   # resonant xi is a hard error elsewhere
        rep = j_variations(Domain.ball(2, 1.0), alpha, mode(k))
        assert rep.lower_bound <= rep.J_ddot + 1e-12
        assert rep.J_ddot <= rep.upper_bound + 1e-12


class TestNormalSpeedFamily:
    def test_exact_area_preservation(self):
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 0.7), (0.0, 0.0, 0.4)), 1.0)
        for t in (0.05, 0.2, 0.3):
            assert volume(fam.domain(t)) == pytest.approx(math.pi, rel=1e-13)

    def test_zero_mean_required(self):
        with pytest.raises(ValueError):
            NormalSpeedFamily(TrigPoly(0.3, (0.0, 1.0)), 1.0)

    def test_leaving_star_class_rejected(self):
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 1.0)
        with pytest.raises(ValueError):
            fam.domain(1.5)

    def test_perturbation_slots(self):
        norm = math.sqrt(math.pi)
        b = np.zeros(7)
        b[3], b[6] = 0.5 * norm, 0.25 * norm     # cos 2t and sin 3t slots
        eta = NormalSpeedFamily.from_perturbation(PerturbationField(tuple(b)), 1.0).eta
        assert eta.cos == pytest.approx((0.0, 0.5, 0.0))
        assert eta.sin == pytest.approx((0.0, 0.0, 0.25))
        assert eta.a0 == 0.0

    def test_perturbation_matches_slot_loop(self):
        b = (0.0, 0.3, 0.0, -0.5, 0.2, 0.0, 0.7)
        R = 1.7
        scale = math.sqrt(math.pi * R ** 3)
        cos, sin = [], []
        for k in range(1, len(b) // 2 + 1):
            cos.append(b[2 * k - 1] / scale)
            sin.append(b[2 * k] / scale)
        eta = NormalSpeedFamily.from_perturbation(PerturbationField(b), R).eta
        assert eta.cos == tuple(cos) and eta.sin == tuple(sin)

    @pytest.mark.parametrize("R", [1.0, 0.7, 2.3])
    def test_perturbation_round_trip(self, R):
        b = np.random.default_rng(7).standard_normal(13)
        b[0] = 0.0
        eta = NormalSpeedFamily.from_perturbation(PerturbationField(tuple(b)), R).eta
        back = np.zeros_like(b)      # b_i = R sqrt(pi R) eta_i
        back[1::2], back[2::2] = eta.cos, eta.sin
        back *= R * math.sqrt(math.pi * R)
        assert np.max(np.abs(back - b)) <= 1e-15 * np.max(np.abs(b))

    def test_initial_speed(self):
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 2.0)
        t = np.linspace(0, 2 * math.pi, 9)
        assert np.allclose(fam.vdotnu(t), 2.0 * np.cos(2 * t))


class TestFiniteDifference:
    def test_series_fit_matches_modal(self):
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 1.0)
        rep = finite_difference_check(
            fam, 0.5, [-0.03, -0.02, -0.01, 0.01, 0.02, 0.03],
            route="series", degree=3)
        assert rep.E_dot == pytest.approx(0.0, abs=1e-9)
        assert rep.E_ddot == pytest.approx(-4.0 * math.pi / 3.0, rel=1e-2)
        # quartic contamination shifts the degree-3 fit constant a little
        assert rep.E0 == pytest.approx(
            energy_direct(Domain.ball(2, 1.0), 0.5), abs=1e-5)

    def test_direct_route_agrees(self):
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 1.0)
        grid = [-0.02, -0.01, 0.01, 0.02]
        r1 = finite_difference_check(fam, 0.5, grid, route="series", degree=3)
        r2 = finite_difference_check(fam, 0.5, grid, route="direct", degree=3)
        assert r1.E_ddot == pytest.approx(r2.E_ddot, rel=1e-8)

    def test_unknown_route(self):
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 1.0)
        with pytest.raises(ValueError):
            finite_difference_check(fam, 0.5, [0.01], route="magic")

    @pytest.mark.parametrize("grid, degree", [
        ([-0.01, 0.01, 0.02, 0.03], -1),
        ([-0.01, 0.01, 0.02, 0.03], 1),
        ([-0.01, 0.01], 3),
        ([-0.01, -0.01, 0.01, 0.01], 3),
        ([-0.01, -0.0, 0.0, 0.01], 3),
        ([-0.01, 0.01, 0.02, math.nan], 3),
        ([-0.01, 0.01, 0.02, math.inf], 2),
        ([], 2),
    ])
    def test_unfittable_grid_rejected(self, grid, degree):
        # E'' needs degree >= 2 and degree + 1 distinct finite steps
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 1.0)
        with pytest.raises(ValueError):
            finite_difference_check(fam, 0.5, grid, degree=degree)

    def test_smallest_fittable_grid(self):
        fam = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0)), 1.0)
        rep = finite_difference_check(fam, 0.5, [-0.01, 0.0, 0.01], degree=2)
        assert rep.E_ddot == pytest.approx(-4.0 * math.pi / 3.0, rel=1e-2)
