"""Area-perimeter torsion bounds, the crossover profile, disc optimality."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from robinlab import (
    Domain,
    corollary_disc_max,
    ellipse_domain,
    g,
    pw_upper_bound,
    random_star_domain,
    rigidity,
    solve_torsion,
    surface_area,
    surface_defect,
    theorem_J_check,
    threshold_alpha,
    volume,
)


class TestProfileG:
    def test_anchor_values(self):
        assert g(0.0) == 0.5
        val = g(0.999)
        assert val == pytest.approx(1.9380468012621765, rel=1e-12)
        assert 1.9 < val < 2.0

    def test_monotone_increasing(self):
        ts = np.linspace(0.0, 0.9999, 400)
        vals = [g(float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_taylor_seam_continuous(self):
        # the implementation switches branches at eps = 1e-3
        lo = g(1.0 - 1.0001e-3)
        hi = g(1.0 - 0.9999e-3)
        assert abs(hi - lo) < 1e-5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g(-0.01)
        with pytest.raises(ValueError):
            g(1.0)

    def test_limit_toward_two(self):
        assert g(1.0 - 1e-12) == pytest.approx(2.0, abs=1e-5)


class TestPWBound:
    def test_disc_is_sharp(self):
        b = pw_upper_bound(math.pi, 2.0 * math.pi)
        assert b.defect == 0.0
        assert b.R_tilde == pytest.approx(1.0)
        assert b.T_star == pytest.approx(-math.pi / 8.0, rel=1e-14)
        assert b.epsilon0_upper == 0.0

    def test_scaled_disc(self):
        R = 1.7
        b = pw_upper_bound(math.pi * R ** 2, 2.0 * math.pi * R)
        assert b.T_star == pytest.approx(-math.pi * R ** 4 / 8.0, rel=1e-14)

    def test_identity_with_equal_area_ball(self):
        # T* - T(B_eq) must equal the epsilon0 bound, with B_eq the
        # ball of the same AREA (not the same perimeter)
        A, L = 2.3, 7.1
        b = pw_upper_bound(A, L)
        R_eq = math.sqrt(A / math.pi)
        T_ball = -math.pi * R_eq ** 4 / 8.0
        assert b.T_star - T_ball == pytest.approx(b.epsilon0_upper, rel=1e-12)

    def test_bounds_exact_torsion_ellipse(self, ellipse):
        b = pw_upper_bound(volume(ellipse), surface_area(ellipse))
        assert b.T_star >= rigidity(ellipse, 256)
        assert b.T_star == pytest.approx(-0.3825911104521867, rel=1e-10)

    def test_isoperimetric_floor(self):
        with pytest.raises(ValueError):
            pw_upper_bound(math.pi, 6.0)     # L^2 < 4 pi A
        with pytest.raises(ValueError):
            pw_upper_bound(-1.0, 5.0)

    @given(seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_bounds_torsion_random_domains(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        b = pw_upper_bound(volume(d), surface_area(d))
        assert solve_torsion(d, M=128).T <= b.T_star + 1e-12


class TestThreshold:
    def test_disc_threshold_is_inverse_radius(self):
        for R in (1.0, 2.0, 0.4):
            assert threshold_alpha(Domain.ball(2, R)) == pytest.approx(
                1.0 / R, rel=1e-12)

    def test_ellipse_threshold(self, ellipse):
        assert threshold_alpha(ellipse) == pytest.approx(
            1.0517903349996707, rel=1e-9)

    def test_planar_only(self, ball3):
        with pytest.raises(ValueError):
            threshold_alpha(ball3)

    def test_theorem_check_ellipse(self, ellipse):
        rep = theorem_J_check(ellipse)
        assert rep.satisfied
        assert rep.alpha0 == pytest.approx(1.51270077, rel=1e-6)
        assert rep.threshold == pytest.approx(1.05179033, rel=1e-6)
        assert rep.epsilon0 <= rep.epsilon0_upper
        assert rep.epsilon0_upper == pytest.approx(0.0101079712, rel=1e-6)
        assert rep.defect == pytest.approx(surface_defect(ellipse))

    def test_theorem_check_disc(self, disc):
        rep = theorem_J_check(disc)
        assert rep.satisfied and math.isinf(rep.alpha0)

    @given(seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_threshold_below_crossover(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        rep = theorem_J_check(d, M=128)
        assert rep.satisfied
        assert rep.epsilon0 <= rep.epsilon0_upper + 1e-12


class TestDiscMax:
    def test_disc_equality(self, disc):
        rep = corollary_disc_max(disc, 0.4)
        assert abs(rep.gap) < 1e-8
        assert rep.chain_ok

    def test_ellipse_below_disc(self, ellipse):
        rep = corollary_disc_max(ellipse, 0.4, M=256)
        assert rep.gap > 0.0
        assert rep.mu2 == pytest.approx(0.86078796, rel=1e-6)
        assert rep.chain_ok
        assert rep.mu2 <= rep.weinstock <= rep.inv_R + 1e-12

    def test_window_enforced(self, ellipse):
        with pytest.raises(ValueError):
            corollary_disc_max(ellipse, 0.9, M=256)    # above mu_2
        with pytest.raises(ValueError):
            corollary_disc_max(ellipse, -0.1, M=256)

    def test_annulus_rejected(self):
        with pytest.raises(ValueError):
            corollary_disc_max(Domain.annulus(2, 1.0, 0.5), 0.3)

    @given(seed=hst.integers(min_value=0, max_value=10 ** 6))
    def test_gap_nonnegative_random(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        rep = corollary_disc_max(d, 0.2, n_modes=24, M=192)
        assert rep.gap >= -1e-10
        assert rep.chain_ok
