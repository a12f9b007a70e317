"""Domains, boundary quadrature, trace bases, and perturbation fields."""
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from robinlab import (
    Domain,
    PerturbationField,
    TrigPoly,
    ball_mode_degrees,
    ball_mode_multiplicity,
    boundary_grid,
    domain_from_dict,
    domain_to_dict,
    random_star_domain,
    surface_area,
    surface_components,
    surface_defect,
    trig_interp,
    unit_ball_volume,
    unit_sphere_area,
    volume,
)

TAU = 2.0 * math.pi

small_coeffs = st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=4)


class TestTrigPoly:
    def test_evaluation_matches_direct_sum(self):
        p = TrigPoly(0.3, (0.1, -0.2), (0.05,))
        t = np.linspace(0, TAU, 17)
        expect = 0.3 + 0.1 * np.cos(t) - 0.2 * np.cos(2 * t) + 0.05 * np.sin(t)
        assert np.allclose(p(t), expect, atol=1e-15)

    def test_derivatives(self):
        p = TrigPoly(0.3, (0.1, -0.2), (0.05,))
        t = np.linspace(0, TAU, 9)
        h = 1e-6
        fd = (p(t + h) - p(t - h)) / (2 * h)
        assert np.allclose(p(t, order=1), fd, atol=1e-8)
        h = 1e-4   # second differences lose eps/h^2 to roundoff
        fd2 = (p(t + h) - 2 * p(t) + p(t - h)) / h**2
        assert np.allclose(p(t, order=2), fd2, atol=1e-6)

    @given(small_coeffs, small_coeffs)
    def test_from_samples_round_trip(self, cos, sin):
        p = TrigPoly(1.0, tuple(cos), tuple(sin))
        t = np.linspace(0, TAU, 64, endpoint=False)
        q = TrigPoly.from_samples(p(t))
        assert np.allclose(q(t), p(t), atol=1e-12)

    @given(st.floats(-10, 10))
    def test_periodicity(self, theta):
        p = TrigPoly(1.0, (0.2,), (0.1, 0.05))
        assert p(theta) == pytest.approx(p(theta + TAU), abs=1e-12)

    def test_min_value_and_mean(self):
        p = TrigPoly(1.0, (-0.3,))
        assert p.min_value() == pytest.approx(0.7, abs=1e-6)
        assert p.a0 == pytest.approx(1.0)


# The grid evaluator sums by one inverse FFT, __call__ term by term at each
# angle.  Both err by a multiple of eps * sum_k k^order (|a_k| + |b_k|): the
# direct sum rounds k * theta + shift (up to 2 pi * 40 here), the FFT adds
# O(log N) rounding.  The multiple was fixed before the first run.
GRID_EPS_MULTIPLE = 512


class TestGridEvaluator:
    @given(deg=st.integers(0, 40), order=st.integers(0, 2),
           N=st.sampled_from([8, 10, 256, 4096]), seed=st.integers(0, 2**32 - 1))
    @example(deg=4, order=2, N=8, seed=0)       # degree = N/2
    @example(deg=5, order=1, N=10, seed=1)      # degree = N/2, N/2 odd
    @example(deg=40, order=2, N=8, seed=2)      # N far below 2 * degree
    @example(deg=13, order=0, N=10, seed=3)
    @example(deg=0, order=1, N=8, seed=4)
    def test_matches_pointwise_sum(self, deg, order, N, seed):
        rng = np.random.default_rng(seed)
        cos = rng.uniform(-1.0, 1.0, deg)
        sin = rng.uniform(-1.0, 1.0, int(rng.integers(0, deg + 1)))
        p = TrigPoly(float(rng.uniform(-2.0, 2.0)), tuple(cos), tuple(sin))
        k = np.arange(1.0, deg + 1.0) ** order
        size = np.sum(k * np.abs(cos)) + np.sum(k[:sin.size] * np.abs(sin))
        if order == 0:
            size += abs(p.a0)
        t = np.linspace(0.0, TAU, N, endpoint=False)
        err = np.max(np.abs(p._on_grid(N, order) - p(t, order)))
        assert err <= GRID_EPS_MULTIPLE * np.finfo(float).eps * size


class TestMeasures:
    def test_ball_volume_and_area(self):
        for n, R in ((2, 1.0), (2, 2.0), (3, 1.5)):
            d = Domain.ball(n, R)
            assert volume(d) == pytest.approx(unit_ball_volume(n) * R**n)
            assert surface_area(d) == pytest.approx(
                unit_sphere_area(n) * R ** (n - 1))

    def test_shell_measures(self, shell):
        assert volume(shell) == pytest.approx(4 * math.pi / 3 * (1 - 0.125))
        s_out, s_in = surface_components(shell)
        assert s_out == pytest.approx(4 * math.pi)
        assert s_in == pytest.approx(math.pi)
        assert surface_area(shell) == pytest.approx(5 * math.pi)

    def test_ellipse_area_is_exact(self, ellipse):
        # the construction rescales rho so the enclosed area is exactly pi R^2
        assert volume(ellipse) == pytest.approx(math.pi, abs=1e-14)

    def test_star_area_closed_form(self):
        # area of rho = 1 + eps cos(k t) is pi (1 + eps^2 / 2)
        d = Domain.star2d(TrigPoly(1.0, (0.0, 0.1)))
        assert volume(d) == pytest.approx(math.pi * 1.005, abs=1e-13)

    def test_defect_zero_on_disc_positive_off(self, disc, ellipse):
        assert surface_defect(disc) == pytest.approx(0.0, abs=1e-14)
        assert surface_defect(ellipse) > 1e-3

    @given(st.integers(0, 2**32 - 1))
    def test_isoperimetric_defect_nonnegative(self, seed):
        d = random_star_domain(np.random.default_rng(seed))
        assert surface_defect(d) >= -1e-12

class TestCurvature:
    def test_planar_curve_value(self):
        # kappa(0) = (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^{3/2}
        # for rho = 1 + 0.1 cos 2t at t=0: (1.21 + 0.44) / 1.21^{1.5}
        c = boundary_grid(Domain.star2d(TrigPoly(1.0, (0.0, 0.1))), 64)
        assert c.curvature[0] == pytest.approx(1.65 / 1.331, rel=1e-12)

class TestTraceBasis:
    def test_multiplicities(self):
        assert [ball_mode_multiplicity(2, k) for k in range(4)] == [1, 2, 2, 2]
        assert [ball_mode_multiplicity(3, k) for k in range(4)] == [1, 3, 5, 7]

    def test_degree_layout_planar(self):
        assert list(ball_mode_degrees(2, 6)) == [0, 1, 1, 2, 2, 3]
        assert list(ball_mode_degrees(3, 5)) == [0, 1, 1, 1, 2]


class TestPerturbations:
    def test_from_modes_slots(self):
        p = PerturbationField.from_modes(2, {2: 1.0})
        assert p.b_array[3] == 1.0


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: Domain.ball(3, 1.5),
        lambda: Domain.annulus(2, 1.0, 0.25),
        lambda: Domain.star2d(TrigPoly(1.0, (0.0, 0.1), (0.05,))),
    ])
    def test_domain_round_trip(self, make):
        d = make()
        back = domain_from_dict(domain_to_dict(d))
        assert back.kind == d.kind and back.dim == d.dim
        assert volume(back) == pytest.approx(volume(d), rel=1e-14)

class TestInterpolation:
    @given(small_coeffs)
    def test_trig_interp_exact_on_polynomials(self, cos):
        p = TrigPoly(0.5, tuple(cos))
        src = np.linspace(0, TAU, 32, endpoint=False)
        dst = np.linspace(0.1, TAU, 13)
        assert np.allclose(trig_interp(p(src), dst), p(dst), atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_random_star_domains_stay_positive(seed):
    d = random_star_domain(np.random.default_rng(seed))
    t = np.linspace(0, TAU, 512)
    assert d.rho(t).min() > 0.3 * 1.0 - 1e-12
