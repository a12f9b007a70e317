"""Acceptance gate: ten end-to-end checks, one verdict line each.

Each check prints `[criterion NN] PASS/FAIL (runtime)` straight to the
terminal so a plain pytest run leaves a readable scoreboard.  Tolerances
and runtime caps are part of the contract and are asserted, not logged.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from robinlab import (
    Domain,
    PerturbationField,
    TrigPoly,
    alpha0,
    classify_sign,
    energy_direct,
    energy_series,
    fem_dirichlet_T,
    finite_difference_check,
    first_variation_general,
    g,
    j_functional,
    modal_coefficient,
    normal_speed_family,
    pole_scan,
    pw_upper_bound,
    random_perturbation,
    random_star_domain,
    second_variation_ball,
    spectrum_star2d,
    surface_area,
    threshold_alpha,
    unit_ball_volume,
    volume,
)
from robinlab.cli import main


@contextmanager
def criterion(capsys, num, limit, detail):
    t0 = time.perf_counter()
    failure = None
    try:
        yield
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    ok = failure is None and elapsed < limit
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f} s / {limit:g} s cap)  {detail}")
    if failure is not None:
        raise failure
    assert elapsed < limit, f"runtime {elapsed:.2f} s exceeds {limit} s cap"


def ball_energy(n, R, alpha):
    vol = unit_ball_volume(n) * R ** n
    return vol * (-R * R / (n * (n + 2)) + R / (alpha * n))


def test_c01_ball_closed_form(capsys):
    with criterion(capsys, 1, 1.0, "ball energy closed form, both routes"):
        for n in (2, 3):
            for R in (1.0, 2.0):
                for alpha in (0.5, 1.0, 2.0, -1.0):
                    d = Domain.ball(n, R)
                    exact = ball_energy(n, R, alpha)
                    tol = 1e-10 * max(1.0, abs(exact))
                    assert abs(energy_series(d, alpha).E_total - exact) <= tol
                    assert abs(energy_direct(d, alpha) - exact) <= tol


def test_c02_annulus_series_vs_direct(capsys):
    with criterion(capsys, 2, 5.0, "shell series vs radial two-point solve, "
                                   "50 alphas; poles {0, 5}"):
        shell = Domain.annulus(3, 1.0, 0.5)
        alphas = np.concatenate([np.linspace(-3.0, -0.3, 12),
                                 np.linspace(0.3, 4.7, 25),
                                 np.linspace(5.3, 9.0, 13)])
        assert alphas.size == 50
        for a in alphas:
            es = energy_series(shell, float(a)).E_total
            ed = energy_direct(shell, float(a))
            assert abs(es - ed) <= 1e-8 * max(1.0, abs(ed))
        assert pole_scan(shell) == (0.0, 5.0)


def test_c03_disc_spectrum_numeric(capsys):
    with criterion(capsys, 3, 10.0, "disc Steklov spectrum at M=256, "
                                    "15 modes + orthonormality"):
        b = spectrum_star2d(Domain.star2d(TrigPoly(1.0)), n_modes=15, M=256)
        expected = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7],
                            dtype=float)
        assert np.abs(b.mu - expected).max() < 1e-6
        t, w = b.boundary_quadrature()
        T = b.trace_matrix(t)
        gram = (T * w) @ T.T
        assert np.abs(gram - np.eye(15)).max() < 1e-8


def test_c04_ellipse_second_variation(capsys):
    with criterion(capsys, 4, 60.0, "cos(2t) second variation: modal route, "
                                    "FEM/series fits, sign flip at xi=2"):
        p = PerturbationField.from_modes(2, {2: math.sqrt(math.pi)})
        for alpha in (0.4, 1.0, 1.7):
            exact = (-3.0 / (4.0 * alpha)
                     + (1.0 - alpha) / (2.0 * (2.0 - alpha))) * math.pi
            rep = second_variation_ball(Domain.ball(2, 1.0), alpha, p)
            assert abs(rep.E_ddot - exact) <= 1e-10 * max(1.0, abs(exact))
            assert rep.agreement_ok(1e-10)
        exact1 = -3.0 * math.pi / 4.0
        fam = normal_speed_family(TrigPoly(0.0, (0.0, 1.0)))
        steps = [-0.03, -0.02, -0.01, 0.01, 0.02, 0.03]
        for route in ("series", "fem"):
            fd = finite_difference_check(fam, 1.0, steps, route=route,
                                         degree=3)
            assert abs(fd.E_ddot - exact1) < 0.01 * abs(exact1)
        assert modal_coefficient(2, 2, 2.0 - 1e-9) < 0
        assert modal_coefficient(2, 2, 2.0 + 1e-9) > 0
        lo = second_variation_ball(Domain.ball(2, 1.0), 1.95, p)
        hi = second_variation_ball(Domain.ball(2, 1.0), 2.05, p)
        assert lo.E_ddot < 0 < hi.E_ddot


def test_c05_sign_table(capsys):
    with criterion(capsys, 5, 1.0, "modal coefficient signs, n in {2,3,4}, "
                                   "k <= 50"):
        ks = np.arange(2, 51, dtype=float)
        xis = np.concatenate([np.arange(0.25, 20.0, 0.5),
                              np.arange(0.1, 20.0, 1.0),
                              np.arange(0.9, 20.0, 1.0)])
        for n in (2, 3, 4):
            for xi in xis:
                kp = math.floor(xi)
                d = modal_coefficient(n, ks, float(xi))
                assert np.all(d[ks > kp] < 0)
                assert np.all(d[(ks >= 2) & (ks <= kp)] > 0)


def test_c06_low_alpha_quantitative_bound(capsys):
    with criterion(capsys, 6, 1.0, "Edd below the low-alpha bound on 100 "
                                   "random perturbations"):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for xi in (0.3, 0.7):
                for _ in range(25):
                    p = random_perturbation(rng, n, max_degree=8)
                    rep = classify_sign(Domain.ball(n, 1.0), xi, p)
                    assert rep.zone == "stable-low" and rep.bound < 0
                    assert rep.bound_satisfied
                    slack = 1e-12 * max(1.0, abs(rep.variation.E_ddot))
                    assert rep.variation.E_ddot <= rep.bound + slack


def test_c07_pw_bound_random_domains(capsys):
    with criterion(capsys, 7, 120.0, "area-perimeter torsion bound vs FEM on "
                                     "10 random domains; disc sharp"):
        disc = pw_upper_bound(math.pi, 2.0 * math.pi)
        assert abs(disc.T_star - (-math.pi / 8.0)) < 1e-8
        assert g(0.0) == 0.5
        assert 1.9 < g(0.999) < 2.0
        rng = np.random.default_rng(2026)
        for _ in range(10):
            d = random_star_domain(rng)
            bound = pw_upper_bound(volume(d), surface_area(d))
            assert fem_dirichlet_T(d) <= bound.T_star


def test_c08_corpus_ball_comparison(capsys):
    with criterion(capsys, 8, 300.0, "20-domain corpus: E and J never beat "
                                     "the equal-area ball"):
        code = main(["corpus", "--count", "20", "--seed", "0"])
        out = capsys.readouterr().out
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert code == 0 and len(rows) == 20
        assert all(r[6] == "true" for r in rows)   # E_ok
        assert all(r[9] == "true" for r in rows)   # J_ok


def test_c09_crossover_from_fem(capsys):
    with criterion(capsys, 9, 60.0, "ellipse crossover alpha0 from FEM "
                                    "torsion deficit; threshold inequality"):
        from robinlab import ellipse_domain
        ell = ellipse_domain()
        T_fem = fem_dirichlet_T(ell)
        rep = alpha0(ell, T_omega=T_fem)
        ball = Domain.ball(2, rep.R)
        for a, side in ((rep.alpha0 / 2.0, -1.0), (2.0 * rep.alpha0, 1.0)):
            gap = (j_functional(ell, a, T_omega=T_fem)
                   - j_functional(ball, a))
            assert side * gap > 0
        assert rep.alpha0 >= threshold_alpha(ell)


def test_c10_first_variation_zero(capsys):
    with criterion(capsys, 10, 30.0, "50 volume-preserving flows: analytic "
                                     "and fitted first variation vanish"):
        rng = np.random.default_rng(10)
        disc = Domain.ball(2, 1.0)
        steps = [-0.02, -0.01, 0.01, 0.02]
        for _ in range(50):
            coeffs = rng.uniform(-0.04, 0.04, size=8)
            eta = TrigPoly(0.0, (0.0, *coeffs[:4]), (0.0, *coeffs[4:]))
            fam = normal_speed_family(eta)
            analytic = first_variation_general(disc, 0.5, fam.vdotnu)
            assert abs(analytic) < 1e-12
            fd = finite_difference_check(fam, 0.5, steps, route="series",
                                         degree=3, n_modes=24, M=192)
            scale = max(1.0, abs(fd.E0))
            assert abs(fd.E_dot) < 1e-4 * scale
