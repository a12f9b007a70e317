"""Perimeter-and-area bounds for planar torsion and the disc-optimality zone.

Knowing only area A and perimeter L of a planar domain pins the
surface defect y^2 = 1 - 4 pi A / L^2 and yields an explicit upper
bound T* on the torsion energy, sharp for the disc.  The same defect
controls the crossover parameter of the two-term energy surrogate
through the profile function g, and a spectral corollary places the
disc at the top of the energy ordering for 0 < alpha < mu_2(Omega).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry as geo
from . import robin_energy as energy
from .geometry import Domain

__all__ = [
    "PWBound",
    "JThresholdReport",
    "DiscMaxReport",
    "pw_upper_bound",
    "g",
    "threshold_alpha",
    "theorem_J_check",
    "corollary_pack",
    "low_alpha",
    "corollary_disc_max",
]


@dataclass(frozen=True)
class PWBound:
    """Torsion bound from (area, perimeter) alone; tight for the disc."""

    defect: float          # y^2 = 1 - 4 pi A / L^2, in [0, 1)
    T_star: float          # upper bound on T(Omega)
    epsilon0_upper: float  # upper bound on T(Omega) - T(ball of equal area)


def _xlogy(x: float, y: float) -> float:
    """x log y, taken as 0 when x = 0 (so also at y = 0)."""
    return 0.0 if x == 0 else x * math.log(y)


def pw_upper_bound(A: float, L: float) -> PWBound:
    """Upper bound on the torsion energy from area and perimeter.

    T(Omega) <= T* = (pi/2) Rt^4 [ y^4 log(y^2)/2 - 3 y^4/4 + y^2 - 1/4 ]
    with Rt = L/(2 pi) and y^2 the isoperimetric defect.  Requires
    L^2 >= 4 pi A; equality (the disc) gives T* = -pi Rt^4 / 8 exactly.
    """
    if A <= 0 or L <= 0:
        raise ValueError("area and perimeter must be positive")
    y2 = 1.0 - 4.0 * math.pi * A / L ** 2
    if y2 < -1e-12:
        raise ValueError(
            f"L^2 = {L ** 2:.6g} violates the isoperimetric floor 4 pi A = "
            f"{4 * math.pi * A:.6g}")
    y2 = max(y2, 0.0)
    rt = L / (2.0 * math.pi)
    t_star = 0.5 * math.pi * rt ** 4 * (
        0.5 * _xlogy(y2 ** 2, y2) - 0.75 * y2 ** 2 + y2 - 0.25)
    eps_up = 0.25 * math.pi * rt ** 4 * y2 * (1.0 + _xlogy(y2, y2) - y2)
    return PWBound(y2, t_star, eps_up)


def g(t: float) -> float:
    """Crossover profile g(t) = (1-t)^2 / ((1+sqrt(1-t)) (1 + t log t - t)).

    Defined on [0, 1) with g(0) = 1/2.  Near t = 1 the denominator
    cancels catastrophically, so a Taylor branch in eps = 1 - t is used
    (1 + t log t - t = (eps^2/2)(1 + eps/3 + eps^2/6 + eps^3/10 + ...)).
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("g is defined for 0 <= t < 1")
    eps = 1.0 - t
    root = math.sqrt(eps)
    if eps < 1e-3:
        series = 1.0 + eps / 3.0 + eps ** 2 / 6.0 + eps ** 3 / 10.0 + eps ** 4 / 15.0
        return 2.0 / ((1.0 + root) * series)
    den = 1.0 + _xlogy(t, t) - t
    return eps ** 2 / ((1.0 + root) * den)


def threshold_alpha(d: Domain) -> float:
    """(2/R) g(y^2): guaranteed lower bound on the J crossover of a planar domain."""
    if d.dim != 2:
        raise ValueError("the threshold is planar")
    y2 = geo.surface_defect(d)
    R = math.sqrt(geo.volume(d) / math.pi)
    return 2.0 / R * g(y2)


@dataclass(frozen=True)
class JThresholdReport:
    alpha0: float
    threshold: float
    satisfied: bool


def theorem_J_check(d: Domain, rep: energy.Alpha0Report) -> JThresholdReport:
    """Verify alpha0(Omega) >= (2/R) g(y^2) for a planar domain.

    `rep` is d's `alpha0` report, whose crossover uses the computed
    torsion deficit; the threshold uses only area and perimeter.
    `satisfied` allows a 1e-9 relative slack for quadrature noise.
    """
    thr = threshold_alpha(d)
    ok = rep.alpha0 >= thr * (1.0 - 1e-9)
    return JThresholdReport(rep.alpha0, thr, bool(ok))


@dataclass(frozen=True)
class DiscMaxReport:
    alpha: float
    E_domain: float
    E_ball: float
    gap: float            # E_ball - E_domain >= 0 inside the validity zone
    mu2: float
    weinstock: float      # 2 pi / L
    inv_R: float          # 1 / R, equal-area disc
    chain_ok: bool        # mu2 <= 2 pi / L <= 1/R


def corollary_pack(d: Domain, n_modes: int, M: int | None) -> energy._SeriesPack:
    """The series pack `corollary_disc_max` reads, built once per domain.

    d must be simply connected and planar; a disc enters as the star
    domain of constant radius, so its energy takes the Nystrom route.
    """
    if d.kind != "star2d":
        d = Domain.star2d(geo._planar_rho(d))
    return energy.series_pack(d, n_modes=n_modes, M=M)


def low_alpha(d: Domain, mu2: float) -> float:
    """min(1/R, 0.9 mu_2) with R the equal-area radius: an alpha in the disc window."""
    return min(1.0 / math.sqrt(geo.volume(d) / math.pi), 0.9 * mu2)


def corollary_disc_max(pack: energy._SeriesPack, alpha: float) -> DiscMaxReport:
    """Energy comparison with the equal-area disc for 0 < alpha < mu_2(Omega).

    Inside that window the disc maximizes E among equal-area planar
    domains; the report carries both energies and the Weinstock chain
    mu_2(Omega) <= 2 pi / L <= 1/R that calibrates the window.  `pack`
    is `corollary_pack(d, n_modes, M)`, built once for every alpha of d.
    An alpha outside the window raises ValueError, and one that the
    series resonates with (NoSolution) raises SolverError.
    """
    d = pack.domain
    mu2 = float(pack.mu[1])
    if not 0.0 < alpha < mu2:
        raise ValueError(
            f"alpha={alpha} outside the validity window (0, mu_2={mu2:.6g})")
    E_dom = energy._series_energy(pack, alpha)
    R = d.R                       # the equal-area radius of a star domain
    E_ball = energy.ball_energy(2, R, alpha)
    L = geo.surface_area(d)
    wein = 2.0 * math.pi / L
    chain = mu2 <= wein * (1 + 1e-9) and wein <= (1.0 / R) * (1 + 1e-9)
    return DiscMaxReport(alpha, E_dom, E_ball, E_ball - E_dom, mu2,
                         wein, 1.0 / R, bool(chain))
