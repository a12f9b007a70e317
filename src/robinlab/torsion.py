"""Dirichlet torsion: Delta s + 1 = 0 in Omega, s = 0 on the boundary.

T(Omega) = -integral of s over Omega is the (negative) torsional
rigidity; it feeds the constant term of the Robin energy series.  Balls
and shells use closed forms; planar star domains solve a single-layer
Dirichlet problem and reduce T to boundary quadrature by a Green
identity (exponentially accurate, unlike volume quadrature of the
near-boundary layer potential).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .geometry import Domain, DEFAULT_BOUNDARY_NODES
from .layerpot import StarLayerOperator, operator_for
from .steklov import SteklovBasis

__all__ = [
    "TorsionSolution",
    "solve_torsion",
    "rigidity",
    "flux_coefficients",
    "gauss_identity_residual",
]


@dataclass(frozen=True)
class TorsionSolution:
    """Torsion function data: T, boundary flux, and a radial/nodal profile.

    `flux` is a float (balls), an (outer, inner) pair (shells), or nodal
    values on the operator grid (star domains).  `error` is a
    node-doubling estimate for numeric solves, 0.0 for closed forms.
    """

    domain: Domain
    T: float
    flux: object
    error: float = 0.0
    radial: tuple[float, float] | None = None    # (c1, c2): s = -r^2/2n + c1 + c2 g(r)
    flux_nodal: np.ndarray | None = None
    thetas: np.ndarray | None = None
    weights: np.ndarray | None = None
    density: np.ndarray | None = None
    operator: object | None = None

    def s_radial(self, r):
        """Radial profile s(r) for balls and shells."""
        d = self.domain
        r = np.asarray(r, dtype=float)
        if d.kind == "ball":
            return (d.R ** 2 - r ** 2) / (2.0 * d.dim)
        if d.kind == "annulus":
            c1, c2 = self.radial
            g = np.log(r) if d.dim == 2 else r ** (2 - d.dim)
            return -r ** 2 / (2.0 * d.dim) + c1 + c2 * g
        raise ValueError("no radial profile for star domains")

    def interior_values(self, pts: np.ndarray) -> np.ndarray:
        """s at interior points (planar star solves)."""
        if self.operator is None:
            pts = np.atleast_2d(pts)
            return self.s_radial(np.hypot(pts[:, 0], pts[:, 1]))
        pts = np.atleast_2d(pts)
        h = self.operator.evaluate(self.density, pts)
        return -0.25 * (pts[:, 0] ** 2 + pts[:, 1] ** 2) + h


def _annulus_coefficients(n: int, R: float, a: float) -> tuple[float, float]:
    # s(R) = s(a) = 0 pins the harmonic part c1 + c2 g(r)
    if n == 2:
        gR, ga = math.log(R), math.log(a)
    else:
        gR, ga = R ** (2 - n), a ** (2 - n)
    c2 = (R ** 2 - a ** 2) / (2.0 * n * (gR - ga))
    c1 = R ** 2 / (2.0 * n) - c2 * gR
    return c1, c2


def _annulus_T(n: int, R: float, a: float, c1: float, c2: float) -> float:
    # -n omega_n * int_a^R s(r) r^{n-1} dr, term by term
    wn = geo.unit_ball_volume(n)
    i_pow = (R ** (n + 2) - a ** (n + 2)) / (n + 2)
    i_one = (R ** n - a ** n) / n
    if n == 2:
        i_g = (R ** 2 * (2 * math.log(R) - 1) - a ** 2 * (2 * math.log(a) - 1)) / 4.0
    else:
        i_g = (R ** 2 - a ** 2) / 2.0
    return -n * wn * (-i_pow / (2.0 * n) + c1 * i_one + c2 * i_g)


def _solve_star(op: StarLayerOperator) -> tuple[float, np.ndarray, np.ndarray]:
    M = op.M
    x, y = op.points[:, 0], op.points[:, 1]
    rr = x * x + y * y
    sigma = op.dirichlet_density(0.25 * rr)
    flux = -0.5 * (op.points * op.normals).sum(axis=1) + op.normal_derivative(sigma)
    # T = int |x|^2/4 dx + oint |x|^2/4 d_nu s dS; the volume term is
    # (1/16) int rho^4 dtheta, spectrally exact by the trapezoid rule
    rho4 = op.rho(op.thetas) ** 4
    vol_term = float(np.sum(rho4) * (2.0 * np.pi / M) / 16.0)
    T = vol_term + float(np.sum(0.25 * rr * flux * op.weights))
    return T, flux, sigma


def solve_torsion(d: Domain, M: int = DEFAULT_BOUNDARY_NODES, *,
                  operator: StarLayerOperator | None = None) -> TorsionSolution:
    """Solve the torsion problem on a ball, shell, or planar star domain.

    Parameters
    ----------
    d : Domain
    M : boundary node count for star-domain solves (ignored otherwise).
    operator : layer operator of d's boundary at M nodes (for example
        `SteklovBasis.operator`), reused for the main solve instead of
        building a new one.  The node-doubling error estimate always
        builds its own operator at M/2.  Ignored for balls and shells.

    Returns
    -------
    TorsionSolution
        T with outward flux d_nu s on each boundary piece.
    """
    n, R = d.dim, d.R
    if d.kind == "ball":
        T = -geo.unit_ball_volume(n) * R ** n * R ** 2 / (n * (n + 2))
        return TorsionSolution(d, T, -R / n)
    if d.kind == "annulus":
        a = d.kappa * R
        c1, c2 = _annulus_coefficients(n, R, a)
        T = _annulus_T(n, R, a, c1, c2)
        gp = (lambda r: 1.0 / r) if n == 2 else (lambda r: (2 - n) * r ** (1 - n))
        sp = lambda r: -r / n + c2 * gp(r)
        return TorsionSolution(d, T, (sp(R), -sp(a)), radial=(c1, c2))
    op = operator_for(d.rho, M, operator)
    T, flux, sigma = _solve_star(op)
    T_half, _, _ = _solve_star(StarLayerOperator(d.rho, M // 2))
    return TorsionSolution(d, T, flux, error=abs(T - T_half),
                           flux_nodal=flux, thetas=op.thetas,
                           weights=op.weights, density=sigma, operator=op)


def rigidity(d: Domain, M: int = DEFAULT_BOUNDARY_NODES) -> float:
    """T(Omega) alone."""
    return solve_torsion(d, M).T


def flux_coefficients(ts: TorsionSolution, basis: SteklovBasis) -> np.ndarray:
    """a_i = boundary inner product of phi_i with d_nu s.

    Constant flux per boundary piece makes balls and shells exact; star
    domains integrate nodal flux against the basis traces (resampling by
    trigonometric interpolation when the grids differ).
    """
    d = ts.domain
    if d.kind == "ball":
        return basis.moments(float(ts.flux))
    if d.kind == "annulus":
        return basis.moments((float(ts.flux[0]), float(ts.flux[1])))
    if basis.kind != "star":
        raise ValueError("star torsion needs a star basis")
    if basis.thetas.size == ts.thetas.size and np.allclose(basis.thetas, ts.thetas):
        return basis.moments(ts.flux_nodal)
    return basis.moments(geo.trig_interp(ts.flux_nodal, basis.thetas))


def gauss_identity_residual(ts: TorsionSolution) -> float:
    """|oint d_nu s dS + |Omega||, zero in exact arithmetic."""
    d = ts.domain
    vol = geo.volume(d)
    if d.kind == "ball":
        total = ts.flux * geo.surface_area(d)
    elif d.kind == "annulus":
        s_out, s_in = geo.surface_components(d)
        total = ts.flux[0] * s_out + ts.flux[1] * s_in
    else:
        total = float(np.sum(ts.flux_nodal * ts.weights))
    return abs(total + vol)
