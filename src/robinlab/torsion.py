"""Dirichlet torsion: Delta s + 1 = 0 in Omega, s = 0 on the boundary.

T(Omega) = -integral of s over Omega is the (negative) torsional
rigidity; it feeds the constant term of the Robin energy series.  Balls
and shells use closed forms; planar star domains solve a single-layer
Dirichlet problem and reduce T to boundary quadrature by a Green
identity (exponentially accurate, unlike volume quadrature of the
near-boundary layer potential).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .geometry import Domain
from .layerpot import StarLayerOperator, operator_for
from .steklov import SteklovBasis, _radial_g, _radial_g_prime, _radial_values, _shell_energy

__all__ = [
    "TorsionSolution",
    "solve_torsion",
    "flux_coefficients",
    "gauss_identity_residual",
]


@dataclass(frozen=True)
class TorsionSolution:
    """Torsion function data: T, boundary flux, and a radial/nodal profile.

    `flux` is a float (balls), an (outer, inner) pair (shells), or nodal
    values on the grid of `operator` (star domains, whose `thetas` and
    `weights` are the nodes and quadrature weights).
    """

    domain: Domain
    T: float
    flux: object
    radial: tuple[float, float] | None = None    # (c1, c2): s = -r^2/2n + c1 + c2 g(r)
    operator: object | None = None

    @property
    def error(self) -> float:
        """|T - T_half| with T_half solved anew at 2 (M // 4) nodes on each read.

        0.0 for closed forms; a star solve with M < 16 raises ValueError.
        """
        if self.operator is None:
            return 0.0
        half = StarLayerOperator(self.domain.rho, 2 * (self.operator.M // 4))
        return abs(self.T - _solve_star(half)[0])

    def boundary_integral(self, f) -> float:
        """oint f(d_nu s) dS over every boundary piece."""
        d = self.domain
        if d.kind == "ball":
            return f(self.flux) * geo.surface_area(d)
        if d.kind == "annulus":
            s_out, s_in = geo.surface_components(d)
            return f(self.flux[0]) * s_out + f(self.flux[1]) * s_in
        return float(np.sum(f(self.flux) * self.operator.weights))

    def s_radial(self, r):
        """Radial profile s(r) for balls and shells."""
        return _radial_values(self, r)


def _annulus_coefficients(n: int, R: float, a: float) -> tuple[float, float]:
    # s(R) = s(a) = 0 pins the harmonic part c1 + c2 g(r)
    gR, ga = _radial_g(n, R), _radial_g(n, a)
    c2 = (R ** 2 - a ** 2) / (2.0 * n * (gR - ga))
    c1 = R ** 2 / (2.0 * n) - c2 * gR
    return c1, c2


def _solve_star(op: StarLayerOperator) -> tuple[float, np.ndarray]:
    rr = op.radius_sq
    sigma = op.torsion_density
    flux = -0.5 * (op.points * op.normals).sum(axis=1) + op.normal_derivative(sigma)
    # T = int |x|^2/4 dx + oint |x|^2/4 d_nu s dS
    T = op.quarter_r2_integral() + float(np.sum(0.25 * rr * flux * op.weights))
    return T, flux


def solve_torsion(d: Domain, M: int | None = None, *,
                  operator: StarLayerOperator | None = None) -> TorsionSolution:
    """Solve the torsion problem on a ball, shell, or planar star domain.

    Parameters
    ----------
    d : Domain
    M : boundary node count for star-domain solves (ignored otherwise);
        None certifies it (`layerpot.operator_for`), and a star whose
        boundary is unresolved at the cap, or at a given M, raises
        SolverError.
    operator : layer operator of d's boundary (at M nodes when M is
        given; for example `SteklovBasis.operator`), used for the solve
        instead of building a new one.  Ignored for balls and shells.

    Returns
    -------
    TorsionSolution
        T with outward flux d_nu s on each boundary piece.  Its `error`
        solves again at half the nodes each time it is read.
    """
    n, R = d.dim, d.R
    if d.kind == "ball":
        T = -geo.unit_ball_volume(n) * R ** (n + 2) / (n * (n + 2))
        return TorsionSolution(d, T, -R / n, radial=(R ** 2 / (2.0 * n), 0.0))
    if d.kind == "annulus":
        a = d.kappa * R
        c1, c2 = _annulus_coefficients(n, R, a)
        T = _shell_energy(n, R, a, c1, c2)
        sp = lambda r: -r / n + c2 * _radial_g_prime(n, r)
        return TorsionSolution(d, T, (sp(R), -sp(a)), radial=(c1, c2))
    op = operator_for(d.rho, M, operator)
    T, flux = _solve_star(op)
    return TorsionSolution(d, T, flux, operator=op)


def flux_coefficients(ts: TorsionSolution, basis: SteklovBasis) -> np.ndarray:
    """a_i = boundary inner product of phi_i with d_nu s.

    Constant flux per boundary piece (a float, or an (outer, inner) pair)
    makes balls and shells exact; star domains integrate nodal flux
    against the basis traces, so the torsion must be solved at the
    basis's node count (ValueError otherwise; `series_pack` solves it on
    `basis.operator`).
    """
    if ts.domain.kind != "star2d":
        return basis.moments(ts.flux)
    if basis.kind != "star":
        raise ValueError("star torsion needs a star basis")
    if basis.operator.M != ts.operator.M:
        raise ValueError(f"torsion solved at {ts.operator.M} nodes, basis at "
                         f"{basis.operator.M}: solve the torsion on the basis's operator")
    return basis.moments(ts.flux)


def gauss_identity_residual(ts: TorsionSolution) -> float:
    """|oint d_nu s dS + |Omega||, zero in exact arithmetic."""
    return abs(ts.boundary_integral(lambda v: v) + geo.volume(ts.domain))
