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
from .geometry import Domain
from .layerpot import StarLayerOperator, operator_for
from .steklov import SteklovBasis, _radial_g, _radial_g_prime, _shell_energy

__all__ = [
    "TorsionSolution",
    "solve_torsion",
    "flux_coefficients",
    "gauss_identity_residual",
]


@dataclass(frozen=True)
class TorsionSolution:
    """Torsion function data: T and the boundary flux d_nu s.

    `flux` is a float (balls), an (outer, inner) pair (shells), or nodal
    values on the grid of `operator` (star domains, whose `thetas` and
    `weights` are the nodes and quadrature weights).
    """

    domain: Domain
    T: float
    flux: object
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
        return TorsionSolution(d, T, -R / n)
    if d.kind == "annulus":
        a = d.kappa * R
        c1, c2 = _annulus_coefficients(n, R, a)
        T = _shell_energy(n, R, a, c1, c2)
        sp = lambda r: -r / n + c2 * _radial_g_prime(n, r)
        return TorsionSolution(d, T, (sp(R), -sp(a)))
    op = operator_for(d.rho, M, operator)
    T, flux = _solve_star(op)
    return TorsionSolution(d, T, flux, operator=op)


def flux_coefficients(ts: TorsionSolution, basis: SteklovBasis) -> np.ndarray:
    """a_i = oint phi_i d_nu s dS, by one rule per basis kind.

    A ball's flux is one constant, which only the constant mode
    |dOmega|^{-1/2} carries.  A shell's is one constant per sphere,
    which only its degree-0 modes carry: each profile (c1, c2) is read
    at R and kappa R against the (outer, inner) flux.  A star integrates
    its nodal flux against the basis traces node by node, so the torsion
    must be solved at the basis's node count (`series_pack` solves it on
    `basis.operator`).  A basis of another kind than the torsion's
    domain, or at another node count, raises ValueError.
    """
    d, kind = basis.domain, {"star2d": "star"}.get(ts.domain.kind, ts.domain.kind)
    if basis.kind != kind:
        raise ValueError(f"a {ts.domain.kind} torsion needs a {kind} basis, "
                         f"got a {basis.kind} basis")
    if kind == "star":
        if basis.operator.M != ts.operator.M:
            raise ValueError(f"torsion solved at {ts.operator.M} nodes, basis at "
                             f"{basis.operator.M}: solve the torsion on the basis's operator")
        return basis.traces @ (ts.flux * basis.operator.weights)
    a = np.zeros(basis.count)
    if kind == "ball":
        a[0] = ts.flux * math.sqrt(geo.surface_area(d))
        return a
    s_out, s_in = geo.surface_components(d)
    for i, (c1, c2) in basis.radial_profiles.items():
        phi_out = c1 + c2 * _radial_g(d.dim, d.R)
        phi_in = c1 + c2 * _radial_g(d.dim, d.kappa * d.R)
        a[i] = phi_out * ts.flux[0] * s_out + phi_in * ts.flux[1] * s_in
    return a


def gauss_identity_residual(ts: TorsionSolution) -> float:
    """|oint d_nu s dS + |Omega||, zero in exact arithmetic."""
    return abs(ts.boundary_integral(lambda v: v) + geo.volume(ts.domain))
