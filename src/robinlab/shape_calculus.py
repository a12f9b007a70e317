"""Shape derivatives of the Robin energy around balls and along families.

For a normal perturbation with boundary components b_i (orthonormal
trace basis, degree k_i), the Hadamard first variation is a boundary
integral of the solution data; the second variation around a ball
collapses to a per-mode quadratic

    Edd = sum_i (b_i^2 / (alpha n^2)) d_i,
    d_i = 2 xi (1 - xi)(k_i - 1)/(k_i - xi) - k_i (k_i + n - 2) + n - 1,

with xi = alpha R.  Two independent derivations of Edd are implemented
and cross-checked; sign classification and the surrogate functional's
variations ride on the same modal data.  Volume preservation (first
order b_1 = 0; second order via a compensating field) is enforced where
the formulas assume it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import SolverError
from .geometry import Domain, PerturbationField, TrigPoly, DEFAULT_BOUNDARY_NODES
from . import robin_energy as energy
from .layerpot import operator_for
from .steklov import tol_res

__all__ = [
    "VariationReport",
    "SignReport",
    "JVariationReport",
    "FiniteDifferenceReport",
    "NormalSpeedFamily",
    "modal_coefficient",
    "first_variation_general",
    "second_variation_ball",
    "classify_sign",
    "j_variations",
    "finite_difference_check",
]


# ---------------------------------------------------------------------------
# first variation


def first_variation_general(d: Domain, alphas, vn, M: int | None = None) -> list[float]:
    """Hadamard derivative of E under normal speed vn, one per alpha of `alphas`.

    Edot = oint vn [ |grad u|^2 - 2u - 2 alpha^2 u^2 - alpha(n-1) u^2 H ] dS
    with H the mean curvature (1/R on a sphere).  `vn` is a callable of
    theta or a constant (balls and star domains; shells are excluded
    since their perturbations move two boundaries); a planar ball field
    p enters as `NormalSpeedFamily.from_perturbation(p, R).vdotnu`.

    The alphas are solved in order, and the first that fails raises
    SolverError: at NoSolution, before any operator is built for it, or
    at a value that is not finite.  A star solves them on one operator,
    built by the first solve at M nodes (None: the certified count); a
    ball integrates a callable speed at M nodes (None: 256, the default).
    """
    if d.kind == "annulus":
        raise ValueError("first variation on shells is not supported")
    values, op = [], None
    for a in alphas:
        sol = energy._solve_or_raise(d, a, M, op)
        op = sol.operator
        with np.errstate(over="ignore", invalid="ignore"):     # overflow raises below
            values.append(_edot(sol, vn, M))
        if not math.isfinite(values[-1]):
            raise SolverError(f"first variation at alpha={a} is not finite: {values[-1]}")
    return values


def _edot(sol, vn, M: int | None) -> float:
    """The first variation at the direct solve `sol` of a ball or star."""
    d, alpha, n = sol.domain, sol.alpha, sol.domain.dim
    if d.kind == "ball":
        R = d.R
        u_b = -R / (alpha * n)
        density = (alpha * u_b) ** 2 - 2 * u_b - 2 * alpha ** 2 * u_b ** 2 \
            - alpha * (n - 1) * u_b ** 2 / R
        return density * _integrated_vn(d, vn, M)
    op = sol.operator
    u_b = sol.boundary_values
    du_t = _tangential_derivative(u_b, op.speed)
    grad_sq = (alpha * u_b) ** 2 + du_t ** 2
    H = op.curvature
    integrand = grad_sq - 2 * u_b - 2 * alpha ** 2 * u_b ** 2 \
        - alpha * (n - 1) * u_b ** 2 * H
    return float(np.sum(integrand * _nodal_vn(vn, op.thetas) * op.weights))


def _tangential_derivative(nodal: np.ndarray, speed: np.ndarray) -> np.ndarray:
    M = nodal.size
    k = np.fft.rfftfreq(M, d=1.0 / M)
    dtheta = np.fft.irfft(np.fft.rfft(nodal) * 1j * k, n=M)
    return dtheta / speed


def _nodal_vn(vn, thetas: np.ndarray) -> np.ndarray:
    """A speed (a callable of theta, or a constant) at the nodes `thetas`."""
    if callable(vn):
        return np.asarray(vn(thetas), dtype=float)
    return np.full(thetas.shape, float(vn))


def _integrated_vn(d: Domain, vn, M: int | None) -> float:
    """oint vn dS on a ball in any dimension; a callable at M nodes (None: the default)."""
    area = geo.surface_area(d)
    if not callable(vn):
        return float(vn) * area
    if d.dim != 2:
        raise ValueError("callable speeds on balls need dim 2")
    thetas = np.linspace(0, 2 * np.pi, DEFAULT_BOUNDARY_NODES if M is None else M,
                         endpoint=False)
    return float(np.mean(_nodal_vn(vn, thetas)) * area)


# ---------------------------------------------------------------------------
# modal second variation around the ball


def modal_coefficient(n: int, k, xi: float):
    """d_i as a function of the mode degree; poles at k = xi."""
    k = np.asarray(k, dtype=float)
    return 2.0 * xi * (1.0 - xi) * (k - 1.0) / (k - xi) \
        - k * (k + n - 2.0) + n - 1.0


def _validate_modal(d: Domain, alpha: float, p: PerturbationField):
    if d.kind != "ball":
        raise ValueError("modal second variation requires a ball")
    if alpha <= 0:
        raise ValueError("alpha must be positive here")
    n, R = d.dim, d.R
    xi = alpha * R
    near_int = round(xi)
    if near_int >= 2 and abs(near_int / R - alpha) < tol_res(alpha):
        raise SolverError(
            f"xi = alpha R = {xi} sits on the integer resonance k = {near_int}")
    b = np.asarray(p.b_array, dtype=float)
    ww = math.sqrt(float(np.sum(b * b))) or 1.0
    if abs(b[0]) > 1e-12 * ww:
        raise ValueError("volume is not preserved at first order (b_1 != 0)")
    ks = geo.ball_mode_degrees(n, b.size).astype(float)
    bary = (ks == 1.0) & (np.abs(b) > 1e-14 * ww)
    if np.any(bary):
        warnings.warn("degree-1 components are translations; zeroing them",
                      stacklevel=3)
        b = b.copy()
        b[ks == 1.0] = 0.0
    return n, R, xi, b, ks, ks >= 2.0


@dataclass(frozen=True)
class VariationReport:
    """Second variation of E around a ball, by two independent routes."""

    alpha: float
    xi: float
    E_ddot: float              # modal-coefficient route
    E_ddot_radial: float       # field-expansion route
    route_gap: float
    S_ddot: float              # second variation of surface area
    d_values: np.ndarray
    degrees: np.ndarray
    b: np.ndarray

    def agreement_ok(self) -> bool:
        scale = max(abs(self.E_ddot), abs(self.E_ddot_radial), 1.0)
        return self.route_gap <= 1e-10 * scale


def second_variation_ball(d: Domain, alpha: float,
                          p: PerturbationField) -> VariationReport:
    """Edd(0) for a volume-preserving normal perturbation of a ball.

    Route one sums b_i^2 d_i / (alpha n^2).  Route two assembles the
    same quantity from the shape derivative of the state: with
    c_i = b_i (1 - xi) / (n (mu_i - alpha)) and Q = sum c_i^2 (mu_i - alpha),

        Edd = -2 Q + (2R/n^2)(1 - xi) sum b_i^2 - (R^2/(alpha n^2)) Sdd.

    The two must agree to 1e-10 relative; their gap is reported.
    Degree-1 (translation) components are zeroed with a warning; a
    nonzero mean component (b_1) is a ValueError; alpha within
    tol_res(alpha) of an eigenvalue k/R with k >= 2 is a SolverError
    (state derivative blows up), xi = 1 is fine.  A value that is not
    finite (an overflowing amplitude) raises SolverError.
    """
    with np.errstate(over="ignore", invalid="ignore"):     # overflow raises below
        n, R, xi, b, ks, live = _validate_modal(d, alpha, p)
        # boundary components c_i of the state derivative u' and its saddle quadratic Q
        mu = ks / R
        c = np.zeros_like(b)
        c[live] = b[live] * (1.0 - xi) / (n * (mu[live] - alpha))
        Q = float(np.sum(c[live] ** 2 * (mu[live] - alpha)))
        dvals = np.zeros_like(b)
        dvals[live] = modal_coefficient(n, ks[live], xi)
        E_modal = float(np.sum(b[live] ** 2 * dvals[live]) / (alpha * n ** 2))

        S_dd = _surface_second(n, R, b, ks)
        b_sq = float(np.sum(b[live] ** 2))
        E_radial = -2.0 * Q + (2.0 * R / n ** 2) * (1.0 - xi) * b_sq \
            - (R ** 2 / (alpha * n ** 2)) * S_dd
    if not np.all(np.isfinite((E_modal, E_radial, S_dd))):
        raise SolverError(f"second variation at alpha={alpha} is not finite")
    report = VariationReport(alpha, xi, E_modal, E_radial,
                             abs(E_modal - E_radial), S_dd,
                             dvals, ks.astype(int), b)
    if not report.agreement_ok():
        raise SolverError(
            f"second-variation routes disagree: {E_modal} vs {E_radial}")
    return report


def _surface_second(n: int, R: float, b: np.ndarray, ks: np.ndarray) -> float:
    lam = ks * (ks + n - 2.0) / R ** 2
    return float(np.sum(b ** 2 * (lam - (n - 1.0) / R ** 2)))


# ---------------------------------------------------------------------------
# sign classification


@dataclass(frozen=True)
class SignReport:
    zone: str                    # "stable-low" | "stable-mid" | "mixed" | "positive-window"
    definite_negative: bool
    bound: float                 # theorem bound on Edd when a zone bound applies
    bound_satisfied: bool | None
    variation: VariationReport   # the second variation classified


def classify_sign(d: Domain, alpha: float, p: PerturbationField) -> SignReport:
    """Sign structure of Edd with the zone bound checked when available.

    0 < xi < 1: Edd <= -((n - 1/2)/(alpha n^2)) oint vn^2.
    1 <= xi < 2: Edd <= 0 (every d_i is negative there, but no uniform
    per-mode constant exists: the binding degree switches from 2 to 3
    as xi approaches 2).
    xi > 2 off integers: low degrees below xi carry positive d_i.
    """
    rep = second_variation_ball(d, alpha, p)
    n, xi = d.dim, rep.xi
    live = rep.degrees >= 2
    vn_sq = float(np.sum(rep.b[live] ** 2))
    bound = math.nan
    satisfied = None
    if 0 < xi < 1:
        zone = "stable-low"
        bound = -((n - 0.5) / (alpha * n ** 2)) * vn_sq
        satisfied = rep.E_ddot <= bound + 1e-12 * max(1.0, abs(bound))
    elif 1 <= xi < 2:
        zone = "stable-mid"
        bound = 0.0
        satisfied = rep.E_ddot <= 1e-12
    else:
        pos = rep.d_values[live] > 1e-12
        zone = "positive-window" if np.any(pos) and np.all(pos) else "mixed"
    negative = bool(np.all(rep.d_values[live] < 1e-12)) and vn_sq > 0
    return SignReport(zone, negative, bound, satisfied, rep)


# ---------------------------------------------------------------------------
# the surrogate functional


@dataclass(frozen=True)
class JVariationReport:
    J_dot: float
    J_ddot: float
    lower_bound: float
    upper_bound: float
    slack_lower: float
    slack_upper: float


def j_variations(d: Domain, alpha: float, p: PerturbationField) -> JVariationReport:
    """First and second variation of J = T + |Omega|^2/(alpha |dOmega|) at a ball.

    Jdot vanishes for volume-preserving speeds: the torsion term
    contributes -oint |grad s|^2 vn and the area term balances it
    through Sdot = ((n-1)/R) oint vn; both are proportional to b_1 = 0.
    A value that is not finite (an overflowing amplitude) raises
    SolverError.  Jddot = I(t) = sum t_i^2 M_i with t_i = (R/n) b_i and
    M_i = (k_i - 1)(2/R - (k_i + n - 1)/(alpha R^2)), bracketed by

        -(1/alpha) sum t_i^2 Lt_i  <=  I  <=  (2R/n - 1/alpha) sum t_i^2 Lt_i,

    Lt_i = (k_i - 1)(k_i + n - 1)/R^2.  The bounds hold in this torsion
    normalization of the speed (per-mode slack 2 (k_i-1)/R t_i^2 below,
    2 (k_i-1)^2/(n R) t_i^2 above).
    """
    with np.errstate(over="ignore", invalid="ignore"):     # overflow raises below
        n, R, _, b, ks, live = _validate_modal(d, alpha, p)
        tsq = ((R / n) * b[live]) ** 2
        m = (ks[live] - 1.0) * (2.0 / R - (ks[live] + n - 1.0) / (alpha * R ** 2))
        I_t = float(np.sum(tsq * m))
        # Jdot from its two pieces (not by fiat): both scale with b_1 = 0
        area = geo.surface_area(d)
        oint_vn = float(p.b[0]) * math.sqrt(area)
        T_dot = -(R / n) ** 2 * oint_vn
        S_dot = ((n - 1.0) / R) * oint_vn
        V = geo.volume(d)
        J_dot = T_dot + (2.0 * V * oint_vn * area - V ** 2 * S_dot) / (alpha * area ** 2)
        lt = (ks[live] - 1.0) * (ks[live] + n - 1.0) / R ** 2
        lower = -float(np.sum(tsq * lt)) / alpha
        upper = (2.0 * R / n - 1.0 / alpha) * float(np.sum(tsq * lt))
        values = (J_dot, I_t, lower, upper, I_t - lower, upper - I_t)
    if not np.all(np.isfinite(values)):
        raise SolverError(f"J variations at alpha={alpha} are not finite")
    return JVariationReport(*values)


# ---------------------------------------------------------------------------
# exactly volume-preserving families and finite differences


class NormalSpeedFamily:
    """rho_t = lambda(t) (1 + t eta) R-rescaled to keep the area of B_R.

    eta is a zero-mean trigonometric polynomial; the initial normal
    speed is vn = R eta, so the induced perturbation components are
    b_i = R eta_i sqrt(pi R) in the orthonormal trace basis (planar).
    `from_perturbation` and `perturbation` are the two directions of
    that map.  Exact area preservation makes every order of volume
    correction hold automatically.
    """

    def __init__(self, eta: TrigPoly, R: float):
        if abs(eta.a0) > 1e-14:
            raise ValueError("eta must have zero mean")
        self.eta = eta
        self.R = R

    def _lambda(self, t: float) -> float:
        # int (1 + t eta)^2 dtheta = 2 pi (1 + t^2 |eta|^2_hat)
        sq = 0.5 * (sum(a * a for a in self.eta.cos) + sum(a * a for a in self.eta.sin))
        return self.R / math.sqrt(1.0 + t * t * sq)

    def domain(self, t: float) -> Domain:
        lam = self._lambda(t)
        rho = TrigPoly(lam, tuple(lam * t * a for a in self.eta.cos),
                       tuple(lam * t * a for a in self.eta.sin))
        if rho.min_value() <= 0:
            raise ValueError(f"family leaves the star class at t={t}")
        return Domain.star2d(rho)

    def vdotnu(self, thetas: np.ndarray) -> np.ndarray:
        return self.R * self.eta(thetas)

    @classmethod
    def from_perturbation(cls, p: PerturbationField, R: float) -> NormalSpeedFamily:
        """The family of the planar ball field p: eta_i = b_i / sqrt(pi R^3), b_1 dropped."""
        scale = math.sqrt(math.pi * R ** 3)
        b = p.b_array
        return cls(TrigPoly(0.0, tuple(b[1::2] / scale), tuple(b[2::2] / scale)), R)


@dataclass(frozen=True)
class FiniteDifferenceReport:
    E_dot: float
    E_ddot: float


def finite_difference_check(family: NormalSpeedFamily, alphas, t_grid,
                            route: str = "series", degree: int = 2,
                            n_modes: int = 32, M: int | None = None) -> list:
    """Fit E(t) on the family by least squares and read off derivatives, per alpha.

    route: "series" (spectral, `robin_energy.series_pack`), "direct"
    (boundary solve), or "fem" (the independent finite-element oracle,
    which ignores M).  Each member's node count comes from
    `layerpot.operator_for`, for a Steklov basis on the series route:
    picked without M, checked when given (SolverError when unresolved).
    The polynomial degree must be at least 2, and should exceed 2 when
    third-order contamination matters; t_grid
    must be finite with at least degree + 1 distinct steps (ValueError
    otherwise), so the fit determines E''.

    `alphas` is a sequence of numbers, giving one report each, in the
    same order.  Every alpha shares the family members: each member's
    series pack (series), layer operator (direct) or meshes and matrices
    (fem) are built once for all alphas, so each report is the one a
    one-alpha list gives.
    A NaN or infinite alpha raises ValueError; on the series route an
    alpha where a member has no Robin solution raises SolverError.
    """
    if route not in ("series", "direct", "fem"):
        raise ValueError(f"unknown route {route!r}")
    alphas = [float(a) for a in alphas]
    for a in alphas:
        energy._check_alpha(a)
    t_grid = np.asarray(t_grid, dtype=float)
    if degree < 2:
        raise ValueError(f"the fit degree must be at least 2 to determine E'', got {degree}")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"finite-difference steps must be finite, got {t_grid.tolist()}")
    distinct = np.unique(t_grid).size
    if distinct <= degree:
        raise ValueError(f"a degree-{degree} fit needs at least {degree + 1} distinct "
                         f"steps, got {distinct}")
    vals = np.empty((len(alphas), t_grid.size))
    for j, t in enumerate(t_grid):
        dom = family.domain(float(t))
        if route == "series":
            pack = energy.series_pack(dom, n_modes=n_modes, M=M)
            vals[:, j] = [energy._series_energy(pack, a) for a in alphas]
        elif route == "direct":
            op = operator_for(dom.rho, M)
            for i, a in enumerate(alphas):
                vals[i, j] = energy.energy_direct(dom, a, operator=op)
        else:
            from . import oracle
            fem = oracle.FemRobin(dom)
            vals[:, j] = [oracle.fem_robin_energy(fem, a).energy for a in alphas]
    return [_fit_derivatives(t_grid, row, degree) for row in vals]


def _fit_derivatives(t_grid: np.ndarray, vals: np.ndarray,
                     degree: int) -> FiniteDifferenceReport:
    V = np.vander(t_grid, degree + 1, increasing=True)
    coef = np.linalg.lstsq(V, vals, rcond=None)[0]
    return FiniteDifferenceReport(float(coef[1]), 2.0 * float(coef[2]))
