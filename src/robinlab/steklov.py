"""Steklov eigenproblems: harmonic functions with d_nu phi = mu phi on the boundary.

Closed-form spectra for balls and spherical shells, a Nystrom
dirichlet-to-neumann solver for planar star domains.  Eigenfunction
traces are normalized in L^2 of the boundary; the constant mode
phi_1 = |dOmega|^{-1/2} always comes first (mu_1 = 0).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import SolverError
from .geometry import Domain
from .layerpot import dominant_degree, operator_for

__all__ = [
    "SteklovBasis",
    "spectrum_ball",
    "spectrum_annulus",
    "spectrum_star2d",
    "annulus_radial_eigenvalue",
    "tol_res",
    "STATUS_UNIQUE",
    "STATUS_FAMILY",
    "STATUS_NO_SOLUTION",
]

STATUS_UNIQUE = "Unique"
STATUS_FAMILY = "Family"
STATUS_NO_SOLUTION = "NoSolution"


def tol_res(alpha):
    """Resonance detection tolerance: |mu_i - alpha| below this is a hit.

    `alpha` may be an array; the tolerance is taken elementwise.
    """
    return 1e-9 * np.maximum(1.0, np.abs(alpha))


# A flux or moment component below this fraction of max(1, ||c||) carries nothing
CARRY_FRACTION = 1e-10


def _carrying(c: np.ndarray) -> np.ndarray:
    """Which components carry data: |c_i| > CARRY_FRACTION * max(1, ||c||)."""
    return np.abs(c) > CARRY_FRACTION * max(1.0, math.sqrt(float(np.sum(c * c))))


def _resonance(mu: np.ndarray, alphas: np.ndarray, carries):
    """(resonant, blocked, status) over a 1-D array of alphas.

    The one Unique / Family / NoSolution rule.  Mode j is resonant at
    alpha_i when |mu_j - alpha_i| < tol_res(alpha_i).  An alpha is
    NoSolution (`blocked`) when a resonant mode `carries` data (a bool
    per mode, or True for all), Family when no resonant mode does, and
    Unique off resonance.
    """
    resonant = np.abs(mu - alphas[:, None]) < tol_res(alphas)[:, None]
    blocked = np.any(resonant & carries, axis=1)
    status = np.where(blocked, STATUS_NO_SOLUTION,
                      np.where(resonant.any(axis=1), STATUS_FAMILY, STATUS_UNIQUE))
    return resonant, blocked, status


def _direct_status(d: Domain, alpha: float) -> str:
    """The `_resonance` status of the Robin problem on d at alpha, without a basis.

    The constant mode mu_1 = 0 carries the flux of every domain.  Balls
    and shells add their closed-form eigenvalues (k/R, or the roots of
    the degree-k shell pencil, as their spectra list them) degree by
    degree, up to the first degree whose eigenvalues all lie past alpha.
    Degree 0 carries the constant torsion flux; no other degree carries
    any, so a later degree, whose eigenvalues lie past that one's, can
    only add non-carrying modes and leaves the status as it is.  A ball
    lists degrees k0 = max(1, floor(alpha R)) and k0 + 1 only: if any
    degree lies in alpha's window, one of these two does.  A shell whose
    pencil leaves the double range before it passes alpha (at degree
    1013 for R = 1, kappa = 0.5) raises SolverError.  A star lists mu_1
    only: its boundary system flags its other resonances.
    """
    mu, carries = [0.0], [True]
    if d.kind != "star2d":
        k0 = max(1, math.floor(alpha * d.R))
        degrees = itertools.count() if d.kind == "annulus" else (k0, k0 + 1)
        for k in degrees:
            mus = [k / d.R] if d.kind == "ball" else \
                _annulus_pencil(d.dim, d.R, d.kappa * d.R, k)[0]
            mu += mus
            carries += [k == 0] * len(mus)
            if min(mus) > alpha:
                break
    return str(_resonance(np.array(mu), np.array([alpha], float), np.array(carries))[2][0])


@dataclass(frozen=True)
class SteklovBasis:
    """An eigenvalue-ordered, boundary-orthonormal Steklov basis.

    `mu` is nondecreasing, `k[i]` the angular degree of mode i (0-based
    storage; math indices are 1-based).  A basis stores only what its
    kind defines.  Ball modes are the spherical harmonics of degree k,
    known by mu and k alone.  For shells, `radial_profiles` maps storage
    index -> (c1, c2) for the degree-0 modes c1 + c2 * g(r), with g the
    second radial solution.  Star bases carry nodal traces and their
    eigen-residuals on the grid of `operator`, whose `thetas` and
    `weights` are the nodes and quadrature weights.  No trace is
    evaluated anywhere else, and no mode inside the domain;
    `torsion.flux_coefficients` reads each kind's data directly.
    """

    domain: Domain
    mu: np.ndarray
    k: np.ndarray
    parity: tuple[str, ...]
    kind: str                                   # "ball" | "annulus" | "star"
    traces: np.ndarray | None = None            # (N, M) star nodal values
    residuals: np.ndarray | None = None
    operator: object | None = None
    radial_profiles: dict | None = None         # annulus: index -> (c1, c2)

    @property
    def count(self) -> int:
        return int(self.mu.size)

    @property
    def next_degree_mu(self) -> float:
        """The lowest eigenvalue of the first degree a ball or shell basis omits.

        Every mode the basis leaves out lies at or above it.  A star
        basis gives inf: its series audits its own truncation.
        """
        d, k = self.domain, int(self.k.max()) + 1
        if self.kind == "ball":
            return k / d.R
        if self.kind == "annulus":
            return min(_annulus_pencil(d.dim, d.R, d.kappa * d.R, k)[0])
        return math.inf


# ---------------------------------------------------------------------------
# analytic spectra


def spectrum_ball(n: int, R: float, k_max: int = 21) -> SteklovBasis:
    """Ball spectrum mu = k/R with the harmonic-polynomial multiplicities.

    Parameters
    ----------
    n, R : dimension and radius.
    k_max : largest angular degree included; negative raises ValueError.

    The basis lists each eigenvalue with its full multiplicity
    (1 for k=0, then 2 per degree for n=2, 2k+1 for n=3, ...).
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    d = Domain.ball(n, R)
    count = sum(geo.ball_mode_multiplicity(n, k) for k in range(k_max + 1))
    ks = geo.ball_mode_degrees(n, count)
    mu = ks / R
    parity = tuple(geo.ball_mode_parities(n, count))
    return SteklovBasis(d, mu.astype(float), ks, parity, "ball")


def _radial_g(n: int, r):
    """Second radial harmonic: r^{2-n}, or ln r in the plane.

    A float takes math.log and an array np.log (they can differ in the last bit).
    """
    if n != 2:
        return r ** (2 - n)
    return np.log(r) if isinstance(r, np.ndarray) else math.log(r)


def _radial_g_prime(n: int, r):
    """g'(r): (2-n) r^{1-n}, or 1/r in the plane."""
    return 1.0 / r if n == 2 else (2 - n) * r ** (1 - n)


def _shell_energy(n: int, R: float, a: float, c1: float, c2: float) -> float:
    """-int of the radial profile over the shell a < |x| < R, exactly.

    -n omega_n int_a^R (-r^2/(2n) + c1 + c2 g(r)) r^{n-1} dr, term by term.
    """
    wn = geo.unit_ball_volume(n)
    i_pow = (R ** (n + 2) - a ** (n + 2)) / (n + 2)
    i_one = (R ** n - a ** n) / n
    if n == 2:
        i_g = (R ** 2 * (2 * math.log(R) - 1) - a ** 2 * (2 * math.log(a) - 1)) / 4.0
    else:
        i_g = (R ** 2 - a ** 2) / 2.0
    return -n * wn * (-i_pow / (2.0 * n) + c1 * i_one + c2 * i_g)


def annulus_radial_eigenvalue(n: int, R: float, kappa: float) -> float:
    """The nonzero eigenvalue of the radial (degree-0) pencil, closed form."""
    if n == 2:
        return (1.0 + 1.0 / kappa) / (R * math.log(1.0 / kappa))
    return (n - 2) * (1.0 + kappa ** (1 - n)) / (R * (kappa ** (2 - n) - 1.0))


def _annulus_pencil(n: int, R: float, a: float, k: int):
    """2x2 generalized pencil for degree-k shell modes; returns (mus, vecs).

    Radial solutions r^k and r^{2-n-k} (1 and g(r) for degree 0).
    Rows are the Steklov conditions at the outer/inner spheres.  `vecs`
    holds the null vectors that the radial profiles read, and is None
    for k >= 1.  There each column is scaled by the power of two that
    brings its largest entry into [1/2, 1), so the quadratic's
    coefficients stay finite at high degree; the scaling is exact, so
    every root that is finite without it keeps its bits.  An entry that
    itself leaves the double range (from degree 1013 on the unit 3-D
    shell at kappa = 0.5) raises SolverError naming the degree.
    """
    if k == 0:
        f = lambda r: np.array([1.0, _radial_g(n, r)])
        fp = lambda r: np.array([0.0, _radial_g_prime(n, r)])
    else:
        e1, e2 = k, 2 - n - k
        f = lambda r: np.array([r ** e1, r ** e2])
        fp = lambda r: np.array([e1 * r ** (e1 - 1), e2 * r ** (e2 - 1)])
    try:
        P = np.array([fp(R), -fp(a)])
        Q = np.array([f(R), f(a)])
        finite = np.isfinite(P).all() and np.isfinite(Q).all()
    except OverflowError:          # r ** e itself out of range
        finite = False
    if not finite:
        raise SolverError(f"the degree-{k} shell pencil leaves the double range")
    if k:
        shift = -np.frexp(np.maximum(abs(P).max(axis=0), abs(Q).max(axis=0)))[1]
        P, Q = np.ldexp(P, shift), np.ldexp(Q, shift)
    # det(P - mu Q) = c2 mu^2 + c1 mu + c0
    c2 = Q[0, 0] * Q[1, 1] - Q[0, 1] * Q[1, 0]
    c1 = -(P[0, 0] * Q[1, 1] + P[1, 1] * Q[0, 0] - P[0, 1] * Q[1, 0] - P[1, 0] * Q[0, 1])
    c0 = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    disc = math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0))
    mus = sorted(((-c1 - disc) / (2.0 * c2), (-c1 + disc) / (2.0 * c2)))
    if k:
        return mus, None
    vecs = []
    for mu in mus:
        Mm = P - mu * Q
        # null vector of a (numerically) singular 2x2
        if abs(Mm[0, 0]) + abs(Mm[0, 1]) >= abs(Mm[1, 0]) + abs(Mm[1, 1]):
            v = np.array([-Mm[0, 1], Mm[0, 0]])
        else:
            v = np.array([-Mm[1, 1], Mm[1, 0]])
        vecs.append(v / np.linalg.norm(v))
    return mus, vecs


def spectrum_annulus(n: int, R: float, kappa: float, k_max: int = 12) -> SteklovBasis:
    """Spherical-shell spectrum from per-degree 2x2 radial pencils.

    Degree 0 yields {0, mu_r}; every degree k >= 1 yields two
    eigenvalues, each carried with the spherical-harmonic multiplicity.
    The closed-form mu_r is cross-checked against the pencil root.  A
    negative k_max raises ValueError; a degree whose pencil leaves the
    double range raises SolverError before any mode is listed.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    d = Domain.annulus(n, R, kappa)
    a = kappa * R
    # every pencil first: a degree out of range fails before any entry is built
    pencils = [_annulus_pencil(n, R, a, k) for k in range(k_max + 1)]
    entries = []   # (mu, k, parity, (c1, c2) or None)
    for k, (mus, vecs) in enumerate(pencils):
        if k == 0:
            mu_closed = annulus_radial_eigenvalue(n, R, kappa)
            if abs(mus[1] - mu_closed) > 1e-8 * max(1.0, mu_closed):
                raise ArithmeticError("radial pencil root disagrees with closed form")
            entries.append((0.0, 0, "const", _normalize_radial(d, vecs[0])))
            entries.append((mus[1], 0, "radial", _normalize_radial(d, vecs[1])))
        else:
            mult = geo.ball_mode_multiplicity(n, k)
            for which, mu in enumerate(mus):
                for j in range(mult):
                    parity = ("cos", "sin")[j] if n == 2 else f"harm{j}"
                    entries.append((mu, k, f"{parity}/r{which}", None))
    entries.sort(key=lambda e: (e[0], e[1]))
    mu = np.array([e[0] for e in entries])
    ks = np.array([e[1] for e in entries], dtype=int)
    parity = tuple(e[2] for e in entries)
    profiles = {i: e[3] for i, e in enumerate(entries) if e[3] is not None}
    return SteklovBasis(d, mu, ks, parity, "annulus", radial_profiles=profiles)


def _normalize_radial(d: Domain, vec: np.ndarray) -> tuple[float, float]:
    """Scale (c1, c2) so the trace has unit boundary L^2 norm, outer trace >= 0."""
    n, R, a = d.dim, d.R, d.kappa * d.R
    s_out, s_in = geo.surface_components(d)
    phi_out = vec[0] + vec[1] * _radial_g(n, R)
    phi_in = vec[0] + vec[1] * _radial_g(n, a)
    norm = math.sqrt(phi_out ** 2 * s_out + phi_in ** 2 * s_in)
    sign = 1.0 if phi_out >= 0 else -1.0
    return (sign * vec[0] / norm, sign * vec[1] / norm)


# ---------------------------------------------------------------------------
# numeric planar spectra


def spectrum_star2d(d: Domain, n_modes: int = 32, M: int | None = None) -> SteklovBasis:
    """Nystrom DtN spectrum of a planar star domain.

    A disc enters as the star of constant radius.  The single-layer DtN
    matrix comes from `layerpot.operator_for(rho, M, n_modes=n_modes)`,
    which states the node-count rule of a basis and checks the boundary
    and the eigen-residuals (SolverError when a count does not resolve
    them, ValueError when n_modes needs more nodes than M or the cap).
    n_modes < 1 raises ValueError.  Residuals report
    || d_nu phi - mu phi || in boundary L^2 per mode.
    """
    if d.kind != "star2d":
        d = Domain.star2d(geo._planar_rho(d))
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
    op = operator_for(d.rho, M, n_modes=n_modes)
    mu, traces, resid = op.steklov_eigensystem(n_modes)
    mu = mu.copy()
    mu[0] = max(mu[0], 0.0) if abs(mu[0]) < 1e-9 else mu[0]
    ks = dominant_degree(traces)
    parity = tuple("num" for _ in range(n_modes))
    return SteklovBasis(d, mu, ks, parity, "star", traces=traces,
                        residuals=resid, operator=op)

