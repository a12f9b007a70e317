"""Nystrom single-layer machinery for planar star-shaped boundaries.

Harmonic functions are represented as single-layer potentials with
density at M equispaced boundary nodes.  The weakly singular log kernel
is integrated with the periodic quadrature of Martensen/Kussmaul type
(kernel splitting), which is spectrally accurate on analytic curves.
The geometry is shrunk so the curve fits in a disc of radius 1/2 before
assembling; the log-kernel operator is then invertible (the scale-1
degeneracy of the 2-D single layer cannot occur) and results are mapped
back.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg as sla

from .errors import SolverError
from .geometry import BoundaryGrid, TrigPoly, _curve_from_radii

TWO_PI = 2.0 * np.pi

# The certified node count (`operator_for` without M) starts at START_NODES
# (a Steklov basis: at its floor) and doubles until
# `StarLayerOperator.resolution` is at most RESOLVED_TOL.
# At 64 nodes the indicator reads at most 5.6e-9 on 400 members of the
# benchmark's fd-check families, and at most 1.0e-5 on 300
# `random_star_domain`s, 242 of which go on to 128 nodes (at most
# 1.2e-9 there); the energy error is about the square of the indicator.
# CAP_NODES keeps the dense V, A and LU near 100 MB.
START_NODES = 64
RESOLVED_TOL = 1e-7
CAP_NODES = 2048

# A Steklov basis of n modes projects onto Fourier degree <= M / NODES_PER_MODE
# (`steklov_eigensystem`), which must be at least n, and its ladder starts
# at the first rung of at least max(BASIS_NODES, NODES_PER_MODE * n): 128
# nodes up to 32 modes.  Each of its rungs must also hold every requested
# eigen-residual to ||r_i||^2 <= RESIDUAL_TOL * max(1, mu_i); the error of
# mu_i is about a quarter of ||r_i||^2.  On 3000 `random_star_domain`s
# (seeds 0-2999) the ratio reads at most 1.8e-8 at 128 nodes, on the
# benchmark's corpus and fd-check bases at most 6.7e-9; a 16-mode basis at
# 64 nodes of rho = 1 + 0.1 cos 2t + 0.05 cos 3t + 0.02 sin 2t reads 2.8e-7.
BASIS_NODES = 128
NODES_PER_MODE = 4
RESIDUAL_TOL = 1e-7


def kress_log_weights(M: int) -> np.ndarray:
    """Weights R_l for  int_0^{2pi} ln(4 sin^2((t-s)/2)) f(s) ds  at equispaced nodes.

    Returns R as a length-M vector; the quadrature matrix is R[(i-j) % M].
    R_l = -(4 pi/M) [sum_{k<M/2} cos(k t_l)/k + cos(M t_l/2)/M], one inverse
    real FFT of the half spectrum (0, 1, 1/2, ..., 1/(M/2)).
    """
    if M % 2 != 0:
        raise ValueError("node count must be even")
    return -TWO_PI * np.fft.irfft(np.r_[0.0, 1.0 / np.arange(1, M // 2 + 1)], M)


def _pair_geometry(c: BoundaryGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node differences x_i - x_j (both components) and their squared length."""
    dx = c.points[:, 0][:, None] - c.points[:, 0][None, :]
    dy = c.points[:, 1][:, None] - c.points[:, 1][None, :]
    return dx, dy, dx ** 2 + dy ** 2


def single_layer_matrix(c: BoundaryGrid, dist2: np.ndarray) -> np.ndarray:
    """Nystrom matrix of the single layer V (trace of S[sigma] on the curve).

    Kernel splitting: -ln|x_i - x_j| / 2 pi = -ln(4 sin^2((t_i - t_j)/2)) / 4 pi
    + a smooth rest.  The Kress weights and the ln(2|sin|) part of the
    rest depend on i - j only and form one circulant; `dist2` holds the
    squared node distances |x_i - x_j|^2.
    """
    M = c.M
    R = kress_log_weights(M)
    with np.errstate(divide="ignore", invalid="ignore"):
        circ = np.log(2.0 * np.abs(np.sin(np.pi * np.arange(M) / M))) / M
        V = sla.circulant(circ - R / (4.0 * np.pi)) - np.log(dist2) / (2 * M)
    # on the diagonal the smooth rest tends to -ln|x'(t)| / 2 pi
    V[np.diag_indices(M)] = -R[0] / (4.0 * np.pi) - np.log(c.speed) / M
    V *= c.speed[None, :]
    return V


def normal_derivative_matrix(c: BoundaryGrid, dx: np.ndarray, dy: np.ndarray,
                             dist2: np.ndarray) -> np.ndarray:
    """Nystrom matrix of the interior normal derivative d_nu S[sigma] = (K' + I/2) sigma."""
    M = c.M
    num = dx * c.normals[:, 0][:, None] + dy * c.normals[:, 1][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = -num / dist2 / TWO_PI
    np.fill_diagonal(ker, -c.curvature / (4.0 * np.pi))
    A = ker * (c.speed[None, :] * TWO_PI / M)
    A[np.diag_indices(M)] += 0.5
    return A


class StarLayerOperator:
    """Single-layer solver for one Star2D boundary at a fixed node count.

    All public inputs/outputs (boundary values, fluxes, points, weights)
    live on the unscaled domain; the internal shrink factor is hidden.
    M must be an even integer >= 8, and rho and its derivatives finite,
    with rho positive, at every node (ValueError otherwise).  The dense
    kernels below then skip scipy's NaN scan of each matrix.
    """

    def __init__(self, rho: TrigPoly, M: int):
        if not isinstance(M, (int, np.integer)) or M < 8 or M % 2:
            raise ValueError(f"node count must be an even integer >= 8, got {M}")
        with np.errstate(invalid="ignore", over="ignore"):    # checked just below
            r, r1, r2 = (rho._on_grid(M, order) for order in range(3))
        if not (np.all(r > 0.0) and np.all(np.isfinite([r, r1, r2]))):
            raise ValueError("rho must be finite and positive at every node")
        self.gamma = 0.5 / float(np.max(r))
        self.rho = rho
        self.M = M
        self._rho_nodes = r
        self._c = _curve_from_radii(np.linspace(0.0, TWO_PI, M, endpoint=False),
                                    self.gamma * r, self.gamma * r1, self.gamma * r2)
        dx, dy, dist2 = _pair_geometry(self._c)
        self.V = single_layer_matrix(self._c, dist2)
        self.A = normal_derivative_matrix(self._c, dx, dy, dist2)
        self._V_lu = sla.lu_factor(self.V, check_finite=False)
        # unscaled node data
        self.thetas = self._c.thetas
        self.points = self._c.points / self.gamma
        self.speed = self._c.speed / self.gamma
        self.normals = self._c.normals
        self.weights = self.speed * (TWO_PI / M)
        self.curvature = self._c.curvature * self.gamma
        x, y = self.points[:, 0], self.points[:, 1]
        self.radius_sq = x * x + y * y
        self._eigensystems = {}

    # -- solves ------------------------------------------------------------

    def dirichlet_density(self, boundary_values: np.ndarray) -> np.ndarray:
        """Density sigma with S[sigma] matching the boundary values."""
        return sla.lu_solve(self._V_lu, np.asarray(boundary_values, dtype=float),
                            check_finite=False)

    @functools.cached_property
    def torsion_density(self) -> np.ndarray:
        """Density of the torsion's harmonic part: S[sigma] = |x|^2/4 on the boundary."""
        return self.dirichlet_density(0.25 * self.radius_sq)

    @property
    def resolution(self) -> float:
        """Resolution indicator: the top M/8 Fourier coefficients of the torsion density.

        The largest of them relative to the largest coefficient; the
        plateau test of Aurentz & Trefethen (ACM TOMS 43(4), 2017)
        on a trigonometric series.  It falls with M as the boundary
        resolves; scaling the domain leaves it unchanged, and rotating
        or reflecting it moves it by aliasing only (at most 0.3% of its
        value on the random stars measured).
        """
        c = np.abs(np.fft.rfft(self.torsion_density))
        return float(np.max(c[-(self.M // 8):]) / np.max(c))

    def robin_density(self, alpha: float, rhs: np.ndarray) -> np.ndarray:
        """Density of the harmonic h with d_nu h - alpha h = rhs on the boundary."""
        mat = self.gamma * self.A - alpha * self.V
        sigma = sla.lu_solve(sla.lu_factor(mat, check_finite=False),
                             np.asarray(rhs, dtype=float), check_finite=False)
        resid = np.max(np.abs(mat @ sigma - rhs))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if not np.all(np.isfinite(sigma)) or resid > 1e-6 * scale:
            raise ArithmeticError(
                f"layer-potential Robin solve ill-conditioned (residual {resid:.2e}); "
                "alpha is likely at or near a Steklov eigenvalue")
        return sigma

    # -- evaluation ---------------------------------------------------------

    def trace(self, sigma: np.ndarray) -> np.ndarray:
        return self.V @ sigma

    def normal_derivative(self, sigma: np.ndarray) -> np.ndarray:
        return self.gamma * (self.A @ sigma)

    def quarter_r2_integral(self) -> float:
        """int |x|^2/4 dx = (1/16) int rho^4 dtheta, spectrally exact by the trapezoid rule."""
        return float(np.sum(self._rho_nodes ** 4) * (TWO_PI / self.M) / 16.0)

    # -- Steklov eigensystem -------------------------------------------------

    def steklov_eigensystem(self, n_modes: int):
        """First n_modes Steklov eigenpairs (unscaled), computed once per n_modes.

        Returns (mu, traces, residuals), read-only: traces are nodal
        values orthonormal under the boundary weights, and residuals the
        boundary L^2 norms of d_nu phi - mu phi.

        Rayleigh-Ritz on a trigonometric subspace: the nodal DtN matrix is
        only form-symmetric on resolved vectors, so symmetrizing it
        entrywise corrupts the spectrum on non-circular curves.  The form
        is projected onto Fourier modes of degree <= M/4
        (M / NODES_PER_MODE), where it stays symmetric to rounding
        (||B - B^T|| / ||B|| of 3e-15 to 7e-15 on the ellipse and four
        stars).  The block's degree, not M, sets the accuracy: on 100
        `random_star_domain`s (seeds 0-99), 32 modes from 128 nodes and
        from 256 nodes, both at degree 32, agree equally well with a
        1024-node, degree-256 basis (relative mu error at most 9.1e-10,
        residuals at most 3.4e-4), and the 128-node build costs a third of
        the 256-node one.  The projected (M/2 + 1)-square form is small and
        dense, and every eigenvector is wanted, so it goes to LAPACK's
        divide-and-conquer driver (syevd), which is faster on these forms
        than the default MRRR driver (syevr).
        """
        if self.M < NODES_PER_MODE * n_modes:
            raise ValueError(f"node count {self.M} too small for {n_modes} modes "
                             f"(need >= {NODES_PER_MODE * n_modes})")
        if n_modes in self._eigensystems:
            return self._eigensystems[n_modes]
        w_s = self._c.weights                          # scaled boundary weights
        k = np.arange(1, self.M // NODES_PER_MODE + 1)
        F = np.empty((self.M, 2 * k.size + 1))
        F[:, 0] = 1.0
        F[:, 1::2] = np.cos(np.outer(self.thetas, k))
        F[:, 2::2] = np.sin(np.outer(self.thetas, k))
        L = sla.cholesky(F.T @ (w_s[:, None] * F), lower=True, check_finite=False)
        # boundary-orthonormal columns
        F = sla.solve_triangular(L, F.T, lower=True, check_finite=False).T
        # the DtN form A V^{-1} on span F: densities G of the columns, fluxes A G
        G = sla.lu_solve(self._V_lu, F, check_finite=False)
        AG = self.A @ G
        B = (w_s[:, None] * F).T @ AG
        B = 0.5 * (B + B.T)
        vals, vecs = sla.eigh(B, driver="evd", check_finite=False)
        order = np.argsort(vals)[:n_modes]
        mu_s = vals[order]
        vecs = vecs[:, order]
        traces_s = (F @ vecs).T                        # (n_modes, M), orthonormal in w_s
        r = AG @ vecs - traces_s.T * mu_s
        resid = np.sqrt(w_s @ (r * r))
        # map back: mu = gamma mu~, phi = sqrt(gamma) phi~, flux residual gains gamma
        mu = self.gamma * mu_s
        traces = math.sqrt(self.gamma) * traces_s
        residuals = self.gamma ** 1.5 * resid
        # sign convention: the larger part of the dominant Fourier component is positive
        flip = _trace_sign(traces) < 0
        traces[flip] = -traces[flip]
        for a in (mu, traces, residuals):
            a.flags.writeable = False
        self._eigensystems[n_modes] = mu, traces, residuals
        return mu, traces, residuals


def operator_for(rho: TrigPoly, M: int | None = None,
                 operator: StarLayerOperator | None = None,
                 n_modes: int = 0) -> StarLayerOperator:
    """The layer operator of rho's curve, at a node count that resolves it.

    This is the one place that picks a star's node count, and the one
    statement of the basis rule.  Without M the count climbs a ladder: it
    starts at START_NODES, or for a Steklov basis of n_modes modes at the
    first rung START_NODES * 2^k of at least
    max(BASIS_NODES, NODES_PER_MODE * n_modes) (128 up to 32 modes, 256
    up to 64), and doubles while the operator's `resolution` is above
    RESOLVED_TOL or, for a basis, while an eigen-residual of its n_modes
    modes has ||r_i||^2 above RESIDUAL_TOL * max(1, mu_i).  A boundary
    still unresolved at CAP_NODES raises SolverError, and a basis whose
    first rung lies past the cap raises ValueError.  An explicit M is a
    one-rung ladder under the same checks: SolverError when M nodes do
    not resolve the boundary or the basis, and ValueError when M is
    below NODES_PER_MODE * n_modes.  Each rung costs one build and one
    torsion solve, and a basis rung one eigensystem, which the returned
    operator keeps.

    Returns `operator` when one is given, unchecked, so solves on one
    boundary can share a single build; it must have been built from rho
    (at M nodes when M is given).
    """
    if operator is not None:
        if (M is not None and operator.M != M) or operator.rho != rho:
            raise ValueError("operator does not match the domain and node count")
        return operator
    if M is None and NODES_PER_MODE * n_modes > CAP_NODES:
        raise ValueError(f"{n_modes} modes need {NODES_PER_MODE * n_modes} nodes, past the "
                         f"cap of {CAP_NODES}; lower --n-modes")
    floor = max(BASIS_NODES, NODES_PER_MODE * n_modes) if n_modes else START_NODES
    ladder = [START_NODES << k for k in range((CAP_NODES // START_NODES).bit_length())]
    rungs = [M] if M is not None else [m for m in ladder if m >= floor]
    for m in rungs:
        op = StarLayerOperator(rho, m)
        unresolved = _unresolved(op, n_modes)
        if unresolved is None:
            return op
    where, fix = ((f"at {M} nodes", "raise --nodes or leave it unset") if M is not None else
                  (f"at the cap of {CAP_NODES} nodes", "set a larger count with --nodes"))
    what, why = unresolved
    raise SolverError(f"the {what} is not resolved {where}: {why}; {fix}")


def _unresolved(op: StarLayerOperator, n_modes: int) -> tuple[str, str] | None:
    """(what, why) when op fails a rung check of `operator_for`, None when it passes."""
    if op.resolution > RESOLVED_TOL:
        return "boundary", (f"torsion-density indicator {op.resolution:.2e} "
                            f"above {RESOLVED_TOL:.0e}")
    if n_modes:
        mu, _, r = op.steklov_eigensystem(n_modes)
        ratio = float(np.max(r * r / np.maximum(1.0, mu)))
        if ratio > RESIDUAL_TOL:
            return f"{n_modes}-mode Steklov basis", (
                f"eigen-residual ||r_i||^2 / max(1, mu_i) up to {ratio:.2e} "
                f"above {RESIDUAL_TOL:.0e}")
    return None


def _trace_sign(traces: np.ndarray) -> np.ndarray:
    """Sign fix of each row: the larger part (cosine or sine) of its dominant frequency is positive.

    Cosine wins a tie.  Taking the larger part keeps the sign off
    rounding noise in the smaller one.  A row whose part is below
    1e-8 * M takes the sign of its first entry larger than 1e-12 in
    magnitude (+1 if none).  One FFT covers all rows.
    """
    c = np.fft.rfft(traces, axis=-1)
    top = np.take_along_axis(c, np.argmax(np.abs(c), axis=-1)[..., None], axis=-1)[..., 0]
    cos_part, sin_part = top.real, -top.imag   # rfft imag < 0 is a positive sine
    part = np.where(np.abs(cos_part) >= np.abs(sin_part), cos_part, sin_part)
    big = np.abs(traces) > 1e-12
    first = np.take_along_axis(traces, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    fallback = np.where(big.any(axis=-1) & (first < 0), -1.0, 1.0)
    return np.where(np.abs(part) > 1e-8 * traces.shape[-1],
                    np.where(part > 0, 1.0, -1.0), fallback)


def dominant_degree(traces: np.ndarray) -> np.ndarray:
    """Dominant angular frequency of each row of nodal boundary values."""
    return np.argmax(np.abs(np.fft.rfft(traces, axis=-1)), axis=-1)
