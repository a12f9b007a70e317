"""Independent P1 finite-element oracle for planar torsion and Robin solves.

Everything here is deliberately decoupled from the boundary-integral
machinery (no imports from the layer-potential, spectral, or energy
modules) so it can audit their outputs.  The mesh is a polar grid:
a center fan plus quad rings split into triangles, with boundary nodes
placed exactly on rho(theta).  Radial spacing tracks the angular one
(about one sixth of the node count), and the angular count is kept a
multiple of 4 so the mesh inherits the symmetries that keep forcing
terms orthogonal to near-resonant odd modes.  Energies converge at
second order in the mesh size; Richardson extrapolation over doubled
meshes is applied and the last extrapolation jump is reported as the
error indicator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .geometry import Domain, trig_interp

__all__ = [
    "FemSolution",
    "fem_dirichlet_T",
    "fem_robin_energy",
    "steklov_residual",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


def _rho_callable(d) -> tuple:
    """(rho(theta), drho(theta)) callables from a Domain or a plain callable.

    A plain callable gets a central-difference derivative.
    """
    if isinstance(d, Domain):
        if d.kind == "ball" and d.dim == 2:
            R = d.R
            return (lambda t: np.full_like(np.asarray(t, float), R),
                    lambda t: np.zeros_like(np.asarray(t, float)))
        if d.kind == "star2d":
            rho = d.rho
            return (lambda t: rho(t), lambda t: rho(t, order=1))
        raise ValueError("the oracle handles planar domains only")
    return d, lambda t: (np.asarray(d(t + 1e-6), float)
                         - np.asarray(d(t - 1e-6), float)) / 2e-6


def _p1_gradients(x: np.ndarray):
    """(det, b, c) of P1 triangles x (T, 3, 2): grad phi_j = (b_j, c_j), area det/2."""
    v1 = x[:, 1] - x[:, 0]
    v2 = x[:, 2] - x[:, 0]
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    if np.any(det <= 0):
        raise SolverError("mesh produced degenerate or flipped triangles")
    bmat = np.stack([x[:, 1, 1] - x[:, 2, 1],
                     x[:, 2, 1] - x[:, 0, 1],
                     x[:, 0, 1] - x[:, 1, 1]], axis=1) / det[:, None]
    cmat = np.stack([x[:, 2, 0] - x[:, 1, 0],
                     x[:, 0, 0] - x[:, 2, 0],
                     x[:, 1, 0] - x[:, 0, 0]], axis=1) / det[:, None]
    return det, bmat, cmat


class _Mesh:
    """Polar P1 mesh: center node + n_r rings of n_t nodes each."""

    def __init__(self, rho, n_t: int, n_r: int):
        n_t = int(math.ceil(n_t / 4.0)) * 4
        thetas = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
        r_b = np.asarray(rho(thetas), dtype=float)
        if np.any(r_b <= 0):
            raise ValueError("boundary radius must stay positive")
        coords = [np.zeros((1, 2))]
        for i in range(1, n_r + 1):
            rad = (i / n_r) * r_b
            coords.append(np.column_stack([rad * np.cos(thetas),
                                           rad * np.sin(thetas)]))
        self.coords = np.vstack(coords)
        self.n_t, self.n_r = n_t, n_r
        self.thetas = thetas
        self.r_boundary = r_b
        # the outer ring is numbered last, so the free nodes are [:n_free]
        self.n_free = 1 + (n_r - 1) * n_t
        self.boundary = self.n_free + np.arange(n_t)

        jp = (np.arange(n_t) + 1) % n_t
        tris = [np.column_stack([np.zeros(n_t, dtype=int),
                                 1 + np.arange(n_t), 1 + jp])]
        for i in range(1, n_r):
            lo = 1 + (i - 1) * n_t
            hi = lo + n_t
            a, b = lo + np.arange(n_t), lo + jp
            c, e = hi + np.arange(n_t), hi + jp
            tris.append(np.column_stack([a, c, e]))
            tris.append(np.column_stack([a, e, b]))
        self.tris = np.vstack(tris)

    @property
    def h_max(self) -> float:
        return 2.0 * np.pi * float(self.r_boundary.max()) / self.n_t

    def assemble(self):
        """(stiffness K, load f) for P1 elements."""
        det, bmat, cmat = _p1_gradients(self.coords[self.tris])
        area = 0.5 * det
        kloc = (bmat[:, :, None] * bmat[:, None, :]
                + cmat[:, :, None] * cmat[:, None, :]) * area[:, None, None]
        rows = np.repeat(self.tris, 3, axis=1).ravel()
        cols = np.tile(self.tris, (1, 3)).ravel()
        n = self.coords.shape[0]
        K = sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        f = np.zeros(n)
        np.add.at(f, self.tris.ravel(), np.repeat(area / 3.0, 3))
        return K, f

    def boundary_mass(self, rho, drho) -> sp.csr_matrix:
        """oint u v dS on the exact curve, hat functions linear in theta."""
        n_t = self.n_t
        dt = 2.0 * np.pi / n_t
        t0 = self.thetas
        tq = t0[:, None] + 0.5 * dt * (_GAUSS_X[None, :] + 1.0)   # (n_t, 4)
        r = np.asarray(rho(tq.ravel()), float).reshape(tq.shape)
        rp = np.asarray(drho(tq.ravel()), float).reshape(tq.shape)
        q = np.sqrt(r * r + rp * rp)
        n1 = (tq - t0[:, None]) / dt
        n0 = 1.0 - n1
        w = 0.5 * dt * _GAUSS_W[None, :] * q
        m00 = (w * n0 * n0).sum(axis=1)
        m01 = (w * n0 * n1).sum(axis=1)
        m11 = (w * n1 * n1).sum(axis=1)
        b = self.boundary
        bn = np.roll(b, -1)
        rows = np.concatenate([b, b, bn, bn])
        cols = np.concatenate([b, bn, b, bn])
        vals = np.concatenate([m00, m01, m01, m11])
        n = self.coords.shape[0]
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    def boundary_gradient_flux(self, u: np.ndarray, rho, drho):
        """(normal derivative, curve speed) at boundary edge midpoints.

        The derivative comes from raw P1 gradients: first-order accurate,
        used only as an independent sanity residual.
        """
        n_t = self.n_t
        lo = 1 + (self.n_r - 1) * n_t
        jp = (np.arange(n_t) + 1) % n_t
        tri = np.column_stack([lo - n_t + np.arange(n_t), lo + np.arange(n_t),
                               lo + jp])
        _, bmat, cmat = _p1_gradients(self.coords[tri])
        uv = u[tri]
        gx = (bmat * uv).sum(axis=1)
        gy = (cmat * uv).sum(axis=1)
        tm = self.thetas + np.pi / n_t
        r = np.asarray(rho(tm), float)
        rp = np.asarray(drho(tm), float)
        q = np.sqrt(r * r + rp * rp)
        nx = (r * np.cos(tm) + rp * np.sin(tm)) / q
        ny = (r * np.sin(tm) - rp * np.cos(tm)) / q
        return gx * nx + gy * ny, q


def _factor(A) -> spla.SuperLU:
    """Sparse LU of a FEM matrix, ordered on the pattern of A^T + A.

    P1 stiffness and boundary-mass matrices are structurally symmetric,
    so a symmetric minimum-degree ordering gives about half the fill of
    the default COLAMD column ordering.
    """
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:        # "Factor is exactly singular"
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def _check_mesh_args(h_max: float, levels: int) -> None:
    if not (math.isfinite(h_max) and h_max > 0):
        raise ValueError(f"h_max must be finite and positive, got {h_max}")
    if levels < 2:
        raise ValueError(f"Richardson extrapolation needs levels >= 2, got {levels}")


def _mesh_levels(rho, h_max: float, levels: int):
    rmax = float(np.asarray(rho(np.linspace(0, 2 * np.pi, 720)), float).max())
    n_t0 = max(32, int(math.ceil(2.0 * np.pi * rmax / (4.0 * h_max))) * 4)
    n_r0 = max(4, n_t0 // 6)
    # exact doubling keeps the mesh family self-similar, which Richardson needs
    for lv in range(levels):
        yield _Mesh(rho, n_t0 * 2 ** lv, n_r0 * 2 ** lv)


def _richardson(values: list[float]) -> tuple[float, float]:
    """Extrapolate an h^2 sequence from doubled meshes; (value, indicator)."""
    ex = [(4.0 * values[i + 1] - values[i]) / 3.0 for i in range(len(values) - 1)]
    if len(ex) == 1:
        return ex[0], abs(values[-1] - ex[0])
    return ex[-1], abs(ex[-1] - ex[-2])


def fem_dirichlet_T(d, h_max: float = 0.065, levels: int = 3) -> float:
    """Torsion energy T = -int s dx by P1 elements, Richardson-extrapolated.

    `d` is a planar Domain or a plain callable theta -> radius (which
    permits non-smooth boundaries such as squares).
    """
    _check_mesh_args(h_max, levels)
    rho, _ = _rho_callable(d)
    vals = []
    for mesh in _mesh_levels(rho, h_max, levels):
        K, f = mesh.assemble()
        nf = mesh.n_free
        u = _factor(K[:nf, :nf]).solve(f[:nf])
        vals.append(-float(f[:nf] @ u))
    return _richardson(vals)[0]


@dataclass(frozen=True)
class FemSolution:
    """Robin solve on the finest mesh plus its refinement trail.

    `energy` is the Richardson extrapolant of `levels`; `error` is the
    last extrapolation jump.  `boundary_residual` is the L2 boundary
    norm of (normal derivative - alpha u) recomputed from raw interior
    gradients, an O(h) indicator independent of the weak formulation.
    """

    alpha: float
    energy: float
    error: float
    levels: tuple[float, ...]
    h_max: float
    coords: np.ndarray
    tris: np.ndarray
    values: np.ndarray
    boundary_residual: float

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "energy": self.energy,
            "error": self.error,
            "levels": list(self.levels),
            "h_max": self.h_max,
            "coords": self.coords.tolist(),
            "triangles": self.tris.tolist(),
            "values": self.values.tolist(),
            "boundary_residual": self.boundary_residual,
        })


def fem_robin_energy(d, alpha: float, h_max: float = 0.065,
                     levels: int = 3) -> FemSolution:
    """Robin energy E = -int u dx by P1 elements with exact-curve boundary mass.

    Raises SolverError if the discrete solution norm indicates a
    resonance blowup (alpha too close to a Steklov eigenvalue).
    """
    _check_mesh_args(h_max, levels)
    if alpha == 0.0:
        raise SolverError("alpha = 0 has no solution (incompatible flux)")
    rho, drho = _rho_callable(d)
    vals = []
    mesh = u = None
    for mesh in _mesh_levels(rho, h_max, levels):
        K, f = mesh.assemble()
        Mb = mesh.boundary_mass(rho, drho)
        u = _factor(K - alpha * Mb).solve(f)
        if not np.all(np.isfinite(u)):
            raise SolverError(f"singular Robin system at alpha={alpha}")
        scale = max(float(np.abs(mesh.coords).max()) ** 2, 1.0 / abs(alpha))
        if float(np.abs(u).max()) > 1e10 * scale:
            raise SolverError(
                f"Robin solution blowup at alpha={alpha}")
        vals.append(-float(f @ u))
    energy, err = _richardson(vals)
    flux, q = mesh.boundary_gradient_flux(u, rho, drho)
    ub = u[mesh.boundary]
    mid = 0.5 * (ub + np.roll(ub, -1))
    w = q * (2.0 * np.pi / mesh.n_t)
    bres = math.sqrt(float(((flux - alpha * mid) ** 2 * w).sum()))
    return FemSolution(alpha, energy, err, tuple(vals), mesh.h_max,
                       mesh.coords, mesh.tris, u, bres)


def steklov_residual(basis, sample_density: int = 256,
                     n_modes: int | None = None) -> float:
    """Audit eigenpairs of a planar Steklov basis: max |flux(phi_i) - mu_i phi_i|.

    Analytic (ball) bases are recomputed from the closed-form harmonic
    extension, so the residual is pure roundoff.  Star bases get each
    trace imposed as Dirichlet data on two FEM meshes (sample_density
    and double that many boundary nodes); the boundary flux is
    recovered variationally and Richardson-extrapolated pointwise,
    which restores two-digit-per-doubling accuracy from the O(h^2)
    raw flux error.  Returns the max over modes and sample points.
    """
    n = basis.count if n_modes is None else min(n_modes, basis.count)
    if basis.kind == "ball":
        R = basis.domain.R
        out = np.abs(basis.mu[:n] - np.asarray(basis.k[:n], float) / R)
        if basis.domain.dim == 2:
            out = out * np.abs(basis.trace_matrix()[:n]).max(axis=1)
        return float(out.max())
    if basis.kind != "star":
        raise ValueError("residual audit supports ball and star bases only")

    rho, drho = _rho_callable(basis.domain)
    fluxes, traces = [], []
    n_r0 = max(4, sample_density // 6)
    for n_t, n_r in ((sample_density, n_r0), (2 * sample_density, 2 * n_r0)):
        mesh = _Mesh(rho, n_t, n_r)
        K, _ = mesh.assemble()
        Mb = mesh.boundary_mass(rho, drho)
        nf = mesh.n_free
        g = np.stack([trig_interp(basis.traces[i], mesh.thetas)
                      for i in range(n)])
        v = np.empty((mesh.coords.shape[0], n))
        v[nf:] = g.T
        v[:nf] = _factor(K[:nf, :nf]).solve(-(K[:nf, nf:] @ g.T))
        fluxes.append(_factor(Mb[nf:, nf:]).solve((K @ v)[nf:]).T)
        traces.append(g)
    coarse = (4.0 * fluxes[1][:, ::2] - fluxes[0]) / 3.0
    return float(np.abs(coarse - basis.mu[:n, None] * traces[0]).max())
