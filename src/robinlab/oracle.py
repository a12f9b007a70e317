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

The grid's structure is known, so nothing about it is searched for.
Every ring node couples to the same seven stencil points: itself, its
two neighbours on the ring, and two nodes on each adjacent ring, along
the quad diagonal; the centre couples to the first ring.  `assemble`
fills that stencil from per-triangle edge weights (minus half the
cotangent of the opposite angle), and the boundary mass fills the
outer ring's part of it.  A linear system is a principal block of the
stencil matrix (the centre and rings lo..hi), and every one, torsion,
Robin or Steklov audit, is solved the same way: MINRES (Paige &
Saunders, SIAM J. Numer. Anal. 12(4), 1975) with the stencil applied
ring array by ring array, no sparse matrix built.  The preconditioner
is the block with each ring's stencil averaged over the angle, a fast
separable solver for a nonseparable problem (Concus & Golub, SIAM J.
Numer. Anal. 10(6), 1973): under an FFT in angle it splits into one
tridiagonal system in the ring index per angular mode.  For alpha > 0
the Robin block is indefinite, and the modes whose factorization meets
a non-positive pivot are inverted in absolute value, which keeps the
preconditioner positive definite (Vecharynski & Knyazev, SIAM J. Sci.
Comput. 35(2), 2013).  On the disc the average is the block itself, and
MINRES stops within a few iterations.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolverError
from .geometry import Domain, _planar_rho, trig_interp

__all__ = [
    "FemRobin",
    "FemSolution",
    "fem_dirichlet_T",
    "fem_robin_energy",
    "steklov_residual",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)

# Stencil slots of ring node (i, j), in the order of their mesh numbers:
# (i-1, j-1), (i-1, j), (i, j-1), (i, j), (i, j+1), (i+1, j), (i+1, j+1).
# On the first ring both inner slots are the centre; the coupling sits in
# the (i-1, j) slot.  The stencil values of a mesh are one flat array:
# slot s of ring node (i, j) at ((i-1) n_t + j) * 7 + s, the centre's
# diagonal last.
_SLOT_RING = np.array([-1, -1, 0, 0, 0, 1, 1])
_SLOT_ANGLE = np.array([-1, 0, -1, 0, 1, 0, 1])


def _rho_callable(d) -> tuple:
    """(rho(theta), drho(theta)) callables from a planar Domain or a plain callable.

    A plain callable gets a central-difference derivative.
    """
    if isinstance(d, Domain):
        rho = _planar_rho(d)
        return rho, lambda t: rho(t, order=1)
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


def _edge_weights(p, q, r):
    """(area, w_qr, w_rp, w_pq) of triangles p, q, r given as (..., 2) arrays.

    w is minus half the cotangent of the angle opposite the edge: the
    P1 stiffness coupling of the edge's two vertices.
    """
    u, v, w = q - p, r - q, p - r
    det = u[..., 1] * w[..., 0] - u[..., 0] * w[..., 1]
    if np.any(det <= 0):
        raise SolverError("mesh produced degenerate or flipped triangles")
    dot = lambda a, b: a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    half = 0.5 / det
    return 0.5 * det, dot(u, w) * half, dot(u, v) * half, dot(v, w) * half


class _Mesh:
    """Polar P1 mesh: center node + n_r rings of n_t nodes each.

    Node 0 is the centre and node 1 + (i-1) n_t + j sits on ring i at
    angle j; the outer ring is numbered last, so the free nodes are
    [:n_free].
    """

    def __init__(self, rho, n_t: int, n_r: int):
        thetas = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
        r_b = np.asarray(rho(thetas), dtype=float)
        if np.any(r_b <= 0):
            raise ValueError("boundary radius must stay positive")
        rad = (np.arange(1, n_r + 1) / n_r)[:, None] * r_b
        rings = np.stack([rad * np.cos(thetas), rad * np.sin(thetas)], axis=-1)
        self.coords = np.vstack([np.zeros((1, 2)), rings.reshape(-1, 2)])
        self.n_t, self.n_r = n_t, n_r
        self.thetas = thetas
        self.r_boundary = r_b
        self.n_free = 1 + (n_r - 1) * n_t

        j = np.arange(n_t)
        jp = np.roll(j, -1)
        a = 1 + np.arange(n_r - 1)[:, None] * n_t + j
        b = a - j + jp
        fan = np.column_stack([np.zeros(n_t, dtype=int), 1 + j, 1 + jp])
        quads = np.stack([np.stack([a, a + n_t, b + n_t], axis=-1),
                          np.stack([a, b + n_t, b], axis=-1)], axis=1)
        self.tris = np.vstack([fan, quads.reshape(-1, 3)])

    @property
    def h_max(self) -> float:
        return 2.0 * np.pi * float(self.r_boundary.max()) / self.n_t

    @property
    def n_stencil(self) -> int:
        return 7 * self.n_r * self.n_t + 1

    def assemble(self):
        """(stiffness stencil K, load f) for P1 elements.

        Quad q lies between rings q and q+1 (ring 0 is the centre, so
        quad 0 is the fan): its triangles are (i,j), (i+1,j), (i+1,j+1)
        and (i,j), (i+1,j+1), (i,j+1).
        """
        n_t, n_r = self.n_t, self.n_r
        g = np.concatenate([np.zeros((1, n_t, 2)),
                            self.coords[1:].reshape(n_r, n_t, 2)])
        up = np.roll(g[1:], -1, axis=1)
        area1, t1a, t1c, t1e = _edge_weights(g[:-1], g[1:], up)
        area2, t2a, t2e, t2b = (np.zeros((n_r, n_t)) for _ in range(4))
        area2[1:], t2a[1:], t2e[1:], t2b[1:] = _edge_weights(
            g[1:-1], up[1:], np.roll(g[1:-1], -1, axis=1))
        # edge weights by quad row q: (q, j)-(q+1, j), (q, j)-(q+1, j+1)
        # and, on the ring between quads q and q+1, (q+1, j)-(q+1, j+1)
        radial = t1e + np.roll(t2a, 1, axis=1)
        diag = t1c + t2b
        ring = t1a + np.concatenate([t2e[1:], np.zeros((1, n_t))])

        S = np.zeros((n_r, n_t, 7))                   # row q: ring q+1's nodes
        S[:, :, 0] = np.roll(diag, 1, axis=1)
        S[:, :, 1] = radial
        S[0, :, 1] += S[0, :, 0]                      # both fan edges reach the centre
        S[0, :, 0] = 0.0
        S[:, :, 2] = np.roll(ring, 1, axis=1)
        S[:, :, 4] = ring
        S[:-1, :, 5] = radial[1:]
        S[:-1, :, 6] = diag[1:]
        S[:, :, 3] = -S.sum(axis=2)
        K = np.append(S.ravel(), -S[0, :, 1].sum())

        quad = area1 + area2
        f = np.empty(self.coords.shape[0])
        f[0] = area1[0].sum() / 3.0
        below = area1 + np.roll(quad, 1, axis=1)
        above = quad + np.roll(area2, 1, axis=1)
        below[:-1] += above[1:]
        f[1:] = below.ravel() / 3.0
        return K, f

    def boundary_mass(self, rho, drho) -> np.ndarray:
        """oint u v dS on the exact curve as a stencil, hat functions linear in theta."""
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
        Mb = np.zeros(self.n_stencil)
        outer = Mb[7 * (self.n_r - 1) * n_t:-1].reshape(n_t, 7)
        outer[:, 2] = np.roll(m01, 1)
        outer[:, 3] = m00 + np.roll(m11, 1)
        outer[:, 4] = m01
        return Mb

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


# scipy's MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12(4), 1975)
# stops once its estimate of the preconditioned residual norm, over its
# estimates of the preconditioned block's norm times |x|, is _RTOL; a
# solve that has not stopped after _MAXITER iterations raises SolverError.
_RTOL = 1e-15
_MAXITER = 200


class _Stencil:
    """A principal block of a mesh's stencil matrix, applied matrix-free.

    The block holds the centre (if lo == 1) and rings lo..hi; a block
    vector is the centre's value (if any), then the rings' values ring
    by ring.  `apply` runs the slots on the (ring, angle) array, with
    no sparse matrix.
    """

    def __init__(self, mesh: _Mesh, data: np.ndarray, lo: int, hi: int):
        self.c, self.m, self.n_t = int(lo == 1), hi - lo + 1, mesh.n_t
        S = data[7 * (lo - 1) * self.n_t:7 * hi * self.n_t].reshape(self.m, self.n_t, 7)
        self.slots = np.ascontiguousarray(S.transpose(2, 0, 1))
        self.centre = float(data[-1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The block times x."""
        c, m = self.c, self.m
        X = x[c:].reshape(m, self.n_t)
        shifted = {a: np.roll(X, -a, axis=1) if a else X for a in (-1, 0, 1)}
        Y = np.zeros_like(X)
        for s, (r, a) in enumerate(zip(_SLOT_RING, _SLOT_ANGLE)):
            rows = slice(max(0, -r), m - max(0, r))
            Y[rows] += self.slots[s, rows] * shifted[a][max(0, r):m + min(0, r)]
        if not c:
            return Y.ravel()
        Y[0] += self.slots[1, 0] * x[0]
        return np.concatenate([[self.centre * x[0] + self.slots[1, 0] @ X[0]], Y.ravel()])


class _Block(_Stencil):
    """A principal block of a stencil matrix, solved by preconditioned MINRES.

    The preconditioner is |P|^-1, for P the block with each ring's slots
    averaged over the angle.  P is block-circulant, so a real FFT of
    each ring splits it into n_t/2 + 1 Hermitian tridiagonal systems in
    the ring index, one per angular mode, the centre joining mode 0 as
    its first row (the other modes get a decoupled unit row there).  A
    mode whose LDL^H pivots stay positive is solved by its factors, any
    other by |T_k|^-1 from its eigenvectors, which keeps the
    preconditioner positive definite when the block is not.
    """

    def __init__(self, mesh: _Mesh, data: np.ndarray, lo: int, hi: int):
        super().__init__(mesh, data, lo, hi)
        c, m, n_t = self.c, self.m, self.n_t
        # mode k multiplies a slot at angle offset a by z^a, z = exp(2 pi i k / n_t)
        mean = self.slots.mean(axis=2).T
        z = np.exp(2j * np.pi * np.arange(n_t // 2 + 1) / n_t)
        diag = np.ones((c + m, z.size))
        lower = np.zeros((c + m, z.size), dtype=complex)   # row i to row i-1
        diag[c:] = mean[:, 3, None] + (mean[:, 2] + mean[:, 4])[:, None] * z.real
        lower[c + 1:] = mean[1:, 0, None] / z + mean[1:, 1, None]
        if c:
            diag[0, 0] = self.centre
            lower[1, 0] = math.sqrt(n_t) * mean[0, 1]
        piv, ratio = diag.copy(), np.zeros_like(lower)
        for i in range(1, c + m):
            ratio[i] = lower[i] / piv[i - 1]
            piv[i] -= (ratio[i] * lower[i].conj()).real
        self.eig = {}
        for k in np.flatnonzero((piv <= 0).any(axis=0)):
            T = np.diag(diag[:, k]) + np.diag(lower[1:, k], -1) \
                + np.diag(lower[1:, k].conj(), 1)
            lam, vec = np.linalg.eigh(T)
            self.eig[k] = vec, 1.0 / np.abs(lam)
            piv[:, k], ratio[:, k] = 1.0, 0.0
        self.piv, self.ratio, self.upper = piv, ratio, ratio[1:].conj()

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """|P|^-1 r."""
        c, m, n_t = self.c, self.m, self.n_t
        B = np.zeros((c + m, n_t // 2 + 1), dtype=complex)
        B[c:] = np.fft.rfft(r[c:].reshape(m, n_t), axis=1)
        if c:
            B[0, 0] = math.sqrt(n_t) * r[0]
        dense = [(k, vec @ (inv * (vec.conj().T @ B[:, k])))
                 for k, (vec, inv) in self.eig.items()]
        for i in range(1, c + m):
            B[i] -= self.ratio[i] * B[i - 1]
        B /= self.piv
        for i in range(c + m - 2, -1, -1):
            B[i] -= self.upper[i] * B[i + 1]
        for k, col in dense:
            B[:, k] = col
        out = np.fft.irfft(B[c:], n_t, axis=1).ravel()
        return np.concatenate([[B[0, 0].real / math.sqrt(n_t)], out]) if c else out

    def solve(self, b: np.ndarray) -> tuple:
        """(x, iterations) with the block times x = b, by preconditioned MINRES."""
        n, steps = b.size, []
        op = lambda f: spla.LinearOperator((n, n), matvec=f, dtype=float)
        x, info = spla.minres(op(self.apply), b, rtol=_RTOL, maxiter=_MAXITER,
                              M=op(self.precondition),
                              callback=lambda _: steps.append(None))
        if info:
            raise SolverError(f"MINRES did not converge in {_MAXITER} iterations")
        return x, len(steps)


def _check_mesh_args(h_max: float, levels: int) -> None:
    if not (math.isfinite(h_max) and h_max > 0):
        raise ValueError(f"h_max must be finite and positive, got {h_max}")
    if levels < 2:
        raise ValueError(f"Richardson extrapolation needs levels >= 2, got {levels}")


def _doubled_meshes(rho, n_t0: int, levels: int):
    """`levels` meshes from about n_t0 boundary nodes, doubling both counts per level.

    The angular count is rounded up to a multiple of 4 and the ring count
    is max(4, n_t0 // 6) of the unrounded one.  Exact doubling keeps the
    family self-similar, which Richardson needs, and puts every boundary
    node of a mesh on the next one.
    """
    n_r0 = max(4, n_t0 // 6)
    n_t0 = int(math.ceil(n_t0 / 4.0)) * 4
    for lv in range(levels):
        yield _Mesh(rho, n_t0 * 2 ** lv, n_r0 * 2 ** lv)


def _mesh_levels(rho, h_max: float, levels: int):
    rmax = float(np.asarray(rho(np.linspace(0, 2 * np.pi, 720)), float).max())
    n_t0 = max(32, int(math.ceil(2.0 * np.pi * rmax / (4.0 * h_max))) * 4)
    return _doubled_meshes(rho, n_t0, levels)


def _richardson(values: list) -> tuple:
    """Extrapolate an h^2 sequence from doubled meshes; (value, indicator).

    The values may be arrays, extrapolated pointwise.
    """
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
        u, _ = _Block(mesh, K, 1, mesh.n_r - 1).solve(f[:nf])
        vals.append(-float(f[:nf] @ u))
    return _richardson(vals)[0]


@dataclass(frozen=True)
class FemSolution:
    """Robin solve on the finest mesh plus its refinement trail.

    `energy` is the Richardson extrapolant of `levels`; `error` is the
    last extrapolation jump.  `boundary_residual` is the L2 boundary
    norm of (normal derivative - alpha u) recomputed from raw interior
    gradients, an O(h) indicator independent of the weak formulation.
    `iterations` holds the MINRES iteration count of each level.
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
    iterations: tuple[int, ...]

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
            "iterations": list(self.iterations),
        })


class FemRobin:
    """The P1 Robin problem of a planar domain on its doubled meshes.

    Each level's mesh, stiffness, load and boundary mass are built once,
    here; `solve` then costs one preconditioner and one MINRES solve per
    level and alpha.  `solve` only reads what is built, so threads may
    share one instance.
    """

    def __init__(self, d, h_max: float = 0.065, levels: int = 3):
        _check_mesh_args(h_max, levels)
        self._rho, self._drho = _rho_callable(d)
        self._levels = []
        for mesh in _mesh_levels(self._rho, h_max, levels):
            K, f = mesh.assemble()
            self._levels.append((mesh, K, mesh.boundary_mass(self._rho, self._drho), f))

    def solve(self, alpha: float) -> FemSolution:
        """Robin energy E = -int u dx with exact-curve boundary mass.

        Raises SolverError if the discrete solution norm indicates a
        resonance blowup (alpha too close to a Steklov eigenvalue).
        """
        if alpha == 0.0:
            raise SolverError("alpha = 0 has no solution (incompatible flux)")
        vals, iterations = [], []
        for mesh, K, Mb, f in self._levels:
            u, its = _Block(mesh, K - alpha * Mb, 1, mesh.n_r).solve(f)
            iterations.append(its)
            if not np.all(np.isfinite(u)):
                raise SolverError(f"singular Robin system at alpha={alpha}")
            scale = max(float(np.abs(mesh.coords).max()) ** 2, 1.0 / abs(alpha))
            if float(np.abs(u).max()) > 1e10 * scale:
                raise SolverError(
                    f"Robin solution blowup at alpha={alpha}")
            vals.append(-float(f @ u))
        energy, err = _richardson(vals)
        flux, q = mesh.boundary_gradient_flux(u, self._rho, self._drho)
        ub = u[mesh.n_free:]
        mid = 0.5 * (ub + np.roll(ub, -1))
        w = q * (2.0 * np.pi / mesh.n_t)
        bres = math.sqrt(float(((flux - alpha * mid) ** 2 * w).sum()))
        return FemSolution(alpha, energy, err, tuple(vals), mesh.h_max,
                           mesh.coords, mesh.tris, u, bres, tuple(iterations))


def fem_robin_energy(d, alpha, h_max: float = 0.065, levels: int = 3):
    """Robin energy E = -int u dx by P1 elements, Richardson-extrapolated.

    `d` is a planar Domain, a plain callable theta -> radius, or a
    FemRobin, whose meshes serve as built (h_max and levels are then
    not read).  `alpha` is a float, giving one FemSolution, or a
    sequence, giving one per alpha from meshes and matrices built once.
    Raises SolverError on a resonance blowup, see `FemRobin.solve`.
    """
    fem = d if isinstance(d, FemRobin) else FemRobin(d, h_max, levels)
    sols = [fem.solve(float(a)) for a in np.atleast_1d(alpha)]
    return sols[0] if np.ndim(alpha) == 0 else sols


def steklov_residual(basis, sample_density: int = 256,
                     n_modes: int | None = None) -> float:
    """Audit eigenpairs of a planar Steklov basis: max |flux(phi_i) - mu_i phi_i|.

    Analytic (ball) bases are recomputed from the closed-form harmonic
    extension, so the residual is pure roundoff.  Star bases get each
    trace imposed as Dirichlet data on two FEM meshes (sample_density,
    rounded up to a multiple of 4, and double that many boundary nodes);
    the boundary flux is recovered variationally and Richardson-
    extrapolated pointwise, which restores two-digit-per-doubling
    accuracy from the O(h^2) raw flux error.  Returns the max over modes
    and sample points.
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
    for mesh in _doubled_meshes(rho, sample_density, 2):
        K, _ = mesh.assemble()
        nf, n_r = mesh.n_free, mesh.n_r
        full, free = _Stencil(mesh, K, 1, n_r), _Block(mesh, K, 1, n_r - 1)
        outer = _Block(mesh, mesh.boundary_mass(rho, drho), n_r, n_r)
        g = np.stack([trig_interp(basis.traces[i], mesh.thetas)
                      for i in range(n)])
        flux = []
        for gi in g:
            v = np.concatenate([np.zeros(nf), gi])
            v[:nf] = free.solve(-full.apply(v)[:nf])[0]
            flux.append(outer.solve(full.apply(v)[nf:])[0])
        fluxes.append(np.array(flux))
        traces.append(g)
    coarse_flux, _ = _richardson([fluxes[0], fluxes[1][:, ::2]])
    return float(np.abs(coarse_flux - basis.mu[:n, None] * traces[0]).max())
