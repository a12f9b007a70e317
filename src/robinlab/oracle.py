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
MINRES stops within a few iterations.  The Richardson levels are solved
by nested iteration (Brandt, Math. Comp. 31(138), 1977): each level
after the first starts MINRES from the previous level's solution,
interpolated onto the doubled mesh, so it needs fewer iterations to the
same stopping test.

A level's energy is the critical value of the quadratic functional
u.Bu - 2 f.u of its block B and load f, evaluated at the MINRES
iterate.  It equals -f.u at the discrete solution, but its error is
quadratic in the algebraic error, r.B^-1 r for the residual r, where
-f.u's is linear (Arioli, Numer. Math. 97(1), 2004).  So the energy
solves stop at the relative tolerance _ENERGY_RTOL = 1e-9, and only
the Steklov audit, whose fluxes are linear in the solution, solves to
_RTOL = 1e-15.
"""
from __future__ import annotations

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
# the (i-1, j) slot.  The stencil values of a mesh are one flat array,
# slot-major: slot s of ring node (i, j) at (s n_r + i - 1) n_t + j, the
# centre's diagonal last.
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
        self.n_free = 1 + (n_r - 1) * n_t

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

        K = np.zeros(self.n_stencil)
        S = K[:-1].reshape(7, n_r, n_t)               # slot, row q: ring q+1's nodes
        S[0] = np.roll(diag, 1, axis=1)
        S[1] = radial
        S[1, 0] += S[0, 0]                            # both fan edges reach the centre
        S[0, 0] = 0.0
        S[2] = np.roll(ring, 1, axis=1)
        S[4] = ring
        S[5, :-1] = radial[1:]
        S[6, :-1] = diag[1:]
        S[3] = -S.sum(axis=0)
        K[-1] = -S[1, 0].sum()

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
        outer = Mb[:-1].reshape(7, self.n_r, n_t)[:, -1]
        outer[2] = np.roll(m01, 1)
        outer[3] = m00 + np.roll(m11, 1)
        outer[4] = m01
        return Mb


# scipy's MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12(4), 1975)
# stops once its estimate of the preconditioned residual norm, over its
# estimates of the preconditioned block's norm times |x|, is the given
# tolerance: _RTOL for the Steklov audit's fluxes, _ENERGY_RTOL for the
# stationary level energies.  _ENERGY_RTOL is the largest power of ten
# that keeps the energies of stars, the ellipse and the disc within
# 1e-11 relative of their values at _RTOL (1.5e-12 at most; 1e-8 gave
# 3.5e-11).  A solve that has not stopped after _MAXITER iterations
# raises SolverError.
_RTOL = 1e-15
_ENERGY_RTOL = 1e-9
_MAXITER = 200


class _Stencil:
    """A principal block of a mesh's stencil matrix, applied matrix-free.

    The block holds the centre (if lo == 1) and rings lo..hi; a block
    vector is the centre's value (if any), then the rings' values ring
    by ring.  `apply` copies the rings into a padded (ring, angle)
    buffer, a zero ghost ring on each side and each ring's ends wrapped
    around, so every slot's neighbours are one fixed view of it.
    """

    def __init__(self, mesh: _Mesh, data: np.ndarray, lo: int, hi: int):
        self.c, self.m, self.n_t = int(lo == 1), hi - lo + 1, mesh.n_t
        self.slots = data[:-1].reshape(7, mesh.n_r, self.n_t)[:, lo - 1:hi]
        self.centre = float(data[-1])
        self.padded = np.zeros((self.m + 2, self.n_t + 2))
        self.neighbours = [self.padded[1 + r:1 + r + self.m, 1 + a:1 + a + self.n_t]
                           for r, a in zip(_SLOT_RING, _SLOT_ANGLE)]
        self.product = np.empty((self.m, self.n_t))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The block times x."""
        c, P = self.c, self.padded
        P[1:-1, 1:-1] = x[c:].reshape(self.m, self.n_t)
        P[1:-1, 0], P[1:-1, -1] = P[1:-1, -2], P[1:-1, 1]
        y = np.empty(x.size)
        Y = y[c:].reshape(self.m, self.n_t)
        np.multiply(self.slots[0], self.neighbours[0], out=Y)
        for slot, nbr in zip(self.slots[1:], self.neighbours[1:]):
            Y += np.multiply(slot, nbr, out=self.product)
        if c:
            y[0] = self.centre * x[0] + self.slots[1, 0] @ x[1:1 + self.n_t]
            Y[0] += self.slots[1, 0] * x[0]
        return y


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
        self.row = np.empty(z.size, dtype=complex)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """|P|^-1 r."""
        c, m, n_t, row = self.c, self.m, self.n_t, self.row
        B = np.zeros((c + m, n_t // 2 + 1), dtype=complex)
        B[c:] = np.fft.rfft(r[c:].reshape(m, n_t), axis=1)
        if c:
            B[0, 0] = math.sqrt(n_t) * r[0]
        dense = [(k, vec @ (inv * (vec.conj().T @ B[:, k])))
                 for k, (vec, inv) in self.eig.items()]
        rows = list(B)
        for i in range(1, c + m):
            np.subtract(rows[i], np.multiply(self.ratio[i], rows[i - 1], out=row), out=rows[i])
        B /= self.piv
        for i in range(c + m - 2, -1, -1):
            np.subtract(rows[i], np.multiply(self.upper[i], rows[i + 1], out=row), out=rows[i])
        for k, col in dense:
            B[:, k] = col
        out = np.fft.irfft(B[c:], n_t, axis=1).ravel()
        return np.concatenate([[B[0, 0].real / math.sqrt(n_t)], out]) if c else out

    def solve(self, b: np.ndarray, x0: np.ndarray | None, rtol: float) -> tuple:
        """(x, iterations) with the block times x = b, by preconditioned MINRES from x0.

        x0 None starts from zero; MINRES stops at the relative tolerance rtol.
        """
        n, steps = b.size, []
        op = lambda f: spla.LinearOperator((n, n), matvec=f, dtype=float)
        x, info = spla.minres(op(self.apply), b, x0, rtol=rtol, maxiter=_MAXITER,
                              M=op(self.precondition),
                              callback=lambda _: steps.append(None))
        if info:
            raise SolverError(f"MINRES did not converge in {_MAXITER} iterations")
        return x, len(steps)


# Richardson levels of every FEM energy: the coarsest mesh and two doublings
_LEVELS = 3


def _check_mesh_args(h_max: float) -> None:
    if not (math.isfinite(h_max) and h_max > 0):
        raise ValueError(f"h_max must be finite and positive, got {h_max}")


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


def _mesh_levels(rho, h_max: float):
    """The _LEVELS doubled meshes of rho, about h_max apart on the coarsest boundary."""
    rmax = float(np.asarray(rho(np.linspace(0, 2 * np.pi, 720)), float).max())
    n_t0 = max(32, int(math.ceil(2.0 * np.pi * rmax / (4.0 * h_max))) * 4)
    return _doubled_meshes(rho, n_t0, _LEVELS)


def _richardson(values: list) -> tuple:
    """Extrapolate an h^2 sequence from doubled meshes; (value, indicator).

    The values may be arrays, extrapolated pointwise.
    """
    ex = [(4.0 * values[i + 1] - values[i]) / 3.0 for i in range(len(values) - 1)]
    if len(ex) == 1:
        return ex[0], abs(values[-1] - ex[0])
    return ex[-1], abs(ex[-1] - ex[-2])


def _prolong(u: np.ndarray, mesh: _Mesh) -> np.ndarray:
    """u at the nodes of `mesh`, interpolated onto every node of the doubled mesh.

    Node (i, j), on ring i (ring 0 the centre) at angle j, is node
    (2i, 2j) of the doubled mesh; the nodes between are linear in ring
    index and in angle.  A u that stops after the free nodes is zero on
    the boundary ring.
    """
    n_t, n_r = mesh.n_t, mesh.n_r
    U = np.zeros((n_r + 1, n_t))
    U[0] = u[0]
    U[1:].reshape(-1)[:u.size - 1] = u[1:]
    F = np.empty((2 * n_r + 1, 2 * n_t))
    F[::2, ::2] = U
    F[::2, 1::2] = 0.5 * (U + np.roll(U, -1, axis=1))
    F[1::2] = 0.5 * (F[:-1:2] + F[2::2])
    return np.concatenate([[u[0]], F[1:].ravel()])


def _nested_solves(systems):
    """(mesh, u, energy, iterations) of each level, coarsest first, by nested iteration.

    `systems` yields each level's (mesh, block B, load f).  The first
    level's MINRES starts from zero, every later one from the previous
    level's solution prolonged onto its mesh and cut to its block (the
    free nodes, or all of them).  MINRES stops at _ENERGY_RTOL, and the
    energy is the stationary value u.Bu - 2 f.u at its iterate u.
    """
    u = coarse = None
    for mesh, block, f in systems:
        x0 = None if coarse is None else _prolong(u, coarse)[:f.size]
        u, its = block.solve(f, x0, _ENERGY_RTOL)
        energy = float(u @ block.apply(u)) - 2.0 * float(f @ u)
        del block                   # freed before the next level builds its own
        yield mesh, u, energy, its
        coarse = mesh


def fem_dirichlet_T(d, h_max: float = 0.065) -> float:
    """Torsion energy T = -int s dx by P1 elements, Richardson-extrapolated.

    `d` is a planar Domain or a plain callable theta -> radius (which
    permits non-smooth boundaries such as squares).
    """
    _check_mesh_args(h_max)
    rho, _ = _rho_callable(d)
    levels = ((mesh, *mesh.assemble()) for mesh in _mesh_levels(rho, h_max))
    systems = ((mesh, _Block(mesh, K, 1, mesh.n_r - 1), f[:mesh.n_free])
               for mesh, K, f in levels)
    return _richardson([E for _, _, E, _ in _nested_solves(systems)])[0]


@dataclass(frozen=True)
class FemSolution:
    """The Robin energy of one alpha, extrapolated over the doubled meshes.

    `energy` is the Richardson extrapolant of the levels' energies, each
    the stationary value u.Bu - 2 f.u at a MINRES iterate stopped at
    _ENERGY_RTOL (the Steklov audit's solves stop at _RTOL);
    `error` is the last extrapolation jump.  `iterations` holds the
    MINRES iteration count of each level, coarsest first; every level
    after the first starts from the previous level's solution.
    """

    alpha: float
    energy: float
    error: float
    iterations: tuple[int, ...]


class FemRobin:
    """The P1 Robin problem of a planar domain on its doubled meshes.

    `d` is a planar Domain or a plain callable theta -> radius.  Each
    level's mesh, stiffness, load and boundary mass are built once,
    here; `fem_robin_energy` then costs one preconditioner and one
    MINRES solve per level and alpha.
    """

    def __init__(self, d, h_max: float = 0.065):
        _check_mesh_args(h_max)
        rho, drho = _rho_callable(d)
        self._levels = []
        for mesh in _mesh_levels(rho, h_max):
            K, f = mesh.assemble()
            self._levels.append((mesh, K, mesh.boundary_mass(rho, drho), f))


def fem_robin_energy(fem: FemRobin, alpha: float) -> FemSolution:
    """Robin energy E = -int u dx by P1 elements with exact-curve boundary mass.

    Solved on the levels of `fem`, each level after the first started
    from the previous one's solution, and Richardson-extrapolated.
    Raises SolverError if the discrete solution norm indicates a
    resonance blowup (alpha too close to a Steklov eigenvalue).
    """
    if alpha == 0.0:
        raise SolverError("alpha = 0 has no solution (incompatible flux)")
    systems = ((mesh, _Block(mesh, K - alpha * Mb, 1, mesh.n_r), f)
               for mesh, K, Mb, f in fem._levels)
    vals, iterations = [], []
    for mesh, u, energy, its in _nested_solves(systems):
        iterations.append(its)
        if not np.all(np.isfinite(u)):
            raise SolverError(f"singular Robin system at alpha={alpha}")
        scale = max(float(np.abs(mesh.coords).max()) ** 2, 1.0 / abs(alpha))
        if float(np.abs(u).max()) > 1e10 * scale:
            raise SolverError(
                f"Robin solution blowup at alpha={alpha}")
        vals.append(energy)
    energy, err = _richardson(vals)
    return FemSolution(alpha, energy, err, tuple(iterations))


def steklov_residual(basis, sample_density: int = 256,
                     n_modes: int | None = None) -> float:
    """Audit eigenpairs of a planar Steklov basis: max |flux(phi_i) - mu_i phi_i|.

    A ball basis gives max |mu_i - k_i/R| in every dimension, against the
    closed form, so its residual is pure roundoff.  Star bases get each
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
        return float(np.abs(basis.mu[:n] - np.asarray(basis.k[:n], float) / R).max())
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
            v[:nf] = free.solve(-full.apply(v)[:nf], None, _RTOL)[0]
            flux.append(outer.solve(full.apply(v)[nf:], None, _RTOL)[0])
        fluxes.append(np.array(flux))
        traces.append(g)
    coarse_flux, _ = _richardson([fluxes[0], fluxes[1][:, ::2]])
    return float(np.abs(coarse_flux - basis.mu[:n, None] * traces[0]).max())
