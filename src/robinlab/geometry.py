"""Computational domains and boundary perturbation fields.

Three domain kinds are supported: balls in R^n, spherical shells
("annulus" here, any n >= 2), and planar star-shaped domains whose
boundary radius rho(theta) is a trigonometric polynomial.  Measures use
closed forms where they exist and periodic-trapezoid quadrature (which
is spectrally accurate for smooth periodic integrands, and exact for
trigonometric polynomials below the Nyquist degree) otherwise.

A TrigPoly is sampled at N equispaced angles (boundary grids, measures,
its minimum) by one inverse real FFT per derivative order, exact up to
rounding at every degree; calling it evaluates the cosine/sine sum at
arbitrary angles (element meshes).

Perturbation fields are stored as coefficients against the Steklov
boundary eigenbasis of the ball, ordered by eigenvalue with
multiplicity, cosine before sine within an angular degree in 2-D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_BOUNDARY_NODES",
    "TrigPoly",
    "Domain",
    "BoundaryGrid",
    "PerturbationField",
    "unit_ball_volume",
    "unit_sphere_area",
    "ball_mode_multiplicity",
    "ball_mode_degrees",
    "ball_mode_parities",
    "volume",
    "surface_area",
    "surface_components",
    "surface_defect",
    "boundary_grid",
    "trig_interp",
    "ellipse_domain",
    "random_star_domain",
    "domain_to_dict",
    "domain_from_dict",
]

DEFAULT_BOUNDARY_NODES = 256


# ---------------------------------------------------------------------------
# trigonometric polynomials


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial a0 + sum_k (a_k cos k t + b_k sin k t)."""

    a0: float
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    @staticmethod
    def constant(c: float) -> "TrigPoly":
        return TrigPoly(float(c))

    @staticmethod
    def from_samples(values: np.ndarray, n_modes: int | None = None,
                     tol: float = 0.0) -> "TrigPoly":
        """Build from equispaced samples on [0, 2pi) via the FFT.

        `n_modes` truncates the expansion; `tol` drops coefficients whose
        magnitude is below tol * max|values|.
        """
        values = np.asarray(values, dtype=float)
        m = values.size
        c = np.fft.rfft(values) / m
        a0 = c[0].real
        kmax = m // 2
        if n_modes is not None:
            kmax = min(kmax, n_modes)
        ak = 2.0 * c[1:kmax + 1].real
        bk = -2.0 * c[1:kmax + 1].imag
        if m % 2 == 0 and kmax == m // 2:
            # Nyquist coefficient is not doubled
            ak = ak.copy()
            ak[-1] *= 0.5
            bk = bk.copy()
            bk[-1] = 0.0
        if tol > 0.0:
            scale = np.max(np.abs(values)) or 1.0
            keep = max([0] + [k + 1 for k in range(len(ak))
                              if abs(ak[k]) > tol * scale or abs(bk[k]) > tol * scale])
            ak, bk = ak[:keep], bk[:keep]
        # strip trailing zeros so equality/serialization stay tidy
        while len(ak) and ak[-1] == 0.0 and bk[-1] == 0.0:
            ak, bk = ak[:-1], bk[:-1]
        return TrigPoly(float(a0), tuple(float(v) for v in ak),
                        tuple(float(v) for v in bk))

    @property
    def degree(self) -> int:
        return max(len(self.cos), len(self.sin))

    def __call__(self, theta, order: int = 0):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        if order == 0:
            out = out + self.a0
        shift = order * np.pi / 2.0
        for k in range(1, self.degree + 1):
            ak = self.cos[k - 1] if k <= len(self.cos) else 0.0
            bk = self.sin[k - 1] if k <= len(self.sin) else 0.0
            if ak == 0.0 and bk == 0.0:
                continue
            kk = float(k) ** order
            out = out + kk * (ak * np.cos(k * theta + shift)
                              + bk * np.sin(k * theta + shift))
        return out

    def _on_grid(self, N: int, order: int = 0) -> np.ndarray:
        """The order-th derivative at the N angles 2 pi j / N, by one inverse real FFT.

        The FFT length is the smallest multiple of N above 2 * degree, so
        every frequency sits below its Nyquist index and the samples are
        exact up to rounding; every (length / N)-th value is kept.
        """
        deg = self.degree
        step = 2 * deg // N + 1
        ab = np.zeros((2, deg))
        ab[0, :len(self.cos)] = self.cos
        ab[1, :len(self.sin)] = self.sin
        c = np.zeros(N * step // 2 + 1, dtype=complex)
        if order == 0:
            c[0] = self.a0
        # d^order/dt^order of Re((a - ib) e^{ikt}) = Re((a - ib) (ik)^order e^{ikt})
        k = np.arange(1.0, deg + 1.0)
        c[1:deg + 1] = 0.5 * (ab[0] - 1j * ab[1]) * k ** order * 1j ** order
        return np.fft.irfft(c, N * step, norm="forward")[::step]

    def min_value(self) -> float:
        return float(np.min(self._on_grid(4096)))


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Domain:
    """A ball, spherical shell, or planar star-shaped domain.

    `R` is the outer radius for balls and shells; for Star2D it is the
    equal-area disc radius (derived from rho, stored for convenience).
    """

    kind: str                      # "ball" | "annulus" | "star2d"
    dim: int
    R: float
    kappa: float | None = None    # annulus only, inner radius = kappa * R
    rho: TrigPoly | None = None   # star2d only

    @staticmethod
    def ball(dim: int, R: float) -> "Domain":
        _check_dim(dim)
        if not 0.0 < R < math.inf:
            raise ValueError(f"radius must be positive and finite, got {R}")
        return Domain("ball", dim, float(R))

    @staticmethod
    def annulus(dim: int, R: float, kappa: float) -> "Domain":
        _check_dim(dim)
        if not 0.0 < R < math.inf:
            raise ValueError(f"radius must be positive and finite, got {R}")
        if not 0.0 < kappa < 1.0:
            raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
        return Domain("annulus", dim, float(R), kappa=float(kappa))

    @staticmethod
    def star2d(rho: TrigPoly) -> "Domain":
        if not np.all(np.isfinite((rho.a0, *rho.cos, *rho.sin))):
            raise ValueError("rho coefficients must be finite")
        if not rho.min_value() > 0.0:
            raise ValueError("rho must be strictly positive")
        return Domain("star2d", 2, math.sqrt(_star_area(rho) / math.pi), rho=rho)

    def __post_init__(self):
        if self.kind not in ("ball", "annulus", "star2d"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "star2d" and self.dim != 2:
            raise ValueError("star2d domains are planar")


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {dim}")


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def unit_sphere_area(n: int) -> float:
    # |S^{n-1}| = n * omega_n
    return n * unit_ball_volume(n)


def _star_area(rho: TrigPoly) -> float:
    """(1/2) int rho^2 dtheta, by Parseval on the coefficients."""
    sq = sum(a * a for a in rho.cos) + sum(b * b for b in rho.sin)
    return math.pi * (rho.a0 * rho.a0 + 0.5 * sq)


def volume(d: Domain) -> float:
    """|Omega|.  Closed form for balls/shells, trapezoid quadrature for Star2D."""
    if d.kind == "ball":
        return unit_ball_volume(d.dim) * d.R ** d.dim
    if d.kind == "annulus":
        return unit_ball_volume(d.dim) * d.R ** d.dim * (1.0 - d.kappa ** d.dim)
    return _star_area(d.rho)


def surface_area(d: Domain) -> float:
    """|dOmega| (both components for a shell)."""
    if d.kind == "ball":
        return unit_sphere_area(d.dim) * d.R ** (d.dim - 1)
    if d.kind == "annulus":
        return unit_sphere_area(d.dim) * d.R ** (d.dim - 1) * (1.0 + d.kappa ** (d.dim - 1))
    M = DEFAULT_BOUNDARY_NODES
    r, r1 = d.rho._on_grid(M), d.rho._on_grid(M, 1)
    return float(np.sum(np.sqrt(r * r + r1 * r1)) * (2.0 * np.pi / M))


def surface_components(d: Domain) -> tuple[float, float]:
    """(outer, inner) boundary measures of a shell."""
    if d.kind != "annulus":
        raise ValueError("surface_components is defined for annuli")
    s = unit_sphere_area(d.dim)
    return s * d.R ** (d.dim - 1), s * (d.kappa * d.R) ** (d.dim - 1)


def surface_defect(d: Domain) -> float:
    """Isoperimetric deficit y^2 = 1 - 4 pi A / L^2 (planar domains)."""
    if d.dim != 2:
        raise ValueError("surface_defect is planar only")
    if d.kind == "ball":
        return 0.0
    A = volume(d)
    L = surface_area(d)
    return 1.0 - 4.0 * math.pi * A / (L * L)


# ---------------------------------------------------------------------------
# boundary grids and quadrature (planar)


@dataclass(frozen=True)
class BoundaryGrid:
    """Equispaced-in-theta boundary nodes of a planar domain with quadrature data."""

    thetas: np.ndarray     # (M,)
    points: np.ndarray     # (M, 2)
    speed: np.ndarray      # |x'(theta)|
    weights: np.ndarray    # speed * dtheta; sums to |dOmega|
    normals: np.ndarray    # (M, 2) outward
    curvature: np.ndarray  # (M,)

    @property
    def M(self) -> int:
        return self.thetas.size

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(np.asarray(values), self.weights))


def _curve_from_radii(thetas: np.ndarray, r: np.ndarray, r1: np.ndarray,
                      r2: np.ndarray) -> BoundaryGrid:
    """The polar curve r(theta) (cos theta, sin theta) from r, r' and r'' at the angles.

    Curvature is (x' x x'') / |x'|^3; weights assume equispaced angles.
    """
    ct, st = np.cos(thetas), np.sin(thetas)
    x = np.stack([r * ct, r * st], axis=1)
    x1 = np.stack([r1 * ct - r * st, r1 * st + r * ct], axis=1)
    x2 = np.stack([(r2 - r) * ct - 2.0 * r1 * st, (r2 - r) * st + 2.0 * r1 * ct], axis=1)
    q = np.hypot(x1[:, 0], x1[:, 1])
    normals = np.stack([x1[:, 1], -x1[:, 0]], axis=1) / q[:, None]
    curv = (x1[:, 0] * x2[:, 1] - x1[:, 1] * x2[:, 0]) / q ** 3
    return BoundaryGrid(thetas, x, q, q * (2.0 * np.pi / thetas.size), normals, curv)


def _planar_rho(d: Domain) -> TrigPoly:
    """Boundary radius of a planar simply connected domain; a disc is the constant-rho star."""
    if d.dim != 2 or d.kind == "annulus":
        raise ValueError(f"need a planar simply connected domain, got a {d.dim}-D {d.kind}")
    return TrigPoly.constant(d.R) if d.kind == "ball" else d.rho


def boundary_grid(d: Domain, M: int) -> BoundaryGrid:
    """Boundary nodes/weights at M angles for a planar ball or Star2D domain."""
    rho = _planar_rho(d)
    return _curve_from_radii(np.linspace(0.0, 2.0 * np.pi, M, endpoint=False),
                             *(rho._on_grid(M, order) for order in range(3)))


def trig_interp(values: np.ndarray, new_thetas: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation from equispaced samples on [0, 2pi)."""
    return TrigPoly.from_samples(values)(new_thetas)


# ---------------------------------------------------------------------------
# ball Steklov mode bookkeeping (ordering shared by perturbations and spectra)


def ball_mode_multiplicity(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{n-1}."""
    if k == 0:
        return 1
    second = math.comb(n + k - 3, k - 2) if k >= 2 else 0
    return math.comb(n + k - 1, k) - second


def ball_mode_degrees(n: int, count: int) -> np.ndarray:
    """Angular degree k_i for basis indices i = 1..count (returned 0-based)."""
    ks = []
    k = 0
    while len(ks) < count:
        ks.extend([k] * ball_mode_multiplicity(n, k))
        k += 1
    return np.asarray(ks[:count], dtype=int)


def ball_mode_parities(n: int, count: int) -> list[str]:
    """Mode labels; cosine before sine for n=2, positional otherwise."""
    labels = []
    k = 0
    while len(labels) < count:
        if k == 0:
            labels.append("const")
        elif n == 2:
            labels.extend(["cos", "sin"])
        else:
            labels.extend([f"harm{j}" for j in range(ball_mode_multiplicity(n, k))])
        k += 1
    return labels[:count]


# ---------------------------------------------------------------------------
# perturbation fields


@dataclass(frozen=True)
class PerturbationField:
    """Normal speed of a ball perturbation: v.nu = sum_i b_i phi_i.

    `b[i-1]` multiplies the i-th ball Steklov boundary eigenfunction.
    The second-order normal speed w.nu is not stored: the second
    variation around a ball (`shape_calculus.second_variation_ball`)
    assumes the one that keeps the volume to second order, and the
    planar families (`shape_calculus.NormalSpeedFamily`) keep the area
    exactly.  On a circle of radius R the speed as a function of theta
    is `NormalSpeedFamily.from_perturbation(p, R).vdotnu`.
    """

    b: tuple[float, ...]

    @staticmethod
    def from_modes(n: int, amplitudes: dict[int, float]) -> "PerturbationField":
        """Place amplitude on the cosine mode (first slot) of each angular degree k."""
        degrees = ball_mode_degrees(n, 4 * (max(amplitudes) + n + 2))
        b = np.zeros(len(degrees))
        for k, amp in amplitudes.items():
            first = int(np.argmax(degrees == k))
            b[first] = amp
        count = int(np.max(np.nonzero(b)[0])) + 1 if np.any(b) else 1
        return PerturbationField(tuple(b[:count]))

    @property
    def b_array(self) -> np.ndarray:
        return np.asarray(self.b, dtype=float)


# ---------------------------------------------------------------------------
# canned families and random corpora


def ellipse_domain() -> Domain:
    """Area-preserving ellipse with semi-axes 1/1.1 and 1.1 as a Star2D domain.

    The polar radius of an ellipse is analytic with geometrically decaying
    Fourier coefficients, so 24 cosine modes represent it to machine
    precision.
    """
    a, b = 1.0 / 1.1, 1.1
    th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    r = a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2)
    return Domain.star2d(TrigPoly.from_samples(r, n_modes=24, tol=1e-16))


def random_star_domain(rng: np.random.Generator) -> Domain:
    """Random smooth star domain: rho = 1 plus cos/sin modes of degree k = 2..5.

    Each coefficient is uniform in [-0.1/k, 0.1/k].  A draw whose minimum
    radius is at most 0.3 is redrawn at half the amplitude, which keeps
    the polar map well conditioned.
    """
    amplitude = 0.1
    while True:
        cos = np.zeros(5)
        sin = np.zeros(5)
        for k in range(2, 6):
            cos[k - 1] = rng.uniform(-amplitude, amplitude) / k
            sin[k - 1] = rng.uniform(-amplitude, amplitude) / k
        rho = TrigPoly(1.0, tuple(cos), tuple(sin))
        if rho.min_value() > 0.3:
            return Domain.star2d(rho)
        amplitude *= 0.5


# ---------------------------------------------------------------------------
# serialization


def domain_to_dict(d: Domain) -> dict:
    out = {"kind": d.kind, "dim": d.dim, "R": d.R}
    if d.kind == "annulus":
        out["kappa"] = d.kappa
    if d.kind == "star2d":
        out["rho_coeffs"] = {"a0": d.rho.a0, "cos": list(d.rho.cos),
                             "sin": list(d.rho.sin)}
    return out


def _entry(obj: dict, key: str, convert):
    """`convert(obj[key])`; a missing key, or a value `convert` rejects, raises ValueError."""
    if key not in obj:
        raise ValueError(f"the domain has no key {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError):
        raise ValueError(f"the domain's key {key!r} holds a bad value {obj[key]!r}") from None


def _float_list(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(float(v) for v in value)


def domain_from_dict(obj: dict) -> Domain:
    """The domain a `domain_to_dict` object describes.

    A missing key, or a value of the wrong type, raises ValueError
    naming the key; so does an object that is not a dict.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a domain is a JSON object, got {type(obj).__name__}")
    kind = _entry(obj, "kind", str)
    if kind == "ball":
        return Domain.ball(_entry(obj, "dim", int), _entry(obj, "R", float))
    if kind == "annulus":
        return Domain.annulus(_entry(obj, "dim", int), _entry(obj, "R", float),
                              _entry(obj, "kappa", float))
    if kind == "star2d":
        rc = _entry(obj, "rho_coeffs", dict)
        cos, sin = (_entry(rc, k, _float_list) if k in rc else () for k in ("cos", "sin"))
        return Domain.star2d(TrigPoly(_entry(rc, "a0", float), cos, sin))
    raise ValueError(f"unknown domain kind {kind!r}")
