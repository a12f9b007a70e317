"""The Robin torsion problem Delta u + 1 = 0, d_nu u = alpha u, and its energy.

For alpha > 0 the boundary condition is a saddle: the energy
E(V) = int |grad V|^2 - alpha oint V^2 - 2 int V has critical value

    E = T(Omega) + sum_i a_i^2 / (alpha - mu_i),

with mu_i the Steklov spectrum and a_i the boundary components of the
torsion flux.  The series splits into a nonnegative part from modes
below alpha and a nonpositive part from modes above; both routes here
(series and direct solve) are kept independent so each can audit the
other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import SolverError
from .geometry import Domain
from .layerpot import StarLayerOperator, operator_for
from . import steklov as sk
from .steklov import SteklovBasis, _radial_g, _radial_g_prime, _shell_energy, tol_res
from .torsion import solve_torsion, flux_coefficients

__all__ = [
    "RobinSolution",
    "EnergyReport",
    "Alpha0Report",
    "ENERGY_COLUMNS",
    "solve_robin",
    "energy_series",
    "energy_series_grid",
    "series_pack",
    "split_variational_grid",
    "energy_direct",
    "energy_split_variational",
    "j_functional",
    "alpha0",
    "ball_energy",
    "pole_scan",
]

ENERGY_COLUMNS = ("alpha", "T", "E_plus", "E_minus", "E_total", "tail_bound", "status")

TAIL_FRACTION = 1e-6    # tail bound above this fraction of |E| is a hard error


@dataclass(frozen=True)
class RobinSolution:
    """One Robin solve: status and energy, with a star's boundary values.

    On star domains `boundary_values` holds u at the nodes of
    `operator`; balls and shells keep only the closed-form energy.  For
    `Family` statuses every member shares the same energy because the
    resonant eigenfunctions have zero mean.
    """

    domain: Domain
    alpha: float
    status: str
    energy: float
    operator: object | None = None
    boundary_values: np.ndarray | None = None


@dataclass(frozen=True)
class EnergyReport:
    """Series energy at one alpha, split by sign: one ENERGY_COLUMNS row.

    `tail_bound` majorizes the truncated part of the series; the poles
    are `pole_scan`'s.
    """

    alpha: float
    T: float
    E_plus: float
    E_minus: float
    E_total: float
    tail_bound: float
    status: str


def _default_basis(d: Domain, n_modes: int, M: int | None) -> SteklovBasis:
    if d.kind == "ball":
        if d.dim == 2:
            return sk.spectrum_ball(2, d.R, k_max=max(4, n_modes // 2))
        return sk.spectrum_ball(d.dim, d.R, k_max=8)
    if d.kind == "annulus":
        return sk.spectrum_annulus(d.dim, d.R, d.kappa, k_max=8)
    return sk.spectrum_star2d(d, n_modes=n_modes, M=M)


def _check_alpha(alpha: float) -> None:
    """NaN or infinite alpha has no energy to report."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


# Alpha rows per broadcast block.  Grid evaluation holds a few (rows, modes)
# float arrays at a time, so memory stays flat however long the grid is.
SERIES_CHUNK = 256


@dataclass(frozen=True)
class _SeriesPack:
    """The alpha-independent data of E(alpha) = T + sum a_i^2 / (alpha - mu_i).

    Built once per domain; every alpha of a grid reads it.  `nonzero`
    marks the modes carrying torsion flux (`steklov._carrying`), and
    `poles` their distinct eigenvalues, rounded to 12 decimals.  `next_degree_mu` is the basis's
    (`SteklovBasis.next_degree_mu`): a row that reaches it takes its
    status from `steklov._direct_status`, since a mode the basis omits
    may resonate there.  `live_a2` and `live_mu` are a_i^2 and mu_i
    over the summed modes that carry flux, in eigenvalue order (a star
    basis keeps its last mode for the tail bound only).
    """

    domain: Domain
    M: int | None                   # a star's node count: the split's trial grid
    a: np.ndarray
    mu: np.ndarray
    nonzero: np.ndarray
    poles: tuple[float, ...]
    tail_mu_next: float | None      # star bases only
    next_degree_mu: float
    missing: float                  # flux norm^2 outside the summed modes
    T: float
    live_a2: np.ndarray
    live_mu: np.ndarray


def series_pack(d: Domain, *, n_modes: int = 32, M: int | None = None,
                basis: SteklovBasis | None = None) -> _SeriesPack:
    """Everything the series needs that does not depend on alpha.

    Builds the default basis of d (n_modes, M) unless given, and solves
    the torsion of d on the basis's operator.  A star's node count is
    the basis's, and `layerpot.operator_for` picks it without M and
    checks an explicit M.  An unresolved boundary raises SolverError.
    `flux_coefficients` runs here, once.  Pass the result to
    `energy_series_grid` or `split_variational_grid`; its `poles` are
    the energy poles.

    Raises
    ------
    ValueError
        If a star basis has fewer than 2 modes (the last one only bounds
        the series tail), or a given basis's operator is not d's at M
        nodes.
    """
    if basis is None:
        basis = _default_basis(d, n_modes, M)
    if basis.kind == "star" and basis.count < 2:
        raise ValueError(f"the series needs at least 2 star modes, got {basis.count}")
    ts = solve_torsion(d, M, operator=basis.operator)
    a = flux_coefficients(ts, basis)
    mu = basis.mu
    use = np.ones(basis.count, dtype=bool)
    tail_mu_next, missing = None, 0.0
    if basis.kind == "star":
        use[-1] = False                      # last pair audits the tail only
        tail_mu_next = float(mu[-1])
        missing = max(0.0, ts.boundary_integral(lambda v: v ** 2)
                      - float(np.sum(a[use] ** 2)))
    nonzero = sk._carrying(a)
    poles = tuple(sorted(set(round(float(m), 12) for m in mu[nonzero])))
    live = use & nonzero
    M = ts.operator.M if ts.operator is not None else None
    return _SeriesPack(d, M, a, mu, nonzero, poles, tail_mu_next,
                       basis.next_degree_mu, missing, ts.T, a[live] ** 2, mu[live])


def _prefix_sums(block: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row i, the sums of block[i, :k[i]] and block[i, k[i]:].

    Rows are grouped by k and each part is summed as a C-contiguous
    block, whose row sums equal `np.sum` of the same 1-D slice bit for
    bit (a column-masked block is F-ordered and does not).
    """
    head = np.empty(block.shape[0])
    rest = np.empty(block.shape[0])
    for kk in np.unique(k):
        rows = np.flatnonzero(k == kk)
        part = block[rows]
        head[rows] = np.ascontiguousarray(part[:, :kk]).sum(axis=1)
        rest[rows] = np.ascontiguousarray(part[:, kk:]).sum(axis=1)
    return head, rest


def _finite_alphas(alphas) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    bad = ~np.isfinite(alphas)
    if bad.any():
        _check_alpha(float(alphas[bad][0]))
    return alphas


def _series_rows(pack: _SeriesPack, alphas: np.ndarray):
    """Series energies of one block of alphas, as energy_series computes them.

    Returns (E_plus, E_minus, E_total, tail, status) with one entry per
    alpha.  A resonant alpha is Family when every resonant mode carries
    no flux, and then sums the same modes as an alpha off the spectrum;
    otherwise it is NoSolution with NaN energies and no checks.  E_plus sums the positive terms, which
    are the live modes below alpha: a prefix, since mu is sorted.  The
    first alpha in grid order that fails a check raises; per alpha the
    checks run truncation, then tail, then sign.
    """
    _, blocked, status = sk._resonance(pack.mu, alphas, pack.nonzero)
    for i in np.flatnonzero(pack.next_degree_mu - alphas < sk.tol_res(alphas)):
        status[i] = sk._direct_status(pack.domain, float(alphas[i]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = pack.live_a2 / (alphas[:, None] - pack.live_mu)
        n_pos = np.count_nonzero(terms > 0, axis=1)
        E_plus, E_minus = _prefix_sums(terms, n_pos)
        # a term that underflows to zero is in neither part
        for i in np.flatnonzero(n_pos + np.count_nonzero(terms < 0, axis=1)
                                < terms.shape[1]):
            E_plus[i] = np.sum(terms[i][terms[i] > 0])
            E_minus[i] = np.sum(terms[i][terms[i] < 0])
        E_plus[blocked] = E_minus[blocked] = math.nan
        E_total = pack.T + E_plus + E_minus
        tail = np.zeros(alphas.size)
        truncated = np.zeros(alphas.size, dtype=bool)
        if pack.tail_mu_next is not None:
            truncated = pack.tail_mu_next <= alphas
            tail = np.where(blocked, 0.0, pack.missing / (pack.tail_mu_next - alphas))
        tail_bad = tail > TAIL_FRACTION * np.maximum(np.abs(E_total), 1e-300)
        sign_bad = ~((E_plus >= 0.0) & (E_minus <= 0.0))
    failed = np.flatnonzero(~blocked & (truncated | tail_bad | sign_bad))
    if failed.size:
        i = failed[0]
        if truncated[i]:
            raise SolverError(
                f"alpha={float(alphas[i])} is not below the truncation eigenvalue "
                f"{pack.tail_mu_next}; increase n_modes")
        if tail_bad[i]:
            raise SolverError(
                f"series tail bound {tail[i]:.3e} exceeds {TAIL_FRACTION:.0e} of "
                f"|E|={abs(E_total[i]):.3e}; increase n_modes")
        raise SolverError("sign split violated; series terms inconsistent")
    return E_plus, E_minus, E_total, tail, status


def energy_series_grid(pack: _SeriesPack, alphas) -> list[tuple]:
    """Series rows (ENERGY_COLUMNS order) over an alpha grid, in grid order.

    Each row equals the row of its alpha's one-alpha grid bit for bit.
    The grid is evaluated as numpy broadcasts over blocks of SERIES_CHUNK
    alphas, so `flux_coefficients` and the pole set are computed once (in
    `pack`) for the whole grid.  A row's `status` is Unique away from the
    spectrum; at a resonant eigenvalue it is Family when every resonant
    flux component vanishes (the term is dropped; all family members
    share one energy) and NoSolution otherwise (energies become NaN).

    Raises
    ------
    SolverError
        At the first failing alpha: its truncation tail bound exceeds
        1e-6 of |E|, or it is not below the truncation eigenvalue.
    ValueError
        If an alpha is NaN or infinite.
    """
    alphas = _finite_alphas(alphas)
    rows = []
    for lo in range(0, alphas.size, SERIES_CHUNK):
        chunk = alphas[lo:lo + SERIES_CHUNK]
        E_plus, E_minus, E_total, tail, status = _series_rows(pack, chunk)
        rows += zip(chunk.tolist(), [pack.T] * chunk.size, E_plus.tolist(),
                    E_minus.tolist(), E_total.tolist(), tail.tolist(),
                    status.tolist())
    return rows


def energy_series(d: Domain, alpha: float) -> EnergyReport:
    """Spectral-series energy with sign split and truncation audit.

    The row of the one-alpha `energy_series_grid` on d's default
    `series_pack` (32 modes, node count picked by `layerpot.operator_for`);
    it raises what the pack and the grid raise.  For many alphas, or
    another basis or node count, build the pack once and evaluate the
    grid.  A NaN or infinite alpha raises ValueError before the pack is
    built.
    """
    _check_alpha(alpha)
    return EnergyReport(*energy_series_grid(series_pack(d), [alpha])[0])


def _series_energy(pack: _SeriesPack, alpha: float) -> float:
    """E_total of the one-alpha grid at alpha; a NoSolution alpha raises SolverError.

    One-row grids keep the per-alpha error order of `energy_series`.
    """
    *_, E_total, _, status = energy_series_grid(pack, [alpha])[0]
    if status == sk.STATUS_NO_SOLUTION:
        raise SolverError(f"no Robin solution at alpha={alpha}")
    return E_total


# ---------------------------------------------------------------------------
# direct solves


def _radial_robin_coefficients(d: Domain, alpha: float) -> tuple[float, float]:
    """(c1, c2) of the radial Robin solution on a shell; singular at {0, mu_r}."""
    n, R = d.dim, d.R
    a = d.kappa * R
    g, gp = _radial_g, _radial_g_prime
    A = np.array([[-alpha, gp(n, R) - alpha * g(n, R)],
                  [-alpha, -gp(n, a) - alpha * g(n, a)]])
    rhs = np.array([R / n - alpha * R ** 2 / (2 * n),
                    -a / n - alpha * a ** 2 / (2 * n)])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    scale = max(abs(A).max(), 1.0)
    if abs(det) < 1e-12 * scale * scale:
        raise SolverError(f"radial Robin system singular at alpha={alpha}")
    c = np.linalg.solve(A, rhs)
    return float(c[0]), float(c[1])


def ball_energy(n: int, R: float, alpha: float) -> float:
    """Robin energy of the n-ball of radius R in closed form.

    E = omega_n R^n (-R^2/(n(n+2)) + R/(alpha n)), with omega_n the volume
    of the unit ball; at n = 2 this is pi R^2 (-R^2/8 + R/(2 alpha)).
    """
    return geo.unit_ball_volume(n) * R ** n * (-R ** 2 / (n * (n + 2)) + R / (alpha * n))


def solve_robin(d: Domain, alpha: float, M: int | None = None, *,
                operator: StarLayerOperator | None = None) -> RobinSolution:
    """Solve the Robin problem directly; the energy is -int u dx.

    The status comes from the steklov rule (`steklov._direct_status`).
    Balls and shells use the energies of their radial closed forms,
    which stay single-valued at nonradial (Family) resonances.
    Star domains solve a single-layer boundary system at M nodes, or at
    the certified count when M is None (`layerpot.operator_for`, which
    raises SolverError when the boundary is not resolved); near a
    Steklov resonance that system degenerates and a SolverError is
    raised.  `operator`, the layer operator of d's boundary (at M nodes
    when M is given), is used for that system instead of building a new
    one, so several alphas on one domain share it.  A NaN or infinite
    alpha raises ValueError.
    """
    _check_alpha(alpha)
    status = sk._direct_status(d, alpha)
    if status == sk.STATUS_NO_SOLUTION:
        return RobinSolution(d, alpha, status, math.nan)
    n, R = d.dim, d.R
    if d.kind == "ball":
        return RobinSolution(d, alpha, status, ball_energy(n, R, alpha))
    if d.kind == "annulus":
        c1, c2 = _radial_robin_coefficients(d, alpha)
        return RobinSolution(d, alpha, status, _shell_energy(n, R, d.kappa * R, c1, c2))
    return _solve_robin_star(d, alpha, operator_for(d.rho, M, operator))


def _solve_robin_star(d: Domain, alpha: float, op: StarLayerOperator) -> RobinSolution:
    rr = op.radius_sq
    xdotnu = (op.points * op.normals).sum(axis=1)
    rhs = 0.5 * xdotnu - 0.25 * alpha * rr
    try:
        sigma = op.robin_density(alpha, rhs)
    except ArithmeticError as exc:
        raise SolverError(
            f"Robin boundary system degenerate near alpha={alpha}: {exc}") from exc
    u_b = -0.25 * rr + op.trace(sigma)
    # int u dx = oint u [ (x.nu)/2 - alpha |x|^2/4 ] dS - int |x|^2/4 dx
    int_u = float(np.sum(u_b * rhs * op.weights)) - op.quarter_r2_integral()
    return RobinSolution(d, alpha, sk.STATUS_UNIQUE, -int_u,
                         operator=op, boundary_values=u_b)


def _solve_or_raise(d: Domain, alpha: float, M: int | None,
                    operator: StarLayerOperator | None) -> RobinSolution:
    """`solve_robin`, raising SolverError where its status is NoSolution.

    Every consumer of a direct solve reads it through here.
    """
    sol = solve_robin(d, alpha, M, operator=operator)
    if sol.status == sk.STATUS_NO_SOLUTION:
        raise SolverError(f"no Robin solution at alpha={alpha}")
    return sol


def energy_direct(d: Domain, alpha: float, M: int | None = None, *,
                  operator: StarLayerOperator | None = None) -> float:
    """E by direct solve, independent of the spectral series.

    M and `operator` are passed on to `solve_robin`; a NoSolution alpha
    raises SolverError.
    """
    return _solve_or_raise(d, alpha, M, operator).energy


# ---------------------------------------------------------------------------
# variational split


def _trial_data(d: Domain, M: int) -> tuple[float, float, float] | None:
    """(num, n |Omega|, int |x - c|^2 dS) of the harmonic trial v = x - c.

    c is the boundary barycenter; the E_minus bound at alpha is
    -num / (n |Omega| - alpha int |x - c|^2 dS).  None for balls and
    shells, where the coordinate moments vanish by symmetry.
    """
    if d.kind in ("ball", "annulus"):
        return None
    n = d.dim
    vol = geo.volume(d)
    g = geo.boundary_grid(d, M)
    c = np.array([g.integrate(g.points[:, i]) for i in range(2)])
    c /= g.integrate(np.ones(g.points.shape[0]))
    num = 0.0
    xc = g.points - c[None, :]
    # int_Omega x_i dx = (1/(n+1)) oint x_i (x . nu) dS
    mom = np.empty(2)
    for i in range(2):
        mom[i] = g.integrate(g.points[:, i] * (g.points * g.normals).sum(axis=1)) / (n + 1.0)
        mom[i] -= c[i] * vol
        num += mom[i] ** 2
    return num, n * vol, g.integrate((xc ** 2).sum(axis=1))


def split_variational_grid(pack: _SeriesPack, alphas) -> tuple[np.ndarray, np.ndarray]:
    """(E_plus via its maximizer, E_minus trial bound) over an alpha grid.

    Each entry equals `energy_split_variational` at that alpha bit for
    bit.  The trial data (boundary grid, barycenter, moments) is built
    once; the unstable modes mu_i < alpha - tol_res(alpha) are a prefix
    of the sorted spectrum, summed per block of SERIES_CHUNK alphas.
    A NaN or infinite alpha raises ValueError.
    """
    alphas = _finite_alphas(alphas)
    trial = _trial_data(pack.domain, pack.M)
    e_plus = np.empty(alphas.size)
    e_minus_bound = np.zeros(alphas.size)
    a, mu = pack.a, pack.mu
    for lo in range(0, alphas.size, SERIES_CHUNK):
        chunk = alphas[lo:lo + SERIES_CHUNK]
        k = np.searchsorted(mu, chunk - tol_res(chunk))
        top = int(k.max())
        # entries past a row's own k are never summed
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = a[:top] / (chunk[:, None] - mu[:top])
            quad, _ = _prefix_sums((mu[:top] - chunk[:, None]) * v ** 2, k)
            lin, _ = _prefix_sums(a[:top] * v, k)
        e_plus[lo:lo + chunk.size] = quad + 2.0 * lin
    if trial is not None:
        num, n_vol, spread = trial
        den = n_vol - alphas * spread
        with np.errstate(divide="ignore", invalid="ignore"):
            e_minus_bound = np.where(den > 0, -num / den, math.nan)
    return e_plus, e_minus_bound


def energy_split_variational(d: Domain, alpha: float) -> tuple[float, float]:
    """(E_plus via its maximizer, trial upper bound for E_minus).

    E_plus is re-derived by evaluating the saddle quadratic
    Q(v) = sum (mu_i - alpha) v_i^2 + 2 sum a_i v_i at the explicit
    maximizer on the unstable subspace, rather than summing the series.
    The E_minus bound evaluates Q at the optimally-scaled harmonic trial
    v(x) = x - c with c the boundary barycenter (valid below mu_2; NaN
    when the trial's quadratic form loses positivity).  This is the
    one-alpha `split_variational_grid` on d's default `series_pack`.
    """
    _check_alpha(alpha)
    e_plus, e_minus_bound = split_variational_grid(series_pack(d), [alpha])
    return float(e_plus[0]), float(e_minus_bound[0])


# ---------------------------------------------------------------------------
# the J functional and the crossover threshold


def j_functional(d: Domain, alpha: float, T_omega: float) -> float:
    """J = T + |Omega|^2 / (alpha |dOmega|), the two-term energy surrogate, at T = T_omega."""
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    return T_omega + geo.volume(d) ** 2 / (alpha * geo.surface_area(d))


@dataclass(frozen=True)
class Alpha0Report:
    alpha0: float
    epsilon0: float
    R: float
    T_omega: float
    T_ball: float
    area_ratio_gap: float    # 1/|dB| - 1/|dOmega|


def alpha0(d: Domain, *, T_omega: float | None = None,
           M: int | None = None) -> Alpha0Report:
    """Crossover threshold where J(Omega) overtakes J of the equal-volume ball.

    alpha0 = |B|^2 (1/|dB| - 1/|dOmega|) / epsilon0 with
    epsilon0 = T(Omega) - T(B) >= 0 the torsion deficit.  Below alpha0
    the domain beats the ball on J; above, the ball wins.  Degenerate
    (ball) input returns alpha0 = inf.  T(Omega) is `T_omega` when
    given, else `solve_torsion(d, M)`.
    """
    n = d.dim
    vol = geo.volume(d)
    R = (vol / geo.unit_ball_volume(n)) ** (1.0 / n)
    ball = Domain.ball(n, R)
    T_ball = solve_torsion(ball).T
    if T_omega is None:
        T_omega = solve_torsion(d, M).T
    eps0 = T_omega - T_ball
    gap = 1.0 / geo.surface_area(ball) - 1.0 / geo.surface_area(d)
    if eps0 <= 1e-14 * abs(T_ball):
        return Alpha0Report(math.inf, max(eps0, 0.0), R, T_omega, T_ball, gap)
    return Alpha0Report(vol ** 2 * gap / eps0, eps0, R, T_omega, T_ball, gap)


def pole_scan(d: Domain) -> tuple[float, ...]:
    """Eigenvalues that are true energy poles (nonzero flux component).

    The poles of d's default `series_pack`, rounded to 12 decimals; a
    pack built once for other reads holds the same tuple as `poles`.
    """
    return series_pack(d).poles
