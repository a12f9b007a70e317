"""Metamorphic laws that every route must obey, on random star domains.

The solution on s Omega at alpha / s is u_s(x) = s^2 u(x / s), so

    E(s Omega, alpha / s) = s^4 E(Omega, alpha),    T(s Omega) = s^4 T(Omega),
    mu_i(s Omega) = mu_i(Omega) / s,

and rotating or reflecting Omega changes none of E, T and mu.  Each law
is checked on the series and the direct route, and on the direct and
torsion solves at the certified node count, which must pick the same M
for every transformed domain (metamorphic testing: Chen et al., ACM
Comput. Surv. 51(1), 2018).  The laws hold exactly, and
the discretization of a random star is resolved far below rounding at
the default node count, so each tolerance is a fixed multiple of machine
epsilon, chosen before the first run: 2^9 eps for E and T relative to
their size, 2^10 eps for mu relative to the largest eigenvalue compared.
"""
import numpy as np
import pytest

from robinlab import (
    DEFAULT_BOUNDARY_NODES,
    Domain,
    ENERGY_COLUMNS,
    TrigPoly,
    energy_direct,
    energy_series_grid,
    random_star_domain,
    series_pack,
    solve_torsion,
    spectrum_star2d,
)

EPS = np.finfo(float).eps
TOL_E = 2 ** 9 * EPS
TOL_MU = 2 ** 10 * EPS
ALPHAS = np.array([-2.0, -0.5, 0.3, 0.7])
SCALES = (0.5, 2.0, 3.7)
PHI = 0.37
M = DEFAULT_BOUNDARY_NODES
N_MODES = 32


def transformed(rho: TrigPoly, s: float = 1.0, phi: float = 0.0,
                reflect: bool = False) -> Domain:
    """The star s * rho(theta - phi), mirrored first (theta -> -theta) if `reflect`."""
    k = np.arange(1, rho.degree + 1)
    a, b = np.zeros(k.size), np.zeros(k.size)
    a[:len(rho.cos)] = rho.cos
    b[:len(rho.sin)] = rho.sin
    if reflect:
        b = -b
    c, sn = np.cos(k * phi), np.sin(k * phi)
    a, b = a * c - b * sn, a * sn + b * c
    return Domain.star2d(TrigPoly(s * rho.a0, tuple(s * a), tuple(s * b)))


def quantities(d: Domain, alphas: np.ndarray) -> dict:
    """T, mu, and the series and direct energies at `alphas`, from one operator.

    Plus the certified node count, and T and the direct energies at it.
    """
    basis = spectrum_star2d(d, n_modes=N_MODES, M_nodes=M)
    pack = series_pack(d, M=M, basis=basis)
    col = ENERGY_COLUMNS.index("E_total")
    series = [row[col] for row in energy_series_grid(pack, alphas)]
    direct = [energy_direct(d, a, M, operator=basis.operator) for a in alphas]
    ts = solve_torsion(d)
    certified = [energy_direct(d, a, operator=ts.operator) for a in alphas]
    return {"T": pack.T, "mu": pack.mu, "series": np.array(series),
            "direct": np.array(direct), "certified_M": ts.operator.M,
            "certified_T": ts.T, "certified": np.array(certified)}


def assert_close(got, want, tol, scale=None):
    want = np.asarray(want, dtype=float)
    scale = np.abs(want) if scale is None else scale
    dev = np.abs(np.asarray(got) - want)
    assert np.all(dev <= tol * scale), float(np.max(dev / scale) / EPS)


@pytest.fixture(scope="module", params=range(4))
def star(request):
    d = random_star_domain(np.random.default_rng(request.param))
    return d, quantities(d, ALPHAS)


@pytest.mark.parametrize("s", SCALES)
def test_scale_law(star, s):
    d, base = star
    got = quantities(transformed(d.rho, s=s), ALPHAS / s)
    assert got["certified_M"] == base["certified_M"]
    for route in ("series", "direct", "certified"):
        assert_close(got[route], s ** 4 * base[route], TOL_E)
    for key in ("T", "certified_T"):
        assert_close(got[key], s ** 4 * base[key], TOL_E)
    mu = base["mu"] / s
    assert_close(got["mu"], mu, TOL_MU, scale=np.max(np.abs(mu)))


@pytest.mark.parametrize("phi, reflect", [(PHI, False), (0.0, True)],
                         ids=["rotation", "reflection"])
def test_rigid_motion_invariance(star, phi, reflect):
    d, base = star
    got = quantities(transformed(d.rho, phi=phi, reflect=reflect), ALPHAS)
    assert got["certified_M"] == base["certified_M"]
    for route in ("series", "direct", "certified"):
        assert_close(got[route], base[route], TOL_E)
    for key in ("T", "certified_T"):
        assert_close(got[key], base[key], TOL_E)
    assert_close(got["mu"], base["mu"], TOL_MU, scale=np.max(np.abs(base["mu"])))
