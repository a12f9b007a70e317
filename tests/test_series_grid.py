"""Alpha grids over one series pack: the same bits as the per-alpha loop."""

import dataclasses
import math

import numpy as np
import pytest

import robinlab.geometry as geo_module
import robinlab.robin_energy as energy_module
from robinlab import (
    Domain,
    SolverError,
    TrigPoly,
    boundary_grid,
    finite_difference_check,
    flux_coefficients,
    solve_robin,
    solve_torsion,
    spectrum_annulus,
    spectrum_ball,
    spectrum_star2d,
    volume,
)
from robinlab.shape_calculus import NormalSpeedFamily
from robinlab.cli import main
from robinlab.robin_energy import (
    ENERGY_COLUMNS,
    SERIES_CHUNK,
    energy_series_grid,
    pole_scan,
    series_pack,
    split_variational_grid,
)

from conftest import series_report

M = 192
N_MODES = 24


# -- the per-alpha arithmetic the grid replaces, kept as the reference -------

def reference_row(d, alpha, basis, ts):
    a = flux_coefficients(ts, basis)
    mu = basis.mu
    use = np.ones(basis.count, dtype=bool)
    tail_mu_next = None
    if basis.kind == "star":
        use[-1] = False
        tail_mu_next = float(mu[-1])
    nonzero = np.abs(a) > 1e-10 * max(1.0, math.sqrt(float(np.sum(a * a))))
    resonant = np.abs(mu - alpha) < 1e-9 * max(1.0, abs(alpha))
    status = "Unique"
    if np.any(resonant):
        status = "NoSolution" if np.any(resonant & nonzero) else "Family"
    if status == "NoSolution":
        return (alpha, ts.T, math.nan, math.nan, math.nan, 0.0, status)
    live = use & ~resonant & nonzero
    terms = np.zeros(basis.count)
    terms[live] = a[live] ** 2 / (alpha - mu[live])
    E_plus = float(np.sum(terms[terms > 0]))
    E_minus = float(np.sum(terms[terms < 0]))
    E_total = ts.T + E_plus + E_minus
    tail = 0.0
    if basis.kind == "star":
        norm = float(np.sum(ts.flux ** 2 * ts.operator.weights))
        missing = max(0.0, norm - float(np.sum(a[use] ** 2)))
        if tail_mu_next <= alpha:
            raise SolverError(
                f"alpha={alpha} is not below the truncation eigenvalue "
                f"{tail_mu_next}; increase n_modes")
        tail = missing / (tail_mu_next - alpha)
        if tail > 1e-6 * max(abs(E_total), 1e-300):
            raise SolverError(
                f"series tail bound {tail:.3e} exceeds 1e-06 of "
                f"|E|={abs(E_total):.3e}; increase n_modes")
    if not (E_plus >= 0.0 and E_minus <= 0.0):
        raise SolverError("sign split violated; series terms inconsistent")
    return (alpha, ts.T, E_plus, E_minus, E_total, tail, status)


def reference_split(d, alpha, basis, ts):
    a = flux_coefficients(ts, basis)
    mu = basis.mu
    unstable = mu < alpha - 1e-9 * max(1.0, abs(alpha))
    v = np.zeros_like(a)
    v[unstable] = a[unstable] / (alpha - mu[unstable])
    e_plus = float(np.sum((mu[unstable] - alpha) * v[unstable] ** 2)
                   + 2.0 * np.sum(a[unstable] * v[unstable]))
    if d.kind in ("ball", "annulus"):
        return e_plus, 0.0
    n, vol = d.dim, volume(d)
    g = boundary_grid(d, M)
    c = np.array([g.integrate(g.points[:, i]) for i in range(2)])
    c /= g.integrate(np.ones(g.points.shape[0]))
    num = 0.0
    xc = g.points - c[None, :]
    mom = np.empty(2)
    for i in range(2):
        mom[i] = g.integrate(g.points[:, i] * (g.points * g.normals).sum(axis=1)) / (n + 1.0)
        mom[i] -= c[i] * vol
        num += mom[i] ** 2
    den = n * vol - alpha * g.integrate((xc ** 2).sum(axis=1))
    return e_plus, (-num / den if den > 0 else math.nan)


def row_of(rep):
    """An EnergyReport's CSV row: its ENERGY_COLUMNS fields in order."""
    return tuple(getattr(rep, c) for c in ENERGY_COLUMNS)


def bits(values):
    """Exact float bits (NaN included) alongside the non-float entries."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in values)


# -- domains and grids --------------------------------------------------------

def _basis(d):
    if d.kind == "ball":
        return spectrum_ball(d.dim, d.R, k_max=16 if d.dim == 2 else 8)
    if d.kind == "annulus":
        return spectrum_annulus(d.dim, d.R, d.kappa, k_max=8)
    return spectrum_star2d(d, n_modes=N_MODES, M=M)


CASES = {
    # disc: the pole 0 and the flux-free Family point alpha = 1
    "disc": ("disc", np.linspace(-2.0, 3.0, 11)),
    "ball3": ("ball3", np.linspace(-4.0, 4.0, 33)),
    # shell: the grid steps exactly onto the poles 0 and 5
    "shell": ("shell", np.linspace(-3.0, 8.0, 23)),
    "ellipse": ("ellipse", np.linspace(-6.0, 1.9, 80)),
    "star": ("wobbly", np.linspace(-7.0, -0.3, 90)),
}


@pytest.fixture(scope="module")
def packs(request):
    cache = {}

    def get(name):
        if name not in cache:
            d = request.getfixturevalue(name)
            basis = _basis(d)
            ts = solve_torsion(d, M, operator=basis.operator)
            cache[name] = (d, basis, ts)
        return cache[name]
    return get


class TestSameBits:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_series_rows(self, packs, case):
        name, alphas = CASES[case]
        d, basis, ts = packs(name)
        rows = energy_series_grid(series_pack(d, M=M, basis=basis), alphas)
        ref = [reference_row(d, float(a), basis, ts) for a in alphas]
        scalar = [row_of(series_report(d, float(a), M=M, basis=basis))
                  for a in alphas]
        assert [bits(r) for r in rows] == [bits(r) for r in ref] \
            == [bits(r) for r in scalar]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_split(self, packs, case):
        name, alphas = CASES[case]
        d, basis, ts = packs(name)
        e_plus, e_minus = split_variational_grid(
            series_pack(d, M=M, basis=basis), alphas)
        got = list(zip(e_plus.tolist(), e_minus.tolist()))
        ref = [reference_split(d, float(a), basis, ts) for a in alphas]
        pack = series_pack(d, M=M, basis=basis)
        scalar = [tuple(float(v[0]) for v in split_variational_grid(pack, [float(a)]))
                  for a in alphas]
        assert [bits(r) for r in got] == [bits(r) for r in ref] \
            == [bits(r) for r in scalar]

    def test_statuses_covered(self, packs):
        d, basis, ts = packs("disc")
        rows = energy_series_grid(series_pack(d, M=M, basis=basis),
                                  CASES["disc"][1])
        assert {r[-1] for r in rows} == {"Unique", "Family", "NoSolution"}

    def test_underflowing_terms(self):
        # near-circle modes carry tiny flux; at |alpha| ~ 1e308 their terms
        # underflow to zero and drop out of both signed parts.  On this
        # small three-fold star the degree-9 mode carries a^2 ~ 7e-18, a
        # genuine mode well below the 4.4e-16 that underflows at -1.79e308
        d = Domain.star2d(geo_module.TrigPoly(0.005, (0.0, 0.0, 5e-5)))
        basis = spectrum_star2d(d, n_modes=N_MODES, M=M)
        ts = solve_torsion(d, M, operator=basis.operator)
        alphas = np.array([-1.79e308, -0.5, -1e308, -3.0])
        pack = series_pack(d, M=M, basis=basis)
        assert np.any(pack.live_a2 / (alphas[0] - pack.live_mu) == 0.0)
        rows = energy_series_grid(pack, alphas)
        ref = [reference_row(d, float(a), basis, ts) for a in alphas]
        assert [bits(r) for r in rows] == [bits(r) for r in ref]

    def test_underflowed_term_leaves_the_sum(self):
        # numpy sums eight terms pairwise and seven in sequence; with these
        # eight live terms, one underflowing, the two orders round apart, so
        # E_minus must be the sum without the zero, as the reference takes it
        d = Domain.star2d(geo_module.TrigPoly(0.005, (0.0, 0.0, 5e-5)))
        pack = dataclasses.replace(
            series_pack(d, M=M, n_modes=N_MODES),
            live_a2=np.array([0.003, 95.379, 0.821, 8.661, 92.743, 9.739, 0.001, 1e-17]),
            live_mu=0.5 * np.arange(8.0))
        alpha = -1.79e308
        terms = pack.live_a2 / (alpha - pack.live_mu)
        assert np.count_nonzero(terms == 0.0) == 1
        assert np.sum(terms) != np.sum(terms[terms < 0])
        (row,) = energy_series_grid(pack, [alpha])
        assert bits(row[2:4]) == bits((0.0, float(np.sum(terms[terms < 0]))))

    @pytest.mark.parametrize("count", [1, SERIES_CHUNK - 1, SERIES_CHUNK,
                                       SERIES_CHUNK + 1, 3500])
    @pytest.mark.parametrize("name", ["shell", "wobbly"])
    def test_grid_lengths(self, packs, name, count):
        d, basis, ts = packs(name)
        hi = 8.0 if name == "shell" else -0.3
        alphas = np.linspace(-3.0, hi, count)
        pack = series_pack(d, M=M, basis=basis)
        rows = energy_series_grid(pack, alphas)
        ref = [reference_row(d, float(a), basis, ts) for a in alphas]
        assert [bits(r) for r in rows] == [bits(r) for r in ref]
        e_plus, e_minus = split_variational_grid(pack, alphas)
        ref = [reference_split(d, float(a), basis, ts) for a in alphas]
        assert [bits(r) for r in zip(e_plus.tolist(), e_minus.tolist())] \
            == [bits(r) for r in ref]


class TestStatusPastTheBasis:
    @pytest.mark.parametrize("name", ["disc", "ball3", "shell"])
    def test_matches_the_direct_status(self, packs, name):
        # the bases stop at a degree (16 on the disc, 8 otherwise); an alpha
        # at an eigenvalue of a degree past it is Family, as solve_robin says
        d, basis, _ = packs(name)
        cut = basis.next_degree_mu
        wide = spectrum_ball(d.dim, d.R, k_max=25) if d.kind == "ball" \
            else spectrum_annulus(d.dim, d.R, d.kappa, k_max=14)
        mus = np.unique(wide.mu[(wide.mu > cut - 3.0) & (wide.mu < cut + 4.0)])
        alphas = np.sort(np.concatenate([
            mus, (mus[1:] + mus[:-1]) / 2.0,
            cut * np.array([1.0 - 2e-9, 1.0 - 5e-10, 1.0 + 5e-10])]))
        rows = energy_series_grid(series_pack(d, M=M, basis=basis), alphas)
        direct = [solve_robin(d, float(a)).status for a in alphas]
        assert [r[6] for r in rows] == direct
        assert [series_report(d, float(a), M=M, basis=basis).status
                for a in alphas] == direct
        past = alphas > cut * (1.0 - 1e-9)
        assert {direct[i] for i in np.flatnonzero(past)} == {"Family", "Unique"}
        assert "Family" in [direct[i] for i in np.flatnonzero(~past)]


class TestFailures:
    def test_first_failing_alpha_raises(self):
        # for alpha > 0 the energy crosses zero between poles, and the
        # relative tail gate fails near each crossing
        d = Domain.star2d(geo_module.TrigPoly(1.0, (0.0, 0.05, -0.04, 0.03),
                                              (0.0, 0.02, 0.01)))
        basis = spectrum_star2d(d)
        ts = solve_torsion(d, operator=basis.operator)
        alphas = np.linspace(-1.3, 7.7, 2000)
        expected = None
        for a in alphas:
            try:
                reference_row(d, float(a), basis, ts)
            except SolverError as exc:
                expected = str(exc)
                break
        assert expected is not None
        with pytest.raises(SolverError) as exc:
            energy_series_grid(series_pack(d, basis=basis), alphas)
        assert str(exc.value) == expected

    def test_truncation_message(self, packs):
        d, basis, ts = packs("wobbly")
        alphas = [0.5, float(basis.mu[-1]) + 1.0, 1e9]
        with pytest.raises(SolverError) as exc:
            energy_series_grid(series_pack(d, M=M, basis=basis), alphas)
        assert str(exc.value) == \
            f"alpha={alphas[1]} is not below the truncation eigenvalue " \
            f"{float(basis.mu[-1])}; increase n_modes"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_alpha(self, packs, bad):
        d, basis, ts = packs("shell")
        pack = series_pack(d, basis=basis)
        with pytest.raises(ValueError, match="alpha must be finite"):
            energy_series_grid(pack, [1.0, bad])
        with pytest.raises(ValueError, match="alpha must be finite"):
            split_variational_grid(pack, [bad])

    def test_star_series_needs_two_modes(self, three_mode):
        with pytest.raises(ValueError, match="at least 2 star modes"):
            series_report(three_mode, 0.5, n_modes=1, M=M)
        with pytest.raises(ValueError, match="n_modes must be at least 1"):
            series_report(three_mode, 0.5, n_modes=0, M=M)

    def test_pole_scan_reads_pack(self, packs):
        d, basis, ts = packs("shell")
        pack = series_pack(d, basis=basis)
        assert pack.poles == pole_scan(d) == (0.0, 5.0)


@pytest.fixture
def calls(monkeypatch):
    """Counts of flux_coefficients and boundary_grid calls while a test runs."""
    seen = {"flux": 0, "grid": 0}
    flux, grid = energy_module.flux_coefficients, geo_module.boundary_grid

    def counted_flux(*args, **kwargs):
        seen["flux"] += 1
        return flux(*args, **kwargs)

    def counted_grid(*args, **kwargs):
        seen["grid"] += 1
        return grid(*args, **kwargs)

    monkeypatch.setattr(energy_module, "flux_coefficients", counted_flux)
    monkeypatch.setattr(geo_module, "boundary_grid", counted_grid)
    return seen


class TestCallCounts:
    STAR = ["--domain", "star", "--rho-cos", "0,0.06,0.04", "--n-modes", "16",
            "--nodes", "128"]

    @pytest.mark.parametrize("command", ["energy", "split"])
    @pytest.mark.parametrize("count", [1, 700])
    def test_one_flux_call_per_invocation(self, calls, capsys, command, count):
        code = main([command, f"--alpha-grid=-3:-0.5:{count}"] + self.STAR)
        out = capsys.readouterr().out
        assert code == 0 and len(out.strip().split("\n")) == count + 1
        assert calls["flux"] == 1
        assert calls["grid"] == (1 if command == "split" else 0)

    @pytest.mark.parametrize("alphas", [[0.4], [0.2, 0.4, 0.6]])
    def test_series_fd_check_one_flux_call_per_member(self, calls, alphas):
        family = NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0), (0.0, 0.0, -0.5)), 1.0)
        t_grid = [-0.02, -0.01, 0.01, 0.02]
        finite_difference_check(family, alphas, t_grid, route="series",
                                n_modes=16, M=128)
        assert calls["flux"] == len(t_grid)

    @pytest.mark.parametrize("command", ["energy", "split"])
    def test_shell_grid(self, calls, capsys, command):
        code = main([command, "--alpha-grid=-3:8:500", "--domain", "annulus",
                     "--dim", "3", "--kappa", "0.5"])
        capsys.readouterr()
        assert code == 0
        assert calls == {"flux": 1, "grid": 0}
