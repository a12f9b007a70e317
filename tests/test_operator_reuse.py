"""One layer operator per (domain, M): build counts and unchanged numbers."""

import numpy as np
import pytest

import robinlab.robin_energy as energy_module
from robinlab import (
    Domain,
    SolverError,
    StarLayerOperator,
    TrigPoly,
    energy_direct,
    energy_series,
    fem_robin_energy,
    finite_difference_check,
    first_variation_general,
    oracle,
    solve_torsion,
    spectrum_star2d,
)
from robinlab.cli import main
from robinlab.shape_calculus import NormalSpeedFamily
from robinlab.layerpot import START_NODES

M = 192
N_MODES = 24
ALPHAS = [0.2, 0.35, 0.5, 0.65, 0.8]
T_GRID = [-0.02, -0.01, 0.01, 0.02]


@pytest.fixture
def builds(monkeypatch):
    """Node counts of every StarLayerOperator built while the test runs."""
    made = []
    init = StarLayerOperator.__init__

    def counted(self, rho, M=256):
        made.append(M)
        init(self, rho, M)

    monkeypatch.setattr(StarLayerOperator, "__init__", counted)
    return made


@pytest.fixture
def solves(monkeypatch):
    """Counts of the torsion solves and flux projections the series makes."""
    seen = {"torsion": 0, "flux": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(energy_module, "solve_torsion",
                        counted("torsion", energy_module.solve_torsion))
    monkeypatch.setattr(energy_module, "flux_coefficients",
                        counted("flux", energy_module.flux_coefficients))
    return seen


@pytest.fixture
def assembles(monkeypatch):
    """Node counts of every FEM mesh assembled while the test runs."""
    made = []
    assemble = oracle._Mesh.assemble

    def counted(self):
        made.append(self.coords.shape[0])
        return assemble(self)

    monkeypatch.setattr(oracle._Mesh, "assemble", counted)
    return made


@pytest.fixture(scope="module")
def family():
    return NormalSpeedFamily(TrigPoly(0.0, (0.0, 1.0), (0.0, 0.0, -0.5)), 1.0)


class TestBuildCounts:
    def test_cold_energy_series(self, builds, three_mode):
        energy_series(three_mode, -0.5, n_modes=N_MODES, M=M)
        assert builds == [M]             # one operator for basis and torsion

    def test_corpus_one_per_domain(self, builds, capsys):
        code = main(["corpus", "--count", "3", "--seed", "5",
                     "--n-modes", str(N_MODES), "--nodes", str(M)])
        capsys.readouterr()
        assert code == 0
        assert builds == [M] * 3

    @pytest.mark.parametrize("alphas", [[], ["0.3", "0.5", "0.6"]])
    def test_corollary_check_one_per_domain(self, builds, capsys, alphas):
        code = main(["corollary-check", "--domain", "star", "--rho-cos", "0,0.1,0.05",
                     "--n-modes", str(N_MODES), "--nodes", str(M)]
                    + [f"--alpha={a}" for a in alphas])
        out = capsys.readouterr().out
        assert code == 0 and len(out.splitlines()) == 1 + max(1, len(alphas))
        assert builds == [M]

    def test_corollary_check_one_pack(self, solves, capsys):
        code = main(["corollary-check", "--domain", "star", "--rho-cos", "0,0.1,0.05",
                     "--n-modes", str(N_MODES), "--nodes", str(M),
                     "--alpha", "0.3", "--alpha", "0.5", "--alpha", "0.6"])
        out = capsys.readouterr().out
        assert code == 0 and len(out.splitlines()) == 4
        assert solves == {"torsion": 1, "flux": 1}

    def test_oracle_verify_one_per_domain(self, builds, capsys):
        code = main(["oracle-verify", "--domain", "star", "--rho-cos", "0,0.1",
                     "--alpha", "0.3", "--alpha", "-0.5", "--h-max", "0.2",
                     "--n-modes", str(N_MODES), "--nodes", str(M)])
        capsys.readouterr()
        assert code == 0
        assert builds == [M]

    @pytest.mark.parametrize("nodes, built", [([], START_NODES), (["--nodes", str(M)], M)])
    def test_first_variation_one_per_domain(self, builds, capsys, nodes, built):
        code = main(["first-variation", "--domain", "star", "--rho-cos", "0,0.05,-0.03,0.02",
                     "--rho-sin", "0,0.02,0.01", "--alpha-grid=-1:0.9:9", "--vn-const", "1"]
                    + nodes)
        out = capsys.readouterr().out
        assert code == 0 and len(out.splitlines()) == 10
        assert builds == [built]         # one operator for all nine alphas

    def test_torsion_error_builds_on_read(self, builds, three_mode):
        ts = solve_torsion(three_mode, M)
        assert builds == [M]
        assert ts.error == ts.error      # no cache: each read solves again
        assert builds == [M, M // 2, M // 2]

    def test_direct_fd_check_one_per_member(self, builds, family):
        finite_difference_check(family, ALPHAS, T_GRID, route="direct",
                                degree=3, M=M)
        assert builds == [M] * len(T_GRID)

    def test_certified_direct_fd_check_one_per_member(self, builds, family):
        # each member resolves at the first rung, so it costs one build
        finite_difference_check(family, ALPHAS, T_GRID, route="direct", degree=3)
        assert builds == [START_NODES] * len(T_GRID)

    def test_series_fd_check_one_per_member(self, builds, family):
        finite_difference_check(family, ALPHAS, T_GRID, route="series",
                                degree=3, n_modes=N_MODES, M=M)
        assert builds == [M] * len(T_GRID)


class TestFemBuildCounts:
    ORACLE_ARGV = ["oracle-verify", "--domain", "star", "--rho-cos", "0,0.1",
                   "--alpha", "0.3", "--alpha", "-0.5", "--alpha", "0.7",
                   "--h-max", "0.2", "--n-modes", str(N_MODES), "--nodes", str(M)]

    def test_oracle_verify_assembles_each_level_once(self, assembles, capsys):
        assert main(self.ORACLE_ARGV) == 0
        capsys.readouterr()
        assert len(assembles) == 3       # three levels, whatever the alphas

    def test_alpha_list_assembles_each_level_once(self, assembles, disc):
        sols = fem_robin_energy(disc, [0.5, -1.0, 1.5], h_max=0.2)
        assert len(assembles) == 3
        for a, sol in zip([0.5, -1.0, 1.5], sols):
            ref = fem_robin_energy(disc, a, h_max=0.2)
            assert sol.alpha == a and sol.levels == ref.levels
            assert sol.energy == ref.energy and sol.error == ref.error
            assert np.array_equal(sol.values, ref.values)

    def test_oracle_verify_bytes_identical_reruns(self, capsys):
        outs = []
        for _ in range(2):
            assert main(self.ORACLE_ARGV) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 4


class TestSameNumbers:
    @pytest.mark.parametrize("route", ["series", "direct"])
    def test_alpha_list_equals_scalar_calls(self, family, route):
        kw = dict(route=route, degree=3, n_modes=N_MODES, M=M)
        reports = finite_difference_check(family, ALPHAS, T_GRID, **kw)
        assert len(reports) == len(ALPHAS)
        for a, rep in zip(ALPHAS, reports):
            ref = finite_difference_check(family, a, T_GRID, **kw)
            assert np.array_equal(rep.energies, ref.energies)
            assert rep.E_ddot == ref.E_ddot
            assert rep.E_dot == ref.E_dot
            assert rep.E0 == ref.E0
            assert rep.fit_residual == ref.fit_residual

    def test_scalar_alpha_returns_one_report(self, family):
        rep = finite_difference_check(family, 0.5, T_GRID, route="direct", M=M)
        assert rep.route == "direct" and rep.energies.shape == (len(T_GRID),)

    @pytest.mark.parametrize("domain", ["three_mode", "disc"])
    def test_first_variation_list_equals_scalar_calls(self, request, domain):
        d = request.getfixturevalue(domain)
        vn = TrigPoly(0.0, (0.0, 0.3), (0.0, 0.0, -0.2))
        values = first_variation_general(d, ALPHAS, vn)
        assert values == [first_variation_general(d, a, vn) for a in ALPHAS]

    @pytest.mark.parametrize("alphas, message", [
        ([0.0, 0.5], "no Robin solution at alpha=0.0"),
        ([0.5, 0.0], "not resolved"),
    ])
    def test_first_variation_fails_at_the_first_bad_alpha(self, alphas, message):
        # an unresolved star: alpha 0 fails on its status, before any build
        d = Domain.star2d(TrigPoly(1.0, (0.0, 0.99)))
        with pytest.raises(SolverError, match=message):
            first_variation_general(d, alphas, 1.0)

    def test_torsion_on_given_operator(self, three_mode):
        op = spectrum_star2d(three_mode, n_modes=N_MODES, M=M).operator
        shared = solve_torsion(three_mode, M, operator=op)
        fresh = solve_torsion(three_mode, M)
        assert shared.operator is op
        assert shared.T == fresh.T and shared.error == fresh.error
        assert np.array_equal(shared.flux, fresh.flux)

    def test_direct_energy_on_given_operator(self, three_mode):
        op = StarLayerOperator(three_mode.rho, M)
        for a in (-0.5, 0.3):
            assert energy_direct(three_mode, a, M, operator=op) \
                == energy_direct(three_mode, a, M)

    @pytest.mark.parametrize("nodes", [M // 2, M])
    def test_mismatched_operator_rejected(self, three_mode, ellipse, nodes):
        op = StarLayerOperator(ellipse.rho if nodes == M else three_mode.rho, nodes)
        with pytest.raises(ValueError, match="operator does not match"):
            solve_torsion(three_mode, M, operator=op)
        with pytest.raises(ValueError, match="operator does not match"):
            energy_direct(three_mode, 0.3, M, operator=op)


class TestNodeCheck:
    @pytest.mark.parametrize("nodes", [0, 2, 4, 6, 7, 9, -8, 8.0])
    def test_rejected(self, three_mode, nodes):
        with pytest.raises(ValueError, match="even integer >= 8"):
            StarLayerOperator(three_mode.rho, nodes)

    def test_smallest_accepted(self, three_mode):
        assert StarLayerOperator(three_mode.rho, 8).M == 8
