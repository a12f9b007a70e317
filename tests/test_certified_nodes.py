"""The certified node count of every star solve (`layerpot.operator_for`).

Without M, a star's operator starts at START_NODES (a Steklov basis of
n modes: at the first rung of at least max(BASIS_NODES, NODES_PER_MODE n),
128 up to 32 modes) and doubles until the torsion density's resolution
indicator is at most RESOLVED_TOL and, for a basis, every eigen-residual
has ||r_i||^2 <= RESIDUAL_TOL max(1, mu_i).  An explicit M is one rung
under the same checks: when it resolves the boundary it is the fixed
solve bit for bit, and when it does not the solve raises SolverError.
Tolerances were fixed before the first run: certified answers agree with
1024 nodes within 2^9 eps relative, the bound the metamorphic laws use,
and certified 32-mode spectra within MU_TOL relative (max(1, mu)) of a
1024-node basis, the worst case of the M/8 block at 256 nodes (9.1e-10
over `random_star_domain` seeds 0-99) rounded up.  Each eigenvalue's
error against that basis is also at most MU_RESIDUAL_C ||r_i||^2 +
2^9 eps max(1, mu_i), with the basis's own residuals r_i: Ritz values of
a symmetric form err by O(||r||^2) (Kato-Temple), and the form here is
only symmetrized, so the constant 1 is a measured one (about 0.25 on
23 stars), not a theorem.
"""
import numpy as np
import pytest

import robinlab.layerpot as lp
from robinlab import (
    Domain,
    StarLayerOperator,
    TrigPoly,
    alpha0,
    ellipse_domain,
    energy_direct,
    first_variation_general,
    random_star_domain,
    series_pack,
    solve_torsion,
    spectrum_star2d,
)
from robinlab.errors import SolverError
from robinlab.cli import main

EPS = np.finfo(float).eps
TOL = 2 ** 9 * EPS
REF_NODES = 1024
MU_TOL = 1e-9
MU_RESIDUAL_C = 1.0
ALPHAS = (-0.5, 0.7)
VN = TrigPoly(0.0, (0.0, 0.3), (0.0, 0.0, -0.2))


def stars():
    return {
        "three_mode": Domain.star2d(TrigPoly(1.0, (0.0, 0.12, 0.08), (0.0, 0.0, 0.05))),
        "ellipse": ellipse_domain(),
        "wobbly": random_star_domain(np.random.default_rng(7)),
    }


class TestLadder:
    @pytest.mark.parametrize("seed", range(4))
    def test_first_resolved_rung(self, seed):
        rho = random_star_domain(np.random.default_rng(seed)).rho
        op = lp.operator_for(rho)
        assert op.M >= lp.START_NODES and op.resolution <= lp.RESOLVED_TOL
        if op.M > lp.START_NODES:
            assert StarLayerOperator(rho, op.M // 2).resolution > lp.RESOLVED_TOL

    def test_disc_resolves_at_the_start(self):
        op = lp.operator_for(TrigPoly(1.0, (), ()))
        assert op.M == lp.START_NODES and op.resolution < 1e-14

    def test_indicator_falls_with_the_node_count(self, ellipse):
        ind = [StarLayerOperator(ellipse.rho, M).resolution for M in (32, 64, 128)]
        assert ind[0] > ind[1] > ind[2]

    def test_torsion_reads_the_certified_operator(self, wobbly):
        op = lp.operator_for(wobbly.rho)
        ts = solve_torsion(wobbly)
        assert ts.operator.M == op.M
        assert ts.T == solve_torsion(wobbly, op.M).T

    def test_given_operator_without_M(self, wobbly):
        op = StarLayerOperator(wobbly.rho, 96)
        assert solve_torsion(wobbly, operator=op).operator is op
        assert energy_direct(wobbly, 0.3, operator=op) == energy_direct(wobbly, 0.3, 96)


@pytest.mark.parametrize("seed", range(20))
def test_agrees_with_1024_nodes(seed):
    d = random_star_domain(np.random.default_rng(seed))
    ref = StarLayerOperator(d.rho, REF_NODES)
    T, T_ref = solve_torsion(d).T, solve_torsion(d, operator=ref).T
    assert abs(T - T_ref) <= TOL * abs(T_ref)
    for a in ALPHAS:
        E, E_ref = energy_direct(d, a), energy_direct(d, a, operator=ref)
        assert abs(E - E_ref) <= TOL * abs(E_ref), (a, abs(E - E_ref) / abs(E_ref) / EPS)


@pytest.fixture
def builds(monkeypatch):
    """Node counts of every StarLayerOperator built while the test runs."""
    made, init = [], StarLayerOperator.__init__

    def counted(self, rho, M=256):
        made.append(M)
        init(self, rho, M)

    monkeypatch.setattr(StarLayerOperator, "__init__", counted)
    return made


@pytest.mark.parametrize("name", ["three_mode", "ellipse", "wobbly"])
def test_explicit_256_is_the_fixed_solve(name, builds):
    """An explicit M builds only at M: the numbers of an operator built there by hand."""
    d = stars()[name]
    op = StarLayerOperator(d.rho, 256)
    assert solve_torsion(d, 256).T == solve_torsion(d, operator=op).T
    for a in ALPHAS:
        assert energy_direct(d, a, 256) == energy_direct(d, a, operator=op)
    first_variation_general(d, [0.5], VN, 256)
    alpha0(d, M=256)
    assert set(builds) == {256} and len(builds) > 1


def test_cli_unresolved_star_exits_3(capsys):
    code = main(["first-variation", "--domain", "star", "--rho-cos", "0,0.99",
                 "--alpha", "0.5"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"solver failure: the boundary is not resolved at the cap of {lp.CAP_NODES} " \
        "nodes" in err and "--nodes" in err


def test_cli_explicit_nodes_is_the_fixed_solve(capsys):
    argv = ["alpha0", "--domain", "star", "--rho-cos", "0,0.12,0.08", "--rho-sin", "0,0,0.05"]
    assert main(argv + ["--nodes", "256"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[0]) == alpha0(stars()["three_mode"], M=256).alpha0
    assert main(argv) == 0
    certified = capsys.readouterr().out.splitlines()[1].split(",")
    assert abs(float(certified[0]) - float(row[0])) <= 1e-9 * float(row[0])


SERIES_COMMANDS = [
    ("energy", "--alpha", "0.5", "--alpha", "-1"),
    ("split", "--alpha", "0.5"),
    ("spectrum", "--n-modes", "8"),
    ("second-variation", "--domain", "ball", "--alpha", "0.5", "--modes", "k2=1",
     "--fd-check"),
]


def read_unset_as(capsys, argv, nodes):
    star = ("--domain", "star", "--rho-cos", "0,0.1,0.05")
    argv = list(argv if argv[0] == "second-variation" else argv + star)
    assert main(argv) == 0
    unset = capsys.readouterr()
    assert main(argv + ["--nodes", str(nodes)]) == 0
    assert capsys.readouterr() == unset


@pytest.mark.parametrize("argv", SERIES_COMMANDS)
def test_series_commands_read_unset_as_256(capsys, argv):
    # 64 modes: the basis floor is 4 * 64 nodes
    read_unset_as(capsys, argv + ("--n-modes", "64"), 256)


@pytest.mark.parametrize("argv", SERIES_COMMANDS)
def test_series_commands_read_unset_as_128(capsys, argv):
    read_unset_as(capsys, argv, lp.BASIS_NODES)


UNRESOLVED = ("--domain", "star", "--rho-cos", "0,0.99")


def run(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestBasisLadder:
    @pytest.mark.parametrize("n_modes, M", [(2, 256), (32, 256), (33, 512), (64, 512),
                                            (65, 1024)])
    def test_basis_floor(self, three_mode, n_modes, M):
        # the basis lands at M/2 nodes, the first rung of at least
        # max(128, 4 n_modes), and has the spectrum of a basis at M nodes
        op = lp.operator_for(three_mode.rho, n_modes=n_modes)
        assert op.M == M // 2 and op.resolution <= lp.RESOLVED_TOL
        mu = op.steklov_eigensystem(n_modes)[0]
        ref = StarLayerOperator(three_mode.rho, M).steklov_eigensystem(n_modes)[0]
        assert np.all(np.abs(mu - ref) <= MU_TOL * np.maximum(1.0, ref))

    def test_basis_climbs_past_its_floor(self):
        # resolved at 512 nodes, not at 256: the spectrum doubles once
        rho = TrigPoly(1.0, (0.0,) * 7 + (0.1,), ())      # indicator 1.3e-6, then 1.3e-11
        assert StarLayerOperator(rho, 256).resolution > lp.RESOLVED_TOL
        basis = spectrum_star2d(Domain.star2d(rho), n_modes=8)
        assert basis.operator.M == 512 and basis.operator.resolution <= lp.RESOLVED_TOL

    def test_first_rung_past_the_cap(self, three_mode):
        with pytest.raises(ValueError, match=f"past the cap of {lp.CAP_NODES}"):
            lp.operator_for(three_mode.rho, n_modes=lp.CAP_NODES // lp.NODES_PER_MODE + 1)

    def test_pack_reads_the_basis_operator(self, three_mode, builds):
        pack = series_pack(three_mode, n_modes=40)
        assert builds == [256] and pack.M == 256

    def test_given_basis_at_another_count(self, three_mode):
        basis = spectrum_star2d(three_mode, n_modes=8, M=128)
        assert series_pack(three_mode, basis=basis).M == 128
        with pytest.raises(ValueError, match="does not match"):
            series_pack(three_mode, M=256, basis=basis)


class TestExplicitNodesChecked:
    def test_library_raises(self):
        rho = TrigPoly(1.0, (0.0, 0.99), ())
        with pytest.raises(SolverError, match="not resolved at 256 nodes"):
            lp.operator_for(rho, 256)
        with pytest.raises(SolverError, match="not resolved at 256 nodes"):
            spectrum_star2d(Domain.star2d(rho), n_modes=8, M=256)

    @pytest.mark.parametrize("argv", [
        ("first-variation", "--alpha", "0.5", "--nodes", "256"),
        ("alpha0", "--nodes", "256"),
        ("energy", "--alpha", "0.5", "--nodes", "256"),
        ("spectrum", "--n-modes", "8", "--nodes", "256"),
    ], ids=["first-variation", "alpha0", "energy", "spectrum"])
    def test_cli_exits_3(self, capsys, argv):
        code, out, err = run(capsys, argv + UNRESOLVED)
        assert code == 3 and out == ""
        assert "solver failure: the boundary is not resolved at 256 nodes" in err
        assert "raise --nodes or leave it unset" in err

    def test_resolved_explicit_counts_run(self, capsys):
        star = ("--domain", "star", "--rho-cos", "0,0.1,0.05", "--rho-sin", "0,0.02")
        for argv in (("alpha0", "--nodes", "128"),
                     ("first-variation", "--alpha", "0.5", "--vn-cos", "0,0.3",
                      "--nodes", "96")):
            assert run(capsys, argv + star)[0] == 0


class TestSpectrumCommand:
    def test_unresolved_star_exits_3(self, capsys):
        code, out, err = run(capsys, ("spectrum",) + UNRESOLVED)
        assert code == 3 and out == ""
        assert f"not resolved at the cap of {lp.CAP_NODES} nodes" in err and "--nodes" in err

    def test_40_modes_climb_to_512(self, capsys):
        # the floor of 40 modes is 256 nodes, which do not resolve this boundary
        star = ("spectrum", "--domain", "star", "--rho-cos", "0,0,0,0,0,0,0,0.1",
                "--n-modes", "40")
        assert spectrum_star2d(Domain.star2d(TrigPoly(1.0, (0.0,) * 7 + (0.1,), ())),
                               n_modes=40).operator.M == 512
        unset = run(capsys, star)
        assert unset[0] == 0 and len(unset[1].splitlines()) == 41
        assert run(capsys, star + ("--nodes", "512")) == unset

    def test_first_rung_past_the_cap_exits_2(self, capsys):
        code, out, err = run(capsys, ("spectrum", "--domain", "star", "--rho-cos", "0,0.1",
                                      "--n-modes", "513"))
        assert code == 2 and out == ""
        assert "--n-modes" in err and f"cap of {lp.CAP_NODES}" in err

    def test_rough_star_resolves_its_basis(self, capsys):
        # the torsion ladder climbs to 256 nodes, where the block has degree 64
        rough = TrigPoly(1.0, (0.0, 0.3, 0.2), (0.0, 0.1))
        code, out, _ = run(capsys, ("spectrum", "--domain", "star", "--rho-cos", "0,0.3,0.2",
                                    "--rho-sin", "0,0.1", "--n-modes", "32"))
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0 and len(rows) == 32
        assert max(float(r[4]) for r in rows) <= 1e-6
        mu_ref = StarLayerOperator(rough, 2048).steklov_eigensystem(32)[0]
        assert abs(float(rows[-1][3]) - mu_ref[-1]) <= MU_TOL * mu_ref[-1]


def residual_bound(mu: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """MU_RESIDUAL_C ||r_i||^2 + 2^9 eps max(1, mu_i): the error an eigenvalue may carry."""
    return MU_RESIDUAL_C * residuals ** 2 + TOL * np.maximum(1.0, mu)


@pytest.mark.parametrize("seed", range(20))
def test_basis_agrees_with_1024_nodes(seed):
    rho = random_star_domain(np.random.default_rng(seed)).rho
    basis = spectrum_star2d(Domain.star2d(rho), n_modes=32)
    mu_ref = StarLayerOperator(rho, REF_NODES).steklov_eigensystem(32)[0]
    err = np.abs(basis.mu - mu_ref)
    assert np.all(err <= MU_TOL * np.maximum(1.0, np.abs(mu_ref)))
    assert np.all(err <= residual_bound(basis.mu, basis.residuals))


def test_unresolved_basis_errs_within_its_residuals():
    # TestResidualGate's star: a 16-mode basis at 64 nodes, residual ratio 2.8e-7
    rho = TrigPoly(1.0, (0.0, 0.1, 0.05), (0.0, 0.02))
    mu, _, residuals = StarLayerOperator(rho, 64).steklov_eigensystem(16)
    mu_ref = StarLayerOperator(rho, REF_NODES).steklov_eigensystem(16)[0]
    err = np.abs(mu - mu_ref)
    assert np.all(err <= residual_bound(mu, residuals))
    # the residual term, not the roundoff term, carries the bound here
    assert np.any(err > TOL * np.maximum(1.0, mu))


class TestResidualGate:
    """A basis rung also needs ||r_i||^2 <= RESIDUAL_TOL max(1, mu_i) on its modes."""

    # resolved torsion (indicator 2.2e-8 at 64 nodes), unresolved 16-mode basis (2.8e-7)
    STAR = ("--domain", "star", "--rho-cos", "0,0.1,0.05", "--rho-sin", "0,0.02")

    def test_explicit_nodes_exit_3(self, capsys):
        code, out, err = run(capsys, ("spectrum", "--n-modes", "16", "--nodes", "64") + self.STAR)
        assert code == 3 and out == ""
        assert "solver failure: the 16-mode Steklov basis is not resolved at 64 nodes" in err
        assert "raise --nodes or leave it unset" in err

    def test_library_raises(self):
        d = Domain.star2d(TrigPoly(1.0, (0.0, 0.1, 0.05), (0.0, 0.02)))
        assert StarLayerOperator(d.rho, 64).resolution <= lp.RESOLVED_TOL
        with pytest.raises(SolverError, match="basis is not resolved at 64 nodes"):
            spectrum_star2d(d, n_modes=16, M=64)
        assert spectrum_star2d(d, n_modes=16, M=128).operator.M == 128

    def test_ladder_climbs_past_a_failing_rung(self, three_mode, builds, monkeypatch):
        # the ratio reads 2.5e-9 at 128 nodes and 1.4e-26 at 256
        monkeypatch.setattr(lp, "RESIDUAL_TOL", 1e-12)
        basis = spectrum_star2d(three_mode, n_modes=32)
        assert builds == [128, 256] and basis.operator.M == 256

    def test_past_the_cap_exits_3(self, capsys, builds, monkeypatch):
        monkeypatch.setattr(lp, "RESIDUAL_TOL", 0.0)
        monkeypatch.setattr(lp, "CAP_NODES", 256)
        code, out, err = run(capsys, ("spectrum", "--n-modes", "8") + self.STAR)
        assert code == 3 and out == "" and builds == [128, 256]
        assert "the 8-mode Steklov basis is not resolved at the cap of 256 nodes" in err
        assert "set a larger count with --nodes" in err
