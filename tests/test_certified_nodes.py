"""The certified node count of every star solve (`layerpot.operator_for`).

Without M, a star's operator starts at START_NODES (a Steklov basis of
n modes: at the first rung of at least max(DEFAULT_BOUNDARY_NODES, 8 n))
and doubles until the torsion density's resolution indicator is at most
RESOLVED_TOL.  An explicit M is one rung under the same check: when it
resolves the boundary it is the fixed solve bit for bit, and when it
does not the solve raises SolverError.  Tolerances were fixed before the
first run: certified answers agree with 1024 nodes within 2^9 eps
relative, the bound the metamorphic laws use.
"""
import numpy as np
import pytest

import robinlab.layerpot as lp
from robinlab import (
    DEFAULT_BOUNDARY_NODES,
    Domain,
    StarLayerOperator,
    TrigPoly,
    alpha0,
    ellipse_domain,
    energy_direct,
    first_variation_general,
    overdetermined_residual,
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
        assert np.array_equal(ts.density, op.torsion_density)
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
    first_variation_general(d, 0.5, VN, 256)
    alpha0(d, M=256)
    overdetermined_residual(d, 0.5, 256)
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


@pytest.mark.parametrize("argv", [
    ("energy", "--alpha", "0.5", "--alpha", "-1"),
    ("split", "--alpha", "0.5"),
    ("spectrum", "--n-modes", "8"),
    ("second-variation", "--domain", "ball", "--alpha", "0.5", "--modes", "k2=1",
     "--fd-check"),
])
def test_series_commands_read_unset_as_256(capsys, argv):
    star = ("--domain", "star", "--rho-cos", "0,0.1,0.05")
    argv = argv if argv[0] == "second-variation" else argv + star
    assert main(list(argv)) == 0
    unset = capsys.readouterr()
    assert main(list(argv) + ["--nodes", "256"]) == 0
    assert capsys.readouterr() == unset


UNRESOLVED = ("--domain", "star", "--rho-cos", "0,0.99")


def run(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestBasisLadder:
    @pytest.mark.parametrize("n_modes, M", [(2, 256), (32, 256), (33, 512), (64, 512),
                                            (65, 1024)])
    def test_basis_floor(self, three_mode, n_modes, M):
        assert DEFAULT_BOUNDARY_NODES == 256
        op = lp.operator_for(three_mode.rho, n_modes=n_modes)
        assert op.M == M and op.resolution <= lp.RESOLVED_TOL

    def test_basis_climbs_past_its_floor(self):
        # resolved at 512 nodes, not at 256: the spectrum doubles once
        rho = TrigPoly(1.0, (0.0,) * 7 + (0.1,), ())      # indicator 1.3e-6, then 1.3e-11
        assert StarLayerOperator(rho, 256).resolution > lp.RESOLVED_TOL
        basis = spectrum_star2d(Domain.star2d(rho), n_modes=8)
        assert basis.operator.M == 512 and basis.operator.resolution <= lp.RESOLVED_TOL

    def test_first_rung_past_the_cap(self, three_mode):
        with pytest.raises(ValueError, match=f"past the cap of {lp.CAP_NODES}"):
            lp.operator_for(three_mode.rho, n_modes=lp.CAP_NODES // 8 + 1)

    def test_pack_reads_the_basis_operator(self, three_mode, builds):
        pack = series_pack(three_mode, n_modes=40)
        assert builds == [512] and pack.M == 512

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
        star = ("spectrum", "--domain", "star", "--rho-cos", "0,0.1", "--n-modes", "40")
        assert spectrum_star2d(Domain.star2d(TrigPoly(1.0, (0.0, 0.1), ())),
                               n_modes=40).operator.M == 512
        unset = run(capsys, star)
        assert unset[0] == 0 and len(unset[1].splitlines()) == 41
        assert run(capsys, star + ("--nodes", "512")) == unset

    def test_first_rung_past_the_cap_exits_2(self, capsys):
        code, out, err = run(capsys, ("spectrum", "--domain", "star", "--rho-cos", "0,0.1",
                                      "--n-modes", "257"))
        assert code == 2 and out == ""
        assert "--n-modes" in err and f"cap of {lp.CAP_NODES}" in err
