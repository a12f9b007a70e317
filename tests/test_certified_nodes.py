"""The certified node count of direct and torsion solves (`layerpot.operator_for`).

Without M, a star's operator starts at START_NODES and doubles until the
torsion density's resolution indicator is at most RESOLVED_TOL.  An
explicit M keeps the fixed solve bit for bit.  Tolerances were fixed
before the first run: certified answers agree with 1024 nodes within
2^9 eps relative, the bound the metamorphic laws use.
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
    overdetermined_residual,
    random_star_domain,
    solve_torsion,
)
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


@pytest.mark.parametrize("name", ["three_mode", "ellipse", "wobbly"])
def test_explicit_256_is_the_fixed_solve(name, monkeypatch):
    """An explicit M builds only at M: the numbers of an operator built there by hand."""
    d = stars()[name]
    op = StarLayerOperator(d.rho, 256)
    made, init = [], StarLayerOperator.__init__

    def counted(self, rho, M=256):
        made.append(M)
        init(self, rho, M)

    monkeypatch.setattr(StarLayerOperator, "__init__", counted)
    assert solve_torsion(d, 256).T == solve_torsion(d, operator=op).T
    for a in ALPHAS:
        assert energy_direct(d, a, 256) == energy_direct(d, a, operator=op)
    first_variation_general(d, 0.5, VN, 256)
    alpha0(d, M=256)
    overdetermined_residual(d, 0.5, 256)
    assert made and set(made) == {256}


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
