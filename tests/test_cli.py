"""End-to-end CLI behavior: tables, exit codes, config, determinism."""

import argparse
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from robinlab import (Domain, TrigPoly, domain_to_dict, ellipse_domain,
                      spectrum_annulus, spectrum_ball, spectrum_star2d)
from robinlab import oracle
from robinlab.cli import _emit, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_disc_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--kmax", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,k,parity,mu,residual"
        assert lines[1] == "1,0,const,0,0"
        first = [ln.split(",") for ln in lines[1:]]
        assert [r[3] for r in first] == ["0", "1", "1", "2", "2", "3", "3"]

    def test_annulus_radial_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--domain", "annulus",
                           "--dim", "3", "--kappa", "0.5", "--kmax", "2")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        radial = [r for r in rows if r[2] == "radial"]
        assert float(radial[0][3]) == pytest.approx(5.0)

    def test_star_spectrum(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--domain", "star",
                           "--rho-cos", "0,0.1", "--n-modes", "8",
                           "--nodes", "128")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert len(rows) == 8
        assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-9)

    def test_rows_from_basis_arrays(self, capsys):
        # one row per mode, i from 1; closed-form bases report residual 0
        cases = [
            (("--kmax", "2"), lambda: spectrum_ball(2, 1.0, k_max=2)),
            (("--domain", "annulus", "--dim", "3", "--kappa", "0.5", "--kmax", "5"),
             lambda: spectrum_annulus(3, 1.0, 0.5, k_max=5)),
            (("--domain", "star", "--rho-cos", "0,0.1", "--n-modes", "8",
              "--nodes", "128"),
             lambda: spectrum_star2d(Domain.star2d(TrigPoly(1.0, (0.0, 0.1), ())),
                                     n_modes=8, M=128)),
        ]
        for flags, basis in cases:
            code, out, _ = run(capsys, "spectrum", *flags)
            b = basis()
            res = b.residuals if b.residuals is not None else [0.0] * b.count
            want = ["i,k,parity,mu,residual"] + [
                ",".join(map(_reference_cell, (i + 1, int(b.k[i]), b.parity[i],
                                               float(b.mu[i]), float(res[i]))))
                for i in range(b.count)]
            assert code == 0 and out == "\n".join(want) + "\n"
        _, out, _ = run(capsys, "spectrum", "--kmax", "2", "--json")
        rows = json.loads(out)["rows"]
        assert rows[0] == {"i": 1, "k": 0, "parity": "const", "mu": 0.0,
                           "residual": 0.0}
        assert [r["i"] for r in rows] == list(range(1, 6))

    def test_shell_pencil_out_of_range_exit3(self, capsys):
        code, out, err = run(capsys, "spectrum", "--domain", "annulus", "--dim", "3",
                             "--kappa", "0.5", "--radius", "1e10", "--kmax", "40")
        assert code == 3 and out == ""
        assert "degree-31 shell pencil" in err and "--kmax" in err


class TestEnergy:
    def test_disc_value(self, capsys):
        code, out, _ = run(capsys, "energy", "--alpha", "0.5")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[4]) == pytest.approx(0.875 * math.pi, rel=1e-12)
        assert row[6] == "Unique"

    def test_pole_exclusion_logged(self, capsys):
        code, out, err = run(capsys, "energy", "--domain", "annulus",
                             "--dim", "3", "--kappa", "0.5",
                             "--alpha-grid", "0:5:11")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 9     # 0.0 and 5.0 dropped
        assert err.count("excluded alpha=") == 2
        assert "poles: {0, 5}" in err

    def test_json_mirror(self, capsys):
        code, out, _ = run(capsys, "energy", "--alpha", "0.5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][:2] == ["alpha", "T"]
        assert payload["rows"][0]["status"] == "Unique"
        assert payload["rows"][0]["E_total"] == pytest.approx(0.875 * math.pi)

    def test_alpha_required(self, capsys):
        code, _, err = run(capsys, "energy")
        assert code == 2
        assert "invalid configuration" in err


class TestSplitAndAlpha0:
    def test_split_disc(self, capsys):
        code, out, _ = run(capsys, "split", "--alpha", "0.5")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[-1] == "bound_ok"
        assert row.split(",")[-1] == "true"


    def test_split_bound_ok_matches_row_rule(self, capsys):
        # the per-row rule that the column's array expression replaced
        code, out, _ = run(capsys, "split", "--alpha-grid=-6:1.5:300",
                           "--domain", "star", "--rho-cos", "0,0.08,-0.05",
                           "--rho-sin", "0,0.03")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        for row in rows:
            E_minus, bound = float(row[2]), float(row[4])
            ok = math.isnan(bound) or \
                E_minus <= bound + 1e-9 * max(1.0, abs(E_minus))
            assert row[5] == ("true" if ok else "false")
        assert {r[4] == "nan" for r in rows} == {True, False}

    @pytest.mark.parametrize("argv, rows, excluded", [
        (("--alpha-grid=-1:3:17",), 16, ["0"]),
        (("--domain", "annulus", "--dim", "3", "--kappa", "0.5",
          "--alpha-grid=-2:8:21"), 19, ["0", "5"]),
        (("--alpha", "0"), 0, ["0"]),
    ])
    def test_split_skips_poles(self, capsys, argv, rows, excluded):
        # the energy grid's exclusion rule: no NoSolution row is printed
        code, out, err = run(capsys, "split", *argv)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("alpha,E_plus,") and len(lines) == 1 + rows
        assert not any(ln.split(",")[0] in excluded for ln in lines[1:])
        assert re.findall(r"excluded alpha=(\S+):", err) == excluded

    def test_split_with_every_alpha_excluded_as_json(self, capsys):
        code, out, _ = run(capsys, "split", "--alpha", "0", "--json")
        assert code == 0 and json.loads(out)["rows"] == []

    def test_alpha0_ellipse_threshold_column(self, capsys, tmp_path):
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(domain_to_dict(ellipse_domain())))
        code, out, _ = run(capsys, "alpha0", "--domain-json", str(path))
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["alpha0"]) == pytest.approx(1.5127, rel=1e-3)
        assert float(cols["threshold"]) == pytest.approx(1.05179, rel=1e-3)
        assert cols["threshold_ok"] == "true"


class TestVariations:
    def test_first_variation_uniform(self, capsys):
        code, out, _ = run(capsys, "first-variation", "--alpha", "1.0",
                           "--vn-const", "1.0")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(math.pi, rel=1e-12)

    def test_second_variation_table(self, capsys):
        code, out, _ = run(capsys, "second-variation", "--alpha", "0.5",
                           "--modes", "k2=1")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["E_ddot"]) == pytest.approx(-4.0 / 3.0, rel=1e-12)
        assert cols["zone"] == "stable-low"
        assert float(cols["bound"]) == pytest.approx(-0.75)
        assert float(cols["route_gap"]) < 1e-12

    def test_second_variation_resonance_exit3(self, capsys):
        # 2.000000001 lies in the resonance window tol_res of mu_2 = 2
        for alpha in ("2.0", "2.000000001"):
            code, _, err = run(capsys, "second-variation", "--alpha", alpha,
                               "--modes", "k2=1")
            assert code == 3
            assert "solver failure" in err

    def test_translation_warning_once_per_alpha(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, "second-variation", "--alpha", "0.5",
                             "--alpha", "0.7", "--modes", "k1=1,k2=1")
        assert code == 0
        texts = [str(w.message) for w in caught]
        assert texts.count("degree-1 components are translations; zeroing them") == 2

    def test_fd_check_columns(self, capsys):
        code, out, _ = run(capsys, "second-variation", "--alpha", "0.5",
                           "--modes", "k2=1", "--fd-check",
                           "--fd-steps", "0.01,0.02")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["fd_rel_err"]) < 1e-2
        assert abs(float(cols["fd_E_dot"])) < 1e-6

    def test_fd_check_alpha_list_matches_single_calls(self, capsys):
        argv = ["second-variation", "--modes", "k2=1,k3s=-0.5", "--fd-check",
                "--fd-route", "direct", "--fd-steps", "0.01,0.02"]
        code, out, _ = run(capsys, *argv, "--alpha", "0.3", "--alpha", "0.7")
        assert code == 0
        header, *rows = out.strip().split("\n")
        for alpha, row in zip(("0.3", "0.7"), rows):
            _, single, _ = run(capsys, *argv, "--alpha", alpha)
            assert single == f"{header}\n{row}\n"

    def test_j_variations(self, capsys):
        code, out, _ = run(capsys, "j-variations", "--alpha", "0.7",
                           "--modes", "k2=0.8,k4s=-0.5")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["J_dot"]) == 0.0
        assert cols["bounds_ok"] == "true"
        assert float(cols["lower_bound"]) <= float(cols["J_ddot"]) \
            <= float(cols["upper_bound"])

    @pytest.mark.parametrize("argv", [
        ("--alpha", "0", "--vn-const", "1"),
        ("--alpha", "1e-12", "--vn-const", "1"),
        ("--alpha", "0", "--domain", "star", "--rho-cos", "0,0.1"),
    ])
    def test_first_variation_at_a_pole_exit3(self, capsys, argv):
        code, out, err = run(capsys, "first-variation", *argv)
        assert code == 3 and out == ""
        assert "solver failure: no Robin solution" in err

    @pytest.mark.parametrize("argv", [
        ("first-variation", "--alpha", "0.5", "--vn-const", "1e308"),
        ("j-variations", "--alpha", "0.5", "--modes", "k2=1e200"),
        ("second-variation", "--alpha", "0.5", "--modes", "k2=1e200"),
    ])
    def test_overflow_exit3(self, capsys, recwarn, argv):
        # finite inputs whose variations overflow to inf or NaN, without warnings
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and len(recwarn) == 0
        assert "solver failure" in err and "not finite" in err

    def test_series_fd_check_next_to_the_pole_at_zero_exit3(self, capsys):
        # within the resonance tolerance of the pole at 0 every member's row is NoSolution
        code, out, err = run(capsys, "second-variation", "--alpha", "1e-10",
                             "--modes", "k2=1", "--fd-check")
        assert code == 3 and out == ""
        assert "solver failure: no Robin solution at alpha=1e-10" in err

    def test_bad_modes_spec(self, capsys):
        code, _, err = run(capsys, "second-variation", "--alpha", "0.5",
                           "--modes", "q2=1")
        assert code == 2
        assert "invalid configuration" in err


class TestChecks:
    def test_pw_check_star(self, capsys):
        code, out, _ = run(capsys, "pw-check", "--domain", "star",
                           "--rho-cos", "0,0.1", "--h-max", "0.1")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["bound_ok"] == "true"
        assert float(cols["margin"]) >= 0.0

    def test_corollary_check_auto_alpha(self, capsys):
        code, out, _ = run(capsys, "corollary-check", "--domain", "star",
                           "--rho-cos", "0,0.12,0.08")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["gap_ok"] == "true" and cols["chain_ok"] == "true"
        assert 0.0 < float(cols["alpha"]) < float(cols["mu2"])

    @pytest.mark.parametrize("domain", [(), ("--domain", "star", "--rho-cos", "0,0.1")])
    def test_corollary_check_next_to_the_pole_at_zero_exit3(self, capsys, domain):
        # within the resonance tolerance of the pole at 0 the series row is NoSolution
        code, out, err = run(capsys, "corollary-check", *domain, "--alpha", "1e-10")
        assert code == 3 and out == ""
        assert "solver failure: no Robin solution at alpha=1e-10" in err

    def test_oracle_verify(self, capsys):
        code, out, _ = run(capsys, "oracle-verify", "--alpha", "1.0",
                           "--h-max", "0.13")
        assert code == 0
        row = dict(zip(*[ln.split(",") for ln in out.strip().split("\n")]))
        assert row["consistent"] == "true"

    @pytest.mark.parametrize("argv, solved", [
        (("--domain", "star", "--rho-cos", "0,0.1", "--alpha", "0.3",
          "--alpha", "1.9848417447"), [0.3]),
        (("--alpha", "0"), []),
    ])
    def test_oracle_verify_at_a_pole_exit3(self, capsys, monkeypatch, argv, solved):
        # the pole alpha fails before its element solve, as the direct routes do
        fem_alphas = []
        fem_energy = oracle.fem_robin_energy
        monkeypatch.setattr(oracle, "fem_robin_energy",
                            lambda fem, a: fem_alphas.append(a) or fem_energy(fem, a))
        code, out, err = run(capsys, "oracle-verify", *argv, "--h-max", "0.2")
        assert code == 3 and out == ""
        assert f"solver failure: no Robin solution at alpha={argv[-1]}" in err
        assert fem_alphas == solved

    def test_corpus_verdicts(self, capsys):
        code, out, _ = run(capsys, "corpus", "--count", "2", "--seed", "5",
                           "--n-modes", "24", "--nodes", "192")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert len(rows) == 2
        assert all(r[6] == "true" and r[9] == "true" for r in rows)


def _reference_cell(v) -> str:
    """A CSV cell as the per-cell formatter wrote it: the reference for _emit."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


class TestEmit:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308,
               -1e308, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0]

    def check(self, capsys, columns, rows):
        _emit(argparse.Namespace(json=False, output="-"), columns, rows)
        lines = [",".join(columns)] + [",".join(map(_reference_cell, r))
                                       for r in rows]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_mixed_cell_types(self, capsys):
        # the row types change partway through, and back
        rows = [(v, "Unique", -v) for v in self.SPECIAL]
        rows += [(np.float64(v), 7, np.int64(-3)) for v in self.SPECIAL]
        rows += [(True, np.bool_(False), "x"), (False, np.bool_(True), "")]
        rows += [(v, "Family", v) for v in self.SPECIAL]
        rows += [[1, np.float64(2.5), 0.25], (-(2 ** 70), "x", 0)]
        self.check(capsys, ("a", "b", "c"), rows)

    def test_float_bit_patterns(self, capsys):
        bits = np.random.default_rng(5).integers(0, 2 ** 64, size=3000,
                                                 dtype=np.uint64)
        cells = bits.view(np.float64).tolist()
        self.check(capsys, ("a", "b", "c", "s"),
                   [(*cells[i:i + 3], "Unique") for i in range(0, 3000, 3)])

    def test_empty_table(self, capsys):
        self.check(capsys, ("alpha", "E"), [])


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = ("corpus", "--count", "2", "--seed", "7",
                "--n-modes", "24", "--nodes", "192")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("corpus", "--count", "2", "--seed", "7", "--n-modes", "24",
         "--nodes", "192"),
        ("oracle-verify", "--domain", "star", "--rho-cos", "0,0.1",
         "--alpha", "0.3", "--alpha", "-0.5", "--h-max", "0.2"),
    ])
    def test_stale_thread_variable_is_ignored(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("ROBINLAB_THREADS", raising=False)
        first = run(capsys, *argv)
        assert first[0] == 0
        monkeypatch.setenv("ROBINLAB_THREADS", "abc")
        assert run(capsys, *argv) == first

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "energy", "--alpha", "0.5",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("alpha,")


class TestConfig:
    def test_defaults_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 2.0, "kmax": 2}))
        code, out, _ = run(capsys, "--config", str(cfg), "spectrum")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert float(rows[1][3]) == pytest.approx(0.5)   # mu_2 = 1/R
        assert len(rows) == 5

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 2.0}))
        code, out, _ = run(capsys, f"--config={cfg}", "spectrum",
                           "--radius", "1.0", "--kmax", "2")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert float(rows[1][3]) == pytest.approx(1.0)

    def test_alpha_flag_replaces_config_list(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.5]}))
        code, out, _ = run(capsys, "--config", str(cfg), "energy",
                           "--alpha", "1.5")
        assert code == 0
        _, ref, _ = run(capsys, "energy", "--alpha", "1.5")
        assert out == ref


    def test_config_does_not_reach_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nodes": 128, "n_modes": 16, "alpha": [0.5]}))
        base = ("energy", "--domain", "star", "--rho-cos", "0,0.1")
        for argv in (base, base + ("--alpha", "1.5")):
            before = run(capsys, *argv)
            configured = run(capsys, "--config", str(cfg), *argv)
            assert configured[0] == 0 and configured != before
            assert run(capsys, *argv) == before

    def test_one_parser_per_process(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 2.0}))
        argv = ("spectrum", "--kmax", "2")
        build_parser.cache_clear()
        plain = run(capsys, *argv)

        def mutate(*args, **kwargs):
            raise AssertionError("the parser changed after it was built")
        for name in ("add_argument", "set_defaults", "add_subparsers"):
            monkeypatch.setattr(argparse.ArgumentParser, name, mutate)
        configured = run(capsys, "--config", str(cfg), *argv)
        assert plain[0] == configured[0] == 0 and configured != plain
        assert run(capsys, *argv) == plain
        assert build_parser.cache_info().misses == 1

    def test_key_of_another_command_has_no_effect(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h_max": 0.1, "kmax": -1, "count": 3}))
        argv = ("energy", "--alpha", "0.5")
        assert run(capsys, "--config", str(cfg), *argv) == run(capsys, *argv)

    @pytest.mark.parametrize("content, reason", [
        (b"5", "JSON object"), (b'["nodes"]', "JSON object"),
        (b"\xff\xfe{", "utf-8")])
    def test_config_that_is_no_json_object(self, capsys, tmp_path, content, reason):
        # each of these raised a TypeError or UnicodeDecodeError out of main
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run(capsys, "--config", str(cfg), "spectrum")
        assert code == 2 and out == ""
        assert "invalid configuration" in err and reason in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 2.0, "bogus": 1}))
        code, _, err = run(capsys, "--config", str(cfg), "spectrum")
        assert code == 2
        assert "bogus" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "--config", str(tmp_path / "nope.json"),
                           "spectrum")
        assert code == 2


class TestBadInputs:
    def test_annulus_needs_kappa(self, capsys):
        code, _, err = run(capsys, "spectrum", "--domain", "annulus",
                           "--dim", "3")
        assert code == 2

    def test_bad_grid_syntax(self, capsys):
        code, _, _ = run(capsys, "energy", "--alpha-grid", "1:2")
        assert code == 2


    @pytest.mark.parametrize("grid", ["-1:8:40", "-.5:0.5:7"])
    def test_negative_grid_start_as_separate_token(self, capsys, grid):
        flags = ("--domain", "star", "--rho-cos", "0,0.1")
        joined = run(capsys, "energy", f"--alpha-grid={grid}", *flags)
        assert joined[0] == 0
        assert run(capsys, "energy", "--alpha-grid", grid, *flags) == joined

    @pytest.mark.parametrize("content, key", [
        ({}, "'kind'"),
        ([], "JSON object"),
        ({"kind": "ball"}, "'dim'"),
        ({"kind": "star2d", "dim": 2, "R": 1.0}, "'rho_coeffs'"),
        ({"kind": "star2d", "dim": 2, "R": 1.0,
          "rho_coeffs": {"a0": 1.0, "cos": "abc"}}, "'cos'"),
    ])
    def test_malformed_domain_json(self, capsys, tmp_path, content, key):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "spectrum", "--domain-json", str(path))
        assert code == 2 and out == ""
        assert "invalid configuration" in err and key in err

    def test_star_is_planar(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--domain", "star",
                         "--dim", "3", "--rho-cos", "0,0.1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("energy", "--alpha", "nan"),
        ("energy", "--alpha", "inf"),
        ("energy", "--alpha-grid=nan:1:3"),
        ("energy", "--alpha-grid=0:inf:3"),
        ("energy", "--alpha", "0.5", "--nodes", "0"),
        ("energy", "--alpha", "0.5", "--nodes", "7"),
        ("corpus", "--count", "-1"),
    ])
    def test_rejected_before_any_table(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid configuration" in err

    @pytest.mark.parametrize("flags", [
        ("--rho-cos", "0,nan"),
        ("--rho-sin", "0,inf"),
        ("--radius", "nan"),
        ("--radius", "inf"),
    ])
    def test_non_finite_rho_rejected(self, capsys, flags):
        code, out, err = run(capsys, "spectrum", "--domain", "star", *flags)
        assert code == 2 and out == ""
        assert "rho" in err

    @pytest.mark.parametrize("argv, flag", [
        (("first-variation", "--alpha", "0.5", "--vn-const", "nan"), "--vn-const"),
        (("first-variation", "--alpha", "0.5", "--vn-const", "inf"), "--vn-const"),
        (("first-variation", "--alpha", "0.5", "--domain", "star", "--rho-cos", "0,0.1",
          "--vn-cos", "0,nan"), "--vn-cos"),
        (("first-variation", "--alpha", "0.5", "--vn-sin", "0,-inf"), "--vn-sin"),
        (("j-variations", "--alpha", "0.5", "--modes", "k2=nan"), "--modes"),
        (("j-variations", "--alpha", "0.5", "--dim", "3", "--modes", "k2=inf"), "--modes"),
        (("second-variation", "--alpha", "0.5", "--modes", "k2=nan"), "--modes"),
    ])
    def test_non_finite_speed_or_mode_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid configuration" in err and flag in err

    @pytest.mark.parametrize("argv, entry", [
        (("j-variations", "--alpha", "0.5", "--modes", "k2=1,k2=3"), "'k2=3'"),
        (("j-variations", "--alpha", "0.5", "--modes", "k2s=1,k3=1,k2s=3"), "'k2s=3'"),
        (("j-variations", "--alpha", "0.5", "--dim", "3", "--modes", "k2=1,k2c=3"),
         "'k2c=3'"),
        (("second-variation", "--alpha", "0.5", "--modes", "k3=1,k3=1"), "'k3=1'"),
    ])
    def test_repeated_mode_rejected(self, capsys, argv, entry):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "twice" in err and entry in err

    def test_cos_and_sin_of_one_degree_accepted(self, capsys):
        code, out, _ = run(capsys, "j-variations", "--alpha", "0.5",
                           "--modes", "k2=1,k2s=3")
        assert code == 0 and out.count("\n") == 2

    @pytest.mark.parametrize("domain", [("--domain", "annulus", "--kappa", "0.5"),
                                        ("--dim", "3")])
    def test_pw_check_needs_a_planar_star(self, capsys, domain):
        code, out, err = run(capsys, "pw-check", *domain)
        assert code == 2 and out == ""
        assert "need a planar simply connected domain" in err

    @pytest.mark.parametrize("fd", [
        ("--fd-degree", "-1"),
        ("--fd-degree", "1"),
        ("--fd-steps", "0.01"),
        ("--fd-steps", "0.01,0.01"),
        ("--fd-steps", "0,0.01"),
        ("--fd-steps", "0.01,0.02,nan"),
    ])
    def test_unfittable_fd_check_rejected(self, capsys, fd):
        code, out, err = run(capsys, "second-variation", "--alpha", "0.5",
                             "--modes", "k2=1", "--fd-check", *fd)
        assert code == 2 and out == ""
        assert "invalid configuration" in err

    @pytest.mark.parametrize("argv", [
        ("energy", "--domain", "star", "--rho-cos", "0,0.05", "--alpha", "0.5"),
        ("corpus", "--count", "2"),
    ])
    def test_nodes_with_odd_half_accepted(self, capsys, argv):
        # 258 is even, but half of it is not
        code, out, err = run(capsys, *argv, "--nodes", "258")
        assert code == 0, err
        assert out.count("\n") > 1

    @pytest.mark.parametrize("command", [("pw-check",),
                                         ("oracle-verify", "--alpha", "1.0")])
    @pytest.mark.parametrize("h_max", ["0", "-0.1"])
    def test_bad_h_max(self, capsys, command, h_max):
        code, out, err = run(capsys, *command, "--h-max", h_max)
        assert code == 2 and out == ""
        assert "h_max" in err

    def test_scalar_alpha_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5}))
        code, out, _ = run(capsys, "--config", str(cfg), "energy")
        assert code == 0
        _, ref, _ = run(capsys, "energy", "--alpha", "0.5")
        assert out == ref

    @pytest.mark.parametrize("alpha", [{"value": 0.5}, ["a", 1.0], [None],
                                       [[0.5]]])
    def test_bad_alpha_in_config(self, capsys, tmp_path, alpha):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": alpha}))
        code, out, err = run(capsys, "--config", str(cfg), "energy")
        assert code == 2 and out == ""
        assert "invalid configuration" in err and "--alpha" in err

    def test_string_alpha_in_config(self, capsys, tmp_path):
        # a config value goes through the option's type, as its flag text would
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": "half"}))
        code, out, err = run(capsys, "--config", str(cfg), "energy")
        assert code == 2 and out == ""
        assert "invalid configuration" in err and "--alpha" in err

    @pytest.mark.parametrize("cfg_value", [{"nodes": "x"}, {"nodes": 256.5},
                                           {"alpha": [True]}, {"kappa": None}])
    def test_untyped_config_value(self, capsys, tmp_path, cfg_value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_value))
        code, out, err = run(capsys, "--config", str(cfg), "energy", "--alpha", "0.5")
        assert code == 2 and out == ""
        assert f"invalid configuration: --{next(iter(cfg_value))}" in err

    @pytest.mark.parametrize("argv, cfg_value", [
        (("spectrum", "--domain", "star"), {"rho_cos": [0, 0.1]}),
        (("second-variation", "--alpha", "0.5", "--modes", "k2=1", "--fd-check"),
         {"fd_steps": 0.02}),
        *[(("energy", "--alpha", "0.5"), {dest: value}) for dest in (
            "rho_cos", "rho_sin", "vn_cos", "vn_sin", "fd_steps", "modes",
            "alpha_grid", "output", "domain_json") for value in ([0, 0.1], 0.5, None)],
        (("energy", "--alpha", "0.5"), {"json": "no"}),
    ])
    def test_config_value_of_the_wrong_json_type(self, capsys, tmp_path, monkeypatch,
                                                 argv, cfg_value):
        # such a value once reached a handler's .split: AttributeError, exit 1
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_value))
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        dest = next(iter(cfg_value))
        assert code == 2 and out == ""
        assert err.startswith(f"invalid configuration: --{dest.replace('_', '-')}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]   # no file "None"

    def test_second_config_rejected(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps({"radius": 2.0}))
        second.write_text(json.dumps({"alpha": [0.5]}))
        for argv in (("--config", str(first), "--config", str(second), "energy"),
                     (f"--config={first}", "energy", f"--config={second}")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == "invalid configuration: --config given twice; " \
                          "merge the files into one\n"

    def test_typed_config_values_match_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": ["0.5", 2], "nodes": "128",
                                   "n_modes": 12, "radius": "1.5"}))
        code, out, _ = run(capsys, "--config", str(cfg), "energy")
        assert code == 0
        _, ref, _ = run(capsys, "energy", "--alpha", "0.5", "--alpha", "2",
                        "--nodes", "128", "--n-modes", "12", "--radius", "1.5")
        assert out == ref

    @pytest.mark.parametrize("argv", [
        ("energy", "--alpha", "0.5", "--domain", "star", "--rho-cos", "0,0.05",
         "--n-modes", "0"),
        ("energy", "--alpha", "0.5", "--domain", "star", "--rho-cos", "0,0.05",
         "--n-modes", "-2"),
        ("energy", "--alpha", "0.5", "--domain", "star", "--rho-cos", "0,0.05",
         "--n-modes", "1"),
        ("spectrum", "--kmax", "-1"),
    ])
    def test_bad_mode_counts(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid configuration" in err
        assert "modes" in err or "kmax" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--frobnicate"])
        assert exc.value.code == 2

    # each subcommand takes only the options its handler reads
    @pytest.mark.parametrize("argv", [
        *[("corpus", "--count", "1", flag, value) for flag, value in [
            ("--domain", "annulus"), ("--dim", "3"), ("--radius", "2"),
            ("--kappa", "0.5"), ("--rho-cos", "0,0.1"), ("--rho-sin", "0,0.1"),
            ("--domain-json", "domain.json")]],
        ("j-variations", "--alpha", "0.5", "--modes", "k2=1", "--nodes", "128"),
        ("j-variations", "--alpha", "0.5", "--modes", "k2=1", "--n-modes", "8"),
        ("pw-check", "--nodes", "128"),
        ("pw-check", "--n-modes", "8"),
        ("alpha0", "--n-modes", "8"),
        ("first-variation", "--alpha", "0.5", "--n-modes", "8"),
        ("corollary-check", "--alpha-grid", "0.1:0.5:3"),
    ])
    def test_option_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"unrecognized arguments: {argv[-2]}" in err


def test_readme_quickstart_commands(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Quickstart, command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(ln)[1:] for ln in block.splitlines()
                if ln.startswith("robinlab ")]
    assert len(commands) == 5
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.startswith(("i,", "alpha,", "area,", "index,")), argv


def test_readme_lists_each_subcommands_options(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("| subcommand | options besides", 1)[1]
    domain = {"--domain", "--dim", "--radius", "--kappa", "--rho-cos",
              "--rho-sin", "--domain-json"}
    listed = {}
    for line in table.split("\n\n", 1)[0].splitlines()[2:]:
        _, name, opts, _ = line.split("|")
        flags = set(re.findall(r"--[a-z-]+", opts)) | {"--output", "--json"}
        listed[name.strip(" `")] = flags | (domain if "domain," in opts else set())
    assert len(listed) == 11
    for name, flags in listed.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) \
            == flags | {"--help"}, name
