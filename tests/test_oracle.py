"""Finite-element cross-checks: energies, torsion, eigenpair residuals."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from robinlab import (
    Domain,
    SolverError,
    TrigPoly,
    energy_series,
    fem_dirichlet_T,
    fem_robin_energy,
    oracle,
    rigidity,
    spectrum_annulus,
    spectrum_ball,
    spectrum_star2d,
    steklov_residual,
)
from robinlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_diff",
                                               ROOT / "scripts" / "output_diff.py")
od = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(od)


def square_torsion_series(side: float) -> float:
    """Double-Fourier value of the square torsion integral, frozen oracle."""
    s = 0.0
    for m in range(1, 120, 2):
        for n in range(1, 120, 2):
            s += 64.0 / (math.pi ** 6 * m * m * n * n * (m * m + n * n))
    return -side ** 4 * s


class TestRobinEnergy:
    def test_disc_both_signs(self, disc):
        sol = fem_robin_energy(disc, 1.0)
        assert sol.energy == pytest.approx(3 * math.pi / 8, abs=1e-5)
        assert abs(sol.energy - 3 * math.pi / 8) < 1e-7
        neg = fem_robin_energy(disc, -1.0)
        assert neg.energy == pytest.approx(-5 * math.pi / 8, abs=1e-5)

    def test_error_indicator_covers_truth(self, disc):
        sol = fem_robin_energy(disc, 1.0)
        assert abs(sol.energy - 3 * math.pi / 8) <= 10 * sol.error

    def test_ellipse_against_series(self, ellipse):
        sol = fem_robin_energy(ellipse, 0.5)
        series = energy_series(ellipse, 0.5, n_modes=32, M=256).E_total
        assert sol.energy == pytest.approx(series, abs=1e-6)

    def test_near_pole_flagged_by_indicator(self, ellipse):
        # alpha=2.0 sits close to the pole at 1.9576; accuracy degrades
        # and the Richardson jump must admit it
        sol = fem_robin_energy(ellipse, 2.0)
        series = energy_series(ellipse, 2.0, n_modes=32, M=256).E_total
        assert abs(sol.energy - series) < 1e-4
        assert sol.error > 1e-5

    def test_boundary_residual_first_order(self, disc):
        fine = fem_robin_energy(disc, 1.0)
        coarse = fem_robin_energy(disc, 1.0, h_max=0.13)
        assert 0 < fine.boundary_residual < coarse.boundary_residual

    def test_zero_alpha_rejected(self, disc):
        with pytest.raises(SolverError):
            fem_robin_energy(disc, 0.0)

    def test_solution_serializes(self, disc):
        sol = fem_robin_energy(disc, 1.0, h_max=0.2, levels=2)
        data = json.loads(sol.to_json())
        assert data["alpha"] == 1.0
        assert len(data["values"]) == len(data["coords"])
        assert data["energy"] == pytest.approx(sol.energy)


class TestDirichletTorsion:
    def test_disc(self, disc):
        assert fem_dirichlet_T(disc) == pytest.approx(-math.pi / 8, abs=1e-6)

    def test_square_against_double_series(self):
        side = math.sqrt(math.pi)
        rho = lambda t: (side / 2.0) / np.maximum(np.abs(np.cos(t)),
                                                  np.abs(np.sin(t)))
        got = fem_dirichlet_T(rho, h_max=0.05)
        assert got == pytest.approx(square_torsion_series(side), abs=1e-6)
        # same area as the unit disc but torsion strictly above -pi/8
        assert got > -math.pi / 8

    def test_ellipse_against_boundary_solve(self, ellipse):
        assert fem_dirichlet_T(ellipse) == pytest.approx(
            rigidity(ellipse, 256), abs=1e-6)


class TestSteklovResidual:
    def test_disc_analytic_basis(self):
        res = steklov_residual(spectrum_ball(2, 1.0, k_max=8))
        assert res == 0.0

    def test_ball3_analytic_basis(self):
        assert steklov_residual(spectrum_ball(3, 1.0, k_max=4)) < 1e-10

    def test_star_basis_first_ten(self, three_mode):
        basis = spectrum_star2d(three_mode, n_modes=16, M=256)
        res = steklov_residual(basis, sample_density=256, n_modes=10)
        assert res < 1e-5

    def test_residual_decreases_under_refinement(self, three_mode):
        basis = spectrum_star2d(three_mode, n_modes=12, M=256)
        r1 = steklov_residual(basis, sample_density=128, n_modes=6)
        r2 = steklov_residual(basis, sample_density=256, n_modes=6)
        assert r2 < r1

    def test_density_off_multiple_of_four(self, three_mode):
        # 130 boundary nodes round up to 132; the fine mesh must double
        # that, so its even nodes line up with the coarse ones
        basis = spectrum_star2d(three_mode, n_modes=12, M=256)
        r128 = steklov_residual(basis, sample_density=128, n_modes=6)
        r130 = steklov_residual(basis, sample_density=130, n_modes=6)
        assert r130 == pytest.approx(r128, rel=0.2)

    def test_annulus_unsupported(self):
        with pytest.raises(ValueError):
            steklov_residual(spectrum_annulus(3, 1.0, 0.5))


class TestMeshArguments:
    @pytest.mark.parametrize("kwargs", [
        {"h_max": 0.0}, {"h_max": -0.1}, {"h_max": math.nan},
        {"h_max": math.inf}, {"levels": 1},
    ])
    def test_rejected(self, disc, kwargs):
        with pytest.raises(ValueError):
            fem_dirichlet_T(disc, **kwargs)
        with pytest.raises(ValueError):
            fem_robin_energy(disc, 1.0, **kwargs)


class TestFactor:
    """The Krylov solve against a sparse direct factorization (COLAMD)."""

    def test_matches_colamd_spsolve_on_finest_disc_mesh(self, disc):
        assert_matches_colamd_spsolve(disc, 25601)

    def test_matches_colamd_spsolve_on_finest_star_mesh(self):
        assert_matches_colamd_spsolve(rmax_star(1.1), 31105)


class TestSolver:
    def test_preconditioner_exact_on_the_disc(self, disc):
        # the disc's rings are rotation invariant, so the angle average is
        # the block itself: the preconditioned block's eigenvalues are +-1
        rho, _ = oracle._rho_callable(disc)
        for mesh in oracle._mesh_levels(rho, 0.065, 3):
            K, f = mesh.assemble()
            _, its = oracle._Block(mesh, K, 1, mesh.n_r - 1).solve(f[:mesh.n_free])
            assert its <= 4
        fem = oracle.FemRobin(disc)
        for a in (-1.0, 0.5, 5.0):
            sol = fem.solve(a)
            assert len(sol.iterations) == 3 and max(sol.iterations) <= 4

    @pytest.mark.parametrize("alpha", [5.0, 2.0])
    def test_indefinite_ellipse_converges_under_the_cap(self, ellipse, alpha):
        # alpha = 5 lies past several Steklov eigenvalues; 2.0 sits next
        # to the pole at 1.9576
        sol = fem_robin_energy(ellipse, alpha)
        assert max(sol.iterations) < oracle._MAXITER
        assert np.isfinite(sol.energy)

    def test_cap_reached_raises_solver_error(self, ellipse, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_MAXITER", 1)
        with pytest.raises(SolverError, match="MINRES"):
            fem_robin_energy(ellipse, 0.5, h_max=0.2, levels=2)
        code = main(["oracle-verify", "--domain", "star", "--rho-cos", "0,0.1",
                     "--alpha", "0.5", "--h-max", "0.2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and "MINRES" in err

    def test_oracle_verify_bytes_ignore_thread_settings(self):
        argv = ["oracle-verify", "--domain", "star", "--rho-cos", "0,0.1,0.05",
                "--alpha", "0.3", "--alpha", "-0.5", "--h-max", "0.2"]
        runs = []
        for robinlab_threads in ("1", "2"):
            for blas_threads in (None, "1", "2"):
                env = dict(os.environ, ROBINLAB_THREADS=robinlab_threads,
                           PYTHONPATH=str(ROOT / "src"))
                env.pop("OPENBLAS_NUM_THREADS", None)
                if blas_threads is not None:
                    env["OPENBLAS_NUM_THREADS"] = blas_threads
                runs.append(subprocess.Popen(
                    [sys.executable, "-c", od.RUNNER, str(ROOT)], env=env,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        results = []
        for proc in runs:
            out, _ = proc.communicate(json.dumps(["robinlab", argv]) + "\n",
                                      timeout=300)
            results.append(json.loads(out))
        assert results[0]["code"] == 0 and len(results[0]["out"].splitlines()) == 3
        assert all(r == results[0] for r in results[1:])


def assert_matches_colamd_spsolve(d, nodes: int) -> None:
    """Robin and Dirichlet solves on d's finest mesh against a reference.

    The reference is SuperLU with its default COLAMD ordering on the
    assembly the oracle used before its stencil, with the free block
    picked by index sets.  Alpha stays off the disc's Steklov spectrum
    (the integers): at alpha=1 the k=1 modes are near-null and any two
    solvers differ along them by ~1e-5, although the energy agrees to
    ~1e-14.
    """
    rho, drho = oracle._rho_callable(d)
    *_, mesh = oracle._mesh_levels(rho, 0.065, 3)
    assert mesh.coords.shape[0] == nodes
    K_ref, f_ref, Mb_ref = coo_assembly(mesh, rho, drho)
    K, f = mesh.assemble()
    Mb = mesh.boundary_mass(rho, drho)
    nf = mesh.n_free
    idx = np.setdiff1d(np.arange(nodes), nf + np.arange(mesh.n_t))
    cases = [(oracle._Block(mesh, K - a * Mb, 1, mesh.n_r), f,
              K_ref - a * Mb_ref, f_ref) for a in (-1.0, 0.5)]
    cases.append((oracle._Block(mesh, K, 1, mesh.n_r - 1), f[:nf],
                  K_ref[idx][:, idx], f_ref[idx]))
    for block, b, A_ref, b_ref in cases:
        got, _ = block.solve(b)
        ref = spla.spsolve(A_ref.tocsc(), b_ref, permc_spec="COLAMD")
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def rmax_star(rmax: float) -> Domain:
    """A three-mode star scaled to maximum radius rmax."""
    a0, cos, sin = 1.0, np.array([0.0, 0.1, 0.06]), np.array([0.0, 0.0, 0.04])
    th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    s = rmax / float(TrigPoly(a0, tuple(cos), tuple(sin))(th).max())
    return Domain.star2d(TrigPoly(a0 * s, tuple(cos * s), tuple(sin * s)))


def coo_assembly(mesh, rho, drho):
    """(K, f, Mb) as the oracle assembled them before its stencil, frozen.

    Nine COO entries per triangle from the P1 gradients, and four per
    boundary edge from 4-point Gauss quadrature on the exact curve.
    """
    det, bmat, cmat = oracle._p1_gradients(mesh.coords[mesh.tris])
    area = 0.5 * det
    kloc = (bmat[:, :, None] * bmat[:, None, :]
            + cmat[:, :, None] * cmat[:, None, :]) * area[:, None, None]
    rows = np.repeat(mesh.tris, 3, axis=1).ravel()
    cols = np.tile(mesh.tris, (1, 3)).ravel()
    n = mesh.coords.shape[0]
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    f = np.zeros(n)
    np.add.at(f, mesh.tris.ravel(), np.repeat(area / 3.0, 3))

    gx, gw = np.polynomial.legendre.leggauss(4)
    dt = 2.0 * np.pi / mesh.n_t
    t0 = mesh.thetas
    tq = t0[:, None] + 0.5 * dt * (gx[None, :] + 1.0)
    r = np.asarray(rho(tq.ravel()), float).reshape(tq.shape)
    rp = np.asarray(drho(tq.ravel()), float).reshape(tq.shape)
    w = 0.5 * dt * gw[None, :] * np.sqrt(r * r + rp * rp)
    n1 = (tq - t0[:, None]) / dt
    n0 = 1.0 - n1
    m00 = (w * n0 * n0).sum(axis=1)
    m01 = (w * n0 * n1).sum(axis=1)
    m11 = (w * n1 * n1).sum(axis=1)
    b = mesh.n_free + np.arange(mesh.n_t)
    bn = np.roll(b, -1)
    Mb = sp.coo_matrix((np.concatenate([m00, m01, m01, m11]),
                        (np.concatenate([b, b, bn, bn]),
                         np.concatenate([b, bn, b, bn]))), shape=(n, n)).tocsr()
    return K, f, Mb


def stencil_matrix(mesh, data):
    """The stencil matrix with entries `data` as a CSR in mesh numbering.

    Ring node (i, j) meets slot s's node on ring i + _SLOT_RING[s] at
    angle j + _SLOT_ANGLE[s]; ring 0 is the centre.
    """
    n_t, n_r = mesh.n_t, mesh.n_r
    n = mesh.coords.shape[0]
    ring, angle = np.divmod(np.arange(n_r * n_t), n_t)
    nbr_ring = ring[:, None] + 1 + oracle._SLOT_RING
    nbr = np.where(nbr_ring == 0, 0, (nbr_ring - 1) * n_t
                   + (angle[:, None] + oracle._SLOT_ANGLE) % n_t + 1)
    keep = nbr_ring <= n_r
    rows = np.repeat(1 + np.arange(n_r * n_t)[:, None], 7, axis=1)[keep]
    vals = data[:-1].reshape(-1, 7)[keep]
    rows = np.concatenate([rows, np.zeros(n_t + 1, dtype=int)])
    cols = np.concatenate([nbr[keep], 1 + np.arange(n_t), [0]])
    vals = np.concatenate([vals, data[7 * np.arange(n_t) + 1], data[-1:]])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestStencil:
    @pytest.mark.parametrize("name", ["disc", "ellipse", "wobbly"])
    def test_matches_frozen_coo_assembly(self, request, name):
        rho, drho = oracle._rho_callable(request.getfixturevalue(name))
        for mesh in oracle._mesh_levels(rho, 0.065, 3):
            n = mesh.coords.shape[0]
            K_ref, f_ref, Mb_ref = coo_assembly(mesh, rho, drho)
            K, f = mesh.assemble()
            Mb = mesh.boundary_mass(rho, drho)
            for got, ref in ((stencil_matrix(mesh, K), K_ref),
                             (stencil_matrix(mesh, Mb), Mb_ref)):
                assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
            assert np.abs(f - f_ref).max() <= 1e-14 * np.abs(f_ref).max()
