"""Nystrom layer: Kress weights and the Rayleigh-Ritz Steklov eigensystem."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from robinlab import StarLayerOperator, ellipse_domain, random_star_domain
from robinlab.layerpot import _trace_sign, dominant_degree, kress_log_weights


def cosine_sum_weights(M):
    """Kress weights as the cosine sum R_l = -(4 pi/M) sum_k cos(k t_l)/k - ..."""
    m = M // 2
    t = 2.0 * np.pi * np.arange(M) / M
    k = np.arange(1, m)
    R = -(4.0 * np.pi / M) * (np.cos(np.outer(t, k)) / k).sum(axis=1)
    return R - (4.0 * np.pi / M ** 2) * np.cos(m * t)


def row_trace_sign(vals):
    """The sign rule one row at a time, as it was before one FFT covered all rows."""
    c = np.fft.rfft(vals)
    k = int(np.argmax(np.abs(c)))
    cos_part, sin_part = c[k].real, -c[k].imag
    part = cos_part if abs(cos_part) >= abs(sin_part) else sin_part
    if abs(part) > 1e-8 * vals.size:
        return 1.0 if part > 0 else -1.0
    nz = vals[np.abs(vals) > 1e-12]
    return 1.0 if (nz.size == 0 or nz[0] > 0) else -1.0


def row_dominant_degree(vals):
    return int(np.argmax(np.abs(np.fft.rfft(vals))))


def per_mode_eigensystem(op, n_modes):
    """Eigenvalues and residuals as first computed, through D = A V^{-1} in full.

    Returns (mu, residuals), both unscaled.
    """
    D = sla.lu_solve(op._V_lu, op.A.T, trans=1).T
    w_s = op._c.weights
    m = op.M // 8
    F = np.empty((op.M, 2 * m + 1))
    F[:, 0] = 1.0
    for k in range(1, m + 1):
        F[:, 2 * k - 1] = np.cos(k * op.thetas)
        F[:, 2 * k] = np.sin(k * op.thetas)
    L = sla.cholesky(F.T @ (w_s[:, None] * F), lower=True)
    F = sla.solve_triangular(L, F.T, lower=True).T
    B = F.T @ (w_s[:, None] * (D @ F))
    vals, vecs = sla.eigh(0.5 * (B + B.T))
    order = np.argsort(vals)[:n_modes]
    traces_s = (F @ vecs[:, order]).T
    resid = np.empty(n_modes)
    for i in range(n_modes):
        r = D @ traces_s[i] - vals[order][i] * traces_s[i]
        resid[i] = math.sqrt(float(np.sum(r * r * w_s)))
    return op.gamma * vals[order], op.gamma ** 1.5 * resid


@pytest.mark.parametrize("M", [8, 10, 256, 1024])
def test_kress_weights_match_cosine_sum(M):
    assert np.max(np.abs(kress_log_weights(M) - cosine_sum_weights(M))) < 1e-13


DOMAINS = {"ellipse": ellipse_domain()}
DOMAINS.update({f"star{s}": random_star_domain(np.random.default_rng(s))
                for s in (1, 2, 3)})


@pytest.mark.parametrize("M", [256, 512])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_eigensystem_matches_per_mode_path(name, M):
    op = StarLayerOperator(DOMAINS[name].rho, M)
    n = M // 8
    mu, traces, dens, resid = op.steklov_eigensystem(n)
    mu_ref, resid_ref = per_mode_eigensystem(op, n)
    assert np.all(np.abs(mu - mu_ref) <= 1e-12 * np.maximum(np.abs(mu_ref), 1.0))
    # densities reproduce the traces, which are orthonormal in the boundary weights
    assert np.max(np.abs(op.V @ dens.T * math.sqrt(op.gamma) - traces.T)) < 1e-12
    assert np.max(np.abs((traces * op.weights) @ traces.T - np.eye(n))) < 1e-11
    # residuals of isolated eigenvalues; inside a cluster the vectors are arbitrary
    gap = np.minimum(np.r_[np.inf, np.diff(mu_ref)], np.r_[np.diff(mu_ref), np.inf])
    iso = gap > 1e-6
    assert iso.sum() >= 8
    assert np.all(np.abs(resid[iso] - resid_ref[iso]) <= 1e-3 * resid_ref[iso] + 1e-12)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_trace_sign_follows_larger_part(name):
    # the larger of the cosine and sine parts of each trace's dominant
    # Fourier coefficient is positive, however small the other part is
    op = StarLayerOperator(DOMAINS[name].rho, 256)
    _, traces, _, _ = op.steklov_eigensystem(32)
    c = np.fft.rfft(traces, axis=1)
    top = c[np.arange(len(c)), np.argmax(np.abs(c), axis=1)]
    cos_part, sin_part = top.real, -top.imag
    larger = np.where(np.abs(cos_part) >= np.abs(sin_part), cos_part, sin_part)
    assert np.all(larger > 0)


# rows of 8 nodes whose expected sign is known: exact cosine/sine ties at
# degree 2 (cosine wins), parts below 1e-8 * M (first entry above 1e-12
# decides), and rows with no entry above 1e-12 (+1)
SPECIAL_ROWS = [
    ([1.0, 1.0, -1.0, -1.0] * 2, 1.0),
    ([-1.0, 1.0, 1.0, -1.0] * 2, -1.0),
    ([1.0, -1.0, -1.0, 1.0] * 2, 1.0),
    ([0.0, -3e-12, 5e-12, 0.0, 0.0, 0.0, 0.0, 0.0], -1.0),
    ([1e-13, 4e-12, -5e-12, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0),
    ([1e-13, -2e-13, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0),
    ([0.0] * 8, 1.0),
]


def test_batched_sign_rule_on_ties_and_small_parts():
    rows = np.array([r for r, _ in SPECIAL_ROWS])
    expect = [sign for _, sign in SPECIAL_ROWS]
    assert [row_trace_sign(r) for r in rows] == expect
    assert _trace_sign(rows).tolist() == expect


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_batched_sign_and_degree_match_per_row(name):
    op = StarLayerOperator(DOMAINS[name].rho, 256)
    _, traces, _, _ = op.steklov_eigensystem(32)
    rng = np.random.default_rng(0)
    rows = np.concatenate([traces, -traces, rng.standard_normal((8, 256)),
                           1e-9 * rng.standard_normal((8, 256))])
    assert _trace_sign(rows).tolist() == [row_trace_sign(r) for r in rows]
    assert dominant_degree(rows).tolist() == [row_dominant_degree(r) for r in rows]
