"""Workload generators and output checks for the robinlab benchmark.

A workload is an endless, seeded stream of CLI invocations (`Op`).
In `corpus_cold` and `fem_audit` every op names fresh domains, so a cache
keyed on the domain could not turn them warm; `alpha_sweep` meets the
ellipse and the shell again in every cycle, as repeated sweeps do.  Each
op also carries the structured inputs its output is checked against; the
CLI itself only ever sees the argv.

Alpha grids use the `--alpha-grid=start:stop:count` form: a negative
start written as a separate token (`--alpha-grid -1:8:40`) is read by
argparse as an option and exits with code 2.

Tolerances are fixed here, before any timing:
- XCHECK_REL bounds the gap between an energy and its independent route
  (direct layer solve, or the closed form on shells and discs).  The
  worst series-vs-direct gap seen on random star domains is about 2e-8.
- FD_REL bounds the finite-difference second variation against the
  modal one; steps 0.01-0.03 with a cubic fit leave about 1e-3.
- TORSION_REL bounds FEM torsion against the Nystrom torsion.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

XCHECK_REL = 1e-6
FD_REL = 1e-2
ROUTE_GAP_REL = 1e-8
SPLIT_REL = 1e-9
TORSION_REL = 1e-5
SUM_REL = 1e-12

# Energy and split grids on star domains stay at alpha < 0, where
# E < T < 0.  For alpha > 0, E crosses zero once between consecutive
# poles, and near each zero the CLI's relative series-tail gate exits 3
# (see bench/README.md); a grid of thousands of points hits that often.
STAR_GRID_LO = (-8.0, -6.0)
STAR_GRID_HI = (-0.6, -0.2)

# fem_audit domains are rescaled to this maximum radius, so every seed
# meshes the same levels (the finest has 31105 nodes at the default h_max).
FEM_RMAX = 1.1


@dataclass
class Op:
    """One CLI invocation plus what its output must satisfy."""

    kind: str
    argv: list
    rows: int                      # rows expected, exclusions included
    spec: dict = field(default_factory=dict)


def _f(x) -> str:
    return repr(float(x))


def _csv(values) -> str:
    return ",".join(_f(v) for v in values)


def _star_coeffs(rng, max_degree=5, amplitude=0.1):
    """Random low-degree perturbation of the unit circle (degrees 2..5)."""
    ks = np.arange(1, max_degree + 1)
    cos = rng.uniform(-amplitude, amplitude, max_degree) / ks
    sin = rng.uniform(-amplitude, amplitude, max_degree) / ks
    cos[0] = sin[0] = 0.0
    return 1.0, cos, sin


def _star_argv(a0, cos, sin) -> list:
    argv = ["--domain", "star", "--radius", _f(a0), "--rho-cos", _csv(cos)]
    return argv + (["--rho-sin", _csv(sin)] if len(sin) else [])


def _rescaled_star(rng, rmax):
    a0, cos, sin = _star_coeffs(rng)
    th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    ks = np.arange(1, cos.size + 1)
    r = a0 + np.cos(np.outer(th, ks)) @ cos + np.sin(np.outer(th, ks)) @ sin
    s = rmax / float(r.max())
    return a0 * s, cos * s, sin * s


def _fresh_seeds(rng):
    seen = set()
    while True:
        s = int(rng.integers(0, 2 ** 31 - 1))
        if s not in seen:
            seen.add(s)
            yield s


def _modes(rng) -> str:
    k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    amp1 = float(rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
    amp2 = float(rng.uniform(-0.5, 0.5))
    return f"k{k1}={amp1!r},k{k2}s={amp2!r}"


def corpus_cold(seed: int):
    """Cold operator builds: corpus verdicts and finite-difference checks.

    The three calls of a cycle cost about the same, so the latency
    quantiles do not sit on a gap between call types.
    """
    rng = np.random.default_rng(seed)
    seeds = _fresh_seeds(rng)
    corpus_count, direct_alphas = 6, 5
    for step in itertools.count():
        slot = step % 3
        if slot == 0:
            s = next(seeds)
            yield Op("corpus", ["corpus", "--count", str(corpus_count),
                                "--seed", str(s)],
                     corpus_count, {"seed": s, "count": corpus_count})
        elif slot == 1:
            a = float(rng.uniform(0.1, 0.9))
            yield Op("second-variation",
                     ["second-variation", "--alpha", _f(a), "--modes", _modes(rng),
                      "--fd-check"], 1, {"route": "series"})
        else:
            argv = ["second-variation", "--modes", _modes(rng), "--fd-check",
                    "--fd-route", "direct"]
            for a in rng.uniform(0.1, 0.9, direct_alphas):
                argv += ["--alpha", _f(a)]
            yield Op("second-variation", argv, direct_alphas, {"route": "direct"})


def alpha_sweep(seed: int):
    """Warm reuse: one operator per call, thousands of series evaluations."""
    from robinlab.geometry import ellipse_domain

    ell = ellipse_domain().rho
    rng = np.random.default_rng(seed)
    # (command, domain, grid count); sizes keep each call near 0.6 s
    cycle = (("energy", "star", 2000), ("energy", "ellipse", 2000),
             ("energy", "shell", 3500), ("split", "star", 500),
             ("split", "ellipse", 160), ("split", "shell", 2500))
    for cmd, dom, n in itertools.cycle(cycle):
        if dom == "shell":
            argv = ["--domain", "annulus", "--dim", "3", "--kappa", "0.5"]
            spec = {"domain": ("annulus", 3, 0.5)}
            if cmd == "energy":
                # the grid passes through the poles 0 and 5 exactly, which
                # the CLI must exclude
                i = int(rng.integers(n // 10, n // 5))
                lo, hi = -5.0 * i / (n - 1 - i), 5.0
            else:
                lo, hi = float(rng.uniform(-3.0, -0.5)), float(rng.uniform(5.5, 8.0))
        else:
            if dom == "star":
                a0, cos, sin = _star_coeffs(rng)
            else:
                a0, cos, sin = ell.a0, np.asarray(ell.cos), np.zeros(0)
            argv = _star_argv(a0, cos, sin)
            spec = {"domain": ("star", a0, tuple(map(float, cos)),
                               tuple(map(float, sin)))}
            lo = float(rng.uniform(*STAR_GRID_LO))
            hi = float(rng.uniform(*STAR_GRID_HI))
        grid = f"{lo!r}:{hi!r}:{n}"
        spec["grid"] = (lo, hi, n)
        yield Op(cmd, [cmd, f"--alpha-grid={grid}"] + argv, n, spec)


def fem_audit(seed: int):
    """FEM oracle audits: Robin energy and torsion on meshes of 31k nodes.

    Two oracle-verify calls per pw-check keep the median and the tail
    latency inside the oracle-verify cluster.
    """
    rng = np.random.default_rng(seed)
    for step in itertools.count():
        a0, cos, sin = _rescaled_star(rng, FEM_RMAX)
        spec = {"domain": ("star", a0, tuple(map(float, cos)),
                           tuple(map(float, sin)))}
        if step % 3 != 1:
            a = float(rng.uniform(0.1, 0.5))
            spec["alpha"] = a
            yield Op("oracle-verify",
                     ["oracle-verify", "--alpha", _f(a)] + _star_argv(a0, cos, sin),
                     1, spec)
        else:
            yield Op("pw-check", ["pw-check"] + _star_argv(a0, cos, sin), 1, spec)


WORKLOADS = {"corpus_cold": corpus_cold, "alpha_sweep": alpha_sweep,
             "fem_audit": fem_audit}

# Calls per cycle of each workload.  Runs end on a cycle boundary, the
# throughput is a median over cycles, and the output digest covers the
# first cycle.
CYCLE = {"corpus_cold": 3, "alpha_sweep": 6, "fem_audit": 3}


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Verdict:
    ok: int = 0            # verified rows
    failed: int = 0        # rows that failed a check, or were lost to an error
    excluded: int = 0      # alphas the CLI skipped near a pole
    problems: list = field(default_factory=list)

    def fail(self, rows: int, why: str) -> None:
        self.failed += max(rows, 0)
        self.problems.append(why)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _domain(spec):
    from robinlab.geometry import Domain, TrigPoly

    kind = spec[0]
    if kind == "annulus":
        return Domain.annulus(spec[1], 1.0, spec[2])
    return Domain.star2d(TrigPoly(spec[1], spec[2], spec[3]))


def _num(row, key) -> float:
    return float(row[key])


def _true(row, key) -> bool:
    return row[key] == "true"


def check(op: Op, rc, out: str, err: str) -> Verdict:
    """Verify one invocation; every expected row ends up verified, failed or excluded.

    NaN in a checked value fails its comparison, so it counts as a failure.
    """
    v = Verdict()
    if rc != 0:
        v.fail(op.rows, f"exit code {rc}: {err.strip()[-200:]}")
        return v
    rows = list(csv.DictReader(io.StringIO(out)))
    try:
        good = _CHECKS[op.kind](op, rows, err, v)
    except (LookupError, ValueError, ArithmeticError, RuntimeError) as exc:
        # malformed output, or the independent route failed (SolverError)
        v.fail(op.rows, f"check raised {exc!r}")
        return v
    if good is None:
        return v
    n_good = sum(good)
    v.ok += n_good
    if n_good < len(good):
        v.fail(len(good) - n_good, f"{op.kind}: {len(good) - n_good} row(s) failed")
    missing = op.rows - v.ok - v.failed - v.excluded
    if missing:
        v.fail(missing, f"{op.kind}: {missing} row(s) missing from the output")
    return v


def _cross_check(good, rows, direct, value, label, v):
    """Compare the fixed sample of rows against an independent route."""
    idx = sorted({0, len(rows) // 2, len(rows) - 1})
    for i in idx:
        if not _close(direct(rows[i]), value(rows[i]), XCHECK_REL):
            good[i] = False
            v.problems.append(f"{label} at alpha={rows[i]['alpha']} disagrees "
                              "with the independent route")


def _check_corpus(op, rows, err, v):
    import robinlab.geometry as geo
    from robinlab.robin_energy import energy_direct

    if [int(r["index"]) for r in rows] != list(range(op.spec["count"])):
        v.fail(op.rows, "corpus indices out of order")
        return None
    good = []
    for r in rows:
        R, a = _num(r, "R"), _num(r, "alpha")
        e_ball = math.pi * R ** 2 * (-R ** 2 / 8.0 + R / (2.0 * a))
        good.append(_true(r, "E_ok") and _true(r, "J_ok")
                    and _close(_num(r, "E_ball"), e_ball, SUM_REL))
    # the CLI draws its domains in row order from one generator
    rng = np.random.default_rng(op.spec["seed"])
    domains = [geo.random_star_domain(rng) for _ in rows]
    _cross_check(good, rows,
                 lambda r: energy_direct(domains[int(r["index"])], _num(r, "alpha")),
                 lambda r: _num(r, "E_domain"), "corpus", v)
    return good


def _check_second_variation(op, rows, err, v):
    return [_true(r, "bound_satisfied")
            and _num(r, "route_gap") <= ROUTE_GAP_REL * max(1.0, abs(_num(r, "E_ddot")))
            and _num(r, "fd_rel_err") <= FD_REL
            for r in rows]


def _grid_alphas(spec) -> np.ndarray:
    lo, hi, n = spec["grid"]
    return np.linspace(lo, hi, n)


def _check_energy(op, rows, err, v):
    from robinlab.robin_energy import energy_direct

    v.excluded = err.count("excluded alpha=")
    alphas = [_num(r, "alpha") for r in rows]
    if len(rows) + v.excluded != op.rows \
            or not set(alphas) <= set(_grid_alphas(op.spec).tolist()):
        v.fail(op.rows - v.excluded, "energy rows do not cover the requested grid")
        return None
    good = []
    for r in rows:
        T, ep, em, et = (_num(r, k) for k in ("T", "E_plus", "E_minus", "E_total"))
        good.append(r["status"] in ("Unique", "Family") and ep >= 0.0 and em <= 0.0
                    and _close(T + ep + em, et, SUM_REL)
                    and _num(r, "tail_bound") <= 1e-6 * max(abs(et), 1e-300))
    d = _domain(op.spec["domain"])
    _cross_check(good, rows, lambda r: energy_direct(d, _num(r, "alpha")),
                 lambda r: _num(r, "E_total"), "energy", v)
    return good


def _check_split(op, rows, err, v):
    from robinlab.robin_energy import energy_direct
    from robinlab.torsion import solve_torsion

    if [_num(r, "alpha") for r in rows] != _grid_alphas(op.spec).tolist():
        v.fail(op.rows, "split rows do not match the requested grid")
        return None
    good = [_true(r, "bound_ok") and _num(r, "E_plus") >= 0.0
            and _num(r, "E_minus") <= 0.0
            and _close(_num(r, "E_plus"), _num(r, "E_plus_series"), SPLIT_REL)
            for r in rows]
    d = _domain(op.spec["domain"])
    T = solve_torsion(d).T
    _cross_check(good, rows, lambda r: energy_direct(d, _num(r, "alpha")),
                 lambda r: T + _num(r, "E_plus") + _num(r, "E_minus"), "split", v)
    return good


def _check_oracle_verify(op, rows, err, v):
    from robinlab.robin_energy import energy_direct

    d = _domain(op.spec["domain"])
    good = [_true(r, "consistent") and _num(r, "alpha") == op.spec["alpha"]
            for r in rows]
    _cross_check(good, rows, lambda r: energy_direct(d, _num(r, "alpha")),
                 lambda r: _num(r, "E_series"), "oracle-verify", v)
    return good


def _check_pw(op, rows, err, v):
    from robinlab.torsion import solve_torsion

    d = _domain(op.spec["domain"])
    T = solve_torsion(d).T
    return [_true(r, "bound_ok") and _close(T, _num(r, "T_fem"), TORSION_REL)
            for r in rows]


_CHECKS = {"corpus": _check_corpus, "second-variation": _check_second_variation,
           "energy": _check_energy, "split": _check_split,
           "oracle-verify": _check_oracle_verify, "pw-check": _check_pw}
