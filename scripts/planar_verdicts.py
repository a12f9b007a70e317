"""Planar optimality verdicts on a random domain corpus.

For each random star domain: the area-perimeter torsion bound against
the finite-element value, the energy comparison with the equal-area
disc inside the low-alpha window, and the crossover threshold
inequality.  Exits nonzero if any verdict fails, so the script doubles
as a slow integration check.

Usage: python3 scripts/planar_verdicts.py [--count N] [--seed S]
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from robinlab import (
    corollary_disc_max,
    fem_dirichlet_T,
    low_alpha,
    pw_upper_bound,
    random_star_domain,
    series_pack,
    surface_area,
    theorem_J_check,
    volume,
)


@dataclass
class CorpusConfig:
    count: int = 6
    seed: int = 1


def run(cfg: CorpusConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    bad = 0
    print(f"{'idx':>3} {'defect':>8} {'T_fem':>11} {'T_star':>11} "
          f"{'E_gap':>10} {'alpha0':>8} {'thresh':>8}  verdict")
    for i in range(cfg.count):
        d = random_star_domain(rng)
        A, L = volume(d), surface_area(d)
        bound = pw_upper_bound(A, L)
        T_fem = fem_dirichlet_T(d)
        jrep = theorem_J_check(d, T_omega=T_fem)
        pack = series_pack(d)       # one basis and torsion per domain
        alpha = low_alpha(d, float(pack.mu[1]))
        crep = corollary_disc_max(d, alpha, pack=pack)
        ok = (T_fem <= bound.T_star and crep.gap >= 0.0
              and crep.chain_ok and jrep.satisfied)
        bad += not ok
        print(f"{i:3d} {bound.defect:8.5f} {T_fem:11.6f} {bound.T_star:11.6f} "
              f"{crep.gap:10.3e} {jrep.alpha0:8.4f} {jrep.threshold:8.4f}  "
              f"{'ok' if ok else 'VIOLATION'}")
    if bad:
        print(f"{bad} violation(s)", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    sys.exit(run(CorpusConfig(count=a.count, seed=a.seed)))
