"""Sweep the Robin energy across the Steklov spectrum of one domain.

Prints E(alpha) on a grid that straddles the first few poles, marking
where the series blows up and where the solvability status changes.
Both solution routes are evaluated so their gap is visible in the table.

Usage: python3 scripts/energy_pole_sweep.py [--domain shell|ellipse|random]
"""

import argparse
from dataclasses import dataclass

import numpy as np

from robinlab import (
    ENERGY_COLUMNS,
    Domain,
    ellipse_domain,
    energy_direct,
    energy_series_grid,
    pole_scan,
    random_star_domain,
    series_pack,
)


@dataclass
class SweepConfig:
    domain: str = "ellipse"
    seed: int = 0
    count: int = 40
    margin: float = 0.08     # skip alphas this close to a pole
    n_modes: int = 32
    nodes: int = 256


def build_domain(cfg: SweepConfig) -> Domain:
    if cfg.domain == "shell":
        return Domain.annulus(3, 1.0, 0.5)
    if cfg.domain == "ellipse":
        return ellipse_domain()
    if cfg.domain == "random":
        return random_star_domain(np.random.default_rng(cfg.seed))
    raise SystemExit(f"unknown domain {cfg.domain!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--domain", default="ellipse",
                    choices=("shell", "ellipse", "random"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=40)
    args = ap.parse_args()
    cfg = SweepConfig(domain=args.domain, seed=args.seed, count=args.count)

    d = build_domain(cfg)
    # the series side: basis, torsion and flux coefficients once for the sweep
    pack = series_pack(d, n_modes=cfg.n_modes, M=cfg.nodes)
    poles = pole_scan(d, pack=pack)
    print(f"domain: {cfg.domain}   poles: {[round(p, 6) for p in poles]}")

    # sweep past the first few poles, staying well below the truncation
    hi = (poles[3] if len(poles) > 3 else poles[-1]) + 1.0
    grid = np.linspace(-1.0, max(hi, 1.5), cfg.count)
    print(f"{'alpha':>9} {'E_series':>14} {'E_direct':>14} {'gap':>9}  status")
    for a in grid:
        a = float(a)
        if min(abs(a - p) for p in poles) < cfg.margin:
            print(f"{a:9.4f} {'pole':>14} {'':>14} {'':>9}  skipped")
            continue
        row = dict(zip(ENERGY_COLUMNS, energy_series_grid(pack, [a])[0]))
        direct = energy_direct(d, a, cfg.nodes)
        gap = abs(row["E_total"] - direct)
        print(f"{a:9.4f} {row['E_total']:14.8f} {direct:14.8f} "
              f"{gap:9.2e}  {row['status']}")


if __name__ == "__main__":
    main()
