"""Trace the second variation of the ball through its sign zones.

For a few perturbation mixes, walk xi = alpha R from the stable window
up past the first positive degree and report the zone label, the
theorem bound where one applies, and the gap between the two
independent evaluation routes.  Integer xi values are resonant and are
stepped over.
"""

from dataclasses import dataclass, field

import numpy as np

from robinlab import (
    Domain,
    PerturbationField,
    classify_sign,
)


@dataclass
class ZoneConfig:
    n: int = 2
    xi_stop: float = 3.4
    steps: int = 28
    mixes: dict = field(default_factory=lambda: {
        "k2": {2: 1.0},
        "k3": {3: 1.0},
        "k2+k5": {2: 0.8, 5: 0.6},
    })


def sweep(cfg: ZoneConfig) -> None:
    ball = Domain.ball(cfg.n, 1.0)
    for label, amps in cfg.mixes.items():
        p = PerturbationField.from_modes(cfg.n, amps)
        print(f"\nmix {label}  (n = {cfg.n})")
        print(f"{'xi':>6} {'E_ddot':>12} {'route_gap':>10} "
              f"{'zone':>16} {'bound':>10} ok")
        for xi in np.linspace(0.1, cfg.xi_stop, cfg.steps):
            xi = float(xi)
            if abs(xi - round(xi)) < 0.05 and round(xi) >= 2:
                continue
            sign = classify_sign(ball, xi, p)
            rep = sign.variation
            ok = {True: "yes", False: "NO", None: "-"}[sign.bound_satisfied]
            bound = f"{sign.bound:10.4f}" if np.isfinite(sign.bound) \
                else f"{'-':>10}"
            print(f"{xi:6.3f} {rep.E_ddot:12.5f} {rep.route_gap:10.2e} "
                  f"{sign.zone:>16} {bound} {ok}")


if __name__ == "__main__":
    sweep(ZoneConfig())
