import hypothesis
import numpy as np
import pytest

from robinlab import (Domain, PerturbationField, TrigPoly, ball_mode_degrees, ellipse_domain,
                      energy_series_grid, random_star_domain, series_pack)
from robinlab.robin_energy import EnergyReport

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=25, derandomize=True)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def disc():
    return Domain.ball(2, 1.0)


@pytest.fixture(scope="session")
def ball3():
    return Domain.ball(3, 1.0)


@pytest.fixture(scope="session")
def shell():
    return Domain.annulus(3, 1.0, 0.5)


@pytest.fixture(scope="session")
def ellipse():
    return ellipse_domain()


@pytest.fixture(scope="session")
def wobbly():
    return random_star_domain(np.random.default_rng(7))


@pytest.fixture(scope="session")
def three_mode():
    return Domain.star2d(TrigPoly(1.0, (0.0, 0.12, 0.08), (0.0, 0.0, 0.05)))


def series_report(d, alpha, **pack_kw) -> EnergyReport:
    """The series energy of one alpha on `series_pack(d, **pack_kw)`.

    `energy_series` on a pack of another basis or node count than d's
    default one: the row of the one-alpha grid.
    """
    return EnergyReport(*energy_series_grid(series_pack(d, **pack_kw), [alpha])[0])


def random_perturbation(rng: np.random.Generator, n: int,
                        max_degree: int = 6) -> PerturbationField:
    """Random volume-preserving perturbation up to max_degree.

    Each b_i is uniform in [-1, 1]; degrees 0 (volume) and 1
    (translations) are zeroed.
    """
    degrees = ball_mode_degrees(n, 256)
    upto = int(np.argmax(degrees > max_degree))
    b = rng.uniform(-1.0, 1.0, size=upto)
    b[degrees[:upto] < 2] = 0.0
    return PerturbationField(tuple(b))
