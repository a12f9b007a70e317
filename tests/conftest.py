import hypothesis
import numpy as np
import pytest

from robinlab import (Domain, PerturbationField, TrigPoly, ball_mode_degrees, ellipse_domain,
                      random_star_domain)

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
