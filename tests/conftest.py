import pytest

from porodim.measure import (
    Bernoulli,
    CantorMiddleHalf,
    CascadeDirichlet,
    CascadeFiniteMixture,
    GeneratorSpec,
    Uniform,
    build_tree_measure,
)

#: (d, model, seed) of dyadic measures at d = 1, 2: product measures,
#: finite-mixture cascades and Dirichlet cascades
SPECS = [
    (1, Bernoulli((0.25, 0.75)), 0),
    (2, Bernoulli((0.1, 0.4, 0.4, 0.1)), 0),
    (1, CascadeFiniteMixture(((0.5, 0.5), (0.1, 0.9)), (0.5, 0.5)), 101),
    (2, CascadeFiniteMixture(((0.25,) * 4, (0.05, 0.35, 0.3, 0.3)), (0.5, 0.5)), 108),
    (1, CascadeDirichlet((0.4, 0.4)), 103),
    (2, CascadeDirichlet((0.5,) * 4), 106),
]


def make_measure(d, model, depth=30, seed=0):
    return build_tree_measure(
        GeneratorSpec(d, model, seed), "uniform", depth, max_level=depth
    )


@pytest.fixture
def uniform1():
    return make_measure(1, Uniform())


@pytest.fixture
def uniform2():
    return make_measure(2, Uniform())


@pytest.fixture
def bern_quarter():
    """The (1/4, 3/4) product measure on [0,1)."""
    return make_measure(1, Bernoulli((0.25, 0.75)))


@pytest.fixture
def point_mass():
    """Point mass at 0 as a one-hot product measure."""
    return make_measure(1, Bernoulli((1.0, 0.0)))


@pytest.fixture
def cantor():
    return make_measure(1, CantorMiddleHalf())
