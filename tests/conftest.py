import random
from fractions import Fraction

import pytest

from mginv.bounds import SearchConfig, random_pm_graph
from mginv.graphs import MetrizedGraph


def random_lengths(rng: random.Random, k: int, den: int = 30):
    return tuple(Fraction(rng.randint(1, den), den) for _ in range(k))


def random_simple_bridgeless(rng: random.Random, vmax=8, emax=14):
    cfg = SearchConfig(simple_only=True, vertices=(3, vmax), edges=(4, emax),
                       genus=(2, 6), max_q=0)
    return random_pm_graph(rng, cfg)


def mixed_graph():
    """A self-loop, a parallel pair and a plain cycle through c."""
    return MetrizedGraph.build(("a", "b", "c"), [
        ("a", "a", Fraction(1, 3)), ("a", "b", Fraction(1, 2)),
        ("a", "b", Fraction(1, 4)), ("b", "c", Fraction(1, 5)),
        ("c", "a", Fraction(1, 6))])


@pytest.fixture
def rng():
    return random.Random(20240817)
