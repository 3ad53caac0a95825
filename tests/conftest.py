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


def random_multigraph(rng: random.Random) -> MetrizedGraph:
    """A random bridgeless multigraph (parallel edges allowed) with a
    self-loop added and a pendant vertex "tail" hung on by a bridge."""
    cfg = SearchConfig(vertices=(2, 6), edges=(3, 10), genus=(1, 5), max_q=2)
    g = random_pm_graph(rng, cfg).graph
    p, q = rng.choice(g.vertices), rng.choice(g.vertices)
    edges = [(e.u, e.v, e.length) for e in g.edges]
    edges += [(p, p, Fraction(rng.randint(1, 9), 7)),
              (q, "tail", Fraction(rng.randint(1, 9), 5))]
    return MetrizedGraph.build(g.vertices + ("tail",), edges)


def mixed_graph():
    """A self-loop, a parallel pair and a plain cycle through c."""
    return MetrizedGraph.build(("a", "b", "c"), [
        ("a", "a", Fraction(1, 3)), ("a", "b", Fraction(1, 2)),
        ("a", "b", Fraction(1, 4)), ("b", "c", Fraction(1, 5)),
        ("c", "a", Fraction(1, 6))])


@pytest.fixture
def rng():
    return random.Random(20240817)
