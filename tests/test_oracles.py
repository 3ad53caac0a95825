"""Independent oracles from third-party packages: networkx for resistance
distance, bridges, edge connectivity and cut points, sympy for the exact
pseudo-inverse.
Each test is skipped when its package is not installed."""

import random
from fractions import Fraction

import pytest

import mginv.families as fam
from mginv.bounds import SearchConfig, random_pm_graph
from mginv.graphs import MetrizedGraph
from mginv.network import network_for
from tests.conftest import random_multigraph as lazy_multigraph

F = Fraction


def sample_graphs():
    """Random multigraphs (parallel edges, some self-loops), a tree, a
    dumbbell and a few families; all with at least two vertices."""
    rng = random.Random(909)
    graphs = []
    for cfg in ([SearchConfig(vertices=(2, 6), edges=(3, 9))] * 5
                + [SearchConfig(simple_only=True, vertices=(3, 6), edges=(3, 10))] * 3):
        g = random_pm_graph(rng, cfg).graph
        if rng.random() < 0.5:
            p = rng.choice(g.vertices)
            g = MetrizedGraph.build(g.vertices, [(e.u, e.v, e.length) for e in g.edges]
                                    + [(p, p, F(rng.randint(1, 9), 7))])
        graphs.append(g)
    graphs.append(MetrizedGraph.build(
        ["a", "b", "c", "d"],
        [("a", "b", F(1, 2)), ("b", "c", F(1, 3)), ("b", "d", F(1, 5))]))
    graphs.append(MetrizedGraph.build(
        ["a", "b", "c"],
        [("a", "a", F(1)), ("a", "b", F(1, 2)), ("b", "c", F(1, 3)),
         ("b", "c", F(2, 3)), ("c", "c", F(2))]))
    graphs += [fam.complete_equal(5).graph, fam.necklace(4, 3).graph,
               fam.banana([F(1, 3), F(1, 4), F(1, 5)]).graph]
    return graphs


def lazy_multigraphs():
    """The twelve random multigraphs of the lazy-matrix tests (parallel
    edges, a self-loop, a pendant bridge), drawn from the same seed."""
    rng = random.Random(20240817)
    return [lazy_multigraph(rng) for _ in range(12)]


GRAPHS = sample_graphs()
#: the edge-connectivity check runs on more multigraphs
STRUCTURE_GRAPHS = GRAPHS + lazy_multigraphs()


def to_networkx(nx, graph: MetrizedGraph, loops: bool = True):
    g = nx.MultiGraph()
    g.add_nodes_from(graph.vertices)
    for e in graph.edges:
        if loops or not e.is_loop:
            g.add_edge(e.u, e.v, length=float(e.length))
    return g


@pytest.mark.parametrize("k", range(len(GRAPHS)))
def test_resistance_matches_networkx(k):
    nx = pytest.importorskip("networkx")
    graph = GRAPHS[k]
    g = to_networkx(nx, graph)
    net = network_for(graph)
    index = graph.vertex_index
    for p in graph.vertices:
        for q in graph.vertices:
            if p == q:
                continue
            expected = nx.resistance_distance(g, p, q, weight="length",
                                              invert_weight=True)
            assert float(net.r[index[p]][index[q]]) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("k", range(len(STRUCTURE_GRAPHS)))
def test_structure_matches_networkx(k):
    nx = pytest.importorskip("networkx")
    graph = STRUCTURE_GRAPHS[k]
    if any(e.is_loop for e in graph.edges):
        # a self-loop is cut once for the metric reading of connectivity,
        # which networkx does not do; compare on the loopless part
        graph = MetrizedGraph.build(graph.vertices, [(e.u, e.v, e.length)
                                                     for e in graph.edges if not e.is_loop])
    g = to_networkx(nx, graph)
    struct = graph.structure
    assert ({frozenset(graph.edges[i].ends()) for i in struct.bridges}
            == {frozenset(pair) for pair in nx.bridges(g)})
    # nx.edge_connectivity merges parallel edges (it reads 2 on C_{4,3});
    # Stoer-Wagner on edge multiplicities is the multigraph min cut
    weighted = nx.Graph()
    for u, v in g.edges():
        if weighted.has_edge(u, v):
            weighted[u][v]["weight"] += 1
        else:
            weighted.add_edge(u, v, weight=1)
    assert struct.edge_connectivity == nx.stoer_wagner(weighted)[0]
    if graph.is_simple:
        assert struct.edge_connectivity == nx.edge_connectivity(g)


def random_multigraph(rng: random.Random) -> MetrizedGraph:
    """A random spanning tree on 1 to 7 vertices plus random extra edges
    (self-loops, parallel edges, chords), then up to two pendant bridges,
    some ending in a loop."""
    vs = [f"v{i}" for i in range(rng.randint(1, 7))]
    rng.shuffle(vs)
    pairs = [(vs[i], vs[rng.randrange(i)]) for i in range(1, len(vs))]
    for _ in range(rng.randint(0, 8)):
        kind, a = rng.random(), rng.choice(vs)
        if kind < 0.2:
            pairs.append((a, a))
        elif kind < 0.45 and pairs:
            pairs.append(rng.choice(pairs))
        else:
            pairs.append((a, rng.choice(vs)))
    for k in range(rng.choice([0, 0, 1, 2])):
        w = f"w{k}"
        pairs.append((rng.choice(vs), w))
        vs.append(w)
        if rng.random() < 0.5:
            pairs.append((w, w))
    rng.shuffle(pairs)
    return MetrizedGraph.build(vs, [(u, v, F(1)) for u, v in pairs])


def irreducible_by_networkx(nx, graph: MetrizedGraph) -> bool:
    """No bridge, and no cut vertex once loops and parallel edges are
    subdivided away."""
    if graph.structure.bridges:
        return False
    h = graph.normalized()
    return not any(nx.articulation_points(to_networkx(nx, h)))


@pytest.mark.parametrize("k", range(len(GRAPHS)))
def test_irreducible_matches_networkx(k):
    nx = pytest.importorskip("networkx")
    graph = GRAPHS[k]
    assert graph.structure.is_irreducible == irreducible_by_networkx(nx, graph)


def test_irreducible_matches_networkx_random():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4141)
    seen = set()
    for _ in range(400):
        graph = random_multigraph(rng)
        expected = irreducible_by_networkx(nx, graph)
        # every vertex in turn as the DFS root (the first vertex)
        for k in range(graph.num_vertices):
            rooted = MetrizedGraph(graph.vertices[k:] + graph.vertices[:k], graph.edges)
            assert rooted.structure.is_irreducible == expected, rooted
        seen.add((expected, bool(graph.structure.bridges)))
    # irreducible, bridgeless but reducible, and bridged graphs all occur
    assert seen == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("k", range(len(GRAPHS)))
def test_pseudo_inverse_matches_sympy(k):
    sympy = pytest.importorskip("sympy")
    graph = GRAPHS[k]
    index = graph.vertex_index
    n = graph.num_vertices
    lap = sympy.zeros(n, n)
    for e in graph.edges:
        if e.is_loop:
            continue
        c = sympy.Rational(e.length.denominator, e.length.numerator)
        a, b = index[e.u], index[e.v]
        lap[a, a] += c
        lap[b, b] += c
        lap[a, b] -= c
        lap[b, a] -= c
    expected = lap.pinv()
    lplus = network_for(graph).lplus
    for a in range(n):
        for b in range(n):
            x = lplus[a][b]
            assert sympy.Rational(x.numerator, x.denominator) == expected[a, b]
