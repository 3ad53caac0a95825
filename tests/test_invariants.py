import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mginv.families as fam
import mginv.invariants as inv
from mginv.bounds import SearchConfig, random_pm_graph
from mginv.graphs import GraphError, MetrizedGraph, PMGraph
from mginv.invariants import (LAMBDA_ROUTES, PHI_ROUTES, TAU_METHODS,
                              THETA_METHODS, CrossValidationError,
                              NotApplicable, _ab_rc_sum, _contraction_rc_sums,
                              _contraction_sum, _rc_sum, _sum_lr,
                              a_invariant, epsilon, genus_identity_residual,
                              identity_checks, invariant_report,
                              lambda_invariant, phi, quick_report, tau, theta,
                              xy)
from mginv.network import (ORACLE_EDGE_CAP, Network, network_for,
                           resistance_oracle)
from tests.conftest import (mixed_graph, random_lengths,
                            random_simple_bridgeless)

F = Fraction


def tau_canonical_measure(graph, base):
    """Independent tau identity used only as a test oracle.

    tau = -(1/4) sum (val(q)-2) r(base,q)
          + (1/2) sum_i 1/(L_i+R_i) * integral of r(base, x) over edge i,
    where the integral has the closed form
    (L^3/6 + L^2 R/2 + L r_a r_b) / (L+R) + L r_c
    coming from the quadratic restriction of the resistance to an edge.
    """
    net = Network(graph)
    vertex_sum = F(0)
    for q in graph.vertices:
        vertex_sum += (graph.valences[q] - 2) * net.resistance(base, q)
    edge_sum = F(0)
    for i, e in enumerate(graph.edges):
        cd = net.circuit(i, base)
        ln = e.length
        integral = ((ln ** 3 / 6 + ln ** 2 * cd.r_i / 2 + ln * cd.r_a * cd.r_b)
                    / (ln + cd.r_i) + ln * cd.r_c)
        edge_sum += integral / (ln + cd.r_i)
    return -vertex_sum / 4 + edge_sum / 2


def reinverted_rc_sums(h):
    """Contraction sums the slow way, kept as the oracle: each contraction
    normalized and inverted afresh."""
    return tuple(_rc_sum(Network(h.contract_edge(i).normalized()), e.u)
                 for i, e in enumerate(h.edges))


CONTRACTION_CASES = {
    "K4": lambda: fam.complete_equal(4),
    "K5": lambda: fam.complete_equal(5, F(7, 3)),
    "C4,2": lambda: fam.necklace(4, 2),
    "C4,3": lambda: fam.necklace(4, 3, F(5)),
    "genus3_beta": lambda: fam.genus3_beta(*(F(k, 7) for k in range(1, 7))),
    "genus3_gamma": lambda: fam.genus3_gamma(*(F(k, 5) for k in (1, 3, 2, 4, 6, 5))),
    "polarized": lambda: PMGraph.of(fam.necklace(3, 2, F(2)).graph, {"p1": 1}),
}


class TestContractionSums:
    @pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
    def test_match_reinversion(self, name):
        h = CONTRACTION_CASES[name]().graph.normalized()
        assert _contraction_rc_sums(network_for(h)) == reinverted_rc_sums(h)
        hf = h.as_float()
        fast = _contraction_rc_sums(network_for(hf))
        assert all(isinstance(x, float) for x in fast)
        assert fast == pytest.approx(reinverted_rc_sums(hf), rel=1e-10)

    @pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
    def test_refinement_independent(self, name):
        # the fast path sums over the contraction as it comes, parallel
        # edges included; the oracle normalizes it first
        h = CONTRACTION_CASES[name]().graph.normalized()
        for i, e in enumerate(h.edges):
            c = h.contract_edge(i)
            assert _rc_sum(Network(c), e.u) == _rc_sum(Network(c.normalized()), e.u)

    def test_random_graphs(self, rng):
        for _ in range(4):
            h = random_simple_bridgeless(rng).graph
            assert _contraction_rc_sums(network_for(h)) == reinverted_rc_sums(h)

    def test_report_inverts_once_per_vertex_set(self, monkeypatch):
        import mginv.network as network
        sizes = []
        invert = network.invert_matrix

        def counted(rows):
            sizes.append(len(rows))
            return invert(rows)

        monkeypatch.setattr(network, "invert_matrix", counted)
        network._network.cache_clear()
        invariant_report(fam.complete_equal(6, F(11, 13)))
        assert sizes == [6]
        sizes.clear()
        invariant_report(fam.necklace(5, 2, F(11, 13)))  # and its normalization
        assert sizes == [5, 10]

    def test_quick_report_inverts_once(self, monkeypatch):
        # a loop and a parallel pair: theta reads the graph's own network,
        # so the normalized graph is never inverted
        import mginv.network as network
        sizes = []
        invert = network.invert_matrix

        def counted(rows):
            sizes.append(len(rows))
            return invert(rows)

        monkeypatch.setattr(network, "invert_matrix", counted)
        network._network.cache_clear()
        pg = PMGraph.of(mixed_graph(), {"c": 1})
        assert not pg.graph.is_simple
        quick_report(pg)
        assert sizes == [3]

    def test_quick_report_forms_no_fraction_matrix(self):
        # a rational quick_report reads only P / D: neither L+ nor r is
        # formed; floats keep L+ and read r, and the full report forms r on
        # the graph (crossterm) and both on its normalization (laplacian,
        # contractions)
        import mginv.network as network
        pg = PMGraph.of(mixed_graph(), {"c": 1})

        def formed(g):
            net = network_for(g)
            assert net.sums  # the memoized network the report read
            return {"lplus", "r"} & set(vars(net))

        network._network.cache_clear()
        quick_report(pg)
        assert formed(pg.graph) == set()
        network._network.cache_clear()
        quick_report(pg.as_float())
        assert formed(pg.graph.as_float()) == {"lplus", "r"}
        network._network.cache_clear()
        invariant_report(pg)
        assert formed(pg.graph) == {"r"}
        assert formed(pg.graph.normalized()) == {"lplus", "r"}

    @pytest.mark.parametrize("to_float", [False, True], ids=["rational", "float"])
    def test_quick_report_circuit_calls(self, to_float, monkeypatch):
        # tau 'edges' and x/y share one edge pass: the integer pass makes
        # no circuit call, the float pass one per edge (the loop included)
        import mginv.network as network
        calls = []
        circuit = network.Network.circuit

        def counted(net, i, p):
            calls.append((i, p))
            return circuit(net, i, p)

        monkeypatch.setattr(network.Network, "circuit", counted)
        network._network.cache_clear()
        pg = PMGraph.of(mixed_graph(), {"c": 1})
        quick_report(pg.as_float() if to_float else pg)
        assert calls == ([(i, "a") for i in range(5)] if to_float else [])


class TestTau:
    def test_circle_by_all_methods(self):
        for length in (F(1), F(3, 7), F(12, 5)):
            pg = fam.circle(length)
            for method in ("edges", "laplacian", "crossterm", "contraction"):
                assert tau(pg.graph, method) == length / 12, method

    def test_k4(self):
        g = fam.complete_equal(4).graph
        for method in ("edges", "laplacian", "crossterm", "contraction"):
            assert tau(g, method) == F(5, 96), method

    def test_banana(self):
        g = fam.banana([F(1, 3)] * 3).graph
        assert tau(g) == F(7, 108)
        assert tau(g, "laplacian") == F(7, 108)
        assert tau(g, "contraction") == F(7, 108)

    def test_single_edge_tree(self):
        g = MetrizedGraph.build(["p", "q"], [("p", "q", F(5, 4))])
        assert tau(g, "edges") == F(5, 16)
        assert tau(g, "laplacian") == F(5, 16)

    def test_tree_is_quarter_length(self, rng):
        # every edge of a tree is a bridge, so each contributes L/4
        g = MetrizedGraph.build(
            ["a", "b", "c", "d"],
            [("a", "b", F(1, 2)), ("b", "c", F(1, 3)), ("b", "d", F(1, 5))])
        assert tau(g, "edges") == g.total_length() / 4
        assert tau(g, "laplacian") == g.total_length() / 4

    def test_crossterm_requires_bridgeless(self):
        g = MetrizedGraph.build(["p", "q"], [("p", "q", F(1))])
        with pytest.raises(GraphError, match="bridgeless"):
            tau(g, "crossterm")
        with pytest.raises(GraphError, match="bridgeless"):
            tau(g, "contraction")

    def test_unknown_method(self):
        with pytest.raises(GraphError, match="unknown tau method"):
            tau(fam.circle().graph, "magic")

    def test_base_independence(self, rng):
        g = random_simple_bridgeless(rng).graph
        values = {tau(g, "crossterm", base=p) for p in g.vertices}
        assert len(values) == 1
        values = {tau(g, "edges", base=p) for p in g.vertices}
        assert len(values) == 1

    def test_additivity_under_join(self, rng):
        from mginv.graphs import one_point_join
        g1 = fam.banana(random_lengths(rng, 3)).graph
        g2 = fam.complete_equal(4, F(2, 3)).graph
        j = one_point_join(g1, "p", g2, "p1")
        assert tau(j) == tau(g1) + tau(g2)
        assert j.total_length() == g1.total_length() + g2.total_length()

    def test_upper_bounds(self, rng):
        for _ in range(5):
            pg = random_simple_bridgeless(rng)
            t = tau(pg.graph)
            ell = pg.graph.total_length()
            assert t <= ell / 4
            assert t <= ell / 12  # bridgeless

    def test_canonical_measure_identity(self, rng):
        for _ in range(5):
            g = random_simple_bridgeless(rng).graph
            t = tau(g)
            for base in g.vertices:
                assert tau_canonical_measure(g, base) == t


def normalized_theta(pg: PMGraph):
    """The double sum of w_a w_b r(a, b) over the normalized vertex set,
    on a freshly inverted network: the test oracle for theta 'definition'."""
    h = pg.normalized()
    g = h.graph
    r = Network(g).r
    w = [h.canonical_weight(p) for p in g.vertices]
    total = F(0)
    for a in range(g.num_vertices):
        for b in range(g.num_vertices):
            total = total + w[a] * w[b] * r[a][b]
    return total


def theta_cases():
    rng = random.Random(5150)
    cases = [random_pm_graph(rng, cfg) for cfg in
             [SearchConfig()] * 100
             + [SearchConfig(vertices=(1, 6), edges=(1, 11), genus=(1, 6),
                             max_q=2)] * 100]
    cases += [
        PMGraph.of(mixed_graph(), {"c": 1}),
        PMGraph.of(fam.banana([F(1, 4), F(3, 4)]).graph, {"p": 1}),
        fam.bouquet([F(1, 3), F(1, 6), F(1, 2)]),
        fam.circle(F(5, 7)),
        fam.necklace(4, 3),
        PMGraph.of(MetrizedGraph.build(["p", "q"], [("p", "q", F(1))]),
                   {"p": 1, "q": 1}),
    ]
    return cases


def reference_tau_edges(net, p):
    """tau 'edges' summed edge by edge from ``EdgeCircuitData``, kept as the
    oracle of the shared edge pass, with the float operations in its order."""
    total = F(0)
    for i, e in enumerate(net.graph.edges):
        if i in net.bridges:
            total = total + 3 * e.length
            continue
        cd = net.circuit(i, p)
        diff = cd.r_a - cd.r_b
        denom = (e.length + cd.r_i) ** 2
        total = total + (e.length ** 3 + 3 * e.length * diff * diff) / denom
    return total / 12


def reference_xy(net, p):
    """x/y summed edge by edge from ``EdgeCircuitData``, the oracle's twin."""
    x = y = F(0)
    for i, e in enumerate(net.graph.edges):
        ln = e.length
        if i in net.bridges:
            y = y + ln
            continue
        cd = net.circuit(i, p)
        denom = (ln + cd.r_i) ** 2
        diff2 = (cd.r_a - cd.r_b) ** 2
        x = x + (ln * ln * cd.r_i + F(3, 4) * ln * cd.r_i ** 2
                 - F(3, 4) * ln * diff2) / denom
        y = y + (F(1, 4) * ln * cd.r_i ** 2 + F(3, 4) * ln * diff2) / denom
    return x, y


#: graphs with every kind of edge the shared pass treats apart
EDGE_SUM_CASES = {
    "mixed": mixed_graph,
    # two loops joined by a bridge
    "dumbbell": lambda: MetrizedGraph.build(
        ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))]),
    # two triangles joined by a bridge: bridges next to circuit edges
    "bridged_triangles": lambda: MetrizedGraph.build(
        ("a", "b", "c", "d", "e", "f"),
        [("a", "b", F(1, 3)), ("b", "c", F(2, 5)), ("c", "a", F(1, 7)),
         ("c", "d", F(3, 2)), ("d", "e", F(1, 4)), ("e", "f", F(5, 6)),
         ("f", "d", F(2, 9))]),
    "circle": lambda: fam.circle(F(3, 7)).graph,
    "bouquet": lambda: fam.bouquet([F(1, 3), F(2, 5), F(1)]).graph,
    "C4,3": lambda: fam.necklace(4, 3, F(5)).graph,
    "K4_q": lambda: PMGraph.of(MetrizedGraph.build(
        ("a", "b", "c", "d"),
        [(u, v, F(k, 29)) for (u, v), k in zip(
            (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
            (1, 2, 3, 5, 7, 11))]), {"a": 1, "c": 2}).graph,
    "point": lambda: MetrizedGraph.build(["p"], []),
}


class TestEdgeSums:
    """tau 'edges' and x/y read one memoized pass: in integers on L+ = P/D
    for rational networks, in one float loop otherwise."""

    @staticmethod
    def check(graph):
        for g in (graph, graph.as_float()):
            # an edgeless graph stays rational under as_float
            assert (network_for(g).integer is not None) == (g.backend == "rational")
            oracle = Network(g)
            for p in g.vertices:
                got = (tau(g, "edges", p), *xy(g, p))
                ref = (reference_tau_edges(oracle, p), *reference_xy(oracle, p))
                # exact on rationals, bit for bit on floats
                assert got == ref, p
                assert [type(v) for v in got] == [type(v) for v in ref], p

    @pytest.mark.parametrize("name", sorted(EDGE_SUM_CASES))
    def test_named_graphs(self, name):
        self.check(EDGE_SUM_CASES[name]())

    def test_random_graphs(self, rng):
        cfg = SearchConfig()
        for _ in range(50):
            self.check(random_pm_graph(rng, cfg).graph)

    def test_one_pass_per_base(self):
        # tau 'edges' and x/y at one base share one memo entry
        g = fam.necklace(3, 2).graph
        net = network_for(g)
        net.sums.clear()
        tau(g, "edges")
        xy(g)
        xy(g, "p2")
        assert sorted(k for k in net.sums if k[0] == "_edge_sums") == [
            ("_edge_sums", "p1"), ("_edge_sums", "p2")]

    def test_contracted_network_has_no_integer_form(self):
        net = network_for(fam.complete_equal(4).graph)
        assert net.integer is not None
        assert net.contracted(0).integer is None


def reference_rc_sum(net, p):
    """B_p summed edge by edge from ``EdgeCircuitData``, kept as the oracle
    of the integer sum, with the float operations in the float path's order."""
    total = F(0)
    for i, e in enumerate(net.graph.edges):
        cd = net.circuit(i, p)
        total = total + e.length * cd.r_c / (e.length + cd.r_i)
    return total


def reference_ab_rc_sum(net, p):
    """A_p summed edge by edge from ``EdgeCircuitData``."""
    total = F(0)
    for i, e in enumerate(net.graph.edges):
        cd = net.circuit(i, p)
        total = total + (cd.r_a * cd.r_b + cd.r_i * cd.r_c) / (e.length + cd.r_i)
    return total


def reference_sum_lr(net):
    """sum of L_i R_i / (L_i + R_i) from ``edge_resistance``."""
    total = F(0)
    for i, e in enumerate(net.graph.edges):
        if i in net.bridges:
            total = total + e.length
        elif not e.is_loop:
            r = net.edge_resistance(i)
            total = total + e.length * r / (e.length + r)
    return total


def reference_genus_residual(net):
    """sum of L_i / (L_i + R_i) over the non-bridges, minus the genus."""
    total = F(0)
    for i, e in enumerate(net.graph.edges):
        if i not in net.bridges:
            r = net.edge_resistance(i)
            total = total + e.length / (e.length + r)
    return total - net.graph.genus()


def reference_contraction_sum(net):
    """sum of R_i / (L_i + R_i) times the contraction's r_c sum."""
    total = F(0)
    for i, (e, inner) in enumerate(zip(net.graph.edges, _contraction_rc_sums(net))):
        r = net.edge_resistance(i)
        total = total + r / (e.length + r) * inner
    return total


#: bridgeless, with a self-loop, parallel edges and numerators a_i > 1
LOOPED = MetrizedGraph.build(("a", "b", "c", "d"), [
    ("a", "a", F(2, 3)), ("a", "b", F(3, 4)), ("a", "b", F(5, 7)),
    ("b", "c", F(2, 5)), ("c", "d", F(7, 4)), ("d", "a", F(3, 2)),
    ("a", "c", F(5, 6))])


class TestCircuitSums:
    """B_p, A_p, sum L_i R_i/(L_i+R_i), the genus identity and the
    contraction sum: in integers on L+ = P/D for rational networks, through
    ``circuit`` and ``edge_resistance`` otherwise."""

    @staticmethod
    def check(graph):
        for g in (graph, graph.as_float()):
            net, oracle = Network(g), Network(g)
            pairs = [(_sum_lr(net), reference_sum_lr(oracle)),
                     (genus_identity_residual(g), reference_genus_residual(oracle))]
            if not g.structure.bridges:
                for p in g.vertices:
                    pairs.append((_rc_sum(net, p), reference_rc_sum(oracle, p)))
                    pairs.append((_ab_rc_sum(net, p), reference_ab_rc_sum(oracle, p)))
                    _rc_sum(net, p)
                for name in ("_rc_sum", "_ab_rc_sum"):
                    assert sorted(k for k in net.sums if k[0] == name) == sorted(
                        (name, p) for p in g.vertices)
                if not any(e.is_loop for e in g.edges):
                    pairs.append((_contraction_sum(net),
                                  reference_contraction_sum(oracle)))
            # exact on rationals, bit for bit on floats
            for got, ref in pairs:
                assert got == ref
                assert type(got) is type(ref)

    @pytest.mark.parametrize("name", sorted(EDGE_SUM_CASES))
    def test_named_graphs(self, name):
        # on the bridged ones only sum L_i R_i/(L_i+R_i) and the genus
        # identity apply
        self.check(EDGE_SUM_CASES[name]())

    def test_looped_graph(self):
        self.check(LOOPED)
        self.check(LOOPED.normalized())

    def test_random_graphs(self, rng):
        cfg = SearchConfig()
        for _ in range(50):
            g = random_pm_graph(rng, cfg).graph
            self.check(g)
            self.check(g.normalized())

    @pytest.mark.parametrize("to_float", [False, True], ids=["rational", "float"])
    def test_report_circuit_calls(self, to_float, monkeypatch):
        # the rational report calls circuit only on the contracted networks,
        # which have no integer form; the float report on every network
        import mginv.network as network
        calls = []
        circuit = network.Network.circuit

        def counted(net, i, p):
            calls.append(net.integer is None)
            return circuit(net, i, p)

        monkeypatch.setattr(network.Network, "circuit", counted)
        network._network.cache_clear()
        pg = PMGraph.of(LOOPED)
        rep = invariant_report(pg.as_float() if to_float else pg)
        assert set(rep.tau_methods) == set(TAU_METHODS)
        assert set(rep.theta_methods) == set(THETA_METHODS)
        assert calls == [True] * (267 if to_float else 90)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32), st.integers(-9, 9))
def test_quick_report_scales_exactly(seed, k):
    # every invariant is homogeneous of degree 1 in the lengths; scaling by
    # 10^k drives the integer pass through very large and very small D
    pg = random_pm_graph(random.Random(seed), SearchConfig())
    t = F(10) ** k
    r0, r1 = quick_report(pg), quick_report(pg.scaled(t))
    for name in ("ell", "tau", "theta", "epsilon", "a", "phi", "lam", "x", "y"):
        assert getattr(r1, name) == t * getattr(r0, name), name
    assert r1.delta == {i: t * v for i, v in r0.delta.items()}
    assert (r1.genus, r1.pm_genus) == (r0.genus, r0.pm_genus)


class TestTheta:
    def test_k4_all_methods(self):
        pg = fam.complete_equal(4)
        for method in ("definition", "second", "third", "fourth"):
            assert theta(pg, method) == 1, method

    def test_necklace(self):
        for v, n in ((3, 2), (4, 3)):
            pg = fam.necklace(v, n)
            expected = F(2 * (n - 1) ** 2 * (v * v - 1), 3 * n * n)
            assert theta(pg) == expected

    def test_definition_matches_normalized_sum(self):
        cases = theta_cases()
        assert sum(not pg.graph.is_simple for pg in cases) >= 50
        for pg in cases:
            expected = normalized_theta(pg)
            assert theta(pg) == expected
            twin = pg.as_float()
            got = theta(twin)
            for ref in (normalized_theta(twin), float(expected)):
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * float(
                    pg.graph.total_length()))

    def test_bouquet_zero(self):
        pg = fam.bouquet([F(1, 3), F(1, 3), F(1, 3)])
        assert theta(pg) == 0
        assert theta(pg, "second") == 0

    def test_upper_bound_vs_tau(self, rng):
        # theta <= 8 (gbar - 1)^2 tau for pm-genus >= 2
        for _ in range(5):
            pg = random_simple_bridgeless(rng)
            gbar = pg.pm_genus()
            if gbar < 2:
                continue
            assert theta(pg) <= 8 * (gbar - 1) ** 2 * tau(pg.graph)

    def test_preconditions(self):
        tree = PMGraph.of(MetrizedGraph.build(["p", "q"], [("p", "q", F(1))]),
                          {"p": 1, "q": 1})
        with pytest.raises(GraphError):
            theta(tree, "second")
        polarized = PMGraph.of(fam.complete_equal(4).graph, {"p1": 1})
        with pytest.raises(GraphError, match="q identically zero"):
            theta(polarized, "second")
        point = MetrizedGraph.build(["p"], [])
        with pytest.raises(GraphError, match="vertices"):
            tau(point, "contraction")
        # a circle given as one loop normalizes to a triangle, so the
        # contraction methods do apply to it
        assert theta(fam.circle(), "third") == 0


def reference_theta(pg: PMGraph, r) -> F:
    """theta 'definition' as the double sum of w_a w_b r(a, b) over the
    resistance matrix ``r``, zero weights skipped, in the float path's
    order."""
    w = [pg.canonical_weight(p) for p in pg.graph.vertices]
    total = F(0)
    for a, wa in enumerate(w):
        if not wa:
            continue
        for b, wb in enumerate(w):
            if wb:
                total = total + wa * wb * r[a][b]
    return total


def oracle_theta(pg: PMGraph) -> F:
    """The same double sum on spanning-tree resistances."""
    g = pg.graph
    support = [p for p in g.vertices if pg.canonical_weight(p)]
    total = F(0)
    for p, q in combinations(support, 2):
        total += (2 * pg.canonical_weight(p) * pg.canonical_weight(q)
                  * resistance_oracle(g, p, q))
    return total


def polarizations(graph: MetrizedGraph) -> list[PMGraph]:
    """``graph`` with q = 1 where the canonical divisor needs it, and with
    q raised further at the first and the last vertex."""
    q = {p: 1 for p, val in graph.valences.items() if val < 2}
    if graph.genus() + sum(q.values()) < 1:
        q[graph.vertices[0]] = 1
    more = dict(q)
    more[graph.vertices[0]] = more.get(graph.vertices[0], 0) + 1
    more[graph.vertices[-1]] = more.get(graph.vertices[-1], 0) + 2
    return [PMGraph.of(graph, q), PMGraph.of(graph, more)]


class TestThetaDefinition:
    """theta 'definition' on L+ = P / D is one fraction,
    (2 W sum w_a P_aa - 2 w^T P w) / D; on floats the double loop on r."""

    @staticmethod
    def cases():
        cases = [pg for make in EDGE_SUM_CASES.values()
                 for pg in polarizations(make())]
        rng = random.Random(4242)
        for _ in range(50):
            pg = random_pm_graph(rng, SearchConfig())
            cases += [pg, pg.normalized()]
        return cases

    def test_matches_double_sum(self):
        cases = self.cases()
        assert any(pg.graph.structure.bridges and pg.q_total for pg in cases)
        assert any(pg.graph.num_vertices == 1 and not pg.graph.edges
                   for pg in cases)
        for pg in cases:
            for twin in (pg, pg.as_float()):
                got = theta(twin)
                ref = reference_theta(twin, Network(twin.graph).r)
                # exact on rationals, bit for bit on floats
                assert got == ref
                assert type(got) is type(ref)

    def test_matches_oracle_resistances(self):
        checked = 0
        for pg in self.cases():
            if pg.graph.num_edges <= ORACLE_EDGE_CAP:
                assert theta(pg) == oracle_theta(pg)
                checked += 1
        assert checked >= 100


class TestDerivedInvariants:
    def test_k4_values(self):
        pg = fam.complete_equal(4)
        # derived from tau = 5/96 and theta = 1 with gbar = 3
        assert epsilon(pg) == F(11, 36)
        assert a_invariant(pg) == F(37, 864)
        assert phi(pg) == F(17, 288)
        assert lambda_invariant(pg) == F(25, 224)

    def test_circle(self):
        pg = fam.circle(F(7, 2))
        assert epsilon(pg) == 0
        assert a_invariant(pg) == F(7, 24)  # (2-1)/1 * tau = ell/12
        assert phi(pg) == 0
        assert lambda_invariant(pg) == F(7, 24)

    def test_phi_routes_agree(self, rng):
        for _ in range(4):
            pg = random_simple_bridgeless(rng)
            assert phi(pg, "main1") == phi(pg, "direct")

    def test_lambda_routes_agree(self, rng):
        for _ in range(4):
            pg = random_simple_bridgeless(rng)
            vals = {lambda_invariant(pg, route)
                    for route in ("cor", "prop_lambda", "second", "second2")}
            assert len(vals) == 1

    def test_lambda_contraction_routes_use_given_tau(self):
        pg = fam.complete_equal(4)
        g = pg.graph.genus()
        t = tau(pg.graph)
        for route, weight in (("second", F(3 * g + 3, 8 * g + 4)),
                              ("second2", F(3 * g + 3, 4 * g + 2))):
            shifted = lambda_invariant(pg, route, t + 1)
            assert shifted - lambda_invariant(pg, route, t) == weight, route

    def test_routes_with_polarization(self, rng):
        g = fam.complete_equal(4).graph
        pg = PMGraph.of(g, {"p1": 2, "p3": 1})
        assert phi(pg, "main1") == phi(pg, "direct")
        assert lambda_invariant(pg, "cor") == lambda_invariant(pg, "prop_lambda")

    def test_route_preconditions(self):
        tree = PMGraph.of(MetrizedGraph.build(["p", "q"], [("p", "q", F(1))]),
                          {"p": 1, "q": 1})
        with pytest.raises(GraphError, match="bridgeless"):
            phi(tree, "direct")
        with pytest.raises(GraphError, match="bridgeless"):
            lambda_invariant(tree, "prop_lambda")


def reference_routes(pg: PMGraph) -> dict[str, dict[str, bool]]:
    """Which routes apply, by the predicates the report once tested itself;
    kept here as the reference the route guards must match."""
    graph = pg.graph
    bridgeless = not graph.structure.bridges
    simple_pol = pg.is_simple_polarization
    contracts = bridgeless and graph.normalized().num_vertices >= 3
    return {
        "tau": {"edges": True, "laplacian": True, "crossterm": bridgeless,
                "contraction": contracts},
        "theta": {"definition": True, "second": bridgeless and simple_pol,
                  "third": contracts and simple_pol,
                  "fourth": contracts and simple_pol},
        "phi": {"main1": True, "direct": bridgeless},
        "lambda": {"cor": True, "prop_lambda": bridgeless,
                   "second": contracts and simple_pol,
                   "second2": contracts and simple_pol},
    }


def route_calls(pg: PMGraph) -> dict[str, dict]:
    return {
        "tau": {m: lambda m=m: tau(pg.graph, m) for m in TAU_METHODS},
        "theta": {m: lambda m=m: theta(pg, m) for m in THETA_METHODS},
        "phi": {r: lambda r=r: phi(pg, r) for r in PHI_ROUTES},
        "lambda": {r: lambda r=r: lambda_invariant(pg, r) for r in LAMBDA_ROUTES},
    }


def bridged(rng) -> PMGraph:
    """Two random bridgeless graphs joined by a bridge."""
    cfg = SearchConfig(vertices=(3, 5), edges=(4, 7), max_q=1)
    left, right = (random_pm_graph(rng, cfg) for _ in range(2))
    verts = [f"L{p}" for p in left.graph.vertices] + [f"R{p}" for p in right.graph.vertices]
    edges = ([(f"L{e.u}", f"L{e.v}", e.length) for e in left.graph.edges]
             + [(f"R{e.u}", f"R{e.v}", e.length) for e in right.graph.edges]
             + [("Lp1", "Rp1", F(1, 3))])
    q = {f"L{p}": k for p, k in left.q.items()}
    q.update({f"R{p}": k for p, k in right.q.items()})
    return PMGraph.of(MetrizedGraph.build(verts, edges), q)


def applicability_cases():
    rng = random.Random(515)
    cases = {f"random{k}": random_pm_graph(rng, cfg) for k, cfg in enumerate(
        [SearchConfig()] * 4 + [SearchConfig(max_q=0)] * 3
        + [SearchConfig(simple_only=True, max_q=0, edges=(4, 12))] * 2
        + [SearchConfig(max_q=2, genus=(3, 6))] * 2)}
    cases.update({
        "bridged_random": bridged(rng),
        "tree": PMGraph.of(MetrizedGraph.build(["p", "q"], [("p", "q", F(1))]),
                           {"p": 1, "q": 1}),
        "dumbbell": PMGraph.of(MetrizedGraph.build(
            ["a", "b"], [("a", "a", F(1)), ("a", "b", F(1, 2)), ("b", "b", F(2))])),
        "polarized_k4": PMGraph.of(fam.complete_equal(4).graph, {"p1": 1}),
        "polarized_banana": PMGraph.of(fam.banana([F(1, 2), F(1, 3)]).graph, {"p": 1}),
        "circle_loop": fam.circle(F(3, 2)),
        "bouquet": fam.bouquet([F(1, 2), F(1, 3), F(1, 4)]),
        "loops_and_parallels": PMGraph.of(MetrizedGraph.build(
            ["a", "b", "c"], [("a", "a", F(1, 3)), ("a", "b", F(1, 2)),
                              ("a", "b", F(1, 5)), ("b", "c", F(1)),
                              ("c", "a", F(2, 3)), ("c", "c", F(1, 4))])),
        "point": PMGraph.of(MetrizedGraph.build(["p"], []), {"p": 1}),
    })
    return cases


APPLICABILITY_CASES = applicability_cases()


class TestRouteApplicability:
    @pytest.mark.parametrize("name", sorted(APPLICABILITY_CASES))
    def test_guards_match_reference(self, name):
        pg = APPLICABILITY_CASES[name]
        expected = reference_routes(pg)
        for invariant, calls in route_calls(pg).items():
            for route, call in calls.items():
                if expected[invariant][route]:
                    call()
                else:
                    with pytest.raises(NotApplicable):
                        call()

    @pytest.mark.parametrize("name", sorted(APPLICABILITY_CASES))
    def test_guard_precedes_network_work(self, name, monkeypatch):
        pg = APPLICABILITY_CASES[name]
        expected = reference_routes(pg)

        def no_network(graph):
            raise AssertionError("network work before the route guard")

        monkeypatch.setattr(inv, "network_for", no_network)
        for invariant, calls in route_calls(pg).items():
            for route, call in calls.items():
                if not expected[invariant][route]:
                    with pytest.raises(NotApplicable):
                        call()

    @pytest.mark.parametrize("name", sorted(APPLICABILITY_CASES))
    def test_report_runs_the_applicable_routes(self, name):
        pg = APPLICABILITY_CASES[name]
        expected = reference_routes(pg)
        rep = invariant_report(pg)
        for invariant, methods in (("tau", rep.tau_methods),
                                   ("theta", rep.theta_methods)):
            assert list(methods) == [r for r, ok in expected[invariant].items() if ok]

    def test_only_not_applicable_is_skipped(self, monkeypatch):
        pg = fam.complete_equal(4)

        def broken(graph):
            raise GraphError("disconnected input")

        monkeypatch.setattr(inv, "tau_contraction", broken)
        with pytest.raises(GraphError, match="disconnected input"):
            invariant_report(pg)

    def test_not_applicable_is_a_graph_error(self):
        assert issubclass(NotApplicable, GraphError)


class TestXY:
    def test_circle_x_equals_y(self):
        for k in (1, 2, 5):
            x, y = xy(fam.circle(F(1), num_vertices=k).graph)
            assert x == y

    def test_bridge_limits(self):
        g = MetrizedGraph.build(["p", "q"], [("p", "q", F(3, 5))])
        assert xy(g) == (0, F(3, 5))

    def test_equal_length_sum(self, rng):
        # x + y = (v-1)/e * ell when all edge lengths are equal
        pg = fam.complete_equal(5, F(7, 3))
        x, y = xy(pg.graph)
        v, e = 5, 10
        assert x + y == F(v - 1, e) * F(7, 3)

    def test_base_independence(self, rng):
        g = random_simple_bridgeless(rng).graph
        assert len({xy(g, base=p) for p in g.vertices}) == 1

    def test_tau_identity(self, rng):
        for _ in range(4):
            pg = random_simple_bridgeless(rng)
            g = pg.graph
            x, y = xy(g)
            assert tau(g) == g.total_length() / 12 - x / 6 + y / 6


class TestGenusResidual:
    def test_zero_on_families(self):
        for pg in (fam.complete_equal(4), fam.necklace(5, 3),
                   fam.banana([F(1, 5), F(2, 5), F(2, 5)])):
            assert genus_identity_residual(pg.graph) == 0

    def test_zero_on_random(self, rng):
        for _ in range(5):
            assert genus_identity_residual(random_simple_bridgeless(rng).graph) == 0


class TestReport:
    def test_k4_report(self):
        rep = invariant_report(fam.complete_equal(4))
        assert (rep.tau, rep.theta, rep.epsilon, rep.a, rep.phi, rep.lam) == \
            (F(5, 96), F(1), F(11, 36), F(37, 864), F(17, 288), F(25, 224))
        assert set(rep.tau_methods) == {"edges", "laplacian", "crossterm",
                                        "contraction"}
        assert set(rep.theta_methods) == {"definition", "second", "third",
                                          "fourth"}
        assert rep.delta == {0: F(1), 1: F(0)}

    def test_cross_agreement_random(self, rng):
        for _ in range(8):
            pg = random_simple_bridgeless(rng)
            rep = invariant_report(pg)
            assert len(set(rep.tau_methods.values())) == 1
            assert len(set(rep.theta_methods.values())) == 1

    def test_scale_covariance(self, rng):
        pg = random_simple_bridgeless(rng)
        t = F(5, 3)
        r1 = invariant_report(pg)
        r2 = invariant_report(pg.scaled(t))
        for name in ("ell", "tau", "theta", "epsilon", "a", "phi", "lam",
                     "x", "y"):
            assert getattr(r2, name) == t * getattr(r1, name), name

    def test_subdivision_invariance(self, rng):
        pg = random_simple_bridgeless(rng)
        refined = PMGraph.of(pg.graph.subdivide_edge(1, 2), pg.q)
        r1 = invariant_report(pg)
        r2 = invariant_report(refined)
        for name in ("ell", "tau", "theta", "epsilon", "a", "phi", "lam"):
            assert getattr(r2, name) == getattr(r1, name), name

    def test_suppression_invariance(self):
        pg = fam.necklace(4, 2).normalized()
        r1 = invariant_report(pg)
        r2 = invariant_report(pg.suppressed())
        for name in ("ell", "tau", "theta", "epsilon", "a", "phi", "lam"):
            assert getattr(r2, name) == getattr(r1, name), name

    def test_quick_matches_full(self, rng):
        pg = random_simple_bridgeless(rng)
        full = invariant_report(pg)
        quick = quick_report(pg)
        for name in ("ell", "tau", "theta", "epsilon", "a", "phi", "lam",
                     "x", "y", "delta"):
            assert getattr(quick, name) == getattr(full, name), name

    def test_float_backend(self):
        rep = invariant_report(fam.complete_equal(4).as_float())
        assert rep.backend == "float"
        assert rep.tau == pytest.approx(5 / 96, rel=1e-12)

    def test_float_twin_does_not_leak_into_rational_report(self):
        pg = fam.banana([F(1, 2), F(1, 2)])
        assert isinstance(quick_report(pg.as_float()).tau, float)
        rep = quick_report(pg)
        assert rep.backend == "rational"
        assert rep.tau == F(1, 12) and isinstance(rep.tau, Fraction)

    def test_json_round_fields(self):
        rep = invariant_report(fam.complete_equal(4))
        d = rep.to_json_dict()
        assert d["phi"] == "17/288"
        assert d["lambda"] == "25/224"
        assert d["delta"] == {"0": "1", "1": "0"}
        rows = rep.csv_fields(decimals=4)
        assert rows["tau"] == "0.0521"

    def test_gamma0_shifts(self, rng):
        base = fam.banana(random_lengths(rng, 4)).graph
        pg = PMGraph.of(base, {"p": 2, "q": 1})
        gbar = pg.pm_genus()
        q_total = 3
        eps_len = F(rng.randint(1, 9), 10)
        r0 = invariant_report(pg)
        r1 = invariant_report(pg.attach_loops(eps_len))
        shift = eps_len * q_total
        assert r1.phi - r0.phi == shift * F(gbar - 1, 6 * gbar)
        assert r1.epsilon - r0.epsilon == shift * F(gbar - 1, 3 * gbar)
        assert r1.a - r0.a == shift * F(2 * gbar - 1, 12 * gbar * gbar)
        assert r1.lam - r0.lam == shift * F(gbar, 8 * gbar + 4)
        # the underlying shifts: tau gains a twelfth per unit of loop, theta
        # is untouched because weights and resistances both survive
        assert r1.tau - r0.tau == shift / 12
        assert r1.theta == r0.theta

    def test_identity_checks_vanish(self, rng):
        for _ in range(3):
            pg = random_simple_bridgeless(rng)
            for name, residual in identity_checks(pg, invariant_report(pg)):
                assert residual == 0, name

    def test_disagreement_reporting(self):
        # sanity of the failure path: corrupt one method's value
        with pytest.raises(CrossValidationError, match="tau"):
            from mginv.invariants import _require_agreement
            _require_agreement("tau", {"edges": F(1, 2), "laplacian": F(1, 3)},
                               exact=True)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 5), st.data())
def test_bouquet_phi_property(k, data):
    lengths = [data.draw(st.fractions(min_value=F(1, 10), max_value=F(3)))
               for _ in range(k)]
    pg = fam.bouquet(lengths)
    ell = pg.graph.total_length()
    assert phi(pg) == F(k - 1, 6 * k) * ell
