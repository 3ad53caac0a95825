import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mginv.families as fam
from mginv.graphs import (GraphError, MetrizedGraph, PMGraph, one_point_join,
                          pm_graph_from_json, pm_graph_to_json_dict)

F = Fraction


def circle_loop(length=F(1)):
    return MetrizedGraph.build(("p",), [("p", "p", length)])


def k4(total=F(1)):
    return fam.complete_equal(4, total).graph


def dumbbell(bridge=F(1, 2)):
    """Two unit circles joined by a bridge."""
    return MetrizedGraph.build(
        ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", bridge)])


class TestConstruction:
    def test_rejects_empty_vertices(self):
        with pytest.raises(GraphError):
            MetrizedGraph.build([], [])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            MetrizedGraph.build(["a", "b"], [])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GraphError):
            MetrizedGraph.build(["a", "b"], [("a", "b", F(0))])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            MetrizedGraph.build(["a"], [("a", "b", F(1))])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(GraphError):
            MetrizedGraph.build(["a", "a"], [("a", "a", F(1))])


class TestGenusLengthValence:
    def test_circle_loop_genus(self):
        assert circle_loop().genus() == 1

    def test_k4_genus(self):
        assert k4().genus() == 3

    def test_banana_genus(self):
        for e in range(2, 6):
            assert fam.banana([F(1, e)] * e).graph.genus() == e - 1

    def test_total_length(self):
        g = MetrizedGraph.build(["a", "b"], [("a", "b", F(1, 2)),
                                             ("a", "b", F(1, 3)),
                                             ("a", "b", F(1, 6))])
        assert g.total_length() == 1

    def test_valence(self):
        assert k4().valences["p1"] == 3
        assert circle_loop().valences["p"] == 2
        assert fam.necklace(4, 3).graph.valences["p2"] == 6

    def test_handshake(self, rng):
        from tests.conftest import random_simple_bridgeless
        for _ in range(10):
            g = random_simple_bridgeless(rng).graph
            assert sum(g.valences.values()) == 2 * g.num_edges


class TestStructure:
    def test_banana_three(self):
        s = fam.banana([F(1, 3)] * 3).graph.structure
        assert not s.bridges and s.edge_connectivity == 3 and s.is_irreducible

    def test_two_circles_at_a_point(self):
        g = fam.bouquet([F(1, 2), F(1, 2)]).graph
        s = g.structure
        assert not s.bridges
        assert s.edge_connectivity == 2
        assert not s.is_irreducible

    def test_path_edge_is_bridge(self):
        g = MetrizedGraph.build(["a", "b", "c"], [("a", "b", F(1)), ("b", "c", F(1))])
        assert g.structure.bridges == {0, 1}
        assert g.structure.edge_connectivity == 1
        assert not g.structure.is_irreducible

    def test_circle_irreducible(self):
        assert circle_loop().structure.is_irreducible

    def test_k4_structure(self):
        s = k4().structure
        assert not s.bridges and s.edge_connectivity == 3 and s.is_irreducible

    def test_necklace_connectivity(self):
        assert fam.necklace(4, 2).graph.structure.edge_connectivity == 4


class TestDeleteContract:
    def test_delete_k4_edge_connected(self):
        g = k4().delete_edge(0)
        assert isinstance(g, MetrizedGraph)
        assert g.num_edges == 5 and g.num_vertices == 4

    def test_delete_bridge_splits(self):
        parts = dumbbell().delete_edge(2)
        assert isinstance(parts, tuple)
        ga, gb = parts
        assert ga.vertices == ("a",) and gb.vertices == ("b",)
        assert ga.genus() == 1 and gb.genus() == 1

    def test_delete_self_loop(self):
        g = dumbbell().delete_edge(0)
        assert isinstance(g, MetrizedGraph)
        assert g.num_vertices == 2 and g.num_edges == 2

    def test_contract_k4_edge(self):
        g = k4().contract_edge(0)
        assert g.num_vertices == 3 and g.num_edges == 5
        assert not g.is_simple  # one parallel pair appears
        assert g.total_length() == k4().total_length() - F(1, 6)

    def test_contract_preserves_genus_nonloop(self):
        g = k4()
        assert g.contract_edge(2).genus() == g.genus()

    def test_contract_loop_drops_genus(self):
        g = dumbbell()
        assert g.contract_edge(0).genus() == g.genus() - 1
        # contracting a self-loop just deletes it
        assert g.contract_edge(0).edges == g.delete_edge(0).edges

    def test_contract_valence_rule(self):
        g = k4()
        merged = g.contract_edge(0)
        u, v = g.edges[0].u, g.edges[0].v
        assert merged.valences[u] == g.valences[u] + g.valences[v] - 2


class TestNormalizeSuppress:
    def test_loop_becomes_three_cycle(self):
        n = circle_loop(F(3, 4)).normalized()
        assert n.num_vertices == 3 and n.num_edges == 3
        assert n.is_simple
        assert n.total_length() == F(3, 4)

    def test_parallel_pair(self):
        n = fam.banana([F(1, 2), F(1, 2)]).graph.normalized()
        assert n.is_simple
        assert n.total_length() == 1

    def test_simple_unchanged(self):
        g = k4()
        assert g.normalized() is g

    def test_derived_ids_deterministic(self):
        n1 = circle_loop().normalized()
        n2 = circle_loop().normalized()
        assert n1 == n2
        assert "e0#s1" in n1.vertices

    def test_derived_id_collision_avoided(self):
        g = MetrizedGraph.build(["e0#s1"], [("e0#s1", "e0#s1", F(1))])
        n = g.normalized()
        assert len(set(n.vertices)) == 3
        assert n.total_length() == 1

    def test_suppress_round_trip(self):
        pg = fam.genus3_gamma(*[F(1, 6)] * 6)
        again = pg.normalized().suppressed()
        assert again.graph.total_length() == pg.graph.total_length()
        assert again.graph.genus() == pg.graph.genus()
        assert set(again.graph.vertices) == set(pg.graph.vertices)

    def test_suppress_circle_keeps_lex_smallest(self):
        pg = fam.circle(F(1), num_vertices=5)
        s = pg.suppressed()
        assert s.graph.vertices == ("p1",)
        assert s.graph.edges[0].is_loop
        assert s.graph.total_length() == 1

    def test_suppress_cubic_unchanged(self):
        pg = fam.complete_equal(4)
        assert pg.suppressed().graph == pg.graph

    def test_suppress_keeps_polarized_vertices(self):
        g = MetrizedGraph.build(["a", "b", "c"],
                                [("a", "b", F(1)), ("b", "c", F(1)), ("c", "a", F(1))])
        pg = PMGraph.of(g, {"b": 1})
        s = pg.suppressed()
        assert set(s.graph.vertices) == {"a", "b"} or set(s.graph.vertices) == {"b"}
        assert s.q["b"] == 1


class TestPMGraph:
    def test_effectivity_rejected(self):
        g = MetrizedGraph.build(["a", "b"], [("a", "b", F(1))])
        with pytest.raises(GraphError, match="effective"):
            PMGraph.of(g)  # valence-1 endpoints with q = 0

    def test_effectivity_with_q(self):
        g = MetrizedGraph.build(["a", "b"], [("a", "b", F(1))])
        pg = PMGraph.of(g, {"a": 1, "b": 1})
        assert pg.pm_genus() == 2

    def test_pm_genus_circle(self):
        assert fam.circle().pm_genus() == 1

    def test_pm_genus_matches_canonical_degree(self, rng):
        from tests.conftest import random_simple_bridgeless
        for _ in range(5):
            pg = random_simple_bridgeless(rng)
            assert pg.pm_genus() == 1 + pg.canonical_degree() // 2

    def test_negative_q_rejected(self):
        g = circle_loop()
        with pytest.raises(GraphError):
            PMGraph.of(g, {"p": -1})

    def test_unknown_vertex_errors(self):
        g = circle_loop()
        with pytest.raises(GraphError, match="unknown"):
            PMGraph.of(g, {"nope": 1})
        with pytest.raises(GraphError, match="out of range"):
            g.delete_edge(5)


class TestEdgeTypes:
    def test_bridgeless_all_type0(self):
        pg = fam.complete_equal(4)
        types, delta = pg.edge_types()
        assert set(types) == {0}
        assert delta[0] == pg.graph.total_length()

    def test_dumbbell_bridge_type1(self):
        pg = PMGraph.of(dumbbell(F(1, 2)))
        types, delta = pg.edge_types()
        assert types == (0, 0, 1)
        assert delta == {0: F(2), 1: F(1, 2)}

    def test_pendant_bridge_type(self):
        # two loops plus a pendant polarized vertex: components have
        # pm-genus 2 and 1, so the bridge has type 1
        g = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("a", "a", F(1)), ("a", "b", F(1))])
        pg = PMGraph.of(g, {"b": 1})
        types, _ = pg.edge_types()
        assert types[2] == 1
        assert pg.edge_type_counts() == {0: 2, 1: 1}

    def test_unit_lengths_deltas_are_counts(self):
        # on unit-length graphs the length-weighted type totals coincide
        # with plain edge counts
        g = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("a", "a", F(1)), ("b", "b", F(1)),
                         ("a", "b", F(1))])
        pg = PMGraph.of(g)
        _, delta = pg.edge_types()
        counts = pg.edge_type_counts()
        assert delta == {i: F(c) for i, c in counts.items()}

    def test_delta_sums_to_length(self, rng):
        from tests.conftest import random_simple_bridgeless
        for _ in range(5):
            pg = random_simple_bridgeless(rng)
            _, delta = pg.edge_types()
            total = sum(delta.values())
            assert total == pg.graph.total_length()


class TestAttachLoops:
    def test_q_zero_unchanged(self):
        pg = fam.complete_equal(4)
        assert pg.attach_loops(F(1, 10)).graph == pg.graph

    def test_length_and_genus(self):
        g = fam.banana([F(1, 2), F(1, 2)]).graph
        pg = PMGraph.of(g, {"p": 2, "q": 1})
        out = pg.attach_loops(F(1, 7))
        assert out.q_total == 0
        assert out.pm_genus() == pg.pm_genus()
        assert out.graph.total_length() == pg.graph.total_length() + 3 * F(1, 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            fam.complete_equal(4).attach_loops(F(0))


class TestJoin:
    def test_bouquet_from_circles(self):
        c1 = circle_loop(F(1, 2))
        c2 = circle_loop(F(1, 3))
        j = one_point_join(c1, "p", c2, "p")
        assert j.num_vertices == 1 and j.num_edges == 2
        assert j.total_length() == F(5, 6)

    def test_renames_collisions(self):
        g1 = k4()
        g2 = k4()
        j = one_point_join(g1, "p1", g2, "p2")
        assert j.num_vertices == 7
        assert j.total_length() == 2 * g1.total_length()


class TestScaling:
    @given(st.fractions(min_value=F(1, 20), max_value=F(20)))
    def test_scaled_total(self, t):
        g = k4()
        assert g.scaled(t).total_length() == t * g.total_length()


class TestJson:
    def test_round_trip(self):
        pg = fam.genus3_beta(*[F(1, 6)] * 6)
        text = json.dumps(pm_graph_to_json_dict(pg))
        back = pm_graph_from_json(text)
        assert back == pg

    def test_decimal_lengths_exact(self):
        data = {"vertices": [{"id": "p"}], "edges": [{"u": "p", "v": "p", "len": 0.1}]}
        pg = pm_graph_from_json(json.dumps(data))
        assert pg.graph.edges[0].length == F(1, 10)

    def test_rejects_disconnected(self):
        data = {"vertices": [{"id": "a"}, {"id": "b"}], "edges": []}
        with pytest.raises(GraphError, match="connected"):
            pm_graph_from_json(json.dumps(data))

    def test_rejects_negative_q(self):
        data = {"vertices": [{"id": "a", "q": -1}],
                "edges": [{"u": "a", "v": "a", "len": "1"}]}
        with pytest.raises(GraphError, match="q"):
            pm_graph_from_json(json.dumps(data))

    def test_rejects_bad_length(self):
        data = {"vertices": [{"id": "a"}], "edges": [{"u": "a", "v": "a", "len": "0"}]}
        with pytest.raises(GraphError):
            pm_graph_from_json(json.dumps(data))

    def test_polarized_leaf_accepted(self):
        # valence-1 vertex is fine once q = 1 makes its weight 1 - 2 + 2 >= 0
        data = {"vertices": [{"id": "a"}, {"id": "leaf", "q": 1}],
                "edges": [{"u": "a", "v": "a", "len": "1"},
                          {"u": "a", "v": "leaf", "len": "1/2"}]}
        pg = pm_graph_from_json(json.dumps(data))
        assert pg.pm_genus() == 2

    def test_noneffective_names_vertex(self):
        data = {"vertices": [{"id": "a"}, {"id": "leaf"}],
                "edges": [{"u": "a", "v": "a", "len": "1"},
                          {"u": "a", "v": "leaf", "len": "1/2"}]}
        with pytest.raises(GraphError, match="leaf"):
            pm_graph_from_json(json.dumps(data))

    def test_malformed(self):
        with pytest.raises(GraphError, match="JSON"):
            pm_graph_from_json("{nope")
