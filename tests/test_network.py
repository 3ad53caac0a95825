import random
from fractions import Fraction
from itertools import combinations

import pytest

import mginv.families as fam
from mginv.graphs import GraphError, MetrizedGraph, PMGraph
from mginv.bounds import SearchConfig, random_pm_graph
from mginv.network import (Network, edge_circuit_data, invert_matrix, matmul,
                           network_for, resistance_matrix, resistance_oracle,
                           voltage)
from tests.conftest import mixed_graph, random_simple_bridgeless

F = Fraction


def path2(length=F(2)):
    return MetrizedGraph.build(["p", "q"], [("p", "q", length)])


class TestLaplacian:
    def test_path_entries(self):
        assert network_for(path2()).laplacian == [[F(1, 2), F(-1, 2)],
                                                  [F(-1, 2), F(1, 2)]]

    def test_k4_entries(self):
        # each vertex meets 3 edges of conductance 6, so diagonal 18,
        # off-diagonal -6
        lap = network_for(fam.complete_equal(4).graph).laplacian
        for i in range(4):
            for j in range(4):
                assert lap[i][j] == (F(18) if i == j else F(-6))

    def test_row_sums_zero(self, rng):
        g = random_simple_bridgeless(rng).graph
        for row in network_for(g).laplacian:
            assert sum(row) == 0

    def test_merges_parallels_and_skips_loops(self):
        # two parallel edges of length 1/2 conduct like one of length 1/4;
        # a self-loop carries no current
        banana = network_for(fam.banana([F(1, 2), F(1, 2)]).graph)
        assert banana.laplacian == [[F(4), F(-4)], [F(-4), F(4)]]
        assert network_for(fam.circle().graph).laplacian == [[F(0)]]


def fraction_gauss_jordan(rows):
    """Exact inverse by Gauss-Jordan over Fraction, first nonzero pivot;
    the test oracle for the fraction-free elimination."""
    n = len(rows)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def random_int_matrices(rng):
    """Nonsingular integer matrices: SPD ones B B^T + I, non-symmetric
    ones, and ones whose elimination meets a zero pivot."""
    out = []
    for n in range(1, 8):
        b = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        out.append([[sum(x * y for x, y in zip(b[i], b[j])) + (i == j)
                     for j in range(n)] for i in range(n)])
        while True:
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            try:
                fraction_gauss_jordan(m)
            except ZeroDivisionError:
                continue
            out.append(m)
            break
    # a zero leading pivot, and a pivot that vanishes after the first step
    out.append([[0, 1, 2], [1, 0, 3], [4, 5, 6]])
    out.append([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    out.append([[0, 0, 3, 1], [0, 2, 1, 1], [5, 1, 1, 0], [1, 1, 0, 7]])
    return out


class TestInvertMatrix:
    def test_integer_rows_against_fraction_gauss_jordan(self):
        for m in random_int_matrices(random.Random(7)):
            n, d = invert_matrix(m)
            assert type(d) is int and d != 0
            assert all(type(x) is int for row in n for x in row)
            assert [[F(x, d) for x in row] for row in n] == fraction_gauss_jordan(m)

    def test_integer_rows_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in random_int_matrices(random.Random(8)):
            n, d = invert_matrix(m)
            expected = sympy.Matrix(m).inv()
            assert [[F(x, d) for x in row] for row in n] == [
                [F(int(expected[i, j].p), int(expected[i, j].q))
                 for j in range(len(m))] for i in range(len(m))]

    def test_determinant_up_to_sign(self):
        sympy = pytest.importorskip("sympy")
        for m in random_int_matrices(random.Random(9)):
            _, d = invert_matrix(m)
            assert abs(d) == abs(int(sympy.Matrix(m).det()))

    def test_singular_raises(self):
        for m in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 1]],
                  [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
            with pytest.raises(GraphError, match="singular"):
                invert_matrix(m)
        with pytest.raises(GraphError, match="singular"):
            invert_matrix([[1.0, 2.0], [2.0, 4.0]])

    def test_fraction_rows_refused(self):
        with pytest.raises(TypeError):
            invert_matrix([[F(1, 2), F(0)], [F(0), F(1)]])

    def test_float_rows(self):
        for m in random_int_matrices(random.Random(10)):
            n, d = invert_matrix([[float(x) for x in row] for row in m])
            assert d == 1.0
            for row, exact in zip(n, fraction_gauss_jordan(m)):
                for x, y in zip(row, exact):
                    assert x == pytest.approx(float(y), rel=1e-9, abs=1e-9)


class TestPseudoInverse:
    def test_two_vertex_closed_form(self):
        # (L + J/2)^-1 - J/2 by hand: L + J/2 is the identity here, so
        # L+ = I - J/2 = [[1/2, -1/2], [-1/2, 1/2]]
        assert network_for(path2()).lplus == [[F(1, 2), F(-1, 2)],
                                              [F(-1, 2), F(1, 2)]]

    def test_moore_penrose_k4(self):
        net = network_for(fam.complete_equal(4).graph)
        l, p = net.laplacian, net.lplus
        assert matmul(matmul(l, p), l) == l
        assert matmul(matmul(p, l), p) == p

    def test_moore_penrose_loops_and_parallels(self):
        for g in (mixed_graph(), mixed_graph().normalized()):
            net = network_for(g)
            l, p = net.laplacian, net.lplus
            assert matmul(matmul(l, p), l) == l
            assert matmul(matmul(p, l), p) == p

    def test_matches_fraction_gauss_jordan(self, rng):
        # the integer-scaled inversion against (L + J/v)^-1 - J/v in Fraction
        cfg = SearchConfig(vertices=(1, 7), edges=(1, 12), genus=(1, 6), max_q=2)
        graphs = [mixed_graph(), mixed_graph().normalized(), path2(F(7, 3))]
        graphs += [random_pm_graph(rng, cfg).graph for _ in range(20)]
        for g in graphs:
            n = g.num_vertices
            shifted = [[x + F(1, n) for x in row] for row in network_for(g).laplacian]
            expected = [[x - F(1, n) for x in row]
                        for row in fraction_gauss_jordan(shifted)]
            assert Network(g).lplus == expected

    def test_symmetry_and_row_sums(self, rng):
        g = random_simple_bridgeless(rng).graph.normalized()
        pinv = network_for(g).lplus
        n = len(pinv)
        for i in range(n):
            assert sum(pinv[i]) == 0
            for j in range(n):
                assert pinv[i][j] == pinv[j][i]

    def test_trace_inequality(self, rng):
        # trace(L+) >= (v-1)^2 / trace(L)
        for _ in range(5):
            g = random_simple_bridgeless(rng).graph.normalized()
            net = network_for(g)
            v = g.num_vertices
            tr_l = sum(net.laplacian[i][i] for i in range(v))
            assert sum(net.lplus[i][i] for i in range(v)) >= F((v - 1) ** 2) / tr_l


class TestResistance:
    def test_k4_all_pairs(self):
        r = resistance_matrix(fam.complete_equal(4).graph)
        for i in range(4):
            for j in range(4):
                assert r[i][j] == (F(0) if i == j else F(1, 12))

    def test_circle_antipodal(self):
        g = fam.circle(F(1), num_vertices=2).graph
        r = resistance_matrix(g)
        assert r[0][1] == F(1, 4)

    def test_necklace_formula(self):
        # r(p_v, p_i) = i (v - i) / (n^2 v^2) for total length 1
        for v, n in ((3, 2), (5, 3)):
            g = fam.necklace(v, n).graph
            r = resistance_matrix(g)
            for i in range(1, v):
                assert r[v - 1][i - 1] == F(i * (v - i), n * n * v * v)

    def test_metric_properties(self, rng):
        g = random_simple_bridgeless(rng).graph
        r = resistance_matrix(g)
        n = g.num_vertices
        for i in range(n):
            assert r[i][i] == 0
            for j in range(n):
                assert r[i][j] == r[j][i]
                assert r[i][j] >= 0
                for k in range(n):
                    assert r[i][k] <= r[i][j] + r[j][k]

    def test_invariant_under_refinement(self, rng):
        g = random_simple_bridgeless(rng).graph
        sub = g.subdivide_edge(0, 3)
        r0 = resistance_matrix(g)
        r1 = resistance_matrix(sub)
        idx = {p: i for i, p in enumerate(sub.vertices)}
        for i, p in enumerate(g.vertices):
            for j, q in enumerate(g.vertices):
                assert r0[i][j] == r1[idx[p]][idx[q]]

    def test_invariant_under_suppression(self):
        pg = fam.necklace(3, 2).normalized()
        sup = pg.suppressed()
        rn = resistance_matrix(pg.graph)
        rs = resistance_matrix(sup.graph)
        ni = {p: i for i, p in enumerate(pg.graph.vertices)}
        si = {p: i for i, p in enumerate(sup.graph.vertices)}
        for p in sup.graph.vertices:
            for q in sup.graph.vertices:
                assert rs[si[p]][si[q]] == rn[ni[p]][ni[q]]


class TestVoltage:
    def test_zero_at_reference(self, rng):
        g = random_simple_bridgeless(rng).graph
        z, x, y = g.vertices[0], g.vertices[1], g.vertices[2]
        assert voltage(g, z, z, y) == 0
        assert voltage(g, z, x, z) == 0

    def test_resistance_identity(self, rng):
        g = random_simple_bridgeless(rng).graph
        r = resistance_matrix(g)
        for i, x in enumerate(g.vertices):
            for j, y in enumerate(g.vertices):
                assert voltage(g, y, x, x) == r[i][j]

    def test_symmetry(self, rng):
        g = random_simple_bridgeless(rng).graph
        z, x, y = g.vertices[:3]
        assert voltage(g, z, x, y) == voltage(g, z, y, x)
        assert voltage(g, z, x, y) >= 0


class TestCircuitData:
    def test_k4_base_at_endpoint(self):
        # with the base at an endpoint, the two arms through it vanish;
        # K4 minus an edge has the two two-step routes in parallel: R = 1/6
        g = fam.complete_equal(4).graph
        cd = edge_circuit_data(g, 0, g.edges[0].u)
        assert not cd.is_bridge
        assert cd.r_i == F(1, 6)
        assert cd.r_a == 0 and cd.r_c == 0
        assert cd.r_b == cd.r_i

    def test_arm_sum(self, rng):
        for _ in range(3):
            g = random_simple_bridgeless(rng).graph
            for i in range(g.num_edges):
                for p in g.vertices:
                    cd = edge_circuit_data(g, i, p)
                    assert cd.r_a + cd.r_b == cd.r_i
                    assert cd.r_a >= 0 and cd.r_b >= 0 and cd.r_c >= 0

    def test_two_term_identity(self, rng):
        # r(p_i, p) - r(q_i, p) = L_i (r_a - r_b) / (L_i + R_i)
        g = random_simple_bridgeless(rng).graph
        net = Network(g)
        for i, e in enumerate(g.edges):
            for p in g.vertices:
                cd = net.circuit(i, p)
                lhs = net.resistance(e.u, p) - net.resistance(e.v, p)
                rhs = e.length * (cd.r_a - cd.r_b) / (e.length + cd.r_i)
                assert lhs == rhs

    def test_parallel_law(self, rng):
        # r(p_i, q_i) in the whole graph = L_i R_i / (L_i + R_i)
        g = random_simple_bridgeless(rng).graph
        net = Network(g)
        for i, e in enumerate(g.edges):
            cd = net.circuit(i, e.u)
            assert net.resistance(e.u, e.v) == \
                e.length * cd.r_i / (e.length + cd.r_i)

    def test_bridge_side_marker(self):
        g = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))])
        cd = edge_circuit_data(g, 2, "a")
        assert cd.is_bridge and cd.side == "u"
        cd = edge_circuit_data(g, 2, "b")
        assert cd.is_bridge and cd.side == "v"

    def test_loop_edge(self):
        g = MetrizedGraph.build(("a", "b"), [("a", "b", F(1)), ("a", "b", F(1)),
                                             ("a", "a", F(2))])
        cd = edge_circuit_data(g, 2, "b")
        assert cd.r_i == 0 and cd.r_a == 0 and cd.r_b == 0
        assert cd.r_c == resistance_matrix(g)[0][1]

    def test_matches_three_deleted_resistances(self, rng):
        # circuit shares one rank-one update among the three pairs that
        # deleted_resistance treats one at a time; the values are the same
        dumbbell = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))])
        cfg = SearchConfig(vertices=(2, 6), edges=(3, 10), genus=(1, 5), max_q=2)
        graphs = [mixed_graph(), dumbbell, fam.necklace(4, 3).graph]
        graphs += [random_pm_graph(rng, cfg).graph for _ in range(8)]
        for g in graphs:
            net = Network(g)
            for i, e in enumerate(g.edges):
                if i in net.bridges:
                    continue
                for p in g.vertices:
                    r_pu = net.deleted_resistance(i, p, e.u)
                    r_pv = net.deleted_resistance(i, p, e.v)
                    r_uv = net.deleted_resistance(i, e.u, e.v)
                    cd = net.circuit(i, p)
                    assert cd.r_i == r_uv
                    assert cd.r_a == (r_pu + r_uv - r_pv) / 2
                    assert cd.r_b == (r_pv + r_uv - r_pu) / 2
                    assert cd.r_c == (r_pu + r_pv - r_uv) / 2

    def test_argument_validation(self):
        g = fam.banana([F(1, 2), F(1, 2)]).graph
        with pytest.raises(GraphError, match="unknown"):
            voltage(g, "p", "q", "nope")
        with pytest.raises(GraphError, match="out of range"):
            edge_circuit_data(g, 9, "p")
        with pytest.raises(GraphError, match="unknown"):
            edge_circuit_data(g, 0, "nope")
        with pytest.raises(GraphError, match="unknown"):
            resistance_oracle(g, "p", "nope")


class TestOracle:
    def test_single_edge(self):
        g = MetrizedGraph.build(["p", "q"], [("p", "q", F(7, 3))])
        assert resistance_oracle(g, "p", "q") == F(7, 3)

    def test_parallel_law(self):
        g = fam.banana([F(1, 2), F(1, 3)]).graph
        assert resistance_oracle(g, "p", "q") == F(1, 5)

    def test_k4_value_and_tree_count(self):
        g = fam.complete_equal(4).graph
        assert resistance_oracle(g, "p1", "p2") == F(1, 12)
        # 16 spanning trees of K4
        idx = {p: i for i, p in enumerate(g.vertices)}
        count = 0
        for sub in combinations(range(6), 3):
            parent = list(range(4))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            good = True
            for i in sub:
                e = g.edges[i]
                ra, rb = find(idx[e.u]), find(idx[e.v])
                if ra == rb:
                    good = False
                    break
                parent[ra] = rb
            count += good
        assert count == 16

    def test_cap(self):
        g = fam.necklace(5, 3).graph  # 15 edges
        with pytest.raises(GraphError, match="cap"):
            resistance_oracle(g, "p1", "p2")

    def test_matches_matrix(self, rng):
        cfg = SearchConfig(vertices=(2, 5), edges=(2, 9), genus=(1, 5), max_q=2)
        for _ in range(15):
            g = random_pm_graph(rng, cfg).graph
            r = resistance_matrix(g)
            for i, p in enumerate(g.vertices):
                for j, q in enumerate(g.vertices):
                    assert resistance_oracle(g, p, q) == r[i][j]


class TestGenusIdentity:
    def test_both_halves(self, rng):
        # sum L/(L+R) = g and sum R/(L+R) = v-1 on bridgeless graphs
        for _ in range(5):
            g = random_simple_bridgeless(rng).graph
            net = Network(g)
            s1 = F(0)
            s2 = F(0)
            for i, e in enumerate(g.edges):
                r = net.edge_resistance(i)
                s1 += e.length / (e.length + r)
                s2 += r / (e.length + r)
            assert s1 == g.genus()
            assert s2 == g.num_vertices - 1


class TestContracted:
    def test_matches_reinversion(self, rng):
        for _ in range(4):
            g = random_simple_bridgeless(rng).graph
            net = Network(g)
            for i in range(g.num_edges):
                short = net.contracted(i)
                ref = Network(g.contract_edge(i))
                assert short.graph == ref.graph
                assert short.r == ref.r
                for j in range(short.graph.num_edges):
                    assert short.edge_resistance(j) == ref.edge_resistance(j)

    def test_bridges_carried_over(self):
        # two triangles joined by the bridge (a, x), edge 3
        g = MetrizedGraph.build(
            "abcxyz", [("a", "b", F(1)), ("b", "c", F(2)), ("c", "a", F(3)),
                       ("a", "x", F(1, 2)),
                       ("x", "y", F(1)), ("y", "z", F(1)), ("z", "x", F(5))])
        net = Network(g)
        for i in range(g.num_edges):
            short = net.contracted(i)
            assert short.bridges == g.contract_edge(i).structure.bridges
            assert short.r == Network(g.contract_edge(i)).r

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Network(fam.bouquet([F(1), F(2)]).graph).contracted(0)


class TestNetworkCache:
    def test_float_and_rational_twins_kept_apart(self):
        # the twins compare and hash equal, so a cache keyed on the graph
        # alone hands one backend's network to the other
        for first, lengths in (("float", [F(1, 2), F(1, 2)]),
                               ("rational", [F(1, 4), F(3, 4)])):
            g = fam.banana(lengths).graph
            twins = {"rational": g, "float": g.as_float()}
            order = [first] + [b for b in twins if b != first]
            for backend in order:
                r = network_for(twins[backend]).resistance("p", "q")
                assert isinstance(r, float) == (backend == "float"), backend
