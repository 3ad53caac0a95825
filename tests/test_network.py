import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import mginv.families as fam
from mginv.graphs import GraphError, MetrizedGraph, PMGraph
from mginv.bounds import SearchConfig, random_pm_graph
from mginv.network import (Network, edge_circuit_data, invert_matrix,
                           is_moore_penrose, matmul, network_for,
                           resistance_matrix, resistance_oracle, voltage)
from tests.conftest import (mixed_graph, random_multigraph,
                            random_simple_bridgeless)

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


def fraction_moore_penrose(lap, pinv):
    """The first two Penrose identities by Fraction matrix products; the
    test oracle for the integer check."""
    return (matmul(matmul(lap, pinv), lap) == lap
            and matmul(matmul(pinv, lap), pinv) == pinv)


def moved_pair(pinv, i, j, delta=F(1, 1000)):
    """``pinv`` with the symmetric pair of entries (i, j), (j, i) moved by
    ``delta``."""
    out = [list(row) for row in pinv]
    out[i][j] += delta
    if i != j:
        out[j][i] += delta
    return out


class TestMoorePenroseCheck:
    def graphs(self, rng):
        cfg = SearchConfig(vertices=(1, 7), edges=(1, 12), genus=(1, 6), max_q=2)
        one_vertex = MetrizedGraph.build(("a",), [("a", "a", F(2, 3))])
        graphs = [mixed_graph(), mixed_graph().normalized(), one_vertex]
        return graphs + [random_pm_graph(rng, cfg).graph for _ in range(50)]

    def test_agrees_with_fraction_products(self, rng):
        for g in self.graphs(rng):
            net = network_for(g)
            lap, pinv = net.laplacian, net.lplus
            assert fraction_moore_penrose(lap, pinv)
            assert is_moore_penrose(lap, pinv)
            if len(pinv) > 1:
                moved = moved_pair(pinv, 0, len(pinv) - 1)
                assert is_moore_penrose(lap, moved) == fraction_moore_penrose(lap, moved)

    def test_moved_pair_fails(self, rng):
        for g in self.graphs(rng):
            net = network_for(g)
            n = len(net.lplus)
            for i, j in combinations(range(n), 2):
                assert not is_moore_penrose(net.laplacian, moved_pair(net.lplus, i, j))

    def test_shift_by_j_fails_second_identity(self, rng):
        # L J = J L = 0, so L (L+ + J) L = L still holds, but
        # (L+ + J) L (L+ + J) = L+ differs from L+ + J
        for g in self.graphs(rng)[:10]:
            net = network_for(g)
            lap = net.laplacian
            shifted = [[x + 1 for x in row] for row in net.lplus]
            assert matmul(matmul(lap, shifted), lap) == lap
            assert not is_moore_penrose(lap, shifted)


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


def circuit_reference(net, i, p):
    """(r_i, r_a, r_b, r_c) of non-bridge edge i at base p from the three
    deleted resistances r(p, u), r(p, v) and r(u, v), each the rank-one
    update with d = L+ (e_u - e_v), recomputed in full for every base."""
    e = net.graph.edges[i]
    idx = net.graph.vertex_index
    ip, iu, iv = idx[p], idx[e.u], idx[e.v]
    r = net.r
    r_pu, r_pv, r_uv = r[ip][iu], r[ip][iv], r[iu][iv]
    if not e.is_loop:
        lp = net.lplus
        d_p, d_u, d_v = (lp[k][iu] - lp[k][iv] for k in (ip, iu, iv))
        denom = e.length - r_uv
        c_pu, c_pv, c_uv = d_p - d_u, d_p - d_v, d_u - d_v
        r_pu = r_pu + c_pu * c_pu / denom
        r_pv = r_pv + c_pv * c_pv / denom
        r_uv = r_uv + c_uv * c_uv / denom
    return (r_uv, (r_pu + r_uv - r_pv) / 2, (r_pv + r_uv - r_pu) / 2,
            (r_pu + r_pv - r_uv) / 2)


def exact_bits(values):
    """Floats by their bit pattern (so 0.0 and -0.0 differ); others as is."""
    return tuple(x.hex() if isinstance(x, float) else x for x in values)


class TestCircuitTerms:
    def graphs(self, rng):
        dumbbell = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))])
        cfg = SearchConfig(vertices=(2, 6), edges=(3, 10), genus=(1, 5), max_q=2)
        graphs = [mixed_graph(), dumbbell, fam.necklace(4, 3).graph]
        graphs += [random_pm_graph(rng, cfg).graph for _ in range(8)]
        return graphs + [g.as_float() for g in graphs]

    @staticmethod
    def visit(net, bases):
        out = {}
        for p in bases:
            for i in range(net.graph.num_edges):
                cd = net.circuit(i, p)
                out[i, p] = (cd.is_bridge, cd.side) + exact_bits(
                    (cd.r_i, cd.r_a, cd.r_b, cd.r_c))
        return out

    def test_independent_of_base_order(self, rng):
        for g in self.graphs(rng):
            forward = self.visit(Network(g), g.vertices)
            fresh = Network(g)
            backward = self.visit(fresh, g.vertices[::-1])
            assert forward == backward
            for (i, p), got in forward.items():
                if i not in fresh.bridges:
                    assert got[2:] == exact_bits(circuit_reference(fresh, i, p))

    def test_one_entry_per_edge_none_for_bridges(self, rng):
        for g in self.graphs(rng):
            net = Network(g)
            self.visit(net, g.vertices)
            assert len(net._edge_terms) <= g.num_edges
            assert set(net._edge_terms) == set(range(g.num_edges)) - net.bridges


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
                r = net.deleted_resistance(i, e.u, e.v)
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
                for j, e in enumerate(short.graph.edges):
                    assert (short.deleted_resistance(j, e.u, e.v)
                            == ref.deleted_resistance(j, e.u, e.v))

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


def eager_laplacian(graph):
    """The Laplacian summed from zero fractions, every entry by addition."""
    n = graph.num_vertices
    idx = graph.vertex_index
    rows = [[F(0)] * n for _ in range(n)]
    for e in graph.edges:
        if not e.is_loop:
            a, b = idx[e.u], idx[e.v]
            c = 1 / e.length
            rows[a][b] = rows[a][b] - c
            rows[b][a] = rows[b][a] - c
            rows[a][a] = rows[a][a] + c
            rows[b][b] = rows[b][b] + c
    return rows


def eager_symmetric(n, entry):
    """entry(i, j) for j >= i, mirrored below the diagonal."""
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry(i, j)
    return m


def eager_resistances(lplus):
    return eager_symmetric(len(lplus), lambda i, j: (
        lplus[i][i] - 2 * lplus[i][j] + lplus[j][j]))


def eager_grounded_pd(graph):
    """(P, D) of a rational graph on v >= 2 vertices from the Laplacian
    grounded at vertex 0, by matrix products: M = s L_r is an integer
    matrix (s the lcm of the numerators of the non-loop lengths), M^-1 =
    N/d, G is N padded with zeros at vertex 0, and with vH = v I - J,
    P = s (vH) G (vH) and D = v^2 d, so that P / D = H (s G / d) H."""
    n = graph.num_vertices
    rows = eager_laplacian(graph)
    s = lcm(*(e.length.numerator for e in graph.edges if not e.is_loop))
    scaled = [[s * x for x in row[1:]] for row in rows[1:]]
    assert all(x.denominator == 1 for row in scaled for x in row)
    inv, d = invert_matrix([[x.numerator for x in row] for row in scaled])
    g = [[0] * n] + [[0] + row for row in inv]
    vh = [[n * (i == j) - 1 for j in range(n)] for i in range(n)]
    return [[s * x for x in row] for row in matmul(matmul(vh, g), vh)], n * n * d


def eager_matrices(graph):
    """(L+, r, (P, D)) formed eagerly on construction, the reference for
    the matrices a network derives on first read: on rationals L+ comes
    from (L + J/v)^-1 - J/v and (P, D) from ``eager_grounded_pd``, and
    every entry of L+ is P_ij / D; on floats P is L+ and D = 1.0; and
    r_ij = L+_ii - 2 L+_ij + L+_jj on both backends."""
    rows = eager_laplacian(graph)
    n = len(rows)
    if graph.backend == "float":
        lplus = [[0.0]]
        if n > 1:
            jv = F(1, n)
            inv, _ = invert_matrix([[x + jv for x in row] for row in rows])
            lplus = [[x - jv for x in row] for row in inv]
        pd = lplus, 1.0
    elif n == 1:
        lplus = [[F(0)]]
        pd = [[0]], 1
    else:
        # s (L + J/v) in integers, s the lcm of v and the denominators of L
        s = lcm(n, *(x.denominator for row in rows for x in row))
        inv, d = invert_matrix([[(s * x).numerator + s // n for x in row]
                                for row in rows])
        lplus = eager_symmetric(n, lambda i, j: F(n * s * inv[i][j] - d, n * d))
        pd = eager_grounded_pd(graph)
    return lplus, eager_resistances(lplus), pd


def eager_contracted(graph, lplus, r, i):
    """(L+, r) of the contraction of edge i by the short-circuit update."""
    e = graph.edges[i]
    iu, iv = graph.vertex_index[e.u], graph.vertex_index[e.v]
    d = [row[iu] - row[iv] for row in lplus]
    scaled = [x / r[iu][iv] for x in d]
    keep = [k for k in range(len(lplus)) if k != iv]
    short = eager_symmetric(len(keep), lambda a, b: (
        lplus[keep[a]][keep[b]] - d[keep[a]] * scaled[keep[b]]))
    return short, eager_resistances(short)


def same_entries(got, ref):
    """Equal entry by entry, floats bit for bit, with equal types."""
    assert [exact_bits(row) for row in got] == [exact_bits(row) for row in ref]
    assert [[type(x) for x in row] for row in got] == [
        [type(x) for x in row] for row in ref]


class TestLazyMatrices:
    """A rational network keeps (P, D) and forms L+ and r on first read;
    float networks (where P = L+, D = 1.0) and contracted networks keep L+
    from construction."""

    def graphs(self, rng):
        graphs = [random_multigraph(rng) for _ in range(12)]
        graphs += [mixed_graph(), fam.bouquet([F(1, 3), F(2, 5)]).graph,
                   MetrizedGraph.build(["p"], [])]
        return graphs + [g.as_float() for g in graphs]

    def test_match_eager_formulas(self, rng):
        for g in self.graphs(rng):
            lplus, r, pd = eager_matrices(g)
            net = Network(g)
            assert net.pd == pd
            assert "r" not in vars(net)
            kept = g.backend == "float"
            assert ("lplus" in vars(net)) == kept
            # r first: on P / D it does not form L+
            same_entries(net.r, r)
            assert ("lplus" in vars(net)) == kept
            same_entries(net.lplus, lplus)
            # the builder's int zeros equal the fraction zeros
            assert [exact_bits(row) for row in net.laplacian] == [
                exact_bits(row) for row in eager_laplacian(g)]
            for i, e in enumerate(g.edges):
                if e.is_loop:
                    continue
                short = net.contracted(i)
                ref_lplus, ref_r = eager_contracted(g, lplus, r, i)
                same_entries(short.lplus, ref_lplus)
                same_entries(short.r, ref_r)

    def test_rational_network_builds_no_laplacian_rows(self, rng, monkeypatch):
        # a rational (P, D) comes from the grounded Laplacian, built in
        # integers from the lengths; only a float inversion reads the rows
        import mginv.network as network
        calls = []
        rows = network._laplacian_rows

        def counted(graph):
            calls.append(graph)
            return rows(graph)

        monkeypatch.setattr(network, "_laplacian_rows", counted)
        for g in self.graphs(rng):
            calls.clear()
            Network(g)
            assert len(calls) == (g.backend == "float" and g.num_vertices > 1)


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
