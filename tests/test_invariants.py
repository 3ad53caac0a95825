import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mginv.families as fam
from mginv.graphs import GraphError, MetrizedGraph, PMGraph
from mginv.invariants import (CrossValidationError, _contraction_rc_sums,
                              _rc_sum, a_invariant, epsilon,
                              genus_identity_residual, identity_checks,
                              invariant_report, lambda_invariant, phi,
                              quick_report, tau, theta, xy)
from mginv.network import Network, network_for
from tests.conftest import random_lengths, random_simple_bridgeless

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
