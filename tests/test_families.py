import random
from fractions import Fraction

import pytest

import mginv.families as fam
from mginv.graphs import GraphError
from mginv.invariants import invariant_report
from mginv.network import resistance_matrix
from tests.conftest import random_lengths

F = Fraction


def assert_matches_reference(spec, report=None):
    pg = fam.make_family(spec)
    report = report or invariant_report(pg)
    computed = {"tau": report.tau, "theta": report.theta, "phi": report.phi,
                "lambda": report.lam, "x": report.x, "y": report.y}
    for key, ref in fam.family_reference(spec).items():
        assert computed[key] == ref, (spec.kind, key, computed[key], ref)


class TestGenerators:
    def test_complete_equal_shape(self):
        pg = fam.make_family(fam.FamilySpec("complete_equal", v=4))
        assert pg.graph.num_vertices == 4 and pg.graph.num_edges == 6
        assert all(e.length == F(1, 6) for e in pg.graph.edges)

    def test_necklace_shape(self):
        pg = fam.make_family(fam.FamilySpec("necklace_Cvn", v=12, n=2))
        g = pg.graph
        assert g.num_edges == 24
        assert all(g.valences[p] == 4 for p in g.vertices)
        assert g.genus() == 13

    def test_beta_labels(self):
        pg = fam.genus3_beta(*[F(1, 6)] * 6)
        assert pg.graph.vertices == ("p", "q", "s", "t")
        # edge a joins p and q, f joins s and t
        assert pg.graph.edges[0].ends() == ("p", "q")
        assert pg.graph.edges[5].ends() == ("s", "t")

    def test_beta_laplacian_pattern(self):
        # row p: diag 1/a + 1/b + 1/c with -1/a, -1/b, -1/c toward q, s, t;
        # row q adds 1/d, 1/e; row s adds 1/f
        from mginv.network import network_for
        a, b, c, d, e, f = (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13))
        g = fam.genus3_beta(a, b, c, d, e, f).graph
        lap = network_for(g).laplacian
        assert g.vertices == ("p", "q", "s", "t")
        assert lap[0] == [1 / a + 1 / b + 1 / c, -1 / a, -1 / b, -1 / c]
        assert lap[1] == [-1 / a, 1 / a + 1 / d + 1 / e, -1 / d, -1 / e]
        assert lap[2] == [-1 / b, -1 / d, 1 / b + 1 / d + 1 / f, -1 / f]
        assert lap[3] == [-1 / c, -1 / e, -1 / f, 1 / c + 1 / e + 1 / f]

    def test_gamma_is_cubic(self):
        pg = fam.genus3_gamma(*[F(1, 6)] * 6)
        assert all(pg.graph.valences[p] == 3 for p in pg.graph.vertices)
        assert pg.graph.genus() == 3

    def test_validation(self):
        with pytest.raises(GraphError):
            fam.make_family(fam.FamilySpec("necklace_Cvn", v=2, n=2))
        with pytest.raises(GraphError):
            fam.make_family(fam.FamilySpec("complete_equal"))
        with pytest.raises(GraphError):
            fam.make_family(fam.FamilySpec("genus3_beta", lengths=(F(1),) * 5))
        with pytest.raises(GraphError):
            fam.make_family(fam.FamilySpec("nonesuch"))

    def test_equal_length_fallback(self):
        pg = fam.make_family(fam.FamilySpec("banana", count=4, total=F(2)))
        assert pg.graph.num_edges == 4
        assert pg.graph.total_length() == 2


class TestClosedForms:
    def test_circle(self):
        assert_matches_reference(fam.FamilySpec("circle", total=F(5, 3)))

    def test_bouquet_random_lengths(self, rng):
        for k in range(2, 6):
            spec = fam.FamilySpec("bouquet", lengths=random_lengths(rng, k))
            assert_matches_reference(spec)

    def test_banana_random_lengths(self, rng):
        for e in range(2, 6):
            spec = fam.FamilySpec("banana", lengths=random_lengths(rng, e))
            assert_matches_reference(spec)

    def test_complete_graphs(self):
        for v in range(3, 9):
            assert_matches_reference(fam.FamilySpec("complete_equal", v=v))

    def test_complete_scaled(self):
        assert_matches_reference(fam.FamilySpec("complete_equal", v=5, total=F(7, 2)))

    def test_necklace_grid(self):
        for v in (3, 4, 5):
            for n in (1, 2, 3):
                assert_matches_reference(fam.FamilySpec("necklace_Cvn", v=v, n=n))

    def test_necklace_c32_values(self):
        rep = invariant_report(fam.necklace(3, 2))
        assert rep.phi == F(1, 12)
        assert rep.lam == F(25, 216)

    def test_genus3_random_tuples(self, rng):
        for _ in range(20):
            lengths = random_lengths(rng, 6)
            assert_matches_reference(fam.FamilySpec("genus3_gamma", lengths=lengths))
            assert_matches_reference(fam.FamilySpec("genus3_beta", lengths=lengths))

    def test_no_closed_form(self):
        with pytest.raises(fam.NoClosedForm):
            fam.family_reference(fam.FamilySpec("complete_equal", v=2))


class TestGammaResistances:
    def test_random_tuples(self, rng):
        for _ in range(20):
            lengths = random_lengths(rng, 6)
            pg = fam.genus3_gamma(*lengths)
            r = resistance_matrix(pg.graph)
            idx = pg.graph.vertex_index
            for pair, want in fam.genus3_gamma_resistances(*lengths).items():
                p, q = sorted(pair)
                assert r[idx[p]][idx[q]] == want, pair


class TestSharpness:
    def test_gamma_lambda_floor_and_approach(self, rng):
        # lambda stays strictly above 3 ell / 28 and meets it in the limit
        # a = b -> 0 with c = d = e = f
        for _ in range(10):
            lengths = random_lengths(rng, 6)
            rep = invariant_report(fam.genus3_gamma(*lengths))
            assert rep.lam > F(3, 28) * rep.ell
        c = F(1, 4)
        for a in (F(1, 10), F(1, 100), F(1, 1000)):
            rep = invariant_report(fam.genus3_gamma(a, a, c, c, c, c))
            assert rep.lam == F(3, 28) * rep.ell + a / 14

    def test_gamma_phi_floor_and_formula(self, rng):
        for _ in range(10):
            lengths = random_lengths(rng, 6)
            rep = invariant_report(fam.genus3_gamma(*lengths))
            assert rep.phi > rep.ell / 16
        for a, c in ((F(1, 8), F(1, 3)), (F(1, 50), F(2, 7))):
            rep = invariant_report(fam.genus3_gamma(a, a, c, c, c, c))
            assert rep.phi == rep.ell / 16 + a * (62 * a + 3 * c) / (72 * (2 * a + c))

    def test_beta_lambda_approach(self):
        # a = f = ell/2 - k, b = c = d = e = k/2 approaches 3 ell / 28
        ell = F(1)
        for k in (F(1, 10), F(1, 100)):
            a = ell / 2 - k
            rep = invariant_report(fam.genus3_beta(a, k / 2, k / 2, k / 2, k / 2, a))
            expected = (F(3, 28) * ell
                        + k * (ell - 2 * k) / (56 * (ell - k) ** 2) * ell)
            assert rep.lam == expected

    def test_beta_line_strict(self, rng):
        # ell + 23 y - 13 x > 0 on every beta instance
        for _ in range(20):
            lengths = random_lengths(rng, 6)
            rep = invariant_report(fam.genus3_beta(*lengths))
            assert rep.ell + 23 * rep.y - 13 * rep.x > 0
