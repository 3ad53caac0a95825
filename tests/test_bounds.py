import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import mginv.families as fam
from mginv.bounds import (BoundCheck, SearchConfig, bound_suite,
                          effective_bogomolov_r0, graph_id, random_pm_graph,
                          random_search, t_value, violations)
from mginv.graphs import MetrizedGraph, PMGraph
from mginv.scalars import FLOAT, Surd79

F = Fraction


def by_name(checks):
    return {c.name: c for c in checks}


class TestTValue:
    def test_small_genus(self):
        assert t_value(2) == F(1, 27)
        assert t_value(4) == F(3, 88)
        assert t_value(5) == F(16, 400)

    def test_t3_exact(self):
        t3 = t_value(3)
        assert isinstance(t3, Surd79)
        assert float(t3) == pytest.approx(0.054473927, abs=1e-9)
        assert t_value(3, exact=False) == pytest.approx(float(t3), rel=1e-12)

    def test_floor(self):
        for g in range(4, 40):
            assert t_value(g) >= F(3, 88)

    def test_rejects_genus_one(self):
        with pytest.raises(ValueError):
            t_value(1)


class TestSuiteOnFamilies:
    def test_k4_all_satisfied(self):
        checks = bound_suite(fam.complete_equal(4))
        assert not violations(checks)
        named = by_name(checks)
        assert named["lm_regular"].margin == 0       # sharp at (v, n) = (4, 3)
        assert named["phi_t"].applicable
        assert named["beta_13x23y"].satisfied
        assert named["main2_v"].applicable
        assert named["main1_v"].reason is not None   # valence 3 < 4

    def test_banana_sharp(self):
        named = by_name(bound_suite(fam.banana([F(1, 3)] * 3)))
        assert named["phi_t"].margin == 0
        assert named["lambda_floor"].margin == 0
        assert named["phi_v"].margin == 0            # sharp at the equal banana too

    def test_banana_exact_zeros(self):
        # the equal 3-edge banana of total length 1 pins genus 2: exactly
        # these proved bounds hold with equality on rationals
        checks = bound_suite(fam.banana([F(1, 3)] * 3))
        zeros = {c.name for c in checks
                 if c.applicable and c.proved and c.margin == 0}
        assert zeros == {
            "zhang_lower", "zhang_conj_lhs", "zhang_conj_rhs", "phi_t",
            "phi_delta", "lambda_delta", "lambda_floor", "phi_i", "phi_v",
            "xy_conn", "xy_gy", "xy_parabola"}
        assert all(isinstance(c.margin, F) for c in checks
                   if c.name in zeros)

    def test_bouquet_lambda_sharp(self):
        named = by_name(bound_suite(fam.bouquet([F(1, 2), F(1, 4), F(1, 4)])))
        assert named["lambda_floor"].margin == 0
        # bouquet is not irreducible, so the conjecture checks stay off
        assert not named["phi_t"].applicable

    def test_genus3_t3_checks(self):
        named = by_name(bound_suite(fam.genus3_beta(*[F(1, 6)] * 6)))
        assert named["phi_t"].applicable and named["phi_t"].satisfied
        assert isinstance(named["phi_t"].margin, Surd79)
        assert named["phi_t3_weak"].satisfied
        assert named["zhang_conj_rhs"].satisfied
        assert named["beta_13x23y"].margin == F(1, 8)

    def test_necklace_high_connectivity(self):
        checks = bound_suite(fam.necklace(3, 4))     # valence 8, connectivity 8
        named = by_name(checks)
        assert named["phi_vi"].applicable
        assert named["phi_vi"].satisfied
        assert named["main1_conn1"].applicable       # threshold met with equality
        assert named["main2_conn1"].applicable
        assert not violations(checks)

    def test_bridged_graph_applicability(self):
        g = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))])
        named = by_name(bound_suite(PMGraph.of(g)))
        for name in ("zhang_lower", "lambda_floor", "phi_i", "xy_sum", "phi_t"):
            assert not named[name].applicable
            assert named[name].reason
        # the delta-weighted lambda bound applies to every pm-graph
        assert named["lambda_delta"].applicable
        assert named["lambda_delta"].satisfied
        assert named["phi_delta"].applicable
        assert named["phi_delta"].satisfied

    def test_count_variant_informational(self):
        g = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))])
        named = by_name(bound_suite(PMGraph.of(g)))
        assert "lambda_delta_count" in named
        assert not named["lambda_delta_count"].proved
        # unit-length deltas coincide with counts: no informational twin
        unit = by_name(bound_suite(fam.complete_equal(4, F(6))))
        assert "phi_delta_count" not in unit

    def test_margin_orientation(self):
        c = BoundCheck("demo", True, None, F(1), F(2), F(-1), False)
        assert c.margin < 0 and not c.satisfied

    def test_point_graph(self):
        # a single polarized vertex with no edges is a valid pm-graph; the
        # whole suite runs with zero invariants and no violations
        point = PMGraph.of(MetrizedGraph.build(["p"], []), {"p": 2})
        checks = bound_suite(point)
        assert not violations(checks)
        named = by_name(checks)
        assert not named["xy_parabola"].applicable
        assert named["phi_delta"].applicable and named["phi_delta"].satisfied


class TestConjectureFormConsistency:
    def test_margins_proportional(self, rng):
        # the epsilon/a forms of the two conjecture inequalities reduce to
        # the tau/theta forms: their margins are exact multiples
        from tests.conftest import random_simple_bridgeless
        for _ in range(6):
            pg = random_simple_bridgeless(rng)
            named = by_name(bound_suite(pg))
            if not named["zhang_conj_rhs"].applicable:
                continue
            gbar = pg.pm_genus()
            assert named["zhang_conj_rhs"].margin == 4 * named["phi_t"].margin
            assert named["zhang_conj_lhs"].margin == \
                F(gbar - 1, gbar + 1) * named["zhang_lower"].margin


class TestRandomBatch:
    def test_no_violations(self, rng):
        cfg = SearchConfig(vertices=(3, 7), edges=(4, 11), genus=(2, 5), max_q=1)
        for _ in range(60):
            pg = random_pm_graph(rng, cfg)
            bad = violations(bound_suite(pg))
            assert not bad, (pg, [c.name for c in bad])


class TestEffectiveBound:
    def test_smooth(self):
        for gbar in range(2, 7):
            r0, ad = effective_bogomolov_r0([], gbar, smooth=True)
            assert r0 == 12 * (gbar - 1)
            assert ad == F(3, gbar - 1)

    def test_banana_component(self):
        r0, ad = effective_bogomolov_r0([fam.banana([F(1, 3)] * 3)], 2,
                                        smooth=False)
        assert r0 == F(2, 135)  # (2/5) * t(2) with delta_0 = 1
        assert ad == F(1, 270)

    def test_monotone_in_delta(self):
        small = effective_bogomolov_r0([fam.banana([F(1, 3)] * 3)], 2, False)[0]
        big = effective_bogomolov_r0([fam.banana([F(2, 3)] * 3)], 2, False)[0]
        both = effective_bogomolov_r0(
            [fam.banana([F(1, 3)] * 3), fam.banana([F(1, 3)] * 3)], 2, False)[0]
        assert big == 2 * small
        assert both == 2 * small

    def test_type1_contribution(self):
        g = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))])
        r0, _ = effective_bogomolov_r0([PMGraph.of(g)], 2, False)
        # delta_0 = 2, delta_1 = 1/2, weights t(2) and 2*1*1/2
        assert r0 == F(2, 5) * (F(1, 27) * 2 + F(1, 2))

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            effective_bogomolov_r0([], 1, True)
        with pytest.raises(ValueError):
            effective_bogomolov_r0([fam.banana([F(1, 3)] * 3)], 3, False)


class TestRandomSearch:
    def test_deterministic(self):
        cfg = SearchConfig(samples=40, seed=11)
        a = random_search(cfg)
        b = random_search(cfg)
        assert [(r.graph_id, r.min_margin) for r in a] == \
            [(r.graph_id, r.min_margin) for r in b]

    def test_no_exact_violations(self):
        res = random_search(SearchConfig(samples=80, seed=3, genus=(2, 5)))
        assert all(not r.violations for r in res)

    def test_genus2_margins_shrink(self):
        # genus-2 sampling produces banana-like near-sharp instances
        res = random_search(SearchConfig(samples=120, seed=9, genus=(2, 2),
                                         vertices=(2, 4), edges=(3, 6)))
        assert res[0].min_margin < 0.02

    def test_float_backend_rechecks(self):
        res = random_search(SearchConfig(samples=60, seed=5, backend=FLOAT))
        assert all(not r.violations for r in res)

    def test_workers_merge_identical(self):
        cfg1 = SearchConfig(samples=12, seed=2)
        cfg2 = SearchConfig(samples=12, seed=2, workers=2)
        assert [r.graph_id for r in random_search(cfg1)] == \
            [r.graph_id for r in random_search(cfg2)]

    def test_config_validated(self):
        for kwargs in ({"samples": 0}, {"workers": 0}, {"vertices": (4, 3)},
                       {"edges": (5, 4)}, {"genus": (3, 2)}, {"vertices": (0, 2)},
                       {"vertices": (3, 3), "edges": (20, 20), "genus": (2, 2)}):
            with pytest.raises(ValueError):
                SearchConfig(**kwargs)

    def test_feasibility_by_enumeration(self):
        # a config is accepted exactly when some (target, v, e) passes the
        # sampler's rules; an accepted one then samples within its ranges
        rng = random.Random(31)

        def enumerated(cfg):
            for v in range(cfg.vertices[0], cfg.vertices[1] + 1):
                for e in range(max(v, cfg.edges[0]), max(v, cfg.edges[1]) + 1):
                    g = e - v + 1
                    if (v == 1 and e > 1) or (cfg.simple_only
                                              and e > v * (v - 1) // 2):
                        continue
                    if any(g <= t <= g + v * cfg.max_q
                           for t in range(cfg.genus[0], cfg.genus[1] + 1)):
                        return True
            return False

        accepted = 0
        for _ in range(400):
            lo = [rng.randint(0, 5), rng.randint(1, 5), rng.randint(0, 8)]
            hi = [x + rng.randint(0, 3) for x in lo]
            kwargs = dict(genus=(lo[0], hi[0]), vertices=(lo[1], hi[1]),
                          edges=(lo[2], hi[2]), max_q=rng.randint(0, 2),
                          simple_only=rng.random() < 0.3)
            try:
                cfg = SearchConfig(**kwargs)
            except ValueError:
                assert not enumerated(SimpleNamespace(**kwargs)), kwargs
                continue
            assert enumerated(cfg), kwargs
            accepted += 1
            pg = random_pm_graph(rng, cfg)
            v, e = pg.graph.num_vertices, pg.graph.num_edges
            assert cfg.vertices[0] <= v <= cfg.vertices[1]
            assert max(v, cfg.edges[0]) <= e <= max(v, cfg.edges[1])
            assert cfg.genus[0] <= pg.pm_genus() <= cfg.genus[1]
        assert 100 <= accepted <= 350

    def test_graph_id_stable(self):
        pg = fam.complete_equal(4)
        assert graph_id(pg) == graph_id(fam.complete_equal(4))
        assert len(graph_id(pg)) == 12
