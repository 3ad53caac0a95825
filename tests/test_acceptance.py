"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. All
checks are exact (rational backend) unless a criterion states a float
tolerance. Everything runs at desk scale.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import mginv.families as fam
from mginv.bounds import (SearchConfig, bound_suite, effective_bogomolov_r0,
                          random_pm_graph, random_search, t_value, violations)
from mginv.invariants import invariant_report, quick_report, xy
from mginv.network import (matmul, network_for, resistance_matrix,
                           resistance_oracle)
from tests.conftest import random_lengths

F = Fraction

REL = 1e-10


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:2d} FAIL  {description}")
        raise
    print(f"CRITERION {num:2d} PASS  {description}")


def close(a, b):
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= REL * max(1.0, abs(fa), abs(fb))


def test_criterion_01_circle_tau():
    with criterion(1, "circle: tau = length/12 for 10 random rational lengths"):
        rng = random.Random(101)
        for _ in range(10):
            ell = F(rng.randint(1, 400), rng.randint(1, 60))
            rep = invariant_report(fam.circle(ell))
            assert rep.tau == ell / 12
            assert set(rep.tau_methods) == {"edges", "laplacian", "crossterm",
                                            "contraction"}


def test_criterion_02_complete_graphs():
    with criterion(2, "complete graph: K4 exact sextuple and closed forms v=4..8"):
        rep = invariant_report(fam.complete_equal(4))
        assert rep.tau == F(5, 96)
        assert rep.theta == 1
        assert rep.epsilon == F(11, 36)
        assert rep.a == F(37, 864)
        assert rep.phi == F(17, 288)
        assert rep.lam == F(25, 224)
        for v in range(4, 9):
            spec = fam.FamilySpec("complete_equal", v=v)
            ref = fam.family_reference(spec)
            got = invariant_report(fam.make_family(spec))
            assert got.phi == ref["phi"] and got.lam == ref["lambda"], v


def test_criterion_03_banana_sharp():
    with criterion(3, "banana(3 equal): tau = 7/108, phi = 1/27 = t(2), margin 0"):
        pg = fam.banana([F(1, 3)] * 3)
        rep = invariant_report(pg)
        assert rep.tau == F(7, 108)
        assert rep.phi == F(1, 27) == t_value(2)
        checks = {c.name: c for c in bound_suite(pg, rep)}
        assert checks["phi_t"].applicable and checks["phi_t"].margin == 0


def test_criterion_04_bouquet_phi():
    with criterion(4, "bouquet: phi = (g-1) ell / (6g) for k = 2..5, random lengths"):
        rng = random.Random(104)
        for k in range(2, 6):
            pg = fam.bouquet(random_lengths(rng, k))
            rep = invariant_report(pg)
            assert rep.phi == F(k - 1, 6 * k) * rep.ell, k


def test_criterion_05_necklaces():
    with criterion(5, "necklace C_{v,n} closed forms on {3,4,5} x {2,3}"):
        for v in (3, 4, 5):
            for n in (2, 3):
                spec = fam.FamilySpec("necklace_Cvn", v=v, n=n)
                ref = fam.family_reference(spec)
                rep = invariant_report(fam.make_family(spec))
                for key, attr in (("tau", "tau"), ("theta", "theta"),
                                  ("phi", "phi"), ("lambda", "lam")):
                    assert getattr(rep, attr) == ref[key], (v, n, key)
        rep = invariant_report(fam.necklace(3, 2))
        assert rep.phi == F(1, 12) and rep.lam == F(25, 216)


def test_criterion_06_genus3():
    with criterion(6, "genus-3 pair: closed forms on 20 random tuples, "
                      "beta line inequality on 200 instances"):
        rep = invariant_report(fam.genus3_beta(*[F(1, 6)] * 6))
        assert rep.phi == F(17, 288)
        rng = random.Random(106)
        for _ in range(20):
            lengths = random_lengths(rng, 6)
            for kind in ("genus3_gamma", "genus3_beta"):
                spec = fam.FamilySpec(kind, lengths=lengths)
                ref = fam.family_reference(spec)
                got = invariant_report(fam.make_family(spec))
                values = {"tau": got.tau, "theta": got.theta, "phi": got.phi,
                          "lambda": got.lam, "x": got.x, "y": got.y}
                for key, want in ref.items():
                    assert values[key] == want, (kind, key)
        # the line 13x = ell + 23y bounds the x/y region of beta from the
        # side that pins the genus-3 phi minimum: ell + 23y - 13x >= 0,
        # strictly, on every instance
        for _ in range(200):
            g = fam.genus3_beta(*random_lengths(rng, 6)).graph
            x, y = xy(g)
            assert g.total_length() + 23 * y - 13 * x > 0


def test_criterion_07_cross_formula_agreement():
    with criterion(7, "4 tau and 4 theta formulas agree exactly on 100 random "
                      "bridgeless simple graphs, all base vertices"):
        rng = random.Random(107)
        cfg = SearchConfig(simple_only=True, vertices=(3, 8), edges=(4, 14),
                           genus=(2, 7), max_q=0)
        for _ in range(100):
            pg = random_pm_graph(rng, cfg)
            rep = invariant_report(pg)  # raises on any disagreement
            assert set(rep.tau_methods) == {"edges", "laplacian", "crossterm",
                                            "contraction"}
            assert set(rep.theta_methods) == {"definition", "second", "third",
                                              "fourth"}
            assert len(set(rep.tau_methods.values())) == 1
            assert len(set(rep.theta_methods.values())) == 1


def test_criterion_08_oracle_equivalence():
    with criterion(8, "resistance matrix equals the spanning-tree oracle on "
                      "50 random graphs with <= 12 edges"):
        rng = random.Random(108)
        cfg = SearchConfig(vertices=(2, 6), edges=(2, 12), genus=(1, 6), max_q=2)
        for _ in range(50):
            g = random_pm_graph(rng, cfg).graph
            r = resistance_matrix(g)
            for i, p in enumerate(g.vertices):
                for j, q in enumerate(g.vertices):
                    assert resistance_oracle(g, p, q) == r[i][j]


def test_criterion_09_identity_suite():
    with criterion(9, "genus identity, x/y identities, Moore-Penrose, and "
                      "loop-attachment shifts all exact"):
        from mginv.invariants import genus_identity_residual
        from mginv.graphs import PMGraph
        rng = random.Random(109)
        cfg = SearchConfig(vertices=(3, 7), edges=(4, 10), genus=(2, 5), max_q=2)
        for _ in range(15):
            pg = random_pm_graph(rng, cfg)
            g = pg.graph
            assert genus_identity_residual(g) == 0
            rep = quick_report(pg)
            assert rep.tau == rep.ell / 12 - rep.x / 6 + rep.y / 6
            from mginv.invariants import _sum_lr
            assert rep.x + rep.y == _sum_lr(network_for(g))
            net = network_for(g.normalized())
            l, p = net.laplacian, net.lplus
            assert matmul(matmul(l, p), l) == l
            assert matmul(matmul(p, l), p) == p
            # attach loops of random length at random extra polarization
            if pg.pm_genus() >= 2 and pg.q_total == 0:
                q = {g.vertices[0]: rng.randint(1, 2)}
                pg = PMGraph.of(g, q)
            if pg.q_total:
                eps_len = F(rng.randint(1, 30), 30)
                gbar, q_total = pg.pm_genus(), pg.q_total
                before = quick_report(pg)
                after = quick_report(pg.attach_loops(eps_len))
                shift = eps_len * q_total
                assert after.phi - before.phi == shift * F(gbar - 1, 6 * gbar)
                assert after.epsilon - before.epsilon == shift * F(gbar - 1, 3 * gbar)
                assert after.a - before.a == shift * F(2 * gbar - 1, 12 * gbar ** 2)
                assert after.lam - before.lam == shift * F(gbar, 8 * gbar + 4)


def test_criterion_10_bound_suite():
    with criterion(10, "zero violations of proved bounds over 500 seeded "
                       "random pm-graphs; sharp margins reproduced"):
        results = random_search(SearchConfig(samples=500, seed=110,
                                             genus=(2, 6), vertices=(2, 7),
                                             edges=(3, 11), max_q=1))
        assert all(not r.violations for r in results)
        banana_checks = {c.name: c for c in bound_suite(fam.banana([F(1, 3)] * 3))}
        assert banana_checks["phi_t"].margin == 0
        k4_checks = {c.name: c for c in bound_suite(fam.complete_equal(4))}
        assert k4_checks["lm_regular"].margin == 0


def test_criterion_11_effective_bound():
    with criterion(11, "effective lower bound: smooth 12(g-1) for g = 2..6, "
                       "banana component gives 2/135"):
        for gbar in range(2, 7):
            r0, _ = effective_bogomolov_r0([], gbar, smooth=True)
            assert r0 == 12 * (gbar - 1)
        r0, _ = effective_bogomolov_r0([fam.banana([F(1, 3)] * 3)], 2,
                                       smooth=False)
        assert r0 == F(2, 135)


def test_criterion_12_float_agreement():
    with criterion(12, "float backend within 1e-10 relative of exact on the "
                       "criterion 1-6 instances"):
        rng = random.Random(112)
        instances = [fam.circle(F(rng.randint(1, 100), rng.randint(1, 60)))
                     for _ in range(3)]
        instances += [fam.complete_equal(v) for v in range(4, 9)]
        instances.append(fam.banana([F(1, 3)] * 3))
        instances += [fam.bouquet(random_lengths(rng, k)) for k in range(2, 6)]
        instances += [fam.necklace(v, n) for v in (3, 4, 5) for n in (2, 3)]
        for _ in range(3):
            lengths = random_lengths(rng, 6)
            instances.append(fam.genus3_gamma(*lengths))
            instances.append(fam.genus3_beta(*lengths))
        for pg in instances:
            exact = invariant_report(pg)
            approx = invariant_report(pg.as_float())
            for name in ("ell", "tau", "theta", "epsilon", "a", "phi", "lam",
                         "x", "y"):
                assert close(getattr(exact, name), getattr(approx, name)), name
