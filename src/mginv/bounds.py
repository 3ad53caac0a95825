"""The inequality suite: every proved lower/upper bound as a runtime check,
the effective-Bogomolov constant, and a seeded random search for near-tight
instances.

Each check carries its applicability predicate (bridgeless, q = 0,
irreducible, valence floor, equal lengths, edge-connectivity threshold),
evaluated structurally on the input graph. An inapplicable check carries no
verdict. Checks are oriented so that margin = lhs - rhs >= 0 means
satisfied. The few checks marked ``proved=False`` are informational
variants (edge-count deltas on non-unit graphs) and are excluded from
violation accounting.

The genus-3 constant t(3) is irrational; on the rational backend it is kept
as an exact ``Surd79`` so every verdict involving it is decided by sign
analysis, never by floating point.

Every ``mginv`` command imports this module, so it imports at module level
only what every command needs: ``hashlib`` is imported by ``graph_id`` and
the process pool by ``random_search`` with more than one worker, each on
first use.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction

from .graphs import MetrizedGraph, PMGraph, pm_graph_to_json_dict
from .invariants import InvariantReport, quick_report
from .scalars import FLOAT, RATIONAL, Scalar, Surd79

#: float-backend margins smaller than this get re-verified exactly
EXACT_RECHECK_THRESHOLD = 1e-6


def t_value(gbar: int, exact: bool = True):
    """The genus-dependent constant in the phi lower bounds: 1/27 at genus
    two, (892 - 11 sqrt 79)/14580 at genus three, (g-1)^2/(2g(7g+5)) from
    genus four on."""
    if gbar < 2:
        raise ValueError("t is defined for genus >= 2")
    if gbar == 2:
        return Fraction(1, 27)
    if gbar == 3:
        if exact:
            return Surd79(Fraction(892, 14580), Fraction(-11, 14580))
        return (892 - 11 * 79 ** 0.5) / 14580
    return Fraction((gbar - 1) ** 2, 2 * gbar * (7 * gbar + 5))


class BoundCheck(namedtuple("BoundCheck",
                            "name applicable reason lhs rhs margin satisfied proved",
                            defaults=(None, None, None, None, None, True))):
    """One inequality on one pm-graph. ``reason`` says why it is not
    applicable; ``margin`` is lhs - rhs, and >= 0 means satisfied."""

    __slots__ = ()


def _phi_delta_sum(gbar: int, values, t) -> Scalar:
    """t values[0] + sum over i >= 1 of 2 i (gbar - i) / gbar values[i],
    with t = t(gbar); zero terms are skipped."""
    total = t * values[0]
    for i in range(1, gbar // 2 + 1):
        if values[i]:
            total = total + Fraction(2 * i * (gbar - i), gbar) * values[i]
    return total


def _lambda_delta_sum(gbar: int, values) -> Scalar:
    """gbar/(8 gbar + 4) values[0] + sum over i >= 1 of
    i (gbar - i) / (2 gbar + 1) values[i]; zero terms are skipped."""
    total = Fraction(gbar, 8 * gbar + 4) * values[0]
    for i in range(1, gbar // 2 + 1):
        if values[i]:
            total = total + Fraction(i * (gbar - i), 2 * gbar + 1) * values[i]
    return total


def bound_suite(pg: PMGraph, report: InvariantReport | None = None) -> list[BoundCheck]:
    """Evaluate every named inequality on one pm-graph.

    The suite is one table of rows (name, rules, proved, sides). A rule is
    a condition and the reason reported when it fails; the first rule of a
    row that fails makes the row not applicable with its reason. A rule
    with no reason leaves its row out instead: the informational count
    rows are listed only where edge counts differ from lengths. ``sides``
    returns (lhs, rhs) and is called only on an applicable row.
    """
    if report is None:
        report = quick_report(pg)
    graph = pg.graph
    exact = report.backend == RATIONAL
    struct = graph.structure
    bridgeless = not struct.bridges
    irreducible = struct.is_irreducible
    simple_pol = pg.is_simple_polarization
    simple_graph = graph.is_simple
    gbar = report.pm_genus
    g = report.genus
    ell, tau, theta = report.ell, report.tau, report.theta
    eps, a, phi, lam = report.epsilon, report.a, report.phi, report.lam
    x, y = report.x, report.y
    v, e = graph.num_vertices, graph.num_edges
    lam_conn = struct.edge_connectivity
    valences = graph.valences
    min_val = min(valences.values())
    equal_lengths = bool(graph.edges) and all(
        edge.length == graph.edges[0].length for edge in graph.edges)
    n_reg = valences[graph.vertices[0]]
    is_regular = all(val == n_reg for val in valences.values())
    q_values = {pg.q[p] for p in graph.vertices}
    delta = report.delta
    # delta-weighted bounds use lengths; their edge-count forms are
    # informational
    counts = pg.edge_type_counts()
    counts_differ = any(counts[i] != delta[i] for i in delta)
    t = t_value(gbar, exact) if gbar >= 2 else None

    # the rules several rows share
    bridgeless_g2 = (bridgeless and gbar >= 2, "needs bridgeless and genus >= 2")
    irreducible_g2 = (irreducible and gbar >= 2, "needs irreducible and genus >= 2")
    bridgeless_only = (bridgeless, "needs bridgeless")
    q_0 = (bridgeless and simple_pol, "needs bridgeless and q = 0")
    main1 = (bridgeless and simple_pol and v >= 3 and min_val >= 4,
             "needs bridgeless, q = 0, >= 3 vertices and valence >= 4")
    main1_conn = (lam_conn * (2 * g + 7) >= 4 * (5 * g + 4),
                  "edge connectivity below threshold")
    main2 = (bridgeless and simple_pol and v >= 3 and min_val >= 3,
             "needs bridgeless, q = 0, >= 3 vertices and valence >= 3")
    main2_conn = (lam_conn * (g + 2) >= 7 * g + 5, "edge connectivity below threshold")
    xy_region = (bridgeless_only, (e > 0, "needs at least one edge"))
    counts_listed = (counts_differ, None)

    table = (
        # Zhang-type bounds in tau/theta/epsilon/a
        ("zhang_lower", (bridgeless_g2,), True,
         lambda: (12 * tau + theta / (gbar - 1), ell)),
        ("zhang_conj_lhs", (irreducible_g2,), True,
         lambda: (eps, Fraction(gbar - 1, gbar + 1) * (ell - 4 * gbar * a))),
        ("zhang_conj_rhs", (irreducible_g2,), True,
         lambda: (12 * gbar * a - (1 + 4 * t) * ell, eps)),
        ("phi_t", (irreducible_g2,), True, lambda: (phi, t * ell)),
        ("phi_t3_weak", (irreducible_g2, (gbar == 3, "genus-3 only")), True,
         lambda: (phi, ell / 30)),
        # delta-weighted conjecture bounds
        ("phi_delta", ((gbar >= 2, "needs genus >= 2"),), True,
         lambda: (phi, _phi_delta_sum(gbar, delta, t))),
        ("phi_delta_count", ((gbar >= 2, None), counts_listed), False,
         lambda: (phi, _phi_delta_sum(gbar, counts, t))),
        ("lambda_delta", (), True, lambda: (lam, _lambda_delta_sum(gbar, delta))),
        ("lambda_delta_count", (counts_listed,), False,
         lambda: (lam, _lambda_delta_sum(gbar, counts))),
        ("lambda_floor", (bridgeless_only,), True,
         lambda: (lam, Fraction(gbar, 8 * gbar + 4) * ell)),
        # the six phi lower bounds for bridgeless q = 0 graphs
        ("phi_i", (q_0,), True,
         lambda: (phi, Fraction(2 * g + 1, g) * tau - ell / (4 * g))),
        ("phi_ii", (q_0,), True,
         lambda: (phi, Fraction(g - 1, 12 * g * (g + 1)) * ell)),
        ("phi_iii", (q_0,), True,
         lambda: (phi, Fraction(4 * e - 5 * v, 4 * g * (v + 6)) * ell)),
        ("phi_iv", (q_0,), True,
         lambda: (phi, Fraction(g - 1, 4 * g * (g + 2)) * ell)),
        ("phi_v", (q_0, (equal_lengths and min_val >= 3,
                         "needs equal lengths and valence >= 3")), True,
         lambda: (phi, Fraction((2 * g + 1) * g * g * v + 6 * (2 * g + 1) * (v - 1) ** 2
                                - 3 * e * e * v, 12 * g * v * e * e) * ell)),
        ("phi_vi", (q_0, (lam_conn >= 4, "needs edge connectivity >= 4")), True,
         lambda: (phi,
                  Fraction(2 * g + 1, 12 * g) * (1 - Fraction(4, lam_conn)) ** 2 * ell
                  + Fraction(4 * (2 * g + 1) * (lam_conn - 2),
                             g * (v + 6) * lam_conn ** 2) * ell
                  - ell / (4 * g))),
        # the two main phi bounds with their connectivity-improved variants
        ("main1_v", (main1,), True,
         lambda: (phi, Fraction(2 * g * g * (v + 10) - 2 * g * (5 * v + 2) - 19 * v - 16,
                                4 * g * (5 * g + 4) * (v + 6)) * ell)),
        ("main1_g", (main1,), True,
         lambda: (phi, Fraction((2 * g * g + 10 * g - 3) * (g - 1),
                                4 * g * (g + 5) * (5 * g + 4)) * ell)),
        ("main1_conn1", (main1, main1_conn), True,
         lambda: (phi, Fraction((g - 1) * lam_conn ** 2 * (v + 6)
                                - 4 * v * (2 * g + 7) * lam_conn + 8 * v * (5 * g + 4),
                                6 * g * (v + 6) * lam_conn ** 2) * ell)),
        ("main1_conn2", (main1, main1_conn), True,
         lambda: (phi, (Fraction(g - 1, 6 * g) * (1 - Fraction(4, lam_conn)) ** 2
                        + Fraction(2 * (g - 1) * (lam_conn + 2 * g - 4),
                                   g * (g + 5) * lam_conn ** 2)) * ell)),
        ("main2_v", (main2,), True,
         lambda: (phi, Fraction(g * g * (v + 14) - 2 * g * (3 * v + 2) - 7 * v - 10,
                                2 * g * (7 * g + 5) * (v + 6)) * ell)),
        ("main2_g", (main2,), True,
         lambda: (phi, Fraction((g - 1) ** 2, 2 * g * (7 * g + 5)) * ell)),
        ("main2_conn1", (main2, main2_conn), True,
         lambda: (phi, Fraction((g - 1) * (v + 6) * lam_conn ** 2
                                - 8 * v * (g + 2) * lam_conn + 4 * v * (7 * g + 5),
                                6 * g * (v + 6) * lam_conn ** 2) * ell)),
        ("main2_conn2", (main2, main2_conn), True,
         lambda: (phi, (Fraction(g - 1, 6 * g) * (1 - Fraction(4, lam_conn)) ** 2
                        + Fraction(2 * (g - 1) ** 2, g * (g + 2) * lam_conn ** 2)) * ell)),
        # the x/y feasible region
        ("xy_sum", xy_region, True, lambda: (ell, x + y)),
        ("xy_conn", xy_region, True, lambda: (x, (lam_conn - 1) * y)),
        ("xy_gy", xy_region, True, lambda: (g * y, x)),
        ("xy_parabola", xy_region, True,
         lambda: (y, Fraction(v + 6, 4 * v) * (x + y) ** 2 / ell)),
        # regular equal-length graphs via the Laplacian trace bound
        ("lm_regular",
         ((simple_graph and is_regular and equal_lengths and len(q_values) == 1,
           "needs a simple regular graph, equal lengths, constant q"),), True,
         lambda: (phi, Fraction(v ** 3 * (n_reg * n_reg + 2 * n_reg - 14)
                                - v * v * (16 * n_reg - 68)
                                + 6 * v * (2 * n_reg - 15) + 36,
                                6 * n_reg * n_reg * v ** 3) * ell)),
        # 13x stays below ell + 23y on complete graphs on 4 vertices; this
        # line bounds the x/y region from the side that pins the genus-3
        # phi minimum
        ("beta_13x23y", ((simple_graph and simple_pol and v == 4 and e == 6,
                          "complete graph on 4 vertices only"),), True,
         lambda: (ell + 23 * y, 13 * x)),
    )

    checks: list[BoundCheck] = []
    for name, rules, proved, sides in table:
        failed = [why for holds, why in rules if not holds]
        if not failed:
            lhs, rhs = sides()
            margin = lhs - rhs
            checks.append(BoundCheck(name, True, None, lhs, rhs, margin,
                                     bool(margin >= 0), proved))
        elif failed[0] is not None:
            checks.append(BoundCheck(name, False, failed[0], proved=proved))
    return checks


def violations(checks: list[BoundCheck]) -> list[BoundCheck]:
    """The applicable proved checks that failed."""
    return [c for c in checks if c.applicable and c.proved and not c.satisfied]


# ---------------------------------------------------------------------------
# effective Bogomolov lower bound


def effective_bogomolov_r0(components: list[PMGraph], gbar: int,
                           smooth: bool, exact: bool = True) -> tuple[Scalar, Scalar]:
    """The two effective lower bounds (r0, aD) for a genus-gbar fibration.

    ``components`` are the dual pm-graphs of the singular fibers (ignored
    and typically empty in the smooth case); their type-i totals are summed
    across fibers. Both bounds are positive as soon as the fibration is
    smooth or any delta is positive.
    """
    if gbar < 2:
        raise ValueError("effective bounds need genus >= 2")
    if smooth:
        return 12 * (gbar - 1), Fraction(3, gbar - 1)
    total: dict[int, Scalar] = {i: Fraction(0) for i in range(gbar // 2 + 1)}
    for pg in components:
        if pg.pm_genus() != gbar:
            raise ValueError(f"component genus {pg.pm_genus()} != {gbar}")
        _, delta = pg.edge_types()
        for i, val in delta.items():
            total[i] = total[i] + val
    weighted = _phi_delta_sum(gbar, total, t_value(gbar, exact))
    r0 = Fraction(2 * (gbar - 1) ** 2, 2 * gbar + 1) * weighted
    # a product, not a quotient: at gbar = 3 ``weighted`` is a Surd79
    a_d = Fraction(1, 2 * (2 * gbar + 1)) * weighted
    return r0, a_d


# ---------------------------------------------------------------------------
# random search


class SearchConfig(namedtuple("SearchConfig", "samples seed genus vertices edges lengths "
                                              "max_q simple_only backend workers")):
    """Deterministic random sampling of bridgeless pm-graphs.

    Graphs are a random cycle plus random chords (parallel edges allowed
    unless ``simple_only``), with lengths drawn from a rational grid and
    extra polarization pushing the genus into range. Identical output for
    identical seeds, regardless of worker count. ``genus``, ``vertices``
    and ``edges`` are inclusive (lo, hi) ranges.
    """

    __slots__ = ()

    def __new__(cls, samples: int = 100, seed: int = 0,
                genus: tuple[int, int] = (2, 4), vertices: tuple[int, int] = (3, 7),
                edges: tuple[int, int] = (4, 10),
                lengths: tuple[Scalar, ...] = tuple(Fraction(k, 12) for k in range(1, 13)),
                max_q: int = 1, simple_only: bool = False, backend: str = RATIONAL,
                workers: int = 1):
        self = tuple.__new__(cls, (samples, seed, genus, vertices, edges, lengths,
                                   max_q, simple_only, backend, workers))
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        for name in ("genus", "vertices", "edges"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} range {lo}:{hi} is inverted")
        if vertices[0] < 1:
            raise ValueError(f"vertices range {vertices[0]}:{vertices[1]} "
                             "must start at 1 or more")
        if not any(self._feasible(v) for v in range(vertices[0], vertices[1] + 1)):
            raise ValueError("no graph in the vertex and edge ranges has a "
                             "pm-genus in the genus range")
        return self

    def _feasible(self, v: int) -> bool:
        """Whether ``random_pm_graph`` can draw a graph with v vertices: an
        edge count e in range, placeable (one vertex takes no chord), and a
        target genus with g = e - v + 1 <= target <= g + v max_q."""
        e_lo = max(v, self.edges[0])
        e_hi = max(v, self.edges[1]) if v > 1 else 1
        if self.simple_only:
            e_hi = min(e_hi, v * (v - 1) // 2)
        g_lo = max(e_lo - v + 1, max(self.genus[0], 1) - v * self.max_q)
        return g_lo <= min(e_hi - v + 1, self.genus[1])


class SearchResult(namedtuple("SearchResult",
                              "graph_id pm min_margin margins checks violations",
                              defaults=((), ()))):
    """One searched pm-graph: ``min_margin`` is the worst normalized margin
    over the proved checks, ``margins`` the normalized margin per check."""

    __slots__ = ()


def graph_id(pg: PMGraph) -> str:
    import hashlib  # imported here: start-up cost; only search uses it

    blob = json.dumps(pm_graph_to_json_dict(pg), sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


def random_pm_graph(rng: random.Random, cfg: SearchConfig) -> PMGraph:
    """One random connected bridgeless pm-graph within the configured ranges."""
    vmin, vmax = cfg.vertices
    emin, emax = cfg.edges
    gmin, gmax = cfg.genus
    for _ in range(1000):
        target = rng.randint(gmin, gmax)
        v = rng.randint(vmin, vmax)
        e = rng.randint(max(v, emin), max(v, emax))
        if cfg.simple_only and e > v * (v - 1) // 2:
            continue
        g = e - v + 1
        if g < 1 or g > target or (target - g) > v * cfg.max_q:
            continue
        verts = [f"p{i}" for i in range(1, v + 1)]
        edges = [(verts[i], verts[(i + 1) % v], rng.choice(cfg.lengths))
                 for i in range(v)]
        pairs = {frozenset((verts[i], verts[(i + 1) % v])) for i in range(v)}
        ok = True
        for _ in range(e - v):
            for _attempt in range(200):
                i, j = rng.randrange(v), rng.randrange(v)
                if i == j:
                    continue
                key = frozenset((verts[i], verts[j]))
                if cfg.simple_only and key in pairs:
                    continue
                pairs.add(key)
                edges.append((verts[i], verts[j], rng.choice(cfg.lengths)))
                break
            else:
                ok = False
                break
        if not ok:
            continue
        q: dict[str, int] = {}
        deficit = target - g
        budget = {p: cfg.max_q for p in verts}
        while deficit > 0:
            p = rng.choice(verts)
            if budget[p] > 0:
                budget[p] -= 1
                q[p] = q.get(p, 0) + 1
                deficit -= 1
        graph = MetrizedGraph.build(verts, edges)
        return PMGraph.of(graph, q)
    raise ValueError("could not sample a graph within the configured ranges")


def settle_near_zero(pm: PMGraph, evaluated: PMGraph, checks: list[BoundCheck]
                     ) -> tuple[list[BoundCheck], set[str]]:
    """``checks``, the bound suite of ``evaluated`` (``pm`` or its float
    twin), with the near-zero float verdicts settled on the exact backend.

    On floats, an applicable proved check whose margin divided by the total
    length falls below EXACT_RECHECK_THRESHOLD is replaced by the same check
    of ``bound_suite(pm)``. Returns the checks and the names re-checked.
    """
    if evaluated.graph.backend != FLOAT:
        return checks, set()
    # a product, not a quotient: an edgeless graph has total length 0
    ell = float(evaluated.graph.total_length())
    recheck = {c.name for c in checks if c.applicable and c.proved
               and float(c.margin) < EXACT_RECHECK_THRESHOLD * ell}
    if recheck:
        exact_checks = {c.name: c for c in bound_suite(pm)}
        checks = [exact_checks[c.name] if c.name in recheck else c for c in checks]
    return checks, recheck


def _search_one(cfg: SearchConfig, k: int) -> SearchResult:
    rng = random.Random(cfg.seed * 1_000_003 + k)
    pm = random_pm_graph(rng, cfg)
    evaluated = pm.as_float() if cfg.backend == FLOAT else pm
    checks, rechecked = settle_near_zero(pm, evaluated, bound_suite(evaluated))
    # a re-checked margin is normalized by the exact total length
    ell = float(evaluated.graph.total_length())
    proved = [c for c in checks if c.applicable and c.proved]
    margins = {c.name: float(c.margin) / (float(pm.graph.total_length())
                                          if c.name in rechecked else ell)
               for c in proved}
    bad = sorted(c.name for c in proved if not c.satisfied)
    worst = min(margins.values()) if margins else 0.0
    return SearchResult(graph_id(pm), pm, worst, margins, tuple(checks), tuple(bad))


def random_search(cfg: SearchConfig) -> list[SearchResult]:
    """Sample, evaluate the bound suite, and rank by worst normalized margin.

    Violations found on the float backend are never reported without an
    exact re-check. Results are merged order-independently (sorted by
    margin, then graph id), so worker count does not affect output. With
    ``cfg.workers > 1`` the samples run in a ``ProcessPoolExecutor``,
    imported on that first use: the ``multiprocessing`` stack it loads
    would otherwise add to every command's start-up.
    """
    if cfg.workers > 1:
        # imported here: start-up cost; only --workers > 1 uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_search_one, [cfg] * cfg.samples,
                                    range(cfg.samples), chunksize=8))
    else:
        results = [_search_one(cfg, k) for k in range(cfg.samples)]
    results.sort(key=lambda r: (r.min_margin, r.graph_id))
    return results
