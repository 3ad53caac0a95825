"""Scalar invariants of polarized metrized graphs, cross-validated.

Each invariant that admits several independent formulas is computed by all
of them and the values are required to agree: exactly on the rational
backend, to a relative 1e-10 on floats. The tau constant has four routes:

* ``edges``       - edge-by-edge sum over circuit data of the deleted edge;
                    works on any connected graph (a bridge contributes the
                    limiting summand 3 L_i). The x/y split of
                    sum L_i R_i/(L_i+R_i) sums the same circuit data, so
                    both read one memoized edge pass per base vertex; their
                    formulas stay distinct.
* ``laplacian``   - discrete-Laplacian pseudo-inverse formula on an optimal
                    vertex set; any connected graph.
* ``crossterm``   - total length, valence-weighted resistances to a base
                    vertex, and the cross-arm voltages r_c; bridgeless only,
                    and independent of the chosen base vertex.
* ``contraction`` - expresses tau through the same data of every one-edge
                    contraction of the graph; bridgeless with at least three
                    vertices after normalization.

The theta invariant (canonical-divisor-weighted sum of pairwise
resistances) likewise has ``definition``, ``second``, ``third`` and
``fourth`` routes, and phi/lambda each have formula variants with their own
applicability. A route that does not apply to a graph raises
``NotApplicable`` from its guard, before any network work; the guards are
the only statement of which routes apply. ``invariant_report`` runs every
route, skips those that raise ``NotApplicable``, checks agreement and
base-vertex independence, and returns the audit trail.

Every sum over deleted-edge circuit data of a network with L+ = P / D
(``Network.pd``) is one closed form on the per-edge terms of
``Network.pd_edges``, for both backends: the tau/x/y edge pass, B_p and
A_p, sum L_i R_i/(L_i + R_i), the R_i/(L_i + R_i) factor of the contraction
sum and the genus identity. The forms are polynomial identities in the
entries of P, so they hold over floats (P = L+, D = 1.0) as over integers.
Only the division depends on the backend (``Network.div`` and
``Network.sum_ratios``): one fraction per summand or per sum on integers,
``/`` on floats, chosen once per sum.
Theta 'definition' runs on P / D too, as one division, so the single-route
``quick_report`` of a rational search sample forms no fraction matrix
(neither ``Network.lplus`` nor ``Network.r``). The one-edge contractions of
a rational network, whose L+ is a rank-one update in fractions, have no
(P, D) form; their B_p goes through ``Network.circuit``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import isfinite

from .graphs import GraphError, MetrizedGraph, PMGraph, _read_only
from .network import Network, network_for
from .scalars import RATIONAL, REL_TOL, Scalar, agree, format_scalar

TAU_METHODS = ("edges", "laplacian", "crossterm", "contraction")
THETA_METHODS = ("definition", "second", "third", "fourth")
PHI_ROUTES = ("main1", "direct")
LAMBDA_ROUTES = ("cor", "prop_lambda", "second", "second2")


class CrossValidationError(AssertionError):
    """Two formulas for the same invariant disagreed (carries both values)."""


class NotApplicable(GraphError):
    """A formula route does not apply to the graph (the message says why)."""


# ---------------------------------------------------------------------------
# shared circuit sums


def _finite(x) -> bool:
    return not isinstance(x, float) or isfinite(x)


def _memoized(fn):
    """Keep ``fn(net, *args)`` in ``net.sums``, so that every formula that
    reads the same sum of one network computes it once.

    A float sum that leaves the float range raises OverflowError: the closed
    forms are of degree 5 over degree 4 in the lengths, so float lengths
    past about 1e61 give inf or nan rather than an exception."""
    @wraps(fn)
    def cached(net: Network, *args):
        key = (fn.__name__, *args)
        if key not in net.sums:
            value = fn(net, *args)
            if not all(map(_finite, value if isinstance(value, tuple) else (value,))):
                raise OverflowError(f"{fn.__name__} leaves the float range")
            net.sums[key] = value
        return net.sums[key]
    return cached


@_memoized
def _sum_lr(net: Network) -> Scalar:
    """sum of L_i R_i / (L_i + R_i); a bridge contributes its length L_i.

    Each summand is r(u_i, v_i), the edge in parallel with the rest of the
    graph, so on L+ = P / D the sum is one division: sum of rho_uv over D.
    """
    return net.div(sum(rho_uv for *_, rho_uv, _ in net.pd_edges), net.pd[1])


def _deleted_numerators(net: Network, p: str):
    """Per edge i = (u, v), on L+ = P / D: (a, b, rho_uv, K, n_pu, n_pv)
    from ``Network.pd_edges``, with n_px = rho_px K + b (d_p - d_x)^2,
    so that n_px / (D K) is the resistance from p to x with the interior of
    edge i deleted."""
    lp, _ = net.pd
    ip = net.graph.vertex_index[p]
    row_p = lp[ip]
    p_pp = row_p[ip]
    for a, b, iu, iv, d_u, d_v, rho_uv, k in net.pd_edges:
        d_p = row_p[iu] - row_p[iv]
        rho_pu = p_pp - 2 * row_p[iu] + lp[iu][iu]
        rho_pv = p_pp - 2 * row_p[iv] + lp[iv][iv]
        yield (a, b, rho_uv, k, rho_pu * k + b * (d_p - d_u) ** 2,
               rho_pv * k + b * (d_p - d_v) ** 2)


@_memoized
def _rc_sum(net: Network, p: str) -> Scalar:
    """B_p = sum of L_i r_c(i, p) / (L_i + R_i) over all edges (bridgeless).

    On L+ = P / D each summand is n_c / (2 a D^2) with
    n_c = n_pu + n_pv - a D rho_uv (see ``_deleted_numerators``; a self-loop
    gives r(p, u)), so on integers B_p is one fraction over 2 A D^2,
    A = lcm of the a. A rational contracted network has no (P, D) form and
    sums the circuit data of ``Network.circuit``.
    """
    if net.pd is None:
        total = Fraction(0)
        for i, e in enumerate(net.graph.edges):
            cd = net.circuit(i, p)
            total = total + e.length * cd.r_c / (e.length + cd.r_i)
        return total
    den = net.pd[1]
    terms = [(n_pu + n_pv - a * den * rho_uv, a)
             for a, _, rho_uv, _, n_pu, n_pv in _deleted_numerators(net, p)]
    return net.sum_ratios(terms, 2 * den * den)


@_memoized
def _ab_rc_sum(net: Network, p: str) -> Scalar:
    """A_p = sum of (r_a r_b + R_i r_c) / (L_i + R_i) over all edges.

    On L+ = P / D, with M = a D rho_uv, the arms r_a, r_b and r_c are
    n_a, n_b and n_c over 2 D K, where n_a = n_pu - n_pv + M,
    n_b = n_pv - n_pu + M and n_c = n_pu + n_pv - M, and the summand is
    b (n_a n_b + 2 M n_c) / (4 a^2 D^3 K); a self-loop adds 0.
    """
    div = net.div
    den = net.pd[1]
    total = Fraction(0)
    for a, b, rho_uv, k, n_pu, n_pv in _deleted_numerators(net, p):
        m = a * den * rho_uv
        diff = n_pu - n_pv
        # n_a n_b + 2 M n_c = M (2 (n_pu + n_pv) - M) - (n_pu - n_pv)^2
        total = total + div(b * (m * (2 * (n_pu + n_pv) - m) - diff * diff), a * a * k)
    return total / (4 * den ** 3)


@_memoized
def _edge_sums(net: Network, p: str) -> tuple[Scalar, Scalar, Scalar]:
    """(12 tau, x, y) at base p, in one pass over the edges: each sum is
    one fraction on integers (``Network.sum_ratios``), one division per
    summand on floats.

    The tau 'edges' route and the x/y split are distinct sums over the same
    circuit data of each deleted edge (R_i and r_a - r_b), so one pass
    computes that data once per edge for all three.

    For edge i = (u, v) with the terms of ``Network.pd_edges``, let
    E = D K. The deleted-edge R_i and r_a - r_b are Rn / E and Dn / E with
    Rn = rho_uv K + b (d_u - d_v)^2 and
    Dn = (rho_pu - rho_pv) K + b ((d_p - d_u)^2 - (d_p - d_v)^2). With
    Q = (a E + b Rn)^2 the summands of 12 tau, x and y are
    a (a^2 E^2 + 3 b^2 Dn^2) / (b Q), a (4 a Rn E + 3 b (Rn^2 - Dn^2)) / (4 Q)
    and a b (Rn^2 + 3 Dn^2) / (4 Q). Since d_u - d_v = rho_uv, Rn = a D rho_uv
    and a E + b Rn = a^2 D^2. A bridge (K = 0) and a self-loop (u = v) need
    no case of their own: the summands reduce to (3 L_i, 0, L_i) and
    (L_i, 0, 0). They are polynomial in K, so the rounding of K on a float
    bridge moves them by as little.
    """
    lp, den = net.pd
    row_p = lp[net.graph.vertex_index[p]]
    t, x, y = [], [], []
    for a, b, iu, iv, d_u, d_v, rho_uv, k in net.pd_edges:
        d_p = row_p[iu] - row_p[iv]
        big_e = den * k
        rn = a * den * rho_uv
        # rho_pu - rho_pv = P_uu - P_vv - 2 d_p
        dn = ((lp[iu][iu] - lp[iv][iv] - 2 * d_p) * k
              + b * ((d_p - d_u) ** 2 - (d_p - d_v) ** 2))
        q = (a * a * den * den) ** 2
        t.append((a * (a * a * big_e * big_e + 3 * b * b * dn * dn), b * q))
        x.append((a * (4 * a * rn * big_e + 3 * b * (rn * rn - dn * dn)), 4 * q))
        y.append((a * b * (rn * rn + 3 * dn * dn), 4 * q))
    return tuple(net.sum_ratios(terms, 1) for terms in (t, x, y))


def _contraction_rc_sums(net: Network) -> tuple[Scalar, ...]:
    """For each edge i = (u, v), the r_c sum of the graph with edge i
    contracted, at the merged vertex u: sum over edges j of the contraction
    of L_j r_c(j, u) / (L_j + R_j).

    Each contraction's network is the short-circuit rank-one update of
    ``net`` (``Network.contracted``), O(V^2) per edge and no inversion. The
    contraction is not normalized: the sum does not depend on how the
    vertex set is refined, and the parallel edges a contraction may create
    are ordinary circuit data (the tests compare it with the normalized,
    re-inverted contraction). Needs a bridgeless graph without self-loops.
    """
    return tuple(_rc_sum(net.contracted(i), e.u)
                 for i, e in enumerate(net.graph.edges))


@_memoized
def _contraction_sum(net: Network) -> Scalar:
    """sum over edges i of R_i / (L_i + R_i) times the r_c sum of the
    contraction of edge i, the term shared by the contraction formulas.

    On L+ = P / D the factor R_i / (L_i + R_i) is b rho_uv / (a D).
    """
    inners = _contraction_rc_sums(net)
    div = net.div
    den = net.pd[1]
    total = Fraction(0)
    for (a, b, *_, rho_uv, _), inner in zip(net.pd_edges, inners):
        total = total + div(b * rho_uv, a * den) * inner
    return total


def _valence_weighted(net: Network, pivot: int, f) -> Scalar:
    """sum over vertices q of (val(q) - pivot) f(net, q); f is not called
    where the weight is zero."""
    total = Fraction(0)
    for q, val in net.graph.valences.items():
        if val != pivot:
            total = total + (val - pivot) * f(net, q)
    return total


def _base(graph: MetrizedGraph, base: str | None) -> str:
    """The base vertex of a circuit sum: ``base``, or the first vertex."""
    p = base if base is not None else graph.vertices[0]
    if p not in graph.vertex_index:
        raise GraphError(f"unknown vertex {p!r}")
    return p


def _check_bridgeless(graph: MetrizedGraph, what: str) -> None:
    if graph.structure.bridges:
        raise NotApplicable(f"{what} requires a bridgeless graph")


def _check_simple_polarization(pg: PMGraph, what: str) -> None:
    if not pg.is_simple_polarization:
        raise NotApplicable(f"{what} requires q identically zero")


def _contraction_graph(graph: MetrizedGraph, what: str) -> MetrizedGraph:
    """The normalized graph, on which the contraction formulas run; they
    need a bridgeless graph with at least three vertices once normalized."""
    _check_bridgeless(graph, what)
    h = graph.normalized()
    if h.num_vertices < 3:
        raise NotApplicable(f"{what} needs >= 3 vertices")
    return h


# ---------------------------------------------------------------------------
# tau constant


def tau(graph: MetrizedGraph, method: str = "edges", base: str | None = None) -> Scalar:
    """The tau constant of a metrized graph by the requested formula."""
    if method == "edges":
        return tau_edges(graph, base)
    if method == "laplacian":
        return tau_laplacian(graph)
    if method == "crossterm":
        return tau_crossterm(graph, base)
    if method == "contraction":
        return tau_contraction(graph)
    raise GraphError(f"unknown tau method {method!r}; pick from {TAU_METHODS}")


def tau_edges(graph: MetrizedGraph, base: str | None = None) -> Scalar:
    """Sum over edges of (L^3 + 3 L (r_a - r_b)^2) / (L + R)^2, divided by
    twelve; the summand of a bridge degenerates to 3 L."""
    return _edge_sums(network_for(graph), _base(graph, base))[0] / 12


def tau_laplacian(graph: MetrizedGraph) -> Scalar:
    """Pseudo-inverse formula on the normalized (optimal) vertex set."""
    h = graph.normalized()
    net = network_for(h)
    lp = net.lplus
    index = h.vertex_index
    v = h.num_vertices
    total = Fraction(0)
    for e in h.edges:
        a, b = index[e.u], index[e.v]
        r = net.r[a][b]
        total = (total
                 + (r - e.length) ** 2 / (12 * e.length)
                 + (lp[a][a] - lp[b][b]) ** 2 / (4 * e.length))
    trace = Fraction(0)
    for a in range(v):
        trace = trace + lp[a][a]
    return total + trace / v


def tau_crossterm(graph: MetrizedGraph, base: str | None = None) -> Scalar:
    """ell/12 - (1/6) sum (val(q)-2) r(base,q) + (1/3) sum L_i/(L_i+R_i) r_c."""
    _check_bridgeless(graph, "tau method 'crossterm'")
    net = network_for(graph)
    p = _base(graph, base)
    vertex_sum = _valence_weighted(net, 2, lambda n, q: n.resistance(p, q))
    return graph.total_length() / 12 - vertex_sum / 6 + _rc_sum(net, p) / 3


def tau_contraction(graph: MetrizedGraph) -> Scalar:
    """Contraction formula; needs a bridgeless graph with at least three
    vertices once normalized, and contracts only non-loop edges (guaranteed
    by normalizing first)."""
    h = _contraction_graph(graph, "tau method 'contraction'")
    v = h.num_vertices
    net = network_for(h)
    return (h.total_length() / 12
            - _valence_weighted(net, 2, _ab_rc_sum) / (6 * (v - 2))
            + _contraction_sum(net) / (3 * (v - 2)))


# ---------------------------------------------------------------------------
# theta invariant


def theta(pg: PMGraph, method: str = "definition") -> Scalar:
    """Canonical-divisor-weighted sum of pairwise resistances."""
    if method == "definition":
        return theta_definition(pg)
    if method == "second":
        return theta_second(pg)
    if method == "third":
        return theta_third(pg)
    if method == "fourth":
        return theta_fourth(pg)
    raise GraphError(f"unknown theta method {method!r}; pick from {THETA_METHODS}")


def theta_definition(pg: PMGraph) -> Scalar:
    """Direct double sum over the vertex set as given, with resistances read
    off the Laplacian pseudo-inverse. It equals the sum over the normalized
    vertex set: the valence-2 points that normalizing inserts carry weight
    zero, and the other vertices keep their weights and resistances.

    On L+ = P / D, with r_ab = (P_aa - 2 P_ab + P_bb) / D and W the sum of
    the weights w, the double sum is one division:
    (2 W sum_a w_a P_aa - 2 w^T P w) / D.
    """
    g = pg.graph
    net = network_for(g)
    weights = [pg.canonical_weight(p) for p in g.vertices]
    lp, den = net.pd
    support = [(a, w) for a, w in enumerate(weights) if w]
    diag = sum(w * lp[a][a] for a, w in support)
    cross = sum(wa * sum(wb * lp[a][b] for b, wb in support)
                for a, wa in support)
    return net.div(2 * sum(weights) * diag - 2 * cross, den)


def theta_second(pg: PMGraph, tau_value: Scalar | None = None) -> Scalar:
    """Expansion through circuit data and the tau constant; bridgeless with
    q identically zero, any vertex set."""
    _check_simple_polarization(pg, "theta method 'second'")
    graph = pg.graph
    _check_bridgeless(graph, "theta method 'second'")
    net = network_for(graph)
    if tau_value is None:
        tau_value = tau_edges(graph)
    g = graph.genus()
    v = graph.num_vertices
    ell = graph.total_length()
    return ((2 * g - 2) * _sum_lr(net) + 12 * v * tau_value - v * ell
            + 2 * _valence_weighted(net, 2, _ab_rc_sum)
            + 2 * _valence_weighted(net, 4, _rc_sum))


def theta_third(pg: PMGraph, tau_value: Scalar | None = None) -> Scalar:
    """Contraction-based expansion; bridgeless, q zero, >= 3 vertices."""
    return _theta_contraction(pg, tau_value, fourth=False)


def theta_fourth(pg: PMGraph, tau_value: Scalar | None = None) -> Scalar:
    """Companion contraction expansion with different weights."""
    return _theta_contraction(pg, tau_value, fourth=True)


def _theta_contraction(pg: PMGraph, tau_value, fourth: bool) -> Scalar:
    name = "theta method 'fourth'" if fourth else "theta method 'third'"
    _check_simple_polarization(pg, name)
    h = _contraction_graph(pg.graph, name)
    if tau_value is None:
        tau_value = tau_edges(h)
    net = network_for(h)
    g = h.genus()
    ell = h.total_length()
    contraction_sum = _contraction_sum(net)
    sum_lr = _sum_lr(net)
    if fourth:
        total = (Fraction(g - 3, 2) * ell - 6 * (g - 3) * tau_value
                 + (g - 1) * sum_lr + 2 * contraction_sum)
        pivot = 3
    else:
        total = (-2 * ell + 24 * tau_value
                 + (2 * g - 2) * sum_lr + 4 * contraction_sum)
        pivot = 4
    return total + 2 * _valence_weighted(net, pivot, _rc_sum)


# ---------------------------------------------------------------------------
# derived invariants


def epsilon(pg: PMGraph, tau_value=None, theta_value=None) -> Scalar:
    """(4 gbar - 4) tau / gbar + theta / (2 gbar)."""
    gbar = pg.pm_genus()
    if tau_value is None:
        tau_value = tau_edges(pg.graph)
    if theta_value is None:
        theta_value = theta_definition(pg)
    return Fraction(4 * gbar - 4, gbar) * tau_value + theta_value / (2 * gbar)


def a_invariant(pg: PMGraph, tau_value=None, theta_value=None) -> Scalar:
    """(2 gbar - 1) tau / gbar^2 + theta / (8 gbar^2)."""
    gbar = pg.pm_genus()
    if tau_value is None:
        tau_value = tau_edges(pg.graph)
    if theta_value is None:
        theta_value = theta_definition(pg)
    return (Fraction(2 * gbar - 1, gbar * gbar) * tau_value
            + theta_value / (8 * gbar * gbar))


def phi(pg: PMGraph, route: str = "main1", tau_value=None, theta_value=None) -> Scalar:
    """phi invariant, via tau/theta ('main1') or the bridgeless direct
    formula with the polarization cross terms ('direct')."""
    if route == "direct":
        _check_bridgeless(pg.graph, "phi route 'direct'")
    elif route != "main1":
        raise GraphError(f"unknown phi route {route!r}; pick from {PHI_ROUTES}")
    gbar = pg.pm_genus()
    if tau_value is None:
        tau_value = tau_edges(pg.graph)
    if route == "main1":
        if theta_value is None:
            theta_value = theta_definition(pg)
        return (Fraction(5 * gbar - 2, gbar) * tau_value
                + theta_value / (4 * gbar) - pg.graph.total_length() / 4)
    d, e = _polarization_cross_sums(pg)
    return (Fraction(2 * gbar + 1, gbar) * tau_value
            - pg.graph.total_length() / (4 * gbar)
            + d / (2 * gbar) + e / (2 * gbar))


def lambda_invariant(pg: PMGraph, route: str = "cor",
                     tau_value=None, theta_value=None) -> Scalar:
    """lambda invariant by one of four routes (see LAMBDA_ROUTES)."""
    if route not in LAMBDA_ROUTES:
        raise GraphError(f"unknown lambda route {route!r}; pick from {LAMBDA_ROUTES}")
    graph = pg.graph
    gbar = pg.pm_genus()
    ell = graph.total_length()
    if route == "prop_lambda":
        _check_bridgeless(graph, "lambda route 'prop_lambda'")
        d, e = _polarization_cross_sums(pg)
        return (Fraction(gbar, 8 * gbar + 4) * ell
                + d / (8 * gbar + 4) + e / (8 * gbar + 4))
    if route != "cor":
        name = f"lambda route {route!r}"
        _check_simple_polarization(pg, name)
        h = _contraction_graph(graph, name)
    if tau_value is None:
        tau_value = tau_edges(graph)
    if route == "cor":
        if theta_value is None:
            theta_value = theta_definition(pg)
        return (Fraction(3 * gbar - 3, 4 * gbar + 2) * tau_value
                + theta_value / (16 * gbar + 8)
                + Fraction(gbar + 1, 16 * gbar + 8) * ell)
    net = network_for(h)
    g = h.genus()
    sum_lr = _sum_lr(net)
    contraction_sum = _contraction_sum(net)
    if route == "second":
        total = (Fraction(3 * g + 3, 8 * g + 4) * tau_value
                 + Fraction(3 * g - 1, 16 * (2 * g + 1)) * ell
                 + Fraction(g - 1, 16 * g + 8) * sum_lr
                 + contraction_sum / (8 * g + 4))
        pivot = 3
    else:
        total = (Fraction(3 * g + 3, 4 * g + 2) * tau_value
                 + Fraction(g - 1, 16 * g + 8) * ell
                 + Fraction(g - 1, 8 * g + 4) * sum_lr
                 + contraction_sum / (4 * g + 2))
        pivot = 4
    return total + _valence_weighted(net, pivot, _rc_sum) / (8 * g + 4)


def _polarization_cross_sums(pg: PMGraph) -> tuple[Scalar, Scalar]:
    """The two correction sums of the bridgeless phi/lambda formulas:
    D = sum over vertex pairs of weight(p) q(q) r(p, q) and
    E = sum over vertices of weight(p) B_p."""
    graph = pg.graph
    net = network_for(graph)
    d = Fraction(0)
    e = Fraction(0)
    for p in graph.vertices:
        w = pg.canonical_weight(p)
        if not w:
            continue
        for q in graph.vertices:
            qv = pg.q[q]
            if qv:
                d = d + w * qv * net.resistance(p, q)
        e = e + w * _rc_sum(net, p)
    return d, e


# ---------------------------------------------------------------------------
# the x/y decomposition and identities


def xy(graph: MetrizedGraph, base: str | None = None) -> tuple[Scalar, Scalar]:
    """The split of sum L_i R_i/(L_i+R_i) into x + y.

    A bridge contributes (0, L_i), the limit of the defining sums. The
    result does not depend on the base vertex used for the circuit data.
    """
    _, x, y = _edge_sums(network_for(graph), _base(graph, base))
    return x, y


def genus_identity_residual(graph: MetrizedGraph) -> Scalar:
    """sum of L_i/(L_i + R_i) minus the genus; identically zero.

    Bridges contribute the limit value zero of their summand. On
    L+ = P / D each summand is K / (a D) (1 on a self-loop, 0 on a bridge),
    so on integers the sum is one fraction over A D, A = lcm of the a.
    """
    net = network_for(graph)
    terms = [(k, a) for a, *_, k in net.pd_edges]
    return net.sum_ratios(terms, net.pd[1]) - graph.genus()


# ---------------------------------------------------------------------------
# the full report


class InvariantReport:
    """All scalar invariants of one pm-graph under one numeric backend,
    with the per-formula audit trail for tau and theta. Immutable; two
    reports are equal only when they are the same object."""

    __setattr__ = __delattr__ = _read_only

    def __init__(self, backend: str, ell: Scalar, genus: int, pm_genus: int,
                 tau: Scalar, theta: Scalar, epsilon: Scalar, a: Scalar, phi: Scalar,
                 lam: Scalar, x: Scalar, y: Scalar, delta: dict[int, Scalar],
                 tau_methods: dict[str, Scalar], theta_methods: dict[str, Scalar]):
        vars(self).update(backend=backend, ell=ell, genus=genus, pm_genus=pm_genus,
                          tau=tau, theta=theta, epsilon=epsilon, a=a, phi=phi, lam=lam,
                          x=x, y=y, delta=delta, tau_methods=tau_methods,
                          theta_methods=theta_methods)

    def to_json_dict(self, decimals: int | None = None) -> dict:
        def fmt(v):
            return format_scalar(v, decimals)

        return {
            "backend": self.backend,
            "ell": fmt(self.ell),
            "genus": self.genus,
            "pm_genus": self.pm_genus,
            "tau": fmt(self.tau),
            "theta": fmt(self.theta),
            "epsilon": fmt(self.epsilon),
            "a": fmt(self.a),
            "phi": fmt(self.phi),
            "lambda": fmt(self.lam),
            "x": fmt(self.x),
            "y": fmt(self.y),
            "delta": {str(i): fmt(v) for i, v in sorted(self.delta.items())},
            "tau_methods": {m: fmt(v) for m, v in self.tau_methods.items()},
            "theta_methods": {m: fmt(v) for m, v in self.theta_methods.items()},
        }

    def csv_fields(self, decimals: int | None = None) -> dict[str, str]:
        out = {k: v for k, v in self.to_json_dict(decimals).items()
               if k not in ("delta", "tau_methods", "theta_methods")}
        for i, v in sorted(self.delta.items()):
            out[f"delta_{i}"] = format_scalar(v, decimals)
        return out


def _require_agreement(name: str, values: dict[str, Scalar], exact: bool) -> None:
    items = list(values.items())
    ref_name, ref = items[0]
    for other_name, other in items[1:]:
        if not agree(ref, other, exact):
            raise CrossValidationError(
                f"{name} disagreement: {ref_name} = {ref} vs "
                f"{other_name} = {other}")


def _require_nonnegative(name: str, value, exact: bool) -> None:
    bound = 0 if exact else -REL_TOL
    if not value >= bound:
        raise CrossValidationError(f"{name} = {value} is negative")


def _cross_checked(name: str, routes: dict, exact: bool) -> dict[str, Scalar]:
    """Run every route of ``routes`` (route name -> thunk), skip those that
    raise NotApplicable, and require the values of the rest to agree."""
    values: dict[str, Scalar] = {}
    for route, run in routes.items():
        try:
            values[route] = run()
        except NotApplicable:
            continue
    _require_agreement(name, values, exact)
    return values


def _base_independent(name: str, per_base: dict, exact: bool) -> Scalar:
    """The value at the first base vertex, after requiring all to agree."""
    _require_agreement(f"{name} base-independence",
                       {f"base {p}": v for p, v in per_base.items()}, exact)
    return next(iter(per_base.values()))


def _report(pg: PMGraph, tau_methods: dict, theta_methods: dict,
            phi_value, lam, x, y) -> InvariantReport:
    """The report of the routes that ran; tau and theta are read off the
    'edges' and 'definition' routes."""
    graph = pg.graph
    tau_value = tau_methods["edges"]
    theta_value = theta_methods["definition"]
    _, delta = pg.edge_types()
    return InvariantReport(
        backend=graph.backend,
        ell=graph.total_length(),
        genus=graph.genus(),
        pm_genus=pg.pm_genus(),
        tau=tau_value,
        theta=theta_value,
        epsilon=epsilon(pg, tau_value, theta_value),
        a=a_invariant(pg, tau_value, theta_value),
        phi=phi_value,
        lam=lam,
        x=x,
        y=y,
        delta=delta,
        tau_methods=tau_methods,
        theta_methods=theta_methods,
    )


def invariant_report(pg: PMGraph) -> InvariantReport:
    """Compute every invariant by every applicable formula and cross-check.

    Raises CrossValidationError (with both values and the method names) on
    any disagreement, including base-vertex dependence of the crossterm tau
    or of x/y.
    """
    graph = pg.graph
    exact = graph.backend == RATIONAL

    tau_methods = _cross_checked("tau", {
        "edges": lambda: tau_edges(graph),
        "laplacian": lambda: tau_laplacian(graph),
        "crossterm": lambda: _base_independent(
            "tau crossterm", {p: tau_crossterm(graph, p) for p in graph.vertices},
            exact),
        "contraction": lambda: tau_contraction(graph),
    }, exact)
    tau_value = tau_methods["edges"]

    theta_methods = _cross_checked("theta", {
        "definition": lambda: theta_definition(pg),
        "second": lambda: theta_second(pg, tau_value),
        "third": lambda: theta_third(pg, tau_value),
        "fourth": lambda: theta_fourth(pg, tau_value),
    }, exact)
    theta_value = theta_methods["definition"]

    phi_value = _cross_checked("phi", {
        "main1": lambda: phi(pg, "main1", tau_value, theta_value),
        "direct": lambda: phi(pg, "direct", tau_value),
    }, exact)["main1"]

    lam = _cross_checked("lambda", {
        "cor": lambda: lambda_invariant(pg, "cor", tau_value, theta_value),
        "prop_lambda": lambda: lambda_invariant(pg, "prop_lambda", tau_value),
        "second": lambda: lambda_invariant(pg, "second", tau_value),
        "second2": lambda: lambda_invariant(pg, "second2", tau_value),
    }, exact)["cor"]

    per_base_xy = {p: xy(graph, p) for p in graph.vertices}
    x = _base_independent("x", {p: v[0] for p, v in per_base_xy.items()}, exact)
    y = _base_independent("y", {p: v[1] for p, v in per_base_xy.items()}, exact)

    report = _report(pg, tau_methods, theta_methods, phi_value, lam, x, y)
    for name in ("tau", "theta", "epsilon", "a"):
        _require_nonnegative(name, getattr(report, name), exact)
    return report


def quick_report(pg: PMGraph) -> InvariantReport:
    """Single-route report without cross-formula validation.

    The fast path for bulk scans: tau via 'edges', theta via 'definition',
    derived invariants from those two, x/y at one base vertex. The full
    ``invariant_report`` is the authority whenever agreement matters.
    """
    graph = pg.graph
    tau_value = tau_edges(graph)
    theta_value = theta_definition(pg)
    x, y = xy(graph)
    return _report(pg, {"edges": tau_value}, {"definition": theta_value},
                   phi(pg, "main1", tau_value, theta_value),
                   lambda_invariant(pg, "cor", tau_value, theta_value), x, y)


def identity_checks(pg: PMGraph, report: InvariantReport) -> list[tuple[str, Scalar]]:
    """Residuals of the structural identities; all must vanish.

    ``report`` is the ``invariant_report`` of ``pg``. Returns (name,
    residual) pairs: the genus identity, the two x/y identities, and the two
    defining relations tying phi and lambda to epsilon and the a-invariant.
    """
    graph = pg.graph
    out = [("genus_identity", genus_identity_residual(graph))]
    net = network_for(graph)
    out.append(("xy_tau", report.tau
                - (report.ell / 12 - report.x / 6 + report.y / 6)))
    out.append(("xy_sum_lr", report.x + report.y - _sum_lr(net)))
    gbar = report.pm_genus
    out.append(("phi_defining", 3 * gbar * report.a
                - (report.epsilon + report.ell) / 4 - report.phi))
    out.append(("lambda_defining",
                Fraction(gbar - 1, 6 * (2 * gbar + 1)) * report.phi
                + (report.epsilon + report.ell) / 12 - report.lam))
    return out
