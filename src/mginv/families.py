"""Deterministic generators for the benchmark graph families, with
closed-form invariant values for golden testing.

Every family defaults to polarization q = 0 and total length 1. The two
genus-3 cubic families come with their full set of reference formulas
(including the x/y split and, for the first one, all six pairwise
resistances), which pins down their incidence structure unambiguously.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .graphs import GraphError, MetrizedGraph, PMGraph
from .scalars import Scalar

FAMILY_KINDS = ("circle", "bouquet", "banana", "complete_equal",
                "necklace_Cvn", "genus3_gamma", "genus3_beta")


class FamilySpec(namedtuple("FamilySpec", "kind v n count lengths total",
                            defaults=(None, None, None, None, Fraction(1)))):
    """Parameters of one family instance.

    ``v``/``n`` are the vertex count and edge multiplicity where relevant,
    ``count`` the number of loops (bouquet) or parallel edges (banana),
    ``lengths`` explicit edge lengths, ``total`` the total length used when
    lengths are implied equal.
    """

    __slots__ = ()


class NoClosedForm(GraphError):
    """The requested family instance has no reference formulas."""


def make_family(spec: FamilySpec) -> PMGraph:
    if spec.kind == "circle":
        return circle(spec.total, spec.v or 1)
    if spec.kind == "bouquet":
        return bouquet(_lengths(spec, spec.count))
    if spec.kind == "banana":
        return banana(_lengths(spec, spec.count))
    if spec.kind == "complete_equal":
        if spec.v is None:
            raise GraphError("complete_equal needs v")
        return complete_equal(spec.v, spec.total)
    if spec.kind == "necklace_Cvn":
        if spec.v is None or spec.n is None:
            raise GraphError("necklace_Cvn needs v and n")
        return necklace(spec.v, spec.n, spec.total)
    if spec.kind == "genus3_gamma":
        return genus3_gamma(*_lengths(spec, 6))
    if spec.kind == "genus3_beta":
        return genus3_beta(*_lengths(spec, 6))
    raise GraphError(f"unknown family {spec.kind!r}; pick from {FAMILY_KINDS}")


def _lengths(spec: FamilySpec, count: int | None) -> tuple[Scalar, ...]:
    if spec.lengths is not None:
        if count is not None and len(spec.lengths) != count:
            raise GraphError(f"{spec.kind} needs exactly {count} lengths, "
                             f"got {len(spec.lengths)}")
        return tuple(spec.lengths)
    if count is None:
        raise GraphError(f"{spec.kind} needs lengths or a count")
    return tuple(spec.total / count for _ in range(count))


# -- constructors -----------------------------------------------------------


def circle(total: Scalar = Fraction(1), num_vertices: int = 1) -> PMGraph:
    """A circle of the given total length, marked at ``num_vertices`` points."""
    if num_vertices < 1:
        raise GraphError("circle needs at least one vertex")
    if num_vertices == 1:
        g = MetrizedGraph.build(("p1",), [("p1", "p1", total)])
    else:
        verts = tuple(f"p{i}" for i in range(1, num_vertices + 1))
        seg = total / num_vertices
        edges = [(verts[i], verts[(i + 1) % num_vertices], seg)
                 for i in range(num_vertices)]
        g = MetrizedGraph.build(verts, edges)
    return PMGraph.of(g)


def bouquet(lengths) -> PMGraph:
    """k circles of the given lengths joined at a single point."""
    lengths = tuple(lengths)
    if not lengths:
        raise GraphError("bouquet needs at least one loop")
    g = MetrizedGraph.build(("p",), [("p", "p", ln) for ln in lengths])
    return PMGraph.of(g)


def banana(lengths) -> PMGraph:
    """Two vertices joined by parallel edges of the given lengths."""
    lengths = tuple(lengths)
    if len(lengths) < 2:
        raise GraphError("banana needs at least two edges")
    g = MetrizedGraph.build(("p", "q"), [("p", "q", ln) for ln in lengths])
    return PMGraph.of(g)


def complete_equal(v: int, total: Scalar = Fraction(1)) -> PMGraph:
    """Complete graph on v vertices, all edges of equal length."""
    if v < 3:
        raise GraphError("complete_equal needs v >= 3")
    verts = tuple(f"p{i}" for i in range(1, v + 1))
    per_edge = total / (v * (v - 1) // 2)
    edges = [(verts[i], verts[j], per_edge)
             for i in range(v) for j in range(i + 1, v)]
    return PMGraph.of(MetrizedGraph.build(verts, edges))


def necklace(v: int, n: int, total: Scalar = Fraction(1)) -> PMGraph:
    """Circle on v vertices with every edge replaced by n parallel edges of
    equal length, so each edge has length total/(n*v)."""
    if v < 3:
        raise GraphError("necklace needs v >= 3")
    if n < 1:
        raise GraphError("necklace needs n >= 1")
    verts = tuple(f"p{i}" for i in range(1, v + 1))
    seg = total / (n * v)
    edges = []
    for i in range(v):
        a, b = verts[i], verts[(i + 1) % v]
        edges.extend((a, b, seg) for _ in range(n))
    return PMGraph.of(MetrizedGraph.build(verts, edges))


def genus3_gamma(a, b, c, d, e, f) -> PMGraph:
    """Cubic genus-3 graph on vertices p, q, s, t: edge a joins p-q, b joins
    s-t, the parallel pair c, d joins p-s and the parallel pair e, f joins
    q-t."""
    g = MetrizedGraph.build(
        ("p", "q", "s", "t"),
        [("p", "q", a), ("s", "t", b),
         ("p", "s", c), ("p", "s", d),
         ("q", "t", e), ("q", "t", f)])
    return PMGraph.of(g)


def genus3_beta(a, b, c, d, e, f) -> PMGraph:
    """Complete graph on p, q, s, t with lengths a: p-q, b: p-s, c: p-t,
    d: q-s, e: q-t, f: s-t."""
    g = MetrizedGraph.build(
        ("p", "q", "s", "t"),
        [("p", "q", a), ("p", "s", b), ("p", "t", c),
         ("q", "s", d), ("q", "t", e), ("s", "t", f)])
    return PMGraph.of(g)


# -- closed forms -----------------------------------------------------------


def family_reference(spec: FamilySpec) -> dict[str, Scalar]:
    """Closed-form invariant values for the family instance.

    Keys are a subset of tau/theta/phi/lambda/x/y; computed reports must
    match them exactly on the rational backend.
    """
    if spec.kind == "circle":
        ell = spec.total
        return {"tau": ell / 12, "theta": 0 * ell, "phi": 0 * ell,
                "lambda": ell / 12}
    if spec.kind == "bouquet":
        lengths = _lengths(spec, spec.count)
        ell = _total(lengths)
        g = len(lengths)
        return {"tau": ell / 12, "theta": 0 * ell,
                "phi": Fraction(g - 1, 6 * g) * ell,
                "lambda": Fraction(g, 8 * g + 4) * ell}
    if spec.kind == "banana":
        lengths = _lengths(spec, spec.count)
        ell = _total(lengths)
        e = len(lengths)
        g = e - 1
        s = _total(1 / ln for ln in lengths)
        return {"tau": ell / 12 - (e - 2) / (6 * s),
                "theta": 2 * (e - 2) ** 2 / s,
                "phi": (Fraction(g - 1, 6 * g) * ell
                        - Fraction((g - 1) * (2 * g + 1), 6 * g) / s),
                "lambda": Fraction(g, 8 * g + 4) * ell}
    if spec.kind == "complete_equal":
        v = spec.v
        if v is None or v < 3:
            raise NoClosedForm("complete_equal reference needs v >= 3")
        ell = spec.total
        return {
            "tau": (Fraction((v - 2) ** 2, 12 * v * v) + Fraction(2, v ** 3)) * ell,
            "theta": Fraction(4 * (v - 3) ** 2, v) * ell,
            "phi": Fraction((v - 2) * (v - 3) * (v * v + 6 * v - 6),
                            6 * v ** 3 * (v - 1)) * ell,
            "lambda": Fraction((v ** 3 + v * v - 12 * v + 18) * (v - 2),
                               8 * v * v * (v * v - 3 * v + 3)) * ell,
        }
    if spec.kind == "necklace_Cvn":
        v, n = spec.v, spec.n
        if v is None or n is None or v < 3:
            raise NoClosedForm("necklace reference needs v >= 3 and n >= 1")
        ell = spec.total
        return {
            "tau": (Fraction((n - 1) ** 2 + 1, 12 * n * n)
                    + Fraction(n - 1, 6 * v * n * n)) * ell,
            "theta": Fraction(2 * (n - 1) ** 2 * (v * v - 1), 3 * n * n) * ell,
            "phi": Fraction((n - 1) * ((v - 2) ** 2 + n * v - 1), 6 * n * n * v) * ell,
            "lambda": Fraction(v * v * (n - 1) ** 2
                               + 3 * v * (n - 1) * (n * n - n + 1)
                               + 5 * n * n - 4 * n + 2,
                               12 * n * n * (2 * (n - 1) * v + 3)) * ell,
        }
    if spec.kind == "genus3_gamma":
        return genus3_gamma_reference(*_lengths(spec, 6))
    if spec.kind == "genus3_beta":
        return genus3_beta_reference(*_lengths(spec, 6))
    raise NoClosedForm(f"no closed forms for {spec.kind!r}")


def _total(values) -> Scalar:
    total = Fraction(0)
    for x in values:
        total = total + x
    return total


def genus3_gamma_reference(a, b, c, d, e, f) -> dict[str, Scalar]:
    ell = a + b + c + d + e + f
    m = ((c + d) * (a + b) + c * d) * (e + f) + (c + d) * e * f
    mid = c * d * (e + f) + (c + d) * e * f     # shared bracket in numerators
    e3 = c * d * e + c * d * f + c * e * f + d * e * f
    return {
        "tau": ell / 12 - ((a + b) * e3 + 2 * c * d * e * f) / (6 * m),
        "theta": (6 * (a + b) * mid + 8 * a * b * (c + d) * (e + f)
                  + 8 * c * d * e * f) / m,
        "phi": ell / 9 - (2 * (a + b) * mid - 6 * a * b * (c + d) * (e + f)
                          + 7 * c * d * e * f) / (9 * m),
        "lambda": Fraction(3, 28) * ell
        + (4 * a * b * (c + d) * (e + f) + (a + b) * mid) / (28 * m),
        "x": (2 * (a + b) * mid + a * b * (c + d) * (e + f)
              + 3 * c * d * e * f) / m,
        "y": ((a + b) * mid + a * b * (c + d) * (e + f) + c * d * e * f) / m,
    }


def genus3_gamma_resistances(a, b, c, d, e, f) -> dict[frozenset, Scalar]:
    """The six pairwise resistances of the genus-3 gamma family as rational
    functions of the edge lengths."""
    m = ((c + d) * (a + b) + c * d) * (e + f) + (c + d) * e * f
    return {
        frozenset(("p", "q")):
            a * ((b * (c + d) + c * d) * (e + f) + e * f * (c + d)) / m,
        frozenset(("p", "t")):
            (b * c + b * d + c * d) * (a * e + a * f + e * f) / m,
        frozenset(("p", "s")):
            c * d * ((a + b + f) * e + (a + b) * f) / m,
        frozenset(("q", "t")):
            ((a + b + d) * c + (a + b) * d) * e * f / m,
        frozenset(("q", "s")):
            (a * (c + d) + c * d) * (b * (e + f) + e * f) / m,
        frozenset(("s", "t")):
            b * (a * (c + d) * (e + f) + c * d * (e + f) + e * f * (c + d)) / m,
    }


def genus3_beta_reference(a, b, c, d, e, f) -> dict[str, Scalar]:
    ell = a + b + c + d + e + f
    lengths = (a, b, c, d, e, f)
    # n = weighted spanning-tree normalizer: sum over the 16 spanning trees
    # of K4 of the product of the three lengths NOT in the tree
    n = (a * b * d + a * c * d + b * c * d + a * b * e + a * c * e + b * c * e
         + b * d * e + c * d * e + a * b * f + a * c * f + b * c * f
         + a * d * f + c * d * f + a * e * f + b * e * f + d * e * f)
    e4 = _elementary4(lengths)
    # products over the three perfect matchings' complements
    matchings = b * c * d * e + a * c * d * f + a * b * e * f
    y = e4 / n
    x = 2 * y + matchings / n
    tau = ell / 12 - (e4 + matchings) / (6 * n)      # = ell/12 - (x - y)/6
    theta = (6 * e4 + 2 * matchings) / n             # = 2 (x + y)
    lam = Fraction(3, 28) * ell + (e4 - matchings) / (28 * n)
    return {"tau": tau, "theta": theta,
            "phi": ell / 9 - Fraction(5, 9) * x + Fraction(8, 9) * y,
            "lambda": lam, "x": x, "y": y}


def _elementary4(lengths) -> Scalar:
    """Sum over all 4-element subsets of the product of their entries."""
    total = Fraction(0)
    for quad in combinations(lengths, 4):
        prod = Fraction(1)
        for x in quad:
            prod = prod * x
        total = total + prod
    return total
