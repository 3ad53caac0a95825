"""Electrical-network computations: Laplacian, pseudo-inverse, resistances.

A metrized graph is a resistive circuit in which each edge is a resistor
equal to its length. ``Network`` is the one place where the discrete
Laplacian is assembled and inverted. The Laplacian has off-diagonal entries
minus the summed conductances 1/L_k of the edges between two vertices and
zero row sums; self-loops carry no current and are skipped, and parallel
edges merge their conductances, which leaves every vertex-to-vertex
resistance unchanged, so any metrized graph is accepted.

On the rational backend the Moore-Penrose pseudo-inverse L+ comes from the
Laplacian grounded at vertex 0, built in integers from the lengths a/b and
never as fractions: with s the least common multiple of the a of the
non-loop edges, M = s L_r (L without row and column 0) is an integer matrix
of size v - 1, which fraction-free Gauss-Jordan elimination (Bareiss 1968)
inverts as N/d. Padding N with a zero row and column at vertex 0 gives G,
and X = s G / d is a generalized inverse, L X L = L. Since L L+ = L+ L =
H = I - J/v, L+ = H X H; with c the row sums of G and T their total,
L+_ij = s (v^2 G_ij - v (c_i + c_j) + T) / (v^2 d). On floats, L+ is
(L + J/v)^-1 - J/v, inverted by Gauss-Jordan with partial pivoting.

A network keeps L+ as ``Network.pd`` = (P, D), L+ = P / D. On the rational
backend P is the integer matrix P_ij = s (v^2 G_ij - v (c_i + c_j) + T) and
D = v^2 d (a one-vertex graph has P = [[0]] and D = 1), and only (P, D) is
kept: the fraction matrices ``lplus`` (P_ij / D) and ``r``
((P_ii - 2 P_ij + P_jj) / D, formed without L+) are derived on first read,
so a sum that runs on P / D builds neither. On floats P is L+ itself and
D = 1.0, and ``lplus`` is kept from construction. ``Network.pd_edges``
keeps, once per network, the base-free terms of every edge (see there).
The invariant formulas read them for every sum over deleted-edge circuit
data (tau 'edges' and x/y, B_p, A_p, sum L_i R_i/(L_i + R_i), the
contraction factor and the genus identity), in one closed form per sum for
both backends; the only step that depends on the backend is the division
(``Network.div``, ``Network.sum_ratios``). The
rational ``contracted`` networks, whose L+ is a rank-one update in
fractions, have ``pd`` None: their B_p goes through ``circuit``.

Effective resistances between vertices come from the pseudo-inverse. The
per-edge circuit data needed by the invariant formulas lives in the graph
with one edge's interior deleted; instead of re-inverting for every edge,
``Network`` gets those resistances from a rank-one update of the original
pseudo-inverse, so one inversion per graph covers every (edge, base-vertex)
pair. Contracting an edge is the opposite limit of the same update: shorting
its endpoints (infinite conductance) gives ``Network.contracted`` in O(V^2),
so the contraction formulas need no inversion beyond the parent's either.

The circuit terms of an edge that do not depend on the base vertex (its
endpoint indices, d_u and d_v of d = L+ (e_u - e_v), the denominator
L_i - r(u, v) and the deleted-edge resistance R_i; or their forms on P / D)
are computed on first use and kept on the network, one small tuple per
edge. Data per (edge, base) pair is not kept: it would make every memoized
network V times larger.

``is_moore_penrose`` checks L L+ L = L and L+ L L+ = L+ exactly in
integers: with L = A/a and L+ = B/b over the lcms of their denominators
(``_clear_denominators``), the identities read A B A = a b A and
B A B = a b B.

``network_for`` memoizes one ``Network`` per graph and backend: a float
graph and its rational twin compare and hash equal, so the backend is part
of the key. A compute or verify run looks up at most two networks (the
graph and its normalization) and a search sample one, never reused by a
later sample, so the memo keeps the 16 most recent.

An independent spanning-tree oracle (weighted matrix-tree / 2-forest
identity, enumerated exhaustively) cross-checks the linear algebra.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from operator import truediv

from .graphs import GraphError, MetrizedGraph
from .scalars import FLOAT, Scalar

#: resistance_oracle refuses graphs with more edges than this
ORACLE_EDGE_CAP = 14

Matrix = tuple[tuple[Scalar, ...], ...]


def _is_float_matrix(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def invert_matrix(rows) -> tuple[list[list[Scalar]], Scalar]:
    """Inverse of a square matrix as ``(N, d)``, with rows^-1 = N / d.

    Integer rows are inverted exactly by fraction-free Gauss-Jordan
    elimination (Bareiss 1968): N and d are integers. Float rows use
    Gauss-Jordan with partial pivoting, and d = 1.0.
    """
    if _is_float_matrix(rows):
        return _invert_float(rows), 1.0
    return _invert_bareiss(rows)


def _invert_bareiss(rows) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan on [A | I]. After step k every entry is a
    minor of the augmented matrix, so each division by the previous pivot
    is exact; at the end the left block is d I and the right block d A^-1,
    with d the last pivot (det A up to the sign of the row swaps)."""
    n = len(rows)
    if not all(isinstance(x, int) for row in rows for x in row):
        raise TypeError("invert_matrix takes integer or float rows")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise GraphError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        # columns up to k are not read again (0 off the diagonal, p on it)
        pivot_tail = a[k][k + 1:]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[k + 1:] = [(p * x - f * y) // prev
                               for x, y in zip(row[k + 1:], pivot_tail)]
        prev = p
    return [row[n:] for row in a], prev


def _invert_float(rows) -> list[list[float]]:
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise GraphError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def matmul(a, b) -> list[list[Scalar]]:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[i][0] * b[0][j]
            for t in range(1, k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def _clear_denominators(rows) -> tuple[list[list[int]], int]:
    """``(A, a)`` with rows = A / a for a matrix of fractions: a is the lcm
    of the entries' denominators."""
    a = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (a // x.denominator) for x in row] for row in rows], a


def is_moore_penrose(lap, pinv) -> bool:
    """Whether L L+ L = L and L+ L L+ = L+ for the exact matrices ``lap``
    and ``pinv``, checked in integers: with L = A/a and L+ = B/b, whether
    A B A = a b A and B A B = a b B."""
    a_int, a = _clear_denominators(lap)
    b_int, b = _clear_denominators(pinv)
    ab = a * b
    return all(matmul(matmul(x, y), x) == [[ab * t for t in row] for row in x]
               for x, y in ((a_int, b_int), (b_int, a_int)))


def _laplacian_rows(graph: MetrizedGraph) -> list[list[Scalar]]:
    """Discrete Laplacian on ``graph.vertices``: loops skipped, parallel
    conductances summed. Entries no edge touches are the int 0, and the
    first conductance of an entry is stored as is, with no addition to 0."""
    n = graph.num_vertices
    index = graph.vertex_index
    rows = [[0] * n for _ in range(n)]
    for e in graph.edges:
        if e.is_loop:
            continue
        a, b = index[e.u], index[e.v]
        c = 1 / e.length
        off = rows[a][b]
        rows[a][b] = rows[b][a] = off - c if off else -c
        rows[a][a] = rows[a][a] + c if rows[a][a] else c
        rows[b][b] = rows[b][b] + c if rows[b][b] else c
    return rows


def _invert_laplacian(rows):
    """``invert_matrix`` of the shifted Laplacian L + J/v or of the scaled
    grounded one, each singular exactly when the graph is disconnected."""
    try:
        return invert_matrix(rows)
    except GraphError as exc:
        raise GraphError("disconnected input") from exc


def _grounded_pd(graph: MetrizedGraph) -> tuple[list[list[int]], int]:
    """(P, D) with L+ = P / D for a rational graph on v >= 2 vertices, from
    M = s L_r, the Laplacian grounded at vertex 0 and scaled to integers,
    built here from the edges (the module docstring derives P and D)."""
    n = graph.num_vertices
    index = graph.vertex_index
    edges = [(index[e.u], index[e.v], e.length) for e in graph.edges if not e.is_loop]
    s = lcm(*(ln.numerator for _, _, ln in edges))
    m = [[0] * n for _ in range(n)]
    for a, b, ln in edges:
        c = s // ln.numerator * ln.denominator
        m[a][a] += c
        m[b][b] += c
        m[a][b] -= c
        m[b][a] -= c
    inv, d = _invert_laplacian([row[1:] for row in m[1:]])
    g = [[0] * n] + [[0] + row for row in inv]
    # P_ij = s v^2 G_ij - (w_i + w_j) + s T with w_i = s v c_i
    w = [s * n * sum(row) for row in g]
    st = sum(w) // n
    sv2 = s * n * n
    num = [[sv2 * x - wi - wj + st for x, wj in zip(row, w)] for row, wi in zip(g, w)]
    return num, n * n * d


class EdgeCircuitData(namedtuple("EdgeCircuitData",
                                 "edge base is_bridge r_i r_a r_b r_c side",
                                 defaults=(None, None, None, None, None))):
    """Circuit-reduction data for one edge and one base vertex.

    Deleting the edge's interior and reducing the remaining network to a Y
    seen from the endpoints (p_i, q_i) and the base gives arm resistances
    r_a (p_i side), r_b (q_i side) and r_c (base arm); r_i = r_a + r_b is
    the deleted-edge resistance between the endpoints. For a bridge those
    values diverge: ``is_bridge`` is set instead and ``side`` records which
    endpoint shares the base's component ('u' or 'v').
    """

    __slots__ = ()


class Network:
    """Per-graph memo of Laplacian data; computed once, then read-only.

    ``lplus`` is the Moore-Penrose pseudo-inverse of ``laplacian`` (on a
    ``contracted`` network, a generalized inverse with the same resistances)
    and ``r`` the matrix of effective resistances, all aligned with
    ``graph.vertices``. ``pd`` is ``(P, D)`` with L+ = P / D: on the
    rational backend P is an integer matrix from the inverse of the
    grounded Laplacian (``_grounded_pd``; no fraction Laplacian is built),
    on floats P is L+ itself, from the shifted Laplacian L + J/v, with
    D = 1.0, and ``pd`` is None on rational ``contracted`` networks.
    ``div`` is how a sum on (P, D) divides, ``Fraction`` on integers and
    ``/`` on floats, and ``sum_ratios`` the same for a sum of quotients.
    ``r``, and on the rational backend ``lplus``, are derived on first read
    and then kept. ``sums`` holds scalar sums that the invariant formulas
    derive from the network, keyed by formula and base vertex, so each is
    computed once per network.
    """

    def __init__(self, graph: MetrizedGraph):
        n = graph.num_vertices
        if graph.backend == FLOAT:
            lplus = [[0.0]]
            if n > 1:
                jv = Fraction(1, n)
                inv, _ = _invert_laplacian(
                    [[x + jv for x in row] for row in _laplacian_rows(graph)])
                lplus = [[x - jv for x in row] for row in inv]
            self._setup(graph, (lplus, 1.0), lplus)
        elif n == 1:
            self._setup(graph, ([[0]], 1))
        else:
            self._setup(graph, _grounded_pd(graph))

    def _setup(self, graph: MetrizedGraph, pd: tuple | None,
               lplus: list[list[Scalar]] | None = None) -> None:
        """Keep ``lplus`` when given (float and ``contracted`` networks);
        on rational networks it is derived from ``pd`` on first read."""
        self.graph = graph
        self._idx = graph.vertex_index
        if lplus is not None:
            self.lplus = lplus
        self.pd = pd
        # the one backend-dependent step of a sum on (P, D), chosen here
        self.div = truediv if pd is not None and isinstance(pd[1], float) else Fraction
        self.sums: dict[tuple, Scalar] = {}
        self._edge_terms: dict[int, tuple] = {}

    @cached_property
    def lplus(self) -> list[list[Scalar]]:
        """L+ = P / D, formed on first read on the rational backend; float
        and ``contracted`` networks set it on construction."""
        num, den = self.pd
        n = len(num)
        lplus = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                lplus[i][j] = lplus[j][i] = Fraction(num[i][j], den)
        return lplus

    @cached_property
    def r(self) -> list[list[Scalar]]:
        """Effective resistances r_ij = L+_ii - 2 L+_ij + L+_jj, formed on
        first read; on L+ = P / D one division per entry, without L+."""
        if self.pd is not None:
            m, den = self.pd
        else:
            m, den = self.lplus, None
        div = self.div
        n = len(m)
        r = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = m[i][i] - 2 * m[i][j] + m[j][j]
                r[i][j] = r[j][i] = x if den is None else div(x, den)
        return r

    @property
    def laplacian(self) -> list[list[Scalar]]:
        """The discrete Laplacian of ``graph``; rebuilt on each access, not
        kept on cached networks."""
        return _laplacian_rows(self.graph)

    @cached_property
    def bridges(self) -> frozenset[int]:
        return self.graph.structure.bridges

    @cached_property
    def pd_edges(self) -> tuple[tuple[Scalar, ...], ...]:
        """(a, b, iu, iv, d_u, d_v, rho_uv, K) for each edge i = (u, v), on
        a network with ``pd`` = (P, D): L_i = a/b (a = L_i and b = 1.0 on
        floats), d_x = P_xu - P_xv, rho_uv = d_u - d_v = D r(u, v) and
        K = a D - b rho_uv, so that L_i - r(u, v) = K / (b D). A self-loop
        has d_u = d_v = rho_uv = 0 and K = a D, a bridge K = 0 (up to
        rounding on floats)."""
        lp, den = self.pd
        exact = self.div is Fraction
        out = []
        for e in self.graph.edges:
            ln = e.length
            a, b = (ln.numerator, ln.denominator) if exact else (ln, 1.0)
            iu, iv = self._idx[e.u], self._idx[e.v]
            d_u = lp[iu][iu] - lp[iu][iv]
            d_v = lp[iv][iu] - lp[iv][iv]
            rho_uv = d_u - d_v
            out.append((a, b, iu, iv, d_u, d_v, rho_uv, a * den - b * rho_uv))
        return tuple(out)

    def sum_ratios(self, terms: list[tuple], den) -> Scalar:
        """The sum of n / a over the (n, a) of ``terms``, divided by ``den``:
        on integers one fraction over den times the lcm of the a, on floats
        one division per term."""
        if self.div is truediv:
            return sum(n / a for n, a in terms) / den
        scale = lcm(*(a for _, a in terms))
        return Fraction(sum(scale // a * n for n, a in terms), den * scale)

    def contracted(self, i: int) -> Network:
        """Network of ``graph.contract_edge(i)``, without a new inversion.

        Contracting edge i = (u, v) shorts u to v, the infinite-conductance
        limit of the Sherman-Morrison update for a resistor added between
        them: with d = L+ (e_u - e_v), the matrix L+ - d d^T / r(u, v) has
        equal u and v columns, and dropping v leaves a generalized inverse
        of the contracted Laplacian. It may differ from the pseudo-inverse by
        a gauge term, which no resistance or circuit quantity sees, since
        each is a difference of entries. A bridge of the graph other than
        edge i stays a bridge, and no new one appears.
        """
        e = self.graph.edges[i]
        if e.is_loop:
            raise GraphError(f"edge {i} is a self-loop; normalize first")
        graph = self.graph.contract_edge(i)
        iu, iv = self._idx[e.u], self._idx[e.v]
        lp = self.lplus
        r_uv = self.r[iu][iv]
        d = [row[iu] - row[iv] for row in lp]
        scaled = [x / r_uv for x in d]
        keep = [k for k in range(len(lp)) if k != iv]
        m = len(keep)
        lplus = [[None] * m for _ in range(m)]
        for a in range(m):
            ka = keep[a]
            for b in range(a, m):
                kb = keep[b]
                lplus[a][b] = lplus[b][a] = lp[ka][kb] - d[ka] * scaled[kb]
        net = Network.__new__(Network)
        # floats keep the (P, D) form; rational contractions leave it for
        # ``circuit``
        net._setup(graph, (lplus, 1.0) if self.div is truediv else None, lplus)
        net.bridges = frozenset(j - (j > i) for j in self.bridges if j != i)
        return net

    # -- whole-graph resistances ----------------------------------------

    def resistance(self, p: str, q: str) -> Scalar:
        return self.r[self._idx[p]][self._idx[q]]

    def voltage(self, z: str, x: str, y: str) -> Scalar:
        """j_z(x, y): potential at x relative to z when unit current enters
        at y and exits at z."""
        iz, ix, iy = self._idx[z], self._idx[x], self._idx[y]
        return (self.r[ix][iz] + self.r[iy][iz] - self.r[ix][iy]) / 2

    # -- deleted-edge resistances -----------------------------------------

    def deleted_resistance(self, i: int, x: str, y: str) -> Scalar:
        """Resistance between x and y in the graph minus edge i's interior.

        Rank-one update of the pseudo-inverse; edge i must not be a bridge.
        """
        if i in self.bridges:
            raise GraphError(f"edge {i} is a bridge; deleted resistances diverge")
        e = self.graph.edges[i]
        ix, iy = self._idx[x], self._idx[y]
        base = self.r[ix][iy]
        if e.is_loop:
            return base
        iu, iv = self._idx[e.u], self._idx[e.v]
        lp = self.lplus
        cross = lp[ix][iu] - lp[ix][iv] - lp[iy][iu] + lp[iy][iv]
        return base + cross * cross / (e.length - self.r[iu][iv])

    def _base_free_terms(self, i: int) -> tuple:
        """(iu, iv, d_u, d_v, L_i - r(u, v), R_i) of the non-bridge edge i
        = (u, v), with d = L+ (e_u - e_v); for a self-loop d and the
        denominator are None and R_i = 0."""
        e = self.graph.edges[i]
        iu, iv = self._idx[e.u], self._idx[e.v]
        r_uv = self.r[iu][iv]
        if e.is_loop:
            return iu, iv, None, None, None, r_uv
        lp = self.lplus
        d_u, d_v = (lp[k][iu] - lp[k][iv] for k in (iu, iv))
        denom = e.length - r_uv
        c_uv = d_u - d_v
        return iu, iv, d_u, d_v, denom, r_uv + c_uv * c_uv / denom

    def circuit(self, i: int, p: str) -> EdgeCircuitData:
        if i in self.bridges:
            comp = self.graph.delete_edge(i)[0]  # side of e.u
            side = "u" if p in comp.vertex_index else "v"
            return EdgeCircuitData(i, p, True, side=side)
        terms = self._edge_terms.get(i)
        if terms is None:
            terms = self._edge_terms[i] = self._base_free_terms(i)
        iu, iv, d_u, d_v, denom, r_uv = terms
        ip = self._idx[p]
        r_pu, r_pv = self.r[ip][iu], self.r[ip][iv]
        if denom is not None:
            # deleted_resistance for the pairs (p, u) and (p, v): r(x, y)
            # gains (d_x - d_y)^2 / (L_i - r(u, v))
            lp = self.lplus
            d_p = lp[ip][iu] - lp[ip][iv]
            c_pu, c_pv = d_p - d_u, d_p - d_v
            r_pu = r_pu + c_pu * c_pu / denom
            r_pv = r_pv + c_pv * c_pv / denom
        r_a = (r_pu + r_uv - r_pv) / 2
        r_b = (r_pv + r_uv - r_pu) / 2
        r_c = (r_pu + r_pv - r_uv) / 2
        return EdgeCircuitData(i, p, False, r_i=r_uv, r_a=r_a, r_b=r_b, r_c=r_c)


def network_for(graph: MetrizedGraph) -> Network:
    """The memoized ``Network`` of ``graph`` on its own backend."""
    return _network(graph, graph.backend)


@lru_cache(maxsize=16)
def _network(graph: MetrizedGraph, backend: str) -> Network:
    return Network(graph)


# ---------------------------------------------------------------------------
# public one-shot API


def resistance_matrix(graph: MetrizedGraph) -> Matrix:
    """Pairwise effective resistances, aligned with ``graph.vertices``."""
    net = network_for(graph)
    return tuple(tuple(row) for row in net.r)


def voltage(graph: MetrizedGraph, z: str, x: str, y: str) -> Scalar:
    for w in (z, x, y):
        if w not in graph.vertex_index:
            raise GraphError(f"unknown vertex {w!r}")
    return network_for(graph).voltage(z, x, y)


def edge_circuit_data(graph: MetrizedGraph, i: int, p: str) -> EdgeCircuitData:
    if not 0 <= i < graph.num_edges:
        raise GraphError(f"edge index {i} out of range")
    if p not in graph.vertex_index:
        raise GraphError(f"unknown vertex {p!r}")
    return network_for(graph).circuit(i, p)


# ---------------------------------------------------------------------------
# spanning-tree oracle


def resistance_oracle(graph: MetrizedGraph, p: str, q: str) -> Scalar:
    """Effective resistance by exhaustive enumeration.

    r(p, q) = F(p, q) / T with T the sum over spanning trees of the product
    of edge conductances and F the same sum over spanning 2-forests that
    separate p from q. Independent of the Laplacian path; used to
    cross-check it exactly.
    """
    for w in (p, q):
        if w not in graph.vertex_index:
            raise GraphError(f"unknown vertex {w!r}")
    if graph.num_edges > ORACLE_EDGE_CAP:
        raise GraphError(f"oracle capped at {ORACLE_EDGE_CAP} edges, "
                         f"got {graph.num_edges}")
    if p == q:
        return Fraction(0)
    n = graph.num_vertices
    index = graph.vertex_index
    non_loop = [i for i, e in enumerate(graph.edges) if not e.is_loop]

    def weight(subset) -> Scalar:
        w = Fraction(1)
        for i in subset:
            w = w * (1 / graph.edges[i].length)
        return w

    def components(subset):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        cycles = False
        for i in subset:
            e = graph.edges[i]
            ra, rb = find(index[e.u]), find(index[e.v])
            if ra == rb:
                cycles = True
                break
            parent[ra] = rb
        return None if cycles else find

    tree_sum = Fraction(0)
    for subset in combinations(non_loop, n - 1):
        if components(subset) is not None:
            tree_sum = tree_sum + weight(subset)
    if tree_sum == 0:
        raise GraphError("no spanning tree; graph should be connected")
    forest_sum = Fraction(0)
    ip, iq = index[p], index[q]
    if n >= 2:
        for subset in combinations(non_loop, n - 2):
            find = components(subset)
            if find is not None and find(ip) != find(iq):
                forest_sum = forest_sum + weight(subset)
    return forest_sum / tree_sum
