"""Electrical-network computations: Laplacian, pseudo-inverse, resistances.

A metrized graph is a resistive circuit in which each edge is a resistor
equal to its length. ``Network`` is the one place where the discrete
Laplacian is assembled and inverted. The Laplacian has off-diagonal entries
minus the summed conductances 1/L_k of the edges between two vertices and
zero row sums; self-loops carry no current and are skipped, and parallel
edges merge their conductances, which leaves every vertex-to-vertex
resistance unchanged, so any metrized graph is accepted. Its Moore-Penrose
pseudo-inverse is computed as (L + J/v)^-1 - J/v, with Gauss-Jordan
elimination run exactly on the rational backend and with partial pivoting
on floats.

Effective resistances between vertices come from the pseudo-inverse. The
per-edge circuit data needed by the invariant formulas lives in the graph
with one edge's interior deleted; instead of re-inverting for every edge,
``Network`` gets those resistances from a rank-one update of the original
pseudo-inverse, so one inversion per graph covers every (edge, base-vertex)
pair. Contracting an edge is the opposite limit of the same update: shorting
its endpoints (infinite conductance) gives ``Network.contracted`` in O(V^2),
so the contraction formulas need no inversion beyond the parent's either.

``network_for`` memoizes one ``Network`` per graph and backend: a float
graph and its rational twin compare and hash equal, so the backend is part
of the key.

An independent spanning-tree oracle (weighted matrix-tree / 2-forest
identity, enumerated exhaustively) cross-checks the linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .graphs import GraphError, MetrizedGraph
from .scalars import Scalar

#: resistance_oracle refuses graphs with more edges than this
ORACLE_EDGE_CAP = 14

Matrix = tuple[tuple[Scalar, ...], ...]


def _is_float_matrix(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def invert_matrix(rows) -> list[list[Scalar]]:
    """Gauss-Jordan inverse; exact on rationals, partial pivoting on floats."""
    n = len(rows)
    a = [list(r) for r in rows]
    partial = _is_float_matrix(rows)
    one = 1.0 if partial else Fraction(1)
    inv = [[one if i == j else one * 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        if partial:
            piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        else:
            piv = next((r for r in range(col, n) if a[r][col] != 0), col)
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


def _laplacian_rows(graph: MetrizedGraph) -> list[list[Scalar]]:
    """Discrete Laplacian on ``graph.vertices``: loops skipped, parallel
    conductances summed."""
    n = graph.num_vertices
    index = graph.vertex_index
    rows = [[Fraction(0)] * n for _ in range(n)]
    for e in graph.edges:
        if e.is_loop:
            continue
        a, b = index[e.u], index[e.v]
        c = 1 / e.length
        rows[a][b] = rows[a][b] - c
        rows[b][a] = rows[b][a] - c
        rows[a][a] = rows[a][a] + c
        rows[b][b] = rows[b][b] + c
    return rows


@dataclass(frozen=True)
class EdgeCircuitData:
    """Circuit-reduction data for one edge and one base vertex.

    Deleting the edge's interior and reducing the remaining network to a Y
    seen from the endpoints (p_i, q_i) and the base gives arm resistances
    r_a (p_i side), r_b (q_i side) and r_c (base arm); r_i = r_a + r_b is
    the deleted-edge resistance between the endpoints. For a bridge those
    values diverge: ``is_bridge`` is set instead and ``side`` records which
    endpoint shares the base's component ('u' or 'v').
    """

    edge: int
    base: str
    is_bridge: bool
    r_i: Scalar | None = None
    r_a: Scalar | None = None
    r_b: Scalar | None = None
    r_c: Scalar | None = None
    side: str | None = None


class Network:
    """Per-graph memo of Laplacian data; computed once, then read-only.

    ``lplus`` is the Moore-Penrose pseudo-inverse of ``laplacian`` (on a
    ``contracted`` network, a generalized inverse with the same resistances)
    and ``r`` the matrix of effective resistances, all aligned with
    ``graph.vertices``. ``sums`` holds scalar sums that the invariant
    formulas derive from the network, keyed by formula and base vertex, so
    each is computed once per network.
    """

    def __init__(self, graph: MetrizedGraph):
        rows = _laplacian_rows(graph)
        n = len(rows)
        jv = Fraction(1, n)
        if n == 1:
            lplus = [[Fraction(0)]]
        else:
            shifted = [[x + jv for x in row] for row in rows]
            try:
                inv = invert_matrix(shifted)
            except GraphError as exc:
                raise GraphError("disconnected input") from exc
            lplus = [[x - jv for x in row] for row in inv]
        self._setup(graph, lplus)

    def _setup(self, graph: MetrizedGraph, lplus: list[list[Scalar]]) -> None:
        self.graph = graph
        self._idx = graph.vertex_index
        self.lplus = lplus
        n = len(lplus)
        r = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                r[i][j] = r[j][i] = lplus[i][i] - 2 * lplus[i][j] + lplus[j][j]
        self.r = r
        self.sums: dict[tuple, Scalar] = {}

    @property
    def laplacian(self) -> list[list[Scalar]]:
        """The discrete Laplacian of ``graph``; rebuilt on each access, not
        kept on cached networks."""
        return _laplacian_rows(self.graph)

    @cached_property
    def bridges(self) -> frozenset[int]:
        return self.graph.structure.bridges

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
        net._setup(graph, lplus)
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

    def edge_resistance(self, i: int) -> Scalar:
        """Deleted-edge resistance R_i between the endpoints of edge i."""
        e = self.graph.edges[i]
        return self.deleted_resistance(i, e.u, e.v)

    def circuit(self, i: int, p: str) -> EdgeCircuitData:
        e = self.graph.edges[i]
        if i in self.bridges:
            comp = self.graph.delete_edge(i)[0]  # side of e.u
            side = "u" if p in comp.vertex_index else "v"
            return EdgeCircuitData(i, p, True, side=side)
        ip, iu, iv = self._idx[p], self._idx[e.u], self._idx[e.v]
        r = self.r
        r_pu, r_pv, r_uv = r[ip][iu], r[ip][iv], r[iu][iv]
        if not e.is_loop:
            # deleted_resistance for the three pairs, sharing d = L+ (e_u - e_v)
            # and the denominator: r(x, y) gains (d_x - d_y)^2 / (L_i - r(u, v))
            lp = self.lplus
            d_p, d_u, d_v = (lp[k][iu] - lp[k][iv] for k in (ip, iu, iv))
            denom = e.length - r_uv
            c_pu, c_pv, c_uv = d_p - d_u, d_p - d_v, d_u - d_v
            r_pu = r_pu + c_pu * c_pu / denom
            r_pv = r_pv + c_pv * c_pv / denom
            r_uv = r_uv + c_uv * c_uv / denom
        r_a = (r_pu + r_uv - r_pv) / 2
        r_b = (r_pv + r_uv - r_pu) / 2
        r_c = (r_pu + r_pv - r_uv) / 2
        return EdgeCircuitData(i, p, False, r_i=r_uv, r_a=r_a, r_b=r_b, r_c=r_c)


def network_for(graph: MetrizedGraph) -> Network:
    """The memoized ``Network`` of ``graph`` on its own backend."""
    return _network(graph, graph.backend)


@lru_cache(maxsize=256)
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


def resistance_oracle(graph: MetrizedGraph, p: str, q: str,
                      max_edges: int = ORACLE_EDGE_CAP) -> Scalar:
    """Effective resistance by exhaustive enumeration.

    r(p, q) = F(p, q) / T with T the sum over spanning trees of the product
    of edge conductances and F the same sum over spanning 2-forests that
    separate p from q. Independent of the Laplacian path; used to
    cross-check it exactly.
    """
    for w in (p, q):
        if w not in graph.vertex_index:
            raise GraphError(f"unknown vertex {w!r}")
    if graph.num_edges > max_edges:
        raise GraphError(f"oracle capped at {max_edges} edges, "
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
