"""Metrized multigraphs and polarized metrized graphs.

A metrized graph is a connected multigraph whose edges carry strictly
positive lengths; self-loops and parallel edges are allowed. A polarized
metrized graph (pm-graph) adds a non-negative integer weight ``q(p)`` per
vertex, constrained so the divisor with coefficient ``valence(p) - 2 +
2*q(p)`` at each vertex is effective.

All types are immutable; every operation returns a new graph. Vertex ids are
opaque strings preserved across operations, and vertices created by an
operation get deterministic derived ids (``e3#s1`` for the first subdivision
point of edge 3), so repeated runs produce identical graphs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .scalars import (RATIONAL, Scalar, ScalarError, backend_of,
                      format_scalar, parse_scalar)


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


@dataclass(frozen=True)
class Edge:
    u: str
    v: str
    length: Scalar

    def __post_init__(self):
        if not isinstance(self.length, float):
            # ints and rational strings live on the exact backend
            object.__setattr__(self, "length", Fraction(self.length))
        if not self.length > 0:
            raise GraphError(f"edge ({self.u},{self.v}) has non-positive length {self.length}")

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def ends(self) -> tuple[str, str]:
        return (self.u, self.v)


@dataclass(frozen=True)
class Structure:
    """Bridge set, edge connectivity and irreducibility of a metrized graph.

    ``edge_connectivity`` and ``is_irreducible`` are properties of the
    underlying metric space (computed on the refined vertex set), while
    ``bridges`` indexes edges of the graph as given.
    """

    bridges: frozenset[int]
    edge_connectivity: int
    is_irreducible: bool


@dataclass(frozen=True)
class MetrizedGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.vertices:
            raise GraphError("vertex list is empty")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        vset = set(self.vertices)
        for e in self.edges:
            if e.u not in vset or e.v not in vset:
                raise GraphError(f"edge ({e.u},{e.v}) has an unknown endpoint")
        backend_of(e.length for e in self.edges)  # reject mixed backends
        if not _connected(self.vertices, self.edges):
            raise GraphError("graph is not connected")

    @classmethod
    def build(cls, vertices: Iterable[str],
              edges: Iterable[tuple[str, str, Scalar]]) -> "MetrizedGraph":
        return cls(tuple(vertices), tuple(Edge(u, v, ln) for u, v, ln in edges))

    # -- basic queries --------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.vertices)}

    @property
    def backend(self) -> str:
        return backend_of(e.length for e in self.edges)

    def genus(self) -> int:
        """First Betti number, edges - vertices + 1."""
        return self.num_edges - self.num_vertices + 1

    def total_length(self) -> Scalar:
        total = Fraction(0)
        for e in self.edges:
            total = total + e.length
        return total

    @cached_property
    def valences(self) -> dict[str, int]:
        """Number of edge directions at each vertex; a self-loop counts twice."""
        deg = {p: 0 for p in self.vertices}
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    @property
    def is_simple(self) -> bool:
        """No self-loops and no parallel edges (an optimal vertex set)."""
        seen = set()
        for e in self.edges:
            if e.is_loop:
                return False
            key = frozenset(e.ends())
            if key in seen:
                return False
            seen.add(key)
        return True

    # -- connectivity structure -----------------------------------------

    @cached_property
    def structure(self) -> Structure:
        bridges = frozenset(_find_bridges(self.vertices, self.edges))
        lam = _edge_connectivity(self)
        irreducible = (not bridges) and not _has_cut_vertex(self.normalized())
        return Structure(bridges, lam, irreducible)

    @property
    def is_bridgeless(self) -> bool:
        return not self.structure.bridges

    # -- transformations -------------------------------------------------

    def delete_edge(self, i: int):
        """Remove the interior of edge ``i``, keeping both endpoints.

        Returns the resulting MetrizedGraph when it stays connected,
        otherwise the pair of components ordered (side of ``u``, side of
        ``v``).
        """
        e = self._edge(i)
        rest = self.edges[:i] + self.edges[i + 1:]
        if _connected(self.vertices, rest):
            return MetrizedGraph(self.vertices, rest)
        side_u = _component_of(e.u, self.vertices, rest)
        part_u = tuple(p for p in self.vertices if p in side_u)
        part_v = tuple(p for p in self.vertices if p not in side_u)
        comp_u = MetrizedGraph(part_u, tuple(f for f in rest if f.u in side_u))
        comp_v = MetrizedGraph(part_v, tuple(f for f in rest if f.u not in side_u))
        return (comp_u, comp_v)

    def contract_edge(self, i: int) -> "MetrizedGraph":
        """Contract edge ``i`` to a point; total length drops by its length.

        A non-loop edge merges its endpoints into one vertex keeping the
        first endpoint's id; contracting a self-loop just deletes it (the
        genus drops by one).
        """
        e = self._edge(i)
        rest = self.edges[:i] + self.edges[i + 1:]
        if e.is_loop:
            return MetrizedGraph(self.vertices, rest)
        keep, gone = e.u, e.v
        verts = tuple(p for p in self.vertices if p != gone)

        def ren(p):
            return keep if p == gone else p

        edges = tuple(Edge(ren(f.u), ren(f.v), f.length) for f in rest)
        return MetrizedGraph(verts, edges)

    def subdivide_edge(self, i: int, pieces: int = 2) -> "MetrizedGraph":
        """Split edge ``i`` into ``pieces`` equal segments through fresh
        valence-2 vertices named ``e{i}#s1``, ``e{i}#s2``, ..."""
        e = self._edge(i)
        if pieces < 2:
            raise GraphError("need at least two pieces")
        seg = e.length / pieces
        mids = []
        taken = set(self.vertices)
        for k in range(1, pieces):
            name = f"e{i}#s{k}"
            while name in taken:
                name += "'"
            taken.add(name)
            mids.append(name)
        chain = [e.u] + mids + [e.v]
        new_edges = tuple(Edge(a, b, seg) for a, b in zip(chain, chain[1:]))
        return MetrizedGraph(self.vertices + tuple(mids),
                             self.edges[:i] + new_edges + self.edges[i + 1:])

    def normalized(self) -> "MetrizedGraph":
        """Equivalent graph (same metric space) with no self-loops and no
        parallel edges, obtained by inserting valence-2 points: every
        self-loop is cut into three arcs, every parallel edge but the first
        of its class into two. Total length is preserved exactly."""
        if self.is_simple:
            return self
        verts = list(self.vertices)
        taken = set(verts)
        out_edges: list[Edge] = []
        seen_pairs: set[frozenset[str]] = set()
        for i, e in enumerate(self.edges):
            if e.is_loop:
                pieces = 3
            else:
                key = frozenset(e.ends())
                if key not in seen_pairs:
                    seen_pairs.add(key)
                    out_edges.append(e)
                    continue
                pieces = 2
            seg = e.length / pieces
            mids = []
            for k in range(1, pieces):
                name = f"e{i}#s{k}"
                while name in taken:
                    name += "'"
                taken.add(name)
                mids.append(name)
            verts.extend(mids)
            chain = [e.u] + mids + [e.v]
            out_edges.extend(Edge(a, b, seg) for a, b in zip(chain, chain[1:]))
        return MetrizedGraph(tuple(verts), tuple(out_edges))

    def scaled(self, t) -> "MetrizedGraph":
        if not t > 0:
            raise GraphError(f"scale factor must be positive, got {t}")
        return MetrizedGraph(self.vertices,
                             tuple(Edge(e.u, e.v, e.length * t) for e in self.edges))

    def as_float(self) -> "MetrizedGraph":
        return MetrizedGraph(self.vertices,
                             tuple(Edge(e.u, e.v, float(e.length)) for e in self.edges))

    def _edge(self, i: int) -> Edge:
        if not 0 <= i < len(self.edges):
            raise GraphError(f"edge index {i} out of range")
        return self.edges[i]


def one_point_join(g1: MetrizedGraph, p1: str,
                   g2: MetrizedGraph, p2: str) -> MetrizedGraph:
    """Disjoint union of two graphs with ``p1`` identified to ``p2``.

    The joined vertex keeps ``p1``'s id; other ``g2`` ids that collide with
    ``g1`` ids get a ``#2`` suffix.
    """
    if p1 not in g1.vertex_index:
        raise GraphError(f"unknown vertex {p1!r} in first graph")
    if p2 not in g2.vertex_index:
        raise GraphError(f"unknown vertex {p2!r} in second graph")
    used = set(g1.vertices)
    ren = {p2: p1}
    for p in g2.vertices:
        if p == p2:
            continue
        name = p
        while name in used:
            name += "#2"
        ren[p] = name
        used.add(name)
    verts = g1.vertices + tuple(ren[p] for p in g2.vertices if p != p2)
    edges = g1.edges + tuple(Edge(ren[e.u], ren[e.v], e.length) for e in g2.edges)
    return MetrizedGraph(verts, edges)


# ---------------------------------------------------------------------------
# polarized metrized graphs


@dataclass(frozen=True)
class PMGraph:
    """A metrized graph with a polarization ``q`` making the canonical
    divisor sum((valence(p) - 2 + 2 q(p)) * p) effective, of genus >= 1."""

    graph: MetrizedGraph
    polarization: tuple[tuple[str, int], ...]  # sorted by vertex id

    def __post_init__(self):
        qmap = dict(self.polarization)
        if set(qmap) != set(self.graph.vertices):
            raise GraphError("polarization must cover exactly the vertex set")
        for p, qv in self.polarization:
            if qv < 0:
                raise GraphError(f"negative polarization q({p}) = {qv}")
        for p in self.graph.vertices:
            w = self.graph.valences[p] - 2 + 2 * qmap[p]
            if w < 0:
                raise GraphError(
                    f"canonical divisor not effective at vertex {p!r}: "
                    f"valence {self.graph.valences[p]} with q = {qmap[p]}")
        if self.graph.genus() + sum(qmap.values()) < 1:
            raise GraphError("pm-graph genus must be at least 1")

    @classmethod
    def of(cls, graph: MetrizedGraph, q: Mapping[str, int] | None = None) -> "PMGraph":
        q = dict(q or {})
        unknown = set(q) - set(graph.vertices)
        if unknown:
            raise GraphError(f"polarization names unknown vertices: {sorted(unknown)}")
        items = tuple(sorted((p, int(q.get(p, 0))) for p in graph.vertices))
        return cls(graph, items)

    @cached_property
    def q(self) -> dict[str, int]:
        return dict(self.polarization)

    @property
    def q_total(self) -> int:
        return sum(qv for _, qv in self.polarization)

    @property
    def is_simple_polarization(self) -> bool:
        """q identically zero (what 'simple pm-graph' conventionally means)."""
        return self.q_total == 0

    def pm_genus(self) -> int:
        """Graph genus plus total polarization; equals 1 + deg(K)/2."""
        return self.graph.genus() + self.q_total

    def canonical_weight(self, p: str) -> int:
        return self.graph.valences[p] - 2 + 2 * self.q[p]

    def canonical_degree(self) -> int:
        return sum(self.canonical_weight(p) for p in self.graph.vertices)

    # -- vertex-set changes ----------------------------------------------

    def normalized(self) -> "PMGraph":
        g = self.graph.normalized()
        q = {p: self.q.get(p, 0) for p in g.vertices}
        return PMGraph.of(g, q)

    def suppressed(self) -> "PMGraph":
        """Remove every valence-2 vertex with q = 0 by fusing its two
        incident edges; a pure circle keeps its lexicographically smallest
        vertex so the vertex set stays non-empty."""
        verts = list(self.graph.vertices)
        edges = [(e.u, e.v, e.length) for e in self.graph.edges]
        q = dict(self.q)
        while True:
            deg: dict[str, list[int]] = {p: [] for p in verts}
            for idx, (u, v, _) in enumerate(edges):
                deg[u].append(idx)
                deg[v].append(idx)
            candidates = []
            for p in verts:
                inc = deg[p]
                if q[p] != 0 or len(inc) != 2:
                    continue
                if inc[0] == inc[1]:
                    continue  # lone circle vertex: keep it
                candidates.append(p)
            if not candidates:
                break
            w = max(candidates)
            i1, i2 = deg[w]
            u1, v1, l1 = edges[i1]
            u2, v2, l2 = edges[i2]
            a = v1 if u1 == w else u1
            b = v2 if u2 == w else u2
            merged = (a, b, l1 + l2)
            edges = [e for k, e in enumerate(edges) if k not in (i1, i2)]
            edges.insert(min(i1, i2), merged)
            verts.remove(w)
            del q[w]
        g = MetrizedGraph.build(verts, edges)
        return PMGraph.of(g, q)

    def attach_loops(self, eps) -> "PMGraph":
        """Trade polarization for topology: hang ``q(p)`` loops of length
        ``eps`` at each vertex and reset q to zero. The pm-genus is
        unchanged; the total length grows by ``eps * sum(q)``."""
        if not eps > 0:
            raise GraphError(f"loop length must be positive, got {eps}")
        if self.graph.backend == RATIONAL and isinstance(eps, float):
            raise GraphError("float loop length on a rational-backend graph")
        edges = list(self.graph.edges)
        for p, qv in self.polarization:
            for _ in range(qv):
                edges.append(Edge(p, p, eps))
        g = MetrizedGraph(self.graph.vertices, tuple(edges))
        return PMGraph.of(g, {})

    # -- edge typing -------------------------------------------------------

    def edge_types(self) -> tuple[tuple[int, ...], dict[int, Scalar]]:
        """Per-edge type and the length-weighted type totals.

        A non-bridge edge has type 0. A bridge splits the graph into two
        components of pm-genus (i, gbar - i); its type is min(i, gbar - i).
        ``delta[i]`` is the total length of type-i edges, for every i from 0
        to gbar // 2, and the deltas sum to the total length.
        """
        gbar = self.pm_genus()
        bridges = self.graph.structure.bridges
        types = []
        delta: dict[int, Scalar] = {i: Fraction(0) for i in range(gbar // 2 + 1)}
        for i, e in enumerate(self.graph.edges):
            if i not in bridges:
                t = 0
            else:
                comp_u, _ = self.graph.delete_edge(i)
                gu = comp_u.genus() + sum(self.q[p] for p in comp_u.vertices)
                t = min(gu, gbar - gu)
            types.append(t)
            delta[t] = delta[t] + e.length
        return tuple(types), delta

    def edge_type_counts(self) -> dict[int, int]:
        """Same typing with plain edge counts instead of lengths."""
        types, _ = self.edge_types()
        gbar = self.pm_genus()
        counts = {i: 0 for i in range(gbar // 2 + 1)}
        for t in types:
            counts[t] += 1
        return counts

    def scaled(self, t) -> "PMGraph":
        return PMGraph.of(self.graph.scaled(t), self.q)

    def as_float(self) -> "PMGraph":
        return PMGraph.of(self.graph.as_float(), self.q)


# ---------------------------------------------------------------------------
# JSON interchange


def pm_graph_from_json(data, backend: str = RATIONAL) -> PMGraph:
    """Parse the graph file format.

    Expected shape::

        {"vertices": [{"id": "p", "q": 0}, ...],
         "edges": [{"u": "p", "v": "q", "len": "1/6"}, ...]}

    ``len`` accepts a rational string ``a/b`` or a decimal; ``q`` defaults
    to 0. Rejects disconnected graphs, non-positive lengths, negative q and
    a non-effective canonical divisor, naming the offender.
    """
    if isinstance(data, (str, bytes)):
        try:
            # parse_float=str keeps decimal literals exact for the rational backend
            data = json.loads(data, parse_float=str)
        except json.JSONDecodeError as exc:
            raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphError("graph JSON must be an object")
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise GraphError(f"graph JSON missing key {exc.args[0]!r}") from exc
    vertices = []
    q = {}
    for item in raw_vertices:
        if not isinstance(item, dict) or "id" not in item:
            raise GraphError(f"bad vertex entry {item!r}")
        vid = str(item["id"])
        vertices.append(vid)
        qv = item.get("q", 0)
        if not isinstance(qv, int) or isinstance(qv, bool) or qv < 0:
            raise GraphError(f"vertex {vid!r} has invalid q = {qv!r}")
        q[vid] = qv
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict) or not {"u", "v", "len"} <= set(item):
            raise GraphError(f"bad edge entry {item!r}")
        try:
            ln = parse_scalar(item["len"], backend)
        except ScalarError as exc:
            raise GraphError(str(exc)) from exc
        edges.append((str(item["u"]), str(item["v"]), ln))
    graph = MetrizedGraph.build(vertices, edges)
    return PMGraph.of(graph, q)


def pm_graph_to_json_dict(pg: PMGraph) -> dict:
    return {
        "vertices": [{"id": p, "q": pg.q[p]} for p in pg.graph.vertices],
        "edges": [{"u": e.u, "v": e.v, "len": format_scalar(e.length)}
                  for e in pg.graph.edges],
    }


# ---------------------------------------------------------------------------
# internal graph algorithms (lengths never matter here)


def _adjacency(vertices, edges) -> dict[str, list[tuple[str, int]]]:
    adj: dict[str, list[tuple[str, int]]] = {p: [] for p in vertices}
    for i, e in enumerate(edges):
        if e.is_loop:
            continue
        adj[e.u].append((e.v, i))
        adj[e.v].append((e.u, i))
    return adj


def _connected(vertices, edges) -> bool:
    return len(_component_of(vertices[0], vertices, edges)) == len(vertices)


def _component_of(start, vertices, edges) -> set[str]:
    adj = _adjacency(vertices, edges)
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for nb, _ in adj[p]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen


def _find_bridges(vertices, edges) -> list[int]:
    """Iterative lowpoint DFS; parallel edges and self-loops are never
    bridges because only the tree edge itself is skipped, not the vertex."""
    adj = _adjacency(vertices, edges)
    pre: dict[str, int] = {}
    low: dict[str, int] = {}
    bridges: list[int] = []
    counter = 0
    for root in vertices:
        if root in pre:
            continue
        stack = [(root, -1, iter(adj[root]))]
        pre[root] = low[root] = counter
        counter += 1
        while stack:
            p, in_edge, it = stack[-1]
            advanced = False
            for nb, ei in it:
                if ei == in_edge:
                    continue
                if nb not in pre:
                    pre[nb] = low[nb] = counter
                    counter += 1
                    stack.append((nb, ei, iter(adj[nb])))
                    advanced = True
                    break
                low[p] = min(low[p], pre[nb])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[p])
                if low[p] == pre[p]:
                    bridges.append(in_edge)
    return bridges


def _has_cut_vertex(g: MetrizedGraph) -> bool:
    """Articulation-point test on a simple graph (input must be normalized)."""
    adj = _adjacency(g.vertices, g.edges)
    pre: dict[str, int] = {}
    low: dict[str, int] = {}
    counter = 0
    for root in g.vertices:
        if root in pre:
            continue
        root_children = 0
        pre[root] = low[root] = counter
        counter += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            p, parent, it = stack[-1]
            advanced = False
            for nb, _ in it:
                if nb not in pre:
                    pre[nb] = low[nb] = counter
                    counter += 1
                    if p == root:
                        root_children += 1
                    stack.append((nb, p, iter(adj[nb])))
                    advanced = True
                    break
                if nb != parent:
                    low[p] = min(low[p], pre[nb])
            if advanced:
                continue
            stack.pop()
            if stack:
                par = stack[-1][0]
                low[par] = min(low[par], low[p])
                if par != root and low[p] >= pre[par]:
                    return True
        if root_children > 1:
            return True
    return False


def _edge_connectivity(g: MetrizedGraph) -> int:
    """Global min edge cut of the multigraph, lengths ignored.

    Parallel edges add capacity; each self-loop is split once so that a
    circle costs two cuts (deleting both arc interiors isolates the split
    point), matching the metric-space reading.
    """
    verts = list(g.vertices)
    taken = set(verts)
    pairs: list[tuple[str, str]] = []
    for i, e in enumerate(g.edges):
        if e.is_loop:
            mid = f"e{i}#cut"
            while mid in taken:
                mid += "'"
            taken.add(mid)
            verts.append(mid)
            pairs.append((e.u, mid))
            pairs.append((mid, e.v))
        else:
            pairs.append((e.u, e.v))
    n = len(verts)
    if n == 1 or not pairs:
        return 0
    index = {p: k for k, p in enumerate(verts)}
    cap = [[0] * n for _ in range(n)]
    for a, b in pairs:
        ia, ib = index[a], index[b]
        cap[ia][ib] += 1
        cap[ib][ia] += 1
    best = None
    for t in range(1, n):
        flow = _max_flow([row[:] for row in cap], 0, t)
        if best is None or flow < best:
            best = flow
    return best


def _max_flow(cap, s, t) -> int:
    n = len(cap)
    flow = 0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] == -1:
            a = queue.popleft()
            for b in range(n):
                if parent[b] == -1 and cap[a][b] > 0:
                    parent[b] = a
                    queue.append(b)
        if parent[t] == -1:
            return flow
        # unit capacities: augment by 1
        b = t
        while b != s:
            a = parent[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        flow += 1
