"""Seeded, provably distinct inputs for the benchmark workloads.

Every input comes from a ``random.Random`` seeded by the workload seed, so
the same seed gives the same ops. Edge lengths are drawn from the program's
own search grid (``SearchConfig().lengths``, the multiples of 1/12), so
dyadic lengths such as 1/4 and 1/2 turn up at their natural rate.

The program keeps process-wide caches keyed on graph *equality*, and a
float graph with dyadic lengths equals its rational twin. A graph handed to
the program twice would therefore be served from a cache the second time.
``Stream`` redraws any graph equal to one it already issued, comparing the
graph the program computes on (the float twin for float ops), and
``assert_distinct`` proves the whole run distinct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from mginv.bounds import SearchConfig
from mginv.families import FamilySpec, genus3_beta, genus3_gamma, necklace
from mginv.graphs import MetrizedGraph, PMGraph, pm_graph_to_json_dict
from mginv.scalars import FLOAT, RATIONAL

GRID = SearchConfig().lengths

#: samples per ``mginv search`` op
SEARCH_BATCH = 10

# One compute_exact round: every class once, in a seeded order. A run
# stops only at a round boundary, so every run has the same mix of shapes
# and the latency quantiles do not depend on where the clock ran out.
# Three of the thirteen classes carry q > 0 at some vertices.
COMPUTE_ROUND = (
    ("complete", 5, 1), ("complete", 6, 0), ("complete", 6, 1),
    ("complete", 7, 1), ("complete", 8, 0),
    ("necklace", 4, 2), ("necklace", 4, 3), ("necklace", 5, 2),
    ("necklace", 5, 3), ("necklace", 6, 2), ("necklace", 6, 3),
    ("genus3_beta",), ("genus3_gamma",),
)

# One verify_exact round: each feature at two sizes, on the exact backend.
# Only lengths and the placement of the feature are random, so that every
# run has the same mix of graph sizes. The bridged graph with one loop, the
# cheapest class, comes twice, so that the median falls in the middle of a
# class rather than on the edge between two.
VERIFY_ROUND = (("loops", 1), ("loops", 2), ("parallel", 1), ("parallel", 2),
                ("polarized", 1), ("polarized", 2), ("bridged", 1), ("bridged", 1),
                ("bridged", 2))

#: search ops per round, seeds consecutive
SEARCH_ROUND = 10


@dataclass(frozen=True)
class Op:
    """One request to the program.

    ``pm`` is the rational pm-graph written to the graph file (float ops
    convert it on load, as the CLI does); ``spec`` is set for family
    members, whose closed forms the checker compares against; ``seed`` and
    ``samples`` are the ``mginv search`` arguments.
    """

    index: int
    label: str
    backend: str
    pm: PMGraph | None = None
    spec: FamilySpec | None = None
    seed: int | None = None
    samples: int = SEARCH_BATCH

    def graph_text(self) -> str:
        return json.dumps(pm_graph_to_json_dict(self.pm))

    def argv(self, command: str, graph_path: str) -> list[str]:
        if command == "search":
            return ["search", "--backend", self.backend, "--workers", "1",
                    "--samples", str(self.samples), "--seed", str(self.seed),
                    "--format", "json"]
        return [command, "--graph", graph_path, "--backend", self.backend]


def computed_graph(op: Op) -> MetrizedGraph:
    """The graph the program computes on for this op."""
    return op.pm.graph.as_float() if op.backend == FLOAT else op.pm.graph


def assert_distinct(ops: list[Op]) -> int:
    """Prove that no two graph ops hand the program equal graphs.

    Float and rational graphs hash and compare alike when their lengths
    agree, exactly as the program's caches see them. Returns the number of
    distinct graphs.
    """
    graphs = [computed_graph(op) for op in ops if op.pm is not None]
    if len(set(graphs)) != len(graphs):
        raise AssertionError("two ops share an equal graph")
    return len(graphs)


class Stream:
    """The op stream of one workload, generated round by round."""

    def __init__(self, workload: str, seed: int):
        rounds = {"compute_exact": self._compute_round,
                  "search_exact": self._search_round,
                  "verify_exact": self._verify_round}
        if workload not in rounds:
            raise ValueError(f"unknown workload {workload!r}")
        self._round = rounds[workload]
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.issued = 0
        self._seen: set[MetrizedGraph] = set()

    def next_round(self) -> list[Op]:
        ops = self._round()
        self.issued += len(ops)
        return ops

    def _search_round(self) -> list[Op]:
        # the search draws its own graphs from its seed: the workload seed
        # plus the op index
        return [Op(i, "search", RATIONAL, seed=self.seed + i)
                for i in range(self.issued, self.issued + SEARCH_ROUND)]

    def _compute_round(self) -> list[Op]:
        order = list(COMPUTE_ROUND)
        self.rng.shuffle(order)
        return [self._draw(_compute_graph, cls, k)
                for k, cls in enumerate(order)]

    def _verify_round(self) -> list[Op]:
        order = list(VERIFY_ROUND)
        self.rng.shuffle(order)
        return [self._draw(_verify_graph, cls, k)
                for k, cls in enumerate(order)]

    def _draw(self, make, cls, offset: int) -> Op:
        for _ in range(1000):
            label, pm, spec = make(self.rng, cls)
            op = Op(self.issued + offset, label, RATIONAL, pm, spec)
            if computed_graph(op) not in self._seen:
                self._seen.add(computed_graph(op))
                return op
        raise RuntimeError(f"no fresh graph for {label} after 1000 draws")


def _lengths(rng: random.Random, count: int) -> list:
    return [rng.choice(GRID) for _ in range(count)]


def _polarize(rng: random.Random, graph: MetrizedGraph, count: int) -> PMGraph:
    return PMGraph.of(graph, {p: 1 for p in rng.sample(graph.vertices, count)})


def _compute_graph(rng: random.Random, cls: tuple):
    kind = cls[0]
    if kind == "complete":
        _, v, q_count = cls
        verts = [f"p{i}" for i in range(1, v + 1)]
        pairs = [(verts[i], verts[j]) for i in range(v) for j in range(i + 1, v)]
        lengths = _lengths(rng, len(pairs))
        graph = MetrizedGraph.build(verts, [(a, b, ln) for (a, b), ln
                                            in zip(pairs, lengths)])
        label = f"K{v}" + (" q>0" if q_count else "")
        return label, _polarize(rng, graph, rng.randint(1, 2) if q_count else 0), None
    if kind == "necklace":
        _, v, n = cls
        total = sum(_lengths(rng, v * n))
        spec = FamilySpec(kind="necklace_Cvn", v=v, n=n, total=total)
        return f"C{v},{n}", necklace(v, n, total), spec
    lengths = tuple(_lengths(rng, 6))
    make = genus3_beta if kind == "genus3_beta" else genus3_gamma
    return kind, make(*lengths), FamilySpec(kind=kind, lengths=lengths)


def _cycle(rng: random.Random, verts: list[str]) -> list[tuple]:
    return [(verts[i], verts[(i + 1) % len(verts)], rng.choice(GRID))
            for i in range(len(verts))]


def _verify_graph(rng: random.Random, cls: tuple):
    """A cycle on 3 + size vertices with ``size`` loops, doubled edges or
    q = 1 vertices (the polarized cycle also gets a chord), or two blocks
    joined by a bridge."""
    kind, size = cls
    if kind == "bridged":
        # a cycle with a doubled edge on one side; on the other a vertex with
        # a loop (size 1) or a triangle with q = 1 at one vertex (size 2)
        left = [f"a{i}" for i in range(1, size + 3)]
        edges = _cycle(rng, left) + [(left[0], left[1], rng.choice(GRID))]
        right = ["b1"] if size == 1 else ["b1", "b2", "b3"]
        edges += [("b1", "b1", rng.choice(GRID))] if size == 1 else _cycle(rng, right)
        edges.append((rng.choice(left), rng.choice(right), rng.choice(GRID)))
        graph = MetrizedGraph.build(left + right, edges)
        return f"bridged{size}", _polarize(rng, graph, size - 1), None
    verts = [f"p{i}" for i in range(1, size + 4)]
    edges = _cycle(rng, verts)
    q_count = 0
    if kind == "loops":
        edges += [(p, p, rng.choice(GRID)) for p in rng.sample(verts, size)]
    elif kind == "parallel":
        edges += [(a, b, rng.choice(GRID)) for a, b, _ in rng.sample(edges, size)]
    else:
        edges.append((*rng.sample(verts, 2), rng.choice(GRID)))
        q_count = size
    graph = MetrizedGraph.build(verts, edges)
    return f"{kind}{size}", _polarize(rng, graph, q_count), None
