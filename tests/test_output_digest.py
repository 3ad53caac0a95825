"""Byte-identity gate: the sha256 of rational ``compute`` and ``verify``
stdout over a fixed, seeded set of graphs.

A change that is meant to leave exact output alone (a faster formula, a
refactor) must keep this digest. A change that alters exact output on
purpose records the new digest here and says why. The graphs are built
in this file, so that nothing outside ``mginv`` feeds the gate.
"""

import hashlib
import json
import random

from mginv.bounds import SearchConfig
from mginv.cli import main
from mginv.families import genus3_beta, genus3_gamma, necklace
from mginv.graphs import MetrizedGraph, PMGraph, pm_graph_to_json_dict

#: sha256 of the concatenated stdout of every (graph, command) below
DIGEST = "59451829daedebc585026367fbd0d894083a20897b761f89ff2f65f2faaa24b6"

GRID = SearchConfig().lengths


def _lengths(rng, count):
    return [rng.choice(GRID) for _ in range(count)]


def _complete(rng, v, q_count):
    verts = [f"p{i}" for i in range(1, v + 1)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
    graph = MetrizedGraph.build(verts, [(a, b, ln) for (a, b), ln
                                        in zip(pairs, _lengths(rng, len(pairs)))])
    return PMGraph.of(graph, {p: 1 for p in rng.sample(verts, q_count)})


def _cycle(rng, verts):
    return [(a, verts[(i + 1) % len(verts)], ln) for (i, a), ln
            in zip(enumerate(verts), _lengths(rng, len(verts)))]


def _cycles(rng):
    """Cycles with loops, with parallel edges, with q > 0 and a chord, and
    two blocks joined by a bridge."""
    verts = [f"p{i}" for i in range(1, 6)]
    loops = _cycle(rng, verts) + [(p, p, ln) for p, ln
                                  in zip(rng.sample(verts, 2), _lengths(rng, 2))]
    parallel = _cycle(rng, verts)
    parallel += [(a, b, ln) for (a, b, _), ln
                 in zip(rng.sample(parallel, 2), _lengths(rng, 2))]
    chord = _cycle(rng, verts) + [(*rng.sample(verts, 2), rng.choice(GRID))]
    left, right = ["a1", "a2", "a3"], ["b1", "b2", "b3"]
    bridged = (_cycle(rng, left) + [("a1", "a2", rng.choice(GRID))]
               + _cycle(rng, right) + [("b1", "b1", rng.choice(GRID)),
                                       ("a3", "b2", rng.choice(GRID))])
    return {
        "loops": PMGraph.of(MetrizedGraph.build(verts, loops)),
        "parallel": PMGraph.of(MetrizedGraph.build(verts, parallel)),
        "polarized": PMGraph.of(MetrizedGraph.build(verts, chord),
                                {verts[0]: 1, verts[2]: 2}),
        "bridged": PMGraph.of(MetrizedGraph.build(left + right, bridged),
                              {"b3": 1}),
    }


def digest_graphs():
    rng = random.Random("output-digest")
    graphs = {"K5": _complete(rng, 5, 1), "K6": _complete(rng, 6, 0),
              "K7": _complete(rng, 7, 2)}
    for v, n in ((4, 2), (4, 3), (5, 2), (5, 3)):
        graphs[f"C{v},{n}"] = necklace(v, n, sum(_lengths(rng, v * n)))
    graphs["genus3_beta"] = genus3_beta(*_lengths(rng, 6))
    graphs["genus3_gamma"] = genus3_gamma(*_lengths(rng, 6))
    graphs.update(_cycles(rng))
    return graphs


def test_rational_output_digest(tmp_path, capsys):
    sha = hashlib.sha256()
    for name, pg in digest_graphs().items():
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(pm_graph_to_json_dict(pg)))
        for command in ("compute", "verify"):
            code = main([command, "--graph", str(path)])
            out = capsys.readouterr().out
            assert code == 0, (name, command, out)
            sha.update(out.encode())
    assert sha.hexdigest() == DIGEST
