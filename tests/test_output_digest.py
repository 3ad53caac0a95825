"""Byte-identity gate: the sha256 of CLI stdout over fixed, seeded inputs.

Covered: ``compute`` and ``verify`` over a seeded set of graphs, on the
rational and on the float backend, and ``search`` in JSON and CSV at two
seeds, on the default ranges and on wider ones, on both backends.

A change that is meant to leave output alone (a faster formula, a
refactor) must keep these digests. A change that alters output on purpose
records the new digest here and says why. The graphs are built in this
file, so that nothing outside ``mginv`` feeds the gate.
"""

import hashlib
import json
import random

import pytest

from mginv.bounds import SearchConfig
from mginv.cli import main
from mginv.families import genus3_beta, genus3_gamma, necklace
from mginv.graphs import MetrizedGraph, PMGraph, pm_graph_to_json_dict

#: sha256 of the concatenated stdout of every (graph, command) below
DIGEST = "59451829daedebc585026367fbd0d894083a20897b761f89ff2f65f2faaa24b6"
#: the same over ``--backend float``
FLOAT_DIGEST = "792a2976bca04e1f2c997fef46d86a38868095eaff3955e65c9c2d52b1f65e97"

#: search runs: (seed, extra flags), each with ``--samples SEARCH_SAMPLES``
SEARCH_RUNS = ((11, ()), (29, ()),
               (11, ("--vertices", "3:9", "--edges", "4:16")),
               (29, ("--vertices", "3:9", "--edges", "4:16")))
SEARCH_SAMPLES = 100
#: sha256 of the concatenated search stdout, per (backend, format)
SEARCH_DIGESTS = {
    ("rational", "json"): "3b5190429267235f401fd2021ec4395ae80234404766c22e78023a0de6d7b647",
    ("rational", "csv"): "252b559534070107d90792511aa7d3a781f4df2c7d11137884f657591e94ac71",
    ("float", "json"): "9f2a7a6d1a5e570959f6662fe2f2ac2b89fab34d2abe1acb9577ed6232c17793",
    ("float", "csv"): "9f1b686ddc13c2413707eab3fcf761c9cebcb00eb5f0aaf9e4cd824b6f47b52d",
}

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


def _report_digest(tmp_path, capsys, *flags):
    """sha256 of ``compute`` and ``verify`` stdout over ``digest_graphs``."""
    sha = hashlib.sha256()
    for name, pg in digest_graphs().items():
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(pm_graph_to_json_dict(pg)))
        for command in ("compute", "verify"):
            code = main([command, "--graph", str(path), *flags])
            out = capsys.readouterr().out
            assert code == 0, (name, command, out)
            sha.update(out.encode())
    return sha.hexdigest()


def test_rational_output_digest(tmp_path, capsys):
    assert _report_digest(tmp_path, capsys) == DIGEST


def test_float_output_digest(tmp_path, capsys):
    assert _report_digest(tmp_path, capsys, "--backend", "float") == FLOAT_DIGEST


@pytest.mark.parametrize("backend,fmt", sorted(SEARCH_DIGESTS))
def test_search_output_digest(backend, fmt, capsys):
    sha = hashlib.sha256()
    for seed, flags in SEARCH_RUNS:
        code = main(["search", "--backend", backend, "--format", fmt,
                     "--seed", str(seed), "--samples", str(SEARCH_SAMPLES),
                     *flags])
        out = capsys.readouterr().out
        assert code == 0, (seed, flags)
        sha.update(out.encode())
    assert sha.hexdigest() == SEARCH_DIGESTS[backend, fmt]
