"""Self-tests of the benchmark: checker, generator, tracer and config."""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import mginv.cli
from mginv import banana, necklace, pm_graph_to_json_dict
from mginv.scalars import FLOAT, RATIONAL

from bench import run
from bench.check import failure
from bench.inputs import Op, Stream, assert_distinct
from bench.trace import (PER_LAYER, TARGETS, Tracer, _resolve, layer_stats,
                         program_caches)

ROOT = Path(__file__).resolve().parents[2]

# `mginv search --backend float --seed 7 --samples 200`: the exact re-check
# of this dyadic graph reuses the cached float network (float and rational
# graphs compare equal), so xy_conn shows a margin of -4.4e-17.
FALSE_VIOLATION = {
    "graph_id": "85c11b20c268", "min_margin": -4.4408920985006264e-17,
    "margins": {"xy_conn": -4.4408920985006264e-17,
                "xy_gy": 4.4408920985006264e-17},
    "violations": ["xy_conn"],
    "graph": {"vertices": [{"id": "p1", "q": 1}, {"id": "p2", "q": 1},
                           {"id": "p3", "q": 1}, {"id": "p4", "q": 0}],
              "edges": [{"u": "p1", "v": "p2", "len": "3/4"},
                        {"u": "p2", "v": "p3", "len": "1/2"},
                        {"u": "p3", "v": "p4", "len": "1/2"},
                        {"u": "p4", "v": "p1", "len": "3/4"}]}}

# `mginv verify --backend float` on the necklace C_{4,2} of total length 2
# exits 1: xy_conn holds with equality there and its float margin comes out
# at -2.2e-16 (excerpt: the first check and the failed one).
NECKLACE = necklace(4, 2, Fraction(2))
NECKLACE_FLOAT_VERIFY = {"ok": False, "checks": [
    {"check": "cross_formula_agreement", "ok": True},
    {"check": "bound:xy_conn", "ok": False, "margin": "-2.220446049250313e-16"}]}


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mginv.cli.main(argv)
    return code, out.getvalue()


def clear_caches():
    for cache in program_caches():
        cache.cache_clear()


def test_checker_flags_known_false_violation():
    op = Op(0, "search", FLOAT, seed=7, samples=1)
    why = failure(op, "search", 0, json.dumps([FALSE_VIOLATION]))
    assert "xy_conn" in why and "85c11b20c268" in why and "-4.44" in why


def test_checker_flags_float_verify_exit_on_necklace():
    op = Op(0, "C4,2", FLOAT, NECKLACE)
    why = failure(op, "verify", 1, json.dumps(NECKLACE_FLOAT_VERIFY))
    assert why.startswith("exit code 1") and "xy_conn" in why


def test_checker_agrees_with_live_search():
    clear_caches()
    code, out = call(["search", "--backend", "float", "--workers", "1",
                      "--samples", "200", "--seed", "7", "--format", "json"])
    reported = any(r["violations"] for r in json.loads(out))
    op = Op(0, "search", FLOAT, seed=7, samples=200)
    assert (failure(op, "search", code, out) is not None) == reported


def test_checker_agrees_with_live_float_verify(tmp_path):
    path = tmp_path / "c42.json"
    path.write_text(json.dumps(pm_graph_to_json_dict(NECKLACE)))
    clear_caches()
    code, out = call(["verify", "--graph", str(path), "--backend", FLOAT])
    op = Op(0, "C4,2", FLOAT, NECKLACE)
    assert (failure(op, "verify", code, out) is None) == (code == 0)


def test_checker_compares_family_reference(tmp_path):
    spec_op = Stream("compute_exact", 3).next_round()
    op = next(o for o in spec_op if o.spec is not None)
    path = tmp_path / "g.json"
    path.write_text(op.graph_text())
    code, out = call(op.argv("compute", str(path)))
    assert failure(op, "compute", code, out) is None
    report = json.loads(out)
    report["tau"] = str(Fraction(report["tau"]) + 1)
    assert "family_reference" in failure(op, "compute", 0, json.dumps(report))
    report["backend"] = FLOAT
    assert "backend" in failure(op, "compute", 0, json.dumps(report))


def test_checker_counts_exceptions_and_exit_codes():
    op = Op(0, "search", FLOAT, seed=1)
    assert "TypeError" in failure(op, "search", None, "", TypeError("boom"))
    assert failure(op, "search", 2, "") == "exit code 2"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generator_is_seeded_and_distinct(workload):
    rounds = {"compute_exact": 6, "verify_exact": 40, "search_exact": 5}[workload]

    def draw(seed):
        stream = Stream(workload, seed)
        return [op for _ in range(rounds) for op in stream.next_round()]

    ops = draw(5)
    assert [op.index for op in ops] == list(range(len(ops)))
    assert [(o.label, o.backend, o.pm, o.seed) for o in ops] == \
        [(o.label, o.backend, o.pm, o.seed) for o in draw(5)]
    assert assert_distinct(ops) == sum(op.pm is not None for op in ops)
    assert all(op.backend == RATIONAL for op in ops)


def test_distinctness_proof_sees_float_twins():
    pm = banana([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(AssertionError):
        assert_distinct([Op(0, "b", RATIONAL, pm), Op(1, "b", FLOAT, pm)])
    third = banana([Fraction(1, 3), Fraction(1, 3)])
    assert assert_distinct([Op(0, "b", RATIONAL, third), Op(1, "b", FLOAT, third)]) == 2


def target_objects():
    return {(owner, attr): vars(_resolve(owner))[attr] for owner, attr, *_ in TARGETS}


def test_wrappers_record_spans_and_restore_originals():
    before = target_objects()
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.absent
        wrapped = target_objects()
        clear_caches()
        mginv.cli.invariant_report(necklace(4, 2).as_float())
    finally:
        tracer.restore()
    assert all(wrapped[key] is not before[key] for key in before)
    assert all(obj is before[key] for key, obj in target_objects().items())
    stats = layer_stats(tracer.spans)
    report = stats["invariants.invariant_report"]
    assert report["calls"] == 1
    assert stats["invariants.tau.contraction"]["total_s"] <= report["total_s"]
    assert all(0 <= st["self_s"] <= st["total_s"] + 1e-9 for st in stats.values())
    assert stats["network.invert"]["calls"] >= 1


def test_missing_target_is_absent_not_an_error():
    tracer = Tracer(targets=(("mginv.network", "no_such_function", "x", None, None),
                             ("mginv.no_such_module", "f", "y", None, None)))
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["mginv.network.no_such_function", "mginv.no_such_module.f"]


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail([float(i) for i in range(52)]) == (75, 38.0, 13)
    assert run.tail([float(i) for i in range(600)]) == (95, 569.0, 30)
    assert run.tail([1.0, 2.0, 3.0])[0] == 50


def test_benchmark_json_names_every_metric():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == \
        list(PER_LAYER)
    assert sorted(w["name"] for w in config["workloads"]) == sorted(run.WORKLOADS)
