"""Benchmark of mginv: one workload per run, in a fresh process.

    python3 bench/run.py --workload compute_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each op calls the CLI entry point ``mginv.cli.main`` in this process, one
op after another (a closed loop with one client, as CLI and library
callers wait for each result). Ops come in rounds of fixed composition
(see ``bench/inputs.py``), and the loop stops at the first round boundary
after ``--seconds``, for compute_exact not before its fourth round. The
checker in ``bench/check.py`` decides which ops failed.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median import time of ``mginv`` and ``mginv.cli`` over fresh child
interpreters, taken between rounds), ``ops_per_s`` (ops that passed the
checks, per second of the rounds), ``latency_p50_s``, ``latency_tail_s``
(the highest percentile of 50/75/90/95/99/99.9 with at least ten ops
beyond it) and ``peak_rss_mib``. With ``--trace 1`` it runs a fixed number
of rounds, each op twice, once plain and once traced, from empty program
caches, and reports the per-layer metrics of ``bench/trace.py``; the
tracing overhead is the traced time minus the plain time. The last line of
stdout is one JSON object; a run record with the run context, every op,
the output digest and the spans goes to ``bench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: workload -> CLI subcommand
WORKLOADS = {"compute_exact": "compute", "search_exact": "search",
             "verify_exact": "verify"}
#: rounds of a traced run, the same for every seed
TRACE_ROUNDS = {"compute_exact": 1, "search_exact": 12, "verify_exact": 4}
#: rounds a timed run makes at least: four compute_exact rounds give 52 ops,
#: enough for a p75 with ten ops beyond it even when the CPU runs slow
MIN_ROUNDS = {"compute_exact": 4, "search_exact": 1, "verify_exact": 1}
SETUP_REPEATS = 11
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("peak_rss_mib", "MiB"))

_IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, {src!r}); "
                   "t = time.perf_counter(); import mginv, mginv.cli; "
                   "print(time.perf_counter() - t)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mginv" / "__init__.py").is_file():
        print(f"mginv sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # One CPU for the whole run, set-up children included: the scheduler
    # otherwise moves the process between CPUs whose speeds differ, which
    # shows as drift within and between runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(ROOT)]
    import mginv.cli
    from bench import inputs

    OUT.mkdir(parents=True, exist_ok=True)
    graph_path = OUT / f"{args.workload}-{args.seed}-graph.json"
    stream = inputs.Stream(args.workload, args.seed)
    context = run_context()
    if args.trace:
        result, record = traced_run(mginv.cli, args, stream, graph_path)
    else:
        result, record = timed_run(mginv.cli, args, stream, graph_path)
    graph_path.unlink(missing_ok=True)
    context["calibration_after_s"] = calibration_s()
    record.update(context=context, workload=args.workload, seed=args.seed,
                  result=result)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name in record.get("absent", ()):
        print(f"trace target absent: {name}", file=sys.stderr)
    for index, why in record["failures"].items():
        print(f"op {index} failed: {why}", file=sys.stderr)
    for name, m in result["metrics"].items():
        note = record["notes"].get(name, "")
        print(f"{name:42s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps(result))
    return 0


def import_time() -> float:
    """Seconds to import mginv and mginv.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c",
                           _IMPORT_SNIPPET.format(src=str(SRC))],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def calibration_s() -> float:
    """A fixed pure-Python loop, timed to show drift of the CPU rate."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_context() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "git_sha": git_sha(), "calibration_before_s": calibration_s()}


def run_op(cli, command: str, op, graph_path: Path) -> tuple:
    """One CLI call, timed; returns (seconds, exit code, stdout, exception)."""
    if op.pm is not None:
        graph_path.write_text(op.graph_text())
    argv = op.argv(command, str(graph_path))
    out = io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op; keep going
        error = exc
    return time.perf_counter() - start, code, out.getvalue(), error


def percentile(ordered: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and how many lie beyond."""
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, ops beyond it) for the highest percentile of
    PERCENTILES with at least ten ops beyond it; p50 when none has."""
    ordered = sorted(latencies)
    best = (50, *percentile(ordered, 50))
    for p in PERCENTILES:
        value, beyond = percentile(ordered, p)
        if beyond >= 10:
            best = (p, value, beyond)
    return best


def timed_run(cli, args, stream, graph_path: Path):
    from bench.check import failure
    from bench.inputs import assert_distinct

    command = WORKLOADS[args.workload]
    digest = hashlib.sha256()
    ops, latencies, failures, issued = [], [], {}, []
    busy = 0.0
    setup = []
    start = time.perf_counter()
    rounds = 0
    while (time.perf_counter() - start < args.seconds
           or rounds < MIN_ROUNDS[args.workload]):
        rounds += 1
        # set-up samples spread over the run, between rounds, so that their
        # median sees the same drift of the CPU rate as the ops
        if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(import_time())
        round_start = time.perf_counter()
        for op in stream.next_round():
            issued.append(op)
            seconds, code, out, error = run_op(cli, command, op, graph_path)
            latencies.append(seconds)
            digest.update(f"{op.index}:{code}:".encode() + out.encode())
            why = failure(op, command, code, out, error)
            if why:
                failures[op.index] = why
            ops.append({"index": op.index, "label": op.label,
                        "backend": op.backend, "seconds": seconds, "failure": why})
        busy += time.perf_counter() - round_start
    wall = time.perf_counter() - start
    setup += [import_time() for _ in range(SETUP_REPEATS - len(setup))]
    distinct = assert_distinct(issued)
    p, tail_value, beyond = tail(latencies)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"setup_s": statistics.median(setup),
              "ops_per_s": (len(ops) - len(failures)) / busy,
              "latency_p50_s": percentile(sorted(latencies), 50)[0],
              "latency_tail_s": tail_value, "peak_rss_mib": rss_mib}
    result = {"correct": not failures, "attempted": len(ops),
              "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END}}
    notes = {"latency_tail_s": f"p{p:g} of {len(ops)} ops, {beyond} beyond",
             "setup_s": f"median of {len(setup)} fresh interpreters",
             "ops_per_s": f"{len(ops) - len(failures)} passed of {len(ops)} "
                          f"in {busy:.3f} s"}
    record = {"notes": notes, "setup_samples_s": setup, "loop_s": wall,
              "distinct_graphs": distinct, "outputs_sha256": digest.hexdigest(),
              "failures": failures, "ops": ops}
    return result, record


def traced_run(cli, args, stream, graph_path: Path):
    from bench.check import failure
    from bench.inputs import assert_distinct
    from bench.trace import (PER_LAYER, Tracer, layer_metrics, layer_stats,
                             program_caches)

    command = WORKLOADS[args.workload]
    issued = [op for _ in range(TRACE_ROUNDS[args.workload])
              for op in stream.next_round()]
    distinct = assert_distinct(issued)
    caches = program_caches()
    tracer = Tracer()
    digest = hashlib.sha256()
    plain_s = traced_s = 0.0
    failures, ops = {}, []
    for op in issued:
        for cache in caches:
            cache.cache_clear()
        plain = run_op(cli, command, op, graph_path)
        for cache in caches:
            cache.cache_clear()
        tracer.op = op.index
        tracer.install()
        try:
            seconds, code, out, error = run_op(cli, command, op, graph_path)
        finally:
            tracer.restore()
        plain_s += plain[0]
        traced_s += seconds
        digest.update(f"{op.index}:{code}:".encode() + out.encode())
        why = failure(op, command, code, out, error)
        if why is None and (plain[1], plain[2]) != (code, out):
            why = "output differs between the plain and the traced call"
        if why:
            failures[op.index] = why
        ops.append({"index": op.index, "label": op.label, "backend": op.backend,
                    "seconds": plain[0], "traced_seconds": seconds, "failure": why})
    stats = layer_stats(tracer.spans)
    values = layer_metrics(stats, traced_s - plain_s)
    units = {name: unit for name, unit, _ in PER_LAYER}
    result = {"correct": not failures, "attempted": len(ops),
              "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    names = sorted(stats)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with spans_path.open("w") as f:
        f.write(json.dumps({"names": names}) + "\n")
        index = {n: i for i, n in enumerate(names)}
        for name, start, end, parent, op_id, tag in tracer.spans:
            f.write(json.dumps([index[name], start, end, parent, op_id, tag]) + "\n")
    record = {"notes": {"trace.overhead_s": f"traced {traced_s:.3f} s minus "
                                            f"plain {plain_s:.3f} s"},
              "absent": tracer.absent, "distinct_graphs": distinct,
              "outputs_sha256": digest.hexdigest(), "failures": failures,
              "layers": {n: {k: v for k, v in stats[n].items() if k != "tags"}
                         for n in names},
              "spans_file": spans_path.name, "ops": ops}
    return result, record


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        rows.append(f"{workload}: attempted {result['attempted']}, failed "
                    f"{result['failed']}, correct {result['correct']}")
        for name, m in result["metrics"].items():
            rows.append(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print("\n".join(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
