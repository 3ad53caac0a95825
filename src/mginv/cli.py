"""Command-line front end.

Subcommands: ``compute`` (invariant report for a graph file), ``verify``
(full identity / cross-formula / proved-bound suite, nonzero exit on any
failure), ``family`` (generator vs closed forms), ``search`` (seeded random
bound scan), ``export`` (L, L+, r matrices as CSV). Output is
byte-deterministic given (input, flags, seed, backend). Exit codes: 0 ok,
1 verification failure, 2 input error. Errors are emitted as JSON on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import network
from .bounds import SearchConfig, bound_suite, random_search
from .families import FAMILY_KINDS, FamilySpec, family_reference, make_family
from .graphs import GraphError, PMGraph, pm_graph_from_json, pm_graph_to_json_dict
from .invariants import (CrossValidationError, identity_checks,
                         invariant_report)
from .scalars import FLOAT, RATIONAL, ScalarError, format_scalar, parse_scalar


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ScalarError, ValueError) as exc:
        _error(type(exc).__name__, str(exc))
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mginv",
        description="invariants and inequality checks for polarized metrized graphs")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("compute", help="invariant report for a graph file")
    _common_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run every identity, cross-formula "
                                      "agreement and proved bound; exit 1 on failure")
    _common_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family", help="compare a family generator against "
                                      "its closed-form reference values")
    p.add_argument("--kind", required=True, choices=FAMILY_KINDS)
    p.add_argument("--v", type=int, help="vertex count")
    p.add_argument("--n", type=int, help="edge multiplicity (necklace)")
    p.add_argument("--count", type=int, help="number of loops/edges")
    p.add_argument("--lengths", help="comma-separated edge lengths, e.g. 1/6,1/6")
    p.add_argument("--total", default="1", help="total length for equal-length families")
    p.add_argument("--backend", choices=(RATIONAL, FLOAT), default=RATIONAL)
    p.add_argument("--decimals", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("search", help="seeded random scan of the bound suite")
    p.add_argument("--genus", default="2:4", help="MIN[:MAX] pm-genus range")
    p.add_argument("--vertices", default="3:7", help="MIN[:MAX] vertex range")
    p.add_argument("--edges", default="4:10", help="MIN[:MAX] edge range")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--backend", choices=(RATIONAL, FLOAT), default=FLOAT)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--decimals", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export", help="dump Laplacian, pseudo-inverse and "
                                      "resistance matrices as CSV")
    _common_flags(p)
    p.add_argument("--outdir", type=Path, help="directory for L.csv, Lplus.csv, r.csv")
    p.set_defaults(func=_cmd_export)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, type=Path, help="graph JSON file")
    p.add_argument("--backend", choices=(RATIONAL, FLOAT), default=RATIONAL)
    p.add_argument("--decimals", type=int, help="render scalars as N-place decimals")
    p.add_argument("--out", type=Path, help="write output here instead of stdout")


def _error(kind: str, message: str) -> None:
    json.dump({"error": {"type": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")


def _load(args) -> PMGraph:
    try:
        text = args.graph.read_text()
    except OSError as exc:
        raise GraphError(f"cannot read {args.graph}: {exc}") from exc
    pg = pm_graph_from_json(text, RATIONAL)
    if args.backend == FLOAT:
        pg = pg.as_float()
    return pg


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_compute(args) -> int:
    pg = _load(args)
    try:
        report = invariant_report(pg)
    except CrossValidationError as exc:
        _error("CrossValidationError", str(exc))
        return 1
    if args.format == "json":
        _emit(args, json.dumps(report.to_json_dict(args.decimals), indent=2) + "\n")
    else:
        fields = report.csv_fields(args.decimals)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(fields))
        writer.writeheader()
        writer.writerow(fields)
        _emit(args, buf.getvalue())
    return 0


def _cmd_verify(args) -> int:
    pg = _load(args)
    exact = args.backend == RATIONAL
    results = []
    ok = True
    try:
        report = invariant_report(pg)
        results.append({"check": "cross_formula_agreement", "ok": True})
    except CrossValidationError as exc:
        results.append({"check": "cross_formula_agreement", "ok": False,
                        "detail": str(exc)})
        _emit(args, json.dumps({"ok": False, "checks": results}, indent=2) + "\n")
        return 1
    for name, residual in identity_checks(pg, report):
        good = residual == 0 if exact else abs(float(residual)) <= 1e-10
        ok &= good
        results.append({"check": f"identity:{name}", "ok": good,
                        "residual": format_scalar(residual)})
    if exact:
        # the L+ the report computed for the laplacian tau route
        net = network.network_for(pg.graph.normalized())
        lap, pinv = net.laplacian, net.lplus
        mp1 = network.matmul(network.matmul(lap, pinv), lap) == lap
        mp2 = network.matmul(network.matmul(pinv, lap), pinv) == pinv
        ok &= mp1 and mp2
        results.append({"check": "moore_penrose", "ok": mp1 and mp2})
    for c in bound_suite(pg, report):
        if not (c.applicable and c.proved):
            continue
        ok &= c.satisfied
        results.append({"check": f"bound:{c.name}", "ok": c.satisfied,
                        "margin": format_scalar(c.margin)})
    _emit(args, json.dumps({"ok": ok, "checks": results}, indent=2) + "\n")
    return 0 if ok else 1


def _parse_lengths(text: str | None, backend: str):
    if text is None:
        return None
    return tuple(parse_scalar(part.strip(), backend) for part in text.split(","))


def _cmd_family(args) -> int:
    spec = FamilySpec(kind=args.kind, v=args.v, n=args.n, count=args.count,
                      lengths=_parse_lengths(args.lengths, args.backend),
                      total=parse_scalar(args.total, args.backend))
    pg = make_family(spec)
    if args.backend == FLOAT:
        pg = pg.as_float()
    report = invariant_report(pg)
    reference = family_reference(spec)
    computed = {"tau": report.tau, "theta": report.theta, "phi": report.phi,
                "lambda": report.lam, "x": report.x, "y": report.y}
    table = []
    ok = True
    exact = args.backend == RATIONAL
    for key, ref in reference.items():
        got = computed[key]
        match = got == ref if exact else abs(float(got) - float(ref)) <= 1e-10
        ok &= match
        table.append({"invariant": key, "reference": format_scalar(ref, args.decimals),
                      "computed": format_scalar(got, args.decimals), "match": match})
    payload = {"ok": ok, "graph": pm_graph_to_json_dict(pg), "comparison": table,
               "report": report.to_json_dict(args.decimals)}
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0 if ok else 1


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi) if hi else int(lo))


def _cmd_search(args) -> int:
    cfg = SearchConfig(samples=args.samples, seed=args.seed,
                       genus=_parse_range(args.genus),
                       vertices=_parse_range(args.vertices),
                       edges=_parse_range(args.edges),
                       backend=args.backend, workers=args.workers)
    results = random_search(cfg)
    if args.format == "json":
        payload = [{"graph_id": r.graph_id, "min_margin": r.min_margin,
                    "margins": r.margins, "violations": list(r.violations),
                    "graph": pm_graph_to_json_dict(r.pm)} for r in results]
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["graph_id", "bound", "applicable", "lhs", "rhs",
                     "margin", "satisfied"])
    dec = args.decimals

    def fmt(v):
        return "" if v is None else format_scalar(v, dec)

    for r in results:
        for c in r.checks:
            writer.writerow([r.graph_id, c.name, c.applicable, fmt(c.lhs),
                             fmt(c.rhs), fmt(c.margin),
                             "" if c.satisfied is None else c.satisfied])
    _emit(args, buf.getvalue())
    return 0


def _matrix_csv(vertices, rows, decimals) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + list(vertices))
    for p, row in zip(vertices, rows):
        writer.writerow([p] + [format_scalar(x, decimals) for x in row])
    return buf.getvalue()


def _cmd_export(args) -> int:
    pg = _load(args)
    h = pg.graph.normalized()
    net = network.network_for(h)
    outdir = args.outdir or Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "L.csv").write_text(_matrix_csv(h.vertices, net.laplacian, args.decimals))
    (outdir / "Lplus.csv").write_text(_matrix_csv(h.vertices, net.lplus, args.decimals))
    (outdir / "r.csv").write_text(_matrix_csv(h.vertices, net.r, args.decimals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
