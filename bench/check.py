"""The output checker: decides whether one op failed.

An op fails on a nonzero exit code or an exception, on an output backend
other than the one requested, on any reported violation of a proved bound
(every proved bound is a theorem, so a violation is a wrong result), and on
a family member whose invariants differ from ``family_reference``.
"""

from __future__ import annotations

import json

from mginv.families import family_reference
from mginv.scalars import RATIONAL, format_scalar, parse_scalar

from bench.inputs import Op


def failure(op: Op, command: str, code: int | None, out: str,
            error: BaseException | None = None) -> str | None:
    """Why the op failed, or None when its output passes every check."""
    if error is not None:
        return f"exception {type(error).__name__}: {error}"
    try:
        if code != 0:
            return f"exit code {code}" + _failed_checks(command, out)
        return _CHECKS[command](op, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _failed_checks(command: str, out: str) -> str:
    if command != "verify" or not out:
        return ""
    bad = [c["check"] + (f" margin {c['margin']}" if "margin" in c else "")
           for c in json.loads(out)["checks"] if not c["ok"]]
    return ": " + ", ".join(bad)


def _check_compute(op: Op, out: str) -> str | None:
    report = json.loads(out)
    if report["backend"] != op.backend:
        return f"backend {report['backend']} but {op.backend} requested"
    if op.spec is None:
        return None
    for key, ref in family_reference(op.spec).items():
        if parse_scalar(report[key], op.backend) != ref:
            return (f"{key} = {report[key]} but family_reference gives "
                    f"{format_scalar(ref)}")
    return None


def _check_search(op: Op, out: str) -> str | None:
    records = json.loads(out)
    if len(records) != op.samples:
        return f"{len(records)} results for {op.samples} samples"
    for r in records:
        bad = sorted({*r["violations"], *(n for n, m in r["margins"].items() if m < 0)})
        if bad:
            return (f"violation of {bad[0]} on {r['graph_id']} "
                    f"(margin {r['margins'].get(bad[0])})")
    return None


def _check_verify(op: Op, out: str) -> str | None:
    result = json.loads(out)
    names = {c["check"] for c in result["checks"]}
    # only the exact backend runs the Moore-Penrose check
    if ("moore_penrose" in names) != (op.backend == RATIONAL):
        return f"checks of the wrong backend for a {op.backend} request"
    # a rational genus-3 margin may be a surd, so the verdict of each check
    # is read from its ``ok`` flag rather than from the margin text
    failed = [c["check"] for c in result["checks"] if not c["ok"]]
    if failed or not result["ok"]:
        return "failed checks: " + ", ".join(failed)
    return None


_CHECKS = {"compute": _check_compute, "search": _check_search,
           "verify": _check_verify}
