import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

import mginv.families as fam
from mginv.cli import main
from mginv.graphs import MetrizedGraph, PMGraph, pm_graph_to_json_dict

F = Fraction

K4_JSON = json.dumps(pm_graph_to_json_dict(fam.complete_equal(4)))

GOLDEN = Path(__file__).parent / "golden"

#: graphs whose rational CLI output is pinned byte for byte in GOLDEN
GOLDEN_GRAPHS = {
    "k4": fam.complete_equal(4),
    "necklace_4_2": fam.necklace(4, 2),
    # a self-loop, a parallel pair and q > 0, so the vertex set is refined
    "mixed": PMGraph.of(MetrizedGraph.build(("a", "b", "c"), [
        ("a", "a", F(1, 3)), ("a", "b", F(1, 2)), ("a", "b", F(1, 4)),
        ("b", "c", F(1, 5)), ("c", "a", F(1, 6))]), {"c": 1}),
}

#: K4 with lengths (1, 2, 3, 5, 7, 11)/29, so of total length 1
K4_SKEW = PMGraph.of(MetrizedGraph.build(("a", "b", "c", "d"), [
    (u, v, F(k, 29)) for (u, v), k in zip(
        (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
        (1, 2, 3, 5, 7, 11))]))


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(K4_JSON)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_json_report(self, k4_file, capsys):
        code, out, _ = run(capsys, "compute", "--graph", str(k4_file))
        assert code == 0
        data = json.loads(out)
        assert data["phi"] == "17/288"
        assert data["lambda"] == "25/224"
        assert data["backend"] == "rational"

    def test_csv_decimals(self, k4_file, capsys):
        code, out, _ = run(capsys, "compute", "--graph", str(k4_file),
                           "--format", "csv", "--decimals", "6")
        assert code == 0
        header, row = out.strip().splitlines()
        assert "phi" in header
        assert "0.059028" in row

    def test_float_backend(self, k4_file, capsys):
        code, out, _ = run(capsys, "compute", "--graph", str(k4_file),
                           "--backend", "float")
        assert code == 0
        data = json.loads(out)
        assert abs(float(data["tau"]) - 5 / 96) < 1e-12

    def test_out_file(self, k4_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "compute", "--graph", str(k4_file),
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["tau"] == "5/96"

    def test_byte_deterministic(self, k4_file, capsys):
        _, out1, _ = run(capsys, "compute", "--graph", str(k4_file))
        _, out2, _ = run(capsys, "compute", "--graph", str(k4_file))
        assert out1 == out2

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "compute", "--graph", str(tmp_path / "no.json"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "GraphError"

    def test_invalid_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [{"u": "a", "v": "b", "len": "1"}]}))
        code, _, err = run(capsys, "compute", "--graph", str(bad))
        assert code == 2
        assert "effective" in json.loads(err)["error"]["message"]


    @pytest.mark.parametrize("command, graph, error", [
        ("compute", {"vertices": 5, "edges": []}, "GraphError"),
        ("compute", {"vertices": [{"id": "a"}], "edges": 3}, "GraphError"),
        # exact on the rational backend, beyond float range on floats
        ("verify", {"vertices": [{"id": "a"}, {"id": "b"}],
                    "edges": [{"u": "a", "v": "b", "len": "1e400"},
                              {"u": "a", "v": "b", "len": "1"}]}, "ScalarError"),
    ], ids=["vertices_not_list", "edges_not_list", "length_beyond_float"])
    def test_bad_graph_file(self, tmp_path, capsys, command, graph, error):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(graph))
        code, out, err = run(capsys, command, "--graph", str(path),
                             "--backend", "float")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == error


class TestVerify:
    def test_beta_verifies(self, tmp_path, capsys):
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(
            pm_graph_to_json_dict(fam.genus3_beta(*[F(1, 6)] * 6))))
        code, out, _ = run(capsys, "verify", "--graph", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        names = {c["check"] for c in payload["checks"]}
        assert "cross_formula_agreement" in names
        assert "moore_penrose" in names
        assert "identity:genus_identity" in names
        assert any(n.startswith("bound:") for n in names)

    def test_verify_dumbbell(self, tmp_path, capsys):
        # a graph with a bridge still verifies: inapplicable checks are skipped
        from mginv.graphs import MetrizedGraph, PMGraph
        g = MetrizedGraph.build(
            ("a", "b"), [("a", "a", F(1)), ("b", "b", F(1)), ("a", "b", F(1, 2))])
        path = tmp_path / "dumbbell.json"
        path.write_text(json.dumps(pm_graph_to_json_dict(PMGraph.of(g))))
        code, out, _ = run(capsys, "verify", "--graph", str(path))
        assert code == 0 and json.loads(out)["ok"]

    def test_float_settles_near_zero_margins(self, tmp_path, capsys):
        # the banana with three edges of length 1/3 meets several bounds with
        # equality; on floats their margins come out near -1e-16 and must be
        # settled on the exact backend, as search does
        path = tmp_path / "banana.json"
        path.write_text(json.dumps(pm_graph_to_json_dict(fam.banana([F(1, 3)] * 3))))
        code, out, _ = run(capsys, "verify", "--graph", str(path), "--backend", "float")
        assert code == 0
        bounds = {c["check"]: c for c in json.loads(out)["checks"]
                  if c["check"].startswith("bound:")}
        assert all(c["ok"] for c in bounds.values())
        exact = {name for name, c in bounds.items()
                 if not any(ch in c["margin"] for ch in ".en")}
        assert {"bound:zhang_lower", "bound:phi_t", "bound:lambda_floor",
                "bound:xy_gy"} <= exact
        assert all(Fraction(bounds[name]["margin"]) >= 0 for name in exact)
        # margins well clear of zero keep their float values
        assert "." in bounds["bound:xy_sum"]["margin"]

    @pytest.mark.parametrize("scale", ["1/100000", "1", "1000000", "10000000"])
    def test_float_tolerance_relative(self, scale, tmp_path, capsys):
        # float residuals of the length identities grow with ell: at 1e7 the
        # xy_sum_lr and phi_defining residuals are 4.7e-10, 4.7e-17 ell. The
        # genus identity is dimensionless: at 1e-5 its residual is 8e-11
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(pm_graph_to_json_dict(K4_SKEW.scaled(F(scale)))))
        code, out, _ = run(capsys, "verify", "--graph", str(path), "--backend", "float")
        checks = json.loads(out)["checks"]
        assert [c["check"] for c in checks if not c["ok"]] == []
        assert code == 0
        assert sum(c["check"].startswith("identity:") for c in checks) == 5

    def test_work_count(self, tmp_path, capsys, monkeypatch):
        # one inversion per vertex set, and the report is built once and
        # shared by the identity checks and the bound suite
        import mginv.cli as cli
        import mginv.invariants as invariants
        import mginv.network as network

        sizes, reports = [], []
        invert, report = network.invert_matrix, invariants.invariant_report

        def counted_invert(rows):
            sizes.append(len(rows))
            return invert(rows)

        def counted_report(pg):
            reports.append(pg)
            return report(pg)

        monkeypatch.setattr(network, "invert_matrix", counted_invert)
        monkeypatch.setattr(invariants, "invariant_report", counted_report)
        monkeypatch.setattr(cli, "invariant_report", counted_report)
        # K5, and the mixed graph with its 6-vertex normalization
        for pg, expected in ((fam.complete_equal(5), [5]),
                             (GOLDEN_GRAPHS["mixed"], [3, 6])):
            path = tmp_path / "graph.json"
            path.write_text(json.dumps(pm_graph_to_json_dict(pg)))
            network._network.cache_clear()
            sizes.clear()
            reports.clear()
            code, _, _ = run(capsys, "verify", "--graph", str(path))
            assert code == 0
            assert sizes == expected
            assert len(reports) == 1


class TestVerifyFailurePath:
    def test_exit_one_on_failed_bound(self, k4_file, capsys, monkeypatch):
        # exercise the exit-code contract by forcing one failed check
        from mginv.bounds import BoundCheck
        import mginv.cli as cli

        real_suite = cli.bound_suite

        def rigged(pg, report=None):
            checks = list(real_suite(pg, report))
            checks.append(BoundCheck("rigged", True, None, F(0), F(1),
                                     F(-1), False))
            return checks

        monkeypatch.setattr(cli, "bound_suite", rigged)
        code, out, _ = run(capsys, "verify", "--graph", str(k4_file))
        assert code == 1
        payload = json.loads(out)
        assert not payload["ok"]
        assert any(c["check"] == "bound:rigged" and not c["ok"]
                   for c in payload["checks"])


class TestFamily:
    def test_necklace(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "necklace_Cvn",
                           "--v", "3", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        rows = {row["invariant"]: row for row in payload["comparison"]}
        assert rows["phi"]["reference"] == "1/12"
        assert rows["phi"]["match"]

    def test_beta_lengths(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "genus3_beta",
                           "--lengths", "1/6,1/6,1/6,1/6,1/6,1/6")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["phi"] == "17/288"

    @pytest.mark.parametrize("total", ["1", "10000000", "100000000"])
    def test_float_match_relative(self, total, capsys):
        # a float value is compared with its closed form relative to ell
        code, out, _ = run(capsys, "family", "--kind", "necklace_Cvn", "--v", "4",
                           "--n", "2", "--total", total, "--backend", "float")
        payload = json.loads(out)
        assert [r["invariant"] for r in payload["comparison"] if not r["match"]] == []
        assert code == 0

    def test_length_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "family", "--kind", "banana",
                             "--lengths", "1e400,1", "--backend", "float")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ScalarError"

    @pytest.mark.parametrize("kind, count", [("circle", None), ("banana", "3"),
                                             ("bouquet", "3")])
    def test_cross_validation_error_is_json(self, kind, count, capsys):
        # at total 1e7 the float routes disagree (the float global-scale
        # defect); the disagreement is reported as JSON, not a traceback
        argv = ["family", "--kind", kind, "--total", "1e7", "--backend", "float"]
        if count:
            argv += ["--count", count]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "CrossValidationError"

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "family", "--kind", "necklace_Cvn", "--v", "2",
                           "--n", "2")
        assert code == 2
        assert "error" in json.loads(err)


#: one loop of length 1e200: finite on floats, but its squared sums are not
LONG_CIRCLE = PMGraph.of(MetrizedGraph.build(["p"], [("p", "p", F(10) ** 200)]))


def long_circle_argv(command, tmp_path):
    if command == "family":
        return ["family", "--kind", "circle", "--total", "1e200"]
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(pm_graph_to_json_dict(LONG_CIRCLE)))
    return [command, "--graph", str(path)]


class TestFloatOverflow:
    @pytest.mark.parametrize("command", ["compute", "verify", "family"])
    def test_float_overflow_is_json(self, command, tmp_path, capsys):
        # the float edge pass squares sums of order 1e200: an input error,
        # reported as JSON with exit 2, not a traceback
        code, out, err = run(capsys, *long_circle_argv(command, tmp_path),
                             "--backend", "float")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "OverflowError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["compute", "verify", "family"])
    def test_rational_backend_unaffected(self, command, tmp_path, capsys):
        code, out, err = run(capsys, *long_circle_argv(command, tmp_path))
        assert code == 0
        assert err == ""
        assert json.loads(out)


class TestSearch:
    def test_csv_deterministic(self, capsys):
        args = ("search", "--genus", "2:3", "--samples", "15", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "graph_id,bound,applicable,lhs,rhs,margin,satisfied"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "search", "--samples", "5", "--seed", "1",
                           "--format", "json", "--backend", "rational")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert all(not entry["violations"] for entry in payload)


    @pytest.mark.parametrize("argv", [
        ("--samples", "-1"), ("--samples", "0"),
        ("--vertices", "5:3"), ("--edges", "9:4"), ("--genus", "4:2"),
        ("--vertices", "0:3"),
        ("--vertices", "3:3", "--edges", "20:20", "--genus", "2:2"),
        ("--vertices", "1:1", "--edges", "2:5"),
        ("--workers", "0"), ("--workers", "-3"),
        ("--workers", str((os.cpu_count() or 1) + 1)),
    ])
    def test_bad_input_rejected(self, capsys, argv):
        code, out, err = run(capsys, "search", "--backend", "rational", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"
        assert "randrange" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_golden_output(self, capsys, fmt):
        # rational search output, byte for byte
        code, out, _ = run(capsys, "search", "--samples", "20", "--seed", "3",
                           "--backend", "rational", "--format", fmt)
        assert code == 0
        assert out.encode() == (GOLDEN / "search" / f"search.{fmt}").read_bytes()


class TestExport:
    def test_matrices(self, k4_file, tmp_path, capsys):
        outdir = tmp_path / "mats"
        code, _, _ = run(capsys, "export", "--graph", str(k4_file),
                         "--outdir", str(outdir))
        assert code == 0
        lap = (outdir / "L.csv").read_text().splitlines()
        assert lap[0] == ",p1,p2,p3,p4"
        assert lap[1].split(",")[1] == "18"
        r = (outdir / "r.csv").read_text().splitlines()
        assert r[1].split(",")[2] == "1/12"
        assert (outdir / "Lplus.csv").exists()


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_golden_output(name, tmp_path, capsys):
    # rational output of compute, verify and export, byte for byte
    expected = GOLDEN / name
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(pm_graph_to_json_dict(GOLDEN_GRAPHS[name])))
    for command in ("compute", "verify"):
        code, out, _ = run(capsys, command, "--graph", str(path))
        assert code == 0
        assert out.encode() == (expected / f"{command}.json").read_bytes(), command
    outdir = tmp_path / "mats"
    code, _, _ = run(capsys, "export", "--graph", str(path), "--outdir", str(outdir))
    assert code == 0
    for matrix in ("L.csv", "Lplus.csv", "r.csv"):
        assert (outdir / matrix).read_bytes() == (expected / matrix).read_bytes(), matrix


def test_cached_parser_leaks_no_state(tmp_path, capsys):
    # the parser is built once per process; every command parsed after
    # others, an argparse error included, behaves as on a fresh parser
    import mginv.cli as cli

    path = tmp_path / "k4.json"
    path.write_text(json.dumps(pm_graph_to_json_dict(GOLDEN_GRAPHS["k4"])))
    outdir = tmp_path / "mats"
    calls = [
        ("verify", "--graph", str(path)),
        ("compute", "--graph", str(path), "--format", "csv"),
        ("search", "--samples", "20", "--seed", "3", "--backend", "rational"),
        ("export", "--graph", str(path), "--outdir", str(outdir)),
        ("compute", "--graph", str(path), "--format", "xml"),
        ("verify", "--graph", str(path)),
    ]
    golden = {0: GOLDEN / "k4" / "verify.json",
              2: GOLDEN / "search" / "search.csv",
              5: GOLDEN / "k4" / "verify.json"}

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    rounds = []
    for _ in range(2):
        results = [call(argv) for argv in calls]
        assert [code for code, _, _ in results] == [0, 0, 0, 0, 2, 0]
        for k, expected in golden.items():
            assert results[k][1].encode() == expected.read_bytes(), calls[k]
        for matrix in ("L.csv", "Lplus.csv", "r.csv"):
            assert (outdir / matrix).read_bytes() == \
                (GOLDEN / "k4" / matrix).read_bytes(), matrix
        assert "invalid choice: 'xml'" in results[4][2]
        rounds.append(results)
    # calls without a golden file repeat their first output
    assert rounds[1] == rounds[0]
    assert cli._build_parser.cache_info().misses == 1
