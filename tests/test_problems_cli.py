import json

import numpy as np
import pytest
from click.testing import CliRunner

from dualdeg import certify, flows, operators, problems, report as report_mod
from dualdeg.cli import main as cli_main
from dualdeg.problems import (ProblemSpec, ProblemValidationError, catalog,
                              from_dict, get_problem, load_problem, run)


class TestCatalog:
    def test_at_least_seven_entries(self):
        assert len(catalog()) >= 7
        assert {p.pid for p in catalog()} >= {"p1", "p2", "p3", "p4", "p5",
                                              "p6", "p7"}

    def test_p1_solution_amplitude(self):
        p1 = get_problem("p1")
        fps = certify.find_fixed_points(operators.build("K", p1),
                                        p1.default_U1())
        amp = fps[0].sup_norm()
        assert amp == pytest.approx(1.0 / np.sqrt(1.0 + 4 * np.pi ** 2), abs=1e-4)

    def test_p4_shooting_is_sinh(self):
        p4 = get_problem("p4")
        out = flows.shooting(p4.field(), [1.0], m=p4.m)
        assert out[0] == pytest.approx(np.sinh(1.0), abs=1e-6)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_problem("p99")


class TestProblemValidation:
    def test_round_trip(self, tmp_path):
        spec = catalog()[0]
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_problem(path) == spec

    def test_tau_exceeding_period(self):
        with pytest.raises(ProblemValidationError, match="tau"):
            ProblemSpec("bad", "periodic_dde", 1, 1.0, {"id": "p6"}, 1.0, 128,
                        1.0, ((-1.0, 1.0),) * 8, tau=2.0, hist_nodes=8)

    def test_tau_on_non_dde(self):
        with pytest.raises(ProblemValidationError, match="tau"):
            ProblemSpec("bad", "periodic_ode", 1, 1.0, {"id": "p1"}, 1.0, 256,
                        1.0, ((-1.0, 1.0),), tau=0.5)

    def test_unknown_rhs_id(self):
        with pytest.raises(ProblemValidationError, match="unknown rhs id"):
            ProblemSpec("bad", "periodic_ode", 1, 1.0, {"id": "nope"}, 1.0,
                        256, 1.0, ((-1.0, 1.0),))

    def test_schema_violation_names_field(self, tmp_path):
        doc = catalog()[0].to_dict()
        del doc["lipschitz"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemValidationError, match="lipschitz"):
            load_problem(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemValidationError, match="parse error"):
            load_problem(path)

    def test_poly_table_matches_builtin_cubic(self):
        table = ProblemSpec("c", "periodic_ode", 1, 1.0,
                            {"poly": [0.0, 1.0, 0.0, -1.0]}, 26.0, 256,
                            3.0, ((-2.0, 2.0),))
        fps = certify.find_fixed_points(operators.build_finite("K2", table),
                                        table.default_U2())
        vals = sorted(fp[0] for fp in fps)
        np.testing.assert_allclose(vals, [-1.0, 0.0, 1.0], atol=1e-4)


class TestRun:
    def test_p1_duality(self):
        rep = run(get_problem("p1"), suite="duality")
        assert rep.verdict
        assert {d["pair"] for d in rep.duality} == \
            {"krasnoselskii", "inverse_poincare"}
        for d in rep.duality:
            assert d["equal"]
            assert d["right"]["degree"] == 1

    def test_p2_duality_three_solutions(self):
        rep = run(get_problem("p2"), suite="duality")
        assert rep.verdict
        kras = next(d for d in rep.duality if d["pair"] == "krasnoselskii")
        assert kras["left"]["degree"] == kras["right"]["degree"] == 1
        assert len(kras["common_core"]["matched_pairs"]) == 3

    def test_p1_signs(self):
        rep = run(get_problem("p1"), suite="signs", etas=(1.0, -1.0))
        assert rep.verdict
        assert [d["eta"] for d in rep.duality] == [1.0, -1.0]
        for d in rep.duality:
            assert d["equal"]
            assert d["left"]["degree"] == d["sign_factor"] * d["right"]["degree"]

    def test_grid_override(self):
        rep = run(get_problem("p1"), suite="duality", grid_m=128)
        assert rep.grid_m == 128 and rep.verdict

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run(get_problem("p1"), suite="bogus")

    @pytest.mark.parametrize("pid", ["p1", "p3"])
    def test_common_core_checked_once_per_run(self, pid, monkeypatch):
        calls = []
        check = certify.check_common_core
        monkeypatch.setattr(certify, "check_common_core",
                            lambda *a, **k: calls.append(a) or check(*a, **k))
        rep = run(get_problem(pid), "all", grid_m=32)
        assert calls == [calls[0]] and rep.verdict
        assert sum(d["common_core"] is not None for d in rep.duality) == 3

    def test_determinism_excluding_timings(self):
        docs = []
        for _ in range(2):
            doc = run(get_problem("p1"), suite="duality").to_dict()
            doc.pop("timings")
            docs.append(report_mod.canonical_json(doc))
        assert docs[0] == docs[1]


@pytest.fixture(scope="module")
def p1_report():
    return run(get_problem("p1"), suite="all").to_dict()


class TestEmit:
    def test_json_round_trip(self, p1_report, tmp_path):
        path = report_mod.emit(p1_report, "json", str(tmp_path))
        with open(path) as fh:
            back = json.load(fh)
        back.pop("timings")
        ref = json.loads(json.dumps(dict(p1_report)))
        ref.pop("timings")
        assert back == ref

    def test_csv_row_count(self, p1_report):
        text = report_mod.report_csv(p1_report)
        lines = text.strip().split("\n")
        assert lines[0] == "problem,pair,left,right,equal,min_residual"
        assert len(lines) == 1 + len(p1_report["duality"])
        assert "\r" not in text

    def test_svg_polyline_per_certificate(self, p1_report):
        text = report_mod.report_svg(p1_report)
        n_certs = sum(len(d["certificates"]) for d in p1_report["duality"])
        n_certs += len(p1_report["certificates"])
        assert text.count("<polyline") == n_certs

    def test_report_schema_validation(self, p1_report):
        import jsonschema
        from importlib import resources
        schema = json.loads(resources.files("dualdeg.schemas")
                            .joinpath("report.schema.json").read_text())
        jsonschema.Draft202012Validator(schema).validate(
            json.loads(report_mod.canonical_json(p1_report)))

    def test_unknown_format(self, p1_report, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            report_mod.emit(p1_report, "pdf", str(tmp_path))


class TestFloatFormatting:
    def test_17_digit_round_trip(self):
        for x in (1.0 / 3.0, np.pi, 1e-300, -2.5e17):
            assert float(report_mod.fmt_float(x)) == x

    def test_non_finite_null(self):
        assert report_mod.fmt_float(float("inf")) == "null"
        assert report_mod.fmt_float(float("nan")) == "null"


class TestCli:
    def test_list(self):
        res = CliRunner().invoke(cli_main, ["list"])
        assert res.exit_code == 0
        for pid in ("p1", "p4", "p6", "p7"):
            assert pid in res.output

    def test_run_pass(self, tmp_path):
        res = CliRunner().invoke(
            cli_main, ["run", "p1", "--suite", "duality",
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "verdict: PASS" in res.output
        assert (tmp_path / "report-p1.json").exists()

    def test_run_degenerate_fails(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({
            "id": "zf", "kind": "periodic_ode", "dim": 1, "period": 1.0,
            "rhs": {"poly": [0.0]}, "lipschitz": 0.0, "m": 32,
            "u1_radius": 1.0, "u2_box": [[-1.0, 1.0]]}))
        res = CliRunner().invoke(
            cli_main, ["run", str(cfg), "--suite", "duality",
                       "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "verdict: FAIL" in res.output

    def test_run_unknown_problem(self):
        res = CliRunner().invoke(cli_main, ["run", "p99"])
        assert res.exit_code != 0
        assert "unknown problem" in res.output

    def test_degree_finite(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p1", "--operator", "K2",
                       "--domain", "[[-1,1]]"])
        assert res.exit_code == 0, res.output
        assert "degree=+1" in res.output

    def test_degree_reducible(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p4", "--operator", "Ktilde",
                       "--domain", "[[-1,1]]"])
        assert res.exit_code == 0, res.output
        assert "degree=+1" in res.output

    def test_degree_non_reducible(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p1", "--operator", "K",
                       "--domain", "[[-1,1]]"])
        assert res.exit_code != 0
        assert "finite-rank reduction" in res.output

    def test_degree_bad_domain(self):
        res = CliRunner().invoke(
            cli_main, ["degree", "p1", "--operator", "K2",
                       "--domain", "oops"])
        assert res.exit_code != 0
        assert "not valid JSON" in res.output

    @pytest.mark.parametrize("args,message", [
        (["degree", "p1", "--operator", "K2", "--domain", "[1,2,3]"],
         "--domain must be a list of [lo, hi] pairs"),
        (["degree", "p1", "--operator", "K2", "--domain", "[[1,-1]]"],
         "box must have nonempty interior"),
        (["degree", "p1", "--operator", "K2", "--domain", "[[null,1]]"],
         "box bounds must be finite"),
        (["degree", "p1", "--operator", "K2", "--domain", "[[-1,1],[-1,1]]"],
         "--domain has dimension 2, K2 needs 1"),
        (["degree", "p1", "--operator", "K0", "--domain", "[[-1,1]]"],
         "unknown operator name 'K0'"),
        (["degree", "p1", "--operator", "Kbogus", "--domain", "[[-1,1]]"],
         "unknown operator name 'Kbogus'"),
        (["run", "p1", "--grid", "1"], "grid needs m >= 2, got m=1"),
        (["run", "{schema_invalid}"], "'kind' is a required property"),
        (["degree", "{unparsable}", "--operator", "K2", "--domain", "[[-1,1]]"],
         "parse error"),
        (["run", "{p3_one_row}"], "u2_box has 1 rows, a periodic_ode problem of dim 2 needs 2"),
        (["run", "{p6_two_rows}"], "u2_box has 2 rows, a periodic_dde problem of dim 1 needs 8"),
        (["run", "{p4_one_row}"], "u2_box has 1 rows, a dirichlet_bvp problem of dim 1 needs 2"),
        (["run", "{p4_empty_row}"], "u2_box row [1.0, -1.0] is not a finite [lo, hi]"),
    ], ids=["not-pairs", "empty-box", "nonfinite-box", "dimension", "K0",
            "unknown-operator", "grid-1", "schema-invalid-file", "unparsable-file",
            "u2-box-rows-p3", "u2-box-rows-p6", "u2-box-rows-p4", "u2-box-empty-row"])
    def test_bad_input_one_line_error(self, args, message, tmp_path):
        box = lambda pid, rows: json.dumps(dict(get_problem(pid).to_dict(), u2_box=rows))
        files = {"schema_invalid": '{"id": "x"}', "unparsable": '{"id": ',
                 "p3_one_row": box("p3", [[-1, 1]]),
                 "p6_two_rows": box("p6", [[-1, 1]] * 2),
                 "p4_one_row": box("p4", [[-1, 1]]),
                 "p4_empty_row": box("p4", [[1, -1], [-1, 1]])}
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        args = [a.format(**{name: tmp_path / f"{name}.json" for name in files})
                for a in args]
        res = CliRunner().invoke(cli_main, args)
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), res.output
        assert message in lines[0]

    def test_report_reemit(self, tmp_path, p1_report):
        report_mod.emit(p1_report, "json", str(tmp_path))
        for fmt, suffix in (("csv", ".csv"), ("svg", ".svg")):
            res = CliRunner().invoke(
                cli_main, ["report", str(tmp_path), "--format", fmt])
            assert res.exit_code == 0, res.output
            assert (tmp_path / f"report-p1{suffix}").exists()

    def test_report_empty_dir(self, tmp_path):
        res = CliRunner().invoke(
            cli_main, ["report", str(tmp_path), "--format", "csv"])
        assert res.exit_code != 0
