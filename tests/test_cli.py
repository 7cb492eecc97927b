import json
import math

import pytest

from struveint.cli import format_complex, main, parse_complex
from struveint.errors import CaseParseError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- literal syntax ---------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2") == -2.0
    assert parse_complex("1.5+0.25i") == 1.5 + 0.25j
    assert parse_complex("1.5-0.25i") == 1.5 - 0.25j
    assert parse_complex("2e-3+1e-4i") == 2e-3 + 1e-4j
    assert parse_complex("0.25i") == 0.25j
    assert parse_complex(3) == 3.0
    assert parse_complex({"re": 1.0, "im": -2.0}) == 1.0 - 2.0j


def test_parse_complex_rejects_garbage():
    for bad in ("", "1.5 + 2i", "abc", "1.5+i", "1.5+2j"):
        with pytest.raises(CaseParseError):
            parse_complex(bad, "field")


def test_format_complex_round_trip():
    for z in (1.5, -2.0 + 0.25j, 0.3j, 1e-17 - 3e4j):
        assert parse_complex(format_complex(z)) == complex(z)


# --- eval -------------------------------------------------------------------------

def test_eval_oberhettinger(capsys):
    code, out, _ = run(capsys, "eval", "oberhettinger", "a=1", "mu=1", "lambda=2")
    assert code == 0
    assert abs(float(out.splitlines()[0]) - 1.0 / 3.0) < 1e-14


def test_eval_struve_w(capsys):
    code, out, _ = run(capsys, "eval", "struve_w", "p=0", "b=0", "c=0", "z=2")
    assert code == 0
    assert out.splitlines()[0] == "1.128379167095513e+00"


def test_eval_pfq_with_empty_lower(capsys):
    code, out, _ = run(capsys, "eval", "pfq", "upper=2", "lower=", "z=0.5")
    assert code == 0
    assert abs(float(out.splitlines()[0]) - 4.0) < 1e-13


def test_eval_fox_wright_pairs(capsys):
    code, out, _ = run(capsys, "eval", "fox_wright", "upper=1:1", "lower=1:1", "z=1")
    assert code == 0
    assert abs(float(out.splitlines()[0]) - math.e) < 1e-13


def test_eval_complex_output(capsys):
    code, out, _ = run(capsys, "eval", "struve_w", "p=0.5+0.25i", "b=1", "c=1", "z=1")
    assert code == 0
    value = parse_complex(out.splitlines()[0])
    assert value.imag != 0


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "oberhettinger", "a=1", "mu=2", "lambda=1")
    assert code == 2
    assert "Re(mu)" in err


def test_eval_missing_parameter_exit_2(capsys):
    code, _, err = run(capsys, "eval", "struve_w", "p=1", "b=1", "z=1")
    assert code == 2
    assert "c" in err


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "struve_w", "p=junk", "b=1", "c=1", "z=1")
    assert code == 2
    assert "p" in err


def test_eval_convergence_failure_exit_3(capsys):
    code, _, err = run(capsys, "eval", "pfq", "upper=2", "lower=", "z=0.99", "--max-terms", "20")
    assert code == 3
    assert "tolerance" in err


def test_eval_lauricella_spec_file(tmp_path, capsys):
    spec = {
        "global_upper": [["2.5", [1.0]]],
        "global_lower": [["3.5", [1.0]]],
        "per_var_upper": [[]],
        "per_var_lower": [[["1.5", 1.0]]],
        "n": 1,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "eval", "lauricella", f"spec={path}", "z=-0.5")
    assert code == 0
    assert "shells=" in out


# --- grid -------------------------------------------------------------------------

def test_grid_generates_range(tmp_path, capsys):
    out_path = tmp_path / "cases.json"
    code, _, err = run(
        capsys, "grid", "--variant", "theorem1", "--n", "1",
        "--mu", "0.5:1.5:0.5", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1", "--output", str(out_path),
    )
    assert code == 0
    document = json.loads(out_path.read_text())
    assert len(document["cases"]) == 3
    assert "generated 3 case(s)" in err


def test_grid_all_invalid_warns(tmp_path, capsys):
    out_path = tmp_path / "cases.json"
    code, _, err = run(
        capsys, "grid", "--variant", "theorem1", "--n", "1",
        "--mu", "50", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1", "--output", str(out_path),
    )
    assert code == 0
    assert "warning" in err
    assert json.loads(out_path.read_text())["cases"] == []


def test_grid_vector_flags(tmp_path, capsys):
    out_path = tmp_path / "cases.json"
    code, _, _ = run(
        capsys, "grid", "--variant", "theorem1", "--n", "2",
        "--mu", "0.75", "--lambda", "3", "--p", "1,0.5", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1,2", "--output", str(out_path),
    )
    assert code == 0
    cases = json.loads(out_path.read_text())["cases"]
    assert len(cases) == 1
    assert cases[0]["p"] == ["1.0", "0.5"]
    assert cases[0]["y"] == [1.0, 2.0]


def test_grid_malformed_range_exit_2(capsys):
    code, _, err = run(
        capsys, "grid", "--variant", "theorem1",
        "--mu", "1:0.5:0.5", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1",
    )
    assert code == 2
    assert "--mu" in err


# --- verify -----------------------------------------------------------------------

def write_cases(tmp_path, cases, controls=None):
    document = {"cases": cases}
    if controls:
        document["controls"] = controls
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(document))
    return path


GOOD_CASE = {
    "variant": "theorem1", "a": 1.0, "lambda": "2", "mu": "0.75",
    "b": "1", "c": "1", "p": ["1"], "y": [1.0],
}


def test_verify_round_trip_from_grid(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    run(
        capsys, "grid", "--variant", "theorem1", "--n", "1",
        "--mu", "0.6,1.0", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1", "--output", str(grid_path),
    )
    report_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", str(grid_path), "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["summary"] == {"total": 2, "passed": 2, "failed": 0}
    assert "2 passed" in err


def test_verify_empty_case_list(tmp_path, capsys):
    path = write_cases(tmp_path, [])
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 0


def test_verify_condition_violation_reported_not_fatal(tmp_path, capsys):
    bad = dict(GOOD_CASE, mu="50")
    path = write_cases(tmp_path, [GOOD_CASE, bad])
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", str(path), "--output", str(report_path))
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["summary"]["failed"] == 1
    reasons = [c["reason"] for c in report["cases"]]
    assert reasons[0] is None
    assert "condition violated" in reasons[1]


def test_verify_structural_error_exit_2(tmp_path, capsys):
    path = write_cases(tmp_path, [{"variant": "theorem1"}])
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "cases[0]" in err


def test_verify_unreadable_file_exit_2(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 2
    code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


def test_verify_deterministic_numeric_fields(tmp_path, capsys):
    path = write_cases(tmp_path, [GOOD_CASE, dict(GOOD_CASE, mu="0.6")])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(capsys, "verify", str(path), "--output", str(out1))[0] == 0
    assert run(capsys, "verify", str(path), "--output", str(out2))[0] == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    for c1, c2 in zip(r1["cases"], r2["cases"]):
        assert c1["lhs"] == c2["lhs"]
        assert c1["rhs"] == c2["rhs"]
        assert c1["abs_err"] == c2["abs_err"]
        assert c1["rel_err"] == c2["rel_err"]


def test_verify_jobs_parallel_same_output(tmp_path, capsys):
    cases = [GOOD_CASE, dict(GOOD_CASE, mu="0.6"), dict(GOOD_CASE, **{"lambda": "3"})]
    path = write_cases(tmp_path, cases)
    out1 = tmp_path / "serial.json"
    out2 = tmp_path / "parallel.json"
    assert run(capsys, "verify", str(path), "--output", str(out1))[0] == 0
    assert run(capsys, "verify", str(path), "--output", str(out2), "--jobs", "4")[0] == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert [c["lhs"] for c in r1["cases"]] == [c["lhs"] for c in r2["cases"]]


def test_verify_csv_projection(tmp_path, capsys):
    path = write_cases(tmp_path, [GOOD_CASE])
    out_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", str(path), "--format", "csv", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("index,variant,n,a,lambda,mu,b,c,p,y,lhs_re")
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "theorem1"


def test_verify_tolerance_override(tmp_path, capsys):
    path = write_cases(tmp_path, [GOOD_CASE])
    code, out, _ = run(capsys, "verify", str(path), "--tol", "1e-20")
    assert code == 1  # nothing is that accurate
    report = json.loads(out)
    assert report["cases"][0]["tolerance"] == 1e-20


def test_verify_file_controls_respected(tmp_path, capsys):
    path = write_cases(tmp_path, [GOOD_CASE], controls={"tol": 1e-3, "max_terms": 5000})
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["cases"][0]["tolerance"] == 1e-3


def test_verify_non_finite_control_exit_2(tmp_path, capsys):
    for key in ("quad_rel_tol", "series_rel_tol", "tol"):
        path = write_cases(tmp_path, [GOOD_CASE], controls={key: "inf"})
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2, key
        assert out == ""
        assert "finite" in err
    path = write_cases(tmp_path, [GOOD_CASE])
    code, out, err = run(capsys, "verify", str(path), "--tol", "nan")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
