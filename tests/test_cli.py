import json
import math
import os
import time

import pytest

import struveint.cli as cli
from struveint import identities
from struveint.cli import format_complex, main, parse_complex
from struveint.errors import CaseParseError
from struveint.quadrature import QuadControl
from struveint.series import SeriesControl


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


def test_eval_struve_w_smallest_positive_z(capsys):
    # z/2 rounds to 0 here; W_{1,1,1} ~ (z/2)^2 underflows to 0.
    code, out, _ = run(capsys, "eval", "struve_w", "p=1", "b=1", "c=1", "z=5e-324")
    assert code == 0
    assert out.splitlines()[0] == "0.000000000000000e+00"


@pytest.mark.parametrize(
    "argv, value, diag",
    [
        (("struve_h", "nu=0.5", "z=1"), "3.356983535709017e-01", "# terms=9 tail_estimate=3.989e-17"),
        (("struve_l", "nu=0.7", "z=2"), "2.047519605903489e+00", "# terms=12 tail_estimate=1.229e-16"),
    ],
)
def test_eval_struve_h_and_l(argv, value, diag, capsys):
    # The paper's H_nu and L_nu, W_{nu,-1,1} and W_{nu,-1,-1}.
    code, out, _ = run(capsys, "eval", *argv)
    assert code == 0
    assert out.splitlines() == [value, diag]


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
    code, _, err = run(capsys, "eval", "struve_w", "p", "b=1", "c=1", "z=1")
    assert code == 2
    assert err == "error: parameter 'p' is not of the form key=value\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (("struve_w", "p=1", "b=1", "c=1", "z=abc"), "z"),
        (("oberhettinger", "a=abc", "mu=1", "lambda=2"), "a"),
        (("fox_wright", "upper=1:x", "z=1"), "upper"),
        (("fox_wright", "upper=1", "z=1"), "upper"),
    ],
)
def test_eval_real_parameter_parse_error_names_field(argv, field, capsys):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: ")


def test_eval_convergence_failure_exit_3(capsys):
    code, _, err = run(capsys, "eval", "pfq", "upper=2", "lower=", "z=0.99", "--max-terms", "20")
    assert code == 3
    assert "tolerance" in err


def test_eval_series_modulus_overflow_exit_2(capsys):
    # Finite parts, modulus above the double range: a typed failure, not
    # a traceback.
    code, _, err = run(
        capsys, "eval", "fox_wright",
        "upper=1.9995009736006644:1.3019343035986923",
        "lower=0.6051379937306841:0.3165364135550977",
        "z=0.712989101560049+0.1616011324715276i",
    )
    assert code == 2
    assert "overflows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "oberhettinger", "a=1", "mu=1", "lambda=2", "--output", "x.txt"),
        ("eval", "oberhettinger", "a=1", "mu=1", "lambda=2", "--tol", "1e-3"),
        ("grid", "--variant", "theorem1", "--mu", "1", "--lambda", "2", "--p", "1",
         "--b", "1", "--c", "1", "--a", "1", "--y", "1", "--jobs", "2"),
        ("grid", "--variant", "theorem1", "--mu", "1", "--lambda", "2", "--p", "1",
         "--b", "1", "--c", "1", "--a", "1", "--y", "1", "--max-terms", "50"),
        ("verify", "cases.json", "--jobs", "0"),
        ("verify", "cases.json", "--jobs", "-3"),
    ],
)
def test_subcommand_rejects_flag_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] == "verify":
        assert "argument --jobs: must be at least 1" in captured.err
    else:
        assert "unrecognized arguments" in captured.err


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


def test_eval_lauricella_mixed_exponents_exit_2(tmp_path, capsys):
    # A global exponent vector that differs across variables is refused
    # (exit 2) and the error names its block.
    spec = {
        "global_upper": [["2.5", [2.0, 4.0]]],
        "global_lower": [["3.5", [2.0, 2.0]]],
        "per_var_upper": [[["1", 1.0]], [["1", 1.0]]],
        "per_var_lower": [[["1.5", 1.0], ["2", 1.0]], [["1.5", 1.0], ["2.5", 1.0]]],
        "n": 2,
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "eval", "lauricella", f"spec={path}", "z=-1,-2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "global_upper" in err


def test_eval_lauricella_argument_overflow_exit_2(tmp_path, capsys):
    # |z| beyond the double range is a typed error (exit 2), not a traceback.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    code, out, err = run(capsys, "eval", "lauricella", f"spec={path}", "z=1.5e308+1.5e308i")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds the double range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("pfq", "upper=2", "lower=", "z=1.5e308+1.5e308i"),
        ("fox_wright", "upper=1:1", "lower=", "z=1.5e308+1.5e308i"),
    ],
)
def test_eval_argument_overflow_exit_2(argv, capsys):
    # pFq's |z| < 1 gate and the Delta = 0 radius gate take |z|; beyond
    # the double range that is a typed error (exit 2), not a traceback.
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds the double range" in err


def test_eval_fox_wright_huge_boundary_weights(capsys):
    # w**w overflows at w = 1e305: a value (exit 0) or an error line
    # (exit 2), not a traceback.
    code, out, err = run(capsys, "eval", "fox_wright", "upper=1:1e305", "lower=1:1e305", "z=0.5")
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error:")


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_grid_non_positive_n_exit_2(n, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "grid", "--variant", "theorem1", "--n", n, "--mu", "1", "--lambda", "2",
            "--p", "1", "--b", "1", "--c", "1", "--a", "1", "--y", "1",
        ])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n: must be at least 1" in captured.err


def test_grid_malformed_range_exit_2(capsys):
    code, _, err = run(
        capsys, "grid", "--variant", "theorem1",
        "--mu", "1:0.5:0.5", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1",
    )
    assert code == 2
    assert "--mu" in err


def test_grid_decimal_range_has_no_float_drift(tmp_path, capsys):
    out_path = tmp_path / "cases.json"
    code, _, _ = run(
        capsys, "grid", "--variant", "theorem1", "--n", "1",
        "--mu", "0.1:1.0:0.1", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1", "--output", str(out_path),
    )
    assert code == 0
    mus = [case["mu"] for case in json.loads(out_path.read_text())["cases"]]
    assert mus == ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1.0"]


@pytest.mark.parametrize(
    "mu",
    ["0:inf:0.5", "nan:1:0.5", "0:1:nan", "0:x:0.5", "0:1e400:0.5", "0:1e30:1", "0:1:snan", "-sNaN:1:0.5",
     "0:1", "0:1:0.5:2"],
)
def test_grid_bad_range_bound_exit_2(mu, capsys):
    code, out, err = run(
        capsys, "grid", "--variant", "theorem1",
        f"--mu={mu}", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", "--a", "1", "--y", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --mu: ")


@pytest.mark.parametrize("a", ["0:1:snan", "-sNaN:1:0.5"])
def test_grid_signalling_nan_bound_names_option(a, capsys):
    code, out, err = run(
        capsys, "grid", "--variant", "theorem1",
        "--mu", "0.5", "--lambda", "2", "--p", "1", "--b", "1",
        "--c", "1", f"--a={a}", "--y", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --a: need finite bounds, start <= end and step > 0\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--p", "1,2,3", "--p: vector '1,2,3' must have length n = 2"),
        ("--a", "1+1i", "--a: must be real and positive"),
        ("--y", "1,1i", "--y: entries must be real and positive"),
    ],
)
def test_grid_malformed_value_names_option(option, value, message, capsys):
    options = {"--mu": "0.5", "--lambda": "2", "--p": "1,1", "--b": "1", "--c": "1", "--a": "1", "--y": "1,1"}
    options[option] = value
    argv = [f"{name}={text}" for name, text in options.items()]
    code, out, err = run(capsys, "grid", "--variant", "theorem1", "--n", "2", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# --- verify -----------------------------------------------------------------------

def write_cases(tmp_path, cases):
    path = tmp_path / "cases.json"
    path.write_text(json.dumps({"cases": cases}))
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
    assert reasons[1].count("condition violated") == 1


def test_verify_failed_cases_are_standard_json(tmp_path, capsys):
    # One case fails validation, one raises while it is evaluated.
    cases = [dict(GOOD_CASE, mu="-0.5"), dict(GOOD_CASE, y=[1e6])]
    path = write_cases(tmp_path, cases)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    report = json.loads(out, parse_constant=reject)
    assert report["summary"]["failed"] == 2
    for entry in report["cases"]:
        assert entry["pass"] is False
        assert entry["lhs"]["re"] == entry["rhs"]["re"] == "nan"
        assert entry["abs_err"] == "inf"
        assert entry["rel_err"] == "inf"


def test_verify_tiny_mu_case_is_a_failed_report(tmp_path, capsys):
    # Head bisection for mu = 0.01 reaches nodes where the endpoint
    # factor overflows; the case fails on its own and the run goes on.
    path = write_cases(tmp_path, [dict(GOOD_CASE, mu="0.01"), GOOD_CASE])
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", str(path), "--output", str(report_path))
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["summary"] == {"total": 2, "passed": 1, "failed": 1}
    first, second = report["cases"]
    assert first["pass"] is False
    assert first["reason"] == "substituted integrand overflows"
    assert second["pass"] is True


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


def numeric_report(path):
    report = json.loads(path.read_text())
    del report["timestamp"]
    for entry in report["cases"]:
        del entry["wall_clock_s"]
    return report


def test_verify_jobs_parallel_same_output(tmp_path, capsys):
    # b = -4 makes p + (b+2)/2 = 0, so its Struve series is undefined:
    # a failed report, in place, from the worker as from the serial run.
    cases = [
        GOOD_CASE, dict(GOOD_CASE, mu="0.6"), dict(GOOD_CASE, b="-4"),
        dict(GOOD_CASE, **{"lambda": "3"}),
    ]
    path = write_cases(tmp_path, cases)
    out1 = tmp_path / "serial.json"
    out2 = tmp_path / "parallel.json"
    assert run(capsys, "verify", str(path), "--output", str(out1))[0] == 1
    assert run(capsys, "verify", str(path), "--output", str(out2), "--jobs", "4")[0] == 1
    r1 = numeric_report(out1)
    assert r1 == numeric_report(out2)
    assert [c["pass"] for c in r1["cases"]] == [True, True, False, True]
    assert "non-positive integer" in r1["cases"][2]["reason"]


@pytest.mark.parametrize(
    "jobs, good, cpus, expected",
    [(1, 3, 8, None), (4, 1, 8, None), (2, 5, 8, 2), (8, 3, 8, 3), (1000, 5, 3, 3)],
)
def test_verify_jobs_worker_count(jobs, good, cpus, expected, tmp_path, capsys, monkeypatch):
    # min(--jobs, cases left to run, usable CPUs) workers: this process
    # and one forked child per further worker; one means no fork.
    # A case that fails validation (mu = 50) is not left to run.
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    path = write_cases(tmp_path, [dict(GOOD_CASE, mu="50")] + [GOOD_CASE] * good)
    code, out, _ = run(capsys, "verify", str(path), "--jobs", str(jobs))
    assert code == 1
    assert json.loads(out)["summary"] == {"total": good + 1, "passed": good, "failed": 1}
    assert len(forks) == (0 if expected is None else expected - 1)


def test_verify_without_fork_runs_in_one_process(tmp_path, capsys, monkeypatch):
    # Where the platform cannot fork, --jobs 2 runs every case here.
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    path = write_cases(tmp_path, [GOOD_CASE, dict(GOOD_CASE, mu="0.6")])
    serial, split = tmp_path / "jobs1.json", tmp_path / "jobs2.json"
    assert run(capsys, "verify", str(path), "--output", str(serial))[0] == 0
    assert run(capsys, "verify", str(path), "--output", str(split), "--jobs", "2")[0] == 0
    assert numeric_report(serial) == numeric_report(split)


def test_verify_uneven_shares_keep_input_order(tmp_path, capsys, monkeypatch):
    # Five cases to run in three shares of 2, 2 and 1, and one invalid
    # case between them: the report is --jobs 1's, case for case.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    cases = [dict(GOOD_CASE, mu=mu) for mu in ("0.6", "0.75", "0.9")]
    cases.insert(2, dict(GOOD_CASE, mu="50"))
    cases += [dict(GOOD_CASE, **{"lambda": "3"}), dict(GOOD_CASE, y=[0.5])]
    path = write_cases(tmp_path, cases)
    serial, split = tmp_path / "jobs1.json", tmp_path / "jobs3.json"
    assert run(capsys, "verify", str(path), "--output", str(serial))[0] == 1
    assert run(capsys, "verify", str(path), "--output", str(split), "--jobs", "3")[0] == 1
    report = numeric_report(serial)
    assert report == numeric_report(split)
    assert [c["pass"] for c in report["cases"]] == [True, True, False, True, True, True]


def test_verify_child_death_is_an_error(tmp_path, capsys, monkeypatch):
    # A child that dies before sending its reports fails the run: an
    # error line, no report, and no child left behind.
    parent = os.getpid()
    true_verify = cli.verify_case

    def dying_verify(*args):
        if os.getpid() != parent:
            os._exit(3)
        return true_verify(*args)

    monkeypatch.setattr(cli, "verify_case", dying_verify)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    path = write_cases(tmp_path, [GOOD_CASE] * 2)
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", str(path), "--jobs", "2", "--output", str(out_path))
    assert code != 0
    assert err.startswith("error:") and "exit status 3" in err
    assert out == "" and not out_path.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_parent_failure_kills_children(tmp_path, capsys, monkeypatch):
    # When this process's own share raises, the children still running
    # are killed and reaped rather than waited for.
    parent = os.getpid()

    def failing_verify(*args):
        if os.getpid() == parent:
            raise CaseParseError("share 0 failed")
        time.sleep(60)

    monkeypatch.setattr(cli, "verify_case", failing_verify)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    path = write_cases(tmp_path, [GOOD_CASE] * 3)
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", str(path), "--jobs", "3")
    assert time.monotonic() - t0 < 30
    assert code == 2
    assert err.startswith("error: share 0 failed") and out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_fork_failure_kills_children(tmp_path, capsys, monkeypatch):
    # The second fork fails: the first child is killed and reaped, and
    # the run ends with an error line.
    real_fork = os.fork
    forks = []

    def failing_fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    path = write_cases(tmp_path, [GOOD_CASE] * 3)
    code, out, err = run(capsys, "verify", str(path), "--jobs", "3")
    assert code == 2 and len(forks) == 2
    assert err.startswith("error:") and out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_child_exception_is_raised_here(tmp_path, capsys, monkeypatch):
    # A child's exception comes back over its pipe and fails the run as
    # it would in one process.
    parent = os.getpid()
    true_verify = cli.verify_case

    def raising_verify(*args):
        if os.getpid() != parent:
            raise CaseParseError("child share failed")
        return true_verify(*args)

    monkeypatch.setattr(cli, "verify_case", raising_verify)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    path = write_cases(tmp_path, [GOOD_CASE] * 2)
    code, out, err = run(capsys, "verify", str(path), "--jobs", "2")
    assert code == 2
    assert err.startswith("error: child share failed") and out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_tolerance_override(tmp_path, capsys, monkeypatch):
    # A right side off by 1e-8 relative passes the default tolerance
    # and fails --tol 1e-9.
    true_prefactor = identities.prefactor_theorem1
    monkeypatch.setattr(identities, "prefactor_theorem1", lambda case: true_prefactor(case) * (1 + 1e-8))
    path = write_cases(tmp_path, [GOOD_CASE])
    assert run(capsys, "verify", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", str(path), "--tol", "1e-9")
    assert code == 1
    entry = json.loads(out)["cases"][0]
    assert entry["tolerance"] == 1e-9
    assert "exceeds tolerance" in entry["reason"]


def test_verify_non_finite_control_exit_2(tmp_path, capsys):
    path = write_cases(tmp_path, [GOOD_CASE])
    for flag, value, message in (
        ("--tol", "nan", "verification tolerance must be positive and finite"),
        ("--quad-tol", "inf", "quadrature tolerance must be positive and finite"),
        ("--quad-tol", "0", "quadrature tolerance must be positive and finite"),
        ("--max-terms", "0", "argument --max-terms: must be at least 1"),
    ):
        try:
            code = main(["verify", str(path), flag, value])
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2, flag
        assert captured.out == ""
        assert message in captured.err


def test_verify_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["verify", "cases.json"])
    assert args.tol == identities.DEFAULT_TOLERANCE
    assert args.quad_tol == QuadControl.rel_tol
    assert args.max_terms == SeriesControl.max_terms


SPEC = {
    "global_upper": [["2.5", [1.0]]],
    "global_lower": [["3.5", [1.0]]],
    "per_var_upper": [[]],
    "per_var_lower": [[["1.5", 1.0]]],
    "n": 1,
}


@pytest.mark.parametrize(
    "command, document, field",
    [
        ("verify", {"cases": 5}, "'cases'"),
        ("verify", {"cases": [GOOD_CASE], "controls": []}, "controls"),
        # Settings come from flags only: a file's own tolerance never runs.
        ("verify", {"cases": [GOOD_CASE], "controls": {"tol": 1e-9}}, "controls"),
        ("verify", {"cases": [GOOD_CASE], "controls": {}}, "controls"),
        ("verify", {"cases": [{**GOOD_CASE, "n": None}]}, "cases[0].n"),
        ("lauricella", {**SPEC, "global_upper": 5}, "global_upper"),
        ("lauricella", {**SPEC, "global_upper": [[1, 2]]}, "global_upper"),
        ("lauricella", [], "lauricella spec"),
        # A string y would be read digit by digit, as y = (1, 2).
        ("verify", {"cases": [{**GOOD_CASE, "p": ["1", "0.5"], "y": "12"}]}, "cases[0].y"),
        ("verify", {"cases": [{**GOOD_CASE, "n": 2.5}]}, "cases[0].n"),
        # A JSON boolean is not read as the number 1.
        ("verify", {"cases": [{**GOOD_CASE, "a": True}]}, "cases[0].a"),
        ("verify", {"cases": [{**GOOD_CASE, "y": [True]}]}, "cases[0].y"),
        ("verify", {"cases": [{**GOOD_CASE, "p": [True]}]}, "cases[0].p"),
        ("verify", {"cases": [{**GOOD_CASE, "n": True}]}, "cases[0].n"),
        ("verify", {"cases": [{**GOOD_CASE, "lambda": True}]}, "cases[0].lambda"),
        ("verify", {"cases": [{**GOOD_CASE, "a": "x"}]}, "cases[0].a"),
        ("lauricella", {k: v for k, v in SPEC.items() if k != "per_var_lower"}, "missing field 'per_var_lower'"),
        # Every number of a spec file is read as a case file's are: a
        # JSON boolean is not 1, and n must be an integer.
        ("lauricella", {**SPEC, "n": True, "global_upper": [["2.5", [True]]]}, "lauricella spec file: n: "),
        ("lauricella", {**SPEC, "n": 1.5}, "lauricella spec file: n: expected an integer, got 1.5"),
        ("lauricella", {**SPEC, "global_lower": [["3.5", [True]]]}, "lauricella spec file: global_lower: "),
        ("lauricella", {**SPEC, "per_var_lower": [[["1.5", "x"]]]}, "lauricella spec file: per_var_lower: "),
        ("verify", {"cases": [5]}, "cases[0]: expected an object"),
    ],
)
def test_malformed_input_file_exit_2(command, document, field, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    if command == "verify":
        argv = ("verify", str(path))
    else:
        argv = ("eval", "lauricella", f"spec={path}", "z=-0.5")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert field in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
