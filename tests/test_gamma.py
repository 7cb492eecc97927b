import cmath
import json
import math
import os
import random
import subprocess
import sys

import mpmath as mp
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
import struveint
from struveint import (
    DomainError,
    GammaPoleError,
    RangeError,
    gamma,
    log_gamma,
)
from struveint.gammafn import POLE_TOL, nearest_pole

SQRT_PI = math.sqrt(math.pi)


def test_log_gamma_known_values():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - math.log(SQRT_PI)) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-14


def test_log_gamma_real_positive_has_zero_imag():
    for z in (0.1, 0.5, 1.0, 3.7, 12.0, 151.5, 1e306, 1e308):
        assert log_gamma(z).imag == 0.0


def test_gamma_known_values():
    assert abs(gamma(5.0) - 24.0) < 1e-12
    assert abs(gamma(0.5) - SQRT_PI) < 1e-14


def test_gamma_pole_carries_location():
    with pytest.raises(GammaPoleError) as excinfo:
        gamma(-3.0)
    assert excinfo.value.location == -3
    with pytest.raises(GammaPoleError) as excinfo:
        log_gamma(0.0)
    assert excinfo.value.location == 0
    # Within detection tolerance of the pole.
    with pytest.raises(GammaPoleError):
        log_gamma(complex(-2.0 + 1e-14, 1e-14))
    # Clearly off the pole: fine.
    assert cmath.isfinite(log_gamma(complex(-2.5, 0.0)))
    assert cmath.isfinite(log_gamma(complex(-2.0, 0.5)))


def test_gamma_overflow_is_range_error():
    for x in (200.0, 1e306, 1e308, complex(1e306, 1e306)):
        with pytest.raises(RangeError):
            gamma(x)


def test_gamma_recurrence_1000_random_points():
    rng = random.Random(20240917)
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0))
        lhs = gamma(z + 1)
        err = abs(lhs - z * gamma(z)) / abs(lhs)
        worst = max(worst, err)
    assert worst <= 1e-12


def test_gamma_against_mpmath():
    rng = random.Random(7)
    with mp.workdps(40):
        for _ in range(100):
            z = complex(rng.uniform(0.05, 20.0), rng.uniform(-8.0, 8.0))
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            assert abs(gamma(z) - ref) / abs(ref) < 1e-13


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        log_gamma(complex(math.inf, 0.0))


def test_import_does_not_load_scipy_special(tmp_path):
    # Nothing in the library or the CLI imports scipy or numpy (log_gamma
    # is stdlib-only), and verify --jobs 2 forks its worker with no
    # process pool, so multiprocessing is never loaded either.
    src = os.path.dirname(os.path.dirname(struveint.__file__))
    heavy = {"numpy", "scipy", "concurrent.futures.process", "multiprocessing"}
    case = {"variant": "theorem1", "a": 1.0, "lambda": "2", "mu": "0.75",
            "b": "1", "c": "1", "p": ["1"], "y": [1.0]}
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps({"cases": [case, dict(case, mu="0.6")]}))
    verify = (
        "import struveint.cli as cli; cli._usable_cpus = lambda: 2; "
        f"cli.main(['verify', {str(cases)!r}, '--jobs', '2', '--output', {str(tmp_path / 'report.json')!r}])"
    )
    for setup in ("import struveint", "import struveint.cli", verify):
        code = f"import sys; {setup}; print(sorted({heavy!r} & set(sys.modules)))"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "[]", setup
    assert len(json.loads((tmp_path / "report.json").read_text())["cases"]) == 2


# --- complex log Gamma: stdlib Stirling + reflection ---------------------------

def rel_err(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def reference(z):
    # mpmath has no signed zero: -0j takes the conjugate of the +0j value.
    if math.copysign(1.0, z.imag) < 0.0:
        return oracle.log_gamma(z.conjugate()).conjugate()
    return oracle.log_gamma(z)


@settings(max_examples=500, deadline=None)
@given(x=st.floats(-30.0, 40.0), y=st.floats(-30.0, 30.0))
def test_log_gamma_matches_mpmath(x, y):
    z = complex(x, y)
    assume(nearest_pole(z) is None)
    assert rel_err(log_gamma(z), reference(z)) <= 2e-14


def test_log_gamma_large_imaginary_part():
    # sin(pi z) overflows from |Im z| ~ 225; the reflection never forms it.
    rng = random.Random(31)
    for _ in range(300):
        z = complex(rng.uniform(-30.0, 40.0), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(1.0, 3.0))
        value = log_gamma(z)
        assert cmath.isfinite(value)
        assert rel_err(value, oracle.log_gamma(z)) <= 1e-13
    assert cmath.isfinite(log_gamma(complex(-3.3, 500.0)))


def test_log_gamma_next_to_negative_axis_matches_scipy():
    rng = random.Random(53)
    checked = 0
    for _ in range(2000):
        z = complex(rng.uniform(-30.0, 0.5), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -3.0))
        if nearest_pole(z) is not None:
            continue
        value, ref = log_gamma(z), complex(scipy.special.loggamma(z))
        assert round((value.imag - ref.imag) / (2.0 * math.pi)) == 0, z
        assert abs(value - ref) <= 1e-12 * abs(ref), z
        checked += 1
    assert checked > 1900


@pytest.mark.parametrize("x", [-1e-5, -0.5, -1.5, -2.5, -3.7, -20.5, -29.999])
def test_log_gamma_signed_zero_side_of_cut_matches_scipy(x):
    for y in (0.0, -0.0):
        z = complex(x, y)
        value, ref = log_gamma(z), complex(scipy.special.loggamma(z))
        # On the cut the imaginary part is an odd multiple of pi.
        assert round(value.imag / math.pi) == round(ref.imag / math.pi), z
        assert abs(value - ref) <= 1e-12 * abs(ref), z


def test_log_gamma_cut_convention():
    assert log_gamma(complex(-2.5, 0.0)).imag == pytest.approx(-3.0 * math.pi, rel=1e-15)
    assert log_gamma(complex(-2.5, -0.0)).imag == pytest.approx(3.0 * math.pi, rel=1e-15)
    assert log_gamma(-2.5) == log_gamma(complex(-2.5, 0.0))


@pytest.mark.parametrize("m", [0, -1, -7, -25])
def test_log_gamma_pole_tolerance_boundary(m):
    for inside in (complex(m + 0.5 * POLE_TOL, 0.0), complex(m - 0.5 * POLE_TOL, -0.5 * POLE_TOL)):
        with pytest.raises(GammaPoleError) as excinfo:
            log_gamma(inside)
        assert excinfo.value.location == m
    for outside in (complex(m + 2.0 * POLE_TOL, 0.0), complex(m, 2.0 * POLE_TOL)):
        assert rel_err(log_gamma(outside), reference(outside)) <= 1e-13


NO_SCIPY_SCRIPT = """
import cmath, json, sys
sys.modules["scipy"] = None
from struveint import IntegralCase, log_gamma, verify_case
from struveint.cli import main

case = IntegralCase(
    "theorem1", a=1.0, lam=2.5 - 0.3j, mu=0.6 + 0.2j, b=1.0, c=1.0, p=(1.0,), y=(1.0,)
)
assert verify_case(case, tol=1e-5).passed
for z in (-2.5, 0.6 + 0.2j, -3.3 + 500j):
    assert cmath.isfinite(log_gamma(z)), z
with open(sys.argv[1], "w") as handle:
    json.dump({"cases": [{
        "variant": "theorem1", "a": 1.0, "lambda": "2.5-0.3i", "mu": "0.6+0.2i",
        "b": "1", "c": "1", "p": ["1"], "y": [1.0],
    }]}, handle)
code = main(["verify", sys.argv[1], "--output", sys.argv[2]])
assert "scipy.special" not in sys.modules
sys.exit(code)
"""


def test_library_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes every "import scipy" fail.
    src = os.path.dirname(os.path.dirname(struveint.__file__))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "cases.json"), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert "1 passed, 0 failed" in result.stderr
