import cmath
import math
import os
import subprocess
import sys

import mpmath as mp
import pytest

import struveint
from struveint import (
    DomainError,
    GammaPoleError,
    RangeError,
    gamma,
    log_gamma,
)

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
    for x in (200.0, 1e306, 1e308):
        with pytest.raises(RangeError):
            gamma(x)


def test_gamma_recurrence_1000_random_points():
    import random

    rng = random.Random(20240917)
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0))
        lhs = gamma(z + 1)
        err = abs(lhs - z * gamma(z)) / abs(lhs)
        worst = max(worst, err)
    assert worst <= 1e-12


def test_gamma_against_mpmath():
    import random

    rng = random.Random(7)
    with mp.workdps(40):
        for _ in range(100):
            z = complex(rng.uniform(0.05, 20.0), rng.uniform(-8.0, 8.0))
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            assert abs(gamma(z) - ref) / abs(ref) < 1e-13


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        log_gamma(complex(math.inf, 0.0))


def test_import_does_not_load_scipy_special():
    # log_gamma imports scipy.special only for complex or non-positive z,
    # and nothing in the library or the CLI imports numpy.
    src = os.path.dirname(os.path.dirname(struveint.__file__))
    for module in ("struveint", "struveint.cli"):
        code = f"import sys, {module}; print(sorted({{'numpy', 'scipy'}} & set(sys.modules)))"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "[]", module
