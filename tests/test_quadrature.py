"""Adaptive-quadrature wrapper: accuracy contract, breakpoint handling, and
configuration validation."""

import math

import pytest

from hypertransfer.errors import AccuracyError, DomainError
from hypertransfer.quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate


def test_smooth_integral_and_error_estimate():
    v, err = integrate(math.sin, 0.0, math.pi)
    assert abs(v - 2.0) <= max(err, 1e-12)
    assert 0.0 <= err <= 1e-7


def test_degenerate_interval():
    assert integrate(math.exp, 1.3, 1.3) == (0.0, 0.0)


def test_endpoint_singularity_with_breakpoints():
    # integrable log singularity at an interior breakpoint
    v, err = integrate(lambda x: math.log(abs(x - 0.25)), 0.0, 1.0, points=[0.25])
    want = 0.75 * math.log(0.75) + 0.25 * math.log(0.25) - 1.0
    assert abs(v - want) <= max(10 * err, 1e-10)


def test_breakpoints_deduped_and_clipped():
    # duplicates, near-duplicates, and out-of-range points must not break QUADPACK
    pts = [0.5, 0.5, 0.5 + 1e-16, -3.0, 7.0, 0.0, 1.0]
    v, _ = integrate(lambda x: abs(x - 0.5), 0.0, 1.0, points=pts)
    assert abs(v - 0.25) <= 1e-12
    v, _ = integrate(lambda x: x * x, 0.0, 1.0, points=[-1.0, 2.0])  # all filtered
    assert abs(v - 1.0 / 3.0) <= 1e-12


def test_reversed_limits():
    v, _ = integrate(lambda x: x, 1.0, 0.0, points=[0.5])
    assert abs(v + 0.5) <= 1e-12


def test_accuracy_error_carries_achieved():
    with pytest.raises(AccuracyError) as exc:
        integrate(
            lambda x: 1.0 / math.sqrt(x),
            0.0,
            1.0,
            QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300),
        )
    assert exc.value.achieved > 0.0
    assert "achieved" in str(exc.value)


def test_config_validation():
    assert DEFAULT_QUADRATURE.abs_tol == 1e-8
    assert DEFAULT_QUADRATURE.rel_tol == 1e-7
    for bad in (dict(abs_tol=0.0), dict(rel_tol=-1e-9)):
        with pytest.raises(DomainError):
            QuadratureConfig(**bad)
