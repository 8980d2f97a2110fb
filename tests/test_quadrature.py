"""Adaptive Gauss-Kronrod quadrature over array integrands: accuracy
contract, breakpoint handling, honest error estimates, and configuration
validation."""

import math

import numpy as np
import pytest

from hypertransfer.errors import AccuracyError, DomainError
from hypertransfer.quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate


def test_smooth_integral_and_error_estimate():
    v, err = integrate(np.sin, 0.0, math.pi)
    assert abs(v - 2.0) <= max(err, 1e-12)
    assert 0.0 <= err <= 1e-7


def test_degenerate_interval():
    assert integrate(np.exp, 1.3, 1.3) == (0.0, 0.0)


def test_endpoint_singularity_with_breakpoints():
    # integrable log singularity at an interior breakpoint
    v, err = integrate(lambda x: np.log(np.abs(x - 0.25)), 0.0, 1.0, points=[0.25])
    want = 0.75 * math.log(0.75) + 0.25 * math.log(0.25) - 1.0
    assert abs(v - want) <= max(10 * err, 1e-10)


def test_breakpoints_deduped_and_clipped():
    # duplicates, near-duplicates, and out-of-range points must not break the rule
    pts = [0.5, 0.5, 0.5 + 1e-16, -3.0, 7.0, 0.0, 1.0]
    v, _ = integrate(lambda x: np.abs(x - 0.5), 0.0, 1.0, points=pts)
    assert abs(v - 0.25) <= 1e-12
    v, _ = integrate(lambda x: x * x, 0.0, 1.0, points=[-1.0, 2.0])  # all filtered
    assert abs(v - 1.0 / 3.0) <= 1e-12


def test_reversed_limits():
    v, _ = integrate(lambda x: x, 1.0, 0.0, points=[0.5])
    assert abs(v + 0.5) <= 1e-12


def test_accuracy_error_carries_achieved():
    with pytest.raises(AccuracyError) as exc:
        integrate(
            lambda x: 1.0 / np.sqrt(x),
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


@pytest.mark.parametrize(
    "cfg",
    (DEFAULT_QUADRATURE, QuadratureConfig(1e-6, 1e-6), QuadratureConfig(1e-10, 1e-10)),
)
def test_error_estimate_bounds_the_error(cfg):
    # honest bars on a family no breakpoint helps: a kink at a point no one
    # announces, a logarithmic end and an inverse-square-root end, each at
    # nine positions
    for k in np.linspace(0.1, 0.9, 9):
        family = (
            (lambda x, k=k: np.abs(x - k), 0.0, 1.0, (k * k + (1.0 - k) ** 2) / 2.0),
            (np.log, 0.0, 2.0 * k, 2.0 * k * (math.log(2.0 * k) - 1.0)),
            (lambda x: 1.0 / np.sqrt(x), 0.0, 2.0 * k, 2.0 * math.sqrt(2.0 * k)),
        )
        for f, a, b, exact in family:
            v, err = integrate(f, a, b, cfg)
            assert abs(v - exact) <= err


def test_one_integrand_call_per_round():
    # every round hands the integrand one 1-D array holding all new nodes
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.sqrt(np.abs(x - 0.3))

    integrate(f, 0.0, 1.0)
    assert len(shapes) > 1
    assert all(len(s) == 1 and s[0] % 21 == 0 for s in shapes)
