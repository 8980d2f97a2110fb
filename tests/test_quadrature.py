"""Adaptive Gauss-Kronrod quadrature over array integrands: accuracy
contract, breakpoint handling, honest error estimates, vector integrands
with per-component targets, and configuration validation."""

import math
import warnings

import numpy as np
import pytest

from hypertransfer.errors import AccuracyError, DomainError
from hypertransfer.quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    integrate,
    segment_edges,
)


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
    # the edge rule itself: sorted, strictly inside (a, b), and a point within
    # 1e-13 of the last one kept is dropped; the first is kept however near a
    assert segment_edges(0.0, 1.0, pts).tolist() == [0.0, 0.5, 1.0]
    assert segment_edges(1.0, 0.0, [0.7, 0.2, 0.4]).tolist() == [0.0, 0.2, 0.4, 0.7, 1.0]
    assert segment_edges(0.0, 1.0, [0.3, 1.5, -0.2, 1.0]).tolist() == [0.0, 0.3, 1.0]
    assert segment_edges(0.0, 1.0, [0.3 + 5e-14, 0.3, 0.6]).tolist() == [0.0, 0.3, 0.6, 1.0]
    assert segment_edges(0.0, 1.0, [5e-14, 0.6]).tolist() == [0.0, 5e-14, 0.6, 1.0]
    assert segment_edges(0.0, 1.0, None).tolist() == [0.0, 1.0]


def test_breakpoints_take_any_sequence_or_array():
    # lists, tuples, ranges and 1-D arrays, empty ones included, split alike
    splits = {
        (0.25, 0.5): ([0.25, 0.5], (0.25, 0.5), np.array([0.25, 0.5])),
        (0.5,): ([0.5], (0.5,), np.array([0.5])),
        (): ([], (), range(0), np.array([]), None),
    }
    for want, forms in splits.items():
        ref = integrate(np.sin, 0.0, 1.0, points=list(want))
        for pts in forms:
            assert segment_edges(0.0, 1.0, pts).tolist() == [0.0, *want, 1.0], pts
            assert integrate(np.sin, 0.0, 1.0, points=pts) == ref, pts
    for pts in (range(1, 3), [1, 2], np.arange(1, 3)):
        assert segment_edges(0.0, 3.0, pts).tolist() == [0.0, 1.0, 2.0, 3.0], pts


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
    # an infinite or NaN tolerance was taken, and symbol printed a value
    # against an unbounded target
    for bad in (0.0, -1e-9, math.inf, math.nan):
        for name in ("abs_tol", "rel_tol"):
            with pytest.raises(DomainError, match="finite and positive"):
                QuadratureConfig(**{name: bad})


def _unbroken_family():
    # a kink at a point no one announces, a logarithmic end and an
    # inverse-square-root end, each at nine positions
    for k in np.linspace(0.1, 0.9, 9):
        yield from (
            (lambda x, k=k: np.abs(x - k), 0.0, 1.0, (k * k + (1.0 - k) ** 2) / 2.0),
            (np.log, 0.0, 2.0 * k, 2.0 * k * (math.log(2.0 * k) - 1.0)),
            (lambda x: 1.0 / np.sqrt(x), 0.0, 2.0 * k, 2.0 * math.sqrt(2.0 * k)),
        )


CONFIGS = (DEFAULT_QUADRATURE, QuadratureConfig(1e-6, 1e-6), QuadratureConfig(1e-10, 1e-10))


@pytest.mark.parametrize("cfg", CONFIGS)
def test_error_estimate_bounds_the_error(cfg):
    # honest bars on a family no breakpoint helps
    for f, a, b, exact in _unbroken_family():
        v, err = integrate(f, a, b, cfg)
        assert abs(v - exact) <= err


@pytest.mark.parametrize("cfg", CONFIGS)
def test_one_component_is_the_scalar_integrand(cfg):
    # a (1, n) integrand takes the scalar route bit for bit; only the result
    # type differs
    for f, a, b, _ in _unbroken_family():
        v, err = integrate(f, a, b, cfg)
        vv, verr = integrate(lambda x, f=f: f(x)[None, :], a, b, cfg)
        assert type(v) is float and type(err) is float
        assert vv.shape == verr.shape == (1,)
        assert vv[0] == v and verr[0] == err


def test_each_component_meets_its_own_target():
    # magnitudes 1e9 apart: a target shared by the components would leave the
    # small one with an error of its own size
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10)
    v, err = integrate(
        lambda x: np.stack((np.sin(x), 1e-9 * np.sqrt(np.abs(x - 0.3)))), 0.0, math.pi, cfg
    )
    exact = np.array([2.0, 1e-9 * (2.0 / 3.0) * (0.3**1.5 + (math.pi - 0.3) ** 1.5)])
    assert np.all(np.abs(v - exact) <= err)
    assert np.all(err <= 10.0 * cfg.rel_tol * np.abs(exact))


def test_reversed_limits_negate_every_component():
    f = lambda x: np.stack((x, x * x, np.cos(x)))  # noqa: E731
    v, err = integrate(f, 0.0, 1.0, points=[0.5])
    rv, rerr = integrate(f, 1.0, 0.0, points=[0.5])
    assert np.array_equal(rv, -v) and np.array_equal(rerr, err)
    assert np.all(np.abs(rv + [0.5, 1.0 / 3.0, math.sin(1.0)]) <= 1e-12)


def test_accuracy_error_names_the_component_that_misses():
    # the cosine meets its target; the oscillation cannot on 2000 segments.
    # achieved is the oscillation's error, below the cosine's rounding floor
    # of 50 eps times its integral (9.3e-9), so neither their sum nor the
    # larger error
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10)
    integrate(lambda x: 1e6 * np.cos(x), 0.0, 1.0, cfg)
    with pytest.raises(AccuracyError) as exc:
        integrate(lambda x: np.stack((1e6 * np.cos(x), 1e-12 * np.sin(1e6 * x))), 0.0, 1.0, cfg)
    assert 0.0 < exc.value.achieved < 1e-9


def test_one_integrand_call_per_round():
    # every round hands the integrand one 1-D array holding all new nodes,
    # for a 1-D output and for a (2, n) one
    for stack in (False, True):
        shapes = []

        def f(x):
            shapes.append(x.shape)
            y = np.sqrt(np.abs(x - 0.3))
            return np.stack((y, 2.0 * y)) if stack else y

        integrate(f, 0.0, 1.0)
        assert len(shapes) > 1
        assert all(len(s) == 1 and s[0] % 21 == 0 for s in shapes)


def test_non_finite_results_raise_without_warnings():
    # a NaN node value, and a node that lands on the pole of x^-0.99 once
    # bisection has shrunk the end segment to denormal width; the second
    # integrand's own overflow is its business, not the integrator's
    def pole(x):
        with np.errstate(divide="ignore", over="ignore"):
            return x**-0.99

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (lambda x: np.where(x > 0.5, np.nan, x), pole):
            with pytest.raises(AccuracyError) as exc:
                integrate(f, 0.0, 1.0)
            assert exc.value.achieved == math.inf
        # one non-finite component fails the whole vector integral
        with pytest.raises(AccuracyError):
            integrate(lambda x: np.stack((x, np.where(x > 0.5, np.inf, x))), 0.0, 1.0)


def test_non_finite_limits_are_refused():
    # a NaN limit returned (0.0, 0.0), and an infinite one died on an unnamed
    # RuntimeWarning
    for a, b in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf)):
        with pytest.raises(DomainError, match="limits must be finite"):
            integrate(np.sin, a, b)
