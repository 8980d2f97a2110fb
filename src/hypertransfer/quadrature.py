"""Globally adaptive Gauss-Kronrod quadrature over array integrands, with an
explicit accuracy contract.

The integrand maps a 1-D float array of n abscissas to n values, or to a
(k, n) array: k integrands on shared nodes, so a caller whose components come
from one expensive evaluation pays for it once. Every segment is integrated
with QUADPACK's 21-point Kronrod rule and its embedded 10-point Gauss rule,
and each component's error is estimated by QUADPACK's qk21 formula: the
Gauss-Kronrod difference, rescaled by the component's variation on the
segment and floored at rounding level. Each component has its own target,
max(abs_tol, rel_tol * |its value|), so a small component is not judged
against a large one. Each round bisects every segment on which any component's
error exceeds an equal share of that component's target (the target over the
number of segments), and evaluates the nodes of all new segments in one call
of the integrand. (A share proportional to length would keep bisecting the
neighbours of a singular end, whose shares shrink faster than their errors.)
Values and errors are kept as one (k, segments) array; a 1-D integrand is
the k = 1 case and returns floats.

Known kinks and singular abscissae are passed as breakpoints, which
segment_edges turns into segment ends (callers that lay out their own
segments use it too); the nodes never touch a segment's ends. There is no
extrapolation, so a singular end converges only geometrically in the number
of rounds, and callers substitute it away where they can. A result is accepted only when every component's
summed error estimate clears ten times its target; otherwise AccuracyError
reports the error of the component that misses by the largest factor. A
non-finite value or error estimate in any component, after any round, raises
AccuracyError at once, with an infinite achieved error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, DomainError

MAX_SUBDIVISIONS = 2000

# QUADPACK qk21: the Kronrod abscissae on [0, 1], and the Kronrod and Gauss
# weights at them (the Gauss nodes are every second abscissa)
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208931622720,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651191,
)
_NODES = np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
_KRONROD = np.array(list(_WGK[:-1]) + list(reversed(_WGK)))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise DomainError(f"tolerances must be finite and positive: {self}")


DEFAULT_QUADRATURE = QuadratureConfig()


def _gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """qk21 values and error estimates of the segments [lo, hi], from one call
    of f on all their nodes; shape (m,) for a 1-D integrand and (k, m) for one
    with k components, each component estimated on its own."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = center[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(x.ravel()), dtype=float)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    # a non-finite fx reaches the segment's value or error quietly, and
    # integrate rejects it
    with np.errstate(all="ignore"):
        resk = fx @ _KRONROD
        resg = fx @ _GAUSS
        resabs = np.abs(fx) @ _KRONROD * half
        resasc = np.abs(fx - 0.5 * resk[..., None]) @ _KRONROD * half
        err = np.abs((resk - resg) * half)
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
        return resk * half, err


def segment_edges(
    a: float, b: float, points: Sequence[float] | np.ndarray | None = None
) -> np.ndarray:
    """Ascending segment ends from min(a, b) to max(a, b), split at points
    (any sequence or 1-D array, or None): sorted, kept only strictly inside
    (a, b), and a point within 1e-13 of the last one kept is dropped (the
    first is kept however near a)."""
    lo, hi = min(a, b), max(a, b)
    edges = [lo]
    for p in sorted(p for p in (() if points is None else points) if lo < p < hi):
        if len(edges) == 1 or p - edges[-1] > 1e-13:
            edges.append(p)
    return np.array(edges + [hi])


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    points: Sequence[float] | np.ndarray | None = None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Integral of f over [a, b] and the achieved error estimate.

    f maps a 1-D float array of n abscissas to values of shape (n,), or of
    shape (k, n) for k integrands on shared nodes; the result is then a pair
    of floats, or a pair of shape-(k,) arrays (value and error per
    component). a == b gives (0.0, 0.0) without calling f; a non-finite
    limit raises DomainError. points: known interior kinks/singular
    abscissae, split at by segment_edges.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    edges = segment_edges(a, b, points)
    lo, hi = edges[:-1], edges[1:]
    val, err = _gauss_kronrod(f, lo, hi)
    vector = val.ndim == 2
    # one row per component, one column per segment
    val, err = np.atleast_2d(val, err)
    while True:
        with np.errstate(all="ignore"):
            value, error = val.sum(axis=1), err.sum(axis=1)
        if not (np.isfinite(value).all() and np.isfinite(error).all()):
            raise AccuracyError(
                f"quadrature on [{a}, {b}] met a non-finite value or error", achieved=math.inf
            )
        target = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        if (error <= target).all():
            break
        mid = 0.5 * (lo + hi)
        # a segment splits where any component misses its equal share
        shares = (target / len(lo))[:, None]
        split = (err > shares).any(axis=0) & (lo < mid) & (mid < hi)
        room = MAX_SUBDIVISIONS - len(lo)
        if room <= 0 or not split.any():
            break
        if split.sum() > room:  # the largest misses first
            chosen = np.flatnonzero(split)
            worst = (err[:, chosen] / shares).max(axis=0)
            split[:] = False
            split[chosen[np.argsort(worst)[-room:]]] = True
        keep = ~split
        new_lo = np.concatenate((lo[split], mid[split]))
        new_hi = np.concatenate((mid[split], hi[split]))
        new_val, new_err = np.atleast_2d(*_gauss_kronrod(f, new_lo, new_hi))
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[:, keep], new_val), axis=1)
        err = np.concatenate((err[:, keep], new_err), axis=1)
    if b < a:
        value = -value
    limit = np.maximum(10.0 * cfg.abs_tol, 10.0 * cfg.rel_tol * np.abs(value))
    if (error > limit).any():
        # achieved: the error of the component that misses by the most
        achieved = float(error[np.argmax(error / limit)])
        raise AccuracyError(f"quadrature on [{a}, {b}] did not converge", achieved=achieved)
    if vector:
        return value, error
    return float(value[0]), float(error[0])
