"""Lattice cocycle over the fundamental-domain cross-section, measure-exact
samplers, and the Monte-Carlo transferred-multiplier estimator.

A domain point is s0 * rotation(theta0) with pi(s0) in the fundamental domain
and theta0 in [0, pi). For a group element g, the unique lattice matrix beta
with beta^{-1} s0 k0 g back in the domain is computed by reducing the
half-plane shadow and then fixing the sign so the residual rotation angle
lands in [0, pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .modular import (
    IntMat2,
    reduce_to_fundamental_domain,
    symbol_m_sign,
    symbol_m_word,
)
from .sl2 import (
    ANCoords,
    HalfPlanePoint,
    RealMat2,
    an_coords,
    an_matrix,
    halfplane_image,
    iwasawa_decompose,
    operator_norm,
    rotation,
)

_SQRT3_HALF = math.sqrt(3.0) / 2.0
_VEC_ITER_CAP = 200
_INT64_SAFE = 1_300_000_000  # probe products stay inside int64 below this
_INT64_HEADROOM = 2.0 ** 62
# the largest operator norm at which the int64 reduction keeps room for
# every sample of a 200 000-sample run (measured on the diagonal cartan_a(r),
# the only elements the CLI builds; past it DomainError). A rotated element
# raises the same DomainError from about norm 1e8: zy = det h/den cancels.
MC_MAX_NORM = 1e15


@dataclass(frozen=True)
class DomainPoint:
    """s0 in AN over the fundamental domain plus a rotation angle in [0, pi)."""

    s0: RealMat2
    k0_angle: float

    def __post_init__(self) -> None:
        c = an_coords(self.s0)
        if abs(c.g_x) > 0.5 + 1e-12 or c.g_x * c.g_x + c.g_y * c.g_y < 1.0 - 1e-12:
            raise DomainError(f"AN part projects outside the fundamental domain: {c}")
        if not 0.0 <= self.k0_angle < math.pi:
            raise DomainError(f"k0 angle {self.k0_angle!r} outside [0, pi)")

    def coords(self) -> ANCoords:
        return an_coords(self.s0)


@dataclass(frozen=True)
class CocycleResult:
    beta: IntMat2
    moved: DomainPoint


def domain_point(x: float, y: float, theta: float) -> DomainPoint:
    return DomainPoint(s0=an_matrix(ANCoords(x, y)), k0_angle=theta)


def cocycle_beta(p: DomainPoint, g: RealMat2) -> CocycleResult:
    """The unique lattice element beta with beta^{-1} (s0 k0 g) back in the
    domain; beta keeps its genuine sign (the sign selects the [0, pi) angle).
    """
    h = p.s0 @ rotation(p.k0_angle) @ g
    red = reduce_to_fundamental_domain(halfplane_image(h))
    gam = red.gamma
    w = gam.inv().to_real() @ h
    parts = iwasawa_decompose(w)
    if parts.theta < math.pi:
        beta, theta_new = gam, parts.theta
    else:
        beta, theta_new = gam.neg(), parts.theta - math.pi
    moved = domain_point(red.z0.x, red.z0.y, theta_new)
    return CocycleResult(beta=beta, moved=moved)


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), stream])))


def _sample_xyth(rng_seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (x, y, theta): (x, y) ~ dx dy / y^2 on the fundamental domain by
    exact inverse CDFs, theta uniform on [0, pi). Block order is fixed so the
    scalar and vectorized paths consume the identical stream."""
    if n < 1:
        raise DomainError("need at least one sample")
    rng = _rng(rng_seed)
    u1 = rng.random(n)
    u2 = rng.random(n)
    u3 = rng.random(n)
    # x-marginal density is proportional to 1/sqrt(1-x^2) on [-1/2, 1/2]
    x = np.sin((math.pi / 3.0) * (u1 - 0.5))
    y = np.sqrt(1.0 - x * x) / (1.0 - u2)
    theta = math.pi * u3
    return x, y, theta


def sample_domain(rng_seed: int, n: int) -> list[DomainPoint]:
    x, y, theta = _sample_xyth(rng_seed, n)
    return [domain_point(float(xi), float(yi), float(ti)) for xi, yi, ti in zip(x, y, theta)]


def domain_measure_mc(rng_seed: int, n: int) -> tuple[float, float]:
    """Independent importance-sampling estimate of the hyperbolic area of the
    fundamental domain (pi/3). Proposal: x uniform on [-1/2, 1/2], y with
    density (sqrt(3)/2)/y^2 on [sqrt(3)/2, inf)."""
    if n < 1:
        raise DomainError("need at least one sample")
    rng = _rng(rng_seed, stream=1)
    x = rng.random(n) - 0.5
    u = rng.random(n)
    y = _SQRT3_HALF / (1.0 - u)
    w = np.where(y * y >= 1.0 - x * x, 2.0 / math.sqrt(3.0), 0.0)
    est = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se


def _abs_max(*arrays: np.ndarray) -> float:
    return float(max(max(a.max(), -a.min()) for a in arrays))


def _range_error(g: RealMat2, cause: str) -> DomainError:
    return DomainError(
        f"{cause} at operator norm {operator_norm(g):.3g}; the Monte-Carlo "
        f"route supports operator norms up to about {MC_MAX_NORM:g}"
    )


def _beta_batch(
    x: np.ndarray, y: np.ndarray, theta: np.ndarray, g: RealMat2
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized cocycle: the entries of beta(p, g) as int64 arrays.

    Mirrors cocycle_beta: reduce the shadow of h = s0 k0 g, then pick the sign
    of beta that puts the residual rotation angle in [0, pi). Each round of the
    translate/invert loop touches only the samples that are still active: their
    shadows and lattice entries are kept compacted beside their positions in the
    output, each sample is written out once, in the round that needs no
    inversion, and the few left after _VEC_ITER_CAP rounds finish on the scalar
    reduction.
    """
    sy = np.sqrt(y)
    cg, sg = np.cos(theta), np.sin(theta)
    m11 = cg * g.a - sg * g.c
    m12 = cg * g.b - sg * g.d
    m21 = sg * g.a + cg * g.c
    m22 = sg * g.b + cg * g.d
    # full-length temporaries are dropped as soon as they are used up
    del cg, sg
    xs = x / sy
    h11 = sy * m11 + xs * m21
    h12 = sy * m12 + xs * m22
    h21 = m21 / sy
    h22 = m22 / sy
    del sy, xs, m11, m12, m21, m22
    # past about norm 1e154 den overflows (z reads 0) or underflows (z is
    # inf or NaN): name the range without printing numpy's warnings first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den = h21 * h21 + h22 * h22
        zx = (h11 * h21 + h12 * h22) / den
        zy = (h11 * h22 - h12 * h21) / den
        if not (np.isfinite(den).all() and np.isfinite(zx).all() and np.isfinite(zy).all()):
            raise _range_error(g, "the half-plane image of a sample overflows float64")
        del den

    n = x.shape[0]
    # rows a, b, c, d of gamma, one column per sample. The first round works
    # on out itself, since every sample is active; from then on a, b, c, d,
    # zx and zy hold the active samples only, and idx their columns in out
    out = np.zeros((4, n), dtype=np.int64)
    out[0] = 1
    out[3] = 1
    a, b, c, d = out
    idx = None
    bound = 1.0  # an upper bound on every |entry| of a, b, c, d
    for _ in range(_VEC_ITER_CAP):
        stepf = np.floor(zx + 0.5)
        # a translation maps b to b + a step and d to d + c step, a flip only
        # permutes and negates. Keep every entry below 2^62 before the cast
        # and the products, so that neither can overflow int64: compound the
        # largest step of each round, and when that bound passes 2^62, bound
        # by the largest entries now, then sample by sample (NaN fails all)
        big = _abs_max(stepf)
        grown = bound * (1.0 + big)
        if not grown < _INT64_HEADROOM:
            grown = _abs_max(b, d) + _abs_max(a, c) * big
        if not grown < _INT64_HEADROOM:
            size = np.abs(stepf)
            grown = max(
                float((np.abs(b) + np.abs(a) * size).max()),
                float((np.abs(d) + np.abs(c) * size).max()),
            )
            if not grown < _INT64_HEADROOM:
                raise _range_error(
                    g, "the cocycle reduction of a sample needs lattice entries past 2^62 (int64)"
                )
        bound = grown
        step = stepf.astype(np.int64)
        zx -= stepf
        b += a * step
        d += c * step
        rr = zx * zx + zy * zy
        flip = rr < 1.0 - 1e-12
        keep = np.flatnonzero(flip)
        if idx is None:
            idx = keep
        else:
            done = np.flatnonzero(~flip)
            at = idx[done]
            for row, v in zip(out, (a, b, c, d)):
                row[at] = v[done]
            idx = idx[keep]
        if keep.size == 0:
            break
        # z -> -1/z and gamma -> gamma S^-1: (a, b, c, d) -> (-b, a, -d, c)
        a, b, c, d = -b[keep], a[keep], -d[keep], c[keep]
        rr = rr[keep]
        zx = -zx[keep] / rr
        zy = zy[keep] / rr
    else:
        # rare stragglers: finish with the exact scalar reduction
        for j, i in enumerate(idx):
            red = reduce_to_fundamental_domain(HalfPlanePoint(float(zx[j]), float(zy[j])))
            acc = IntMat2(int(a[j]), int(b[j]), int(c[j]), int(d[j]))
            # gamma accumulated so far times the remaining reduction
            out[:, i] = (acc @ red.gamma).entries()

    # residual rotation: w = gamma^{-1} h; its angle is in [0, pi) iff
    # w21 > 0 or (w21 == 0 and w22 > 0). Negating gamma negates w21 and w22
    # exactly, so this test alone fixes the sign whatever sign gamma had.
    af, cf = out[0].astype(np.float64), out[2].astype(np.float64)
    w21 = -cf * h11 + af * h21
    w22 = -cf * h12 + af * h22
    out *= np.where((w21 < 0.0) | ((w21 == 0.0) & (w22 < 0.0)), -1, 1)
    return out[0], out[1], out[2], out[3]


def _symbol_batch(
    symbol: Callable[[IntMat2], float], A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray
) -> np.ndarray:
    """symbol of every beta. symbol_m_word and symbol_m_sign run in int64
    closed form while their products stay inside int64; everything else
    calls symbol once per sample."""
    if _abs_max(A, B, C, D) <= _INT64_SAFE:
        if symbol is symbol_m_word:
            ident = (B == 0) & (C == 0)
            pn = B * D + 4 * A * C
            pd = D * D + 4 * C * C
            in_a = (2 * pn + pd >= 0) & ((pd <= 2) | (np.abs(pn + pd) >= pd))
            return np.where(ident | in_a, 1.0, 0.0)
        if symbol is symbol_m_sign:
            return np.sign(A * C + B * D).astype(np.float64)
    return np.array(
        [float(symbol(IntMat2(int(a), int(b), int(c), int(d)))) for a, b, c, d in zip(A, B, C, D)]
    )


def transferred_symbol_mc(
    symbol: Callable[[IntMat2], float], g: RealMat2, n: int, rng_seed: int
) -> tuple[float, float]:
    """Monte-Carlo average of symbol(beta(p, g)) over domain samples, with the
    standard error of the mean."""
    x, y, theta = _sample_xyth(rng_seed, n)
    vals = _symbol_batch(symbol, *_beta_batch(x, y, theta, g))
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se
