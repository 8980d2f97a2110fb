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
from typing import Callable, Sequence

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
# every sample of a 200 000-sample run (measured; past it DomainError)
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


def _beta_batch(
    x: np.ndarray, y: np.ndarray, theta: np.ndarray, g: RealMat2
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized cocycle: canonical-sign-free beta entries as int64 arrays.

    Mirrors cocycle_beta: reduce the shadow of h = s0 k0 g, then flip signs so
    the residual rotation angle is in [0, pi).
    """
    sy = np.sqrt(y)
    cg, sg = np.cos(theta), np.sin(theta)
    m11 = cg * g.a - sg * g.c
    m12 = cg * g.b - sg * g.d
    m21 = sg * g.a + cg * g.c
    m22 = sg * g.b + cg * g.d
    h11 = sy * m11 + (x / sy) * m21
    h12 = sy * m12 + (x / sy) * m22
    h21 = m21 / sy
    h22 = m22 / sy
    den = h21 * h21 + h22 * h22
    zx = (h11 * h21 + h12 * h22) / den
    zy = (h11 * h22 - h12 * h21) / den

    n = x.shape[0]
    A = np.ones(n, dtype=np.int64)
    B = np.zeros(n, dtype=np.int64)
    C = np.zeros(n, dtype=np.int64)
    D = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    bound = 1.0  # an upper bound on every |entry| of A, B, C, D
    for _ in range(_VEC_ITER_CAP):
        if not active.any():
            break
        stepf = np.where(active, np.floor(zx + 0.5), 0.0)
        # a translation maps B to B + A step and D to D + C step, a flip only
        # permutes and negates. Keep every entry below 2^62 before the cast
        # and the products, so that neither can overflow int64: compound the
        # largest step of each round, and when that bound passes 2^62, bound
        # by the largest entries now, then sample by sample (NaN fails all)
        big = max(float(stepf.max()), -float(stepf.min()))
        grown = bound * (1.0 + big)
        if not grown < _INT64_HEADROOM:
            grown = _abs_max(B, D) + _abs_max(A, C) * big
        if not grown < _INT64_HEADROOM:
            size = np.abs(stepf)
            grown = float(
                np.max(((np.abs(B) + np.abs(A) * size).max(), (np.abs(D) + np.abs(C) * size).max()))
            )
            if not grown < _INT64_HEADROOM:
                raise DomainError(
                    f"the cocycle reduction of a sample needs lattice entries past 2^62 "
                    f"(int64) at operator norm {operator_norm(g):.3g}; the Monte-Carlo "
                    f"route supports operator norms up to about {MC_MAX_NORM:g}"
                )
        bound = grown
        step = stepf.astype(np.int64)
        zx = zx - step
        B += A * step
        D += C * step
        rr = zx * zx + zy * zy
        flip = active & (rr < 1.0 - 1e-12)
        if flip.any():
            rrf = rr[flip]
            zxf, zyf = zx[flip], zy[flip]
            zx[flip] = -zxf / rrf
            zy[flip] = zyf / rrf
            Af, Bf, Cf, Df = A[flip], B[flip], C[flip], D[flip]
            A[flip], B[flip] = -Bf, Af
            C[flip], D[flip] = -Df, Cf
        active = flip
    else:
        # rare stragglers: finish with the exact scalar reduction
        for i in np.nonzero(active)[0]:
            red = reduce_to_fundamental_domain(HalfPlanePoint(float(zx[i]), float(zy[i])))
            gam = red.gamma
            acc = IntMat2(int(A[i]), int(B[i]), int(C[i]), int(D[i]))
            # gamma accumulated so far times the remaining reduction
            full = acc @ gam
            A[i], B[i], C[i], D[i] = full.entries()

    neg = (C < 0) | ((C == 0) & (A < 0))
    A = np.where(neg, -A, A)
    B = np.where(neg, -B, B)
    C = np.where(neg, -C, C)
    D = np.where(neg, -D, D)

    # residual rotation: w = gamma^{-1} h; its angle is in [0, pi) iff
    # w21 > 0 or (w21 == 0 and w22 > 0)
    Afl, Cfl = A.astype(np.float64), C.astype(np.float64)
    w21 = -Cfl * h11 + Afl * h21
    w22 = -Cfl * h12 + Afl * h22
    flip_sign = (w21 < 0.0) | ((w21 == 0.0) & (w22 < 0.0))
    A = np.where(flip_sign, -A, A)
    B = np.where(flip_sign, -B, B)
    C = np.where(flip_sign, -C, C)
    D = np.where(flip_sign, -D, D)
    return A, B, C, D


def _symbol_m_word_batch(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    big = max(
        int(np.abs(A).max()), int(np.abs(B).max()), int(np.abs(C).max()), int(np.abs(D).max())
    )
    if big > _INT64_SAFE:
        return np.array(
            [symbol_m_word(IntMat2(int(a), int(b), int(c), int(d))) for a, b, c, d in zip(A, B, C, D)]
        )
    ident = (B == 0) & (C == 0)
    pn = B * D + 4 * A * C
    pd = D * D + 4 * C * C
    in_a = (2 * pn + pd >= 0) & ((pd <= 2) | (np.abs(pn + pd) >= pd))
    return np.where(ident | in_a, 1.0, 0.0)


def _symbol_m_sign_batch(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    big = max(
        int(np.abs(A).max()), int(np.abs(B).max()), int(np.abs(C).max()), int(np.abs(D).max())
    )
    if big > _INT64_SAFE:
        return np.array(
            [symbol_m_sign(IntMat2(int(a), int(b), int(c), int(d))) for a, b, c, d in zip(A, B, C, D)]
        )
    return np.sign(A * C + B * D).astype(np.float64)


def transferred_symbol_mc(
    symbol: Callable[[IntMat2], float], g: RealMat2, n: int, rng_seed: int
) -> tuple[float, float]:
    """Monte-Carlo average of symbol(beta(p, g)) over domain samples, with the
    standard error of the mean."""
    x, y, theta = _sample_xyth(rng_seed, n)
    A, B, C, D = _beta_batch(x, y, theta, g)
    if symbol is symbol_m_word:
        vals = _symbol_m_word_batch(A, B, C, D)
    elif symbol is symbol_m_sign:
        vals = _symbol_m_sign_batch(A, B, C, D)
    else:
        vals = np.array(
            [float(symbol(IntMat2(int(a), int(b), int(c), int(d)))) for a, b, c, d in zip(A, B, C, D)]
        )
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se
