"""Lattice cocycle over the fundamental-domain cross-section, measure-exact
samplers, and the Monte-Carlo transferred-multiplier estimator. Every
Monte-Carlo route draws from _rng and reports through _mean_se, and the
domain samples come from _domain_xy.

A domain point (x, y, theta0) is s0 rotation(theta0), s0 the AN element with
s0(i) = x + iy in the fundamental domain and theta0 in [0, pi). For a group
element g, beta is the reduction gamma of h(i), h = s0 k0 g, with the sign
that brings the angle of the bottom row of gamma^-1 h into [0, pi);
cocycle_beta alone forms it, exactly at every norm. The Monte-Carlo average
takes the norm range of every route to m_tilde and draws its samples block
by block from three streams (_streams). Its word and sign symbols read only
the first letter of beta, up to sign, and the sign of Re beta(i), so it
reads both off the first two rounds of the reduction of each sample's shadow
x + y k0(g(i)), from one tangent of theta0 per sample, and forms no beta.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .modular import (
    _TWO_ROUND_TABLES,
    IntMat2,
    _in_domain,
    _integer_entries,
    _lattice_reduce,
    _two_round_codes,
    reduce_to_fundamental_domain,
)
from .sl2 import (
    ANCoords,
    HalfPlanePoint,
    RealMat2,
    _check_norm,
    an_matrix,
    halfplane_image,
    operator_norm,
    rotation,
)

_SQRT3_HALF = math.sqrt(3.0) / 2.0
# transferred_symbol_mc draws, maps and reduces its samples this many at a
# time, and only the symbol values span all n. Every sample's draws, beta and
# symbol value are independent of the others, so the result is the same for
# any block size; a 200 000-sample call peaks at 3.2 MB of numpy memory
# (9.2 MB with the samples drawn whole, 17 MB in one block).
_MC_BLOCK = 16_384


@dataclass(frozen=True)
class DomainPoint:
    """x + iy in the fundamental domain plus a rotation angle in [0, pi)."""

    x: float
    y: float
    k0_angle: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and self.y > 0.0):
            raise DomainError(f"domain point needs finite x and y > 0, got {self}")
        if not _in_domain(self.x, self.y):
            raise DomainError(f"{self.x!r}+{self.y!r}i is outside the fundamental domain")
        if not 0.0 <= self.k0_angle < math.pi:
            raise DomainError(f"k0 angle {self.k0_angle!r} outside [0, pi)")


@dataclass(frozen=True)
class CocycleResult:
    beta: IntMat2
    moved: DomainPoint


def _product(m: list[int], n: list[int]) -> list[int]:
    (a, b, c, d), (e, f, g, h) = m, n
    return [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h]


def cocycle_beta(p: DomainPoint, g: RealMat2) -> CocycleResult:
    """The unique lattice element beta with beta^{-1} (s0 k0 g) back in the
    domain; beta keeps its genuine sign (the sign selects the [0, pi) angle).
    The float factors an_matrix(ANCoords(x, y)), rotation(k0_angle) and g are
    multiplied and reduced exactly on integers at every norm, and the moved
    point and its angle are each rounded once. A g whose float entries have
    an exact determinant <= 0 (RealMat2 admits some) raises a DomainError."""
    gm = _integer_entries(*g.entries())
    if gm[0] * gm[3] - gm[1] * gm[2] <= 0:
        raise DomainError(f"cocycle_beta needs det g > 0, and the float entries of {g} have det <= 0")
    s0 = _integer_entries(*an_matrix(ANCoords(p.x, p.y)).entries())
    k0 = _integer_entries(*rotation(p.k0_angle).entries())
    gamma, z0, m21, m22 = _lattice_reduce(*_product(_product(s0, k0), gm))
    # the sign turns the bottom row of beta^-1 h, shifted into float range, to
    # an angle in [0, pi); one that rounds onto pi is 0 for the other sign
    if m21 < 0 or (m21 == 0 and m22 < 0):
        gamma, m21, m22 = gamma.neg(), -m21, -m22
    s = 1 << max(0, m21.bit_length() - 1000, m22.bit_length() - 1000)
    theta = math.atan2(m21 / s, m22 / s)
    if theta == math.pi:
        gamma, theta = gamma.neg(), 0.0
    return CocycleResult(gamma, DomainPoint(z0.x, z0.y, theta))


def _check_seed(seed: int) -> int:
    """seed as an int, or a DomainError unless it is a non-negative integer;
    a numpy integer gives the equal int."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or value < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return value


def _sample_count(n: int) -> int:
    """n as an int, or a DomainError unless it is an integer of at least 1
    that numpy can allocate one float64 array of; a numpy integer gives the
    equal int. The trial array is freed unwritten, before any draw."""
    try:
        value = operator.index(n)
    except TypeError:
        raise DomainError(f"sample count must be an integer, got {n!r}") from None
    if value < 1:
        raise DomainError("need at least one sample")
    try:
        np.empty(value)
    except (MemoryError, ValueError):
        # MemoryError where the bytes are refused, ValueError past numpy's
        # largest array size
        raise DomainError(
            f"sample count {value} is too large: numpy cannot allocate that many samples"
        ) from None
    return value


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream every Monte-Carlo route draws from: the seed, checked
    by _check_seed, and a stream number per route."""
    entropy = [_check_seed(seed), stream]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _domain_xy(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (x, y) ~ dx dy / y^2 on the fundamental domain: the exact
    inverse CDFs of two blocks of uniforms."""
    # x-marginal density is proportional to 1/sqrt(1-x^2) on [-1/2, 1/2]
    x = np.sin((math.pi / 3.0) * (u1 - 0.5))
    return x, np.sqrt(1.0 - x * x) / (1.0 - u2)


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single sample)."""
    n = len(vals)
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


def _streams(rng_seed: int, n: int) -> list[np.random.Generator]:
    """Three generators on _rng(rng_seed), placed at draws 0, n and 2n: the
    uniforms of x, y and theta for n samples, in the order one generator
    would draw them. Philox makes four 64-bit draws per counter step and
    Generator.random takes one draw per double."""
    n = _sample_count(n)
    streams = []
    for k in range(3):
        rng = _rng(rng_seed)
        q, r = divmod(k * n, 4)
        rng.bit_generator.advance(q).random_raw(r)
        streams.append(rng)
    return streams


def _sample_xyth(rng_seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (x, y, theta): (x, y) by _domain_xy, theta uniform on [0, pi),
    from the streams transferred_symbol_mc draws block by block."""
    s1, s2, s3 = _streams(rng_seed, n)
    x, y = _domain_xy(s1.random(n), s2.random(n))
    return x, y, math.pi * s3.random(n)


def sample_domain(rng_seed: int, n: int) -> list[DomainPoint]:
    x, y, theta = _sample_xyth(rng_seed, n)
    return [DomainPoint(float(xi), float(yi), float(ti)) for xi, yi, ti in zip(x, y, theta)]


def domain_measure_mc(rng_seed: int, n: int) -> tuple[float, float]:
    """Independent importance-sampling estimate of the hyperbolic area of the
    fundamental domain (pi/3). Proposal: x uniform on [-1/2, 1/2], y with
    density (sqrt(3)/2)/y^2 on [sqrt(3)/2, inf)."""
    n = _sample_count(n)
    rng = _rng(rng_seed, stream=1)
    x = rng.random(n) - 0.5
    u = rng.random(n)
    y = _SQRT3_HALF / (1.0 - u)
    return _mean_se(np.where(y * y >= 1.0 - x * x, 2.0 / math.sqrt(3.0), 0.0))


def _shadow_batch(
    x: np.ndarray, y: np.ndarray, tau: np.ndarray, g: RealMat2
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the half-plane shadow h(i) = x + y k0(g(i))
    of h = s0 k0 g for every sample, where k0(z) = (z - tau) / (1 + tau z) and
    tau = tan(theta). transferred_symbol_mc checks g before any draw: at a norm
    n up to MAX_NORM = 1e38, g(i) = u + iv has |u| <= n^2 and v >= n^-2, and
    |tau| <= 1.7e16, so p, q <= 2e92 and no product or square below
    overflows. Where |p| < 1/2, |tau| > 1/(2|u|), and den >= q^2 >
    (v/(2u))^2 >= n^-8/4 = 2.5e-305, above the smallest normal double."""
    gi = halfplane_image(g)
    u, v = gi.x, gi.y
    # 1 + tau z = p + iq and (z - tau)(p - iq) = (u - tau) p + v q + i v (1 + tau^2)
    p = 1.0 + tau * u
    q = tau * v
    den = p * p + q * q
    zx = x + y * (((u - tau) * p + v * q) / den)
    zy = y * (v * (1.0 + tau * tau) / den)
    return zx, zy


def _sample_symbols(
    symbol: Callable[[IntMat2], float], x: np.ndarray, y: np.ndarray, theta: np.ndarray, g: RealMat2
) -> np.ndarray:
    """symbol of every beta(p, g), for a symbol of _TWO_ROUND_TABLES: read off
    the first two rounds of the reduction of each shadow
    (modular._two_round_codes), and on the samples that rule leaves open off
    the gamma of the scalar reduction."""
    zx, zy = _shadow_batch(x, y, np.tan(theta), g)
    code, left = _two_round_codes(zx, zy)
    vals = _TWO_ROUND_TABLES[symbol][code]
    for i in left:
        red = reduce_to_fundamental_domain(HalfPlanePoint(float(zx[i]), float(zy[i])))
        vals[i] = symbol(red.gamma)
    return vals


def transferred_symbol_mc(
    symbol: Callable[[IntMat2], float], g: RealMat2, n: int, rng_seed: int
) -> tuple[float, float]:
    """Monte-Carlo average of symbol(beta(p, g)) over domain samples, with the
    standard error of the mean.

    symbol is symbol_m_word or symbol_m_sign, the keys of
    modular._TWO_ROUND_TABLES, and is read off the first two rounds of the
    reduction of each sample. The sample count, the seed, the norm of g and
    then the symbol are checked before any draw: operator norms past MAX_NORM
    raise the DomainError of every route to m_tilde, and any other callable,
    a wrapper of those two included, raises a DomainError that names them.
    """
    streams = _streams(rng_seed, n)
    _check_norm(operator_norm(g))
    if symbol not in _TWO_ROUND_TABLES:
        names = " and ".join(s.__name__ for s in _TWO_ROUND_TABLES)
        raise DomainError(f"transferred_symbol_mc averages only {names}, got {symbol!r}")
    vals = np.empty(n)
    for i in range(0, n, _MC_BLOCK):
        u1, u2, u3 = (s.random(min(_MC_BLOCK, n - i)) for s in streams)
        x, y = _domain_xy(u1, u2)
        vals[i : i + len(u1)] = _sample_symbols(symbol, x, y, math.pi * u3, g)
    return _mean_se(vals)
