"""Modular group: exact integer matrices, reduction to the fundamental domain,
the region {Re z >= -1/2, |z+1| >= 1}, first-letter classification in the
free-product structure, and both forms of the multiplier symbol.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError
from .sl2 import HalfPlanePoint

_ITER_CAP = 100_000
_CIRCLE_TOL = 1e-12
_TINY = sys.float_info.min  # below this, x^2 + y^2 has underflowed


@dataclass(frozen=True)
class IntMat2:
    """Integer (a b; c d) with a*d - b*c = 1 exactly."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError(f"integer matrix {self.entries()} has determinant != 1")

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def neg(self) -> "IntMat2":
        return IntMat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def canonical_sign(self) -> "IntMat2":
        """Resolve the +-gamma ambiguity: c > 0, or c = 0 and a > 0."""
        if self.c > 0 or (self.c == 0 and self.a > 0):
            return self
        return self.neg()

    def to_real(self):
        from .sl2 import RealMat2

        return RealMat2(float(self.a), float(self.b), float(self.c), float(self.d))


class Letter(enum.Enum):
    IDENTITY = "IDENTITY"
    S_PREFIX = "S_PREFIX"
    R_PREFIX = "R_PREFIX"


def _invert_scaled(x: float, y: float) -> tuple[float, float]:
    """-1/z for z = x + iy where x^2 + y^2 underflows: z is scaled by its
    largest part first. The reduction takes this path only on underflow, so
    every other input keeps its bits."""
    s = max(abs(x), y)
    xs, ys = x / s, y / s
    rr = xs * xs + ys * ys
    nx, ny = -xs / rr / s, ys / rr / s
    if not (math.isfinite(nx) and math.isfinite(ny)):
        raise DomainError(f"-1/z overflows for z = {x!r}+{y!r}i")
    return nx, ny


def _inverts(x, rr):
    """The reduction's inversion test at x + iy, rr = x^2 + y^2, on floats or
    arrays: inside the unit circle, or on it (within _CIRCLE_TOL) at x > 0."""
    return (rr < 1.0 - _CIRCLE_TOL) | ((rr < 1.0 + _CIRCLE_TOL) & (x > 0.0))


def _in_domain(x: float, y: float) -> bool:
    """The fundamental domain within _CIRCLE_TOL: |x| <= 1/2 and x^2 + y^2 >= 1."""
    return abs(x) <= 0.5 + _CIRCLE_TOL and x * x + y * y >= 1.0 - _CIRCLE_TOL


@dataclass(frozen=True)
class ReducedPoint:
    gamma: IntMat2
    z0: HalfPlanePoint


def reduce_to_fundamental_domain(z: HalfPlanePoint) -> ReducedPoint:
    """Write z = rho_gamma(z0) with z0 in the fundamental domain.

    Classical translate/invert loop. Boundary conventions: Re z0 in [-1/2, 1/2)
    (half-open, enforced by the floor-based translation) and on the unit circle
    the representative with Re <= 0 (_inverts). gamma is sign-canonicalized.
    Its entries (a b; c d) are kept as Python ints: gamma T^n is
    (a, an + b; c, cn + d) and gamma S^-1 is (-b, a; -d, c).
    """
    x, y = z.x, z.y
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_ITER_CAP):
        n = int(math.floor(x + 0.5))
        if n != 0:
            x -= n
            b, d = a * n + b, c * n + d
        rr = x * x + y * y
        if _inverts(x, rr):
            x, y = (-x / rr, y / rr) if rr >= _TINY else _invert_scaled(x, y)
            a, b, c, d = -b, a, -d, c
        else:
            break
    else:
        raise DegeneracyError("fundamental-domain reduction did not stabilize")
    return ReducedPoint(gamma=IntMat2(a, b, c, d).canonical_sign(), z0=HalfPlanePoint(x, y))


def _probe_in_region_A(a: int, b: int, c: int, d: int) -> bool:
    """Exact-integer membership test for rho_gamma(2i), gamma = (a b; c d),
    on Python ints.

    rho_gamma(2i) = (N + 2i)/D with N = b*d + 4*a*c and D = d^2 + 4*c^2.
    Re >= -1/2 becomes 2N + D >= 0; |z+1| >= 1 becomes (N+D)^2 + 4 >= D^2,
    i.e. D <= 2 or |N+D| >= D. Both boundary equalities are impossible over
    the integers (parity resp. perfect-square obstructions), so the strict
    and non-strict comparisons coincide and the test is exact.
    """
    n = b * d + 4 * a * c
    dd = d * d + 4 * c * c
    return 2 * n + dd >= 0 and (dd <= 2 or abs(n + dd) >= dd)


def first_letter(gamma: IntMat2) -> Letter:
    """IDENTITY for +-I; else S_PREFIX iff rho_gamma(2i) lies in the region
    {Re >= -1/2, |z+1| >= 1}; else R_PREFIX.

    The probe 2i is interior to the fundamental domain, and every tile lies
    wholly inside the region or its complement, so the classification is
    unambiguous.
    """
    if gamma.b == 0 and gamma.c == 0:
        return Letter.IDENTITY
    return Letter.S_PREFIX if _probe_in_region_A(*gamma.entries()) else Letter.R_PREFIX


def _two_round_codes(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A code in 0..5 for the gamma that reduce_to_fundamental_domain finds
    for each z = x + iy (arrays), read off its first two rounds with the same
    float operations, and the indices of the samples the code leaves open.

    The reduction writes gamma = +-T^n1 S^-1 T^n2 S^-1 ... T^nK, and the code
    is 1 + sgn n1, or 4 + sgn n2 after an inversion at n1 = 0:
    0: n1 < 0, 1: +-I, 2: n1 > 0, 3: n2 < 0, 4: +-S^-1, 5: n2 > 0.
    A middle step n_k (1 < k < K) is never 0: after an inversion |z| > 1, so
    a zero step ends the reduction. Only at the _CIRCLE_TOL edge can the
    second round invert again after n2 = 0, and there S^-1 S^-1 cancels:
    those samples are left open. _TWO_ROUND_TABLES gives each discrete
    symbol's value on the codes.
    """
    n1 = np.floor(x + 0.5)
    code = np.sign(n1).astype(np.intp) + 1
    # the second round decides the code only at n1 = 0, where x - n1 is x
    k = np.flatnonzero(n1 == 0.0)
    x, y = x[k], y[k]
    rr = x * x + y * y
    inv = _inverts(x, rr)
    k, rr = k[inv], rr[inv]
    x2, y2 = -x[inv] / rr, y[inv] / rr
    n2 = np.floor(x2 + 0.5)
    code[k] = np.sign(n2).astype(np.intp) + 4
    zero = n2 == 0.0
    x2, y2 = x2[zero], y2[zero]
    return code, k[zero][_inverts(x2, x2 * x2 + y2 * y2)]


def symbol_m_word(gamma: IntMat2) -> float:
    """1 on words beginning with +-S or +-I, 0 on words beginning with +-R."""
    return 0.0 if first_letter(gamma) is Letter.R_PREFIX else 1.0


def symbol_m_sign(gamma: IntMat2) -> int:
    """sgn(a*c + b*d), exact."""
    v = gamma.a * gamma.c + gamma.b * gamma.d
    return (v > 0) - (v < 0)


# Each discrete symbol's value on the codes of _two_round_codes.
# symbol_m_word: with T = SR up to sign, the cancellations at the junctions
# (S S = -I, leaving R R = R^2) never reach the front of the word, so the
# first letter is S for n1 > 0 and R for n1 < 0, and after an inversion at
# n1 = 0 it is R for n2 > 0 and S for n2 <= 0.
# symbol_m_sign: sgn(ac + bd) is the sign of Re gamma(i). The imaginary axis
# meets only the tiles of +-I and +-S, where it is 0, and no tile is cut by
# Re z = +-1/2, so it is sgn n1 for n1 != 0 and, after the inversion
# w -> -1/w at n1 = 0, -sgn n2.
_TWO_ROUND_TABLES = {
    symbol_m_word: np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
    symbol_m_sign: np.array([-1.0, 0.0, 1.0, 1.0, 0.0, -1.0]),
}
