"""Modular group: exact integer matrices, reduction to the fundamental domain,
the region {Re z >= -1/2, |z+1| >= 1}, first-letter classification in the
free-product structure, and both forms of the multiplier symbol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sl2 import HalfPlanePoint

_CIRCLE_TOL = 1e-12
# its exact value t: the reduction compares |z|^2 with the rationals 1 -+ t
_TOL_NUM, _TOL_DEN = _CIRCLE_TOL.as_integer_ratio()


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


def _in_domain(x: float, y: float) -> bool:
    """The fundamental domain within _CIRCLE_TOL: |x| <= 1/2 and x^2 + y^2 >= 1."""
    return abs(x) <= 0.5 + _CIRCLE_TOL and x * x + y * y >= 1.0 - _CIRCLE_TOL


@dataclass(frozen=True)
class ReducedPoint:
    gamma: IntMat2
    z0: HalfPlanePoint


def _integer_entries(a: float, b: float, c: float, d: float) -> list[int]:
    """Float entries as integers on one power of two: every float is a dyadic
    rational, and the Mobius action ignores scale."""
    (a, p), (b, q), (c, r), (d, s) = (v.as_integer_ratio() for v in (a, b, c, d))
    k = max(p, q, r, s)
    return [a * (k // p), b * (k // q), c * (k // r), d * (k // s)]


def _lattice_reduce(m11: int, m12: int, m21: int, m22: int) -> tuple[IntMat2, HalfPlanePoint, int, int]:
    """gamma with z = gamma(z0) for z = M(i), M = (m11 m12; m21 m22) an
    integer matrix with det M > 0, z0 in the fundamental domain rounded once
    (a DomainError past float64), and the bottom row of gamma^-1 M; gamma
    keeps the sign the loop gives it.

    Lagrange-Gauss reduction of the rows of M (B. Vallee, "Gauss' algorithm
    revisited", J. Algorithms 12, 1991): x = num/den and |z|^2 are integer
    ratios, so every test is exact. A translation by n = floor(x + 1/2)
    subtracts n times the bottom row from the top one. An inversion
    z -> -1/z, inside the unit circle or within t = _CIRCLE_TOL of it at
    x > 0, maps M to (-m21, -m22; m11, m12); -1/z has |z|^2 > 1 + t, or
    x < 0 and |z|^2 > 1 - t, so no zero translation lies between two
    inversions. The loop ends without a cap: an inversion at |z|^2 < 1 maps
    den to the smaller positive integer m11^2 + m12^2, and the next round
    keeps -1/z of one at 1 <= |z|^2 < 1 + t, where 0 < x < 1/2.
    """
    a, b, c, d = 1, 0, 0, 1
    while True:
        den = m21 * m21 + m22 * m22
        num = m11 * m21 + m12 * m22
        n = (2 * num + den) // (2 * den)
        m11, m12, num = m11 - n * m21, m12 - n * m22, num - n * den
        b, d = a * n + b, c * n + d
        top = (m11 * m11 + m12 * m12) * _TOL_DEN
        if top >= den * (_TOL_DEN + _TOL_NUM) or (top >= den * (_TOL_DEN - _TOL_NUM) and num <= 0):
            try:
                z0 = HalfPlanePoint(num / den, (m11 * m22 - m12 * m21) / den)
            except OverflowError:
                raise DomainError("the reduced point overflows float64") from None
            return IntMat2(a, b, c, d), z0, m21, m22
        m11, m12, m21, m22 = -m21, -m22, m11, m12
        a, b, c, d = -b, a, -d, c


def reduce_to_fundamental_domain(z: HalfPlanePoint) -> ReducedPoint:
    """Write z = rho_gamma(z0) with z0 in the fundamental domain, by
    _lattice_reduce of M = (y x; 0 1), exact on the floats x and y, with z0
    rounded once and gamma sign-canonicalized."""
    gamma, z0, _, _ = _lattice_reduce(*_integer_entries(z.y, z.x, 0.0, 1.0))
    return ReducedPoint(gamma=gamma.canonical_sign(), z0=z0)


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
    for each z = x + iy (arrays), read off its first two rounds, and the
    indices of the samples the code leaves open.

    The reduction writes gamma = +-T^n1 S^-1 T^n2 S^-1 ... T^nK, and the code
    is 1 + sgn n1, or 4 + sgn n2 after an inversion at n1 = 0:
    0: n1 < 0, 1: +-I, 2: n1 > 0, 3: n2 < 0, 4: +-S^-1, 5: n2 > 0.
    No middle step n_k (1 < k < K) is 0 (_lattice_reduce). sgn n1 is +1 for
    x >= 1/2 and -1 for x < -1/2; after -1/z, sgn n2 is +1 for -2x >= rr and
    -1 for 2x > rr, rr = x^2 + y^2. Only rr is rounded, by less than 1e-15 rr
    or 1e-300, so a sample is left open where rr lies within 1e-14 of
    1 -+ _CIRCLE_TOL, or inverts with 2|x| within 1e-14 rr + 1e-300 of rr.
    _TWO_ROUND_TABLES gives each discrete symbol's value on the codes.
    """
    n1 = (x >= 0.5).astype(np.intp) - (x < -0.5)
    code = n1 + 1
    # the second round decides the code only at n1 = 0, where x - n1 is x
    k = np.flatnonzero(n1 == 0)
    x, y = x[k], y[k]
    rr = x * x + y * y
    lo, hi = 1.0 - _CIRCLE_TOL, 1.0 + _CIRCLE_TOL
    inv = (rr < lo) | ((rr < hi) & (x > 0.0))
    code[k[inv]] = 4 + (-2.0 * x[inv] >= rr[inv]) - (2.0 * x[inv] > rr[inv])
    edge = (np.abs(rr - lo) <= 1e-14) | (np.abs(rr - hi) <= 1e-14)
    edge |= inv & (np.abs(2.0 * np.abs(x) - rr) <= 1e-14 * rr + 1e-300)
    return code, k[edge]


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
