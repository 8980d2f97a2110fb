"""2x2 real determinant-one matrices: Mobius action on the upper half-plane,
rotations and the Cartan factor diag(r, 1/r), operator norm and its range, and
the AN element of given coordinates.

Everything here is closed-form 2x2 algebra; no general linear-algebra routines
are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_DET_TOL = 1e-9


@dataclass(frozen=True)
class RealMat2:
    """Row-major entries (a b; c d) with a*d - b*c = 1 within 1e-9, or within
    the rounding of the products, 8 eps (|ad| + |bc|), where that is larger."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        ad, bc = self.a * self.d, self.b * self.c
        det, tol = ad - bc, max(_DET_TOL, 8.0 * math.ulp(1.0) * (abs(ad) + abs(bc)))
        if not math.isfinite(det) or abs(det - 1.0) > tol:
            raise DomainError(f"determinant {det!r} is not 1 within {tol:g}")

    @staticmethod
    def renormalized(a: float, b: float, c: float, d: float) -> "RealMat2":
        """Construct after dividing by sqrt(det); absorbs drift from chained
        products. Requires a strictly positive determinant."""
        det = a * d - b * c
        if not math.isfinite(det) or det <= 0.0:
            raise DomainError(f"cannot renormalize: determinant {det!r}")
        s = 1.0 / math.sqrt(det)
        return RealMat2(a * s, b * s, c * s, d * s)

    def __matmul__(self, other: "RealMat2") -> "RealMat2":
        # both factors have determinant 1: a product whose computed one is not
        # positive lost it to rounding, as ad - bc does from entries of ~1e8 on
        try:
            return RealMat2.renormalized(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        except DomainError as exc:
            size = max(map(abs, (*self.entries(), *other.entries())))
            raise DomainError(
                f"{exc}, lost to float64 rounding at entries up to {size:.3g}"
            ) from None

    def neg(self) -> "RealMat2":
        return RealMat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = RealMat2(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point x + iy with y > 0."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and self.y > 0.0):
            raise DomainError(f"{self.x!r}+{self.y!r}i is not in the upper half-plane")


@dataclass(frozen=True)
class ANCoords:
    """The (g_x, g_y) chart of the AN subgroup, g = (sqrt(g_y), g_x/sqrt(g_y); 0, 1/sqrt(g_y))."""

    g_x: float
    g_y: float

    def __post_init__(self) -> None:
        # stored as Python floats: numpy scalars would carry numpy semantics
        # (np.bool_ flags, np.float64 pow) into the scalar code paths
        object.__setattr__(self, "g_x", float(self.g_x))
        object.__setattr__(self, "g_y", float(self.g_y))
        if not (math.isfinite(self.g_x) and math.isfinite(self.g_y) and self.g_y > 0.0):
            raise DomainError(f"AN coordinates need finite g_x and g_y > 0, got {self}")


def mobius_act(g: RealMat2, z: HalfPlanePoint) -> HalfPlanePoint:
    """z -> (a z + b)/(c z + d), evaluated in real arithmetic."""
    u = g.c * z.x + g.d
    v = g.c * z.y
    den = u * u + v * v
    if den < 1e-300:
        raise DomainError("Mobius denominator numerically singular")
    nx = (g.a * z.x + g.b) * u + g.a * z.y * v
    # imaginary part collapses to y * det(g), which keeps the image in the
    # half-plane even under determinant drift
    ny = z.y * (g.a * g.d - g.b * g.c)
    return HalfPlanePoint(nx / den, ny / den)


def halfplane_image(g: RealMat2) -> HalfPlanePoint:
    """Mobius image of i, i.e. ((ac+bd) + i)/(c^2+d^2): det g = 1 is the
    imaginary part's numerator."""
    den = g.c * g.c + g.d * g.d
    return HalfPlanePoint((g.a * g.c + g.b * g.d) / den, 1.0 / den)


def rotation(theta: float) -> RealMat2:
    c, s = math.cos(theta), math.sin(theta)
    return RealMat2(c, -s, s, c)


def cartan_a(r: float) -> RealMat2:
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"cartan_a needs r > 0, got {r!r}")
    return RealMat2(r, 0.0, 0.0, 1.0 / r)


def operator_norm(g: RealMat2) -> float:
    """Largest singular value; max(r, 1/r) to 1 ulp on diag(r, 1/r).

    In the sum/difference form of a 2x2 matrix (Blinn, "Consider the lowly
    2x2 matrix", 1996) it is (|(a + d, b - c)| + |(a - d, b + c)|)/2: no
    nearly equal numbers are subtracted, det = 1 is not used, and hypot does
    not overflow. Each half is taken before the sum: that gives the bits of
    halving the sum, and norms up to 1e308 stay finite.
    """
    return 0.5 * math.hypot(g.a + g.d, g.b - g.c) + 0.5 * math.hypot(g.a - g.d, g.b + g.c)


# the largest operator norm every route to m_tilde accepts (see _check_norm)
MAX_NORM = 1e38


def _check_norm(r: float) -> None:
    """Raise DomainError unless r > 0 and max(r, 1/r), the operator norm of
    diag(r, 1/r) or an operator_norm passed as r, lies in [1, MAX_NORM]: the
    range of every route to m_tilde. Past it the transition quadratics of
    regions overflow, and below r = 1e-77 r^4 on the Cartan circle underflows."""
    if not r > 0.0:
        raise DomainError(f"need r > 0, got {r!r}")
    norm = max(r, 1.0 / r)
    if not norm <= MAX_NORM:
        raise DomainError(
            f"operator norm {norm!r} is outside the supported range [1, {MAX_NORM:g}] "
            f"(diag(r, 1/r) needs r in [{1.0 / MAX_NORM:g}, {MAX_NORM:g}])"
        )


def an_matrix(coords: ANCoords) -> RealMat2:
    sq = math.sqrt(coords.g_y)
    return RealMat2.renormalized(sq, coords.g_x / sq, 0.0, 1.0 / sq)
