"""2x2 real determinant-one matrices: Mobius action on the upper half-plane,
Iwasawa and Cartan decompositions, operator norm, AN coordinates.

Everything here is closed-form 2x2 algebra; no general linear-algebra routines
are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_DET_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


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


@dataclass(frozen=True)
class IwasawaParts:
    """g = s @ k with s upper triangular (positive diagonal) and k = rotation(theta)."""

    s: RealMat2
    k: RealMat2
    theta: float


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


def iwasawa_decompose(g: RealMat2) -> IwasawaParts:
    """Unique g = s @ rotation(theta) with s upper triangular, diag > 0,
    theta in [0, 2*pi). Closed form: theta = atan2(c, d)."""
    h = math.hypot(g.c, g.d)
    theta = math.atan2(g.c, g.d)
    if theta < 0.0:
        theta += _TWO_PI
    s = RealMat2.renormalized(1.0 / h, (g.a * g.c + g.b * g.d) / h, 0.0, h)
    return IwasawaParts(s=s, k=rotation(theta), theta=theta)


def operator_norm(g: RealMat2) -> float:
    """Largest singular value; equals max(r, 1/r) on diag(r, 1/r).

    With det = 1 the squared singular values solve s + 1/s = tr(g^T g), so no
    SVD is needed.
    """
    t = g.a * g.a + g.b * g.b + g.c * g.c + g.d * g.d
    if not math.isinf(t * t):
        return math.sqrt(0.5 * (t + math.sqrt(max(t * t - 4.0, 0.0))))
    # past norm ~1e77 t^2 (or t) overflows; there the norm is sqrt(t) to
    # rounding, taken on entries scaled by the largest. Only this path
    # scales, so every other input keeps its bits.
    s = max(abs(g.a), abs(g.b), abs(g.c), abs(g.d))
    a, b, c, d = g.a / s, g.b / s, g.c / s, g.d / s
    return s * math.sqrt(a * a + b * b + c * c + d * d)


def an_coords(g_in_an: RealMat2) -> ANCoords:
    """(g_x, g_y) of an upper-triangular positive-diagonal element."""
    if abs(g_in_an.c) > 1e-12 or g_in_an.a <= 0.0 or g_in_an.d <= 0.0:
        raise DomainError(f"not an AN element: {g_in_an}")
    return ANCoords(g_x=g_in_an.b * g_in_an.a, g_y=g_in_an.a * g_in_an.a)


def an_matrix(coords: ANCoords) -> RealMat2:
    sq = math.sqrt(coords.g_y)
    return RealMat2.renormalized(sq, coords.g_x / sq, 0.0, 1.0 / sq)
