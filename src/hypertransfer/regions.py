"""Analytic engine for the region integral m_hat(g_x, g_y) and its K-average.

The integration region is {x + g_x*y > -1/2} intersect {(x + g_x*y + 1)^2 +
(g_y*y)^2 > 1} intersect the fundamental domain, weighted by dx dy / y^2 and
normalized by 3/pi. Eight parameter regimes admit explicit one-dimensional
integrals over pieces of the region boundary (a line, a slanted ellipse, the
unit circle); everything else goes through a direct section-exact integrator.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, GeometryError, RegimeError, SingularLineError
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate
from .sl2 import ANCoords, RealMat2, operator_norm

SQRT3 = math.sqrt(3.0)
_THIRD_PI = math.pi / 3.0
_HALF_PI = math.pi / 2.0
DEFAULT_HYBRID_MARGIN = 1e-6


class CaseRegime(enum.Enum):
    CASE1 = "CASE1"
    CASE2 = "CASE2"
    CASE3 = "CASE3"
    CASE4 = "CASE4"
    CASE5 = "CASE5"
    CASE6 = "CASE6"
    CASE7 = "CASE7"
    CASE8 = "CASE8"
    FALLBACK = "FALLBACK"

    @property
    def tag(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# boundary curves


def _radicand(x: float, c: ANCoords) -> float:
    return c.g_x * c.g_x - c.g_y * c.g_y * x * (x + 2.0)


def _sqrt_radicand(x: float, c: ANCoords) -> float:
    rad = _radicand(x, c)
    if rad < -1e-12:
        raise DomainError(f"ellipse radicand {rad!r} negative at x={x!r}")
    return math.sqrt(max(rad, 0.0))


def ellipse_y_upper(x: float, c: ANCoords) -> float:
    """Upper branch in y of (x + g_x y + 1)^2 + (g_y y)^2 = 1."""
    q = _sqrt_radicand(x, c)
    return (q - (x + 1.0) * c.g_x) / (c.g_x * c.g_x + c.g_y * c.g_y)


def ellipse_y_lower(x: float, c: ANCoords) -> float:
    q = _sqrt_radicand(x, c)
    return (-q - (x + 1.0) * c.g_x) / (c.g_x * c.g_x + c.g_y * c.g_y)


def _sqrt_one_minus_ysq(y: float, c: ANCoords) -> float:
    rad = 1.0 - y * y * c.g_y * c.g_y
    if rad < -1e-12:
        raise DomainError(f"ellipse radicand {rad!r} negative at y={y!r}")
    return math.sqrt(max(rad, 0.0))


def ellipse_x_right(y: float, c: ANCoords) -> float:
    """Right branch in x of the same ellipse."""
    return -y * c.g_x + _sqrt_one_minus_ysq(y, c) - 1.0


def ellipse_x_left(y: float, c: ANCoords) -> float:
    return -y * c.g_x - _sqrt_one_minus_ysq(y, c) - 1.0


def line_y(x: float, c: ANCoords) -> float:
    """y on the line x + g_x y = -1/2."""
    if abs(c.g_x) < 1e-14:
        raise SingularLineError("line boundary is vertical: |g_x| below cutoff")
    return -(1.0 + 2.0 * x) / (2.0 * c.g_x)


def line_x(y: float, c: ANCoords) -> float:
    """x on the line x + g_x y = -1/2 (equals -1/2 at y = 0)."""
    return -y * c.g_x - 0.5


# ---------------------------------------------------------------------------
# case boundaries in g_x


@dataclass(frozen=True)
class BoundaryValues:
    b2: Optional[float]
    b3: Optional[float]
    b4: Optional[float]
    b5: Optional[float]
    b6: Optional[float]
    b7: Optional[float]
    b8: float
    b9: float


def boundary_values(g_y: float) -> BoundaryValues:
    """Critical g_x values separating the case regimes. b2..b7 exist only in
    the small-g_y regime (b4 up to g_y = 1); b8, b9 always."""
    if not (math.isfinite(g_y) and g_y > 0.0):
        raise RegimeError(f"boundary values need g_y > 0, got {g_y!r}")
    small = g_y <= 0.5
    wide = math.sqrt(4.0 - 3.0 * g_y * g_y) if small else None
    return BoundaryValues(
        b2=(-1.0 + wide) / SQRT3 if small else None,
        b3=0.0 if small else None,
        b4=-1.0 + math.sqrt(1.0 - g_y * g_y) if g_y <= 1.0 else None,
        b5=-math.sqrt(5.0) * g_y / 2.0 if small else None,
        b6=-2.0 * g_y / SQRT3 if small else None,
        b7=-(3.0 - wide) / SQRT3 if small else None,
        b8=-2.0 / SQRT3,
        b9=0.0,
    )


def classify_case(c: ANCoords, hybrid_margin: float = DEFAULT_HYBRID_MARGIN) -> CaseRegime:
    """Open-interval classification; FALLBACK in the band 1/2 < g_y <= 2/sqrt(3),
    within the hybrid margin of any boundary, and wherever no case applies."""
    if hybrid_margin < 0.0:
        raise DomainError("hybrid margin must be nonnegative")
    gx, gy = c.g_x, c.g_y
    if gy <= 0.5:
        bv = boundary_values(gy)
        cuts = (bv.b2, bv.b3, bv.b4, bv.b5, bv.b6, bv.b7)
        if any(abs(gx - b) < hybrid_margin for b in cuts):
            return CaseRegime.FALLBACK
        if gx > bv.b2:
            return CaseRegime.CASE1
        if gx > bv.b3:
            return CaseRegime.CASE2
        if gx > bv.b4:
            return CaseRegime.CASE3
        if gx > bv.b5:
            return CaseRegime.CASE4
        if gx > bv.b6:
            return CaseRegime.CASE5
        if gx > bv.b7:
            return CaseRegime.CASE6
        return CaseRegime.CASE7
    if gy > 2.0 / SQRT3:
        if -2.0 / SQRT3 + hybrid_margin < gx < -hybrid_margin:
            return CaseRegime.CASE8
        return CaseRegime.FALLBACK
    return CaseRegime.FALLBACK


# ---------------------------------------------------------------------------
# intersection points


@dataclass(frozen=True)
class Intersections:
    a_x: Optional[float] = None
    a_y: Optional[float] = None
    b_x: Optional[float] = None
    b_y: Optional[float] = None
    c_y: Optional[float] = None
    d_x: Optional[float] = None


def _ellipse_circle_point(c: ANCoords) -> tuple[float, float]:
    """Ellipse/unit-circle crossing on the top arc, via the circle angle.

    Bracket: the right corner of the fundamental domain is outside the ellipse
    for g_x > b7 and the left corner inside for g_x < b2, so the sign change
    on [pi/3, 2pi/3] is guaranteed in Cases 2-6.
    """
    gx, gy = c.g_x, c.g_y

    def h(phi: float) -> float:
        x, y = math.cos(phi), math.sin(phi)
        t = x + gx * y + 1.0
        return t * t + gy * gy * y * y - 1.0

    try:
        phi = brentq(h, _THIRD_PI, 2.0 * _THIRD_PI, xtol=1e-14, rtol=8.9e-16)
    except ValueError as exc:
        raise GeometryError(f"ellipse/circle bracket failed at {c}: {exc}") from exc
    return math.cos(phi), math.sin(phi)


def intersections(c: ANCoords, case: CaseRegime) -> Intersections:
    if case is CaseRegime.FALLBACK:
        raise RegimeError("no closed-form intersections in the fallback regime")
    gx, gy = c.g_x, c.g_y
    a_x = a_y = b_x = b_y = c_y = d_x = None
    if case in (
        CaseRegime.CASE2,
        CaseRegime.CASE3,
        CaseRegime.CASE4,
        CaseRegime.CASE5,
        CaseRegime.CASE6,
    ):
        a_x, a_y = _ellipse_circle_point(c)
    if case in (CaseRegime.CASE3, CaseRegime.CASE4, CaseRegime.CASE5):
        # line/ellipse crossing: substituting x + g_x y = -1/2 into the
        # ellipse leaves (g_y y)^2 = 3/4
        b_y = SQRT3 / (2.0 * gy)
        b_x = -(SQRT3 * gx + gy) / (2.0 * gy)
    if case is CaseRegime.CASE4:
        c_y = -1.0 / gx
    if case is CaseRegime.CASE8:
        d_x = -(gx * math.sqrt(4.0 * gx * gx + 3.0) + 1.0) / (2.0 * gx * gx + 2.0)
    return Intersections(a_x=a_x, a_y=a_y, b_x=b_x, b_y=b_y, c_y=c_y, d_x=d_x)


# ---------------------------------------------------------------------------
# case integrands (all in the chart where a y-interval [p, q] weighs 1/p - 1/q)


def _inv_circle(x: float) -> float:
    return 1.0 / math.sqrt(1.0 - x * x)


def _inv_ellipse_upper(x: float, c: ANCoords) -> float:
    """1/E_y_upper in a cancellation-free form on the active x-ranges."""
    q = _sqrt_radicand(x, c)
    gx = c.g_x
    if gx >= 0.0:
        # rationalized; x(x+2) < 0 on the Case-2 range
        return -(q + (x + 1.0) * gx) / (x * (x + 2.0))
    return (gx * gx + c.g_y * c.g_y) / (q - (x + 1.0) * gx)


def _inv_ellipse_lower(x: float, c: ANCoords) -> float:
    """1/E_y_lower, rationalized; Cases 5-6 use it on x > 0 only."""
    q = _sqrt_radicand(x, c)
    return (q - (x + 1.0) * c.g_x) / (x * (x + 2.0))


def _inv_line(x: float, c: ANCoords) -> float:
    return -2.0 * c.g_x / (1.0 + 2.0 * x)


def _f_ellipse_sliver(x: float, c: ANCoords) -> float:
    # band between the circle and the ellipse top arc, signed for m_hat
    return _inv_ellipse_upper(x, c) - _inv_circle(x)


def _f_circle_to_line(x: float, c: ANCoords) -> float:
    return _inv_circle(x) - _inv_line(x, c)


def _f_circle_to_ellipse_lower(x: float, c: ANCoords) -> float:
    return _inv_circle(x) - _inv_ellipse_lower(x, c)


def _f_ellipse_upper_to_line(x: float, c: ANCoords) -> float:
    return _inv_ellipse_upper(x, c) - _inv_line(x, c)


def m_hat_case(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    case = classify_case(c)
    if case is CaseRegime.FALLBACK:
        raise RegimeError(f"no case formula at {c}; use m_hat_direct")
    return _m_hat_case_known(c, case, q)


def _m_hat_case_known(c: ANCoords, case: CaseRegime, q: QuadratureConfig) -> float:
    if case is CaseRegime.CASE1:
        return 1.0
    if case is CaseRegime.CASE7:
        return 0.0
    its = intersections(c, case)
    pref = 3.0 / math.pi
    if case is CaseRegime.CASE2:
        v, _ = integrate(lambda x: _f_ellipse_sliver(x, c), -0.5, its.a_x, q)
        return _clamp_unit(1.0 + pref * v)
    if case is CaseRegime.CASE3:
        v1, _ = integrate(lambda x: _f_circle_to_line(x, c), its.b_x, 0.5, q)
        v2, _ = integrate(lambda x: _f_ellipse_sliver(x, c), its.b_x, its.a_x, q)
        return _clamp_unit(pref * (v1 + v2))
    if case is CaseRegime.CASE4:
        v1, _ = integrate(
            lambda y: (0.5 - math.sqrt(1.0 - y * y)) / (y * y), SQRT3 / 2.0, its.a_y, q
        )
        v2, _ = integrate(
            lambda y: (0.5 - ellipse_x_right(y, c)) / (y * y), its.a_y, its.b_y, q
        )
        v3, _ = integrate(
            lambda y: (1.0 + y * c.g_x) / (y * y), its.b_y, its.c_y, q
        )
        return _clamp_unit(pref * (v1 + v2 + v3))
    if case is CaseRegime.CASE5:
        v1, _ = integrate(lambda x: _f_circle_to_ellipse_lower(x, c), its.a_x, 0.5, q)
        v2, _ = integrate(lambda x: _f_ellipse_upper_to_line(x, c), its.b_x, 0.5, q)
        return _clamp_unit(pref * (v1 + v2))
    if case is CaseRegime.CASE6:
        v1, _ = integrate(lambda x: _f_circle_to_ellipse_lower(x, c), its.a_x, 0.5, q)
        return _clamp_unit(pref * v1)
    if case is CaseRegime.CASE8:
        v1, _ = integrate(lambda x: _f_circle_to_line(x, c), its.d_x, 0.5, q)
        return _clamp_unit(pref * v1)
    raise RegimeError(f"unhandled case {case}")


def _clamp_unit(v: float) -> float:
    # quadrature may overshoot [0, 1] by tolerance-level dust only
    if -1e-6 < v < 0.0:
        return 0.0
    if 1.0 < v < 1.0 + 1e-6:
        return 1.0
    return v


# ---------------------------------------------------------------------------
# partial derivatives


def case8_dgx_factor(gx: float) -> float:
    """The Case-8 logarithm log(2(gx^2+1)/(gx(gx - sqrt(4gx^2+3)))); the
    g_x-derivative of m_hat is 3/pi times this."""
    if not (-2.0 / SQRT3 < gx < 0.0):
        raise RegimeError(f"Case-8 factor needs g_x in (-2/sqrt(3), 0), got {gx!r}")
    return math.log(
        2.0 * (gx * gx + 1.0) / (gx * (gx - math.sqrt(4.0 * gx * gx + 3.0)))
    )


def _d_sliver_dgx(x: float, c: ANCoords) -> float:
    q = _sqrt_radicand(x, c)
    return -(c.g_x / q + x + 1.0) / (x * (x + 2.0))


def _d_dgy(x: float, c: ANCoords) -> float:
    # shared by every ellipse-arc integrand: d/dg_y of 1/E_y_* is g_y/Q
    return c.g_y / _sqrt_radicand(x, c)


def _d_lower_dgx(x: float, c: ANCoords) -> float:
    q = _sqrt_radicand(x, c)
    return (-c.g_x / q + x + 1.0) / (x * (x + 2.0))


def _d_upper_line_dgx(x: float, c: ANCoords) -> float:
    q = _sqrt_radicand(x, c)
    return 2.0 / (1.0 + 2.0 * x) - (c.g_x / q + x + 1.0) / (x * (x + 2.0))


def m_hat_dgx(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    case = classify_case(c)
    if case is CaseRegime.FALLBACK:
        raise RegimeError(f"no case derivative at {c}")
    pref = 3.0 / math.pi
    if case in (CaseRegime.CASE1, CaseRegime.CASE7):
        return 0.0
    its = intersections(c, case)
    if case is CaseRegime.CASE2:
        v, _ = integrate(lambda x: _d_sliver_dgx(x, c), -0.5, its.a_x, q)
        return pref * v
    if case is CaseRegime.CASE3:
        v, _ = integrate(lambda x: _d_sliver_dgx(x, c), its.b_x, its.a_x, q)
        return pref * (math.log(2.0 / (1.0 + 2.0 * its.b_x)) + v)
    if case is CaseRegime.CASE4:
        return pref * math.log(its.c_y / its.a_y)
    if case is CaseRegime.CASE5:
        v1, _ = integrate(lambda x: _d_lower_dgx(x, c), its.a_x, 0.5, q)
        v2, _ = integrate(lambda x: _d_upper_line_dgx(x, c), its.b_x, 0.5, q)
        return pref * (v1 + v2)
    if case is CaseRegime.CASE6:
        v1, _ = integrate(lambda x: _d_lower_dgx(x, c), its.a_x, 0.5, q)
        return pref * v1
    if case is CaseRegime.CASE8:
        return pref * case8_dgx_factor(c.g_x)
    raise RegimeError(f"unhandled case {case}")


def m_hat_dgy(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    case = classify_case(c)
    if case is CaseRegime.FALLBACK:
        raise RegimeError(f"no case derivative at {c}")
    pref = 3.0 / math.pi
    if case in (CaseRegime.CASE1, CaseRegime.CASE7, CaseRegime.CASE8):
        return 0.0
    its = intersections(c, case)
    if case is CaseRegime.CASE2:
        v, _ = integrate(lambda x: _d_dgy(x, c), -0.5, its.a_x, q)
        return pref * v
    if case is CaseRegime.CASE3:
        v, _ = integrate(lambda x: _d_dgy(x, c), its.b_x, its.a_x, q)
        return pref * v
    if case is CaseRegime.CASE4:
        return pref * (_THIRD_PI - math.asin(c.g_y * its.a_y))
    if case is CaseRegime.CASE5:
        v1, _ = integrate(lambda x: _d_dgy(x, c), its.a_x, 0.5, q)
        v2, _ = integrate(lambda x: _d_dgy(x, c), its.b_x, 0.5, q)
        return pref * (v1 + v2)
    if case is CaseRegime.CASE6:
        v1, _ = integrate(lambda x: _d_dgy(x, c), its.a_x, 0.5, q)
        return pref * v1
    raise RegimeError(f"unhandled case {case}")


def m_hat_partials(
    c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE
) -> tuple[float, float]:
    return m_hat_dgx(c, q), m_hat_dgy(c, q)


# ---------------------------------------------------------------------------
# direct integrator (valid for every g_y > 0)


def _section_cuts(
    x: float, c: ANCoords
) -> tuple[float, float, Optional[tuple[float, float, float]]]:
    """The cuts of the y-section at abscissa x: the circle height ymin, the
    line cut top (y >= top is excluded; math.inf when g_x >= 0), and the
    ellipse roots (lo, hi, q) with q the root of the radicand, or None where
    the ellipse misses the abscissa."""
    ymin = math.sqrt(max(1.0 - x * x, 0.0))
    top = -(1.0 + 2.0 * x) / (2.0 * c.g_x) if c.g_x < 0.0 else math.inf
    rad = _radicand(x, c)
    if rad <= 0.0:
        return ymin, top, None
    s = c.g_x * c.g_x + c.g_y * c.g_y
    q = math.sqrt(rad)
    return ymin, top, ((-q - (x + 1.0) * c.g_x) / s, (q - (x + 1.0) * c.g_x) / s, q)


def section_intervals(x: float, c: ANCoords) -> list[tuple[float, float]]:
    """Allowed y-intervals of the region above the circle at abscissa x; the
    upper endpoint may be math.inf."""
    ymin, top, ell = _section_cuts(x, c)
    if not 0.0 < ymin < top:
        return []
    if ell is None or ell[1] <= ymin or ell[0] >= top:
        return [(ymin, top)]
    lo, hi, _ = ell
    segs: list[tuple[float, float]] = []
    if ymin < lo:
        segs.append((ymin, lo))
    if hi < top:
        segs.append((hi, top))
    return segs


def _section_mass(x: float, c: ANCoords) -> float:
    """Exact 1/y^2-mass of the allowed y-section at abscissa x."""
    total = 0.0
    for a, b in section_intervals(x, c):
        total += 1.0 / a - (0.0 if math.isinf(b) else 1.0 / b)
    return total


def _section_mass_partial(x: float, c: ANCoords, wrt_gx: bool) -> float:
    """d/dg_x (wrt_gx) or d/dg_y of _section_mass at abscissa x.

    Only the endpoints that survive the cuts of section_intervals move: ymin
    does not depend on the parameters, an ellipse root y with slope +-q
    contributes the derivative of 1/y along the ellipse, g_y/(+-q) or
    (x + g_x y + 1)/(+-q y), and the line cut 1/top = -2 g_x/(1 + 2x)
    contributes -2/(1 + 2x) to d/dg_x only.
    """
    ymin, top, ell = _section_cuts(x, c)
    if not 0.0 < ymin < top:
        return 0.0
    d_top = -2.0 / (1.0 + 2.0 * x) if wrt_gx and c.g_x < 0.0 else 0.0

    def d_root(y: float, slope: float) -> float:
        return (x + c.g_x * y + 1.0) / (slope * y) if wrt_gx else c.g_y / slope

    if ell is None or ell[1] <= ymin or ell[0] >= top:
        return -d_top
    lo, hi, q = ell
    total = 0.0
    if ymin < lo:
        total -= d_root(lo, -q)
    if hi < top:
        total += d_root(hi, q) - d_top
    return total


def _section_breakpoints(c: ANCoords) -> list[float]:
    gx, gy = c.g_x, c.g_y
    pts: list[float] = []
    ext = math.sqrt(1.0 + gx * gx / (gy * gy))
    pts.extend((-1.0 - ext, -1.0 + ext))  # ellipse x-extent
    if gx != 0.0:
        disc = abs(gx) * math.sqrt(3.0 + 4.0 * gx * gx)
        den = 2.0 * (gx * gx + 1.0)
        pts.extend(((-1.0 - disc) / den, (-1.0 + disc) / den))  # line/circle
        pts.append(-(SQRT3 * gx + gy) / (2.0 * gy))  # line/ellipse
    return [p for p in pts if -0.5 < p < 0.5]


def m_hat_mc(c: ANCoords, n: int, rng_seed: int) -> tuple[float, float]:
    """Monte-Carlo membership estimate of m_hat with its standard error; fully
    independent of the section decomposition."""
    if n < 1:
        raise DomainError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(rng_seed), 2])))
    u1 = rng.random(n)
    u2 = rng.random(n)
    x = np.sin((math.pi / 3.0) * (u1 - 0.5))
    y = np.sqrt(1.0 - x * x) / (1.0 - u2)
    shifted = x + c.g_x * y
    inside = (shifted > -0.5) & ((shifted + 1.0) ** 2 + (c.g_y * y) ** 2 > 1.0)
    vals = inside.astype(np.float64)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se


def m_hat_direct(
    c: ANCoords,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    mode: str = "adaptive2d",
    n: int = 200_000,
    rng_seed: int = 0,
) -> float:
    """Region integral by section-exact x-quadrature ("adaptive2d") or by
    Monte-Carlo membership ("montecarlo")."""
    if mode == "montecarlo":
        return m_hat_mc(c, n, rng_seed)[0]
    if mode != "adaptive2d":
        raise DomainError(f"unknown mode {mode!r}")
    v, _ = integrate(lambda x: _section_mass(x, c), -0.5, 0.5, q, points=_section_breakpoints(c))
    return _clamp_unit(v * 3.0 / math.pi)


def _ellipse_circle_abscissas(c: ANCoords) -> list[float]:
    """Abscissas in (-1/2, 1/2) where the ellipse crosses the unit circle.

    With t = tan(phi/2) at the circle point (cos phi, sin phi), the crossing
    condition is t^4 - (4s - 2) t^2 - 8 g_x t - 3 = 0, s = g_x^2 + g_y^2, and
    x in (-1/2, 1/2) is t in (1/sqrt(3), sqrt(3)). A near-tangent complex pair
    is kept too: a spare breakpoint costs one subinterval, a missed one a
    jump that the adaptive rule can misjudge.
    """
    s = c.g_x * c.g_x + c.g_y * c.g_y
    roots = np.roots([1.0, 0.0, 2.0 - 4.0 * s, -8.0 * c.g_x, -3.0])
    ts = [t.real for t in roots if abs(t.imag) < 1e-6 and 1.0 / SQRT3 < t.real < SQRT3]
    return [(1.0 - t * t) / (1.0 + t * t) for t in ts]


def _m_hat_direct_partial(c: ANCoords, q: QuadratureConfig, wrt_gx: bool) -> float:
    # the partial jumps where an ellipse root crosses the circle height, a
    # point the value's breakpoints leave out (the value only kinks there)
    v, _ = integrate(
        lambda x: _section_mass_partial(x, c, wrt_gx),
        -0.5,
        0.5,
        q,
        points=_section_breakpoints(c) + _ellipse_circle_abscissas(c),
    )
    return v * 3.0 / math.pi


def m_hat_direct_dgx(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """d m_hat / d g_x by section-exact x-quadrature; valid for every g_y > 0."""
    return _m_hat_direct_partial(c, q, wrt_gx=True)


def m_hat_direct_dgy(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """d m_hat / d g_y by section-exact x-quadrature; valid for every g_y > 0."""
    return _m_hat_direct_partial(c, q, wrt_gx=False)


# ---------------------------------------------------------------------------
# K-averaged symbol


def iwasawa_image_coords(r: float, theta: float) -> ANCoords:
    """AN coordinates of the Iwasawa AN part of rotation(theta) @ diag(r, 1/r)."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"need r > 0, got {r!r}")
    r4 = r ** 4
    st, ct = math.sin(theta), math.cos(theta)
    den = ct * ct + r4 * st * st
    return ANCoords(g_x=(r4 - 1.0) * st * ct / den, g_y=r * r / den)


def m_hat_at_angle(
    r: float,
    theta: float,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    force_direct: bool = False,
) -> float:
    """m_hat along the Cartan circle: case engine when available, direct otherwise."""
    c = iwasawa_image_coords(r, theta)
    if force_direct:
        return m_hat_direct(c, q)
    case = classify_case(c)
    if case is CaseRegime.FALLBACK:
        return m_hat_direct(c, q)
    return _m_hat_case_known(c, case, q)


@functools.lru_cache(maxsize=256)
def case_transition_thetas(r: float) -> tuple[float, ...]:
    """Angles where the case classification changes along theta, found by a
    scan plus bisection; used as quadrature breakpoints.

    The scan grid is uniform plus log-spaced clusters at 0 and +-pi/2: the
    regime where g_x sweeps its full range compresses into windows of width
    about max(r, 1/r)^(-4) against those angles, far below any uniform step.
    """
    def tag(t: float) -> str:
        return classify_case(iwasawa_image_coords(r, t), hybrid_margin=0.0).value

    eps = 1e-13
    grid = [np.linspace(-_HALF_PI + eps, _HALF_PI - eps, 720)]
    offsets = 10.0 ** -np.arange(1.0, 12.0)
    for anchor, signs in ((-_HALF_PI, (1.0,)), (0.0, (-1.0, 1.0)), (_HALF_PI, (-1.0,))):
        for s in signs:
            grid.append(anchor + s * offsets)
    ts = np.unique(np.concatenate(grid))
    tags = [tag(float(t)) for t in ts]
    pts: list[float] = []
    for i in range(len(ts) - 1):
        if tags[i] != tags[i + 1]:
            lo, hi = float(ts[i]), float(ts[i + 1])
            tlo = tags[i]
            for _ in range(55):
                mid = 0.5 * (lo + hi)
                if tag(mid) == tlo:
                    lo = mid
                else:
                    hi = mid
            pts.append(0.5 * (lo + hi))
    return tuple(pts)


def m_tilde_full(
    g: RealMat2,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    force_direct: bool = False,
) -> tuple[float, float]:
    """K-averaged symbol (1/pi) * integral of m_hat over the Cartan circle,
    with the achieved quadrature error estimate."""
    r = operator_norm(g)
    if r < 1.0 + 1e-12:
        # the whole circle sits at (g_x, g_y) = (0, 1)
        return _clamp_unit(m_hat_direct(ANCoords(0.0, 1.0), q)), q.abs_tol
    pts = list(case_transition_thetas(r)) + [0.0]
    val, err = integrate(
        lambda t: m_hat_at_angle(r, t, q, force_direct), -_HALF_PI, _HALF_PI, q, points=pts
    )
    return _clamp_unit(val / math.pi), err / math.pi


def m_tilde(g: RealMat2, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    return m_tilde_full(g, q)[0]
