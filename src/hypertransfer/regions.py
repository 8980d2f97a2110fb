"""Analytic engine for the region integral m_hat(g_x, g_y) and its K-average.

The integration region is {x + g_x*y > -1/2} intersect {(x + g_x*y + 1)^2 +
(g_y*y)^2 > 1} intersect the fundamental domain, weighted by dx dy / y^2 and
normalized by 3/pi. Its y-section at abscissa x has an exact 1/y^2-mass, a sum
of 1/y terms at the cuts by the unit circle, the line and the slanted
ellipse. Between the breakpoints where the active cuts change, every term has
an elementary antiderivative in x (asin, log, and asin/log along the ellipse),
so m_hat and both of its partials are closed-form sums over segments for
every g_y > 0, evaluated for a whole array of points at once. The eight case
regimes survive as labels only, which no numeric path reads: clamped, the
closed form is itself exactly 1 and 0 on Cases 1 and 7. One direct route
to the value is kept as an oracle: section-exact adaptive quadrature of the
mass, which shares its cuts and breakpoints with the closed form and so
checks the antiderivatives. Monte-Carlo membership, which shares nothing with
the section model, lives in the tests. The partials have no direct route
here. The scalar entry points accept the AN shapes of operator norms up to
MAX_NORM (_check_shape). The K-average m_tilde is the mean of m_hat over the
Cartan circle, and decay's f1 is the same mean of d m_hat / d log r. Each
thing the two averages share has one function: _circle_coords gives the
circle's points with their log-r derivatives, _circle_v_angles the one
parametrisation they integrate in, and _circle_v_edges the v-segment ends
they split at."""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate, segment_edges
from .sl2 import MAX_NORM, ANCoords, RealMat2, _check_norm, operator_norm

SQRT3 = math.sqrt(3.0)
_HALF_PI = math.pi / 2.0


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
        raise DomainError(f"boundary values need g_y > 0, got {g_y!r}")
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


def classify_case(c: ANCoords) -> CaseRegime:
    """Open-interval classification; FALLBACK in the band 1/2 < g_y <= 2/sqrt(3)
    and wherever no case applies."""
    gx, gy = c.g_x, c.g_y
    if gy <= 0.5:
        bv = boundary_values(gy)
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
    if gy > 2.0 / SQRT3 and -2.0 / SQRT3 < gx < 0.0:
        return CaseRegime.CASE8
    return CaseRegime.FALLBACK


# ---------------------------------------------------------------------------
# y-sections of the region
#
# The section functions take arrays: x and (g_x, g_y) broadcast against each
# other, so one call covers every node of a quadrature round, or every
# segment of every point of a closed-form batch.


def _extent_end(gx, gy):
    """x_e = -1 + sqrt(S)/g_y, the right end of the ellipse's x-extent, free
    of cancellation as g_x^2/(g_y (sqrt(S) + g_y)). The section code writes
    the radicand g_x^2 - g_y^2 x (x + 2) as g_y^2 (x_e - x)(x_e + 2 + x),
    which is exactly 0 at x = x_e and exact near it: x_e - x has no rounding
    error there, and x_e keeps its relative accuracy near g_x = 0."""
    return (gx / gy) * (gx / (np.hypot(gx, gy) + gy))


def _section_cuts(x, gx, gy):
    """The cuts of the y-section at abscissa x and which of its four mass
    terms are active; the one place that decides which cuts bound the section.

    The cuts are (ymin, top, lo, hi): the circle height ymin, the line cut
    top (y >= top is excluded; inf when g_x >= 0) and the ellipse roots
    lo < hi (NaN where the ellipse misses the abscissa). The flags are
    boolean arrays (circle, lower, upper, line) for the terms 1/ymin, -1/lo,
    +1/hi and -1/top: the section is [ymin, lo) if lower, else [ymin, top),
    when circle, and [hi, top) when upper. Every flag is False at x = NaN.
    """
    xe = _extent_end(gx, gy)
    negative = gx < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ymin = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        top = np.where(negative, -(1.0 + 2.0 * x) / (2.0 * gx), np.inf)
        rad = (gy * (xe - x)) * (gy * (xe + 2.0 + x))
        s = gx * gx + gy * gy
        q = np.where(rad > 0.0, np.sqrt(rad), np.nan)
        shift = (x + 1.0) * gx
        lo, hi = (-q - shift) / s, (q - shift) / s
    valid = (0.0 < ymin) & (ymin < top)
    ellipse = (hi > ymin) & (lo < top)  # False where q is NaN
    cut, uncut = valid & ellipse, valid & ~ellipse
    lower, upper = cut & (ymin < lo), cut & (hi < top)
    return (ymin, top, lo, hi), (uncut | lower, lower, upper, negative & (uncut | upper))


def section_intervals(x: float, c: ANCoords) -> list[tuple[float, float]]:
    """Allowed y-intervals of the region above the circle at abscissa x; the
    upper endpoint may be math.inf."""
    _check_shape(c)
    (ymin, top, lo, hi), (circle, lower, upper, _) = _section_cuts(np.float64(x), c.g_x, c.g_y)
    segs = [(float(ymin), float(lo if lower else top))] if circle else []
    if upper:
        segs.append((float(hi), float(top)))
    return segs


def _section_mass(x, gx, gy):
    """Exact 1/y^2-mass of the allowed y-section at abscissa x."""
    (ymin, top, lo, hi), (circle, lower, upper, _) = _section_cuts(x, gx, gy)
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.where(circle, 1.0 / ymin - 1.0 / np.where(lower, lo, top), 0.0)
        return below + np.where(upper, 1.0 / hi - 1.0 / top, 0.0)  # 1/inf is 0


def _section_breakpoints(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Abscissas in (-1/2, 1/2) where the section mass of each point may kink,
    one row per point, NaN where absent: the right end -1 + ext of the
    ellipse's x-extent, the line's right crossing with the circle, its
    crossing with the ellipse, and the ellipse's crossings with the circle.
    Between two of them the set of cuts that bound the section does not
    change. (The extent's left end -1 - ext and the line's left crossing with
    the circle lie below -1/2 for every shape.)"""
    disc = np.abs(gx) * np.sqrt(3.0 + 4.0 * gx * gx)
    pts = np.column_stack(
        (
            _extent_end(gx, gy),  # ellipse x-extent
            (-1.0 + disc) / (2.0 * (gx * gx + 1.0)),  # line/circle; -1/2 at g_x = 0
            -(SQRT3 * gx + gy) / (2.0 * gy),  # line/ellipse; -1/2 at g_x = 0
            _ellipse_circle_abscissas(gx, gy),
        )
    )
    return np.where((-0.5 < pts) & (pts < 0.5), pts, np.nan)


def _ellipse_circle_abscissas(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Abscissas in (-1/2, 1/2) where the ellipse crosses the unit circle, one
    row of 4 per point, NaN where absent.

    With t = tan(phi/2) at the circle point (cos phi, sin phi), the crossing
    condition is the depressed quartic p(t) = t^4 + b t^2 + c t - 3 = 0 with
    b = 2 - 4S, c = -8 g_x and S = g_x^2 + g_y^2. Ferrari's factorisation
    writes p as (t^2 - s t + k + e)(t^2 + s t + k - e), with m >= 0 the
    largest root of the resolvent 8m((b/2 + m)^2 + 3) = c^2, k = b/2 + m,
    s = sqrt(2m) and e = sign(c) sqrt(k^2 + 3). Each quadratic's real roots
    are taken free of cancellation. A complex pair within 1e-6 of the real
    axis (discriminant at least -4e-12) gives its real part as a spare
    breakpoint: a spare breakpoint costs one segment, a missed one a kink
    inside a segment.

    One Newton step on p in u = (1 - t)/(1 + t), whose coefficients are
    exact in g_x and S, finishes each real root and gives a crossing near
    x = 2u/(1 + u^2) = 0 its relative accuracy (at g_x = 0 it lies at
    -g_y^2/2, left of the extent's end 0). The step is kept only where it
    lowers |p| (at a near-double root p' is dust and the step can jump
    away). x in (-1/2, 1/2) is |u| < 2 - sqrt(3). Only points with S < 10
    are solved: a crossing needs g_x in (-2.89, 0.58) and g_y < 2/sqrt(3),
    and the screen keeps b^3 finite.
    """
    out = np.full((len(gx), 4), np.nan)
    gx2 = gx * gx
    big_s = gx2 + gy * gy
    rows = np.flatnonzero(big_s < 10.0)
    gx, gx2, big_s = gx[rows], gx2[rows], big_s[rows]
    b = 2.0 - 4.0 * big_s
    b2 = b * b
    # m = z - b/3, z the largest root of the resolvent in depressed form
    # z^3 + (3 - b^2/12) z - b^3/108 - b - c^2/8
    z = _largest_cubic_root(3.0 - b2 / 12.0, -b * (b2 / 108.0 + 1.0) - 8.0 * gx2)
    # z - b/3 cancels where m is tiny; there m = c^2/(2 b^2 + 24) (1 + O(m))
    small = 32.0 * gx2 / (b2 + 12.0)
    m = np.where(small < 1e-8, small, np.maximum(z - b / 3.0, 0.0))
    k, s = 0.5 * b + m, np.sqrt(2.0 * m)
    e = np.copysign(np.sqrt(k * k + 3.0), -gx)
    # the two factors t^2 + lin t + const
    lin, const = np.column_stack((-s, s)), np.column_stack((k + e, k - e))
    disc = lin * lin - 4.0 * const
    gxc, sc = gx[:, None], big_s[:, None]
    spare = (-4e-12 <= disc) & (disc < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        big = -0.5 * (lin + np.copysign(np.sqrt(disc), lin))  # NaN where disc < 0
        ts = np.concatenate((np.where(spare, -0.5 * lin, big), const / big), axis=1)
        us = (1.0 - ts) / (1.0 + ts)
        # p(t) (1 + u)^4/(-4) at t = (1 - u)/(1 + u)
        a4, a3, a2, a1 = sc - 2.0 * gxc, 4.0 * (1.0 - gxc), 4.0 - 2.0 * sc, 4.0 * (1.0 + gxc)
        a0 = sc + 2.0 * gxc

        def quartic(u):
            return (((a4 * u + a3) * u + a2) * u + a1) * u + a0

        res = quartic(us)
        newton = us - res / (((4.0 * a4 * us + 3.0 * a3) * us + 2.0 * a2) * us + a1)
        better = np.abs(quartic(newton)) < np.abs(res)
        better[:, :2] &= ~spare
        us = np.where(better, newton, us)
        out[rows] = np.where(np.abs(us) < 2.0 - SQRT3, 2.0 * us / (1.0 + us * us), np.nan)
    return out


def _largest_cubic_root(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Largest real root of t^3 + p t + q: the first trigonometric root when
    there are three, Cardano in its cancellation-free form when there is one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 2.0 * np.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        three = (p < 0.0) & (np.abs(arg) <= 1.0)
        trig = m * np.cos(np.arccos(np.where(three, arg, 0.0)) / 3.0)
        d = np.sqrt(np.maximum(0.25 * q * q + p * p * p / 27.0, 0.0))
        big = -np.copysign(np.cbrt(0.5 * np.abs(q) + d), q)
        one = np.where(big != 0.0, big - p / (3.0 * big), 0.0)
    return np.where(three, trig, one)


# ---------------------------------------------------------------------------
# closed-form evaluator (valid for every g_y > 0)


def _ellipse_antiderivative(x, gx, gy, xe):
    """(ln lo, ln hi, a) at x: the x-antiderivatives of d/dg_x and d/dg_y of
    the ellipse-root terms of the section mass, -1/lo and +1/hi.

    With u = x + 1, S = g_x^2 + g_y^2 and a = asin(g_y u/sqrt(S)), a root
    y = (+-q - u g_x)/S contributes -+ln y to d/dg_x and a to d/dg_y (on the
    ellipse dy/dg_x = y dy/dx), and the term +-1/y itself integrates to g_x
    times the first plus g_y times the second, up to a constant. The
    radicand g_y^2 (x_e - x)(x_e + 2 + x) is exactly 0 at the extent's end
    x_e (see _extent_end). Where the ellipse misses x, the logarithms are NaN
    or -inf.
    """
    u = x + 1.0
    r = np.sqrt(np.maximum((xe - x) * (xe + 2.0 + x), 0.0))
    q = gy * r
    s = gx * gx + gy * gy
    # lo * hi = x (x + 2)/S; take the root free of cancellation from q
    left = gx <= 0.0
    big = np.where(left, q, -q) - u * gx
    with np.errstate(divide="ignore", invalid="ignore"):
        other, root = x * (x + 2.0) / big, big / s
        lo, hi = np.where(left, other, root), np.where(left, root, other)
        return np.log(lo), np.log(hi), np.arctan2(u, r)


def _section_segments(gx: np.ndarray, gy: np.ndarray):
    """(edges, live, flags), one row per point: the segments of (-1/2, 1/2)
    between its _section_breakpoints, padded to one width with the NaN of
    each absent breakpoint (sorted last), live marking the segments of
    positive width, and the _section_cuts flags at their midpoints, which
    hold on the whole segment and are all False on a NaN edge."""
    ends = np.full(len(gx), 0.5)
    edges = np.sort(np.column_stack((-ends, _section_breakpoints(gx, gy), ends)), axis=1)
    a, b = edges[:, :-1], edges[:, 1:]
    _, flags = _section_cuts(0.5 * (a + b), gx[:, None], gy[:, None])
    return edges, a < b, flags


def _closed_form(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_hat, d m_hat/d g_x, d m_hat/d g_y) at arrays of (g_x, g_y), as sums
    of antiderivative differences over the _section_segments.

    On a segment the active terms of the section mass do not change.
    1/ymin = 1/sqrt(1 - x^2) integrates to asin x, the line
    term -1/top = 2 g_x/(1 + 2x) to g_x ln(1 + 2x), and the root terms are in
    _ellipse_antiderivative; every antiderivative is evaluated once per edge.
    The mass is continuous in x, so the motion of the segment edges adds
    nothing to the partials. No active term is singular: a root term has
    y > ymin >= sqrt(3)/2, and the line term 1 + 2x > sqrt(3)|g_x|, which
    also floors the logarithm against rounding.
    """
    gx, gy = np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)
    edges, _, (circle, lower, upper, line) = _section_segments(gx, gy)
    gxc, gyc = gx[:, None], gy[:, None]
    asin = np.arcsin(edges)
    floor = -SQRT3 * gxc
    with np.errstate(divide="ignore"):
        log_line = np.log(np.maximum(1.0 + 2.0 * edges, floor))
    log_lo, log_hi, ellipse_asin = _ellipse_antiderivative(edges, gxc, gyc, _extent_end(gxc, gyc))
    # a segment with both root terms active takes ellipse_asin twice
    roots = np.add(lower, upper, dtype=float)

    def ellipse_at(end):  # the root terms' antiderivatives at one end of each segment
        dgx = np.where(lower, log_lo[:, end], 0.0) - np.where(upper, log_hi[:, end], 0.0)
        return dgx, ellipse_asin[:, end] * roots

    (bx, by), (ax, ay) = ellipse_at(np.s_[1:]), ellipse_at(np.s_[:-1])
    ellipse = lower | upper
    with np.errstate(invalid="ignore"):  # the masked-out differences of -inf
        arc = np.where(circle, asin[:, 1:] - asin[:, :-1], 0.0).sum(axis=1)
        dgx = (
            np.where(line, log_line[:, 1:] - log_line[:, :-1], 0.0)
            + np.where(ellipse, bx - ax, 0.0)
        ).sum(axis=1)
        dgy = np.where(ellipse, by - ay, 0.0).sum(axis=1)
    pref = 3.0 / math.pi
    return pref * (arc + gx * dgx + gy * dgy), pref * dgx, pref * dgy


def _m_hat_closed_form(c: ANCoords) -> tuple[float, float, float]:
    """_closed_form at one point, as floats."""
    _check_shape(c)
    value, dgx, dgy = _closed_form(np.array([c.g_x]), np.array([c.g_y]))
    return float(value[0]), float(dgx[0]), float(dgy[0])


def m_hat_case(c: ANCoords) -> float:
    """m_hat(g_x, g_y) in closed form, clamped: exactly 1 and 0 on Cases 1 and 7."""
    return float(_clamp_unit(_m_hat_closed_form(c)[0]))


# the benchmark tracer wraps this name (perfbench/spans.py); no path calls it
_m_hat_case_known = m_hat_case


def _clamp_unit(v):
    # rounding may overshoot [0, 1] by dust only; works on arrays
    return np.where((-1e-6 < v) & (v < 0.0), 0.0, np.where((1.0 < v) & (v < 1.0 + 1e-6), 1.0, v))


def m_hat_partials(c: ANCoords) -> tuple[float, float]:
    """(d m_hat/d g_x, d m_hat/d g_y) in closed form; valid for every g_y > 0."""
    return _m_hat_closed_form(c)[1:]


def m_hat_dgx(c: ANCoords) -> float:
    """d m_hat/d g_x in closed form; valid for every g_y > 0."""
    return m_hat_partials(c)[0]


def m_hat_dgy(c: ANCoords) -> float:
    """d m_hat/d g_y in closed form; valid for every g_y > 0."""
    return m_hat_partials(c)[1]


# ---------------------------------------------------------------------------
# direct oracle (valid for every g_y > 0)


def _section_integral(gx: float, gy: float, breaks: np.ndarray, q: QuadratureConfig) -> float:
    """3/pi times the integral of _section_mass over x in (-1/2, 1/2), split
    at the point's row of _section_breakpoints, in one integrate call.

    Two shapes fool the error estimate of plain Gauss-Kronrod, and both are
    mapped away here. The line term -1/top = 2 g_x/(1 + 2x) has its pole at
    x = -1/2, a distance d left of the line's crossing with the circle (the
    row's second entry), where the section starts; for small |g_x| it is a
    spike of width d that no node of a wide segment sees, so the points
    -1/2 + d 4^k grade the segments after the crossing (without them the
    rule missed the closed form by 1.4e-7 near g_x = 0 at g_y ~ 800). Near
    the ellipse's extent end x_e its two roots differ by a multiple of
    sqrt(x_e - x), so the mass has a square-root end there; where x_e lies
    inside, the integral is taken in s with x = x_e + s|s| (dx = 2|s| ds),
    split at s = 0, which makes both ends smooth: at the identity's (0, 1)
    the direct value is exactly 1 only with it, and on a random sample of
    shapes it cut the default target's worst miss against the closed form
    from 2.8e-8 to 5.4e-9."""
    pts = [float(p) for p in breaks if not math.isnan(p)]
    if gx < 0.0 and not math.isnan(breaks[1]):
        grade = 4.0 * (float(breaks[1]) + 0.5)
        while grade < 1.0:
            pts.append(grade - 0.5)
            grade *= 4.0
    xe = float(_extent_end(gx, gy))
    if -0.5 < xe < 0.5:
        v, _ = integrate(
            lambda s: _section_mass(xe + s * np.abs(s), gx, gy) * 2.0 * np.abs(s),
            -math.sqrt(xe + 0.5),
            math.sqrt(0.5 - xe),
            q,
            points=[0.0] + [math.copysign(math.sqrt(abs(p - xe)), p - xe) for p in pts],
        )
    else:
        v, _ = integrate(lambda x: _section_mass(x, gx, gy), -0.5, 0.5, q, points=pts)
    return v * 3.0 / math.pi


def m_hat_direct(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Region integral by section-exact x-quadrature."""
    _check_shape(c)
    breaks = _section_breakpoints(np.array([c.g_x]), np.array([c.g_y]))[0]
    return float(_clamp_unit(_section_integral(c.g_x, c.g_y, breaks, q)))


# ---------------------------------------------------------------------------
# K-averaged symbol


def _circle_coords(r: float, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g_x, g_y) arrays of the Iwasawa AN part of rotation(theta) @ diag(r, 1/r)
    at an array of angles, followed by their derivatives in log r at fixed
    theta: with den = cos^2 + r^4 sin^2, d g_x / d log r = 4 r^4 sin cos / den^2
    and d g_y / d log r = 2 g_y (cos^2 - r^4 sin^2) / den."""
    r4 = r ** 4
    st, ct = np.sin(theta), np.cos(theta)
    den = ct * ct + r4 * st * st
    gx, gy = (r4 - 1.0) * st * ct / den, r * r / den
    return gx, gy, 4.0 * r4 * st * ct / (den * den), 2.0 * gy * (ct * ct - r4 * st * st) / den


def m_hat_at_angle(
    r: float,
    theta: np.ndarray,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    force_direct: bool = False,
) -> np.ndarray:
    """m_hat along the Cartan circle at an array of angles: the closed form in
    one batch, or with force_direct m_hat_direct at each angle."""
    gx, gy, _, _ = _circle_coords(r, theta)
    if force_direct:
        return np.array([m_hat_direct(ANCoords(x, y), q) for x, y in zip(gx, gy)])
    return _clamp_unit(_closed_form(gx, gy)[0])


def _transition_quadratics(r: float) -> dict[str, tuple[float, float, float]]:
    """(a, b, c) with a t^2 + b t + c = 0 at t = tan(theta) on each case
    boundary of boundary_values where a section breakpoint reaches an end of
    (-1/2, 1/2), along the Cartan circle of norm r: with R = r^4,
    g_x = (R - 1) t/(1 + R t^2), g_y = r^2 (1 + t^2)/(1 + R t^2) and
    g_x^2 + g_y^2 = (R + t^2)/(1 + R t^2). On b2 and b7 the ellipse crosses
    the circle at x = -1/2 and 1/2, on b3 (g_x = 0) the line enters, on b5
    the ellipse's extent ends at x = 1/2, and on b6 and b8 the line crosses
    the ellipse and the circle there. b2 and b7 are squared, so their roots
    include the other branch's. b4 and g_y = 1/2 change only the label."""
    big_r, r2 = r ** 4, r * r
    k, h = 2.0 / SQRT3, math.sqrt(5.0) / 2.0
    return {
        "b2": (1.0, -k, -1.0),  # over R - 1: theta = pi/3, -pi/6 for every r != 1
        "b3": (1.0, 0.0, 0.0),  # g_x = 0, which is b9 too
        "b5": (h * r2, big_r - 1.0, h * r2),
        "b6": (k * r2, big_r - 1.0, k * r2),
        "b7": (1.0 + 5.0 * big_r / 3.0, 2.0 * SQRT3 * (big_r - 1.0), big_r + 5.0 / 3.0),
        "b8": (k * big_r, big_r - 1.0, k),
    }


def _meeting_thetas(r: float) -> dict[str, float]:
    """Angles in [-pi/2, pi/2] where two section breakpoints cross inside
    (-1/2, 1/2) along the Cartan circle of norm r, by label: T for the
    triple meeting, Xlo and Xhi for the sextic's roots below and above
    _ROOT_SPLIT.

    The circle of norm r is the Euclidean circle g_x^2 + g_y^2 + 1 = c g_y
    with c = r^2 + 1/r^2 (the same for 1/r, whose circle is the circle of r
    turned by pi/2). Each crossing, derived in sympy and checked against a
    cut-sequence scan, is a curve in (g_x, g_y) parametrised by the abscissa
    x of the meeting, and lies on the circle where a function of x alone
    equals c:
    - at the line's crossing with the ellipse, the other ellipse root lies
      on the unit circle at (x, w), w = sqrt(1 - x^2): k = -g_x/g_y =
      (2x + 1)/sqrt(3), g_y = sqrt(3) D/(2 w Q) with D = x (x + 2),
      Q = x^2 + x + 1, and 2 (3x^3 + 4x^2 + x + 1)/(sqrt(3) w D) = c, a
      sextic (_root_on_circle);
    - the line, the circle and the ellipse meet in one point, for
      2 < c < 10/3, at t = tan(theta) = 1/(sqrt(3) rho) with rho =
      min(r, 1/r)^2: k = sqrt(3)(1 - rho^2)/(3 rho^2 + 1) and
      g_y = (3 rho^2 + 1)/(4 rho).
    The sextic's function of x falls from infinity at x = 0 to a least value
    at _ROOT_SPLIT (mpmath) and rises to x = 1/2, so the sextic, which has
    the sign of the function minus c, has one root on each side of the split
    where its value there is negative; each is found by _bracketed_root.
    An angle is 1/2 atan2 of sin 2 theta and cos 2 theta, 2 rho k and
    2 rho/g_y - 1 - rho^2 (for r < 1; negated, which turns it by -pi/2, for
    r > 1), which keeps angles near 0 and +-pi/2 to full precision.

    The ellipse's extent end meets the unit circle too, but it only touches
    it, and that needs no angle: the new segment of the section grows like
    the square of the distance and the mass it holds like the cube, so
    m_hat is twice differentiable across a touch, and no arc bordering one
    is constant."""
    rho = min(r, 1.0 / r) ** 2
    if rho == 1.0:
        return {}
    c = rho + 1.0 / rho
    events = {}  # (k, 1/g_y) of each crossing
    if c < 10.0 / 3.0:
        d = 3.0 * rho * rho + 1.0
        events["T"] = (SQRT3 * (1.0 - rho * rho) / d, 4.0 * rho / d)
    e = 1.0 / (c * c)
    coeffs = _root_on_circle(e)
    if _horner(coeffs, _ROOT_SPLIT)[0] < 0.0:
        xs = {"Xlo": _bracketed_root(coeffs, 0.0, _ROOT_SPLIT, min(math.sqrt(e / 3.0), 0.5 * _ROOT_SPLIT))}
        if _horner(coeffs, 0.5)[0] > 0.0:
            xs["Xhi"] = _bracketed_root(coeffs, _ROOT_SPLIT, 0.5, 0.5 * (_ROOT_SPLIT + 0.5))
        for label, x in xs.items():
            w, d = math.sqrt((1.0 - x) * (1.0 + x)), x * (x + 2.0)
            events[label] = ((2.0 * x + 1.0) / SQRT3, 2.0 * w * (x * x + x + 1.0) / (SQRT3 * d))
    sign = 1.0 if r < 1.0 else -1.0

    def angle(k: float, inv_gy: float) -> float:
        return 0.5 * math.atan2(sign * 2.0 * rho * k, sign * (2.0 * rho * inv_gy - 1.0 - rho * rho))

    return {label: angle(*event) for label, event in events.items()}


def _root_on_circle(e: float) -> tuple[float, ...]:
    """4 (3x^3 + 4x^2 + x + 1)^2 - 3 c^2 (1 - x^2) x^2 (x + 2)^2, over
    c^2 = 1/e, highest power of x first."""
    return (
        36.0 * e + 3.0,
        96.0 * e + 12.0,
        88.0 * e + 9.0,
        56.0 * e - 12.0,
        36.0 * e - 12.0,
        8.0 * e,
        4.0 * e,
    )


# where the function of x behind _root_on_circle is least
_ROOT_SPLIT = 0.39005556346154309


def _horner(coeffs: tuple[float, ...], x: float) -> tuple[float, float]:
    """The polynomial coeffs (highest power first) and its derivative at x."""
    p = dp = 0.0
    for a in coeffs:
        dp = dp * x + p
        p = p * x + a
    return p, dp


# the step budget of _bracketed_root
_ROOT_STEPS = 400


def _bracketed_root(coeffs: tuple[float, ...], lo: float, hi: float, x: float) -> float:
    """The root of the polynomial coeffs in (lo, hi), where it changes sign
    once, by Newton steps from x that fall back to bisection when they leave
    the bracket. Newton steps that about halve x walk a bisection back down
    to a small root: to Xlo's least root on the norm range, about 6e-77,
    that took up to 277 steps from 0.2. Past _ROOT_STEPS steps it raises
    ConvergenceError; it returns no point that is not a root."""
    rising = _horner(coeffs, lo)[0] < 0.0
    for _ in range(_ROOT_STEPS):
        p, dp = _horner(coeffs, x)
        if p == 0.0:
            return x
        lo, hi = (x, hi) if (p < 0.0) == rising else (lo, x)
        step = x - p / dp if dp != 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) <= 2e-16 * x:
            return step
        x = step
    raise ConvergenceError(f"no root of {coeffs!r} in ({lo!r}, {hi!r}) after {_ROOT_STEPS} steps")


def _tan_roots(a: float, b: float, c: float) -> list[float]:
    """Ascending angles in [-pi/2, pi/2] whose tangents solve a t^2 + b t + c = 0.
    The roots q/a and c/q, q = -(b + sign(b) sqrt(b^2 - 4ac))/2, are free of
    cancellation; atan2 of numerator and denominator keeps a root near +-pi/2
    to full precision, and a zero denominator (a root at pi/2, or none) is
    dropped. A root within an ulp of +-pi/2 still rounds onto it: a b8 root
    returns exactly pi/2 at r = 8.584e-5 and 1e-4, and a b5 or b6 root exactly
    -pi/2 at r = 1e8."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = ((q, a), (c, q))
    return sorted(math.atan2(n, d) if d > 0.0 else math.atan2(-n, -d) for n, d in roots if d != 0.0)


class _TransitionAngles(tuple):
    """The angles of case_transition_thetas, with .constant: on each arc
    between consecutive angles (from -pi/2 to pi/2), m_hat where it is
    constant, 0.0 or 1.0, else None."""

    constant: tuple[Optional[float], ...]


# c = r^2 + r^-2 at the events where the kept candidates change
_EVENTS = (
    2.9279568582575184,  # the meeting function's least value, at _ROOT_SPLIT: Xlo, Xhi born
    3.0,  # b5's double root
    math.sqrt(28.0 / 3.0),  # the double root of b6, b7 and b8
    46.0 / 15.0,  # Xhi reaches x = 1/2, and b7.0 passes b6.1
    math.sqrt(48.0 / 5.0),  # the extent end crosses (1/2, sqrt(3)/2): b5.1 meets b7.1
    10.0 / 3.0,  # T's meeting reaches x = 1/2
)
# per c-interval between _EVENTS, the kept labels (for r > 1 read b2.1 for
# b2.0), and those whose following arc has m_hat = 0
_TRANSITION_TABLE = (
    ("b2.0 b3.0 T", ""),
    ("b2.0 b3.0 T Xlo Xhi", ""),
    ("b2.0 b3.0 T Xlo Xhi b5.0 b5.1", ""),
    ("b2.0 b3.0 T Xlo Xhi b5.0 b5.1 b6.0 b6.1 b7.0 b7.1 b8.0 b8.1", "b8.0"),
    ("b2.0 b3.0 T Xlo b5.0 b5.1 b6.0 b6.1 b7.0 b7.1 b8.0 b8.1", "b7.0 b8.0"),
    ("b2.0 b3.0 T Xlo b5.0 b6.0 b6.1 b7.0 b7.1 b8.0 b8.1", "b7.0 b8.0"),
    ("b2.0 b3.0 Xlo b5.0 b6.0 b7.0 b8.1", "b7.0"),
)


@functools.lru_cache(maxsize=256)
def case_transition_thetas(r: float) -> _TransitionAngles:
    """Angles in (-pi/2, pi/2) where the cut structure of the section changes
    along theta; used as quadrature breakpoints. r must pass _check_norm.

    The candidates are labelled: bK.j is the j-th root, ascending, of
    quadratic bK of _transition_quadratics, and T, Xlo and Xhi are the
    _meeting_thetas. Which are kept depends on c = r^2 + r^-2 alone, and
    only changes at the _EVENTS, so a bisect on c picks the row of
    _TRANSITION_TABLE that names them. (The table was read off the
    midpoint cut-sequence scan that tests/reference.py keeps.) m_hat is 1
    on the arc that ends at b2.0 (b2.1 for r > 1) and 0 on the arc that
    starts at b8.0 and, from c = 46/15 on, at b7.0. A kept root that rounds
    onto +-pi/2, or a meeting root within 1e-12 of it, is an end of the
    circle: at pi/2 its outer arc goes with it, and at -pi/2 the first arc
    takes the constant of the arc it starts. Roots that round onto one
    float give one angle. A kept label with no root raises DomainError
    naming it, except within 1e-9 relative of an end of its row, where
    roots are born or reach x = 1/2. At r = 1 the circle is the one point
    (0, 1): no angle, and m_hat = 1."""
    _check_norm(r)
    arcs = [(-_HALF_PI, 1.0)]  # (start, constant) of each arc
    if r != 1.0:
        rho = min(r, 1.0 / r) ** 2
        c = rho + 1.0 / rho
        row = bisect.bisect_right(_EVENTS, c)
        kept, zero_after = _TRANSITION_TABLE[row]
        quads = _transition_quadratics(r).items()
        roots = {f"{name}.{j}": t for name, quad in quads for j, t in enumerate(_tan_roots(*quad))}
        for label, t in _meeting_thetas(r).items():
            roots[label] = t if abs(t) < _HALF_PI - 1e-12 else math.copysign(_HALF_PI, t)
        one_before = "b2.0" if r < 1.0 else "b2.1"
        points = []
        for label in kept.replace("b2.0", one_before).split():
            if label in roots:
                points.append((roots[label], label))
            elif not any(abs(c - b) <= 1e-9 * b for b in _EVENTS[max(row - 1, 0) : row + 1]):
                raise DomainError(f"no {label} root at r={r!r}, c={c!r}, where the table keeps it")
        ends = [(-_HALF_PI, ""), *sorted(points), (_HALF_PI, "")]
        arcs = [
            (a, 1.0 if right == one_before else 0.0 if left in zero_after.split() else None)
            for (a, left), (b, right) in zip(ends, ends[1:])
            if a < b
        ]
    out = _TransitionAngles(a for a, _ in arcs[1:])
    out.constant = tuple(m for _, m in arcs)
    return out


def _circle_v_angles(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, dtheta/dv) at an array of v in [-pi/2, pi/2], for the one
    parametrisation of the Cartan circle that its averages integrate in:
    theta = (pi/2) sin(v) |sin(v)|, with Jacobian pi |sin v| cos v.

    At theta = 0 and +-pi/2 the circle passes g_x = 0, where d m_hat/d g_x
    grows like log|g_x| and m_hat has the matching g_x log|g_x| term; in
    theta, bisection resolves those ends only geometrically. The Jacobian
    vanishes there and flattens them, like Sidi's sin^m endpoint
    transformations, so a few Gauss-Kronrod segments reach the target."""
    sv = np.sin(v)
    return _HALF_PI * sv * np.abs(sv), math.pi * np.abs(sv) * np.cos(v)


def _circle_v_edges(thetas: _TransitionAngles) -> np.ndarray:
    """The ascending ends, from -pi/2 to pi/2, of the v-segments every circle
    average splits at (see _circle_v_angles): segment_edges of v = 0, the
    kink of the Jacobian, and the v of each case_transition_thetas angle
    (b3's -0.0 repeats the kink)."""
    vs = (math.copysign(math.asin(math.sqrt(abs(t) / _HALF_PI)), t) for t in thetas)
    return segment_edges(-_HALF_PI, _HALF_PI, [0.0, *vs])


# (g_x^2 + g_y^2 + 1)/g_y = N^2 + N^-2 at N = MAX_NORM, with room for the
# rounding of circle points (at most 4 ulps at N = MAX_NORM)
_MAX_SHAPE = MAX_NORM * MAX_NORM * (1.0 + 1e-12)


def _check_shape(c: ANCoords) -> None:
    """Raise DomainError unless c is the AN part of an element of operator
    norm at most MAX_NORM, the range of _check_norm, so that every Cartan
    circle m_tilde_full integrates over lies inside. That norm N solves
    N^2 + N^-2 = (g_x^2 + g_y^2 + 1)/g_y. Past about N = 1e77 the squares of
    the section cuts overflow or underflow, and from |g_x|/g_y ~ 1e154 on the
    ellipse's radicand does (N^2 >= 2 |g_x|/g_y)."""
    if not c.g_x * (c.g_x / c.g_y) + c.g_y + 1.0 / c.g_y <= _MAX_SHAPE:
        raise DomainError(
            f"AN shape ({c.g_x!r}, {c.g_y!r}) is outside the supported range: "
            f"(g_x^2 + g_y^2 + 1)/g_y must be at most {MAX_NORM * MAX_NORM:g}, "
            f"as at operator norms up to {MAX_NORM:g}"
        )


def m_tilde_full(
    g: RealMat2,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    force_direct: bool = False,
) -> tuple[float, float]:
    """K-averaged symbol, the mean of m_hat over the Cartan circle, with the
    achieved quadrature error estimate.

    The mean is the ratio of two integrals in v on shared nodes (see
    _circle_v_angles), of m_hat times the Jacobian and of the Jacobian alone,
    which is pi: a constant averages to itself exactly. Both integrals keep
    the scale of a theta integral, so q's tolerances mean what they would
    there. The error is the first integral's over the second's value. The
    integrals split at _circle_v_edges."""
    r = operator_norm(g)
    _check_norm(r)

    def integrand(v: np.ndarray) -> np.ndarray:
        theta, jac = _circle_v_angles(v)
        return np.stack((m_hat_at_angle(r, theta, q, force_direct) * jac, jac))

    edges = _circle_v_edges(case_transition_thetas(r))
    val, err = integrate(integrand, -_HALF_PI, _HALF_PI, q, points=edges)
    return float(_clamp_unit(val[0] / val[1])), float(err[0] / val[1])


def m_tilde(g: RealMat2) -> float:
    """The value of m_tilde_full(g) at the default tolerances."""
    return m_tilde_full(g)[0]
