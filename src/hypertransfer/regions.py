"""Analytic engine for the region integral m_hat(g_x, g_y) and its K-average.

The integration region is {x + g_x*y > -1/2} intersect {(x + g_x*y + 1)^2 +
(g_y*y)^2 > 1} intersect the fundamental domain, weighted by dx dy / y^2 and
normalized by 3/pi. Its y-section at abscissa x has an exact 1/y^2-mass, a sum
of 1/y terms at the cuts by the unit circle, the line and the slanted
ellipse. Between the breakpoints where the active cuts change, every term has
an elementary antiderivative in x (asin, log, and asin/log along the ellipse),
so m_hat and both of its partials are closed-form sums over segments for
every g_y > 0, evaluated for a whole array of points at once. The eight case
regimes survive as labels and as the exact 1 and 0 of Cases 1 and 7.
Section-exact adaptive quadrature and Monte-Carlo membership are kept as
independent oracles."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, RegimeError
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate
from .sl2 import ANCoords, RealMat2, operator_norm

SQRT3 = math.sqrt(3.0)
_HALF_PI = math.pi / 2.0
# largest operator norm m_tilde_full accepts: the discriminants of the
# transition quadratics grow like r^8 and overflow from about 2.7e38 on
MAX_NORM = 1e38


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


def _extent(gx, gy):
    """ext = sqrt(g_x^2 + g_y^2)/g_y: the ellipse spans u = x + 1 in [-ext, ext].

    The section code writes the radicand g_x^2 - g_y^2 x (x + 2) as
    g_y^2 ((ext - 1) - x)(ext + 1 + x), which is exactly 0 at the extent's
    breakpoint x_e = -1 + ext and exact near it: the difference (ext - 1) - x
    of two nearby floats has no rounding error."""
    return np.hypot(gx, gy) / gy


def _section_cuts(x, gx, gy):
    """The cuts of the y-section at abscissa x and which of its four mass
    terms are active; the one place that decides which cuts bound the section.

    The cuts are (ymin, top, lo, hi, q): the circle height ymin, the line cut
    top (y >= top is excluded; inf when g_x >= 0) and the ellipse roots
    lo < hi with q the root of the radicand (NaN where the ellipse misses the
    abscissa). The flags are boolean arrays (circle, lower, upper, line) for
    the terms 1/ymin, -1/lo, +1/hi and -1/top: the section is [ymin, lo) if
    lower, else [ymin, top), when circle, and [hi, top) when upper.
    """
    ext = _extent(gx, gy)
    with np.errstate(divide="ignore", invalid="ignore"):
        ymin = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        top = np.where(gx < 0.0, -(1.0 + 2.0 * x) / (2.0 * gx), np.inf)
        rad = (gy * ((ext - 1.0) - x)) * (gy * (ext + 1.0 + x))
        s = gx * gx + gy * gy
        q = np.where(rad > 0.0, np.sqrt(rad), np.nan)
        lo, hi = (-q - (x + 1.0) * gx) / s, (q - (x + 1.0) * gx) / s
    valid = (0.0 < ymin) & (ymin < top)
    ellipse = (hi > ymin) & (lo < top)  # False where q is NaN
    lower = valid & ellipse & (ymin < lo)
    upper = valid & ellipse & (hi < top)
    circle = valid & (~ellipse | lower)
    line = valid & (gx < 0.0) & (~ellipse | upper)
    return (ymin, top, lo, hi, q), (circle, lower, upper, line)


def section_intervals(x: float, c: ANCoords) -> list[tuple[float, float]]:
    """Allowed y-intervals of the region above the circle at abscissa x; the
    upper endpoint may be math.inf."""
    (ymin, top, lo, hi, _), (circle, lower, upper, _) = _section_cuts(
        np.float64(x), c.g_x, c.g_y
    )
    segs = [(float(ymin), float(lo if lower else top))] if circle else []
    if upper:
        segs.append((float(hi), float(top)))
    return segs


def _section_mass(x, gx, gy):
    """Exact 1/y^2-mass of the allowed y-section at abscissa x."""
    (ymin, top, lo, hi, _), (circle, lower, upper, _) = _section_cuts(x, gx, gy)
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.where(circle, 1.0 / ymin - 1.0 / np.where(lower, lo, top), 0.0)
        return below + np.where(upper, 1.0 / hi - 1.0 / top, 0.0)  # 1/inf is 0


def _section_mass_partial(x, gx, gy, wrt_gx: bool):
    """d/dg_x (wrt_gx) or d/dg_y of _section_mass at abscissa x.

    Only the active cuts other than ymin move: an ellipse root y with slope
    +-q contributes the derivative of 1/y along the ellipse, g_y/(+-q) or
    (x + g_x y + 1)/(+-q y), and the line cut 1/top = -2 g_x/(1 + 2x)
    contributes -2/(1 + 2x) to d/dg_x only.
    """
    (_, _, lo, hi, q), (circle, lower, upper, line) = _section_cuts(x, gx, gy)

    def d_root(y, slope):
        return (x + gx * y + 1.0) / (slope * y) if wrt_gx else gy / slope

    with np.errstate(divide="ignore", invalid="ignore"):
        d_top = np.where(line, -2.0 / (1.0 + 2.0 * x), 0.0) if wrt_gx else 0.0
        below = np.where(circle, -np.where(lower, d_root(lo, -q), d_top), 0.0)
        return below + np.where(upper, d_root(hi, q) - d_top, 0.0)


def _section_breakpoints(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Abscissas in (-1/2, 1/2) where the section mass of each point may kink,
    one row per point, NaN where absent: the right end -1 + ext of the
    ellipse's x-extent, the line's right crossing with the circle, its
    crossing with the ellipse, and the ellipse's crossings with the circle.
    Between two of them the set of cuts that bound the section does not
    change. (The extent's left end -1 - ext and the line's left crossing with
    the circle lie below -1/2 for every shape.)"""
    ext = _extent(gx, gy)
    disc = np.abs(gx) * np.sqrt(3.0 + 4.0 * gx * gx)
    pts = np.column_stack(
        (
            -1.0 + ext,  # ellipse x-extent
            (-1.0 + disc) / (2.0 * (gx * gx + 1.0)),  # line/circle; -1/2 at g_x = 0
            -(SQRT3 * gx + gy) / (2.0 * gy),  # line/ellipse; -1/2 at g_x = 0
            _ellipse_circle_abscissas(gx, gy),
        )
    )
    return np.where((-0.5 < pts) & (pts < 0.5), pts, np.nan)


def _crossing_quartic(t, b, gx):
    return ((t * t + b) * t - 8.0 * gx) * t - 3.0


def _ellipse_circle_abscissas(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Abscissas in (-1/2, 1/2) where the ellipse crosses the unit circle, one
    row of 4 per point, NaN where absent.

    With t = tan(phi/2) at the circle point (cos phi, sin phi), the crossing
    condition is the depressed quartic p(t) = t^4 + b t^2 + c t - 3 = 0 with
    b = 2 - 4S, c = -8 g_x and S = g_x^2 + g_y^2, and x in (-1/2, 1/2) is
    t in (1/sqrt(3), sqrt(3)). Ferrari's factorisation writes p as
    (t^2 - s t + k + e)(t^2 + s t + k - e), with m >= 0 the largest root of
    the resolvent 8m((b/2 + m)^2 + 3) = c^2, k = b/2 + m, s = sqrt(2m) and
    e = sign(c) sqrt(k^2 + 3). Each quadratic's real roots are taken free of
    cancellation. A complex pair within 1e-6 of the real axis (discriminant
    at least -4e-12) gives its real part as a spare breakpoint: a spare
    breakpoint costs one segment, a missed one a kink inside a segment. m
    loses relative accuracy where c^2 is far below eps |b|^3; one Newton step
    on p restores the real roots, and is kept only where it lowers |p| (at a
    near-double root p' is dust and the step can jump away). Only points with
    S < 10 are solved: a crossing needs g_x in (-2.89, 0.58) and
    g_y < 2/sqrt(3), and the screen keeps b^3 finite.
    """
    out = np.full((len(gx), 4), np.nan)
    big_s = gx * gx + gy * gy
    rows = np.flatnonzero(big_s < 10.0)
    gx, b = gx[rows], 2.0 - 4.0 * big_s[rows]
    # m = z - b/3, z the largest root of the resolvent in depressed form
    # z^3 + (3 - b^2/12) z - b^3/108 - b - c^2/8
    z = _depressed_cubic_roots(3.0 - b * b / 12.0, -b * (b * b / 108.0 + 1.0) - 8.0 * gx * gx)
    m = np.maximum(np.fmax.reduce(z, axis=1) - b / 3.0, 0.0)
    k, s = 0.5 * b + m, np.sqrt(2.0 * m)
    e = np.copysign(np.sqrt(k * k + 3.0), -gx)
    # the two factors t^2 + lin t + const
    lin, const = np.column_stack((-s, s)), np.column_stack((k + e, k - e))
    disc = lin * lin - 4.0 * const
    bc, gxc = b[:, None], gx[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        big = -0.5 * (lin + np.copysign(np.sqrt(disc), lin))  # NaN where disc < 0
        ts = np.column_stack((big, const / big))
        p = _crossing_quartic(ts, bc, gxc)
        newton = ts - p / ((4.0 * ts * ts + 2.0 * bc) * ts - 8.0 * gxc)
        ts = np.where(np.abs(_crossing_quartic(newton, bc, gxc)) < np.abs(p), newton, ts)
    spare = (-4e-12 <= disc) & (disc < 0.0)
    ts[:, :2] = np.where(spare, -0.5 * lin, ts[:, :2])
    ts = np.where((1.0 / SQRT3 < ts) & (ts < SQRT3), ts, np.nan)
    out[rows] = (1.0 - ts * ts) / (1.0 + ts * ts)
    return out


def _depressed_cubic_roots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Real roots of t^3 + p t + q, one row of 3 per (p, q), NaN-padded:
    trigonometric when there are three, Cardano in its cancellation-free form
    when there is one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 2.0 * np.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        three = (p < 0.0) & (np.abs(arg) <= 1.0)
        phi = np.arccos(np.where(three, arg, 0.0)) / 3.0
        trig = m[:, None] * np.cos(phi[:, None] - 2.0 * np.pi * np.arange(3) / 3.0)
        d = np.sqrt(np.maximum(0.25 * q * q + p * p * p / 27.0, 0.0))
        big = -np.copysign(np.cbrt(0.5 * np.abs(q) + d), q)
        one = np.where(big != 0.0, big - p / (3.0 * big), 0.0)
    single = np.column_stack((one, np.full_like(one, np.nan), np.full_like(one, np.nan)))
    return np.where(three[:, None], trig, single)


# ---------------------------------------------------------------------------
# closed-form evaluator (valid for every g_y > 0)


def _ellipse_antiderivative(x, gx, gy, ext):
    """(ln lo, ln hi, a) at x: the x-antiderivatives of d/dg_x and d/dg_y of
    the ellipse-root terms of the section mass, -1/lo and +1/hi.

    With u = x + 1, S = g_x^2 + g_y^2 and a = asin(g_y u/sqrt(S)), a root
    y = (+-q - u g_x)/S contributes -+ln y to d/dg_x and a to d/dg_y (on the
    ellipse dy/dg_x = y dy/dx), and the term +-1/y itself integrates to g_x
    times the first plus g_y times the second, up to a constant. ext =
    sqrt(S)/g_y is the ellipse's x-extent about x = -1, so the radicand
    g_y^2 ((ext - 1) - x)(ext + u) is exactly 0 at the extent's breakpoint
    (see _extent). Where the ellipse misses x, the logarithms are NaN or -inf.
    """
    u = x + 1.0
    r = np.sqrt(np.maximum(((ext - 1.0) - x) * (ext + u), 0.0))
    q = gy * r
    s = gx * gx + gy * gy
    # lo * hi = x (x + 2)/S; take the root free of cancellation from q
    big = np.where(gx <= 0.0, q - u * gx, -q - u * gx)
    with np.errstate(divide="ignore", invalid="ignore"):
        other = x * (x + 2.0) / big
        lo, hi = np.where(gx <= 0.0, other, big / s), np.where(gx <= 0.0, big / s, other)
        return np.log(lo), np.log(hi), np.arctan2(u, r)


def _closed_form(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_hat, d m_hat/d g_x, d m_hat/d g_y) at arrays of (g_x, g_y), as sums
    of antiderivative differences over the segments between
    _section_breakpoints.

    On a segment the active terms of the section mass (1/ymin, -1/lo, +1/hi
    and -1/top) do not change, so _section_cuts reads them once at its
    midpoint. 1/ymin = 1/sqrt(1 - x^2) integrates to asin x, the line
    term -1/top = 2 g_x/(1 + 2x) to g_x ln(1 + 2x), and the root terms are in
    _ellipse_antiderivative; every antiderivative is evaluated once per edge.
    The mass is continuous in x, so the motion of the segment edges adds
    nothing to the partials. No active term is singular: a root term has
    y > ymin >= sqrt(3)/2, and the line term 1 + 2x > sqrt(3)|g_x|, which
    also floors the logarithm against rounding. Every point's edges are
    padded to one width with zero-length segments at x = 1/2, which add
    nothing.
    """
    gx, gy = np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)
    inner = _section_breakpoints(gx, gy)
    n = len(gx)
    ends = np.full(n, 0.5)
    edges = np.column_stack((-ends, np.where(np.isnan(inner), 0.5, inner), ends))
    edges.sort(axis=1)
    a, b = edges[:, :-1], edges[:, 1:]
    gxc, gyc = gx[:, None], gy[:, None]
    _, (circle, lower, upper, line) = _section_cuts(0.5 * (a + b), gxc, gyc)
    live = a < b
    lower, upper = lower & live, upper & live
    asin = np.arcsin(edges)
    floor = -SQRT3 * gxc
    with np.errstate(divide="ignore"):
        log_line = np.log(np.maximum(1.0 + 2.0 * edges, floor))
    log_lo, log_hi, ellipse_asin = _ellipse_antiderivative(edges, gxc, gyc, _extent(gxc, gyc))
    # a segment with both root terms active takes ellipse_asin twice
    roots = np.add(lower, upper, dtype=float)

    def ellipse_at(end):  # the root terms' antiderivatives at one end of each segment
        dgx = np.where(lower, log_lo[:, end], 0.0) - np.where(upper, log_hi[:, end], 0.0)
        return dgx, ellipse_asin[:, end] * roots

    (bx, by), (ax, ay) = ellipse_at(np.s_[1:]), ellipse_at(np.s_[:-1])
    ellipse = lower | upper
    with np.errstate(invalid="ignore"):  # the masked-out differences of -inf
        arc = np.where(circle & live, asin[:, 1:] - asin[:, :-1], 0.0).sum(axis=1)
        dgx = (
            np.where(line & live, log_line[:, 1:] - log_line[:, :-1], 0.0)
            + np.where(ellipse, bx - ax, 0.0)
        ).sum(axis=1)
        dgy = np.where(ellipse, by - ay, 0.0).sum(axis=1)
    pref = 3.0 / math.pi
    return pref * (arc + gx * dgx + gy * dgy), pref * dgx, pref * dgy


def _m_hat_closed_form(c: ANCoords) -> tuple[float, float, float]:
    """_closed_form at one point, as floats."""
    value, dgx, dgy = _closed_form(np.array([c.g_x]), np.array([c.g_y]))
    return float(value[0]), float(dgx[0]), float(dgy[0])


def m_hat_case(c: ANCoords) -> float:
    """m_hat(g_x, g_y) in closed form; valid for every g_y > 0."""
    return _m_hat_case_known(c, classify_case(c))


def _m_hat_case_known(c: ANCoords, case: CaseRegime) -> float:
    if case is CaseRegime.CASE1:
        return 1.0
    if case is CaseRegime.CASE7:
        return 0.0
    return float(_clamp_unit(_m_hat_closed_form(c)[0]))


def _clamp_unit(v):
    # rounding may overshoot [0, 1] by dust only; works on arrays
    return np.where((-1e-6 < v) & (v < 0.0), 0.0, np.where((1.0 < v) & (v < 1.0 + 1e-6), 1.0, v))


def m_hat_partials(c: ANCoords) -> tuple[float, float]:
    """(d m_hat/d g_x, d m_hat/d g_y) in closed form; valid for every g_y > 0."""
    if classify_case(c) in (CaseRegime.CASE1, CaseRegime.CASE7):
        return 0.0, 0.0
    _, dgx, dgy = _m_hat_closed_form(c)
    return dgx, dgy


def m_hat_dgx(c: ANCoords) -> float:
    """d m_hat/d g_x in closed form; valid for every g_y > 0."""
    return m_hat_partials(c)[0]


def m_hat_dgy(c: ANCoords) -> float:
    """d m_hat/d g_y in closed form; valid for every g_y > 0."""
    return m_hat_partials(c)[1]


# ---------------------------------------------------------------------------
# direct oracles (valid for every g_y > 0)


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


def _section_integral(f, gx: float, gy: float, breaks: np.ndarray, q: QuadratureConfig) -> float:
    """3/pi times the integral of f(x, g_x, g_y) over x in (-1/2, 1/2), split
    at the point's row of _section_breakpoints.

    Two shapes fool the error estimate of plain Gauss-Kronrod, and both are
    mapped away here. The line term -1/top = 2 g_x/(1 + 2x) has its pole at
    x = -1/2, a distance d left of the line's crossing with the circle, where
    the section starts; for small |g_x| it is a spike of width d that no node
    of a wide segment sees, so the points -1/2 + d 4^k grade the segments
    after the crossing. The partials of the section mass have inverse-square-
    root ends at the ellipse's extent x_e = -1 + ext; where x_e lies inside,
    each side of it is integrated in s with x = x_e -+ s^2 (dx = 2s ds), which
    makes those ends smooth."""
    pts = [float(p) for p in breaks if not math.isnan(p)]
    if gx < 0.0:
        grade = 4.0 * (gx * gx + abs(gx) * math.sqrt(3.0 + 4.0 * gx * gx)) / (2.0 * (gx * gx + 1.0))
        while grade < 1.0:
            pts.append(grade - 0.5)
            grade *= 4.0
    xe = -1.0 + float(_extent(gx, gy))
    if not -0.5 < xe < 0.5:
        v, _ = integrate(lambda x: f(x, gx, gy), -0.5, 0.5, q, points=pts)
        return v * 3.0 / math.pi
    total = 0.0
    for sign, end in ((-1.0, -0.5), (1.0, 0.5)):
        side = [math.sqrt(sign * (p - xe)) for p in pts if sign * (p - xe) > 0.0]
        v, _ = integrate(
            lambda s, sign=sign: f(xe + sign * s * s, gx, gy) * 2.0 * s,
            0.0,
            math.sqrt(sign * (end - xe)),
            q,
            points=side,
        )
        total += v
    return total * 3.0 / math.pi


def m_hat_direct(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Region integral by section-exact x-quadrature."""
    breaks = _section_breakpoints(np.array([c.g_x]), np.array([c.g_y]))[0]
    return float(_clamp_unit(_section_integral(_section_mass, c.g_x, c.g_y, breaks, q)))


def _m_hat_direct_partial(c: ANCoords, q: QuadratureConfig, wrt_gx: bool) -> float:
    breaks = _section_breakpoints(np.array([c.g_x]), np.array([c.g_y]))[0]
    f = functools.partial(_section_mass_partial, wrt_gx=wrt_gx)
    return _section_integral(f, c.g_x, c.g_y, breaks, q)


def m_hat_direct_dgx(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """d m_hat / d g_x by section-exact x-quadrature; valid for every g_y > 0."""
    return _m_hat_direct_partial(c, q, wrt_gx=True)


def m_hat_direct_dgy(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """d m_hat / d g_y by section-exact x-quadrature; valid for every g_y > 0."""
    return _m_hat_direct_partial(c, q, wrt_gx=False)


# ---------------------------------------------------------------------------
# K-averaged symbol


def _circle_coords(r: float, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g_x, g_y) arrays of the Iwasawa AN part of rotation(theta) @ diag(r, 1/r)
    at an array of angles."""
    r4 = r ** 4
    st, ct = np.sin(theta), np.cos(theta)
    den = ct * ct + r4 * st * st
    return (r4 - 1.0) * st * ct / den, r * r / den


def iwasawa_image_coords(r: float, theta: float) -> ANCoords:
    """AN coordinates of the Iwasawa AN part of rotation(theta) @ diag(r, 1/r)."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"need r > 0, got {r!r}")
    gx, gy = _circle_coords(float(r), np.float64(theta))
    return ANCoords(g_x=gx, g_y=gy)


def m_hat_at_angle(
    r: float,
    theta: np.ndarray,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    force_direct: bool = False,
) -> np.ndarray:
    """m_hat along the Cartan circle at an array of angles: the closed form in
    one batch, or with force_direct the direct oracle at each angle, with the
    section breakpoints of all angles found in one batch."""
    gx, gy = _circle_coords(r, theta)
    if force_direct:
        breaks = _section_breakpoints(gx, gy)
        return _clamp_unit(
            np.array([_section_integral(_section_mass, *point, q) for point in zip(gx, gy, breaks)])
        )
    return _clamp_unit(_closed_form(gx, gy)[0])


def _transition_quadratics(r: float) -> dict[str, tuple[float, float, float]]:
    """(a, b, c) with a t^2 + b t + c = 0 at t = tan(theta) on each curve that
    classify_case switches on, along the Cartan circle of norm r:
    with R = r^4, g_x = (R - 1) t/(1 + R t^2), g_y = r^2 (1 + t^2)/(1 + R t^2)
    and g_x^2 + g_y^2 = (R + t^2)/(1 + R t^2). The square-root boundaries b2,
    b4 and b7 are squared, so their roots include the other branch's."""
    big_r, r2 = r ** 4, r * r
    k, h = 2.0 / SQRT3, math.sqrt(5.0) / 2.0
    return {
        "g_y=1/2": (r2 - 0.5 * big_r, 0.0, r2 - 0.5),
        "g_y=2/sqrt3": (r2 - k * big_r, 0.0, r2 - k),
        "b2": (1.0, -k, -1.0),  # over R - 1: theta = pi/3, -pi/6 for every r != 1
        "b3": (1.0, 0.0, 0.0),  # g_x = 0, which is b9 too
        "b4": (1.0, 2.0 * (big_r - 1.0), big_r),
        "b5": (h * r2, big_r - 1.0, h * r2),
        "b6": (k * r2, big_r - 1.0, k * r2),
        "b7": (1.0 + 5.0 * big_r / 3.0, 2.0 * SQRT3 * (big_r - 1.0), big_r + 5.0 / 3.0),
        "b8": (k * big_r, big_r - 1.0, k),
    }


def _tan_roots(a: float, b: float, c: float) -> list[float]:
    """Ascending angles in (-pi/2, pi/2) whose tangents solve a t^2 + b t + c = 0.
    The roots q/a and c/q, q = -(b + sign(b) sqrt(b^2 - 4ac))/2, are free of
    cancellation; atan2 of numerator and denominator keeps a root near pi/2 to
    full precision, and a zero denominator (a root at pi/2, or none) is dropped."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = ((q, a), (c, q))
    return sorted(math.atan2(n, d) if d > 0.0 else math.atan2(-n, -d) for n, d in roots if d != 0.0)


@functools.lru_cache(maxsize=256)
def case_transition_thetas(r: float) -> tuple[float, ...]:
    """Angles in (-pi/2, pi/2) where the case classification changes along
    theta; used as quadrature breakpoints. Every such angle is a root of
    _transition_quadratics, so the tag is constant between neighbouring roots;
    a root is kept where the tags at the midpoints of its two gaps differ."""
    cands = sorted({t for quad in _transition_quadratics(r).values() for t in _tan_roots(*quad)})
    edges = [-_HALF_PI, *cands, _HALF_PI]
    tags = [
        classify_case(iwasawa_image_coords(r, 0.5 * (lo + hi))) for lo, hi in zip(edges, edges[1:])
    ]
    return tuple(t for t, left, right in zip(cands, tags, tags[1:]) if left is not right)


def m_tilde_full(
    g: RealMat2,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    force_direct: bool = False,
) -> tuple[float, float]:
    """K-averaged symbol (1/pi) * integral of m_hat over the Cartan circle,
    with the achieved quadrature error estimate."""
    r = operator_norm(g)
    if not r <= MAX_NORM:
        raise DomainError(
            f"operator norm {r!r} is outside the supported range [1, {MAX_NORM:g}] "
            f"(diag(r, 1/r) needs r in [{1.0 / MAX_NORM:g}, {MAX_NORM:g}])"
        )
    if r < 1.0 + 1e-12:
        # the whole circle sits at (g_x, g_y) = (0, 1)
        c = ANCoords(0.0, 1.0)
        return (m_hat_direct(c, q) if force_direct else m_hat_case(c)), q.abs_tol
    pts = list(case_transition_thetas(r)) + [0.0]
    val, err = integrate(
        lambda t: m_hat_at_angle(r, t, q, force_direct), -_HALF_PI, _HALF_PI, q, points=pts
    )
    return float(_clamp_unit(val / math.pi)), err / math.pi


def m_tilde(g: RealMat2, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    return m_tilde_full(g, q)[0]
