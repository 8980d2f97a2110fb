"""Analytic engine for the region integral m_hat(g_x, g_y) and its K-average.

The integration region is {x + g_x*y > -1/2} intersect {(x + g_x*y + 1)^2 +
(g_y*y)^2 > 1} intersect the fundamental domain, weighted by dx dy / y^2 and
normalized by 3/pi. Its y-section at abscissa x has an exact 1/y^2-mass, a sum
of 1/y terms at the cuts by the unit circle, the line and the slanted
ellipse. Between the breakpoints where the active cuts change, every term has
an elementary antiderivative in x (asin, log, and asin/log along the ellipse),
so m_hat and both of its partials are closed-form sums over segments for
every g_y > 0. The eight case regimes survive as labels and as the exact 1
and 0 of Cases 1 and 7. Section-exact adaptive quadrature and Monte-Carlo
membership are kept as independent oracles."""

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


def _section_cuts(
    x: float, c: ANCoords
) -> tuple[tuple[float, float, float, float, float], tuple[bool, bool, bool, bool]]:
    """The cuts of the y-section at abscissa x and which of its four mass
    terms are active; the one place that decides which cuts bound the section.

    The cuts are (ymin, top, lo, hi, q): the circle height ymin, the line cut
    top (y >= top is excluded; math.inf when g_x >= 0) and the ellipse roots
    lo < hi with q the root of the radicand (NaN where the ellipse misses the
    abscissa). The flags are (circle, lower, upper, line) for the terms 1/ymin,
    -1/lo, +1/hi and -1/top: the section is [ymin, lo) if lower, else
    [ymin, top), when circle, and [hi, top) when upper.
    """
    gx, gy = c.g_x, c.g_y
    ymin = math.sqrt(max(1.0 - x * x, 0.0))
    top = -(1.0 + 2.0 * x) / (2.0 * gx) if gx < 0.0 else math.inf
    rad = gx * gx - gy * gy * x * (x + 2.0)
    lo = hi = q = math.nan
    if rad > 0.0:
        s = gx * gx + gy * gy
        q = math.sqrt(rad)
        lo, hi = (-q - (x + 1.0) * gx) / s, (q - (x + 1.0) * gx) / s
    cuts = (ymin, top, lo, hi, q)
    if not 0.0 < ymin < top:
        return cuts, (False, False, False, False)
    if rad <= 0.0 or hi <= ymin or lo >= top:
        return cuts, (True, False, False, gx < 0.0)
    lower, upper = ymin < lo, hi < top
    return cuts, (lower, lower, upper, upper and gx < 0.0)


def section_intervals(x: float, c: ANCoords) -> list[tuple[float, float]]:
    """Allowed y-intervals of the region above the circle at abscissa x; the
    upper endpoint may be math.inf."""
    (ymin, top, lo, hi, _), (circle, lower, upper, _) = _section_cuts(x, c)
    segs = [(ymin, lo if lower else top)] if circle else []
    if upper:
        segs.append((hi, top))
    return segs


def _section_mass(x: float, c: ANCoords) -> float:
    """Exact 1/y^2-mass of the allowed y-section at abscissa x."""
    total = 0.0
    for a, b in section_intervals(x, c):
        total += 1.0 / a - 1.0 / b  # 1/inf is 0
    return total


def _section_mass_partial(x: float, c: ANCoords, wrt_gx: bool) -> float:
    """d/dg_x (wrt_gx) or d/dg_y of _section_mass at abscissa x.

    Only the active cuts other than ymin move: an ellipse root y with slope
    +-q contributes the derivative of 1/y along the ellipse, g_y/(+-q) or
    (x + g_x y + 1)/(+-q y), and the line cut 1/top = -2 g_x/(1 + 2x)
    contributes -2/(1 + 2x) to d/dg_x only.
    """
    (_, _, lo, hi, q), (circle, lower, upper, line) = _section_cuts(x, c)
    d_top = -2.0 / (1.0 + 2.0 * x) if wrt_gx and line else 0.0

    def d_root(y: float, slope: float) -> float:
        return (x + c.g_x * y + 1.0) / (slope * y) if wrt_gx else c.g_y / slope

    total = -(d_root(lo, -q) if lower else d_top) if circle else 0.0
    if upper:
        total += d_root(hi, q) - d_top
    return total


def _section_breakpoints(c: ANCoords) -> list[float]:
    """Abscissas in (-1/2, 1/2) where the section mass may kink: the ends of
    the ellipse's x-extent, the line's crossings with the circle and the
    ellipse, and the ellipse's crossings with the circle. Between two of them
    the set of cuts that bound the section does not change."""
    gx, gy = c.g_x, c.g_y
    pts: list[float] = []
    ext = math.sqrt(1.0 + gx * gx / (gy * gy))
    pts.extend((-1.0 - ext, -1.0 + ext))  # ellipse x-extent
    if gx != 0.0:
        disc = abs(gx) * math.sqrt(3.0 + 4.0 * gx * gx)
        den = 2.0 * (gx * gx + 1.0)
        pts.extend(((-1.0 - disc) / den, (-1.0 + disc) / den))  # line/circle
        pts.append(-(SQRT3 * gx + gy) / (2.0 * gy))  # line/ellipse
    pts.extend(_ellipse_circle_abscissas(c))
    return [p for p in pts if -0.5 < p < 0.5]


def _ellipse_circle_abscissas(c: ANCoords) -> list[float]:
    """Abscissas in (-1/2, 1/2) where the ellipse crosses the unit circle.

    With t = tan(phi/2) at the circle point (cos phi, sin phi), the crossing
    condition is p(t) = t^4 - (4s - 2) t^2 - 8 g_x t - 3 = 0, s = g_x^2 + g_y^2,
    and x in (-1/2, 1/2) is t in (1/sqrt(3), sqrt(3)). The real roots of
    p'(t)/4 = t^3 + (1 - 2s) t - 2 g_x cut that range into pieces where p is
    monotone, and each sign change of p on a piece is one crossing. A critical
    point where p nearly touches zero, |p| < 1e-12 |p''|/2 (a root pair within
    1e-6 of the real axis), is kept too: a spare breakpoint costs one segment,
    a missed one a kink inside a segment.
    """
    gx = c.g_x
    b2 = 2.0 - 4.0 * (gx * gx + c.g_y * c.g_y)

    def p(t: float) -> float:
        return ((t * t + b2) * t - 8.0 * gx) * t - 3.0

    def dp(t: float) -> float:
        return (4.0 * t * t + 2.0 * b2) * t - 8.0 * gx

    lo, hi = 1.0 / SQRT3, SQRT3
    crit = sorted(t for t in _depressed_cubic_roots(0.5 * b2, -2.0 * gx) if lo < t < hi)
    ts = [t for t in crit if abs(p(t)) < 1e-12 * abs(6.0 * t * t + b2)]
    knots = [lo, *crit, hi]
    for a, b in zip(knots, knots[1:]):
        fa, fb = p(a), p(b)
        if (fa < 0.0) != (fb < 0.0):
            ts.append(_bracketed_root(p, dp, a, b, fa))
    return [(1.0 - t * t) / (1.0 + t * t) for t in ts]


def _depressed_cubic_roots(p: float, q: float) -> list[float]:
    """Real roots of t^3 + p t + q: trigonometric when there are three,
    Cardano in its cancellation-free form when there is one."""
    if p < 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        if abs(arg) <= 1.0:
            phi = math.acos(arg) / 3.0
            return [m * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3)]
    d = math.sqrt(max(0.25 * q * q + p * p * p / 27.0, 0.0))
    big = -math.copysign((0.5 * abs(q) + d) ** (1.0 / 3.0), q)
    return [big - p / (3.0 * big) if big != 0.0 else 0.0]


def _bracketed_root(f, df, a: float, b: float, fa: float) -> float:
    """Root of f in [a, b], given that f(a) = fa and f(b) differ in sign:
    Newton steps, with bisection whenever a step leaves the bracket."""
    t = 0.5 * (a + b)
    for _ in range(200):
        ft = f(t)
        if ft == 0.0:
            return t
        if (ft < 0.0) == (fa < 0.0):
            a = t
        else:
            b = t
        d = df(t)
        nxt = t - ft / d if d != 0.0 else t
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - t) <= 4e-16:
            return nxt
        t = nxt
    return t


# ---------------------------------------------------------------------------
# closed-form evaluator (valid for every g_y > 0)


def _ellipse_antiderivative(
    x: float, c: ANCoords, ext: float, lower: bool, upper: bool
) -> tuple[float, float]:
    """x-antiderivatives at x of d/dg_x and d/dg_y of the ellipse-root terms
    of the section mass: -1/lo when lower, +1/hi when upper.

    With u = x + 1, S = g_x^2 + g_y^2 and a = asin(g_y u/sqrt(S)), a root
    y = (+-q - u g_x)/S contributes -+ln y to d/dg_x and a to d/dg_y (on the
    ellipse dy/dg_x = y dy/dx), and the term +-1/y itself integrates to g_x
    times the first plus g_y times the second, up to a constant. ext =
    sqrt(S)/g_y is the ellipse's x-extent about x = -1, so the radicand
    g_y^2 (ext - u)(ext + u) is exactly 0 at the extent's breakpoint.
    """
    gx = c.g_x
    u = x + 1.0
    r = math.sqrt(max((ext - u) * (ext + u), 0.0))
    q = c.g_y * r
    s = gx * gx + c.g_y * c.g_y
    # lo * hi = x (x + 2)/S; take the root free of cancellation from q
    if gx <= 0.0:
        big = q - u * gx
        lo, hi = x * (x + 2.0) / big, big / s
    else:
        big = -q - u * gx
        lo, hi = big / s, x * (x + 2.0) / big
    dgx = (math.log(lo) if lower else 0.0) - (math.log(hi) if upper else 0.0)
    return dgx, math.atan2(u, r) * (lower + upper)


def _m_hat_closed_form(c: ANCoords) -> tuple[float, float, float]:
    """(m_hat, d m_hat/d g_x, d m_hat/d g_y) as sums of antiderivative
    differences over the segments between _section_breakpoints.

    On a segment the active terms of the section mass (1/ymin, -1/lo, +1/hi
    and -1/top) do not change, so _section_cuts reads them once at its
    midpoint. 1/ymin = 1/sqrt(1 - x^2) integrates to asin x, the line
    term -1/top = 2 g_x/(1 + 2x) to g_x ln(1 + 2x), and the root terms are in
    _ellipse_antiderivative. The mass is continuous in x, so the motion of
    the segment edges adds nothing to the partials. No active term is
    singular: a root term has y > ymin >= sqrt(3)/2, and the line term
    1 + 2x > sqrt(3)|g_x|, which also floors the logarithm against rounding.
    """
    gx, gy = c.g_x, c.g_y
    ext = math.sqrt(1.0 + gx * gx / (gy * gy))
    edges = sorted({-0.5, 0.5, *_section_breakpoints(c)})
    circle = dgx = dgy = 0.0
    for a, b in zip(edges, edges[1:]):
        _, (from_circle, lower, upper, line) = _section_cuts(0.5 * (a + b), c)
        if from_circle:
            circle += math.asin(b) - math.asin(a)
        if line:
            floor = -SQRT3 * gx
            dgx += math.log(max(1.0 + 2.0 * b, floor)) - math.log(max(1.0 + 2.0 * a, floor))
        if lower or upper:
            bx, by = _ellipse_antiderivative(b, c, ext, lower, upper)
            ax, ay = _ellipse_antiderivative(a, c, ext, lower, upper)
            dgx += bx - ax
            dgy += by - ay
    pref = 3.0 / math.pi
    return pref * (circle + gx * dgx + gy * dgy), pref * dgx, pref * dgy


def m_hat_case(c: ANCoords) -> float:
    """m_hat(g_x, g_y) in closed form; valid for every g_y > 0."""
    return _m_hat_case_known(c, classify_case(c))


def _m_hat_case_known(c: ANCoords, case: CaseRegime) -> float:
    if case is CaseRegime.CASE1:
        return 1.0
    if case is CaseRegime.CASE7:
        return 0.0
    return _clamp_unit(_m_hat_closed_form(c)[0])


def _clamp_unit(v: float) -> float:
    # quadrature or rounding may overshoot [0, 1] by tolerance-level dust only
    if -1e-6 < v < 0.0:
        return 0.0
    if 1.0 < v < 1.0 + 1e-6:
        return 1.0
    return v


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


def m_hat_direct(c: ANCoords, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Region integral by section-exact x-quadrature."""
    v, _ = integrate(lambda x: _section_mass(x, c), -0.5, 0.5, q, points=_section_breakpoints(c))
    return _clamp_unit(v * 3.0 / math.pi)


def _m_hat_direct_partial(c: ANCoords, q: QuadratureConfig, wrt_gx: bool) -> float:
    v, _ = integrate(
        lambda x: _section_mass_partial(x, c, wrt_gx),
        -0.5,
        0.5,
        q,
        points=_section_breakpoints(c),
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
    """m_hat along the Cartan circle: the closed form, or the direct oracle
    with force_direct."""
    c = iwasawa_image_coords(r, theta)
    if force_direct:
        return m_hat_direct(c, q)
    return _m_hat_case_known(c, classify_case(c))


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
        # the whole circle sits at (g_x, g_y) = (0, 1), the image of theta = 0
        return m_hat_at_angle(1.0, 0.0, q, force_direct), q.abs_tol
    pts = list(case_transition_thetas(r)) + [0.0]
    val, err = integrate(
        lambda t: m_hat_at_angle(r, t, q, force_direct), -_HALF_PI, _HALF_PI, q, points=pts
    )
    return _clamp_unit(val / math.pi), err / math.pi


def m_tilde(g: RealMat2, q: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    return m_tilde_full(g, q)[0]
