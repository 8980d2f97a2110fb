"""The independent routes the tests hold the package against, in one module.

Every test that compares a package value with a second route takes that
route from here, and only this module under tests/ imports mpmath or scipy
(tests/test_reference.py scans the test modules for both). The module has no
test_ prefix, so pytest does not collect it; the test modules import it.

Each reference's docstring states four things: the quantity it computes, the
range it is trusted over, the accuracy it reached there, and the package
code it shares. tests/test_reference.py pairs each one that holds package
code with a named mutation of that code, under which the reference's
comparison must fail: a reference that cannot fail checks nothing (mutation
testing; DeMillo, Lipton and Sayward, IEEE Computer 1978). Sampling helpers
and input constructors get no mutation.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

from hypertransfer import regions
from hypertransfer.cocycle import DomainPoint, _domain_xy, _mean_se, _rng
from hypertransfer.errors import DomainError
from hypertransfer.modular import _CIRCLE_TOL, IntMat2
from hypertransfer.regions import case_transition_thetas, m_tilde
from hypertransfer.sl2 import ANCoords, HalfPlanePoint, RealMat2, an_matrix, cartan_a, rotation

SQRT3 = math.sqrt(3.0)

# ---------------------------------------------------------------------------
# the modular group: generators and reduced words

I2 = IntMat2(1, 0, 0, 1)
S_MAT = IntMat2(0, -1, 1, 0)
T_MAT = IntMat2(1, 1, 0, 1)
R_MAT = S_MAT @ T_MAT  # (0,-1;1,1), order 3 up to sign

_LETTERS = {"S": S_MAT, "R": R_MAT, "R2": R_MAT @ R_MAT}


def reduced_words(max_letters: int) -> list[tuple[tuple[str, ...], IntMat2]]:
    """Every reduced word of PSL2(Z) = Z/2 * Z/3 with at most max_letters
    letters, S alternating with R or R2 (the normal form of Serre, Trees,
    I.4.2), the empty word first, each with its exact product.

    Quantity: the ground truth of first_letter, the word's first letter.
    Trusted: every length; the products are exact integers. Accuracy: exact;
    the 442 words of at most 12 letters give 442 distinct elements up to
    sign. Shares: IntMat2's product only."""
    out = [((), I2)]
    for n in range(1, max_letters + 1):
        for s_first in (True, False):
            slots = [("S",) if (i % 2 == 0) == s_first else ("R", "R2") for i in range(n)]
            for word in itertools.product(*slots):
                g = I2
                for letter in word:
                    g = g @ _LETTERS[letter]
                out.append((word, g))
    return out


def in_region_A(z: HalfPlanePoint) -> bool:
    """Membership in {Re z >= -1/2} intersect {|z+1| >= 1}, tolerance 1e-12.

    Quantity: whether a point lies in the region of the S-prefix tiles.
    Trusted: points farther than 1e-12 from the region's two edges.
    Accuracy: float rounding of x + 1 and a sum of squares; it agreed with
    first_letter's exact-integer probe on the images of 2i under all 105
    non-empty words of up to 8 letters. Shares: none; it reads the images
    through sl2.mobius_act."""
    if z.x < -0.5 - 1e-12:
        return False
    dx = z.x + 1.0
    return dx * dx + z.y * z.y >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# sl2


def mp_operator_norm(g: RealMat2) -> float:
    """The largest singular value of g's float entries, by a 60-digit SVD.

    Quantity: operator_norm(g). Trusted: any float entries; the tests use
    it near the identity, at norms e^(+-10^-k), k = 3 ... 12, where norm - 1
    keeps its digits. Accuracy: 60 digits before the final rounding to
    float; the package matched it to 4 ulps of 1 there. Shares: none."""
    with mpmath.workdps(60):
        m = mpmath.matrix([[g.a, g.b], [g.c, g.d]])
        return float(max(mpmath.svd_r(m, compute_uv=False)))


# ---------------------------------------------------------------------------
# regions: m_hat, its partials and the section geometry


def m_hat_mc(c: ANCoords, n: int, rng_seed: int) -> tuple[float, float]:
    """Monte-Carlo membership estimate of m_hat with its standard error.

    Quantity: m_hat(c), the share of n domain samples (x, y) whose point
    x + g_x y, g_y y lies in the region. Trusted: every shape; membership
    reads no section decomposition, no breakpoint and no antiderivative.
    Accuracy: statistical, its standard error, about 1e-3 at n = 200 000.
    Shares: the package's sampler, cocycle._rng (stream 2), _domain_xy and
    _mean_se, whose bits test_m_hat_mc_contract pins."""
    if n < 1:
        raise DomainError("need at least one sample")
    rng = _rng(rng_seed, stream=2)
    x, y = _domain_xy(rng.random(n), rng.random(n))
    shifted = x + c.g_x * y
    inside = (shifted > -0.5) & ((shifted + 1.0) ** 2 + (c.g_y * y) ** 2 > 1.0)
    return _mean_se(inside.astype(np.float64))


def companion_crossings(gx: float, gy: float) -> list[float]:
    """Abscissas in (-1/2, 1/2) where the ellipse of (g_x, g_y) crosses the
    unit circle, from numpy's companion-matrix roots of the quartic
    t^4 + (2 - 4S) t^2 - 8 g_x t - 3 in t = tan(phi/2), S = g_x^2 + g_y^2.

    Quantity: the real rows of regions._ellipse_circle_abscissas. Trusted:
    shapes with S < 10, where a crossing can lie; a complex pair within 1e-6
    of the real axis counts as one crossing. Accuracy: the finder matched it
    to 1e-12 on 2 000 log-spread shapes and at |g_x| down to 0, and to 1e-6
    within 1e-6 of a tangency. Shares: none."""
    s = gx * gx + gy * gy
    roots = np.roots([1.0, 0.0, 2.0 - 4.0 * s, -8.0 * gx, -3.0])
    ts = {t.real for t in roots if abs(t.imag) < 1e-6 and 1.0 / SQRT3 < t.real < SQRT3}
    return sorted((1.0 - t * t) / (1.0 + t * t) for t in ts)


def mp_circle_crossings(gx: float, gy: float) -> list[float]:
    """Abscissas in (-1/2, 1/2) where the ellipse of (g_x, g_y) crosses the
    unit circle: the real roots of [(1 - S) x^2 + 2x + S]^2 =
    4 g_x^2 (1 + x)^3 (1 - x), S = g_x^2 + g_y^2, by 50-digit
    mpmath.polyroots, kept where the unsquared equation
    (1 - S) x^2 + 2x + S + 2 g_x (1 + x) sqrt(1 - x^2) = 0 holds.

    Quantity: the real rows of regions._ellipse_circle_abscissas, in
    relative terms near x = 0, where companion_crossings sees them only to
    1e-12 absolute. Trusted: g_x != 0 (at g_x = 0 the squared quartic has
    double roots), away from tangencies. Accuracy: 50 digits before the
    final rounding to float; the finder matched it to 7.4e-16 relative, with
    the same count, on 300 shapes with |g_x| log-spread over [1e-14, 1] and
    g_y over [1e-3, 1.15]. Shares: none; its quartic in x shares no
    coefficient with the finder's quartics in t = tan(phi/2) and
    u = (1 - t)/(1 + t)."""
    with mpmath.workdps(50):
        gx, gy = mpmath.mpf(gx), mpmath.mpf(gy)
        s, k = gx * gx + gy * gy, 4 * gx * gx
        # P(x)^2 - 4 g_x^2 (1 + 2x - 2x^3 - x^4), P = (1 - S) x^2 + 2x + S
        coeffs = [(1 - s) ** 2 + k, 4 * (1 - s) + 2 * k, 4 + 2 * (1 - s) * s, 4 * s - 2 * k, s * s - k]
        out = []
        for root in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200):
            x = mpmath.re(root)
            if abs(mpmath.im(root)) > mpmath.mpf(10) ** -30 * max(1, abs(x)) or not -0.5 < x < 0.5:
                continue
            terms = ((1 - s) * x * x, 2 * x, s, 2 * gx * (1 + x) * mpmath.sqrt(1 - x * x))
            if abs(sum(terms)) <= mpmath.mpf(10) ** -30 * sum(map(abs, terms)):
                out.append(float(x))
        return sorted(out)


def mp_partials(gx: float, gy: float) -> tuple[float, float]:
    """(d m_hat/d g_x, d m_hat/d g_y) at 40 digits: the segment sums of the
    closed form, with every breakpoint and cut found in mpmath.

    Quantity: m_hat_partials(ANCoords(gx, gy)). Trusted: every supported
    shape, the band 1/2 < g_y <= 2/sqrt(3) and |g_x| down to 1e-13 included.
    Accuracy: 40 digits before the final rounding to float, the same floats
    as at 60 digits on 60 log-spread shapes; the package matched it to 1e-9
    on some 380 shapes. Shares: no code, only the formulas of the section
    cuts, the breakpoints and the antiderivatives, which it evaluates on its
    own."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        gx, gy = mp.mpf(gx), mp.mpf(gy)
        s = gx * gx + gy * gy
        pts = [
            -1 + mpmath.sqrt(s) / gy,
            (-1 + abs(gx) * mpmath.sqrt(3 + 4 * gx * gx)) / (2 * (gx * gx + 1)),
            -(mpmath.sqrt(3) * gx + gy) / (2 * gy),
        ]
        for t in mpmath.polyroots([1, 0, 2 - 4 * s, -8 * gx, -3], maxsteps=200, extraprec=200):
            if abs(mpmath.im(t)) < mp.mpf(10) ** -30 and mpmath.re(t) > 0:
                pts.append((1 - mpmath.re(t) ** 2) / (1 + mpmath.re(t) ** 2))
        edges = [mp.mpf(-0.5), *sorted(p for p in pts if -0.5 < p < 0.5), mp.mpf(0.5)]

        def roots(x):
            q = mpmath.sqrt(max(gx * gx - gy * gy * x * (x + 2), 0))
            return (-q - (x + 1) * gx) / s, (q - (x + 1) * gx) / s

        def ellipse_asin(x):
            return mpmath.asin(min(gy * (x + 1) / mpmath.sqrt(s), 1))

        dgx = dgy = mp.mpf(0)
        for a, b in zip(edges, edges[1:]):
            x = (a + b) / 2
            ymin = mpmath.sqrt(1 - x * x)
            top = -(1 + 2 * x) / (2 * gx) if gx < 0 else mpmath.inf
            lo, hi = roots(x)
            ellipse = gx * gx - gy * gy * x * (x + 2) > 0 and hi > ymin and lo < top
            lower, upper = ellipse and ymin < lo, ellipse and hi < top
            if gx < 0 and ymin < top and (not ellipse or upper):
                dgx += mpmath.log((1 + 2 * b) / (1 + 2 * a))
            (la, ha), (lb, hb) = roots(a), roots(b)
            if lower:
                dgx += mpmath.log(lb / la)
            if upper:
                dgx -= mpmath.log(hb / ha)
            dgy += (lower + upper) * (ellipse_asin(b) - ellipse_asin(a))
        return float(3 * dgx / mp.pi), float(3 * dgy / mp.pi)


def _mp_ellipse_root(x, gx, gy, sigma):
    # the ellipse root y_sigma at x, straight from the root formula
    u = x + 1
    s = gx * gx + gy * gy
    return (sigma * mpmath.sqrt(s - gy * gy * u * u) - u * gx) / s


def _mp_ellipse_parts(x, gx, gy, sigma):
    # the x-antiderivatives of d/dg_x and d/dg_y of sigma/y_sigma
    u = x + 1
    a = mpmath.asin(gy * u / mpmath.sqrt(gx * gx + gy * gy))
    return -sigma * mpmath.log(_mp_ellipse_root(x, gx, gy, sigma)), a


def mp_ellipse_antiderivatives(x: float, gx: float, gy: float, sigma: int):
    """The x-antiderivatives of d/dg_x and d/dg_y of the ellipse-root term
    sigma/y_sigma of the section mass at x, in 30-digit mpmath, and how far
    they are from differentiating to their integrands.

    Returns None where the root y_sigma is not real and positive at x. Else
    ((-sigma ln y_sigma, asin(g_y (x + 1)/sqrt(S))) as floats, residual):
    residual is the largest of the relative misses of d/dx of each
    antiderivative against d/dg_x and d/dg_y of sigma/y_sigma (mpmath.diff
    of the root formula) and of g_x and g_y times them against
    sigma/y_sigma itself, each over max(1, |want|).

    Quantity: regions._ellipse_antiderivative's ln lo (sigma = -1) or
    -ln hi (sigma = 1) and its arcsine. Trusted: x in (-1/2, 1/2), g_x in
    (-1.5, 1), g_y in (0.1, 1.5), where the root is real and positive.
    Accuracy: residual below 1e-20 on 40 such points; the package matched
    the values to 1e-12 relative there. Shares: none."""
    mp = mpmath.mp
    with mpmath.workdps(30):
        x, gx, gy = mp.mpf(x), mp.mpf(gx), mp.mpf(gy)
        u = x + 1
        if gy * gy * u * u >= gx * gx + gy * gy or _mp_ellipse_root(x, gx, gy, sigma) <= 0:
            return None
        integrand = sigma / _mp_ellipse_root(x, gx, gy, sigma)
        d_gx = mpmath.diff(lambda g: sigma / _mp_ellipse_root(x, g, gy, sigma), gx)
        d_gy = mpmath.diff(lambda g: sigma / _mp_ellipse_root(x, gx, g, sigma), gy)
        px = mpmath.diff(lambda t: _mp_ellipse_parts(t, gx, gy, sigma)[0], x)
        py = mpmath.diff(lambda t: _mp_ellipse_parts(t, gx, gy, sigma)[1], x)
        misses = (
            (px, d_gx),
            (py, d_gy),
            (gx * px + gy * py, integrand),
        )
        residual = max(abs(got - want) / max(1, abs(want)) for got, want in misses)
        parts = tuple(float(p) for p in _mp_ellipse_parts(x, gx, gy, sigma))
        return parts, float(residual)


def mp_circle_and_line_residual(xs: tuple[str, ...], gx: str) -> float:
    """The largest miss, at 30 digits, of d/dx asin(x) against
    1/sqrt(1 - x^2) and of d/dx g_x ln(1 + 2x) against 2 g_x/(1 + 2x), at the
    decimal abscissas xs and the decimal g_x.

    Quantity: a check of the circle and line antiderivatives that
    regions._closed_form evaluates inline. Trusted: x in (-1/2, 1/2).
    Accuracy: below 1e-25 at x = -0.4, 0.1 and 0.45. Shares: none, and it
    holds no package code: it checks the formulas only, so no mutation of
    the package can reach it."""
    worst = 0.0
    with mpmath.workdps(30):
        g = mpmath.mpf(gx)
        for x in map(mpmath.mpf, xs):
            arc = mpmath.diff(mpmath.asin, x) - 1 / mpmath.sqrt(1 - x * x)
            line = mpmath.diff(lambda t: g * mpmath.log(1 + 2 * t), x) - 2 * g / (1 + 2 * x)
            worst = max(worst, float(abs(arc)), float(abs(line)))
    return worst


def mp_root_split() -> float:
    """The least point on (0, 1/2) of
    2 (3x^3 + 4x^2 + x + 1)/(sqrt(3) sqrt(1 - x^2) x (x + 2)), the function
    of x behind regions._root_on_circle, by mpmath.findroot of its
    derivative at 40 digits from 0.39.

    Quantity: regions._ROOT_SPLIT. Trusted: the one minimiser on (0, 1/2).
    Accuracy: 0.39005556346154308928..., which rounds to the constant
    exactly. Shares: none."""
    with mpmath.workdps(40):

        def meeting(x):
            return 2 * (3 * x**3 + 4 * x**2 + x + 1) / (
                mpmath.sqrt(3) * mpmath.sqrt(1 - x**2) * x * (x + 2)
            )

        return float(mpmath.findroot(lambda x: mpmath.diff(meeting, x), 0.39))


def transition_residuals(gx: float, gy: float) -> list[float]:
    """At (g_x, g_y), one function per curve where the section's cut
    structure can change, each 0 on its curve: the case boundaries
    classify_case switches on (g_y = 1/2 and 2/sqrt(3), and b2 to b8 of
    boundary_values), and the crossings of two section breakpoints that
    regions._meeting_thetas solves (the line, the circle and the ellipse
    through one point, and the other ellipse root on the circle at the
    line's ellipse crossing).

    Quantity: whether an angle of case_transition_thetas lies on one of
    those curves. Trusted: every shape with g_y > 0. Accuracy: a few ulps
    of the shape's size; every returned angle at r = 0.05, 0.1, 0.3 and 10
    was a zero within 1e-12 or the change one ulp of theta makes (3.6e-11
    at r = 0.05). Shares: none."""
    s = gx * gx + gy * gy
    x = -0.5 - SQRT3 * gx / (2.0 * gy)
    other = -2.0 * (x + 1.0) * gx / s - SQRT3 / (2.0 * gy)
    return [
        gy - 0.5,
        gy - 2.0 / SQRT3,
        s + 2.0 * gx / SQRT3 - 1.0,
        gx,
        s + 2.0 * gx,
        gx + math.sqrt(5.0) * gy / 2.0,
        gx + 2.0 * gy / SQRT3,
        s + 2.0 * SQRT3 * gx + 5.0 / 3.0,
        gx + 2.0 / SQRT3,
        3.0 * gy * gy - 2.0 * SQRT3 * gx * gy - 3.0 * gx * gx - 3.0,
        x * x + other * other - 1.0,
    ]


# where (1 + x)(1 + 2x)/(sqrt(1 - x^2) sqrt(x (x + 2))) is least on (0, 1/2) (mpmath)
_TOUCH_SPLIT = 0.22668159690567747


def _touch_cubic(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    # (1 + x)(1 + 2x)^2 - c^2 (1 - x) x (x + 2), over c^2 = 1/e
    return (((1.0 + 4.0 * e) * x + (1.0 + 8.0 * e)) * x + (5.0 * e - 2.0)) * x + e


def _bisect(e: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of _touch_cubic in each bracket (lo, hi), where it changes sign
    once, by bisection down to adjacent floats: 1 100 halvings reach any
    float64 root from a bracket in [0, 1/2]."""
    positive = _touch_cubic(e, lo) > 0.0
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        left = (_touch_cubic(e, mid) > 0.0) == positive
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return np.where(np.abs(_touch_cubic(e, lo)) <= np.abs(_touch_cubic(e, hi)), lo, hi)


def extent_touch_thetas(radii) -> list[list[float]]:
    """For each norm r in radii, the ascending angles in [-pi/2, pi/2] where
    the ellipse's extent end touches the unit circle along the Cartan circle
    of norm r.

    That circle is g_x^2 + g_y^2 + 1 = c g_y with c = r^2 + r^-2. The extent
    end lies on the unit circle at (x, w), w = sqrt(1 - x^2), where
    k = -g_x/g_y = sqrt(x (x + 2)), g_y = k/(w (1 + x)) and
    (1 + x)(1 + 2x)/(w k) = c, which is where _touch_cubic vanishes. That
    function of x falls from infinity at x = 0 to its least value at
    _TOUCH_SPLIT and rises to x = 1/2, so the cubic has at most one root on
    each side of the split. An angle is 1/2 atan2 of sin 2 theta and
    cos 2 theta, 2 rho k and 2 rho/g_y - 1 - rho^2 with rho = min(r, 1/r)^2
    (negated for r > 1, which turns it by -pi/2).

    Quantity: the touches, which case_transition_thetas leaves out and
    whose arcs it must not call constant. Trusted: the whole norm range
    [1e-38, 1e38]. Accuracy: each root to adjacent floats in x; the angles
    agreed to 1e-6 with a 20 000-angle cut-sequence scan at five norms.
    Shares: none."""
    r = np.asarray(radii, dtype=float)
    rho = np.minimum(r, 1.0 / r) ** 2
    c = rho + 1.0 / rho
    e = 1.0 / (c * c)
    split, end = np.full_like(e, _TOUCH_SPLIT), np.full_like(e, 0.5)
    dips = (_touch_cubic(e, split) < 0.0) & (rho < 1.0)
    roots = (
        (_bisect(e, np.zeros_like(e), split), dips),
        (_bisect(e, split, end), dips & (_touch_cubic(e, end) > 0.0)),
    )
    sign = np.where(r < 1.0, 1.0, -1.0)
    out = []
    for x, present in roots:
        w, k = np.sqrt((1.0 - x) * (1.0 + x)), np.sqrt(x * (x + 2.0))
        inv_gy = w * (1.0 + x) / k
        theta = 0.5 * np.arctan2(sign * 2.0 * rho * k, sign * (2.0 * rho * inv_gy - 1.0 - rho * rho))
        out.append(np.where(present, theta, np.nan))
    return [sorted(float(t) for t in row if not math.isnan(t)) for row in np.column_stack(out)]


# ---------------------------------------------------------------------------
# regions: the transition table of the Cartan circle


def mp_xlo_angle(r: float) -> float:
    """The angle of the meeting Xlo on the Cartan circle of norm r < 1, at
    50 digits: the root x nearest 1/(sqrt(3) c), c = r^2 + r^-2, of
    4 (3x^3 + 4x^2 + x + 1)^2 = 3 c^2 (1 - x^2) x^2 (x + 2)^2, found in
    u = sqrt(3) c x, where the equation reads 4 - 4u^2 + O(x) at every
    scale, and then 1/2 atan2(2 rho k, 2 rho/g_y - 1 - rho^2), rho = r^2,
    with k and g_y of the crossing as in regions._meeting_thetas.

    Quantity: regions._meeting_thetas(r)["Xlo"]. Trusted: r from 1e-38 to
    about 0.6. Accuracy: 50 digits of the exact equation at the float r.
    Shares: none; the sextic is formed here from its definition."""
    with mpmath.workdps(50):
        rho = mpmath.mpf(r) ** 2
        c = rho + 1 / rho
        sqrt3 = mpmath.sqrt(3)

        def sextic(u):
            x = u / (sqrt3 * c)
            return 4 * (3 * x**3 + 4 * x**2 + x + 1) ** 2 - u**2 * (1 - x**2) * (x + 2) ** 2

        x = mpmath.findroot(sextic, 1) / (sqrt3 * c)
        k = (2 * x + 1) / sqrt3
        inv_gy = 2 * mpmath.sqrt(1 - x**2) * (x * x + x + 1) / (sqrt3 * x * (x + 2))
        return float(mpmath.atan2(2 * rho * k, 2 * rho * inv_gy - 1 - rho**2) / 2)


def transition_events() -> list[float]:
    """The six values of c = r^2 + r^-2, ascending, where the kept labels of
    case_transition_thetas change, in closed form (R = r^4, so that a
    quadratic's discriminant over R is a function of c^2 = R + 2 + 1/R):
    - the least value of the meeting function behind regions._root_on_circle,
      at mp_root_split, where Xlo and Xhi are born;
    - 3: b5's discriminant (R - 1)^2 - 5R over R is c^2 - 9;
    - sqrt(28/3): b6's and b8's, (R - 1)^2 - (16/3) R over R, is
      c^2 - 28/3, and b7's, (16/3)(R + 1/R) - 352/9, too;
    - 46/15: the meeting function at x = 1/2, where Xhi leaves (-1/2, 1/2);
    - sqrt(48/5): on b5 (g_x = -sqrt(5) g_y/2) the extent end is 1/2, and b7's
      s + 2 sqrt(3) g_x + 5/3 = 0 has the double root g_y = 2 sqrt(15)/9 there,
      the corner (1/2, sqrt(3)/2); c = (S + 1)/g_y = 4 sqrt(15)/5;
    - 10/3: the triple meeting's abscissa -1/2 + sqrt(3) k/2 reaches 1/2 at
      k = 2/sqrt(3), rho = 1/3.

    Quantity: regions._EVENTS. Trusted: exact up to the rounding of each
    form. Accuracy: c_min at 40 digits (2.92795685825751850...); the others
    to an ulp. Shares: none."""
    with mpmath.workdps(40):
        x = mpmath.mpf(mp_root_split())
        least = 2 * (3 * x**3 + 4 * x**2 + x + 1) / (mpmath.sqrt(3) * mpmath.sqrt(1 - x**2) * x * (x + 2))
    return [float(least), 3.0, math.sqrt(28.0 / 3.0), 46.0 / 15.0, 4.0 * math.sqrt(15.0) / 5.0, 10.0 / 3.0]


def radius_at(c: float) -> float:
    """The norm r < 1 with r^2 + r^-2 = c >= 2: r^2 = 2/(c + sqrt(c^2 - 4)),
    free of cancellation."""
    return math.sqrt(2.0 / (c + math.sqrt(c * c - 4.0)))


def keep_rule_scan(radii) -> list[tuple[list[float], tuple]]:
    """For each norm r in radii, the transition angles and arc constants
    by the scan the table replaced. The candidates are the roots of
    regions._transition_quadratics inside (-pi/2, pi/2) and the
    regions._meeting_thetas more than 1e-12 inside it; one is kept
    where the cut sequences at the midpoints of its two gaps differ, the
    sequence being the flag code of each live segment of
    regions._section_segments, left to right, with consecutive repeats
    merged. An arc whose sequence is (0,), no cut, has m_hat = 0, and one
    whose sequence is (1,), the circle alone, 1. All midpoints go through
    one _section_segments call.

    Quantity: case_transition_thetas(r), its angles and .constant.
    Trusted: norms up to about 1e7, away from the events: within 1e-9
    relative below 4 sqrt(15)/5 its midpoint cannot split b5.1 from b7.1,
    and at r > 1 from n of about 1.08e7 it drops b6.0 one ulp off b5.0.
    Accuracy: bit for bit with the table on 20 000 log-spread norms in
    (1, 9000] at r and 1/r, near the identity and at 1e-8 relative of each
    event. Shares: the candidates' roots (_transition_quadratics, _tan_roots
    and _meeting_thetas), regions._circle_coords and
    regions._section_segments; no label, row, event or constant rule of the
    table."""
    half = math.pi / 2.0
    cands = []
    for r in map(float, radii):
        quads = regions._transition_quadratics(r).values()
        ts = {t for quad in quads for t in regions._tan_roots(*quad) if abs(t) < half}
        cands.append(sorted(ts.union(t for t in regions._meeting_thetas(r).values() if abs(t) < half - 1e-12)))
    mids, norms = [], []
    for r, ts in zip(radii, cands):
        edges = np.array([-half, *ts, half])
        mids.append(0.5 * (edges[:-1] + edges[1:]))
        norms.append(np.full(len(ts) + 1, float(r)))
    gx, gy, _, _ = regions._circle_coords(np.concatenate(norms), np.concatenate(mids))
    _, live, (circle, lower, upper, line) = regions._section_segments(gx, gy)
    codes = zip((circle + 2 * lower + 4 * upper + 8 * line).tolist(), live.tolist())
    seqs = [tuple(k for k, _ in itertools.groupby(itertools.compress(*row))) for row in codes]
    constant = {(0,): 0.0, (1,): 1.0}
    out, at = [], 0
    for ts in cands:
        arcs = seqs[at : at + len(ts) + 1]
        at += len(ts) + 1
        kept = [i for i, (left, right) in enumerate(zip(arcs, arcs[1:])) if left != right]
        out.append(([ts[i] for i in kept], tuple(constant.get(arcs[i]) for i in [0, *(i + 1 for i in kept)])))
    return out


# ---------------------------------------------------------------------------
# cocycle: domain points, elements and shadows


def random_domain_point(rng: np.random.Generator) -> DomainPoint:
    """A domain point from three uniform draws of rng: x on [-1/2, 1/2], a
    height up to ten times the arc's, and theta on [0, pi). A sampling
    helper, not a measure-exact one; it holds no package code."""
    x = float(rng.uniform(-0.5, 0.5))
    y = float(math.sqrt(1.0 - x * x) / (1.0 - rng.uniform(0.0, 0.9)))
    return DomainPoint(x, y, float(rng.uniform(0.0, math.pi)))


def closed_form_rotated(n: float, theta_a: float, theta_b: float) -> RealMat2:
    """rotation(theta_a) @ cartan_a(n) @ rotation(theta_b) from its closed-form
    entries, an input constructor. A float product of the three factors
    renormalizes and can land on another norm: the tests' products ran
    7.6e-6 relative off at norm 1e6, 1.5e-8 at 1e5 and 1.9e-6 at
    0.999 * 3e5. These entries kept operator_norm within 2.8e-16
    relative of max(n, 1/n) at 400 log-spread norms in [1e-38, 1e38].
    Shares: RealMat2's determinant check only."""
    ca, sa, cb, sb = math.cos(theta_a), math.sin(theta_a), math.cos(theta_b), math.sin(theta_b)
    return RealMat2(
        ca * n * cb - sa * sb / n,
        -ca * n * sb - sa * cb / n,
        sa * n * cb + ca * sb / n,
        -sa * n * sb + ca * cb / n,
    )


def matrix_shadow(x, y, theta, g):
    """The shadow h(i) of the matrix product h = s0 k0 g, with the sine and
    cosine of every theta.

    Quantity: cocycle._shadow_batch's (Re, Im) at x, y, tan(theta). Trusted:
    norms of g up to 1e8, rotated or not, and diagonal ones to 1e15, where
    no sample's two-round code differs from the package's shadow on
    17 x 65 536 samples. Accuracy: float rounding of the products, which
    differs from the package's Mobius form in the last bits only. Shares:
    none."""
    sy = np.sqrt(y)
    cg, sg = np.cos(theta), np.sin(theta)
    m21 = sg * g.a + cg * g.c
    m22 = sg * g.b + cg * g.d
    xs = x / sy
    h11 = sy * (cg * g.a - sg * g.c) + xs * m21
    h12 = sy * (cg * g.b - sg * g.d) + xs * m22
    h21 = m21 / sy
    h22 = m22 / sy
    den = h21 * h21 + h22 * h22
    return (h11 * h21 + h12 * h22) / den, 1.0 / den


def _mp_g_i(g: RealMat2):
    # g(i) from the entries of g, at the caller's precision
    a, b, c, d = map(mpmath.mpf, g.entries())
    den = c * c + d * d
    return mpmath.mpc((a * c + b * d) / den, 1 / den)


def mp_shadow(x, y, tau, g) -> tuple[np.ndarray, np.ndarray]:
    """The shadows x + y k0(g(i)), k0(z) = (z - tau)/(1 + tau z), in 60-digit
    mpmath from the entries of g and the given tangents tau, rounded to
    float.

    Quantity: cocycle._shadow_batch(x, y, tau, g). Trusted: the whole norm
    range, a pole of k0 on g(i) included. Accuracy: 60 digits before the
    final rounding; at the pole at norm 6e37 the package matched it to
    1e-15 relative. Shares: none."""
    zx, zy = [], []
    with mpmath.workdps(60):
        gi = _mp_g_i(g)
        for xs, ys, ts in zip(x.tolist(), y.tolist(), tau.tolist()):
            z = xs + ys * (gi - ts) / (1 + ts * gi)
            zx.append(float(z.real))
            zy.append(float(z.imag))
    return np.array(zx), np.array(zy)


def mp_two_round_codes(x, y, theta, g) -> np.ndarray:
    """The code of each sample's shadow x + y k0(g(i)), with g(i) from the
    entries of g, read off the first two rounds of its reduction in 60-digit
    mpmath.

    Quantity: modular._two_round_codes(*cocycle._shadow_batch(x, y,
    tan(theta), g))[0]. Trusted: the whole norm range [1e-38, 1e38], where
    shadows lie as low as height 1e-76; it reads the domain's circle without
    the package's _CIRCLE_TOL, so a shadow within 1e-12 of it may differ.
    Accuracy: 60 digits; the package matched it on every sample at norms
    1e20 to 1e38, diagonal and rotated. Shares: none."""
    codes = []
    with mpmath.workdps(60):
        gi = _mp_g_i(g)
        for xs, ys, ts in zip(x.tolist(), y.tolist(), theta.tolist()):
            tau = mpmath.tan(ts)
            z = xs + ys * (gi - tau) / (1 + tau * gi)
            n1 = int(mpmath.floor(z.real + 0.5))
            if n1 == 0 and abs(z) < 1:
                n2 = int(mpmath.floor((-1 / z).real + 0.5))
                codes.append(4 + (n2 > 0) - (n2 < 0))
            else:
                codes.append(1 + (n1 > 0) - (n1 < 0))
    return np.array(codes)


def _mp_cocycle(p: DomainPoint, g: RealMat2, dps: int):
    """beta, the moved point and its angle at dps digits: h = s0 k0 g from
    the float entries of an_matrix(ANCoords(p.x, p.y)), rotation(p.k0_angle)
    and g, its image of i reduced by the reduction's translation and boundary
    rule, and the sign of beta from the angle of the bottom row of
    beta^-1 h."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(_CIRCLE_TOL)
        h11, h12, h21, h22 = 1, 0, 0, 1
        for factor in (an_matrix(ANCoords(p.x, p.y)), rotation(p.k0_angle), g):
            a, b, c, d = map(mpmath.mpf, factor.entries())
            h11, h12 = h11 * a + h12 * c, h11 * b + h12 * d
            h21, h22 = h21 * a + h22 * c, h21 * b + h22 * d
        z = (h11 * mpmath.j + h12) / (h21 * mpmath.j + h22)
        x, y = z.real, z.imag
        a, b, c, d = 1, 0, 0, 1
        while True:
            n = int(mpmath.floor(x + 0.5))
            x, b, d = x - n, a * n + b, c * n + d
            rr = x * x + y * y
            if not (rr < 1 - t or (rr < 1 + t and x > 0)):
                break
            x, y = -x / rr, y / rr
            a, b, c, d = -b, a, -d, c
        gamma = IntMat2(a, b, c, d).canonical_sign()
        a, _, c, _ = gamma.entries()
        angle = mpmath.atan2(-c * h11 + a * h21, -c * h12 + a * h22)
        beta = gamma if 0 <= angle < mpmath.pi else gamma.neg()
        return beta, (float(x), float(y), float(angle - mpmath.pi * mpmath.floor(angle / mpmath.pi)))


def mp_beta(p: DomainPoint, g: RealMat2) -> IntMat2:
    """cocycle_beta(p, g).beta in mpmath, at 60 digits plus 5 per decade of
    the largest entry of g: h = s0 k0 g from the float entries of its three
    factors, reduced with the reduction's translation and boundary rule.

    Quantity: the lattice element beta. Trusted: every norm to 1e38.
    Accuracy: exact, unless a shadow lies within about 10^-digits of a side
    of the domain; twice the digits changed no beta on 120 samples at each
    of 0.999 * 3e5, 1e7, 1e15 and 1e38 (250 digits there), and the package
    matched it on 1 200 samples at each of these norms. Shares:
    modular._CIRCLE_TOL, the width of the boundary band, and sl2.an_matrix
    and sl2.rotation, whose float factors are the input of both routes."""
    digits = 60 + 5 * max(0, math.ceil(math.log10(max(map(abs, g.entries())))))
    return _mp_cocycle(p, g, digits)[0]


def mp_moved(p: DomainPoint, g: RealMat2) -> tuple[float, float, float]:
    """cocycle_beta(p, g).moved as (x, y, k0_angle), from the same
    reduction as mp_beta at 120 digits, each rounded to float.

    Quantity: the moved domain point. Trusted: norms up to 3e5, where the
    120-digit product of the float factors is exact. Accuracy: 120 digits
    before the rounding; the package lies within 1 ulp of it on 900
    samples at norms 1e3, 3e4 and 2.9e5, diagonal and rotated, where a
    float reduction of the float product was more than 1 ulp off on every
    sample, by up to 1.2e-3. Shares: as mp_beta."""
    return _mp_cocycle(p, g, 120)[1]


def fraction_reduce(x: float, y: float) -> tuple[IntMat2, float, float]:
    """reduce_to_fundamental_domain(HalfPlanePoint(x, y)) as (gamma, z0.x,
    z0.y), by the translate/invert loop on exact fractions.Fraction values:
    a translation by floor(x + 1/2), and an inversion inside the unit circle
    or, within _CIRCLE_TOL of it, at x > 0; z0 rounded once.

    Quantity: gamma with its canonical sign and z0. Trusted: every float
    input whose z0 is finite. Accuracy: exact before the final rounding.
    Shares: modular._CIRCLE_TOL, the width of the boundary band, and
    IntMat2.canonical_sign."""
    t, x, y = Fraction(_CIRCLE_TOL), Fraction(x), Fraction(y)
    a, b, c, d = 1, 0, 0, 1
    while True:
        n = math.floor(x + Fraction(1, 2))
        x, b, d = x - n, a * n + b, c * n + d
        rr = x * x + y * y
        if not (rr < 1 - t or (rr < 1 + t and x > 0)):
            return IntMat2(a, b, c, d).canonical_sign(), float(x), float(y)
        x, y = -x / rr, y / rr
        a, b, c, d = -b, a, -d, c


# ---------------------------------------------------------------------------
# decay: f1 and the Lie derivatives of m_tilde

# the basis of the Lie algebra; X3 generates the rotations
GENERATORS = {
    "X1": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "X2": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "X3": np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


def lie_exponential(direction: str, t: float) -> np.ndarray:
    """exp(t X_j) by scipy's Pade matrix exponential.

    Quantity: the one-parameter subgroups diag(e^t, e^-t), (1 t; 0 1) and
    sl2.rotation(-t). Trusted: |t| up to 2. Accuracy: within 1e-12 of the
    closed forms there. Shares: none."""
    return scipy.linalg.expm(t * GENERATORS[direction])


def lie_derivative_mtilde_fd(g: RealMat2, direction: str) -> float:
    """Central difference, step 1e-4, of the K-averaged symbol along
    g exp(t X_j).

    Quantity: the Lie derivative of m_tilde at g along X_j, at diag(r, 1/r)
    and X1 the table's f1(r). Trusted: r in about [0.1, 0.9], away from
    norm 1, where the step's O(h^2) error and m_tilde's default-target error
    over 2h stay under 1e-6. Accuracy: agreed with f1 to 4e-9 at r = 0.2.
    Shares: regions.m_tilde, the case route of the m_tilde it
    differentiates."""

    def along(t: float) -> float:
        return m_tilde(g @ RealMat2(*lie_exponential(direction, t).ravel()))

    return (along(1e-4) - along(-1e-4)) / 2e-4


def log_norm_difference(r: float) -> float:
    """Central difference, step 1e-4 in log r, of m_tilde(diag(r, 1/r)): for
    r < 1 the norm is 1/r, so this is -d m_tilde / d log n.

    Quantity: the table's f1(r). Trusted: r in about [0.1, 0.9], as
    lie_derivative_mtilde_fd. Accuracy: within 1e-6 of f1 at r = 0.2, 0.29
    and 0.5. Shares: regions.m_tilde."""
    return (m_tilde(cartan_a(r * math.exp(1e-4))) - m_tilde(cartan_a(r * math.exp(-1e-4)))) / 2e-4


def tanh_sinh_circle_average(r: float, touches: list[float], h: float = 1.0 / 64.0) -> float:
    """f1 at r by a tanh-sinh rule in theta on each arc between the
    transition angles, the touches of the ellipse's extent end with the
    circle (which the table leaves out) and theta = 0, applied to the
    closed-form partials, X1 transported by the residual rotation of the
    Iwasawa decomposition, not the log-r derivatives of the circle
    coordinates the table takes: no quadrature.integrate, no
    v-parametrisation, no grading and no arc left out. The rule's
    double-exponential thinning at both ends of an arc absorbs the log|g_x|
    terms at theta = 0 and +-pi/2 and the kinks at the transition angles.

    Quantity: decay's f1(r). Trusted: r from about 1e-10 to 0.99 in relative
    terms (h = 1/64 and h/2 differ by 0.5% at 1e-4). Accuracy: moved by at
    most 1.2e-16 when h halves or doubles on r in [1e-3, 0.99]. Shares:
    regions._closed_form, regions._circle_coords (the point only) and
    case_transition_thetas, so a fault in those moves both routes alike."""
    t = np.arange(-3.5, 3.5 + 0.5 * h, h)
    u = 0.5 * math.pi * np.sinh(t)
    gap = 1.0 / (np.exp(np.abs(u)) * np.cosh(u))  # 1 - |tanh u|, free of cancellation
    weight = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    ends = [-math.pi / 2.0, *sorted({0.0, *case_transition_thetas(r), *touches}), math.pi / 2.0]
    total = 0.0
    for a, b in zip(ends, ends[1:]):
        half = 0.5 * (b - a)
        theta = np.where(t < 0.0, a + half * gap, b - half * gap)
        gx, gy, _, _ = regions._circle_coords(r, theta)
        _, dgx, dgy = regions._closed_form(gx, gy)
        # Ad(k_rho) X1 = cos(2 rho) X1 + 2 sin(2 rho) X2 - sin(2 rho) X3
        rho2 = 2.0 * np.arctan2(r * np.sin(theta), np.cos(theta) / r)
        total += half * (weight @ (np.cos(rho2) * 2.0 * gy * dgy + 2.0 * np.sin(rho2) * gy * dgx))
    return total / math.pi


# ---------------------------------------------------------------------------
# the near-identity law: with t = log n -> 0,
#     1 - m_tilde(e^t) = SLOPE t ln(1/t) + A t + o(t),
#     f1(r) = SLOPE ln(1/ln(1/r)) + B + o(1),
# so A - B = SLOPE. Quantity: the law's coefficients. Trusted: log n in
# [1e-11, 1e-3] and r = 1 - 10^-k, k = 3 ... 9. Accuracy: A and B measured
# on the package's own routes, B = -0.14739395 +- 1e-8; their closed forms
# are not derived yet. Shares: the measured A and B come from m_tilde_full
# and decay._lie_average themselves. tests/test_range.py requires a 1% change
# to any of the three to break its bound; that is their mutation.
SLOPE = 6.0 / math.pi**2
A = 0.4605331
B = -0.14739395
