"""Region-integral engine: case classification, the section cuts and the
ellipse/unit-circle crossings, the closed-form m_hat with partials and its
antiderivatives, the direct 2-D oracles, the closed-form case-transition
angles, and the angle-averaged m_tilde."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import hypertransfer.regions as regions
from hypertransfer.decay import theta_boundaries
from hypertransfer.errors import AccuracyError, DomainError, RegimeError
from hypertransfer.quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from hypertransfer.regions import (
    CaseRegime,
    _ellipse_antiderivative,
    _ellipse_circle_abscissas,
    _m_hat_closed_form,
    boundary_values,
    case_transition_thetas,
    classify_case,
    iwasawa_image_coords,
    m_hat_case,
    m_hat_direct,
    m_hat_direct_dgx,
    m_hat_direct_dgy,
    m_hat_dgx,
    m_hat_dgy,
    m_hat_mc,
    m_hat_partials,
    m_tilde,
    m_tilde_full,
    section_intervals,
)
from hypertransfer.sl2 import ANCoords, RealMat2, an_coords, cartan_a, iwasawa_decompose, rotation

SQRT3 = math.sqrt(3.0)

# Midpoints of the case windows at g_y in {0.1, 0.3} (cases 2-6) and two
# abscissas inside the large-g_y window (case 8), frozen with their values and
# partials after a four-way cross-check (case form, section-exact direct
# integral, Monte-Carlo membership, central differences).
FROZEN_CASE_TABLE = [
    (+0.286505996296, 0.1, "CASE2", 0.933236776178, +0.542611628, +0.070791439),
    (-0.002506281447, 0.1, "CASE3", 0.578494539907, +5.719033867, +0.904347460),
    (-0.058407980884, 0.1, "CASE4", 0.381002291552, +2.713649039, +0.904483717),
    (-0.113636726356, 0.1, "CASE5", 0.250790484380, +1.853460222, +0.647627831),
    (-0.348579299812, 0.1, "CASE6", 0.042961411009, +0.418234181, +0.049998358),
    (+0.268849154861, 0.3, "CASE2", 0.949446161572, +0.416024105, +0.160588068),
    (-0.023030399292, 0.3, "CASE3", 0.651774269323, +3.601235563, +0.709119469),
    (-0.190735497604, 0.3, "CASE4", 0.272296206274, +1.592150450, +0.712153856),
    (-0.340910179069, 0.3, "CASE5", 0.077644875274, +0.839078886, +0.464150202),
    (-0.481706195085, 0.3, "CASE6", 0.014557624331, +0.234385124, +0.076837815),
    (-0.288675134595, 1.2, "CASE8", 0.360910627258, +1.209766095, 0.0),
    (-0.866025403784, 1.2, "CASE8", 0.024833759711, +0.189067473, 0.0),
    (-0.288675134595, 2.0, "CASE8", 0.360910627258, +1.209766095, 0.0),
    (-0.866025403784, 2.0, "CASE8", 0.024833759711, +0.189067473, 0.0),
]

FROZEN_M_TILDE = {0.1: 0.500089570700, 0.2: 0.501097857385, 0.5: 0.527502748974}


def crossings(c: ANCoords) -> list[float]:
    # the batched crossing finder at one point, without its NaN padding
    xs = _ellipse_circle_abscissas(np.array([c.g_x]), np.array([c.g_y]))[0]
    return sorted(float(x) for x in xs if not math.isnan(x))


def ellipse_residual(x: float, y: float, c: ANCoords) -> float:
    return (x + c.g_x * y + 1.0) ** 2 + (c.g_y * y) ** 2 - 1.0


def test_boundary_values_examples():
    bv = boundary_values(0.5)
    assert abs(bv.b2 - (-1.0 + math.sqrt(13.0) / 2.0) / SQRT3) < 1e-14
    assert abs(bv.b2 - 0.46349) < 1e-5
    assert abs(bv.b6 + 1.0 / SQRT3) < 1e-14
    for gy in (0.05, 0.4, 1.0, 3.0):
        got = boundary_values(gy)
        assert got.b8 == -2.0 / SQRT3 and got.b9 == 0.0
    assert boundary_values(0.7).b2 is None
    assert boundary_values(0.7).b4 is not None  # b4 extends to g_y = 1
    assert boundary_values(1.2).b4 is None
    with pytest.raises(RegimeError):
        boundary_values(0.0)
    with pytest.raises(RegimeError):
        boundary_values(-1.0)


def test_boundary_values_ordering():
    for gy in np.linspace(0.01, 0.5, 40):
        bv = boundary_values(float(gy))
        seq = [bv.b2, bv.b3, bv.b4, bv.b5, bv.b6, bv.b7]
        assert all(u > v for u, v in zip(seq, seq[1:]))


def test_classify_examples():
    assert classify_case(ANCoords(1.0, 0.3)) is CaseRegime.CASE1
    assert classify_case(ANCoords(-5.0, 0.3)) is CaseRegime.CASE7
    assert classify_case(ANCoords(0.0, 1.0)) is CaseRegime.FALLBACK
    assert classify_case(ANCoords(-0.5, 1.5)) is CaseRegime.CASE8
    assert classify_case(ANCoords(0.5, 1.5)) is CaseRegime.FALLBACK
    assert classify_case(ANCoords(-2.0, 1.5)) is CaseRegime.FALLBACK


def test_intersections_circle_point():
    # in Cases 2-6 the ellipse crosses the top arc of the unit circle; the
    # crossing finder every section route takes its breakpoints from returns
    # that point, inside the one-sided bounds of Cases 2 and 5
    for gx, gy, case in [
        (0.28, 0.1, CaseRegime.CASE2),
        (-0.02, 0.1, CaseRegime.CASE4),
        (-0.19, 0.3, CaseRegime.CASE4),
        (-0.34, 0.3, CaseRegime.CASE5),
        (-0.48, 0.3, CaseRegime.CASE6),
    ]:
        c = ANCoords(gx, gy)
        assert classify_case(c) is case
        (x,) = crossings(c)
        y = math.sqrt(1.0 - x * x)
        assert abs(ellipse_residual(x, y, c)) < 1e-10
        if case is CaseRegime.CASE2:
            assert x <= -SQRT3 * gx / 2.0 + 1e-12
        if case is CaseRegime.CASE5:
            assert x >= gy / 4.0 - 1e-12


def test_m_hat_trivial_cases():
    assert m_hat_case(ANCoords(1.0, 0.3)) == 1.0
    assert m_hat_case(ANCoords(0.8, 0.05)) == 1.0
    assert m_hat_case(ANCoords(-5.0, 0.3)) == 0.0
    assert m_hat_case(ANCoords(-1.4, 0.49)) == 0.0


def test_m_hat_frozen_oracle():
    for gx, gy, tag, val, dgx, dgy in FROZEN_CASE_TABLE:
        c = ANCoords(gx, gy)
        assert classify_case(c).tag == tag
        assert abs(m_hat_case(c) - val) < 1e-9
        px, py = m_hat_partials(c)
        assert abs(px - dgx) < 1e-6 * max(1.0, abs(dgx))
        if tag == "CASE8":
            assert py == 0.0
        else:
            assert abs(py - dgy) < 1e-6 * max(1.0, abs(dgy))


def test_m_hat_case_vs_direct_and_mc():
    c = ANCoords(0.2, 0.3)
    v = m_hat_case(c)
    assert abs(v - m_hat_direct(c)) <= 1e-6
    est, se = m_hat_mc(c, 200_000, 11)
    assert abs(v - est) <= max(3.0 * se, 1e-6)


def test_m_hat_mc_contract():
    est, se = m_hat_mc(ANCoords(-0.1, 0.4), 50_000, 9)
    est2, se2 = m_hat_mc(ANCoords(-0.1, 0.4), 50_000, 9)
    assert (est, se) == (est2, se2)
    assert 0.0 <= est <= 1.0 and se > 0.0
    with pytest.raises(DomainError):
        m_hat_mc(ANCoords(0.0, 1.0), 0, 1)


def test_m_hat_direct_examples():
    assert abs(m_hat_direct(ANCoords(10.0, 0.3)) - 1.0) <= 1e-6
    # tangency point: the excluded disc only touches the domain corner
    v = m_hat_direct(ANCoords(0.0, 1.0))
    mc = m_hat_mc(ANCoords(0.0, 1.0), 100_000, 4)[0]
    assert abs(v - 1.0) <= 1e-9
    assert mc == 1.0


def test_m_hat_monotone_in_gx():
    grid = np.linspace(-2.2, 1.0, 33)
    vals = [m_hat_direct(ANCoords(float(g), 0.3)) for g in grid]
    assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_m_hat_continuity_at_boundaries():
    eps = 1e-4
    bound = 10.0 * eps * math.log(1.0 / eps) * 3.0
    bv = boundary_values(0.3)
    for b in (bv.b2, bv.b3, bv.b4, bv.b5, bv.b6, bv.b7):
        lo = m_hat_case(ANCoords(b - eps, 0.3))
        hi = m_hat_case(ANCoords(b + eps, 0.3))
        assert 0.0 <= hi - lo <= bound


def test_partials_match_finite_differences():
    h = 1e-5
    for gx, gy, _, _, _, _ in FROZEN_CASE_TABLE[:6]:
        c = ANCoords(gx, gy)
        px, py = m_hat_partials(c)
        fdx = (m_hat_case(ANCoords(gx + h, gy)) - m_hat_case(ANCoords(gx - h, gy))) / (2 * h)
        fdy = (m_hat_case(ANCoords(gx, gy + h)) - m_hat_case(ANCoords(gx, gy - h))) / (2 * h)
        assert abs(px - fdx) <= 1e-3 * max(abs(fdx), 1e-6)
        assert abs(py - fdy) <= 1e-3 * max(abs(fdy), 1e-6)


def test_direct_partials_match_case_partials():
    # two independent routes to each partial: the closed form and the
    # section-exact derivative of the direct integrand
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 120:
        gy = float(rng.uniform(0.02, 0.5) if checked % 2 else rng.uniform(1.16, 3.0))
        c = ANCoords(float(rng.uniform(-1.3, 0.6)), gy)
        if classify_case(c) is CaseRegime.FALLBACK:
            continue
        checked += 1
        assert abs(m_hat_direct_dgx(c) - m_hat_dgx(c)) < 1e-6
        assert abs(m_hat_direct_dgy(c) - m_hat_dgy(c)) < 1e-6
    # the ellipse meets the circle 1.1e-3 from the end of its x-extent; with
    # only the value's breakpoints the direct g_x-partial missed by 3.6e-3
    c = ANCoords(0.24670000817211535, 0.21929332666967025)
    assert classify_case(c) is CaseRegime.CASE2
    assert abs(m_hat_direct_dgx(c) - m_hat_dgx(c)) < 1e-6


def test_direct_partials_match_finite_differences_in_fallback_band():
    tight = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)

    def diff(f, h=1e-4):
        # central differences at h and h/2, Richardson-combined: near g_x = 0
        # the h^2 term alone reaches 3e-6 at h = 1e-4
        d1 = (f(h) - f(-h)) / (2.0 * h)
        d2 = (f(h / 2.0) - f(-h / 2.0)) / h
        return (4.0 * d2 - d1) / 3.0

    rng = np.random.default_rng(31)
    points = [(-0.18558571330701756, 0.7773898562284995), (0.3, 0.8), (-0.6, 1.0)]
    points += [(float(rng.uniform(-1.5, 1.0)), float(rng.uniform(0.51, 2.0 / SQRT3))) for _ in range(6)]
    points += [(0.4, 1.5), (-1.4, 1.3)]  # g_y > 2/sqrt(3), outside the Case-8 window
    for gx, gy in points:
        c = ANCoords(gx, gy)
        assert classify_case(c) is CaseRegime.FALLBACK
        fdx = diff(lambda h: m_hat_direct(ANCoords(gx + h, gy), tight))
        fdy = diff(lambda h: m_hat_direct(ANCoords(gx, gy + h), tight))
        assert abs(m_hat_direct_dgx(c) - fdx) < 1e-6
        assert abs(m_hat_direct_dgy(c) - fdy) < 1e-6
    # a finite difference with h = 1e-5 at the default tolerances gave 0.1672223
    c = ANCoords(-0.18558571330701756, 0.7773898562284995)
    assert abs(m_hat_direct_dgy(c) - 0.1674010104) < 1e-9


def _log_uniform_points(rng, n):
    return [
        (float(rng.uniform(-3.0, 3.0)), float(math.exp(rng.uniform(math.log(0.02), math.log(5.0)))))
        for _ in range(n)
    ]


def test_closed_form_matches_direct_oracle():
    # the evaluator itself, before the Case-1/Case-7 shortcuts, against the
    # section-exact quadrature. The partials' integrands have inverse-square-
    # root ends at the ellipse's x-extent, where the adaptive rule stops short
    # of 1e-13 and misjudges its error by up to a few 1e-10, so their
    # reference runs at 1e-10
    value_ref = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
    partial_ref = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    rng = np.random.default_rng(41)
    points = _log_uniform_points(rng, 200)
    points += [(float(rng.uniform(-1.5, 1.0)), float(rng.uniform(0.5, 2.0 / SQRT3))) for _ in range(40)]
    for gx, gy in points:
        c = ANCoords(gx, gy)
        value, dgx, dgy = _m_hat_closed_form(c)
        assert abs(value - m_hat_direct(c, value_ref)) < 1e-9
        assert abs(dgx - m_hat_direct_dgx(c, partial_ref)) < 1e-9
        assert abs(dgy - m_hat_direct_dgy(c, partial_ref)) < 1e-9


def test_closed_form_makes_no_quadrature_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("inner quadrature on the closed-form path")

    monkeypatch.setattr(regions, "integrate", refuse)
    for gx, gy in ((0.2, 0.3), (-0.19, 0.3), (-0.3265, 0.69), (-0.5, 1.5), (0.4, 1.5)):
        c = ANCoords(gx, gy)
        assert 0.0 < m_hat_case(c) <= 1.0
        assert math.isfinite(m_hat_dgx(c)) and math.isfinite(m_hat_dgy(c))


def test_closed_form_matches_monte_carlo_in_fallback_band():
    # membership sampling shares nothing with the section decomposition
    for gx, gy in ((-0.3265, 0.69), (0.2, 0.55), (-0.6, 1.0)):
        c = ANCoords(gx, gy)
        assert classify_case(c) is CaseRegime.FALLBACK
        est, se = m_hat_mc(c, 200_000, 17)
        assert se > 0.0
        assert abs(m_hat_case(c) - est) <= 4.0 * se


def test_m_hat_direct_takes_the_crossings_as_breakpoints():
    # the section mass kinks where the ellipse crosses the circle; without
    # that breakpoint default-tolerance m_hat_direct erred by 7.2e-7 here
    c = ANCoords(-0.3265, 0.69)
    assert classify_case(c) is CaseRegime.FALLBACK
    assert abs(m_hat_direct(c) - m_hat_case(c)) < 1e-8


def test_antiderivatives_differentiate_to_their_integrands():
    # in mpmath at 30 digits: each antiderivative's x-derivative is its
    # integrand, with the ellipse roots and their parameter derivatives taken
    # straight from the root formula; the float evaluator matches the
    # antiderivatives it is built from
    mp = mpmath.mp
    rng = np.random.default_rng(43)
    with mpmath.workdps(30):

        def root(x, gx, gy, sigma):
            u = x + 1
            s = gx * gx + gy * gy
            return (sigma * mpmath.sqrt(s - gy * gy * u * u) - u * gx) / s

        def parts(x, gx, gy, sigma):
            # antiderivatives of d/dg_x and d/dg_y of sigma/y_sigma
            u = x + 1
            a = mpmath.asin(gy * u / mpmath.sqrt(gx * gx + gy * gy))
            return -sigma * mpmath.log(root(x, gx, gy, sigma)), a

        checked = 0
        while checked < 40:
            sigma = 1 if checked % 2 else -1
            gx = mp.mpf(float(rng.uniform(-1.5, 1.0)))
            gy = mp.mpf(float(rng.uniform(0.1, 1.5)))
            x = mp.mpf(float(rng.uniform(-0.5, 0.5)))
            u = x + 1
            if gy * gy * u * u >= gx * gx + gy * gy or root(x, gx, gy, sigma) <= 0:
                continue
            checked += 1
            integrand = sigma / root(x, gx, gy, sigma)
            d_gx = mpmath.diff(lambda g: sigma / root(x, g, gy, sigma), gx)
            d_gy = mpmath.diff(lambda g: sigma / root(x, gx, g, sigma), gy)
            px = mpmath.diff(lambda t: parts(t, gx, gy, sigma)[0], x)
            py = mpmath.diff(lambda t: parts(t, gx, gy, sigma)[1], x)
            assert abs(px - d_gx) < mp.mpf(10) ** -20 * max(1, abs(d_gx))
            assert abs(py - d_gy) < mp.mpf(10) ** -20 * max(1, abs(d_gy))
            assert abs(gx * px + gy * py - integrand) < mp.mpf(10) ** -20 * max(1, abs(integrand))

            c = ANCoords(float(gx), float(gy))
            ext = math.sqrt(1.0 + c.g_x * c.g_x / (c.g_y * c.g_y))
            log_lo, log_hi, a = _ellipse_antiderivative(float(x), c.g_x, c.g_y, ext)
            got = (log_lo if sigma < 0 else -log_hi, a)
            for g, want in zip(got, parts(x, gx, gy, sigma)):
                assert abs(g - float(want)) < 1e-12 * max(1.0, abs(float(want)))

        for x in (mp.mpf("-0.4"), mp.mpf("0.1"), mp.mpf("0.45")):
            gx = mp.mpf("-0.7")
            assert abs(mpmath.diff(mpmath.asin, x) - 1 / mpmath.sqrt(1 - x * x)) < mp.mpf(10) ** -25
            line = mpmath.diff(lambda t: gx * mpmath.log(1 + 2 * t), x)
            assert abs(line - 2 * gx / (1 + 2 * x)) < mp.mpf(10) ** -25


def test_crossing_finder_matches_companion_matrix_roots():
    def reference(c):
        s = c.g_x * c.g_x + c.g_y * c.g_y
        roots = np.roots([1.0, 0.0, 2.0 - 4.0 * s, -8.0 * c.g_x, -3.0])
        ts = {t.real for t in roots if abs(t.imag) < 1e-6 and 1.0 / SQRT3 < t.real < SQRT3}
        return sorted((1.0 - t * t) / (1.0 + t * t) for t in ts)

    rng = np.random.default_rng(47)
    for gx, gy in _log_uniform_points(rng, 2000):
        c = ANCoords(gx, gy)
        got, want = crossings(c), reference(c)
        assert len(got) == len(want)
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))
    # a tangency at t0 = 1.2: p(t0) = p'(t0) = 0 fixes s and g_x
    t0 = 1.2
    s = (3.0 * t0 ** 4 + 2.0 * t0 ** 2 + 3.0) / (4.0 * t0 ** 2)
    gx = (t0 ** 3 + (1.0 - 2.0 * s) * t0) / 2.0
    c = ANCoords(gx, math.sqrt(s - gx * gx))
    x0 = (1.0 - t0 * t0) / (1.0 + t0 * t0)
    assert min(abs(x - x0) for x in crossings(c)) < 1e-6


def companion_crossings(gx: float, gy: float) -> list[float]:
    # the np.roots rule of test_crossing_finder_matches_companion_matrix_roots
    s = gx * gx + gy * gy
    roots = np.roots([1.0, 0.0, 2.0 - 4.0 * s, -8.0 * gx, -3.0])
    ts = {t.real for t in roots if abs(t.imag) < 1e-6 and 1.0 / SQRT3 < t.real < SQRT3}
    return sorted((1.0 - t * t) / (1.0 + t * t) for t in ts)


def test_crossing_finder_at_tiny_gx():
    # the resolvent root m ~ g_x^2 is lost below eps |b|^3; the Newton step
    # on the quartic brings the crossings back to full accuracy
    for gx in (0.0, -0.0, 1e-18, -1e-18, 3e-17, -5e-17, 1e-14, -1e-12, 1e-10, -1e-8):
        for gy in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.1):
            got, want = crossings(ANCoords(gx, gy)), companion_crossings(gx, gy)
            assert len(got) == len(want)
            assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))


def test_crossing_finder_near_tangency():
    # at a tangency p(t0) = p'(t0) = 0, where the finder keeps a breakpoint
    # at the double root (a Newton step from it may jump away); moving S off
    # it splits the root into a real or a complex pair, and the finder keeps
    # the np.roots count on both sides, one breakpoint for a pair within 1e-6
    # of the axis
    for t0 in (0.65, 0.8, 1.0, 1.2, 1.35, 1.45, 1.65):
        s = (3.0 * t0 ** 4 + 2.0 * t0 ** 2 + 3.0) / (4.0 * t0 ** 2)
        gx = (t0 ** 3 + (1.0 - 2.0 * s) * t0) / 2.0
        x0 = (1.0 - t0 * t0) / (1.0 + t0 * t0)
        assert min(abs(x - x0) for x in crossings(ANCoords(gx, math.sqrt(s - gx * gx)))) < 1e-6
        for exponent in range(-14, -5):
            for sign in (1.0, -1.0):
                gy = math.sqrt(s + sign * 10.0 ** exponent - gx * gx)
                got, want = crossings(ANCoords(gx, gy)), companion_crossings(gx, gy)
                assert len(got) == len(want), (t0, sign * 10.0 ** exponent)
                assert all(abs(g - w) < 1e-6 for g, w in zip(got, want))


def test_crossing_finder_at_huge_shapes():
    # g_y reaches r^2 = 1e76 at the largest supported norm; such shapes cross
    # no arc and are screened out before the resolvent's b^3 could overflow
    big = (1e38, -1e38, 1e76, -1e76)
    points = [(gx, gy) for gx in (0.0, 1.0, -1.0, *big) for gy in (1e38, 1e76)]
    points += [(gx, gy) for gx in big for gy in (1e-6, 1.0)]
    gx, gy = np.array(points).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(_ellipse_circle_abscissas(gx, gy)).all()


def test_case2_derivative_bound():
    for gx, gy, tag, _, dgx, _ in FROZEN_CASE_TABLE:
        if tag != "CASE2":
            continue
        bound = -3.0 * math.log(3.0) / (2.0 * math.pi) + (3.0 / math.pi) * math.log(1.0 / gx)
        assert 0.0 < dgx <= bound


def test_section_intervals_membership():
    rng = np.random.default_rng(6)
    for _ in range(300):
        c = ANCoords(float(rng.uniform(-2, 1)), float(rng.uniform(0.05, 2.5)))
        x = float(rng.uniform(-0.5, 0.5))
        segs = section_intervals(x, c)
        assert all(a < b for a, b in segs)
        for y in np.exp(rng.uniform(math.log(0.5), math.log(50.0), size=40)):
            shifted = x + c.g_x * y
            member = (
                x * x + y * y >= 1.0
                and shifted >= -0.5
                and (shifted + 1.0) ** 2 + (c.g_y * y) ** 2 >= 1.0
            )
            in_segs = any(a - 1e-9 <= y <= b + 1e-9 for a, b in segs)
            strict = any(a + 1e-9 < y < b - 1e-9 for a, b in segs)
            if member:
                assert in_segs
            if strict:
                assert member


def test_iwasawa_image_coords_examples():
    for th in (0.0, 0.4, 1.2, -2.0):
        c = iwasawa_image_coords(1.0, th)
        assert abs(c.g_x) < 1e-15 and abs(c.g_y - 1.0) < 1e-15
    c = iwasawa_image_coords(0.7, 0.0)
    assert c.g_x == 0.0 and abs(c.g_y - 0.49) < 1e-15
    c = iwasawa_image_coords(0.7, math.pi / 2.0)
    assert abs(c.g_x) < 1e-12 and abs(c.g_y - 1.0 / 0.49) < 1e-12
    with pytest.raises(DomainError):
        iwasawa_image_coords(0.0, 0.3)


def test_iwasawa_image_coords_vs_decomposition():
    rng = np.random.default_rng(14)
    for _ in range(100):
        r = float(np.exp(rng.uniform(-1.5, 1.5)))
        th = float(rng.uniform(-math.pi, math.pi))
        coords = iwasawa_image_coords(r, th)
        parts = iwasawa_decompose(rotation(th) @ cartan_a(r))
        ref = an_coords(parts.s)
        assert abs(coords.g_x - ref.g_x) < 1e-10
        assert abs(coords.g_y - ref.g_y) < 1e-10 * max(1.0, ref.g_y)


def _boundary_functions(c: ANCoords) -> list[float]:
    # every curve classify_case switches on, as a function that is 0 on it
    gx, gy = c.g_x, c.g_y
    s = gx * gx + gy * gy
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
    ]


def test_case_transition_sliver_present():
    # for r < 1 a thin large-g_y window hugs theta = +-pi/2; the transitions
    # must resolve it even though it is far below any uniform grid pitch
    r = 0.1
    ts = case_transition_thetas(r)
    half = math.pi / 2.0
    assert any(half - 2.5e-4 < t < half for t in ts)
    assert classify_case(iwasawa_image_coords(r, half - 1e-5)) is CaseRegime.CASE8
    # transitions separate constant-tag intervals
    probe = [-half + 1e-9] + sorted(ts) + [half - 1e-9]
    for lo, hi in zip(probe, probe[1:]):
        if hi - lo < 1e-12:
            continue
        mid = 0.5 * (lo + hi)
        tag = classify_case(iwasawa_image_coords(r, mid))
        for t in (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)):
            assert classify_case(iwasawa_image_coords(r, t)) is tag
    # the CASE4 -> 5 -> 6 pair 3.7e-4 apart: both the b5 and the b6 crossing
    for near, k in ((0.01118, math.sqrt(5.0) / 2.0), (0.01155, 2.0 / SQRT3)):
        hits = [t for t in ts if abs(t - near) < 1e-5]
        assert len(hits) == 1
        c = iwasawa_image_coords(r, hits[0])
        assert abs(c.g_x + k * c.g_y) < 1e-12
    assert len(case_transition_thetas(10.0)) == 9
    for r in (0.05, 0.1, 0.3):
        ts = case_transition_thetas(r)
        for t in ts:
            # a zero of one boundary function, up to the change that one ulp
            # of theta makes: 3.6e-11 in g_x at the b8 re-entry for r = 0.05,
            # where the float nearest the root leaves a residual of 1.1e-11
            u = math.ulp(t)
            vals = zip(*(_boundary_functions(iwasawa_image_coords(r, t + d)) for d in (0.0, -u, u)))
            assert any(abs(f) < 1e-12 + abs(fp - fm) for f, fm, fp in vals)
        tb = theta_boundaries(r)
        for angle in (tb.theta7, tb.theta8):
            assert min(abs(angle - t) for t in ts) < 1e-14


def test_case_transitions_classify_once_per_gap(monkeypatch):
    calls = []

    def counting(c):
        calls.append(c)
        return classify_case(c)

    monkeypatch.setattr(regions, "classify_case", counting)
    for r in (0.1, 0.3, 5.0, 50.0):
        case_transition_thetas.cache_clear()
        calls.clear()
        case_transition_thetas(r)
        assert 0 < len(calls) <= 20
    case_transition_thetas.cache_clear()


def test_m_tilde_frozen_values():
    for r, want in FROZEN_M_TILDE.items():
        assert abs(m_tilde(cartan_a(r)) - want) < 5e-7
    assert m_tilde(RealMat2(1.0, 0.0, 0.0, 1.0)) == 1.0


def test_m_tilde_symmetries():
    g = cartan_a(0.2)
    assert m_tilde(RealMat2(-g.a, -g.b, -g.c, -g.d)) == m_tilde(g)
    assert abs(m_tilde(cartan_a(5.0)) - m_tilde(cartan_a(0.2))) < 1e-6
    k = rotation(0.8) @ g @ rotation(-0.3)
    assert abs(m_tilde(k) - m_tilde(g)) < 1e-6


def test_m_tilde_supported_norm_range():
    # beyond MAX_NORM the transition quadratics overflow (r^8 terms), and
    # operator_norm itself overflows near 1e77; both fail with one named error
    assert regions.MAX_NORM == 1e38
    for r in (1e38, 1e-38):
        for direct in (False, True):
            value, err = m_tilde_full(cartan_a(r), force_direct=direct)
            assert abs(value - 0.5) < 1e-9 and err <= 1e-7
    past = math.nextafter(regions.MAX_NORM, math.inf)
    for r in (past, 1e39, 1e80, 1e-80):
        for direct in (False, True):
            with pytest.raises(DomainError, match=r"supported range \[1, 1e\+38\]"):
                m_tilde_full(cartan_a(r), force_direct=direct)


def test_direct_oracle_at_extreme_shapes():
    # near g_x = 0 with g_y tiny or huge the direct rule missed the closed
    # form by 1.4e-7: a log end at the line's crossing with the circle, and
    # an inverse-square-root end at the ellipse's extent. It must land within
    # 1e-8 or say that it cannot.
    for gx, gy in (
        (3.942019653206495e-12, 3.8566423058521913e-4),
        (-1.495886918135911e-8, 831.5596513199177),
    ):
        c = ANCoords(gx, gy)
        try:
            value = m_hat_direct(c)
        except AccuracyError:
            continue
        assert abs(value - _m_hat_closed_form(c)[0]) < 1e-8


def test_numpy_scalars_give_the_float_results():
    # numpy flags do not add: np.True_ + np.True_ is True, not 2
    rng = np.random.default_rng(59)
    for gx, gy in _log_uniform_points(rng, 300):
        as_numpy = ANCoords(np.float64(gx), np.float64(gy))
        assert type(as_numpy.g_x) is float and type(as_numpy.g_y) is float
        assert m_hat_case(as_numpy) == m_hat_case(ANCoords(gx, gy))
        assert m_hat_partials(as_numpy) == m_hat_partials(ANCoords(gx, gy))
