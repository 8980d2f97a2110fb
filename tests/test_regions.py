"""Region-integral engine: boundary curves, case classification, closed-form
intersections, per-case m_hat with partials, the direct 2-D oracle, and the
angle-averaged m_tilde."""

import math

import numpy as np
import pytest

from hypertransfer.errors import DomainError, RegimeError, SingularLineError
from hypertransfer.quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from hypertransfer.regions import (
    CaseRegime,
    _ellipse_circle_abscissas,
    boundary_values,
    case8_dgx_factor,
    case_transition_thetas,
    classify_case,
    ellipse_x_left,
    ellipse_x_right,
    ellipse_y_lower,
    ellipse_y_upper,
    intersections,
    iwasawa_image_coords,
    line_x,
    line_y,
    m_hat_case,
    m_hat_direct,
    m_hat_direct_dgx,
    m_hat_direct_dgy,
    m_hat_dgx,
    m_hat_dgy,
    m_hat_mc,
    m_hat_partials,
    m_tilde,
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


def ellipse_residual(x: float, y: float, c: ANCoords) -> float:
    return (x + c.g_x * y + 1.0) ** 2 + (c.g_y * y) ** 2 - 1.0


def test_curve_closed_forms():
    for gx in (0.3, -0.2):
        c = ANCoords(gx, 0.25)
        want = (abs(gx) - gx) / (gx * gx + 0.25 * 0.25)
        assert abs(ellipse_y_upper(0.0, c) - want) < 1e-14
        assert line_x(0.0, c) == -0.5
    assert ellipse_y_upper(0.0, ANCoords(0.4, 0.3)) == 0.0  # g_x > 0 branch


def test_curve_plugback():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = ANCoords(float(rng.uniform(-1, 1)), float(rng.uniform(0.05, 2.0)))
        ext = math.sqrt(1.0 + (c.g_x / c.g_y) ** 2)
        x = float(rng.uniform(-1.0 - ext, -1.0 + ext))
        for f in (ellipse_y_upper, ellipse_y_lower):
            assert abs(ellipse_residual(x, f(x, c), c)) < 1e-10
        y = float(rng.uniform(-1.0, 1.0)) / c.g_y
        for g in (ellipse_x_right, ellipse_x_left):
            assert abs(ellipse_residual(g(y, c), y, c)) < 1e-10
        yl = float(rng.uniform(0.1, 5.0))
        assert abs(line_x(yl, c) + c.g_x * yl + 0.5) < 1e-14
        if abs(c.g_x) > 1e-3:
            xl = float(rng.uniform(-0.5, 0.5))
            assert abs(xl + c.g_x * line_y(xl, c) + 0.5) < 1e-12


def test_curve_errors():
    c = ANCoords(0.1, 0.5)
    with pytest.raises(DomainError):
        ellipse_y_upper(5.0, c)  # radicand < 0 far outside the ellipse
    with pytest.raises(DomainError):
        ellipse_x_right(100.0, c)
    with pytest.raises(SingularLineError):
        line_y(0.2, ANCoords(0.0, 0.5))


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


def test_classify_hybrid_margin():
    bv = boundary_values(0.3)
    for b in (bv.b2, bv.b3, bv.b4, bv.b5, bv.b6, bv.b7):
        assert classify_case(ANCoords(b + 5e-7, 0.3)) is CaseRegime.FALLBACK
        assert classify_case(ANCoords(b - 5e-7, 0.3)) is CaseRegime.FALLBACK
    # widening the margin widens the fallback collar
    assert classify_case(ANCoords(bv.b3 + 1e-3, 0.3)) is CaseRegime.CASE2
    assert classify_case(ANCoords(bv.b3 + 1e-3, 0.3), hybrid_margin=1e-2) is CaseRegime.FALLBACK
    with pytest.raises(DomainError):
        classify_case(ANCoords(0.1, 0.3), hybrid_margin=-1.0)


def test_intersections_closed_forms():
    c = ANCoords(-0.19, 0.3)  # a Case-4 point
    rec = intersections(c, CaseRegime.CASE4)
    assert abs(rec.b_y - SQRT3 / (2.0 * 0.3)) < 1e-14
    assert abs(rec.b_x + (SQRT3 * c.g_x + c.g_y) / (2.0 * c.g_y)) < 1e-14
    assert abs(rec.c_y + 1.0 / c.g_x) < 1e-14
    assert rec.b_y > SQRT3 / 2.0
    d = intersections(ANCoords(-1.0, 1.5), CaseRegime.CASE8)
    assert abs(d.d_x - (math.sqrt(7.0) - 1.0) / 4.0) < 1e-12
    assert abs(d.d_x - 0.41144) < 1e-5
    with pytest.raises(RegimeError):
        intersections(ANCoords(0.0, 1.0), CaseRegime.FALLBACK)


def test_intersections_circle_point():
    # point A lies on the unit circle and the ellipse, inside the one-sided
    # bounds the closed-form cases assume
    for gx, gy, case in [
        (0.28, 0.1, CaseRegime.CASE2),
        (-0.02, 0.1, CaseRegime.CASE3),
        (-0.19, 0.3, CaseRegime.CASE4),
        (-0.34, 0.3, CaseRegime.CASE5),
        (-0.48, 0.3, CaseRegime.CASE6),
    ]:
        c = ANCoords(gx, gy)
        rec = intersections(c, case)
        assert abs(rec.a_x ** 2 + rec.a_y ** 2 - 1.0) < 1e-10
        assert abs(ellipse_residual(rec.a_x, rec.a_y, c)) < 1e-10
        # the quartic the direct partials take their breakpoints from
        assert min(abs(x - rec.a_x) for x in _ellipse_circle_abscissas(c)) < 1e-10
        if case is CaseRegime.CASE2:
            assert rec.a_x <= -SQRT3 * gx / 2.0 + 1e-12
        if case is CaseRegime.CASE5:
            assert rec.a_x >= gy / 4.0 - 1e-12


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
    mc = m_hat_direct(ANCoords(0.0, 1.0), mode="montecarlo", n=100_000, rng_seed=4)
    assert abs(v - 1.0) <= 1e-9
    assert mc == 1.0
    with pytest.raises(DomainError):
        m_hat_direct(ANCoords(0.0, 1.0), mode="bogus")


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
    # two independent routes to each partial: the case formulas and the
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


def test_case2_derivative_bound():
    for gx, gy, tag, _, dgx, _ in FROZEN_CASE_TABLE:
        if tag != "CASE2":
            continue
        bound = -3.0 * math.log(3.0) / (2.0 * math.pi) + (3.0 / math.pi) * math.log(1.0 / gx)
        assert 0.0 < dgx <= bound


def test_case8_factor():
    want = math.log(4.0 / (1.0 + math.sqrt(7.0)))
    assert abs(case8_dgx_factor(-1.0) - want) < 1e-14
    assert abs(want - 0.0927) < 1e-4
    with pytest.raises(RegimeError):
        case8_dgx_factor(0.0)
    with pytest.raises(RegimeError):
        case8_dgx_factor(-2.0)


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


def test_case_transition_sliver_present():
    # for r < 1 a thin large-g_y window hugs theta = +-pi/2; the transition
    # scan must resolve it even though it is far below the uniform grid pitch
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
        tag = classify_case(iwasawa_image_coords(r, mid), hybrid_margin=0.0)
        for t in (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)):
            assert classify_case(iwasawa_image_coords(r, t), hybrid_margin=0.0) is tag


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
