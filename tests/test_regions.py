"""Region-integral engine: case classification, the section cuts and the
ellipse/unit-circle crossings, the closed-form m_hat with partials and its
antiderivatives, the direct 2-D oracles, the closed-form case-transition
angles, and the angle-averaged m_tilde."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypertransfer.regions as regions
from hypertransfer.decay import theta_boundaries
from hypertransfer.errors import AccuracyError, DomainError
from hypertransfer.quadrature import DEFAULT_QUADRATURE, QuadratureConfig, segment_edges
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
    m_hat_dgx,
    m_hat_dgy,
    m_hat_mc,
    m_hat_partials,
    m_tilde,
    m_tilde_full,
    section_intervals,
)
from hypertransfer.sl2 import (
    IDENTITY,
    ANCoords,
    RealMat2,
    an_coords,
    cartan_a,
    iwasawa_decompose,
    rotation,
)

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
    with pytest.raises(DomainError, match="need g_y > 0"):
        boundary_values(0.0)
    with pytest.raises(DomainError, match="need g_y > 0"):
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


def test_m_hat_case_reads_no_case_label(monkeypatch):
    # Cases 1 and 7 get their exact 1 and 0 from the clamped closed form
    def no_labels(*args):
        raise AssertionError("m_hat reads no case label")

    monkeypatch.setattr(regions, "classify_case", no_labels)
    monkeypatch.setattr(regions, "boundary_values", no_labels)
    assert m_hat_case(ANCoords(0.9, 0.1)) == 1.0
    assert m_hat_case(ANCoords(-2.5, 0.1)) == 0.0
    case3 = ANCoords(-0.02, 0.3)
    assert m_hat_case(case3) == _m_hat_closed_form(case3)[0]
    assert 0.0 < m_hat_case(case3) < 1.0


_LOG_GY = st.floats(math.log(1e-30), math.log(0.5))
_EXACT_RUNS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


def _log_uniform_case_1_or_7(log_gy, log_gx, sign):
    gy, gx = math.exp(log_gy), sign * math.exp(log_gx)
    c = ANCoords(gx, gy)
    assume(gx * (gx / gy) + gy + 1.0 / gy <= regions._MAX_SHAPE)
    case = classify_case(c)
    assume(case in (CaseRegime.CASE1, CaseRegime.CASE7))
    return c, case


@_EXACT_RUNS
@given(_LOG_GY, st.floats(math.log(1e-3), math.log(1e30)), st.sampled_from((1.0, -1.0)))
def test_m_hat_is_exact_on_case_1_and_case_7(log_gy, log_gx, sign):
    # g_y log-uniform on [1e-30, 1/2] and |g_x| on [1e-3, 1e30], inside the
    # supported shapes: the clamped closed form is exactly 1 and 0 there
    c, case = _log_uniform_case_1_or_7(log_gy, log_gx, sign)
    assert m_hat_case(c) == (1.0 if case is CaseRegime.CASE1 else 0.0), c


@_EXACT_RUNS
@given(_LOG_GY, st.floats(math.log(2.0 ** -52), math.log(1e-3)), st.booleans())
def test_m_hat_is_exact_just_inside_b2_and_b7(log_gy, log_rel, case1):
    # from one ulp to 1e-3 relative inside the Case 1 and Case 7 boundaries
    gy, rel = math.exp(log_gy), math.exp(log_rel)
    bv = boundary_values(gy)
    if case1:
        gx = max(bv.b2 * (1.0 + rel), math.nextafter(bv.b2, math.inf))
    else:
        gx = min(bv.b7 * (1.0 + rel), math.nextafter(bv.b7, -math.inf))
    c = ANCoords(gx, gy)
    assert classify_case(c) is (CaseRegime.CASE1 if case1 else CaseRegime.CASE7)
    assert m_hat_case(c) == (1.0 if case1 else 0.0), c


def test_m_hat_frozen_oracle():
    for gx, gy, tag, val, dgx, dgy in FROZEN_CASE_TABLE:
        c = ANCoords(gx, gy)
        assert classify_case(c).value == tag
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
    # the stream, draw order and estimator are frozen bit for bit
    assert (est, se) == (0.50588, 0.002235935710205015)
    assert 0.0 <= est <= 1.0 and se > 0.0
    for n in (0, -1):
        with pytest.raises(DomainError):
            m_hat_mc(ANCoords(0.0, 1.0), n, 1)


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


def test_partials_match_high_precision_in_the_case_windows():
    # the closed-form partials against the same segment sums with every
    # breakpoint and cut found in mpmath, on shapes outside the band
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 120:
        gy = float(rng.uniform(0.02, 0.5) if checked % 2 else rng.uniform(1.16, 3.0))
        c = ANCoords(float(rng.uniform(-1.3, 0.6)), gy)
        if classify_case(c) is CaseRegime.FALLBACK:
            continue
        checked += 1
        want_x, want_y = _mp_partials(c.g_x, c.g_y)
        assert abs(m_hat_dgx(c) - want_x) < 1e-9, c
        assert abs(m_hat_dgy(c) - want_y) < 1e-9, c
    # the ellipse meets the circle 1.1e-3 from the end of its x-extent; a
    # section quadrature of d/dg_x without that breakpoint missed by 3.6e-3
    c = ANCoords(0.24670000817211535, 0.21929332666967025)
    assert classify_case(c) is CaseRegime.CASE2
    assert abs(m_hat_dgx(c) - _mp_partials(c.g_x, c.g_y)[0]) < 1e-9


def test_partials_match_finite_differences_in_fallback_band():
    # Richardson-combined central differences of the tight direct value, a
    # route that shares no antiderivative with the closed-form partials
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
        dgx, dgy = m_hat_partials(c)
        fdx = diff(lambda h: m_hat_direct(ANCoords(gx + h, gy), tight))
        fdy = diff(lambda h: m_hat_direct(ANCoords(gx, gy + h), tight))
        assert abs(dgx - fdx) < 1e-6
        assert abs(dgy - fdy) < 1e-6
        want_x, want_y = _mp_partials(gx, gy)
        assert abs(dgx - want_x) < 1e-9 and abs(dgy - want_y) < 1e-9, c
    # a finite difference with h = 1e-5 at the default tolerances gave 0.1672223
    c = ANCoords(-0.18558571330701756, 0.7773898562284995)
    assert abs(m_hat_dgy(c) - 0.1674010104) < 1e-9


def _log_uniform_points(rng, n):
    return [
        (float(rng.uniform(-3.0, 3.0)), float(math.exp(rng.uniform(math.log(0.02), math.log(5.0)))))
        for _ in range(n)
    ]


def test_closed_form_matches_direct_oracle():
    # the evaluator itself, before m_hat_case clamps it: its value
    # against the section-exact quadrature, its partials against mpmath
    value_ref = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
    rng = np.random.default_rng(41)
    points = _log_uniform_points(rng, 200)
    points += [(float(rng.uniform(-1.5, 1.0)), float(rng.uniform(0.5, 2.0 / SQRT3))) for _ in range(40)]
    for gx, gy in points:
        c = ANCoords(gx, gy)
        value, dgx, dgy = _m_hat_closed_form(c)
        assert abs(value - m_hat_direct(c, value_ref)) < 1e-9
        want_x, want_y = _mp_partials(gx, gy)
        assert abs(dgx - want_x) < 1e-9 and abs(dgy - want_y) < 1e-9, c


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
            xe = math.sqrt(1.0 + c.g_x * c.g_x / (c.g_y * c.g_y)) - 1.0
            log_lo, log_hi, a = _ellipse_antiderivative(float(x), c.g_x, c.g_y, xe)
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


def _event_functions(c: ANCoords) -> list[float]:
    # every meeting of two section breakpoints that _meeting_thetas solves,
    # as a function that is 0 on it: the ellipse's extent end on the circle,
    # the line, the circle and the ellipse through one point, and the other
    # ellipse root on the circle at the line's ellipse crossing
    gx, gy = c.g_x, c.g_y
    s = gx * gx + gy * gy
    x = -0.5 - SQRT3 * gx / (2.0 * gy)
    other = -2.0 * (x + 1.0) * gx / s - SQRT3 / (2.0 * gy)
    return [
        s * s + gx * gx - 2.0 * gy * s ** 1.5,
        3.0 * gy * gy - 2.0 * SQRT3 * gx * gy - 3.0 * gx * gx - 3.0,
        x * x + other * other - 1.0,
    ]


def _cut_sequences_at(r: float, thetas, narrowest: float = 0.0) -> list:
    # the section's cut structure along the circle: the flag code of each
    # live segment wider than narrowest, left to right, with consecutive
    # repeats merged
    gx, gy = regions._circle_coords(r, np.asarray(thetas, dtype=float))
    edges, live, (circle, lower, upper, line) = regions._section_segments(gx, gy)
    live &= np.diff(edges, axis=1) > narrowest
    codes = circle + 2 * lower + 4 * upper + 8 * line
    return [tuple(k for k, _ in itertools.groupby(c[m])) for c, m in zip(codes, live)]


def test_case_transition_sliver_present():
    # for r < 1 a thin large-g_y window hugs theta = +-pi/2; the transitions
    # must resolve it even though it is far below any uniform grid pitch
    r = 0.1
    ts = case_transition_thetas(r)
    half = math.pi / 2.0
    assert any(half - 2.5e-4 < t < half for t in ts)
    assert classify_case(iwasawa_image_coords(r, half - 1e-5)) is CaseRegime.CASE8
    # the transitions separate intervals of constant cut sequence
    probe = [-half + 1e-9, *ts, half - 1e-9]
    for lo, hi in zip(probe, probe[1:]):
        if hi - lo < 1e-12:
            continue
        seqs = _cut_sequences_at(r, [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)])
        assert seqs[0] == seqs[1] == seqs[2], (lo, hi)
    # the CASE4 -> 5 -> 6 pair 3.7e-4 apart: both the b5 and the b6 crossing
    for near, k in ((0.01118, math.sqrt(5.0) / 2.0), (0.01155, 2.0 / SQRT3)):
        hits = [t for t in ts if abs(t - near) < 1e-5]
        assert len(hits) == 1
        c = iwasawa_image_coords(r, hits[0])
        assert abs(c.g_x + k * c.g_y) < 1e-12
    for r in (0.05, 0.1, 0.3, 10.0):
        ts = case_transition_thetas(r)
        for t in ts:
            # the two g_y = 1/2 roots, where only the label changes, are not kept
            assert abs(iwasawa_image_coords(r, t).g_y - 0.5) > 1e-6
            # a zero of one boundary or meeting-event function, up to the
            # change that one ulp of theta makes: 3.6e-11 in g_x at the b8
            # re-entry for r = 0.05, where the float nearest the root leaves
            # a residual of 1.1e-11
            u = math.ulp(t)
            points = [iwasawa_image_coords(r, t + d) for d in (0.0, -u, u)]
            vals = zip(*([*_boundary_functions(c), *_event_functions(c)] for c in points))
            assert any(abs(f) < 1e-12 + abs(fp - fm) for f, fm, fp in vals), (r, t)
        if r < 1.0:
            tb = theta_boundaries(r)
            for angle in (tb.theta7, tb.theta8):
                assert min(abs(angle - t) for t in ts) < 1e-14


def test_case_transitions_include_the_meeting_events():
    # structural changes where two section breakpoints meet, seen with a
    # 20 000-angle cut-sequence scan plus bisection before they were
    # candidates (r = 0.578... is the radius of the Lie-derivative bump)
    events = {
        0.1: (1.00015e-4, 5.841082e-3),
        0.5780934891480582: (0.137363, 0.350697, 1.0443925, 1.0460827),
        0.7: (0.867055,),
        0.9: (0.6192505,),
        1.5: (-1.245983, -0.815455, -0.656053),
    }
    for r, angles in events.items():
        ts = case_transition_thetas(r)
        for angle in angles:
            assert min(abs(angle - t) for t in ts) < 1e-6, (r, angle)


def test_case_transitions_are_complete():
    # every change of the cut sequence that a 4001-angle scan (uniform in
    # the v of _circle_v_angles, so both ends are resolved) and bisection
    # find lies within 1e-12 of a returned angle or of +-pi/2. Where the
    # ellipse's extent end touches the circle the structure changes by a
    # sliver whose width grows like the square of the distance, so the scan
    # sees that change only once the sliver is an ulp wide: such a change,
    # whose two sides agree once segments narrower than 1e-12 are dropped,
    # must lie within 1e-7
    half = math.pi / 2.0
    grid, _ = regions._circle_v_angles(np.linspace(-half, half, 4003)[1:-1])
    for r in np.geomspace(1e-3, 1e4, 40):
        r = float(r)
        ends = np.array([-half, *case_transition_thetas(r), half])
        seqs = _cut_sequences_at(r, grid)
        cells = np.array([i for i in range(len(grid) - 1) if seqs[i] != seqs[i + 1]], dtype=int)
        lo, hi, left = grid[cells], grid[cells + 1], [seqs[i] for i in cells]
        while np.any(hi - lo > 1e-14 * np.maximum(1.0, np.abs(lo))):
            mid = 0.5 * (lo + hi)
            same = [m == s for m, s in zip(_cut_sequences_at(r, mid), left)]
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        narrow = _cut_sequences_at(r, np.concatenate((lo, hi)), narrowest=1e-12)
        for a, b, before, after in zip(lo, hi, narrow, narrow[len(lo) :]):
            near = np.min(np.abs(ends - 0.5 * (a + b)))
            assert near < (1e-7 if before == after else 1e-12), (r, a, near)


def test_case_transitions_read_the_section_once_per_miss(monkeypatch):
    calls = []
    breakpoints = regions._section_breakpoints

    def counting(gx, gy):
        calls.append(len(gx))
        return breakpoints(gx, gy)

    def no_labels(*args):
        raise AssertionError("the transition angles read no case label")

    monkeypatch.setattr(regions, "_section_breakpoints", counting)
    monkeypatch.setattr(regions, "classify_case", no_labels)
    monkeypatch.setattr(regions, "iwasawa_image_coords", no_labels)
    for r in (0.1, 0.3, 5.0, 50.0):
        case_transition_thetas.cache_clear()
        calls.clear()
        case_transition_thetas(r)
        case_transition_thetas(r)
        assert len(calls) == 1 and 0 < calls[0] <= 20
    case_transition_thetas.cache_clear()


def test_case_transitions_refuse_radii_past_the_norm_range():
    # the table failed or answered silently here: ZeroDivisionError at 0,
    # inf and 1e-80, OverflowError at 1e100, a return at -1, NaN and 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="need r > 0"):
                case_transition_thetas(r)
        for r in (math.inf, 1e-80, 1e-39, 1e39, 1e100):
            with pytest.raises(DomainError, match="supported range"):
                case_transition_thetas(r)
        for r in (1.0 / regions.MAX_NORM, regions.MAX_NORM):
            assert case_transition_thetas(r)


def test_case_transitions_include_minus_pi_over_6_in_the_fallback_band():
    # at g_y > 1/2 no label changes at theta = -pi/6, but the section gains
    # its ellipse cut there and the partials' slopes jump
    for r in (0.7, 0.9):
        c = iwasawa_image_coords(r, -math.pi / 6.0)
        assert classify_case(c) is CaseRegime.FALLBACK
        assert min(abs(t + math.pi / 6.0) for t in case_transition_thetas(r)) < 1e-15


def test_case_transitions_keep_the_candidates_where_the_structure_changes():
    # read at theta -+ h, not at the gap midpoints the keep-rule reads: h is
    # 1e-6 (where the extent end touches the circle the new segment is
    # h^2-thin), or a quarter of the distance to a nearer neighbouring
    # candidate; with the meeting events among the candidates, every kept
    # angle has different sides
    half = math.pi / 2.0
    for r in np.geomspace(1e-3, 1e4, 200):
        r = float(r)
        kept = case_transition_thetas(r)
        quads = regions._transition_quadratics(r).values()
        cands = {t for quad in quads for t in regions._tan_roots(*quad)}
        events = [t for ts in regions._meeting_thetas(r) for t in ts if abs(t) < half - 1e-12]
        cands = sorted(cands.union(events))
        edges = [-half, *cands, half]
        steps = [
            min(1e-6, 0.25 * (t - lo), 0.25 * (hi - t))
            for lo, t, hi in zip(edges, edges[1:], edges[2:])
        ]
        sides = _cut_sequences_at(r, [t + d for t, h in zip(cands, steps) for d in (-h, h)])
        for i, t in enumerate(cands):
            assert (sides[2 * i] != sides[2 * i + 1]) == (t in kept), (r, t)


def test_circle_v_breakpoints_are_strictly_increasing():
    # decay grades every segment between the ends segment_edges makes of
    # -pi/2, these points and pi/2 at both ends, so none may repeat: b3's
    # root at theta = 0 gives v = -0.0 beside the Jacobian's kink at 0.0, and
    # near r = 1e-4 a b8 root rounds to pi/2
    half = math.pi / 2.0
    for r in [1e-4, 8.584e-5, *np.geomspace(1e-6, 1e6, 121)]:
        pts = regions._circle_v_breakpoints(case_transition_thetas(float(r)))
        ends = segment_edges(-half, half, pts).tolist()
        assert ends.count(0.0) == 1, r
        assert all(b - a > 1e-13 for a, b in zip(ends, ends[1:])), (r, ends)


def test_m_tilde_frozen_values():
    for r, want in FROZEN_M_TILDE.items():
        assert abs(m_tilde(cartan_a(r)) - want) < 5e-7
    assert m_tilde(RealMat2(1.0, 0.0, 0.0, 1.0)) == 1.0


def test_identity_symbol_is_one_on_both_routes():
    # the whole circle sits at (g_x, g_y) = (0, 1), and the outer quadrature
    # of a constant reports rounding as its error
    for direct in (False, True):
        value, err = m_tilde_full(IDENTITY, force_direct=direct)
        assert value == 1.0 and err <= 1e-12


def test_m_tilde_work_per_norm(monkeypatch):
    # in v the circle's log ends at theta = 0 and +-pi/2 are flat, so the
    # default target needs few bisections past the transition segments
    counts = []
    closed_form = regions._closed_form

    def counting(gx, gy):
        counts[-1] += len(gx)
        return closed_form(gx, gy)

    monkeypatch.setattr(regions, "_closed_form", counting)
    for n in (2, 5, 50, 1000):
        counts.append(0)
        m_tilde_full(cartan_a(1.0 / n))
        assert 0 < counts[-1] <= 200, (n, counts[-1])


def test_m_tilde_work_in_the_fallback_band(monkeypatch):
    # near the identity the circle crosses the band 1/2 < g_y <= 2/sqrt(3),
    # where the section breakpoints meet; split at those meetings, every
    # segment is analytic and one or two rounds reach the default target
    calls, points = [], []
    closed_form = regions._closed_form

    def counting(gx, gy):
        calls[-1] += 1
        points[-1] += len(gx)
        return closed_form(gx, gy)

    monkeypatch.setattr(regions, "_closed_form", counting)
    for n in (1.05, 1.1, 1.22, 1.3, 1.43, 1.48, 1.6, 1.68):
        calls.append(0)
        points.append(0)
        m_tilde_full(cartan_a(1.0 / n))
        assert calls[-1] <= 2 and points[-1] <= 400, (n, calls[-1], points[-1])


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


def test_closed_form_is_total_near_gx_zero():
    # the ellipse/circle crossing near x = -g_y^2/2 and the ellipse's extent
    # end near g_x^2/(2 g_y^2) both sit within rounding of x = 0; with their
    # relative accuracy kept, no antiderivative is read at the wrong side of
    # either, so nothing is NaN or infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gx in (0.0, -0.0, 1e-300, -1e-300, 1e-20, -1e-20):
            for gy in (1e-8, 1e-10, 1e-14):
                c = ANCoords(gx, gy)
                value, dgx, dgy = _m_hat_closed_form(c)
                assert all(math.isfinite(v) for v in (value, dgx, dgy)), c
                assert abs(value - m_hat_direct(c)) < 1e-8, c


def test_m_tilde_where_the_circle_passes_gx_zero_at_tiny_gy():
    # at norms of a few 1e6 to 1e8 the Cartan circle meets such shapes; the
    # outer quadrature got NaN there and returned -inf for 41 of these norms
    for r in np.geomspace(3e6, 1e8, 60):
        value, err = m_tilde_full(cartan_a(float(r)))
        assert abs(value - 0.5) < 1e-9 and err <= 1e-7, r


def _mp_partials(gx: float, gy: float) -> tuple:
    # (d m_hat/d g_x, d m_hat/d g_y) at 40 digits: the segment sums of the
    # closed form, with every breakpoint and cut found in mpmath
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


def test_partials_at_extreme_shapes_match_high_precision():
    # at |g_x| ~ 1e-12, g_y ~ 1e-6 the extent end and a crossing sit near
    # x = 0, and d/dg_x has an inverse-square-root end at the extent end: a
    # breakpoint or radicand off by one ulp of 1 moved d/dg_x by up to 1e-3
    # relative in the closed form
    rng = np.random.default_rng(11)
    for _ in range(12):
        c = ANCoords(
            float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13, -11)),
            float(10.0 ** rng.uniform(-6.5, -5.5)),
        )
        want_x, want_y = _mp_partials(c.g_x, c.g_y)
        got_x, got_y = m_hat_partials(c)
        assert abs(got_x - want_x) < 1e-9 * abs(want_x), c
        assert abs(got_y - want_y) < 1e-9, c


def test_direct_oracle_at_extreme_shapes():
    # near g_x = 0 with g_y tiny or huge the direct rule missed the closed
    # form by 1.4e-7: a log end at the line's crossing with the circle, and
    # a square-root end at the ellipse's extent. It must land within
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


def test_scalar_entry_points_name_the_shape_range():
    # past the AN shapes of operator norms up to MAX_NORM the section's squares
    # overflow: m_hat_case(-0.001, 1e-160) returned NaN (Monte-Carlo gives
    # 0.4926), and the section cuts at (-0.1, 1e200) died on a RuntimeWarning
    assert classify_case(ANCoords(-0.001, 1e-160)) is CaseRegime.CASE6
    with pytest.raises(DomainError, match="supported range"):
        m_hat_case(ANCoords(-0.001, 1e-160))
    past = iwasawa_image_coords(1.001 * regions.MAX_NORM, 0.3)
    entry_points = (
        _m_hat_closed_form,
        m_hat_case,
        m_hat_partials,
        m_hat_direct,
        lambda c: section_intervals(0.1, c),
    )
    # m_hat_case answered the Case 1 and Case 7 shapes (1, 1e-200) and
    # (-5, 1e-200) from the label, with 1.0 and 0.0
    assert classify_case(ANCoords(1.0, 1e-200)) is CaseRegime.CASE1
    assert classify_case(ANCoords(-5.0, 1e-200)) is CaseRegime.CASE7
    shapes = (
        ANCoords(-0.001, 1e-160),
        ANCoords(-0.1, 1e200),
        ANCoords(1e160, 1.0),
        past,
        ANCoords(1.0, 1e-200),
        ANCoords(-5.0, 1e-200),
    )
    for c in shapes:
        for f in entry_points:
            with pytest.raises(DomainError, match=r"supported range.*1e\+76"):
                f(c)
    # every shape on the circle of a supported norm lies inside, where the
    # scalar closed form gives the batched one's bits
    rng = np.random.default_rng(5)
    half_pi = math.pi / 2.0
    for r in (regions.MAX_NORM, 1.0 / regions.MAX_NORM, *10.0 ** rng.uniform(0.0, 38.0, 20)):
        theta = np.concatenate((rng.uniform(-half_pi, half_pi, 5), [-half_pi, 0.0, half_pi]))
        gx, gy = regions._circle_coords(float(r), theta)
        batch = regions._closed_form(gx, gy)
        for i, c in enumerate(map(ANCoords, gx, gy)):
            assert _m_hat_closed_form(c) == tuple(float(part[i]) for part in batch), c
            assert abs(m_hat_direct(c) - m_hat_case(c)) < 1e-8, c
            section_intervals(0.1, c)  # raises no DomainError


def test_numpy_scalars_give_the_float_results():
    # numpy flags do not add: np.True_ + np.True_ is True, not 2
    rng = np.random.default_rng(59)
    for gx, gy in _log_uniform_points(rng, 300):
        as_numpy = ANCoords(np.float64(gx), np.float64(gy))
        assert type(as_numpy.g_x) is float and type(as_numpy.g_y) is float
        assert m_hat_case(as_numpy) == m_hat_case(ANCoords(gx, gy))
        assert m_hat_partials(as_numpy) == m_hat_partials(ANCoords(gx, gy))
