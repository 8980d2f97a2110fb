"""Fundamental-domain reduction, the region of the S-prefix tiles, first
letters in the free-product structure, and both symbol forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertransfer.errors import DomainError
from hypertransfer.modular import (
    _TWO_ROUND_TABLES,
    IntMat2,
    Letter,
    _in_domain,
    _two_round_codes,
    first_letter,
    reduce_to_fundamental_domain,
    symbol_m_sign,
    symbol_m_word,
)
from hypertransfer.sl2 import HalfPlanePoint, RealMat2, mobius_act
from reference import I2, R_MAT, S_MAT, T_MAT, fraction_reduce, in_region_A, reduced_words


def as_real(g: IntMat2) -> RealMat2:
    return RealMat2(float(g.a), float(g.b), float(g.c), float(g.d))


def test_generator_relations():
    assert R_MAT == S_MAT @ T_MAT
    # S^2 = R^3 = -I
    assert S_MAT @ S_MAT == IntMat2(-1, 0, 0, -1)
    assert R_MAT @ R_MAT @ R_MAT == IntMat2(-1, 0, 0, -1)


def test_intmat2_exact_det():
    with pytest.raises(DomainError):
        IntMat2(1, 1, 1, 1)


def test_reduce_examples():
    rp = reduce_to_fundamental_domain(HalfPlanePoint(0.0, 2.0))
    assert rp.gamma == I2
    assert (rp.z0.x, rp.z0.y) == (0.0, 2.0)

    rp = reduce_to_fundamental_domain(HalfPlanePoint(5.0, 2.0))
    assert rp.gamma == IntMat2(1, 5, 0, 1)
    assert abs(rp.z0.x) < 1e-12 and abs(rp.z0.y - 2.0) < 1e-12

    rp = reduce_to_fundamental_domain(HalfPlanePoint(0.0, 0.1))
    assert rp.gamma == S_MAT.canonical_sign()
    assert abs(rp.z0.x) < 1e-12 and abs(rp.z0.y - 10.0) < 1e-12


def test_reduce_on_the_unit_arc():
    # of the two arc points z and -1/z = -conj(z) the one with Re <= 0 is kept
    rp = reduce_to_fundamental_domain(HalfPlanePoint(0.28, 0.96))
    assert rp.gamma == S_MAT
    assert rp.z0.x == pytest.approx(-0.28, abs=1e-15)
    assert rp.z0.y == pytest.approx(0.96, abs=1e-15)
    assert reduce_to_fundamental_domain(rp.z0).gamma == I2


def test_reduce_underflowing_point():
    # x^2 + y^2 underflows to 0 for these points, but -1/z is representable
    rp = reduce_to_fundamental_domain(HalfPlanePoint(0.0, 1e-300))
    assert rp.gamma == S_MAT.canonical_sign()
    assert rp.z0.x == 0.0 and rp.z0.y == pytest.approx(1e300, rel=1e-15)
    # -1/z = (-3 + 4i) / 25e-200, then a translation by about 1.2e199
    rp = reduce_to_fundamental_domain(HalfPlanePoint(3e-200, 4e-200))
    assert (rp.gamma.a, rp.gamma.b, rp.gamma.c) == (0, -1, 1)
    assert rp.gamma.d == pytest.approx(-1.2e199, rel=1e-15)
    assert rp.z0.y == pytest.approx(1.6e199, rel=1e-15)
    # where -1/z overflows, the error is named
    for x, y in ((0.0, 5e-324), (1e-320, 1e-320)):
        with pytest.raises(DomainError, match="overflows"):
            reduce_to_fundamental_domain(HalfPlanePoint(x, y))


def test_reduction_reaches_the_domain_after_216_rounds():
    # the golden-ratio point at height 1e-300 takes 216 translate-and-invert
    # rounds, on integers of up to 2 000 bits, to the point of the exact loop
    z = ((math.sqrt(5.0) - 1.0) / 2.0, 1e-300)
    rp = reduce_to_fundamental_domain(HalfPlanePoint(*z))
    assert _in_domain(rp.z0.x, rp.z0.y)
    assert (rp.gamma, rp.z0.x, rp.z0.y) == fraction_reduce(*z)


def test_domain_membership_is_tolerant_by_the_circle_tolerance():
    inside = ((0.5, 0.9), (-0.5 - 5e-13, 2.0), (0.5 + 5e-13, 2.0), (0.0, 1.0 - 2e-13), (0.0, 7.0))
    outside = ((0.5 + 5e-12, 2.0), (-0.6, 2.0), (0.0, 1.0 - 2e-12), (0.3, 0.9), (math.nan, 2.0))
    assert all(_in_domain(x, y) for x, y in inside)
    assert not any(_in_domain(x, y) for x, y in outside)


def test_reduce_invariants_bulk():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        x = float(rng.uniform(-20, 20))
        y = float(np.exp(rng.uniform(-3, 3) * math.log(10.0)))
        rp = reduce_to_fundamental_domain(HalfPlanePoint(x, y))
        img = mobius_act(as_real(rp.gamma), rp.z0)
        assert abs(img.x - x) <= 1e-9 and abs(img.y - y) <= 1e-9 * max(1.0, y)
        assert abs(rp.z0.x) <= 0.5 + 1e-12
        assert rp.z0.x ** 2 + rp.z0.y ** 2 >= 1.0 - 1e-12
        again = reduce_to_fundamental_domain(rp.z0)
        assert again.gamma == I2


def test_canonical_sign():
    assert IntMat2(-1, 0, 0, -1).canonical_sign() == I2
    g = IntMat2(0, 1, -1, 0)  # c < 0: flips
    assert g.canonical_sign() == S_MAT
    assert S_MAT.canonical_sign() == S_MAT


def test_in_region_A():
    assert in_region_A(HalfPlanePoint(0.0, 2.0))
    assert not in_region_A(HalfPlanePoint(-1.0, 0.5))
    assert not in_region_A(HalfPlanePoint(-0.6, 3.0))
    # strip union: everything with Re >= 1/2 is inside
    for x in (0.5, 0.7, 3.2):
        for y in (0.05, 1.0, 40.0):
            assert in_region_A(HalfPlanePoint(x, y))
    # first_letter's exact-integer probe agrees with the float membership of
    # the probe point's image
    for _, g in reduced_words(8)[1:]:
        inside = in_region_A(mobius_act(as_real(g), HalfPlanePoint(0.0, 2.0)))
        assert (first_letter(g) is Letter.S_PREFIX) == inside, g


def test_first_letter_examples():
    assert first_letter(I2) is Letter.IDENTITY
    assert first_letter(IntMat2(-1, 0, 0, -1)) is Letter.IDENTITY
    assert first_letter(S_MAT) is Letter.S_PREFIX
    assert first_letter(R_MAT) is Letter.R_PREFIX
    assert first_letter(R_MAT @ R_MAT) is Letter.R_PREFIX


def test_enumeration_size_and_dedup():
    # free product Z2 * Z3: 3,4,6,8,12,... alternating words per length, 442
    # distinct elements (up to sign) in <= 12 letters including the identity
    words = reduced_words(12)
    assert len(words) == 442
    assert len({g.canonical_sign().entries() for _, g in words}) == 442


def test_first_letter_matches_word_oracle():
    for word, g in reduced_words(8):
        want = Letter.IDENTITY if not word else (
            Letter.S_PREFIX if word[0] == "S" else Letter.R_PREFIX
        )
        assert first_letter(g) is want, word


def test_symbol_word_examples():
    assert symbol_m_word(I2) == 1.0
    assert symbol_m_word(IntMat2(-1, 0, 0, -1)) == 1.0
    assert symbol_m_word(R_MAT) == 0.0
    sr = S_MAT @ R_MAT
    assert symbol_m_word(sr) == 1.0
    assert symbol_m_word(T_MAT) == 1.0  # T = +-SR begins with S


def test_symbol_sign_examples():
    assert symbol_m_sign(T_MAT) == 1
    assert symbol_m_sign(S_MAT) == 0
    assert symbol_m_sign(R_MAT) == -1


def test_symbol_parity_on_enumeration():
    for _, g in reduced_words(8):
        neg = IntMat2(-g.a, -g.b, -g.c, -g.d)
        assert symbol_m_word(g) == symbol_m_word(neg)
        assert symbol_m_sign(g) == symbol_m_sign(neg)
        assert symbol_m_word(g) in (0.0, 1.0)
        assert symbol_m_sign(g) in (-1, 0, 1)


@st.composite
def _shadows(draw):
    """Upper half-plane points: anywhere in a wide box, or, shifted by an
    integer, on the lines Re z = +-1/2 or the circles |z| = 1 and |z + 1| = 1,
    where the reduction's tolerance and floor conventions decide."""
    kind = draw(st.sampled_from(("box", "line", "unit circle", "left circle")))
    shift = draw(st.integers(-3, 3))
    if kind == "box":
        log_y = draw(st.floats(math.log(1e-30), math.log(1e3)))
        return draw(st.floats(-1e6, 1e6)), math.exp(log_y)
    if kind == "line":
        x = shift + draw(st.sampled_from((-0.5, 0.5)))
        return x, math.exp(draw(st.floats(math.log(1e-6), math.log(10.0))))
    phi = draw(st.floats(1e-9, math.pi - 1e-9))
    centre = 0.0 if kind == "unit circle" else -1.0
    return shift + centre + math.cos(phi), math.sin(phi)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_shadows())
@example((0.0, 1.0))
@example((-0.5, math.sqrt(3.0) / 2.0))
@example((0.5, math.sqrt(3.0) / 2.0))
@example((-0.5, 0.5))
@example((0.5, 1e-30))
def test_word_rule_matches_the_scalar_reduction(z):
    # the two-round code gives the word and the sign symbol of the gamma the
    # full scalar reduction finds, a 0 as +0.0; the samples it leaves open are
    # finished by the caller
    x, y = z
    code, left = _two_round_codes(np.array([x]), np.array([y]))
    if left.size == 0:
        gamma = reduce_to_fundamental_domain(HalfPlanePoint(x, y)).gamma
        for symbol in (symbol_m_word, symbol_m_sign):
            got, exact = _TWO_ROUND_TABLES[symbol][code[0]], float(symbol(gamma))
            assert (got, math.copysign(1.0, got)) == (exact, math.copysign(1.0, exact)), (
                symbol, x, y, gamma,
            )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
        _shadows(),
    )
)
@example((0.3, 1e-7))
@example((0.28, 0.96))
@example((0.5, math.sqrt(3.0) / 2.0))
def test_reduction_is_the_exact_fraction_loop(z):
    # gamma equal to that of the translate/invert loop on exact fractions,
    # and z0 its exact point rounded once, from heights 1e-300 to 1e300 and on
    # the sides of the domain. At (0.3, 1e-7) a float loop gives
    # z0_x = 0.29997337947221947 for the exact 0.30001110223024625
    rp = reduce_to_fundamental_domain(HalfPlanePoint(*z))
    assert (rp.gamma, rp.z0.x, rp.z0.y) == fraction_reduce(*z), z
