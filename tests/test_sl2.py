"""Matrix-level algebra: Mobius action, Cartan radius."""

import math

import numpy as np
import pytest

from hypertransfer.errors import DomainError
from hypertransfer.sl2 import (
    IDENTITY,
    ANCoords,
    HalfPlanePoint,
    RealMat2,
    an_matrix,
    cartan_a,
    mobius_act,
    operator_norm,
    rotation,
)
from reference import mp_operator_norm

S_REAL = RealMat2(0.0, -1.0, 1.0, 0.0)
T_REAL = RealMat2(1.0, 1.0, 0.0, 1.0)


def random_sl2(rng: np.random.Generator) -> RealMat2:
    # entries in [-10, 10] projected to det 1; redraw near-singular draws
    while True:
        a, b, c, d = rng.uniform(-10.0, 10.0, 4)
        det = a * d - b * c
        if abs(det) > 1e-3:
            s = math.copysign(math.sqrt(abs(det)), 1.0)
            if det < 0:
                a, b = b, a
                c, d = d, c
                det = -det
                s = math.sqrt(det)
            return RealMat2(a / s, b / s, c / s, d / s)


def test_mobius_examples():
    z = mobius_act(IDENTITY, HalfPlanePoint(0.0, 2.0))
    assert (z.x, z.y) == (0.0, 2.0)
    z = mobius_act(S_REAL, HalfPlanePoint(0.0, 1.0))
    assert abs(z.x) < 1e-15 and abs(z.y - 1.0) < 1e-15
    z = mobius_act(T_REAL, HalfPlanePoint(0.3, 0.7))
    assert abs(z.x - 1.3) < 1e-15 and abs(z.y - 0.7) < 1e-15


def test_mobius_homomorphism_and_sign():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g1, g2 = random_sl2(rng), random_sl2(rng)
        z = HalfPlanePoint(float(rng.uniform(-3, 3)), float(np.exp(rng.uniform(-2, 2))))
        lhs = mobius_act(g1 @ g2, z)
        rhs = mobius_act(g1, mobius_act(g2, z))
        assert abs(lhs.x - rhs.x) <= 1e-9 and abs(lhs.y - rhs.y) <= 1e-9
        neg = RealMat2(-g1.a, -g1.b, -g1.c, -g1.d)
        zp, zn = mobius_act(g1, z), mobius_act(neg, z)
        assert zp.x == zn.x and zp.y == zn.y


def test_mobius_rejects_singular_denominator():
    with pytest.raises(DomainError):
        mobius_act(S_REAL, HalfPlanePoint(0.0, 1e-310))


def test_halfplane_requires_positive_y():
    with pytest.raises(DomainError):
        HalfPlanePoint(0.0, -1.0)


def test_cartan_a():
    assert cartan_a(1.0).a == 1.0 and cartan_a(1.0).b == 0.0
    g = cartan_a(2.0)
    assert (g.a, g.d) == (2.0, 0.5)
    g = cartan_a(0.1)
    assert abs(g.d - 10.0) < 1e-12
    with pytest.raises(DomainError):
        cartan_a(0.0)
    with pytest.raises(DomainError):
        cartan_a(-2.0)


def test_operator_norm_values():
    assert abs(operator_norm(IDENTITY) - 1.0) <= 1e-12
    assert abs(operator_norm(cartan_a(3.0)) - 3.0) <= 1e-12
    g = rotation(0.4) @ cartan_a(3.0) @ rotation(-1.1)
    assert abs(operator_norm(g) - 3.0) <= 1e-12
    # T = (1,1;0,1): largest singular value is the golden ratio
    assert abs(operator_norm(T_REAL) - (1.0 + math.sqrt(5.0)) / 2.0) <= 1e-12
    # diag(r, 1/r) for r in [1e-38, 1e38], 2 000 of the r within 1e-3 of 1
    # in log10: within 1 ulp of the larger float entry
    for r in np.concatenate((np.logspace(-38, 38, 20_000), np.logspace(-1e-3, 1e-3, 2_000))):
        g = cartan_a(float(r))
        norm = max(g.a, g.d)
        assert abs(operator_norm(g) - norm) <= math.ulp(norm), r
    # near the identity, diagonal and rotated, against a 60-digit SVD of the
    # same float entries: norm - 1 keeps its digits
    for k in range(3, 13):
        eps = 10.0**-k
        for g in (
            cartan_a(math.exp(eps)),
            rotation(0.4) @ cartan_a(math.exp(eps)) @ rotation(-1.1),
            rotation(2.3) @ cartan_a(math.exp(-eps)) @ rotation(0.7),
        ):
            ref = mp_operator_norm(g)
            assert abs(operator_norm(g) - ref) <= 4.0 * math.ulp(1.0) * ref, (k, g)


def test_operator_norm_past_float64_squares():
    # the squared entries overflow from about norm 1e154, and a sum of the
    # two hypot terms would from about 9e307
    for r in (1e76, 1e77, 1e78, 1e100, 1e154, 1e155, 1e200, 1e300, 1e308):
        assert math.isclose(operator_norm(cartan_a(r)), r, rel_tol=1e-15), r
        assert math.isclose(operator_norm(cartan_a(1.0 / r)), r, rel_tol=1e-15), r


def test_operator_norm_symmetries():
    rng = np.random.default_rng(31)
    for _ in range(100):
        g = random_sl2(rng)
        inv = RealMat2(g.d, -g.b, -g.c, g.a)
        tr = RealMat2(g.a, g.c, g.b, g.d)
        n = operator_norm(g)
        assert abs(n - operator_norm(inv)) <= 1e-12 * max(1.0, n)
        assert abs(n - operator_norm(tr)) <= 1e-12 * max(1.0, n)


def test_an_matrix_maps_i_to_its_coordinates():
    rng = np.random.default_rng(7)
    for _ in range(100):
        coords = ANCoords(float(rng.uniform(-4, 4)), float(np.exp(rng.uniform(-2, 2))))
        # pi(an_matrix(x,y)) = x + iy
        z = mobius_act(an_matrix(coords), HalfPlanePoint(0.0, 1.0))
        assert abs(z.x - coords.g_x) <= 1e-12 * max(1.0, abs(coords.g_x))
        assert abs(z.y - coords.g_y) <= 1e-12 * coords.g_y
    with pytest.raises(DomainError):
        an_matrix(ANCoords(0.0, -1.0))


def test_realmat2_det_invariant():
    with pytest.raises(DomainError):
        RealMat2(1.0, 0.0, 0.0, 2.0)
    # renormalized products stay on the det-1 surface; long chains of
    # norm-bounded factors keep entries small enough for the 1e-9 check
    rng = np.random.default_rng(3)
    g = IDENTITY
    for _ in range(500):
        g = g @ rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
        g = g @ cartan_a(float(np.exp(rng.uniform(-0.1, 0.1))))
    assert abs(g.a * g.d - g.b * g.c - 1.0) <= 1e-9
    for _ in range(100):
        p = random_sl2(rng) @ random_sl2(rng)
        assert abs(p.a * p.d - p.b * p.c - 1.0) <= 1e-9


def test_realmat2_det_tolerance_scales_with_the_entries():
    # products of rotations and a large Cartan element round a*d and b*c by
    # eps times their size, far past an absolute 1e-9
    rng = np.random.default_rng(17)
    for _ in range(300):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        rotation(float(a)) @ cartan_a(1e-4) @ rotation(float(b))
    # a determinant off by 1e-6 is still rejected at entry scale 1 and 1e4
    for scale in (1.0, 1e4):
        g = rotation(0.7) @ cartan_a(scale) @ rotation(0.2)
        assert abs(g.a) + abs(g.b) + abs(g.c) + abs(g.d) > scale
        with pytest.raises(DomainError, match="is not 1 within"):
            RealMat2(g.a, g.b, g.c, g.d + 1e-6 / g.a)


def test_renormalized_refuses_a_nonpositive_determinant():
    # a genuine determinant of -1: no rounding is blamed
    with pytest.raises(DomainError, match=r"^cannot renormalize: determinant -1\.0$"):
        RealMat2.renormalized(1.0, 0.0, 0.0, -1.0)
    # past entries of about 1e8 the product's a*d and b*c round by more than
    # 1, and here their difference comes out as -1.0
    with pytest.raises(DomainError, match=r"determinant -1\.0, lost to float64 rounding") as exc:
        rotation(0.9) @ cartan_a(2e8) @ rotation(2.1)
    assert str(exc.value).endswith("entries up to 1.57e+08")
