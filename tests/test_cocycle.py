"""Right lattice cocycle, domain samplers, and the Monte-Carlo transferred
symbol."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from hypertransfer import cocycle
from hypertransfer.cocycle import (
    CocycleResult,
    DomainPoint,
    _beta_batch,
    _sample_xyth,
    cocycle_beta,
    domain_measure_mc,
    domain_point,
    sample_domain,
    transferred_symbol_mc,
)
from hypertransfer.errors import DomainError
from hypertransfer.modular import (
    I2,
    S_MAT,
    IntMat2,
    reduce_to_fundamental_domain,
    symbol_m_sign,
    symbol_m_word,
)
from hypertransfer.sl2 import IDENTITY, RealMat2, an_coords, cartan_a, rotation


def random_point(rng: np.random.Generator) -> DomainPoint:
    x = float(rng.uniform(-0.5, 0.5))
    y = float(math.sqrt(1.0 - x * x) / (1.0 - rng.uniform(0.0, 0.9)))
    return domain_point(x, y, float(rng.uniform(0.0, math.pi)))


def random_group_elt(rng: np.random.Generator) -> RealMat2:
    # KAK with r in [0.5, 2]: operator norm at most 2
    return (
        rotation(float(rng.uniform(0, 2 * math.pi)))
        @ cartan_a(float(rng.uniform(0.5, 2.0)))
        @ rotation(float(rng.uniform(0, 2 * math.pi)))
    )


def test_domain_point_validation():
    domain_point(0.5, 0.9, 0.0)  # corner of the domain is fine
    with pytest.raises(DomainError):
        domain_point(0.6, 2.0, 0.0)
    with pytest.raises(DomainError):
        domain_point(0.0, 0.9, 0.0)
    with pytest.raises(DomainError):
        domain_point(0.0, 2.0, math.pi)
    with pytest.raises(DomainError):
        domain_point(0.0, 2.0, -0.1)


def test_identity_gives_trivial_beta():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_point(rng)
        res = cocycle_beta(p, RealMat2(1.0, 0.0, 0.0, 1.0))
        assert res.beta == I2
        assert abs(res.moved.k0_angle - p.k0_angle) <= 1e-12
        for u, v in zip(res.moved.s0.entries(), p.s0.entries()):
            assert abs(u - v) <= 1e-12 * max(1.0, abs(v))


def test_rotation_gives_plusminus_identity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = random_point(rng)
        res = cocycle_beta(p, rotation(float(rng.uniform(0, 2 * math.pi))))
        assert res.beta in (I2, I2.neg())


def test_result_invariant_and_moved_validity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p, g = random_point(rng), random_group_elt(rng)
        res = cocycle_beta(p, g)
        assert isinstance(res, CocycleResult)
        lhs = res.beta.inv().to_real() @ p.s0 @ rotation(p.k0_angle) @ g
        rhs = res.moved.s0 @ rotation(res.moved.k0_angle)
        for u, v in zip(lhs.entries(), rhs.entries()):
            assert abs(u - v) <= 1e-9
        # moved passed DomainPoint validation already; spot-check the angle
        assert 0.0 <= res.moved.k0_angle < math.pi


def test_right_cocycle_identity_exact():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        p = random_point(rng)
        g1, g2 = random_group_elt(rng), random_group_elt(rng)
        whole = cocycle_beta(p, g1 @ g2).beta
        step1 = cocycle_beta(p, g1)
        step2 = cocycle_beta(step1.moved, g2)
        assert whole == step1.beta @ step2.beta


def test_k_shift_flips_at_most_sign():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p, g = random_point(rng), random_group_elt(rng)
        k = rotation(float(rng.uniform(0, 2 * math.pi)))
        b = cocycle_beta(p, g).beta
        bk = cocycle_beta(p, g @ k).beta
        assert bk in (b, b.neg())


def test_sample_domain_deterministic():
    a = sample_domain(123, 50)
    b = sample_domain(123, 50)
    assert len(a) == 50
    for p, q in zip(a, b):
        assert p.s0.entries() == q.s0.entries()
        assert p.k0_angle == q.k0_angle
    c = sample_domain(124, 50)
    assert any(p.k0_angle != q.k0_angle for p, q in zip(a, c))
    with pytest.raises(DomainError):
        sample_domain(123, 0)


def test_sample_domain_marginals():
    n = 10 ** 6
    x, y, theta = _sample_xyth(2024, n)
    assert np.all(np.abs(x) <= 0.5) and np.all(y * y + x * x >= 1.0 - 1e-9)
    # theta uniform on [0, pi): mean pi/2 within 3 standard errors
    se = math.pi / math.sqrt(12.0 * n)
    assert abs(float(theta.mean()) - math.pi / 2.0) <= 3.0 * se
    # x marginal has density prop. to 1/sqrt(1-x^2): KS against the CDF
    cdf = (np.arcsin(np.sort(x)) + math.pi / 6.0) * (3.0 / math.pi)
    emp = np.arange(1, n + 1) / n
    ks = float(np.max(np.abs(cdf - emp)))
    assert ks < 0.002


def test_domain_measure_estimate():
    est, se = domain_measure_mc(5, 200_000)
    assert se > 0.0
    assert abs(est - math.pi / 3.0) <= 3.0 * se
    # the stream, draw order and estimator are frozen bit for bit
    assert domain_measure_mc(20240914, 200_000) == (1.047723307001106, 0.0007486090403168687)
    with pytest.raises(DomainError, match="need at least one sample"):
        domain_measure_mc(5, 0)


def test_transferred_symbol_identity_and_constant():
    est, se = transferred_symbol_mc(symbol_m_word, RealMat2(1.0, 0.0, 0.0, 1.0), 4000, 3)
    assert (est, se) == (1.0, 0.0)
    est, se = transferred_symbol_mc(lambda g: 1.0, cartan_a(0.7), 4000, 3)
    assert (est, se) == (1.0, 0.0)


def test_transferred_symbol_range_and_evenness():
    g = cartan_a(0.4) @ rotation(0.3)
    est, _ = transferred_symbol_mc(symbol_m_word, g, 20_000, 12)
    assert 0.0 <= est <= 1.0
    neg = RealMat2(-g.a, -g.b, -g.c, -g.d)
    est2, se2 = transferred_symbol_mc(symbol_m_word, neg, 20_000, 12)
    assert est2 == est
    est3, _ = transferred_symbol_mc(symbol_m_word, g, 20_000, 13)
    assert est3 != est  # different seed, different draw


def test_batch_beta_matches_scalar():
    x, y, theta = _sample_xyth(77, 300)
    elements = [rotation(0.7) @ cartan_a(0.3)]
    # from norm 1e6 on some samples differ: their shadows lie below height
    # 1e-12, where the float64 rounding of h moves the reduced point across a
    # side of the domain (see MC_MAX_NORM); at 1e6 a 60-digit reference
    # sides with the batch route
    for k, r in ((1, 1.0), (2, 10.0), (3, 100.0), (4, 1e4), (5, 1e5)):
        elements.append(rotation(0.4 * k) @ cartan_a(r) @ rotation(1.3 * k))
    for g in elements:
        A, B, C, D = _beta_batch(x, y, theta, g)
        for i in range(300):
            p = domain_point(float(x[i]), float(y[i]), float(theta[i]))
            b = cocycle_beta(p, g).beta
            assert (int(A[i]), int(B[i]), int(C[i]), int(D[i])) == b.entries(), (g, i)


def test_batch_beta_matches_scalar_on_the_unit_arc():
    # a domain point on the arc with 0 < Re < 1/2 is the S-image of the
    # boundary point with Re < 0 that the reduction keeps, so both routes
    # take the same inversion there; rotations keep the shadow on the arc
    x = np.linspace(0.01, 0.49, 25)
    y = np.sqrt(1.0 - x * x)
    theta = np.linspace(0.0, 3.1, 25)
    for g in (IDENTITY, rotation(1.1), rotation(4.0)):
        A, B, C, D = _beta_batch(x, y, theta, g)
        for i in range(len(x)):
            res = cocycle_beta(domain_point(float(x[i]), float(y[i]), float(theta[i])), g)
            assert (int(A[i]), int(B[i]), int(C[i]), int(D[i])) == res.beta.entries(), (g, i)
            assert res.beta in (S_MAT, S_MAT.neg())
            assert an_coords(res.moved.s0).g_x < 0.0


def test_capped_rounds_finish_on_the_scalar_reduction(monkeypatch):
    # with the vectorized rounds cut short, the samples still active are
    # finished one by one and written back to their own positions
    g = rotation(0.9) @ cartan_a(1e3) @ rotation(2.1)
    x, y, theta = _sample_xyth(5, 2000)
    full = np.stack(_beta_batch(x, y, theta, g))
    finished = []

    def counting_reduce(z):
        finished.append(z)
        return reduce_to_fundamental_domain(z)

    monkeypatch.setattr(cocycle, "reduce_to_fundamental_domain", counting_reduce)
    for cap in (1, 2):
        monkeypatch.setattr(cocycle, "_VEC_ITER_CAP", cap)
        finished.clear()
        capped = np.stack(_beta_batch(x, y, theta, g))
        assert finished, cap
        assert np.array_equal(capped, full), cap


def test_batch_symbol_matches_scalar_symbols():
    g = cartan_a(0.25)
    n, seed = 5000, 21
    fast, _ = transferred_symbol_mc(symbol_m_word, g, n, seed)
    slow, _ = transferred_symbol_mc(lambda b: symbol_m_word(b), g, n, seed)
    assert fast == slow
    fast_s, _ = transferred_symbol_mc(symbol_m_sign, g, n, seed)
    slow_s, _ = transferred_symbol_mc(lambda b: float(symbol_m_sign(b)), g, n, seed)
    assert fast_s == slow_s


# exact (est, se) of transferred_symbol_mc at n = 200 000 and seed 7: a faster
# reduction must leave these bits alone. The first word value is the README's
# `symbol 0.2 --mode mc --n 200000 --seed 7` line.
FROZEN_MC = {
    "cartan 0.2": (
        cartan_a(0.2),
        (0.50133, 0.0011180328284478176),
        (0.000505, 0.002233662613538212),
    ),
    "rotated 1e3": (
        rotation(0.9) @ cartan_a(1e3) @ rotation(2.1),
        (0.498605, 0.0011180324323818158),
        (-0.00279, 0.0022360648647636316),
    ),
    "cartan 1e12": (
        cartan_a(1e12),
        (0.50023, 0.0011180366655570506),
        (0.00046, 0.002236073331114101),
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_MC))
def test_mc_estimates_are_frozen(name):
    g, word, sign = FROZEN_MC[name]
    assert transferred_symbol_mc(symbol_m_word, g, 200_000, 7) == word
    assert transferred_symbol_mc(symbol_m_sign, g, 200_000, 7) == sign


def test_mc_blocks_move_no_bit_and_bound_the_working_set(monkeypatch):
    # every sample is reduced on its own, so the block size moves no bit; the
    # blocks keep a 200 000-sample call's numpy memory near 9 MB (one block
    # of 200 000 peaks near 40 MB)
    g, word, _ = FROZEN_MC["rotated 1e3"]
    tracemalloc.start()
    try:
        assert transferred_symbol_mc(symbol_m_word, g, 200_000, 7) == word
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak
    for block in (7_001, 200_000):
        monkeypatch.setattr(cocycle, "_MC_BLOCK", block)
        assert transferred_symbol_mc(symbol_m_word, g, 200_000, 7) == word, block


def test_mc_reduction_range_is_named():
    # past the int64 headroom the reduction raises one named error instead of
    # wrapping around into a wrong lattice element
    with pytest.raises(DomainError, match=r"supports operator norms up to about 1e\+15"):
        transferred_symbol_mc(symbol_m_word, cartan_a(1e20), 1000, 1)
    # past about norm 1e154 the half-plane image itself leaves float64
    with pytest.raises(DomainError, match=r"overflows float64.*up to about 1e\+15"):
        transferred_symbol_mc(symbol_m_word, cartan_a(1e160), 10, 0)
    est, _ = transferred_symbol_mc(symbol_m_word, cartan_a(1e12), 1000, 1)
    assert 0.0 <= est <= 1.0


def test_scalar_cocycle_names_the_lost_determinant():
    # at norm 1e9 the scalar route's products of factors with entries of
    # about 1e9 round the determinant 1 to values such as -0.98 and -9.27, on
    # 25 of these 50 samples
    failures = 0
    for p in sample_domain(1, 50):
        try:
            cocycle_beta(p, cartan_a(1e9))
        except DomainError as exc:
            failures += 1
            assert "lost to float64 rounding" in str(exc)
            assert re.search(r"entries up to [\d.]+e\+0[89]$", str(exc)), str(exc)
    assert failures > 10
