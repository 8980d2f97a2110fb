"""Right lattice cocycle, domain samplers, and the Monte-Carlo transferred
symbol."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertransfer import cocycle
from hypertransfer.cocycle import (
    CocycleResult,
    DomainPoint,
    _domain_xy,
    _mean_se,
    _rng,
    _sample_symbols,
    _sample_xyth,
    _shadow_batch,
    cocycle_beta,
    domain_measure_mc,
    sample_domain,
    transferred_symbol_mc,
)
from hypertransfer.errors import DomainError
from hypertransfer.modular import (
    _TWO_ROUND_TABLES,
    IntMat2,
    _two_round_codes,
    reduce_to_fundamental_domain,
    symbol_m_sign,
    symbol_m_word,
)
from hypertransfer.quadrature import QuadratureConfig
from hypertransfer.regions import m_tilde_full
from hypertransfer.sl2 import (
    IDENTITY,
    ANCoords,
    HalfPlanePoint,
    RealMat2,
    an_matrix,
    cartan_a,
    halfplane_image,
    operator_norm,
    rotation,
)
from reference import (
    I2,
    S_MAT,
    closed_form_rotated,
    matrix_shadow,
    mp_beta,
    mp_moved,
    mp_shadow,
    mp_two_round_codes,
    random_domain_point,
)


def random_group_elt(rng: np.random.Generator) -> RealMat2:
    # KAK with r in [0.5, 2]: operator norm at most 2
    return (
        rotation(float(rng.uniform(0, 2 * math.pi)))
        @ cartan_a(float(rng.uniform(0.5, 2.0)))
        @ rotation(float(rng.uniform(0, 2 * math.pi)))
    )


def at_norm(g: RealMat2, n: float) -> RealMat2:
    """g, after checking that it runs at the operator norm n that its test
    names, within 1e-12 relative."""
    assert abs(operator_norm(g) - n) <= 1e-12 * n, (n, operator_norm(g))
    return g


def s0(p: DomainPoint) -> RealMat2:
    # the AN factor of a domain point, formed as cocycle_beta forms it
    return an_matrix(ANCoords(p.x, p.y))


def scalar_results(
    x: np.ndarray, y: np.ndarray, theta: np.ndarray, g: RealMat2
) -> list[CocycleResult]:
    """cocycle_beta of every sample (x, y, theta), one at a time: the
    reference the Monte-Carlo route's two-round rows are held against."""
    return [
        cocycle_beta(DomainPoint(float(a), float(b), float(t)), g)
        for a, b, t in zip(x, y, theta)
    ]


def row_mismatches(symbol, x, y, theta, g, results: list[CocycleResult]) -> np.ndarray:
    """Indices of the samples whose Monte-Carlo symbol value differs from the
    symbol of their scalar beta."""
    scalar = np.array([float(symbol(res.beta)) for res in results])
    return np.flatnonzero(_sample_symbols(symbol, x, y, theta, g) != scalar)


def cocycle_results(
    x: np.ndarray, y: np.ndarray, theta: np.ndarray, g: RealMat2
) -> list[CocycleResult]:
    """scalar_results of every sample, after checking that the Monte-Carlo
    route's word and sign symbols of each sample equal those symbols of its
    scalar beta."""
    results = scalar_results(x, y, theta, g)
    for symbol in _TWO_ROUND_TABLES:
        bad = row_mismatches(symbol, x, y, theta, g, results)
        assert bad.size == 0, (symbol, g, bad[:5])
    return results


def seed_77_cases() -> list[tuple[np.ndarray, np.ndarray, np.ndarray, RealMat2]]:
    """300 seed-77 samples on six elements, rotated norms 1 to 1e5."""
    x, y, theta = _sample_xyth(77, 300)
    elements = [rotation(0.7) @ cartan_a(0.3)]
    for k, r in ((1, 1.0), (2, 10.0), (3, 100.0), (4, 1e4), (5, 1e5)):
        elements.append(at_norm(closed_form_rotated(r, 0.4 * k, 1.3 * k), r))
    return [(x, y, theta, g) for g in elements]


def unit_arc_cases() -> list[tuple[np.ndarray, np.ndarray, np.ndarray, RealMat2]]:
    """25 domain points on the unit arc with 0 < Re < 1/2, under the identity
    and two rotations, which keep the shadow on the arc."""
    x = np.linspace(0.01, 0.49, 25)
    y = np.sqrt(1.0 - x * x)
    theta = np.linspace(0.0, 3.1, 25)
    return [(x, y, theta, g) for g in (IDENTITY, rotation(1.1), rotation(4.0))]


def test_domain_point_validation():
    DomainPoint(0.5, 0.9, 0.0)  # corner of the domain is fine
    with pytest.raises(DomainError):
        DomainPoint(0.6, 2.0, 0.0)
    with pytest.raises(DomainError):
        DomainPoint(0.0, 0.9, 0.0)
    with pytest.raises(DomainError):
        DomainPoint(0.0, 2.0, math.pi)
    with pytest.raises(DomainError):
        DomainPoint(0.0, 2.0, -0.1)
    # modular._in_domain decides, with its 1e-12 tolerance past each edge
    DomainPoint(0.5 + 5e-13, 2.0, 0.0)
    DomainPoint(0.0, 1.0 - 2e-13, 0.0)
    for x, y in ((0.5 + 5e-12, 2.0), (0.0, 1.0 - 2e-12)):
        with pytest.raises(DomainError, match="outside the fundamental domain"):
            DomainPoint(x, y, 0.0)
    # coordinates that no AN element has: y = inf and y < 0 would pass the
    # domain's inequalities
    for x, y in ((0.0, math.inf), (0.0, -2.0), (0.0, math.nan), (math.nan, 2.0), (math.inf, 2.0)):
        with pytest.raises(DomainError, match="needs finite x and y > 0"):
            DomainPoint(x, y, 0.0)


def test_identity_gives_trivial_beta():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_domain_point(rng)
        res = cocycle_beta(p, RealMat2(1.0, 0.0, 0.0, 1.0))
        assert res.beta == I2
        assert abs(res.moved.k0_angle - p.k0_angle) <= 1e-12
        for u, v in ((res.moved.x, p.x), (res.moved.y, p.y)):
            assert abs(u - v) <= 1e-12 * max(1.0, abs(v))


def test_rotation_gives_plusminus_identity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = random_domain_point(rng)
        res = cocycle_beta(p, rotation(float(rng.uniform(0, 2 * math.pi))))
        assert res.beta in (I2, I2.neg())


def test_result_invariant_and_moved_validity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p, g = random_domain_point(rng), random_group_elt(rng)
        res = cocycle_beta(p, g)
        assert isinstance(res, CocycleResult)
        a, b, c, d = res.beta.entries()
        lhs = IntMat2(d, -b, -c, a).to_real() @ s0(p) @ rotation(p.k0_angle) @ g
        rhs = s0(res.moved) @ rotation(res.moved.k0_angle)
        for u, v in zip(lhs.entries(), rhs.entries()):
            assert abs(u - v) <= 1e-9
        # moved passed DomainPoint validation already; spot-check the angle
        assert 0.0 <= res.moved.k0_angle < math.pi


def test_right_cocycle_identity_exact():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        p = random_domain_point(rng)
        g1, g2 = random_group_elt(rng), random_group_elt(rng)
        whole = cocycle_beta(p, g1 @ g2).beta
        step1 = cocycle_beta(p, g1)
        step2 = cocycle_beta(step1.moved, g2)
        assert whole == step1.beta @ step2.beta


def test_k_shift_flips_at_most_sign():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p, g = random_domain_point(rng), random_group_elt(rng)
        k = rotation(float(rng.uniform(0, 2 * math.pi)))
        b = cocycle_beta(p, g).beta
        bk = cocycle_beta(p, g @ k).beta
        assert bk in (b, b.neg())


def test_sample_domain_deterministic():
    a = sample_domain(123, 50)
    b = sample_domain(123, 50)
    assert len(a) == 50
    assert a == b
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


def test_sample_counts_are_integers_of_at_least_one():
    # a numpy count reached Philox.advance as a numpy quotient and overflowed
    # (OverflowError: Python int too large to convert to C long), and 1.5
    # raised an unnamed TypeError
    g = cartan_a(0.5)
    assert transferred_symbol_mc(symbol_m_word, g, np.int64(3), 2) == transferred_symbol_mc(
        symbol_m_word, g, 3, 2
    )
    assert domain_measure_mc(5, np.int64(1000)) == domain_measure_mc(5, 1000)
    a, b = sample_domain(1, np.int64(3)), sample_domain(1, 3)
    assert a == b
    for route in (
        lambda n: transferred_symbol_mc(symbol_m_word, g, n, 2),
        lambda n: domain_measure_mc(5, n),
        lambda n: sample_domain(1, n),
    ):
        for n in (1.5, 3.0, "3", None):
            with pytest.raises(DomainError, match="sample count must be an integer"):
                route(n)
        for n in (0, -4, np.int64(0)):
            with pytest.raises(DomainError, match="^need at least one sample$"):
                route(n)
        # numpy refused these with its own MemoryError (1e17: 711 PiB) or
        # ValueError (1e20: past its largest array size), naming no input; no
        # 64-bit address space holds either array
        for n in (10**17, 10**20):
            with pytest.raises(DomainError, match=f"^sample count {n} is too large"):
                route(n)


def test_seeds_are_non_negative_integers():
    # seed -1 raised numpy's unnamed "expected non-negative integer", and
    # 1.5 was read as 1
    g = cartan_a(0.5)
    assert _rng(np.int64(7), 3).random(4).tolist() == _rng(7, 3).random(4).tolist()
    assert transferred_symbol_mc(symbol_m_word, g, 500, np.uint8(9)) == transferred_symbol_mc(
        symbol_m_word, g, 500, 9
    )
    for seed in (-1, np.int64(-5), 1.5, 1.0, "7", None):
        for route in (
            lambda s: _rng(s),
            lambda s: transferred_symbol_mc(symbol_m_word, g, 10, s),
            lambda s: domain_measure_mc(s, 10),
            lambda s: sample_domain(s, 10),
        ):
            with pytest.raises(DomainError, match="seed must be a non-negative integer"):
                route(seed)


def test_transferred_symbol_identity_and_constant():
    est, se = transferred_symbol_mc(symbol_m_word, RealMat2(1.0, 0.0, 0.0, 1.0), 4000, 3)
    assert (est, se) == (1.0, 0.0)
    # the route averages the two-round rows only: a constant symbol is refused
    with pytest.raises(DomainError, match="averages only symbol_m_word and symbol_m_sign"):
        transferred_symbol_mc(lambda g: 1.0, cartan_a(0.7), 4000, 3)


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
    # the two-round rule of the word and sign symbols against the scalar
    # cocycle_beta, sample by sample
    for case in seed_77_cases():
        cocycle_results(*case)


def test_batch_beta_matches_scalar_on_the_unit_arc():
    # a domain point on the arc with 0 < Re < 1/2 is the S-image of the
    # boundary point with Re < 0 that the reduction keeps, so both routes
    # take the same inversion there; rotations keep the shadow on the arc
    for case in unit_arc_cases():
        for res in cocycle_results(*case):
            assert res.beta in (S_MAT, S_MAT.neg()), case[3]
            assert res.moved.x < 0.0, case[3]


def test_batch_beta_of_a_half_turn():
    # at theta = 0 and g = -I the residual rotation is w = -s0, with w21 = 0
    # and w22 < 0: cocycle_beta gives beta = -I, which turns its angle back
    # to 0, and the two-round rule reads the symbols of -I
    x, y, theta = np.array([0.0, 0.3]), np.array([2.0, 1.5]), np.zeros(2)
    for res in cocycle_results(x, y, theta, IDENTITY.neg()):
        assert (res.beta, res.moved.k0_angle) == (I2.neg(), 0.0)


def test_batch_symbol_matches_scalar_symbols():
    # the route's mean and standard error against those of the symbols of the
    # per-sample cocycle_beta on the samples it draws: equal values, equal bits
    g = cartan_a(0.25)
    n, seed = 5000, 21
    results = scalar_results(*_sample_xyth(seed, n), g)
    for symbol in _TWO_ROUND_TABLES:
        ref = _mean_se(np.array([float(symbol(res.beta)) for res in results]))
        assert transferred_symbol_mc(symbol, g, n, seed) == ref, symbol


def test_every_row_entry_is_held_against_cocycle_beta(monkeypatch):
    # flipping any one of the 12 row entries makes the sample-by-sample
    # comparison of test_batch_beta_matches_scalar or its unit-arc sibling
    # fail. The seed-77 samples reach codes 0-3 and 5 (618, 301, 654, 109 and
    # 118 times); only the unit-arc samples reach code 4 (+-S^-1)
    cases = {"seed 77": seed_77_cases(), "unit arc": unit_arc_cases()}
    reached = {}
    for name, group in cases.items():
        codes = [_two_round_codes(*_shadow_batch(x, y, np.tan(t), g))[0] for x, y, t, g in group]
        reached[name] = set(np.concatenate(codes).tolist())
    assert reached == {"seed 77": {0, 1, 2, 3, 5}, "unit arc": {4}}
    checked = [(case, scalar_results(*case)) for group in cases.values() for case in group]
    for symbol, row in list(_TWO_ROUND_TABLES.items()):
        for code in range(6):
            flipped = row.copy()
            flipped[code] = 1.0 - flipped[code]
            monkeypatch.setitem(_TWO_ROUND_TABLES, symbol, flipped)
            assert any(
                row_mismatches(symbol, *case, results).size for case, results in checked
            ), (symbol, code)
        monkeypatch.setitem(_TWO_ROUND_TABLES, symbol, row)


def test_word_rule_matches_the_full_reduction():
    # the two-round rule of both symbols against the scalar reduction of each
    # shadow, sample by sample: rotated norms 1 to 1e5, diagonal ones to 1e12
    x, y, theta = _sample_xyth(19, 10_000)
    elements = [
        at_norm(closed_form_rotated(r, 0.4 * k, 1.3 * k), r)
        for k, r in enumerate((1.0, 10.0, 100.0, 1e3, 1e4, 1e5), 1)
    ]
    elements += [cartan_a(r) for r in (0.2, 1e-3, 1e6, 1e9, 1e12)]
    for g in elements:
        zx, zy = _shadow_batch(x, y, np.tan(theta), g)
        gammas = [
            reduce_to_fundamental_domain(HalfPlanePoint(float(u), float(v))).gamma
            for u, v in zip(zx, zy)
        ]
        for symbol in (symbol_m_word, symbol_m_sign):
            exact = np.array([float(symbol(gamma)) for gamma in gammas])
            assert np.array_equal(_sample_symbols(symbol, x, y, theta, g), exact), (symbol, g)


def test_word_rule_finishes_a_double_inversion_on_the_scalar_reduction(monkeypatch):
    # rr rounds to one step below 1 - 1e-12 and Re z < 0: a float loop
    # inverts, takes n2 = 0 and, at the tolerance edge, inverts again, so
    # S^-1 S^-1 cancels to +-I. The exact rr lies below 1 - t, and 1/rr above
    # 1 + t, so the exact loop stops after one inversion, on +-S. The
    # two-round rule leaves the sample open, and the scalar reduction
    # finishes it
    zx, zy = np.array([-0.029199522301274216]), np.array([0.9995736030410053])
    rr = float(zx[0] * zx[0] + zy[0] * zy[0])
    assert 1.0 - 1e-12 - 1e-15 < rr < 1.0 - 1e-12
    _, left = _two_round_codes(zx, zy)
    assert left.tolist() == [0]
    red = reduce_to_fundamental_domain(HalfPlanePoint(float(zx[0]), float(zy[0])))
    assert red.gamma == S_MAT
    finished = []

    def counting_reduce(z):
        finished.append(z)
        return reduce_to_fundamental_domain(z)

    monkeypatch.setattr(cocycle, "_shadow_batch", lambda *args: (zx, zy))
    monkeypatch.setattr(cocycle, "reduce_to_fundamental_domain", counting_reduce)
    one = np.ones(1)
    assert _sample_symbols(symbol_m_word, one, one, one, IDENTITY).tolist() == [symbol_m_word(S_MAT)]
    (sign,) = _sample_symbols(symbol_m_sign, one, one, one, IDENTITY)
    assert (sign, math.copysign(1.0, sign)) == (0.0, 1.0) and symbol_m_sign(S_MAT) == 0
    assert len(finished) == 2


def test_mobius_shadow_gives_the_codes_of_the_matrix_shadow():
    # the one-tangent shadow against the matrix product it replaces, on
    # 17 x 65 536 samples: the two shadows round differently, but no sample
    # changes its two-round code or whether the rule leaves it open
    x, y, theta = _sample_xyth(5, 65_536)
    tau = np.tan(theta)
    elements = [cartan_a(r) for r in (0.2, 1e-3, 10.0, 1e3, 1e6, 1e9, 1e12, 1e15)]
    elements += [
        at_norm(closed_form_rotated(r, 0.4 * k, 1.3 * k), r)
        for k, r in enumerate((1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8), 1)
    ]
    for g in elements:
        code, left = _two_round_codes(*_shadow_batch(x, y, tau, g))
        ref_code, ref_left = _two_round_codes(*matrix_shadow(x, y, theta, g))
        assert np.array_equal(code, ref_code), (g, np.flatnonzero(code != ref_code)[:5])
        assert np.array_equal(left, ref_left), g


@pytest.mark.parametrize(
    "g",
    [cartan_a(r) for r in (1e20, 1e-20, 1e38, 1e-38)]
    + [closed_form_rotated(1e30, 1.3, 0.2), closed_form_rotated(1e30, 0.9, 2.1)],
)
def test_two_round_codes_hold_to_the_end_of_the_norm_range(g):
    # the Monte-Carlo route accepts operator norms up to 1e38, like every
    # route to m_tilde: there the shadows lie as low as height 1e-76, and the
    # two-round codes still equal those of a 60-digit reduction
    assert 1e20 <= operator_norm(g) <= 1e38
    x, y, theta = _sample_xyth(5, 3000)
    code, left = _two_round_codes(*_shadow_batch(x, y, np.tan(theta), g))
    ref = mp_two_round_codes(x, y, theta, g)
    assert np.array_equal(code, ref), (g, np.flatnonzero(code != ref)[:5])
    assert len(left) == 0


def test_shadow_of_a_pole_at_the_end_of_the_norm_range():
    # g = (s 0; s 1/s) at norm 6e37 has g(i) = 1 + iv with v = 2^-250 in
    # float64, and tau = -1/u = -1 puts k0's pole on it: p = 0 exactly and
    # den = q^2 = 2^-500, inside the bound of _shadow_batch (den >= 2.5e-305)
    s = 2.0 ** 125
    g = RealMat2(s, 0.0, s, 1.0 / s)
    assert 1e37 < operator_norm(g) <= 1e38
    gi = halfplane_image(g)
    tau = np.array([-1.0 / gi.x] * 2)
    assert 1.0 + tau[0] * gi.x == 0.0 and (tau[0] * gi.y) ** 2 == 2.0 ** -500
    x, y = np.array([0.0, 0.3]), np.array([1.0, 2.5])
    with np.errstate(all="raise"):
        zx, zy = _shadow_batch(x, y, tau, g)
    ref_x, ref_y = mp_shadow(x, y, tau, g)
    assert np.all(np.abs(zx - ref_x) <= 1e-15 * np.abs(zx))
    assert np.all(np.abs(zy - ref_y) <= 1e-15 * zy)


@pytest.mark.parametrize(
    "g",
    [cartan_a(0.2), cartan_a(1e6), rotation(0.7) @ cartan_a(5.0) @ rotation(2.2),
     rotation(0.9) @ cartan_a(1e3) @ rotation(2.1)],
)
def test_code_shares_are_mirror_symmetric(g):
    # (x, theta) -> (-x, pi - theta), shifted by the rotation offset of g,
    # preserves the sample measure and mirrors each shadow in Re z = 0, which
    # swaps the signs of n1 and n2: codes 0 and 2, and 3 and 5, share alike
    x, y, theta = _sample_xyth(41, 200_000)
    code, _ = _two_round_codes(*_shadow_batch(x, y, np.tan(theta), g))
    for lo, hi in ((0, 2), (3, 5)):
        d = (code == lo).astype(float) - (code == hi)
        est, se = d.mean(), d.std(ddof=1) / math.sqrt(len(d))
        assert abs(est) <= 5.0 * se, (lo, hi, est, se)


# 1 on the codes of +-I and +-S^-1: beta(p, g) is +-I or +-S
DEFICIT_ROW = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("r", [1.33, 2.0, 5.0])
def test_deficit_shares_give_m_tilde_minus_a_half(r):
    # by the mirror above p0 = p2 and p3 = p5, and the word table is 1 on
    # codes 1-4, so m_tilde - 1/2 = (p1 + p4)/2. A sample the rule leaves
    # open ends on +-I after code 4, and the row is 1 on both. The spread of
    # this estimate falls with p1 + p4: at n = 5 it is a tenth of the word
    # estimator's or less on the same samples, where m_tilde - 1/2 is 1e-3
    g = cartan_a(r)
    x, y, theta = _sample_xyth(43, 10**6)
    code, _ = _two_round_codes(*_shadow_batch(x, y, np.tan(theta), g))
    est, se = _mean_se(DEFICIT_ROW[code] / 2.0)
    tight, _ = m_tilde_full(g, QuadratureConfig(abs_tol=1e-15, rel_tol=1e-13))
    assert abs(est - (tight - 0.5)) <= 5.0 * se, (est, se, tight - 0.5)
    if r == 5.0:
        _, word_se = _mean_se(_sample_symbols(symbol_m_word, x, y, theta, g))
        assert se <= word_se / 10.0, (se, word_se)


@pytest.mark.parametrize(
    "k, r", list(enumerate((1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8), 1))
)
def test_transferred_sign_symbol_vanishes(k, r):
    # sgn(ac + bd) is the sign of Re(beta i): the average over the domain is
    # odd under g_x -> -g_x and so 0 at every norm; this holds the sign
    # symbol's two-round rule to it up to rotated norm 1e8
    g = at_norm(closed_form_rotated(r, 0.4 * k, 1.3 * k), r)
    est, se = transferred_symbol_mc(symbol_m_sign, g, 20_000, 30 + k)
    assert abs(est) <= 5.0 * se, (est, se)


# exact (est, se) of transferred_symbol_mc at n = 200 000 and seed 7: a faster
# reduction must leave these bits alone. The first word value is the README's
# `symbol 0.2 --mode mc --n 200000 --seed 7` line. From norm 1e12 to the end
# of the range at 1e38 the diagonal rows share their bits.
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
    "cartan 1e20": (
        cartan_a(1e20),
        (0.50023, 0.0011180366655570506),
        (0.00046, 0.002236073331114101),
    ),
    "cartan 1e38": (
        cartan_a(1e38),
        (0.50023, 0.0011180366655570506),
        (0.00046, 0.002236073331114101),
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_MC))
def test_mc_estimates_are_frozen(name):
    g, word, sign = FROZEN_MC[name]
    assert transferred_symbol_mc(symbol_m_word, g, 200_000, 7) == word
    assert transferred_symbol_mc(symbol_m_sign, g, 200_000, 7) == sign


# exact (est, se) of transferred_symbol_mc at rotated norm 1e3 and seed 3 for
# sample counts n whose theta and y streams start off a Philox counter step
# (n and 2n not multiples of 4), with a ragged last block from 16 385 on
FROZEN_MC_ODD_N = {
    1: ((0.0, 0.0), (-1.0, 0.0)),
    3: ((0.6666666666666666, 0.33333333333333337), (0.3333333333333333, 0.6666666666666667)),
    16_385: (
        (0.49649069270674395, 0.003906153786020724),
        (-0.007018614586512054, 0.007812307572041448),
    ),
    50_001: (
        (0.500169996600068, 0.0022360678482602264),
        (0.00033999320013599726, 0.004472135696520453),
    ),
}


@pytest.mark.parametrize("n", sorted(FROZEN_MC_ODD_N))
def test_mc_estimates_at_odd_sample_counts_are_frozen(n):
    g = FROZEN_MC["rotated 1e3"][0]
    word, sign = FROZEN_MC_ODD_N[n]
    assert transferred_symbol_mc(symbol_m_word, g, n, 3) == word
    assert transferred_symbol_mc(symbol_m_sign, g, n, 3) == sign


@pytest.mark.parametrize(
    "block, n",
    [(1_001, 4_000), (1_001, 4_001), (1_001, 4_002), (1_001, 4_003)]
    + [(cocycle._MC_BLOCK, cocycle._MC_BLOCK - 1), (cocycle._MC_BLOCK, cocycle._MC_BLOCK + 1)],
)
def test_streamed_blocks_join_into_the_whole_draw(monkeypatch, block, n):
    # the blocks transferred_symbol_mc draws, joined in order, are the samples
    # _sample_xyth draws whole, and both read x, y and theta off the
    # consecutive draws 0..n-1, n..2n-1 and 2n..3n-1 of one generator
    drawn = []

    def record(symbol, x, y, theta, g):
        drawn.append((x, y, theta))
        return np.zeros(len(x))

    monkeypatch.setattr(cocycle, "_sample_symbols", record)
    monkeypatch.setattr(cocycle, "_MC_BLOCK", block)
    transferred_symbol_mc(symbol_m_word, IDENTITY, n, 3)
    assert [len(x) for x, _, _ in drawn] == [min(block, n - i) for i in range(0, n, block)]
    u1, u2, u3 = _rng(3).random(3 * n).reshape(3, n)
    one_stream = (*_domain_xy(u1, u2), math.pi * u3)
    for whole, single, blocks in zip(_sample_xyth(3, n), one_stream, zip(*drawn)):
        assert np.array_equal(whole, np.concatenate(blocks))
        assert np.array_equal(whole, single)


@pytest.mark.parametrize("name", sorted(FROZEN_MC))
def test_frozen_codes_do_not_depend_on_the_tangent_kernel(name):
    # numpy's SIMD tangent and the C library's differ by an ulp on about one
    # angle in 200; the frozen samples keep their codes under either
    g = FROZEN_MC[name][0]
    x, y, theta = _sample_xyth(7, 200_000)
    libm_tau = np.array([math.tan(t) for t in theta.tolist()])
    code, left = _two_round_codes(*_shadow_batch(x, y, np.tan(theta), g))
    libm_code, libm_left = _two_round_codes(*_shadow_batch(x, y, libm_tau, g))
    assert np.array_equal(code, libm_code), np.flatnonzero(code != libm_code)[:5]
    assert np.array_equal(left, libm_left)


def test_mc_blocks_move_no_bit_and_bound_the_working_set(monkeypatch):
    # every sample is drawn and reduced on its own, so the block size moves
    # no bit; drawn block by block, a 200 000-sample call's numpy memory peaks
    # near 3.2 MB (9.2 MB with the samples drawn whole, 17 MB in one block)
    g, word, _ = FROZEN_MC["rotated 1e3"]
    tracemalloc.start()
    try:
        assert transferred_symbol_mc(symbol_m_word, g, 200_000, 7) == word
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    for block in (7_001, 200_000):
        monkeypatch.setattr(cocycle, "_MC_BLOCK", block)
        assert transferred_symbol_mc(symbol_m_word, g, 200_000, 7) == word, block


def test_mc_reduction_range_is_named():
    # g is checked once per call, before any draw, against the norm range of
    # every route to m_tilde: past 1e38 every symbol, a generic one too,
    # raises its one named error, also where the half-plane image of g leaves
    # float64 (at 1e200 c^2 + d^2 underflows to 0)
    generic = lambda beta: 1.0  # noqa: E731
    for symbol in (symbol_m_word, symbol_m_sign, generic):
        for r in (1e39, 1e160, 1e200):
            with pytest.raises(DomainError, match=r"supported range \[1, 1e\+38\]"):
                transferred_symbol_mc(symbol, cartan_a(r), 10, 0)
    # inside the range a generic symbol is refused: the route forms no beta
    for r in (1.1e15, 1e20):
        with pytest.raises(DomainError, match="averages only symbol_m_word and symbol_m_sign"):
            transferred_symbol_mc(generic, cartan_a(r), 1000, 1)
    # the word and sign symbols read two reduction rounds and no full beta
    for symbol in (symbol_m_word, symbol_m_sign):
        for r in (1.1e15, 1e20, 1e38):
            est, _ = transferred_symbol_mc(symbol, cartan_a(r), 1000, 1)
            assert -1.0 <= est <= 1.0


def test_scalar_cocycle_refuses_a_nonpositive_determinant():
    # RealMat2's tolerance grows with |ad| + |bc|, so it admits float entries
    # whose exact determinant is <= 0, which no lattice reduction takes:
    # cocycle_beta refuses them by name. This rotated element at norm 1e10
    # has the exact determinant -949.5. cartan_a(1e9), which keeps its
    # determinant, reduces to the exact beta
    rotated = closed_form_rotated(1e10, 0.9, 0.3)
    a, b, c, d = map(Fraction, rotated.entries())
    assert a * d - b * c < -900
    p = sample_domain(1, 1)[0]
    for g in (RealMat2(1e20, 1e20, 1e20, 1e20), rotated):
        with pytest.raises(DomainError, match=r"cocycle_beta needs det g > 0"):
            cocycle_beta(p, g)
    g = cartan_a(1e9)
    for p in sample_domain(1, 50):
        assert cocycle_beta(p, g).beta == mp_beta(p, g), p


def test_cocycle_beta_is_exact_at_every_norm():
    # 1 200 samples at each norm against the reference of enough digits: none
    # may differ. A float reduction of the float product differs on about 1
    # sample in 40 at 1e7. From about 1e9 on the float entries of a rotated
    # element lose their determinant, so 1e15 and 1e38 run diagonal ones
    n = 0.999 * 3e5
    rotated = [(0.9, 2.1), (2.5, 0.4)]
    cases = {
        n: [cartan_a(n), cartan_a(1.0 / n)] + [closed_form_rotated(n, *t) for t in rotated],
        1e7: [cartan_a(1e7), cartan_a(1e-7)] + [closed_form_rotated(1e7, *t) for t in rotated],
        1e15: [cartan_a(1e15), cartan_a(1e-15)],
        1e38: [cartan_a(1e38), cartan_a(1e-38)],
    }
    for norm, elements in cases.items():
        count = 1200 // len(elements)
        for k, g in enumerate(elements):
            at_norm(g, norm)
            for p in sample_domain(50 + k, count):
                assert cocycle_beta(p, g).beta == mp_beta(p, g), (g, p)


def test_cocycle_moved_point_is_within_an_ulp():
    # x, y and the angle of the moved point, each rounded once, within 1 ulp
    # of the 120-digit reduction of the same float factors; a float
    # reduction of the float product is more than 1 ulp off on all 900
    # samples, by up to 1.2e-3
    for k, norm in enumerate((1e3, 3e4, 2.9e5)):
        for g in (cartan_a(norm), at_norm(closed_form_rotated(norm, 0.7 + k, 1.9 - k), norm)):
            for p in sample_domain(60 + k, 150):
                moved = cocycle_beta(p, g).moved
                for got, want in zip((moved.x, moved.y, moved.k0_angle), mp_moved(p, g)):
                    assert abs(got - want) <= math.ulp(want), (g, p, got, want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    log_norm=st.floats(0.0, math.log(0.999 * 3e5)),
    theta_a=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    theta_b=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    seed=st.integers(0, 2**63),
)
def test_mc_symbols_are_the_mean_over_cocycle_beta(log_norm, theta_a, theta_b, seed):
    # on 64 samples, the two-round route's word and sign averages are, bit
    # for bit, the mean and standard error of the symbols of the scalar betas
    # of the samples it draws, at any rotated norm up to 0.999 * 3e5
    g = closed_form_rotated(math.exp(log_norm), theta_a, theta_b)
    betas = [cocycle_beta(p, g).beta for p in sample_domain(seed, 64)]
    for symbol in _TWO_ROUND_TABLES:
        want = _mean_se(np.array([float(symbol(beta)) for beta in betas]))
        assert transferred_symbol_mc(symbol, g, 64, seed) == want, symbol


def test_generic_symbols_are_refused_before_any_draw(monkeypatch):
    # the route reads the rows of _TWO_ROUND_TABLES, keyed by function
    # identity: a wrapper of symbol_m_word is refused too, after the count,
    # seed and norm checks and before any draw
    wrapper = lambda b: symbol_m_word(b)  # noqa: E731
    g = cartan_a(1e9)
    with pytest.raises(DomainError, match="^need at least one sample$"):
        transferred_symbol_mc(wrapper, g, 0, 1)
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        transferred_symbol_mc(wrapper, g, 10, -1)
    with pytest.raises(DomainError, match="supported range"):
        transferred_symbol_mc(wrapper, cartan_a(1e39), 10, 1)

    class NoDraws:
        def random(self, size):
            raise AssertionError("drew a sample")

    streams = cocycle._streams
    monkeypatch.setattr(cocycle, "_streams", lambda seed, n: [NoDraws()] * len(streams(seed, n)))
    with pytest.raises(AssertionError, match="drew a sample"):
        transferred_symbol_mc(symbol_m_word, g, 10, 1)
    for symbol in (wrapper, symbol_m_sign.__call__, print):
        with pytest.raises(DomainError, match=r"averages only symbol_m_word and symbol_m_sign, got "):
            transferred_symbol_mc(symbol, g, 10, 1)

