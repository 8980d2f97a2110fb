"""Acceptance suite: one test per shipped guarantee, each printing a single
summary line and enforcing its runtime budget. Run with -v for the one-line
pass/fail report."""

import contextlib
import math
import time

import numpy as np

from hypertransfer.cocycle import (
    cocycle_beta,
    domain_measure_mc,
    transferred_symbol_mc,
)
from hypertransfer.decay import hm_table, second_order_divergence_probe, theta_boundaries
from hypertransfer.discrete import cesaro_positivity_check, cesaro_symbol, jodeit_extend_1d
from hypertransfer.cli import main as cli_main
from hypertransfer.modular import (
    first_letter,
    Letter,
    reduce_to_fundamental_domain,
    symbol_m_word,
)
from hypertransfer.regions import (
    CaseRegime,
    boundary_values,
    classify_case,
    m_hat_case,
    m_hat_direct,
    m_hat_partials,
    m_tilde,
    m_tilde_full,
)
from hypertransfer.sl2 import (
    ANCoords,
    HalfPlanePoint,
    RealMat2,
    cartan_a,
    mobius_act,
    rotation,
)
from reference import random_domain_point, reduced_words

SEED = 20240914
SQRT3 = math.sqrt(3.0)


@contextlib.contextmanager
def budget(label: str, seconds: float):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"[acceptance] {label}: PASS in {dt:.2f}s (budget {seconds:.0f}s)")
    assert dt < seconds, f"{label} exceeded its {seconds}s budget ({dt:.2f}s)"


def _random_bounded_elt(rng, max_norm=10.0):
    r = float(rng.uniform(1.0, max_norm))
    return (
        rotation(float(rng.uniform(0, 2 * math.pi)))
        @ cartan_a(r)
        @ rotation(float(rng.uniform(0, 2 * math.pi)))
    )


def _case_grid():
    """Twelve points per case regime: six abscissas at each of two heights,
    placed strictly inside the case's horizontal window."""
    grid = {c: [] for c in (CaseRegime.CASE2, CaseRegime.CASE3, CaseRegime.CASE4,
                            CaseRegime.CASE5, CaseRegime.CASE6, CaseRegime.CASE8)}
    for gy in (0.1, 0.3):
        bv = boundary_values(gy)
        windows = {
            CaseRegime.CASE2: (bv.b3, bv.b2),
            CaseRegime.CASE3: (bv.b4, bv.b3),
            CaseRegime.CASE4: (bv.b5, bv.b4),
            CaseRegime.CASE5: (bv.b6, bv.b5),
            CaseRegime.CASE6: (bv.b7, bv.b6),
        }
        for case, (lo, hi) in windows.items():
            w = hi - lo
            for gx in np.linspace(lo + 0.08 * w, hi - 0.08 * w, 6):
                grid[case].append(ANCoords(float(gx), gy))
    for gy in (1.2, 2.0):
        lo, hi = -2.0 / SQRT3, 0.0
        w = hi - lo
        for gx in np.linspace(lo + 0.08 * w, hi - 0.08 * w, 6):
            grid[CaseRegime.CASE8].append(ANCoords(float(gx), gy))
    return grid


def test_01_cocycle_identity_exact_on_random_triples():
    with budget("cocycle identity, 1000 random triples, exact", 10):
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            p = random_domain_point(rng)
            g1 = _random_bounded_elt(rng)
            g2 = _random_bounded_elt(rng)
            whole = cocycle_beta(p, g1 @ g2).beta
            s1 = cocycle_beta(p, g1)
            s2 = cocycle_beta(s1.moved, g2)
            assert whole == s1.beta @ s2.beta


def test_02_reduction_tiles_the_half_plane():
    with budget("reduction residual 1e-9 on 10^4 points", 5):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(10_000):
            z = HalfPlanePoint(
                float(rng.uniform(-50, 50)),
                float(10.0 ** rng.uniform(-3, 3)),
            )
            red = reduce_to_fundamental_domain(z)
            img = mobius_act(red.gamma.to_real(), red.z0)
            assert math.hypot(img.x - z.x, img.y - z.y) <= 1e-9 * max(1.0, z.y)
            assert abs(red.z0.x) <= 0.5 + 1e-12
            assert red.z0.x ** 2 + red.z0.y ** 2 >= 1.0 - 1e-12


def test_03_first_letter_matches_word_form_on_enumeration():
    with budget("first letter of 442 reduced words, both signs", 30):
        words = reduced_words(12)
        # a free product: distinct reduced words are distinct elements
        assert len({g.canonical_sign().entries() for _, g in words}) == len(words) == 442
        for word, g in words:
            want = Letter.IDENTITY if not word else (
                Letter.S_PREFIX if word[0] == "S" else Letter.R_PREFIX
            )
            assert first_letter(g) is want, word
            assert first_letter(g.neg()) is want, word


def test_04_domain_measure_is_pi_over_three():
    with budget("domain measure pi/3 via 10^6-sample MC", 10):
        est, se = domain_measure_mc(SEED, 10 ** 6)
        assert se > 0.0
        assert abs(est - math.pi / 3.0) <= 3.0 * se


def test_05_case_engine_matches_direct_oracle():
    with budget("case engine vs direct oracle, 12 points/case", 120):
        for case, points in _case_grid().items():
            assert len(points) == 12
            for c in points:
                assert classify_case(c) is case
                assert abs(m_hat_case(c) - m_hat_direct(c)) <= 1e-5
        assert m_hat_case(ANCoords(0.9, 0.1)) == 1.0
        assert m_hat_case(ANCoords(1.5, 0.3)) == 1.0
        assert m_hat_case(ANCoords(-2.5, 0.1)) == 0.0
        assert m_hat_case(ANCoords(-5.0, 0.3)) == 0.0


def test_06_three_symbol_routes_agree():
    with budget("case / direct / MC symbol routes pairwise 3-sigma", 300):
        for r in (0.1, 0.2, 0.5):
            g = cartan_a(r)
            va, ea = m_tilde_full(g)
            vd, ed = m_tilde_full(g, force_direct=True)
            vm, em = transferred_symbol_mc(symbol_m_word, g, 10 ** 6, SEED)
            assert abs(va - vd) <= 3.0 * (ea + ed) + 1e-9
            assert abs(va - vm) <= 3.0 * (ea + em)
            assert abs(vd - vm) <= 3.0 * (ed + em)


def test_07_symbol_invariant_under_rotations():
    with budget("rotation invariance, 20 random pairs at r=0.2", 120):
        g = cartan_a(0.2)
        base = m_tilde(g)
        rng = np.random.default_rng(SEED + 2)
        for i in range(20):
            k = rotation(float(rng.uniform(0, 2 * math.pi)))
            kp = rotation(float(rng.uniform(0, 2 * math.pi)))
            assert abs(m_tilde(k @ g @ kp) - base) <= 1e-4
            if i < 3:  # the average itself, not just the norm extraction
                est, se = transferred_symbol_mc(symbol_m_word, k @ g @ kp, 10 ** 5, SEED + i)
                assert abs(est - base) <= 3.0 * se + 1e-6


def test_08_identity_symbol_value_is_one():
    with budget("identity symbol value", 10):
        e = RealMat2(1.0, 0.0, 0.0, 1.0)
        est, se = transferred_symbol_mc(symbol_m_word, e, 50_000, SEED)
        assert (est, se) == (1.0, 0.0)
        assert abs(m_tilde(e) - 1.0) <= 1e-6


def test_09_derivative_bounds_hold_on_grid():
    with budget("derivative bounds on the case grid", 120):
        for case, points in _case_grid().items():
            for c in points:
                dgx, dgy = m_hat_partials(c)
                assert dgx > 0.0
                if case is CaseRegime.CASE8:
                    assert abs(dgy) <= 1e-10
                else:
                    bound = (
                        (9.0 / math.pi) * math.log(1.0 / abs(c.g_x))
                        + (3.0 / math.pi) * math.log(1.0 / c.g_y)
                        + 3.0
                    )
                    assert dgx <= bound
                    assert 0.0 <= dgy <= 6.0


def test_10_weighted_decay_stays_bounded():
    with budget("weighted decay table bounded on r=0.05..0.5", 600):
        rows = hm_table([0.05 * i for i in range(1, 11)])
        weighted = sorted(row.weighted for row in rows)
        median = 0.5 * (weighted[4] + weighted[5])
        assert all(math.isfinite(w) for w in weighted)
        assert weighted[-1] <= 10.0 * median
        f1_01 = next(row.f1 for row in rows if abs(row.r - 0.1) < 1e-12)
        assert abs(f1_01) <= 0.12


def test_11_second_order_probe_diverges_logarithmically():
    with budget("second-order probe log divergence", 120):
        vals = second_order_divergence_probe(0.3, [1e-2, 1e-3, 1e-4, 1e-5])
        assert all(b > a for a, b in zip(vals, vals[1:]))
        inc = [b - a for a, b in zip(vals, vals[1:])]
        assert max(inc) / min(inc) <= 1.2


def test_12_transition_angle_limits():
    with budget("transition-angle limits at r=1e-3", 1):
        tb = theta_boundaries(1e-3)
        assert abs(tb.theta7 - math.pi / 6.0) <= 1e-6
        assert abs(tb.theta8 - math.pi / 2.0) <= 1e-3


def test_13_triangular_symbol_and_tent_checks():
    with budget("triangular symbols: unital, nonnegative kernel, exact tent", 1):
        for n in range(33):
            sym = cesaro_symbol(n)
            assert sym(0) == 1.0
            assert cesaro_positivity_check(n, 256)
        for n in (0, 2, 7):
            sym = cesaro_symbol(n)
            for k in range(-n - 2, n + 3):
                assert jodeit_extend_1d(sym, float(k)) == sym(k)


def test_14_cli_outputs_are_byte_identical(tmp_path):
    with budget("CLI determinism across repeated runs", 60):
        pairs = [
            ["verify", "--suite", "all", "--seed", "7"],
            ["symbol", "0.2", "--mode", "mc", "--n", "50000", "--seed", "7"],
            ["symbol", "0.3", "--format", "json"],
        ]
        for i, argv in enumerate(pairs):
            a = tmp_path / f"run{i}a.out"
            b = tmp_path / f"run{i}b.out"
            assert cli_main(argv + ["--output", str(a)]) == 0
            assert cli_main(argv + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
