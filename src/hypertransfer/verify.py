"""Self-check suites behind the verify command: exact cocycle algebra and the
Monte-Carlo average against the scalar cocycle, the closed-form region
integral against the direct integrator, and the decay table's f1 held against
m_tilde itself, with the transition-angle limits and the second-order probe.
Every check can fail: tests/test_verify.py breaks each one's subject and
requires the check to report it.

Each suite returns a JSON-able report dict; every numeric payload is cast to
built-in types so reports serialize deterministically.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .cocycle import (
    _check_seed,
    _rng,
    cocycle_beta,
    domain_measure_mc,
    sample_domain,
    transferred_symbol_mc,
)
from .decay import hm_table, second_order_divergence_probe, theta_boundaries
from .errors import HypertransferError
from .modular import (
    _in_domain,
    reduce_to_fundamental_domain,
    symbol_m_word,
)
from .regions import (
    ANCoords,
    CaseRegime,
    boundary_values,
    classify_case,
    m_hat_case,
    m_hat_direct,
    m_tilde,
)
from .sl2 import IDENTITY, HalfPlanePoint, an_matrix, cartan_a, mobius_act, rotation

DEFAULT_SEED = 20240914


def _check(name: str, passed: bool, **detail: Any) -> dict:
    out: dict[str, Any] = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _random_group_element(rng: np.random.Generator):
    gx = float(rng.uniform(-2.0, 2.0))
    gy = float(0.25 * 16.0 ** rng.random())
    th = float(rng.uniform(0.0, 2.0 * math.pi))
    return an_matrix(ANCoords(gx, gy)) @ rotation(th)


def suite_cocycle(seed: int = DEFAULT_SEED) -> dict:
    checks: list[dict] = []
    rng = _rng(seed, 10)

    pts = sample_domain(seed, 200)
    ok = True
    # cocycle_beta is exact on its float inputs, and g1 @ g2 and step1.moved
    # are rounded, so the two sides reduce shadows about 1e-15 relative apart;
    # at these norms, below 25, they lie above height 1e-3, and their betas
    # differ only where a shadow lies within that rounding of a tile's side
    for p in pts:
        g1 = _random_group_element(rng)
        g2 = _random_group_element(rng)
        lhs = cocycle_beta(p, g1 @ g2).beta
        step1 = cocycle_beta(p, g1)
        rhs = step1.beta @ cocycle_beta(step1.moved, g2).beta
        if lhs.entries() != rhs.entries():
            ok = False
            break
    checks.append(_check("cocycle_identity_exact", ok, triples=len(pts)))

    ok = True
    for p in pts[:50]:
        g = _random_group_element(rng)
        base = cocycle_beta(p, g).beta
        shifted = cocycle_beta(p, g @ rotation(float(rng.uniform(0.0, 2.0 * math.pi)))).beta
        if shifted.entries() != base.entries() and shifted.entries() != base.neg().entries():
            ok = False
            break
    checks.append(_check("k_shift_sign_only", ok, pairs=50))

    worst = 0.0
    ok = True
    for _ in range(2000):
        z = HalfPlanePoint(float(rng.uniform(-20.0, 20.0)), float(10.0 ** rng.uniform(-3.0, 3.0)))
        red = reduce_to_fundamental_domain(z)
        back = mobius_act(red.gamma.to_real(), red.z0)
        worst = max(worst, abs(back.x - z.x), abs(back.y - z.y))
        ok = ok and _in_domain(red.z0.x, red.z0.y)
    checks.append(_check("tiling_roundtrip", ok and worst <= 1e-9, worst_residual=float(worst)))

    est, se = domain_measure_mc(seed, 200_000)
    target = math.pi / 3.0
    checks.append(
        _check(
            "measure_pi_over_3",
            abs(est - target) <= 4.0 * se,
            estimate=float(est),
            std_error=float(se),
            target=float(target),
        )
    )

    # the Monte-Carlo average against cocycle_beta on the same n samples: a
    # mean of 0/1 values is their count over n, so the two agree bit for bit
    # exactly when the counts do
    n = 300
    g = _random_group_element(rng)
    mc, _ = transferred_symbol_mc(symbol_m_word, g, n, seed + 1)
    count = sum(symbol_m_word(cocycle_beta(p, g).beta) for p in sample_domain(seed + 1, n))
    checks.append(
        _check("mc_matches_scalar_cocycle", mc == count / n, samples=n, mc=mc, scalar=count / n)
    )

    return _report("cocycle", seed, checks)


def _case_grid() -> list[tuple[ANCoords, CaseRegime]]:
    out: list[tuple[ANCoords, CaseRegime]] = []
    gy = 0.3
    bv = boundary_values(gy)
    edges = [bv.b7, bv.b6, bv.b5, bv.b4, bv.b3, bv.b2]
    for lo, hi in zip(edges, edges[1:]):
        for f in (0.2, 0.4, 0.6, 0.8):
            c = ANCoords(lo + f * (hi - lo), gy)
            case = classify_case(c)
            if case is not CaseRegime.FALLBACK:
                out.append((c, case))
    for gx in (-1.0, -0.6, -0.3):
        c = ANCoords(gx, 1.5)
        out.append((c, classify_case(c)))
    return out


def suite_cases(seed: int = DEFAULT_SEED) -> dict:
    checks: list[dict] = []

    c1 = m_hat_case(ANCoords(1.0, 0.3))
    c7 = m_hat_case(ANCoords(-5.0, 0.3))
    checks.append(_check("case1_and_case7_exact", c1 == 1.0 and c7 == 0.0))

    worst = 0.0
    worst_at = ""
    ok = True
    for c, case in _case_grid():
        ref = m_hat_direct(c)
        val = m_hat_case(c)
        gap = abs(val - ref)
        if gap > worst:
            worst, worst_at = gap, f"{case.value}@({c.g_x:.6f},{c.g_y})"
        if gap > 1e-5:
            ok = False
    checks.append(_check("case_vs_direct", ok, worst_gap=float(worst), worst_at=worst_at))

    gy = 0.3
    bv = boundary_values(gy)
    xs = np.linspace(bv.b7 + 0.01, bv.b2 - 0.01, 9)
    vals = [m_hat_direct(ANCoords(float(x), gy)) for x in xs]
    mono = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    rng_ok = all(0.0 <= v <= 1.0 for v in vals)
    checks.append(_check("monotone_in_gx", mono and rng_ok, values=[float(v) for v in vals]))

    ident = m_tilde(IDENTITY)
    mc, se = transferred_symbol_mc(symbol_m_word, IDENTITY, 1000, seed)
    checks.append(
        _check(
            "identity_value",
            abs(ident - 1.0) <= 1e-6 and mc == 1.0 and se == 0.0,
            analytic=float(ident),
            mc=float(mc),
        )
    )

    return _report("cases", seed, checks)


def suite_decay(seed: int = DEFAULT_SEED) -> dict:
    checks: list[dict] = []

    # the table's f1 against a second route: f1 = -d m_tilde / d log n, by a
    # central difference in log r
    f1 = hm_table([0.2])[0].f1
    up, down = (m_tilde(cartan_a(0.2 * math.exp(h))) for h in (1e-4, -1e-4))
    diff = (up - down) / 2e-4
    checks.append(
        _check(
            "f1_matches_m_tilde_difference",
            abs(f1 - diff) <= 1e-6,
            f1=float(f1),
            difference=float(diff),
        )
    )

    tb = theta_boundaries(1e-3)
    checks.append(
        _check(
            "theta_limits",
            abs(tb.theta7 - math.pi / 6.0) <= 1e-6 and abs(tb.theta8 - math.pi / 2.0) <= 1e-3,
            theta7=float(tb.theta7),
            theta8=float(tb.theta8),
        )
    )

    probe = second_order_divergence_probe(0.3, [1e-2, 1e-3])
    checks.append(
        _check(
            "divergence_probe_increasing",
            probe[1] > probe[0] > 0.0,
            partials=[float(v) for v in probe],
        )
    )

    return _report("decay", seed, checks)


def _report(name: str, seed: int, checks: list[dict]) -> dict:
    return {
        "suite": name,
        "seed": int(seed),
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


_SUITES = {"cocycle": suite_cocycle, "cases": suite_cases, "decay": suite_decay}
SUITE_NAMES = tuple(_SUITES)


def run_verify(suites: "list[str] | tuple[str, ...]", seed: int = DEFAULT_SEED) -> dict:
    """Run the named suites (SUITE_NAMES or "all") and merge their reports.
    The seed and every suite name are checked before any suite runs."""
    seed = _check_seed(seed)
    for name in suites:
        if name != "all" and name not in _SUITES:
            raise HypertransferError(f"unknown suite {name!r}")
    wanted = list(SUITE_NAMES) if "all" in suites else list(suites)
    reports = [_SUITES[name](seed) for name in wanted]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
