"""Sweeps over the accepted input range, each point against an independent
value in relative terms.

Near the identity the value is a known law in t = log n -> 0:

    1 - m_tilde(e^t) = (6/pi^2) t ln(1/t) + A t + o(t),
    f1(r) = (6/pi^2) ln(1/ln(1/r)) + B + o(1),

so A - B = 6/pi^2. A and B are measured on the package's own routes; their
closed forms are not derived yet. Each test also shows that a 1% change to
6/pi^2, A or B breaks its bound.

Swept so far: m_tilde_full, the route of `symbol`'s case and direct modes,
at n = e^t and e^-t, t = 1e-3 ... 1e-11, and the decay table's f1 at r = 1 - 10^-k, k = 3 ... 9.
Not yet swept: the case and direct modes at n in (1, 1 + 1e-11) and
(e^1e-3, 1e38]; the mc mode anywhere; f1 at r in [1e-38, 1 - 1e-3) and
(1 - 1e-9, 1).
"""

import math

from hypertransfer.decay import _lie_average
from hypertransfer.regions import m_tilde_full
from hypertransfer.sl2 import cartan_a
from reference import A, B, SLOPE

ONE_PERCENT = (0.99, 1.01)


def _symbol_deficits() -> list[tuple[float, float]]:
    # (t, 1 - m_tilde) per mode and sign of t; t is the log of the float
    # element's exact norm, its larger entry, and not of the nominal e^t
    points = []
    for k in range(3, 12):
        for sign in (1.0, -1.0):
            g = cartan_a(math.exp(sign * 10.0**-k))
            t = math.log(max(g.a, g.d))
            for direct in (False, True):
                points.append((t, 1.0 - m_tilde_full(g, force_direct=direct)[0]))
    return points


def _symbol_worst(points: list[tuple[float, float]], slope: float, a: float) -> float:
    """The largest ratio of relative deviation from the law to its bound
    0.1 t + 2e-6, the law's next order plus the route's rounding."""
    worst = 0.0
    for t, deficit in points:
        law = slope * t * math.log(1.0 / t) + a * t
        worst = max(worst, abs(deficit / law - 1.0) / (0.1 * t + 2e-6))
    return worst


def test_symbol_near_identity_follows_the_law():
    points = _symbol_deficits()
    assert _symbol_worst(points, SLOPE, A) <= 1.0
    for f in ONE_PERCENT:
        assert _symbol_worst(points, SLOPE * f, A) > 1.0, f
        assert _symbol_worst(points, SLOPE, A * f) > 1.0, f


def _f1_worst(points: list[tuple[float, float]], slope: float, b: float) -> float:
    """The largest ratio of |f1 - law| to its bound 0.2 (1 - r) + 2e-7."""
    worst = 0.0
    for r, f1 in points:
        law = slope * math.log(1.0 / math.log(1.0 / r)) + b
        worst = max(worst, abs(f1 - law) / (0.2 * (1.0 - r) + 2e-7))
    return worst


def test_f1_near_identity_follows_the_law():
    radii = [1.0 - 10.0**-k for k in range(3, 10)]
    points = [(r, _lie_average(r)) for r in radii]
    assert _f1_worst(points, SLOPE, B) <= 1.0
    for f in ONE_PERCENT:
        assert _f1_worst(points, SLOPE * f, B) > 1.0, f
        assert _f1_worst(points, SLOPE, B * f) > 1.0, f
