"""Shared test-side references: the reduced words of the modular group, and
the touches of the ellipse's extent end with the unit circle along the Cartan
circle, which the transition table does not return."""

import itertools
import math

import numpy as np
import pytest

from hypertransfer.modular import I2, R_MAT, S_MAT, IntMat2

_LETTERS = {"S": S_MAT, "R": R_MAT, "R2": R_MAT @ R_MAT}


def _reduced_words(max_letters: int) -> list[tuple[tuple[str, ...], IntMat2]]:
    """Every reduced word of PSL2(Z) = Z/2 * Z/3 with at most max_letters
    letters, S alternating with R or R2 (the normal form of Serre, Trees,
    I.4.2), the empty word first, each with its exact product."""
    out = [((), I2)]
    for n in range(1, max_letters + 1):
        for s_first in (True, False):
            slots = [("S",) if (i % 2 == 0) == s_first else ("R", "R2") for i in range(n)]
            for word in itertools.product(*slots):
                g = I2
                for letter in word:
                    g = g @ _LETTERS[letter]
                out.append((word, g))
    return out

# where (1 + x)(1 + 2x)/(sqrt(1 - x^2) sqrt(x (x + 2))) is least on (0, 1/2) (mpmath)
_TOUCH_SPLIT = 0.22668159690567747


def _touch_cubic(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    # (1 + x)(1 + 2x)^2 - c^2 (1 - x) x (x + 2), over c^2 = 1/e
    return (((1.0 + 4.0 * e) * x + (1.0 + 8.0 * e)) * x + (5.0 * e - 2.0)) * x + e


def _bisect(e: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of _touch_cubic in each bracket (lo, hi), where it changes sign
    once, by bisection down to adjacent floats: 1 100 halvings reach any
    float64 root from a bracket in [0, 1/2]."""
    positive = _touch_cubic(e, lo) > 0.0
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        left = (_touch_cubic(e, mid) > 0.0) == positive
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return np.where(np.abs(_touch_cubic(e, lo)) <= np.abs(_touch_cubic(e, hi)), lo, hi)


def extent_touch_thetas(radii) -> list[list[float]]:
    """For each norm r in radii, the ascending angles in [-pi/2, pi/2] where
    the ellipse's extent end touches the unit circle along the Cartan circle
    of norm r.

    That circle is g_x^2 + g_y^2 + 1 = c g_y with c = r^2 + r^-2. The extent
    end lies on the unit circle at (x, w), w = sqrt(1 - x^2), where
    k = -g_x/g_y = sqrt(x (x + 2)), g_y = k/(w (1 + x)) and
    (1 + x)(1 + 2x)/(w k) = c, which is where _touch_cubic vanishes. That
    function of x falls from infinity at x = 0 to its least value at
    _TOUCH_SPLIT and rises to x = 1/2, so the cubic has at most one root on
    each side of the split. An angle is 1/2 atan2 of sin 2 theta and
    cos 2 theta, 2 rho k and 2 rho/g_y - 1 - rho^2 with rho = min(r, 1/r)^2
    (negated for r > 1, which turns it by -pi/2)."""
    r = np.asarray(radii, dtype=float)
    rho = np.minimum(r, 1.0 / r) ** 2
    c = rho + 1.0 / rho
    e = 1.0 / (c * c)
    split, end = np.full_like(e, _TOUCH_SPLIT), np.full_like(e, 0.5)
    dips = (_touch_cubic(e, split) < 0.0) & (rho < 1.0)
    roots = (
        (_bisect(e, np.zeros_like(e), split), dips),
        (_bisect(e, split, end), dips & (_touch_cubic(e, end) > 0.0)),
    )
    sign = np.where(r < 1.0, 1.0, -1.0)
    out = []
    for x, present in roots:
        w, k = np.sqrt((1.0 - x) * (1.0 + x)), np.sqrt(x * (x + 2.0))
        inv_gy = w * (1.0 + x) / k
        theta = 0.5 * np.arctan2(sign * 2.0 * rho * k, sign * (2.0 * rho * inv_gy - 1.0 - rho * rho))
        out.append(np.where(present, theta, np.nan))
    return [sorted(float(t) for t in row if not math.isnan(t)) for row in np.column_stack(out)]


@pytest.fixture(scope="session")
def touch_thetas():
    """extent_touch_thetas, for the tests that hold the transition table
    against the touches it leaves out."""
    return extent_touch_thetas


@pytest.fixture(scope="session")
def reduced_words():
    """_reduced_words, for the tests that take the normal form as the ground
    truth of first_letter and of the discrete symbols."""
    return _reduced_words
