"""The first-order decay of m_tilde and the weighted decay table behind the
multiplier estimate, and the second-order divergence probe.

Conventions: m_tilde depends on the operator norm n only, so at diag(r, 1/r),
r in (0, 1), its one non-zero first derivative is f1(r) = -d m_tilde / d log n,
the Lie derivative along X1; along X2 and X3 it is 0 by bi-K invariance, and
the table's f2 column is 0.0. f1 is the mean over the Cartan circle of norm
r of lie_derivative_mtt, the AN-chart Lie derivative of m_hat, along X1
transported by the residual rotation (_lie_average). Every entry point
refuses r outside (0, 1) through _check_radius.

The table is a first-order estimate and reports no error bar, so the circle
integral behind f1 runs at the package's default target and no function here
takes a tolerance. hm_table runs its rows in grid order on one worker thread:
the rows hold the GIL, so more threads only trade it. The one-worker pool
stays only while the benchmark pins pool-thread row spans.
"""

from __future__ import annotations

import concurrent.futures
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import integrate, segment_edges
from .regions import (
    _circle_coords,
    _circle_v_angles,
    _circle_v_breakpoints,
    _closed_form,
    _tan_roots,
    _transition_quadratics,
    case_transition_thetas,
    m_hat_dgx,
    m_hat_dgy,
    m_hat_direct,  # unused here; the benchmark tracer wraps decay.m_hat_direct
)
from .sl2 import ANCoords, _check_norm

_HALF_PI = math.pi / 2.0


class LieDirection(enum.Enum):
    """The basis of the Lie algebra: X1 = (1 0; 0 -1), X2 = (0 1; 0 0) and
    X3 = (0 1; -1 0), which generates the rotations."""

    X1 = "X1"
    X2 = "X2"
    X3 = "X3"


def _x1_transport(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a11, a12) of Ad(k_rho) X1 = a11 X1 + a12 X2 - sin(2 rho) X3, at an
    array of angles; the X3 term adds nothing in the AN chart."""
    s2, c2 = np.sin(2.0 * rho), np.cos(2.0 * rho)
    return c2, 2.0 * s2


def lie_derivative_mtt(c: ANCoords, direction: LieDirection) -> float:
    """Right Lie derivative of the inner symbol in the AN chart:
    X1 -> 2 g_y d/dg_y, X2 -> g_y d/dg_x, X3 -> 0."""
    if direction is LieDirection.X3:
        return 0.0
    if direction is LieDirection.X1:
        return 2.0 * c.g_y * m_hat_dgy(c)
    return c.g_y * m_hat_dgx(c)


def _residual_angle(r: float, theta: np.ndarray) -> np.ndarray:
    # K-part angle of rotation(theta) @ diag(r, 1/r), at an array of angles
    return np.arctan2(r * np.sin(theta), np.cos(theta) / r)


def _check_radius(r: float) -> float:
    """float(r), or a DomainError unless it lies in (0, 1) inside _check_norm's
    range: the one radius rule of every entry point here."""
    r = float(r)
    _check_norm(r)
    if not r < 1.0:
        raise DomainError(f"need r in (0, 1), got {r!r}")
    return r


def _lie_average(r: float) -> float:
    """f1(r) = -d m_tilde / d log n at a checked r in (0, 1): (1/pi) times an
    integral over the Cartan circle in its v-parametrisation
    (regions._circle_v_angles), split at regions._circle_v_breakpoints, of the
    chart X1 column lie_derivative_mtt transported by the residual rotation:
    Ad of that rotation carries X1 to a11 X1 + a12 X2 + a13 X3, and X3 adds
    nothing in the chart. The integrand is not smooth at the breakpoints, so
    each v-segment [a, b] between them is graded at both ends: v = a + (b - a)
    sin^2(pi s/2), which is (1 - cos(pi s))/2, for s in [0, 1], with Jacobian
    (b - a)(pi/2) sin(pi s) vanishing at both ends (Sidi's sin^m
    transformation, per segment). Segment j occupies u in [j, j + 1], and one
    integration over u runs with the integers as breakpoints; each quadrature
    round evaluates the closed-form partials at all its nodes in one batch.
    The arcs where m_hat is constant (the .constant of case_transition_thetas)
    have zero partials and are left out; no touch borders one, so the arc at
    a segment's midpoint decides for all of it."""
    thetas = case_transition_thetas(r)
    ends = segment_edges(-_HALF_PI, _HALF_PI, _circle_v_breakpoints(thetas))
    mid, _ = _circle_v_angles(0.5 * (ends[:-1] + ends[1:]))
    constant = np.array(thetas.constant, dtype=float)[np.searchsorted(thetas, mid)]
    varies = np.isnan(constant)
    lo, width = ends[:-1][varies], np.diff(ends)[varies]
    segments = len(width)

    def integrand(u: np.ndarray) -> np.ndarray:
        # the map is continuous at the integers, so either side's segment
        # serves a node that rounds onto one
        j = np.clip(np.floor(u), 0, segments - 1).astype(int)
        half_s = _HALF_PI * (u - j)
        v = lo[j] + width[j] * np.sin(half_s) ** 2
        dv = width[j] * _HALF_PI * np.sin(2.0 * half_s)
        t, jac = _circle_v_angles(v)
        gx, gy = _circle_coords(r, t)
        _, dgx, dgy = _closed_form(gx, gy)
        a11, a12 = _x1_transport(_residual_angle(r, t))
        return (a11 * 2.0 * gy * dgy + a12 * gy * dgx) * (jac * dv)

    val, _ = integrate(integrand, 0.0, float(segments), points=range(1, segments))
    return float(val) / math.pi


def lie_derivative_mtilde(r: float, direction: LieDirection) -> float:
    """The Lie derivative of m_tilde at diag(r, 1/r), r in (0, 1), along X_j:
    f1(r) = -d m_tilde / d log n for X1, and 0.0 for X2 and X3, along which
    the norm is stationary (m_tilde is bi-K-invariant). r is checked first, so
    every direction refuses the same radii."""
    r = _check_radius(r)
    return _lie_average(r) if direction is LieDirection.X1 else 0.0


@dataclass(frozen=True)
class DecayRow:
    """One table row: f1 = -d m_tilde / d log n at diag(r, 1/r), and f2, the
    derivative along X2, which is 0 by bi-K invariance."""

    r: float
    f1: float
    f2: float = 0.0

    def __post_init__(self) -> None:
        _check_radius(self.r)

    @property
    def weighted(self) -> float:
        """The operator-norm weighted magnitude (|f1| + |f2|)/r."""
        return (abs(self.f1) + abs(self.f2)) / self.r


def worker_count(n_jobs: int) -> int:
    """Threads for n_jobs table rows: one, whatever n_jobs and the CPU count.
    The rows hold the GIL, so a second thread only trades it; the parameter
    stays for the benchmark, which calls worker_count by name."""
    return 1


def _decay_row(r: float) -> DecayRow:
    return DecayRow(r=r, f1=_lie_average(r))


def hm_table(r_grid: "list[float] | tuple[float, ...]") -> list[DecayRow]:
    """Weighted first-order decay table over a grid in (0, 1): one DecayRow per
    r, f1 = -d m_tilde / d log n and f2 = 0.0. The whole grid is checked
    first; then the rows run in grid order on one worker thread, one
    _decay_row call each. The pool and the per-row calls stay only while the
    benchmark pins pool-thread row spans."""
    rs = [_check_radius(r) for r in r_grid]
    with concurrent.futures.ThreadPoolExecutor(max_workers=worker_count(len(rs))) as pool:
        return list(pool.map(_decay_row, rs))


@dataclass(frozen=True)
class ThetaBoundaries:
    theta2: float
    theta7: float
    theta8: float


def theta_boundaries(r: float) -> ThetaBoundaries:
    """Case-transition angles along the Cartan circle for r in [1e-38, 1), read
    off case_transition_thetas: theta2 = -pi/6 ends the arc where m_hat = 1;
    the one arc where m_hat = 0 starts at theta7, where g_x meets b7 (the
    cutoff of the small-g_y regime), and ends at theta8, the re-entry into
    the narrow window through g_x = -2/sqrt(3). theta7 exists for r up to
    about 0.56462; past it that arc starts above g_y = 1/2, then splits."""
    _check_radius(r)
    thetas = case_transition_thetas(r)
    ends = (-_HALF_PI, *thetas, _HALF_PI)
    zero = [i for i, m in enumerate(thetas.constant) if m == 0.0]
    g_y = [float(_circle_coords(r, ends[i])[1]) for i in zero]
    if len(zero) != 1 or g_y[0] > 0.5:
        raise DomainError(
            f"no theta7 at r={r!r}: the arcs where m_hat = 0 start at g_y = {g_y!r}; "
            "theta7 needs one such arc, starting at g_y <= 1/2"
        )
    return ThetaBoundaries(ends[thetas.constant.index(1.0) + 1], ends[zero[0]], ends[zero[0] + 1])


def case8_second_derivative_factor(gx: float) -> float:
    """The displayed second-derivative factor (gx/sqrt(4gx^2+3) - 1)/(gx^3+gx);
    the actual d^2 m_hat / d g_x^2 is 3/pi times this on the narrow-window
    interval g_x in (-2/sqrt(3), 0). The closed form stays finite and positive
    on all of g_x < 0 and is used as the comparison integrand beyond the
    interval; g_x >= 0 is rejected (pole at 0, different regime beyond)."""
    if not np.all(gx < 0.0):
        raise DomainError(f"factor needs g_x < 0, got {gx!r}")
    return (gx / np.sqrt(4.0 * gx * gx + 3.0) - 1.0) / (gx ** 3 + gx)


def divergence_probe_onset(r: float) -> float:
    """First angle in (0, pi/2) where g_x(r, theta) descends through -2/sqrt(3).

    g_x(r, .) = -2/sqrt(3) has two roots there; theta_boundaries(r).theta8 is
    the re-entry near pi/2, this is the onset. The probe integrates from here
    so the window survives eps down to 1e-2 (the re-entry sits within
    ~1.16 r^4 of pi/2, inside every such eps). Both exist for r <= 0.61."""
    _check_radius(r)
    roots = _tan_roots(*_transition_quadratics(r)["b8"])
    if len(roots) < 2:
        raise DomainError(f"no b8 crossing on the Cartan circle at r={r!r}")
    return roots[0]


def second_order_divergence_probe(
    r: float, eps_grid: "list[float] | tuple[float, ...]"
) -> list[float]:
    """Partial integrals of (3/pi) g_y^2 * case8_second_derivative_factor(g_x)
    over [onset, pi/2 - eps]; the sequence grows like log(1/eps) (the integrand
    behaves as 1/(pi/2 - theta) approaching pi/2), witnessing the failure of
    the weighted bound at order two."""
    _check_norm(r)
    if not r <= 0.3:
        raise DomainError(f"probe expects r in (0, 0.3], got {r!r}")
    eps = [float(e) for e in eps_grid]
    if not eps or not all(0.0 < e < math.inf for e in eps):
        raise DomainError(f"eps grid must be finite and positive, got {eps!r}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError("eps grid must be strictly decreasing")
    onset = divergence_probe_onset(r)
    if _HALF_PI - eps[0] <= onset:
        raise DomainError(f"eps {eps[0]!r} leaves an empty probe interval")
    pref = 3.0 / math.pi

    def integrand(t: np.ndarray) -> np.ndarray:
        gx, gy = _circle_coords(r, t)
        return gy * gy * pref * case8_second_derivative_factor(gx)

    # integrate the increments between consecutive upper limits, then
    # accumulate: the partial sums are then increasing by construction exactly
    # when every increment is positive (which the test asserts, not assumes)
    bounds = [onset] + [_HALF_PI - e for e in eps]
    total = 0.0
    out: list[float] = []
    for lo, hi in zip(bounds, bounds[1:]):
        seg, _ = integrate(integrand, lo, hi)
        total += seg
        out.append(total)
    return out
