"""First-order Lie derivatives of the averaged symbol, the weighted decay
table behind the multiplier estimate, and the second-order divergence probe.

Conventions: f_j(r) denotes the right Lie derivative of the K-averaged symbol
along X_j at the Cartan point diag(r, 1/r), r in (0, 1); f_j(r) = f_j(1/r).

The table is a first-order estimate and reports no error bar, so the circle
integrals behind f_j run at the package's default target and no function
here takes a tolerance. They run in the v-parametrisation of the Cartan
circle that m_tilde_full uses too (regions._circle_v_angles), with each
segment between transition angles graded so that it is flat at both ends:
the closed-form partials are not smooth there, unlike m_hat. f_1 and f_2 at
one r come from a single vector-valued integration on shared nodes, each held
to its own target; a single-direction call computes both and returns one.
Table rows run on up to worker_count threads; their values and order never
depend on the thread count.
"""

from __future__ import annotations

import concurrent.futures
import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import integrate, segment_edges
from .regions import (
    _check_norm,
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
from .sl2 import ANCoords

_HALF_PI = math.pi / 2.0


class LieDirection(enum.Enum):
    """The basis of the Lie algebra: X1 = (1 0; 0 -1), X2 = (0 1; 0 0) and
    X3 = (0 1; -1 0), which generates the rotations."""

    X1 = "X1"
    X2 = "X2"
    X3 = "X3"


def adjoint_action(theta: float, direction: LieDirection) -> tuple[float, float, float]:
    """Coefficients of Ad(k_theta) X_j over the (X1, X2, X3) basis."""
    if direction is LieDirection.X3:
        return (0.0, 0.0, 1.0)
    s2, c2 = np.sin(2.0 * theta), np.cos(2.0 * theta)
    if direction is LieDirection.X1:
        return (c2, 2.0 * s2, -s2)
    st, ct = np.sin(theta), np.cos(theta)
    return (-st * ct, c2, st * st)


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


def _decay_radius(r: float) -> float:
    """r, or 1/r past 1, inside the norm range that m_tilde_full accepts."""
    r = float(r)
    _check_norm(r)
    if abs(r - 1.0) < 1e-12:
        raise DomainError("Lie derivative grid excludes r = 1; use r in (0, 1)")
    return r if r < 1.0 else 1.0 / r


def _lie_average(r: float, adjoint: bool) -> tuple[float, float]:
    """(f_1(r), f_2(r)), each (1/pi) times an integral over the Cartan circle
    in the circle's v-parametrisation (regions._circle_v_angles), split at the
    transition angles. The integrand is not smooth there, so each v-segment
    [a, b] between them is graded at both ends: v = a + (b - a) sin^2(pi s/2),
    which is (1 - cos(pi s))/2, for s in [0, 1], with Jacobian
    (b - a)(pi/2) sin(pi s) vanishing at both ends (Sidi's sin^m
    transformation, per segment). Segment j occupies u in [j, j + 1], and one
    integration over u runs with the integers as breakpoints. Both directions
    share it: each quadrature round evaluates the closed-form partials at all
    its nodes in one batch and stacks the chart combinations of
    lie_derivative_mtt for X1 and X2, or with adjoint their transport by the
    residual rotation; a segment splits where either direction misses its
    share of the target. The arcs where m_hat is constant (the .constant of
    case_transition_thetas) have zero partials and are left out."""
    r = _decay_radius(r)
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
        x1, x2 = 2.0 * gy * dgy, gy * dgx
        if adjoint:
            rho = _residual_angle(r, t)
            a11, a12, _ = adjoint_action(rho, LieDirection.X1)
            a21, a22, _ = adjoint_action(rho, LieDirection.X2)
            x1, x2 = a11 * x1 + a12 * x2, a21 * x1 + a22 * x2
        return np.stack((x1, x2)) * (jac * dv)

    val, _ = integrate(integrand, 0.0, float(segments), points=range(1, segments))
    return float(val[0]) / math.pi, float(val[1]) / math.pi


def _lie_component(r: float, direction: LieDirection, adjoint: bool) -> float:
    # X3 rotates within K, under which m_tilde is invariant; r is checked first
    # so that every direction refuses the same radii
    r = _decay_radius(r)
    if direction is LieDirection.X3:
        return 0.0
    return _lie_average(r, adjoint)[0 if direction is LieDirection.X1 else 1]


def lie_derivative_mtilde(r: float, direction: LieDirection) -> float:
    """f_j(r): differentiation under the K-average, with the chart combination
    evaluated pointwise along the Cartan circle."""
    return _lie_component(r, direction, adjoint=False)


def lie_derivative_mtilde_adjoint(r: float, direction: LieDirection) -> float:
    """f_j(r) with the direction transported by the adjoint of the residual
    rotation; this is the variant a finite difference of the average matches."""
    return _lie_component(r, direction, adjoint=True)


@dataclass(frozen=True)
class DecayRow:
    r: float
    f1: float
    f2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise DomainError(f"decay rows need r in (0, 1), got {self.r!r}")

    @property
    def weighted(self) -> float:
        """The operator-norm weighted magnitude (|f1| + |f2|)/r."""
        return (abs(self.f1) + abs(self.f2)) / self.r


def worker_count(n_jobs: int) -> int:
    """Threads for n_jobs table rows: at most one per row and one per CPU."""
    return max(1, min(os.cpu_count() or 1, n_jobs))


def _decay_row(r: float) -> DecayRow:
    f1, f2 = _lie_average(r, adjoint=False)
    return DecayRow(r=r, f1=f1, f2=f2)


def hm_table(r_grid: "list[float] | tuple[float, ...]") -> list[DecayRow]:
    """Weighted first-order decay table over a grid in (0, 1); row order follows
    the input grid regardless of scheduling."""
    rs = [float(r) for r in r_grid]
    for r in rs:
        if not (0.0 < r < 1.0):
            raise DomainError(f"grid values must lie in (0, 1), got {r!r}")
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
    if not (math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainError(f"need r in (0, 1), got {r!r}")
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
    if not (math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainError(f"need r in (0, 1), got {r!r}")
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
    if not (0.0 < r <= 0.3):
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
