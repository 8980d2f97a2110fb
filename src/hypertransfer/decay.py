"""First-order Lie derivatives of the averaged symbol, the weighted decay
table behind the multiplier estimate, and the second-order divergence probe.

Conventions: f_j(r) denotes the right Lie derivative of the K-averaged symbol
along X_j at the Cartan point diag(r, 1/r), r in (0, 1); f_j(r) = f_j(1/r).
"""

from __future__ import annotations

import concurrent.futures
import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeError
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate
from .regions import (
    SQRT3,
    CaseRegime,
    case_transition_thetas,
    classify_case,
    iwasawa_image_coords,
    m_hat_dgx,
    m_hat_dgy,
    m_hat_direct,  # unused here; the benchmark tracer wraps decay.m_hat_direct
    m_hat_direct_dgx,
    m_hat_direct_dgy,
)
from .sl2 import ANCoords, RealMat2, rotation

_HALF_PI = math.pi / 2.0


class LieDirection(enum.Enum):
    X1 = "X1"
    X2 = "X2"
    X3 = "X3"

    @property
    def generator(self) -> np.ndarray:
        if self is LieDirection.X1:
            return np.array([[1.0, 0.0], [0.0, -1.0]])
        if self is LieDirection.X2:
            return np.array([[0.0, 1.0], [0.0, 0.0]])
        return np.array([[0.0, 1.0], [-1.0, 0.0]])


def adjoint_action(theta: float, direction: LieDirection) -> tuple[float, float, float]:
    """Coefficients of Ad(k_theta) X_j over the (X1, X2, X3) basis."""
    if direction is LieDirection.X3:
        return (0.0, 0.0, 1.0)
    s2, c2 = math.sin(2.0 * theta), math.cos(2.0 * theta)
    if direction is LieDirection.X1:
        return (c2, 2.0 * s2, -s2)
    st, ct = math.sin(theta), math.cos(theta)
    return (-st * ct, c2, st * st)


def lie_exponential(direction: LieDirection, t: float) -> RealMat2:
    """Closed-form exp(t X_j)."""
    if direction is LieDirection.X1:
        return RealMat2(math.exp(t), 0.0, 0.0, math.exp(-t))
    if direction is LieDirection.X2:
        return RealMat2(1.0, t, 0.0, 1.0)
    return rotation(-t)


def _an_partial(c: ANCoords, q: QuadratureConfig, wrt_gx: bool) -> float:
    """d m_hat/d g_x (wrt_gx) or d m_hat/d g_y: the case formula when
    classified, otherwise the direct route's section-exact derivative."""
    if classify_case(c) is CaseRegime.FALLBACK:
        return m_hat_direct_dgx(c, q) if wrt_gx else m_hat_direct_dgy(c, q)
    return m_hat_dgx(c, q) if wrt_gx else m_hat_dgy(c, q)


def lie_derivative_mtt(
    c: ANCoords, direction: LieDirection, q: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Right Lie derivative of the inner symbol in the AN chart:
    X1 -> 2 g_y d/dg_y, X2 -> g_y d/dg_x, X3 -> 0."""
    if direction is LieDirection.X3:
        return 0.0
    if direction is LieDirection.X1:
        return 2.0 * c.g_y * _an_partial(c, q, wrt_gx=False)
    return c.g_y * _an_partial(c, q, wrt_gx=True)


def _residual_angle(r: float, theta: float) -> float:
    # K-part angle of rotation(theta) @ diag(r, 1/r)
    return math.atan2(r * math.sin(theta), math.cos(theta) / r)


def _outer_config(q: QuadratureConfig) -> QuadratureConfig:
    # the theta-quadrature target is floored at 1e-7 absolute, 1e-6 relative
    # for cost: without the floor the default ten-row table takes 1.2x the
    # outer and 1.6x the inner integrand evaluations, and the table reports no
    # error bar that a tighter target would serve
    return QuadratureConfig(
        abs_tol=max(q.abs_tol, 1e-7),
        rel_tol=max(q.rel_tol, 1e-6),
        max_subdivisions=q.max_subdivisions,
    )


def _decay_radius(r: float) -> float:
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"need r > 0, got {r!r}")
    if abs(r - 1.0) < 1e-12:
        raise RegimeError("Lie derivative grid excludes r = 1; use r in (0, 1)")
    return r if r < 1.0 else 1.0 / r


def lie_derivative_mtilde(
    r: float, direction: LieDirection, q: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """f_j(r): differentiation under the K-average, with the chart combination
    evaluated pointwise along the Cartan circle."""
    if direction is LieDirection.X3:
        return 0.0
    r = _decay_radius(r)
    pts = list(case_transition_thetas(r)) + [0.0]
    val, _ = integrate(
        lambda t: lie_derivative_mtt(iwasawa_image_coords(r, t), direction, q),
        -_HALF_PI,
        _HALF_PI,
        _outer_config(q),
        points=pts,
    )
    return val / math.pi


def lie_derivative_mtilde_adjoint(
    r: float, direction: LieDirection, q: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """f_j(r) with the direction transported by the adjoint of the residual
    rotation; this is the variant a finite difference of the average matches."""
    if direction is LieDirection.X3:
        return 0.0
    r = _decay_radius(r)
    pts = list(case_transition_thetas(r)) + [0.0]

    def integrand(t: float) -> float:
        c = iwasawa_image_coords(r, t)
        c1, c2, _ = adjoint_action(_residual_angle(r, t), direction)
        dgx = _an_partial(c, q, wrt_gx=True)
        dgy = _an_partial(c, q, wrt_gx=False)
        return c1 * 2.0 * c.g_y * dgy + c2 * c.g_y * dgx

    val, _ = integrate(integrand, -_HALF_PI, _HALF_PI, _outer_config(q), points=pts)
    return val / math.pi


def lie_derivative_mtilde_fd(
    g: RealMat2,
    direction: LieDirection,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    step: float = 1e-4,
) -> float:
    """Central difference of the K-averaged symbol along g exp(t X_j)."""
    from .regions import m_tilde

    if step <= 0.0:
        raise DomainError("step must be positive")
    up = m_tilde(g @ lie_exponential(direction, step), q)
    dn = m_tilde(g @ lie_exponential(direction, -step), q)
    return (up - dn) / (2.0 * step)


@dataclass(frozen=True)
class DecayRow:
    r: float
    f1: float
    f2: float
    weighted: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise DomainError(f"decay rows need r in (0, 1), got {self.r!r}")


def worker_count(n_jobs: int) -> int:
    """Worker cap honoring the HYPERTRANSFER_THREADS environment variable."""
    cap = os.cpu_count() or 1
    env = os.environ.get("HYPERTRANSFER_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise DomainError(f"HYPERTRANSFER_THREADS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise DomainError("HYPERTRANSFER_THREADS must be >= 1")
    return max(1, min(cap, n_jobs))


def _decay_row(r: float, q: QuadratureConfig) -> DecayRow:
    f1 = lie_derivative_mtilde(r, LieDirection.X1, q)
    f2 = lie_derivative_mtilde(r, LieDirection.X2, q)
    return DecayRow(r=r, f1=f1, f2=f2, weighted=(abs(f1) + abs(f2)) / r)


def hm_table(
    r_grid: "list[float] | tuple[float, ...]", q: QuadratureConfig = DEFAULT_QUADRATURE
) -> list[DecayRow]:
    """Weighted first-order decay table over a grid in (0, 1); row order follows
    the input grid regardless of scheduling."""
    rs = [float(r) for r in r_grid]
    for r in rs:
        if not (0.0 < r < 1.0):
            raise DomainError(f"grid values must lie in (0, 1), got {r!r}")
    if not rs:
        return []
    workers = worker_count(len(rs))
    if workers == 1:
        return [_decay_row(r, q) for r in rs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: _decay_row(r, q), rs))


@dataclass(frozen=True)
class ThetaBoundaries:
    theta2: float
    theta7: float
    theta8: float


def theta_boundaries(r: float) -> ThetaBoundaries:
    """Case-transition angles along the Cartan circle for small r; closed forms
    valid while 9r^8 - 66r^4 + 9 >= 0 (r <= 0.5 comfortably)."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"need r > 0, got {r!r}")
    r4 = r ** 4
    rad = 9.0 * r4 * r4 - 66.0 * r4 + 9.0
    if rad < 0.0:
        raise DomainError(f"theta boundary radicand negative at r={r!r}")
    root = math.sqrt(rad)
    inner = (16.0 * r4 - 3.0 * root - 12.0) / (28.0 * (r4 - 1.0))
    if not (0.0 <= inner <= 1.0):
        raise DomainError(f"theta7 radicand {inner!r} outside [0, 1] at r={r!r}")
    theta7 = math.acos(math.sqrt(inner))
    theta8 = math.atan2(4.0 * SQRT3, 3.0 - 3.0 * r4 - root)
    return ThetaBoundaries(theta2=-math.pi / 6.0, theta7=theta7, theta8=theta8)


def case8_second_derivative_factor(gx: float) -> float:
    """The displayed second-derivative factor (gx/sqrt(4gx^2+3) - 1)/(gx^3+gx);
    the actual d^2 m_hat / d g_x^2 is 3/pi times this on the narrow-window
    interval g_x in (-2/sqrt(3), 0). The closed form stays finite and positive
    on all of g_x < 0 and is used as the comparison integrand beyond the
    interval; g_x >= 0 is rejected (pole at 0, different regime beyond)."""
    if not gx < 0.0:
        raise RegimeError(f"factor needs g_x < 0, got {gx!r}")
    return (gx / math.sqrt(4.0 * gx * gx + 3.0) - 1.0) / (gx ** 3 + gx)


def divergence_probe_onset(r: float) -> float:
    """First angle in (0, pi/2) where g_x(r, theta) descends through -2/sqrt(3).

    g_x(r, .) = -2/sqrt(3) has two roots there; theta_boundaries(r).theta8 is
    the re-entry near pi/2, this is the onset. The probe integrates from here
    so the window survives eps down to 1e-2 (the re-entry sits within
    ~1.16 r^4 of pi/2, inside every such eps)."""
    if not (math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainError(f"need r in (0, 1), got {r!r}")
    r4 = r ** 4
    rad = 9.0 * r4 * r4 - 66.0 * r4 + 9.0
    if rad < 0.0:
        raise DomainError(f"onset radicand negative at r={r!r}")
    return math.atan2(4.0 * SQRT3, 3.0 - 3.0 * r4 + math.sqrt(rad))


def second_order_divergence_probe(
    r: float,
    eps_grid: "list[float] | tuple[float, ...]",
    q: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[float]:
    """Partial integrals of (3/pi) g_y^2 * case8_second_derivative_factor(g_x)
    over [onset, pi/2 - eps]; the sequence grows like log(1/eps) (the integrand
    behaves as 1/(pi/2 - theta) approaching pi/2), witnessing the failure of
    the weighted bound at order two."""
    if not (0.0 < r <= 0.3):
        raise DomainError(f"probe expects r in (0, 0.3], got {r!r}")
    eps = [float(e) for e in eps_grid]
    if not eps or any(e <= 0.0 for e in eps):
        raise DomainError("eps grid must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError("eps grid must be strictly decreasing")
    onset = divergence_probe_onset(r)
    if _HALF_PI - eps[0] <= onset:
        raise DomainError(f"eps {eps[0]!r} leaves an empty probe interval")
    pref = 3.0 / math.pi

    def integrand(t: float) -> float:
        c = iwasawa_image_coords(r, t)
        return c.g_y * c.g_y * pref * case8_second_derivative_factor(c.g_x)

    # integrate the increments between consecutive upper limits, then
    # accumulate: the partial sums are then increasing by construction exactly
    # when every increment is positive (which the test asserts, not assumes)
    bounds = [onset] + [_HALF_PI - e for e in eps]
    total = 0.0
    out: list[float] = []
    for lo, hi in zip(bounds, bounds[1:]):
        seg, _ = integrate(integrand, lo, hi, q)
        total += seg
        out.append(total)
    return out
