"""Thin adaptive-quadrature wrapper with an explicit accuracy contract.

All region and decay integrands are smooth except for inverse-square-root or
logarithmic endpoint behavior, which the adaptive Gauss-Kronrod rule with
interior breakpoints handles; a result is accepted only when the reported
error estimate clears the configured tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from scipy import integrate as _spi

from .errors import AccuracyError, DomainError

MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError(f"tolerances must be positive: {self}")


DEFAULT_QUADRATURE = QuadratureConfig()


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    points: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Integral of f over [a, b] and the achieved error estimate.

    points: known interior kinks/singular abscissae (endpoint values are
    filtered out; the Gauss-Kronrod nodes never touch endpoints).
    """
    if a == b:
        return 0.0, 0.0
    interior = None
    if points is not None:
        deduped: list[float] = []
        for p in sorted(p for p in points if min(a, b) < p < max(a, b)):
            if not deduped or p - deduped[-1] > 1e-13:
                deduped.append(p)
        interior = deduped or None
    out = _spi.quad(
        f,
        a,
        b,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=MAX_SUBDIVISIONS,
        points=interior,
        full_output=1,
    )
    value, err = out[0], out[1]
    if err > max(10.0 * cfg.abs_tol, 10.0 * cfg.rel_tol * abs(value)):
        raise AccuracyError(f"quadrature on [{a}, {b}] did not converge", achieved=err)
    return value, err
