"""The benchmark's three workloads: seeded inputs, the op, its check, a warm-up.

Ops and checks call the package through module attributes looked up at call
time (``cocycle.transferred_symbol_mc``, ...), so that the traced run's
wrappers see those calls.

A run's inputs are stratified: the input range is cut into as many equal
slices as the run has ops, one input is drawn uniformly inside each slice,
and the inputs are shuffled. Every input keeps the stated marginal
distribution, but every run holds the same mix of cheap and expensive inputs,
so runs on different seeds do comparable work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from hypertransfer import cocycle, decay, regions
from hypertransfer.errors import DomainError
from hypertransfer.modular import symbol_m_word
from hypertransfer.sl2 import RealMat2, cartan_a

SYMBOL_MAX_NORM = 100.0
DECAY_RANGE = (0.05, 0.5)  # the CLI's default decay range
DECAY_ROWS = 2
ORACLE_MAX_NORM = 1e4
ORACLE_SAMPLES = 200_000
ORACLE_CHECK_SAMPLES = 300


@dataclass(frozen=True)
class Check:
    """Outcome of one op's check.

    ``wrong`` marks a value the check refutes; an op can also fail without
    being wrong, when the reference route raises a named error. ``counts``
    adds to the per-layer counters of the same names.
    """

    ok: bool
    wrong: bool = False
    detail: str = ""
    counts: dict[str, int] = field(default_factory=dict)


PASS = Check(ok=True)


@dataclass(frozen=True)
class Workload:
    name: str
    # wall time of one op plus its check on a 2-core x86-64 box at the commit
    # that introduced the benchmark; fixes how many ops a run makes
    op_s: float
    inputs: Callable[[np.random.Generator, int], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Check]
    warmup: Callable[[], Any]
    run_check: Optional[Callable[[list], Optional[str]]] = None


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n shuffled draws, one uniform in each slice [j/n, (j+1)/n)."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def raised_in(exc: BaseException, module_suffix: str) -> bool:
    """Whether the innermost frame of exc's traceback is in a file whose name
    ends with module_suffix."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb is not None and tb.tb_frame.f_code.co_filename.endswith(module_suffix)


# ---------------------------------------------------------------------------
# symbol: m_tilde_full(cartan_a(1/n)) on the default case route


def _symbol_inputs(rng: np.random.Generator, n: int) -> list[float]:
    # log-uniform on (1, 100]
    return [float(SYMBOL_MAX_NORM ** (1.0 - u)) for u in _strata(rng, n)]


def _symbol_op(norm: float):
    return regions.m_tilde_full(cartan_a(1.0 / norm))


def _symbol_check(norm: float, out) -> Check:
    value, err = out
    if not 0.0 <= value <= 1.0:
        return Check(ok=False, wrong=True, detail=f"value {value!r} outside [0, 1]")
    ref, ref_err = regions.m_tilde_full(cartan_a(1.0 / norm), force_direct=True)
    # acceptance test 06's bound between the case and direct routes
    if abs(value - ref) > 3.0 * (err + ref_err) + 1e-9:
        return Check(ok=False, wrong=True, detail=f"case {value!r} vs direct {ref!r}")
    return PASS


# ---------------------------------------------------------------------------
# decay: hm_table over a two-row grid in [0.05, 0.5]


def _decay_inputs(rng: np.random.Generator, n: int) -> list[tuple[float, ...]]:
    # Row j of every grid comes from the j-th of DECAY_ROWS equal parts of the
    # range, so grids are increasing like the CLI's. Each part is cut into n
    # slices and grid i draws every row inside the same slice k_i of its part,
    # so every run holds the same pairs of rows; row cost depends strongly on
    # r, and the pool runs the rows of a grid side by side, so pairing rows at
    # random would make the op-time quantiles of a run follow the seed.
    lo, hi = DECAY_RANGE
    part = (hi - lo) / DECAY_ROWS
    slices = rng.permutation(n)
    return [
        tuple(
            float(lo + part * (j + (k + rng.random()) / n)) for j in range(DECAY_ROWS)
        )
        for k in slices
    ]


def _decay_op(grid: tuple[float, ...]):
    return decay.hm_table(list(grid))


def _decay_check(grid: tuple[float, ...], rows) -> Check:
    # f1 and f2 have no second route yet, so rows are checked for validity only
    if [row.r for row in rows] != list(grid):
        return Check(ok=False, wrong=True, detail="rows do not follow the grid")
    for row in rows:
        if not all(math.isfinite(v) for v in (row.f1, row.f2, row.weighted)):
            return Check(ok=False, wrong=True, detail=f"non-finite row {row}")
        if not math.isclose(row.weighted, (abs(row.f1) + abs(row.f2)) / row.r, rel_tol=1e-12):
            return Check(ok=False, wrong=True, detail=f"weighted column inconsistent in {row}")
    return PASS


def _decay_run_check(outputs: list) -> Optional[str]:
    """Acceptance test 10's bounded-spread check over every row of the run."""
    weighted = sorted(row.weighted for rows in outputs for row in rows)
    if not weighted:
        return None
    median = float(np.median(weighted))
    if weighted[-1] > 10.0 * median:
        return f"max weighted {weighted[-1]!r} exceeds 10 x median {median!r}"
    return None


# ---------------------------------------------------------------------------
# oracle: transferred_symbol_mc over g = k_a diag(1/n, n) k_b


@dataclass(frozen=True)
class OracleInput:
    norm: float
    theta_a: float
    theta_b: float
    mc_seed: int


def rotated_cartan(norm: float, theta_a: float, theta_b: float) -> RealMat2:
    """k_a diag(1/n, n) k_b from closed-form entries.

    A chained product already drifts past RealMat2's determinant tolerance
    near norm 1e4; this can still raise DomainError there.
    """
    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(theta_b), math.sin(theta_b)
    p, q = 1.0 / norm, norm
    return RealMat2.renormalized(
        ca * p * cb - sa * q * sb,
        -ca * p * sb - sa * q * cb,
        sa * p * cb + ca * q * sb,
        -sa * p * sb + ca * q * cb,
    )


def _oracle_inputs(rng: np.random.Generator, n: int) -> list[OracleInput]:
    out = []
    for u in _strata(rng, n):
        theta_a, theta_b = rng.uniform(0.0, 2.0 * math.pi, 2)
        out.append(
            OracleInput(
                norm=float(ORACLE_MAX_NORM ** u),  # log-uniform on [1, 1e4)
                theta_a=float(theta_a),
                theta_b=float(theta_b),
                mc_seed=int(rng.integers(2 ** 31)),
            )
        )
    return out


def _oracle_op(inp: OracleInput):
    g = rotated_cartan(inp.norm, inp.theta_a, inp.theta_b)
    return g, cocycle.transferred_symbol_mc(symbol_m_word, g, ORACLE_SAMPLES, inp.mc_seed)


def _oracle_check(inp: OracleInput, out) -> Check:
    g, (est, _se) = out
    hits = est * ORACLE_SAMPLES
    if not (0.0 <= est <= 1.0 and abs(hits - round(hits)) < 1e-6):
        return Check(ok=False, wrong=True, detail=f"estimate {est!r} is not a sample share")
    # the small call and the scalar replay read the same sample stream
    k = ORACLE_CHECK_SAMPLES
    small, _ = cocycle.transferred_symbol_mc(symbol_m_word, g, k, inp.mc_seed)
    count, errors, sl2_errors = 0.0, 0, 0
    for p in cocycle.sample_domain(inp.mc_seed, k):
        try:
            count += symbol_m_word(cocycle.cocycle_beta(p, g).beta)
        except DomainError as exc:
            errors += 1
            sl2_errors += raised_in(exc, "sl2.py")
    if errors:
        return Check(
            ok=False,
            detail=f"scalar cocycle raised DomainError on {errors} of {k} samples",
            counts={"sl2.domain_errors": sl2_errors},
        )
    if abs(k * small - count) > 1e-6:
        return Check(
            ok=False,
            wrong=True,
            detail=f"batch {k * small!r} vs scalar {count!r}",
            counts={"cocycle.check_mismatches": 1},
        )
    return PASS


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # the symbol CLI path: regions and quadrature, both inner routes
        Workload(
            name="symbol",
            op_s=0.55,
            inputs=_symbol_inputs,
            op=_symbol_op,
            check=_symbol_check,
            warmup=lambda: regions.m_tilde_full(cartan_a(1.0 / 150.0)),
        ),
        # the decay CLI path: outer integrals, FD partials, the row pool
        Workload(
            name="decay",
            op_s=1.75,
            inputs=_decay_inputs,
            op=_decay_op,
            check=_decay_check,
            warmup=lambda: decay.hm_table([0.55]),
            run_check=_decay_run_check,
        ),
        # the Monte-Carlo route: cocycle and modular, no quadrature
        Workload(
            name="oracle",
            op_s=0.2,
            inputs=_oracle_inputs,
            op=_oracle_op,
            check=_oracle_check,
            warmup=lambda: cocycle.transferred_symbol_mc(
                symbol_m_word, cartan_a(0.5), 10_000, 0
            ),
        ),
    )
}
