"""In-memory span tracer for the benchmark's traced runs.

Tracing works from outside the package: `installed` swaps the module-level
names each layer calls in the layer below (``regions.integrate``,
``decay.m_hat_direct``, ``cocycle.reduce_to_fundamental_domain``, ...) for
wrappers that record a span around every call, and restores them on exit.
Integrands handed to ``integrate`` are wrapped too, to count evaluations.
Nothing under ``src/`` changes.

A span is the tuple ``(id, name, start, end, parent, op, thread, phase, count,
error)``. ``phase`` is "op" for the timed call and "check" for the untimed
correctness check. ``count`` carries integrand evaluations for quadrature
spans, the sample count for Monte-Carlo spans and the worker count for
``decay.worker_count``. The ``hm_table`` pool threads start with an empty span
stack; their outermost spans take the current op's root span as parent, which
is sound because the closed loop has one op in flight at a time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator

from hypertransfer import cocycle, decay, regions

ID, NAME, START, END, PARENT, OP, THREAD, PHASE, COUNT, ERROR = range(10)

PARTIALS = ("regions.m_hat_dgx", "regions.m_hat_dgy")
NODES = ("regions.node", "decay.node")

# the lru_cache object itself, read before and after each op
SCAN_CACHE = regions.case_transition_thetas


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "op", "phase", "start", "count")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.count = 0

    def __enter__(self) -> "_Span":
        tr = self.tracer
        stack = tr._stack()
        self.parent = stack[-1] if stack else tr.root
        self.id = next(tr._ids)
        self.op, self.phase = tr.op_id, tr.phase
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tr = self.tracer
        tr._stack().pop()
        tr.spans.append(
            (
                self.id,
                self.name,
                self.start,
                end,
                self.parent,
                self.op,
                threading.get_ident(),
                self.phase,
                self.count,
                exc_type.__name__ if exc_type is not None else None,
            )
        )
        return False


class Tracer:
    """Collects spans in memory; `spans` is written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.op_id: int | None = None
        self.phase: str | None = None
        self.root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    @contextlib.contextmanager
    def root_span(self, op_id: int, phase: str) -> Iterator[None]:
        """Open the root span of one op's timed call or its check."""
        self.op_id, self.phase = op_id, phase
        with self.span(f"bench.{phase}") as sp:
            self.root = sp.id
            try:
                yield
            finally:
                self.root = None


def _wrap(tracer: Tracer, name: str, fn: Callable, count=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if count is not None:
                sp.count = count(args, out)
            return out

    return wrapper


def _wrap_integrate(tracer: Tracer, name: str, integrate: Callable) -> Callable:
    @functools.wraps(integrate)
    def wrapper(f, a, b, *args, **kwargs):
        with tracer.span(name) as sp:

            def counted(x):
                sp.count += 1
                return f(x)

            return integrate(counted, a, b, *args, **kwargs)

    return wrapper


# (module, attribute, span name, count) of every wrapped name but integrate;
# count(args, result) gives the span's count where one is kept.
# classify_case is left unwrapped: the transition scan calls it over a
# thousand times per miss, and wrapping it would inflate regions.scan_s. A
# node's regime is read from its children instead (a FALLBACK node calls
# m_hat_direct).
_TARGETS = (
    (regions, "m_hat_at_angle", "regions.node", None),
    (regions, "_m_hat_case_known", "regions.case", None),
    (regions, "m_hat_direct", "regions.m_hat_direct", None),
    (regions, "case_transition_thetas", "regions.scan", None),
    (decay, "worker_count", "decay.worker_count", lambda args, out: out),
    (decay, "_decay_row", "decay.row", None),
    (decay, "lie_derivative_mtt", "decay.node", None),
    (decay, "m_hat_dgx", "regions.m_hat_dgx", None),
    (decay, "m_hat_dgy", "regions.m_hat_dgy", None),
    (decay, "m_hat_direct", "regions.m_hat_direct", None),
    (decay, "case_transition_thetas", "regions.scan", None),
    (cocycle, "transferred_symbol_mc", "cocycle.mc", lambda args, out: args[2]),
    (cocycle, "reduce_to_fundamental_domain", "modular.reduce", None),
)
# the integrate names, whose span count is the integrand evaluations
_INTEGRATE_TARGETS = (
    (regions, "integrate", "regions.integrate"),
    (decay, "integrate", "decay.integrate"),
)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every target name through a span wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, name, count in _TARGETS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _wrap(tracer, name, getattr(module, attr), count))
        for module, attr, name in _INTEGRATE_TARGETS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _wrap_integrate(tracer, name, getattr(module, attr)))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], scan_hits: int, scan_misses: int) -> dict[str, float]:
    """Per-layer numbers of one traced run, from the timed ("op") phase
    except ``modular.reduce_*``, which also count the scalar reductions the
    oracle check makes. The check-side counters ``cocycle.check_mismatches``
    and ``sl2.domain_errors`` come from the check results, not from spans."""
    op = [s for s in spans if s[PHASE] == "op"]
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for s in op:
        by_name[s[NAME]].append(s)
    selft = self_times(op)

    def total(names: tuple[str, ...]) -> float:
        return sum(s[END] - s[START] for n in names for s in by_name[n])

    quad = [s for _, _, n in _INTEGRATE_TARGETS for s in by_name[n]]
    direct_parents = {s[PARENT] for s in by_name["regions.m_hat_direct"]}
    nodes = [s for n in NODES for s in by_name[n]]
    decay_nodes = {s[ID] for s in by_name["decay.node"]}

    workers_of_op = {s[OP]: s[COUNT] for s in by_name["decay.worker_count"]}
    pool_capacity = sum(
        (s[END] - s[START]) * workers_of_op[s[OP]]
        for s in by_name["bench.op"]
        if s[OP] in workers_of_op
    )
    mc_s = total(("cocycle.mc",))
    reduce_spans = [s for s in spans if s[NAME] == "modular.reduce"]
    return {
        "quadrature.calls": len(quad),
        "quadrature.evals": sum(s[COUNT] for s in quad),
        "quadrature.self_s": sum(selft[s[ID]] for s in quad),
        "quadrature.accuracy_errors": sum(s[ERROR] == "AccuracyError" for s in quad),
        "regions.case_calls": len(by_name["regions.case"]),
        "regions.fallback_share": _ratio(
            sum(s[ID] in direct_parents for s in nodes), len(nodes)
        ),
        "regions.direct_calls": len(by_name["regions.m_hat_direct"]),
        "regions.direct_s": total(("regions.m_hat_direct",)),
        "regions.scan_s": total(("regions.scan",)),
        "regions.scan_cache_hit_ratio": _ratio(scan_hits, scan_hits + scan_misses),
        "decay.outer_evals": sum(s[COUNT] for s in by_name["decay.integrate"]),
        "decay.outer_s": total(("decay.integrate",)),
        "decay.fd_direct_calls": sum(
            s[PARENT] in decay_nodes for s in by_name["regions.m_hat_direct"]
        ),
        "decay.case_partial_calls": sum(len(by_name[n]) for n in PARTIALS),
        "decay.pool_workers": max(workers_of_op.values(), default=0),
        "decay.pool_efficiency": _ratio(total(("decay.row",)), pool_capacity),
        "cocycle.mc_s": mc_s,
        "cocycle.samples_per_s": _ratio(sum(s[COUNT] for s in by_name["cocycle.mc"]), mc_s),
        "cocycle.stragglers": len(by_name["modular.reduce"]),
        "modular.reduce_calls": len(reduce_spans),
        "modular.reduce_s": sum(s[END] - s[START] for s in reduce_spans),
    }
