"""Benchmark of the hypertransfer package.

    python3 perfbench/run.py --workload {symbol,decay,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. One client runs a closed loop: the next op starts when the previous
one has returned and its untimed check has run. A run makes a fixed number of
ops, ``round(S / op_s)``, so that it lasts about S seconds on the box the
per-op times were measured on, while the op count stays the same across runs
and commits.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns the same
ops with span wrappers installed and reports the per-layer metrics instead.
The last stdout line is the result object; the line before it records the
environment. Full results, per-op records and (traced) spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 3
# a run stops starting ops after this many times --seconds, so that a slower
# commit or a slow spell of a shared machine still ends in bounded time
MAX_MEASURE_FACTOR = 1.4

# per-layer units of metrics that are not times; these repeat exactly for one
# seed (a ratio of two times has unit "s/s")
COUNT_UNITS = ("count", "ratio")

# the child interpreter of one set-up measurement: argv is src, bench dir, workload
_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import hypertransfer, workloads; "
    "workloads.WORKLOADS[sys.argv[3]].warmup()"
)


class BenchError(Exception):
    """The benchmark cannot run in this checkout or configuration."""


def check_checkout() -> None:
    if not (SRC / "hypertransfer" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'hypertransfer'}")
    if "HYPERTRANSFER_THREADS" in os.environ:
        raise BenchError(
            "HYPERTRANSFER_THREADS is set; the benchmark measures the default "
            "worker count only"
        )
    sys.path.insert(0, str(SRC))
    import hypertransfer

    if Path(hypertransfer.__file__).resolve().parent != (SRC / "hypertransfer").resolve():
        raise BenchError(f"imported hypertransfer from {hypertransfer.__file__}, not {SRC}")


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    from hypertransfer import decay
    from workloads import DECAY_ROWS

    digest = hashlib.sha256()
    for path in sorted((SRC / "hypertransfer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "worker_count_decay_grid": decay.worker_count(DECAY_ROWS),
        "hypertransfer_threads_set": "HYPERTRANSFER_THREADS" in os.environ,
    }


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import the package and run one
    warm-up op, SETUP_RUNS times in a row."""
    times = []
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), workload]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def declared_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def quantile(times: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    the order statistics. A run holds a few dozen ops whose costs cluster by
    input, so a single order statistic jumps between clusters when machine
    noise reorders ops near it; this estimate moves smoothly instead."""
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(times, dtype=float))
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ ordered)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, 100 (N - 10) / N,
    estimated like the median; returns (value, percentile). Runs of ten ops or
    fewer fall back to the fastest op (percentile 0)."""
    n = len(times)
    if n <= 10:
        return min(times), 0.0
    p = (n - 10) / n
    return quantile(times, p), 100.0 * p


def run_ops(workload, seed: int, seconds: float, tracer=None) -> dict:
    """The closed loop: per-op records, checked outputs and scan-cache deltas."""
    import numpy as np

    import spans
    from hypertransfer.errors import DomainError, HypertransferError
    from workloads import raised_in

    def scope(op_id: int, phase: str):
        return contextlib.nullcontext() if tracer is None else tracer.root_span(op_id, phase)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0x5EED])))
    planned = max(1, round(seconds / workload.op_s))
    spans.SCAN_CACHE.cache_clear()
    records, outputs = [], []
    scan_hits = scan_misses = 0
    t_start = time.perf_counter()
    for inp in workload.inputs(rng, planned):
        if time.perf_counter() - t_start > MAX_MEASURE_FACTOR * seconds:
            break
        op_id = len(records)
        # start every op from empty collector generations, so that garbage
        # left by the previous check does not trigger collections inside it
        gc.collect()
        before = spans.SCAN_CACHE.cache_info()
        out = error = check = None
        with scope(op_id, "op"):
            t0 = time.perf_counter()
            try:
                out = workload.op(inp)
            except Exception as exc:  # a failed op, recorded below
                error = exc
            t1 = time.perf_counter()
        after = spans.SCAN_CACHE.cache_info()
        scan_hits += after.hits - before.hits
        scan_misses += after.misses - before.misses
        if error is None:
            try:
                with scope(op_id, "check"):
                    check = workload.check(inp, out)
            except Exception as exc:  # the reference route raised
                error = exc
        counts = dict(check.counts) if check is not None else {}
        if isinstance(error, DomainError) and raised_in(error, "sl2.py"):
            counts["sl2.domain_errors"] = counts.get("sl2.domain_errors", 0) + 1
        if check is not None and check.ok:
            outputs.append(out)
        records.append(
            {
                "op": op_id,
                "input": repr(inp),
                "seconds": t1 - t0,
                "ok": check is not None and check.ok,
                "wrong": check is not None and check.wrong,
                # an exception outside the package's named errors is a bug
                "unnamed_error": error is not None
                and not isinstance(error, HypertransferError),
                "failure": (
                    f"{type(error).__name__}: {error}"
                    if error is not None
                    else None if check.ok else check.detail
                ),
                "counts": counts,
            }
        )
    return {
        "records": records,
        "outputs": outputs,
        "planned": planned,
        "scan_hits": scan_hits,
        "scan_misses": scan_misses,
    }


def summarize(workload, run: dict, setup: list[float], tracer=None) -> tuple[dict, dict]:
    """The result object (end-to-end metrics, or per-layer ones when traced)
    and the run details printed beside it."""
    records = run["records"]
    times = [r["seconds"] for r in records]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    run_problem = workload.run_check(run["outputs"]) if workload.run_check else None
    correct = (
        not any(r["wrong"] or r["unnamed_error"] for r in records) and run_problem is None
    )
    ops_per_s = attempted / sum(times)
    tail_value, tail_pct = tail(times)
    if tracer is not None:
        import spans

        values = spans.layer_metrics(tracer.spans, run["scan_hits"], run["scan_misses"])
        values["fail_rate"] = failed / attempted
        values["trace.ops_per_s"] = ops_per_s
        for name in ("cocycle.check_mismatches", "sl2.domain_errors"):
            values[name] = sum(r["counts"].get(name, 0) for r in records)
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_s": quantile(times, 0.5),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = declared_units(tracer is not None)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    info = {
        "ops": attempted,
        "planned": run["planned"],
        "tail_percentile": tail_pct,
        "run_check": run_problem,
        "failures": sorted({r["failure"] for r in records if not r["ok"]}),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up, warm up and run one workload; returns (result, info, run, tracer, setup)."""
    import spans

    setup = [] if trace else measure_setup(workload.name)
    workload.warmup()
    tracer = spans.Tracer() if trace else None
    if tracer is None:
        run = run_ops(workload, seed, seconds)
    else:
        with spans.installed(tracer):
            run = run_ops(workload, seed, seconds, tracer)
    result, info = summarize(workload, run, setup, tracer)
    return result, info, run, tracer, setup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("symbol", "decay", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    t_main = time.perf_counter()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        check_checkout()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads

    env = environment()
    result, info, run, tracer, setup = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )

    info["wall_s"] = time.perf_counter() - t_main
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "environment": env,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_runs_s": setup,
        **info,
        "result": result,
        "records": run["records"],
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps({"environment": env, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
