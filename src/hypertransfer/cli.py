"""Command-line surface: reduce, symbol, region, decay, verify.

Output is CSV (header row, '.' decimal, 17 significant digits) or JSON with
sorted keys, where an undefined number is null; verify writes JSON only.
Identical seeds and flags give byte-identical bytes. Exit codes:
0 success, 1 verification failure, 2 usage or input error, 3 accuracy not
achieved.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .cocycle import transferred_symbol_mc
from .decay import hm_table
from .errors import AccuracyError, HypertransferError
from .modular import reduce_to_fundamental_domain, symbol_m_word
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .regions import ANCoords, classify_case, m_tilde_full, section_intervals
from .sl2 import HalfPlanePoint, cartan_a
from .verify import DEFAULT_SEED, run_verify

_REGION_Y_CAP = 3.0


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)


def _json_dump(obj) -> str:
    # allow_nan=False: NaN and infinity are not JSON, so no output may hold them
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit_formatted(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """Write payload as JSON or lines as CSV, as args.format asks."""
    if args.format == "json":
        _emit(_json_dump(payload), args.output)
    else:
        _emit("\n".join(lines) + "\n", args.output)


def cmd_reduce(args: argparse.Namespace) -> int:
    red = reduce_to_fundamental_domain(HalfPlanePoint(args.x, args.y))
    a, b, c, d = red.gamma.entries()
    payload = {"gamma": [a, b, c, d], "z0_x": float(red.z0.x), "z0_y": float(red.z0.y)}
    lines = [
        "gamma_a,gamma_b,gamma_c,gamma_d,z0_x,z0_y",
        f"{a},{b},{c},{d},{_fmt(red.z0.x)},{_fmt(red.z0.y)}",
    ]
    _emit_formatted(args, payload, lines)
    return 0


def cmd_symbol(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.r) and args.r > 0.0):
        raise HypertransferError(f"need r > 0, got {args.r!r}")
    g = cartan_a(args.r)
    q = QuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    if args.mode == "mc":
        value, err = transferred_symbol_mc(symbol_m_word, g, args.n, args.seed)
    else:
        value, err = m_tilde_full(g, q, force_direct=(args.mode == "direct"))
    payload = {"r": float(args.r), "mode": args.mode, "value": float(value), "error": float(err)}
    lines = ["r,mode,value,error", f"{_fmt(args.r)},{args.mode},{_fmt(value)},{_fmt(err)}"]
    _emit_formatted(args, payload, lines)
    return 0


def _region_rows(c: ANCoords, samples: int) -> list[tuple[str, float, float]]:
    rows: list[tuple[str, float, float]] = []
    for x in np.linspace(-0.5, 0.5, samples):
        x = float(x)
        for i, (lo, hi) in enumerate(section_intervals(x, c)):
            if lo >= _REGION_Y_CAP:
                continue
            rows.append((f"lower{i}", x, lo))
            rows.append((f"upper{i}", x, _REGION_Y_CAP if math.isinf(hi) else min(hi, _REGION_Y_CAP)))
    return rows


def cmd_region(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise HypertransferError("need at least 2 samples")
    c = ANCoords(args.gx, args.gy)
    case = classify_case(c)
    rows = _region_rows(c, args.samples)
    payload = {
        "case": case.value,
        "points": [{"curve_id": cid, "x": x, "y": y} for cid, x, y in rows],
    }
    lines = [f"# case={case.value}", "curve_id,x,y"]
    lines.extend(f"{cid},{_fmt(x)},{_fmt(y)}" for cid, x, y in rows)
    _emit_formatted(args, payload, lines)
    return 0


def cmd_decay(args: argparse.Namespace) -> int:
    if not (0.0 < args.rmin < args.rmax < 1.0):
        raise HypertransferError(f"need 0 < rmin < rmax < 1, got {args.rmin!r}, {args.rmax!r}")
    if args.steps < 1:
        raise HypertransferError("need steps >= 1")
    grid = [float(r) for r in np.linspace(args.rmin, args.rmax, args.steps)]
    rows = hm_table(grid)
    max_weighted = max(row.weighted for row in rows)
    if len(rows) >= 2:
        mags = [abs(row.f1) + abs(row.f2) for row in rows]
        slope = float(np.polyfit(np.log([row.r for row in rows]), np.log(mags), 1)[0])
    else:
        slope = float("nan")
    payload = {
        "rows": [
            {"r": row.r, "f1": row.f1, "f2": row.f2, "weighted": row.weighted} for row in rows
        ],
        "slope": None if math.isnan(slope) else slope,
        "max_weighted": float(max_weighted),
    }
    lines = ["r,f1,f2,weighted"]
    lines.extend(
        f"{_fmt(row.r)},{_fmt(row.f1)},{_fmt(row.f2)},{_fmt(row.weighted)}" for row in rows
    )
    lines.append(f"# slope={_fmt(slope)} max_weighted={_fmt(max_weighted)}")
    _emit_formatted(args, payload, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify([args.suite], args.seed)
    _emit(_json_dump(report), args.output)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertransfer",
        description="Lattice-averaged multiplier toolkit: reduction, symbol "
        "evaluation, region data, decay tables, self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        output(p)

    p = sub.add_parser("reduce", help="reduce x+iy to the fundamental domain")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("symbol", help="averaged symbol value at diag(r, 1/r)")
    p.add_argument("r", type=float)
    p.add_argument("--mode", choices=("case", "direct", "mc"), default="case")
    p.add_argument("--n", type=int, default=100_000, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.add_argument("--abs-tol", type=float, default=DEFAULT_QUADRATURE.abs_tol)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_QUADRATURE.rel_tol)
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("region", help="boundary polylines of the active region")
    p.add_argument("gx", type=float)
    p.add_argument("gy", type=float)
    p.add_argument("--samples", type=int, default=400)
    common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("decay", help="weighted Lie-derivative decay table")
    p.add_argument("--rmin", type=float, default=0.05)
    p.add_argument("--rmax", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("verify", help="run the self-check suites (JSON report)")
    p.add_argument("--suite", choices=("cocycle", "cases", "decay", "all"), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    output(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AccuracyError as exc:
        sys.stderr.write(f"accuracy not achieved: {exc}\n")
        return 3
    except (HypertransferError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
