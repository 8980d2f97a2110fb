"""Smoke tests for the benchmark; tiny seeded runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import threading

import pytest

import run

run.check_checkout()  # puts the checkout's src/ on sys.path

import spans  # noqa: E402
import workloads  # noqa: E402
from hypertransfer.errors import DomainError  # noqa: E402

SEED = 7
TINY_OPS = {"symbol": 2, "decay": 1, "oracle": 2}


def tiny(name: str) -> workloads.Workload:
    """The workload sized so that a run of TINY_OPS[name] seconds makes that many ops."""
    return dataclasses.replace(workloads.WORKLOADS[name], op_s=1.0)


@pytest.fixture(scope="module")
def runs():
    """(result, info, run, tracer) per (workload, traced)."""
    saved, run.SETUP_RUNS = run.SETUP_RUNS, 1
    try:
        out = {}
        for name in TINY_OPS:
            for traced in (False, True):
                measured = run.measure(tiny(name), SEED, TINY_OPS[name], traced)
                out[name, traced] = measured[:4]
        return out
    finally:
        run.SETUP_RUNS = saved


@pytest.mark.parametrize("name", sorted(TINY_OPS))
@pytest.mark.parametrize("traced", (False, True))
def test_every_metric_is_emitted_with_its_unit(runs, name, traced):
    result, info, _, _ = runs[name, traced]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == TINY_OPS[name] == info["ops"]
    units = run.declared_units(traced)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bypass_split(runs):
    metric = {name: runs[name, True][0]["metrics"] for name in TINY_OPS}
    assert metric["oracle"]["quadrature.calls"]["value"] == 0
    assert metric["oracle"]["cocycle.mc_s"]["value"] > 0
    for name in ("symbol", "decay"):
        assert metric[name]["quadrature.calls"]["value"] > 0
        assert metric[name]["cocycle.mc_s"]["value"] == 0


def test_pool_thread_spans_carry_their_op_id(runs):
    tracer = runs["decay", True][3]
    roots = [s for s in tracer.spans if s[spans.NAME] == "bench.op"]
    main = threading.get_ident()
    pooled = [s for s in tracer.spans if s[spans.THREAD] != main]
    assert any(s[spans.NAME] == "decay.row" for s in pooled)
    for s in pooled:
        (root,) = [r for r in roots if r[spans.START] <= s[spans.START] <= r[spans.END]]
        assert s[spans.OP] == root[spans.OP]


def test_traced_counts_repeat_for_one_seed(runs):
    first = runs["decay", True][0]["metrics"]
    again = run.measure(tiny("decay"), SEED, TINY_OPS["decay"], True)[0]["metrics"]
    counts = [k for k, unit in run.declared_units(True).items() if unit in run.COUNT_UNITS]
    assert len(counts) > 10
    for name in counts:
        assert again[name] == first[name], name


def test_injected_failure_is_counted():
    calls = []

    def failing_once(inp):
        calls.append(inp)
        if len(calls) == 1:
            raise DomainError("injected")
        return workloads.WORKLOADS["oracle"].op(inp)

    broken = dataclasses.replace(tiny("oracle"), op=failing_once)
    result, info, _, _, _ = run.measure(broken, SEED, TINY_OPS["oracle"], True)
    assert result["failed"] == 1
    assert result["metrics"]["fail_rate"]["value"] == 1 / result["attempted"]
    assert info["failures"] == ["DomainError: injected"]
    # a named error is a failed op, not a wrong result
    assert result["correct"] is True


def test_refuted_value_marks_the_run_incorrect():
    wrong = dataclasses.replace(
        tiny("oracle"), check=lambda inp, out: workloads.Check(ok=False, wrong=True)
    )
    result = run.measure(wrong, SEED, TINY_OPS["oracle"], True)[0]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_tail_is_the_percentile_with_ten_slower_ops():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert pct == 75.0
    # the Harrell-Davis estimate of p75 on 0..39 lies between its neighbouring
    # order statistics and is symmetric about the median
    assert 28.0 < value < 31.0
    assert run.quantile(times, 0.5) == pytest.approx(19.5)
    assert run.quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    assert run.tail(times[:5]) == (0.0, 0.0)


def test_refuses_a_thread_override(monkeypatch, capsys):
    monkeypatch.setenv("HYPERTRANSFER_THREADS", "1")
    argv = ["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
