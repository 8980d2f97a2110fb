"""Self-check suites: report structure, determinism, and sensitivity to an
injected sign error."""

import pytest

import hypertransfer.regions as regions
from hypertransfer.errors import HypertransferError
from hypertransfer.verify import (
    DEFAULT_SEED,
    SUITE_NAMES,
    run_verify,
    suite_cases,
)


def test_all_suites_pass_and_report_shape():
    report = run_verify(["all"], DEFAULT_SEED)
    assert report["passed"] is True
    assert report["seed"] == DEFAULT_SEED
    assert [s["suite"] for s in report["suites"]] == list(SUITE_NAMES)
    for suite in report["suites"]:
        assert suite["checks"], suite["suite"]
        for check in suite["checks"]:
            assert check["passed"], f"{suite['suite']}::{check['name']}"


def test_single_suite_selection_and_unknown():
    report = run_verify(["decay"], 3)
    assert [s["suite"] for s in report["suites"]] == ["decay"]
    assert report["seed"] == 3
    with pytest.raises(HypertransferError):
        run_verify(["bogus"], 3)


def test_reports_deterministic():
    assert run_verify(["cocycle"], 7) == run_verify(["cocycle"], 7)


def test_sign_flip_mutation_is_caught(monkeypatch):
    # flip the sign of the ellipse-root antiderivative: the closed form
    # drifts while the direct oracle stays put, and the case-vs-direct check
    # must notice
    orig = regions._ellipse_antiderivative
    monkeypatch.setattr(
        regions, "_ellipse_antiderivative", lambda *args: tuple(-v for v in orig(*args))
    )
    report = suite_cases(DEFAULT_SEED)
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "case_vs_direct" in failed
