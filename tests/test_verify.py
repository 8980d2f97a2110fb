"""Self-check suites: report structure, determinism, and sensitivity to an
injected sign error."""

import numpy as np
import pytest

import hypertransfer.regions as regions
from hypertransfer import verify
from hypertransfer.cli import main
from hypertransfer.errors import DomainError, HypertransferError
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


def test_cli_suites_are_the_verify_suites(capsys):
    assert SUITE_NAMES == ("cocycle", "cases", "decay")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "[--suite {cocycle,cases,decay,all}]" in capsys.readouterr().out


def test_seed_is_checked_before_any_suite_runs(monkeypatch):
    # the decay suite reads no seed, and reported seed -5 with exit 0
    def no_suite(seed):
        raise AssertionError("a suite ran before the seed was checked")

    for name in SUITE_NAMES:
        monkeypatch.setitem(verify._SUITES, name, no_suite)
    for seed in (-5, 1.5, "7"):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            run_verify(["decay"], seed)
    monkeypatch.undo()
    assert run_verify(["decay"], np.int64(3)) == run_verify(["decay"], 3)


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
