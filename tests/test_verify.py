"""Self-check suites: report structure, determinism, and that every check
fails when its subject is broken."""

import dataclasses

import numpy as np
import pytest

import hypertransfer.regions as regions
from hypertransfer import cocycle, decay, modular, verify
from hypertransfer.cli import main
from hypertransfer.errors import DomainError, HypertransferError
from hypertransfer.sl2 import ANCoords
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
    # and each check has a mutation that fails it
    names = [(s["suite"], c["name"]) for s in report["suites"] for c in s["checks"]]
    assert names == [(suite, name) for name, (suite, _) in MUTATIONS.items()]


def test_single_suite_selection_and_unknown(monkeypatch):
    report = run_verify(["decay"], 3)
    assert [s["suite"] for s in report["suites"]] == ["decay"]
    assert report["seed"] == 3
    with pytest.raises(HypertransferError):
        run_verify(["bogus"], 3)

    # every name is checked before any suite runs: beside "all" an unknown
    # name passed unnamed, and after "cases" it was named only once that
    # suite had run
    def no_suite(seed):
        raise AssertionError("a suite ran before the suite names were checked")

    for name in SUITE_NAMES:
        monkeypatch.setitem(verify._SUITES, name, no_suite)
    for suites in (["all", "bogus"], ["cases", "bogus"]):
        with pytest.raises(HypertransferError, match="unknown suite 'bogus'"):
            run_verify(suites, 3)


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


def test_the_default_seed_is_20240914(capsys):
    # verify without --seed reports seed 20240914 and prints the bytes of
    # --seed 20240914
    outputs = []
    for argv in ([], ["--seed", "20240914"]):
        assert main(["verify", "--suite", "cocycle", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert '"seed": 20240914' in outputs[0]
    assert outputs[0] == outputs[1]


def _flip_ellipse_sign(monkeypatch):
    # the sign of the ellipse-root antiderivative: the closed form drifts
    # while the direct oracle stays put
    orig = regions._ellipse_antiderivative
    monkeypatch.setattr(
        regions, "_ellipse_antiderivative", lambda *args: tuple(-v for v in orig(*args))
    )


def test_sign_flip_mutation_is_caught(monkeypatch):
    _flip_ellipse_sign(monkeypatch)
    report = suite_cases(DEFAULT_SEED)
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "case_vs_direct" in failed


def _unsigned_beta(monkeypatch):
    # beta up to sign only, as in PSL2(Z): the cocycle identity holds for
    # the signed lattice element
    cocycle_beta = cocycle.cocycle_beta

    def unsigned(p, g):
        res = cocycle_beta(p, g)
        return dataclasses.replace(res, beta=res.beta.canonical_sign())

    monkeypatch.setattr(verify, "cocycle_beta", unsigned)


def _shadow_at_2i(monkeypatch):
    # the shadow taken at 2i, which a right rotation of g moves, not at i:
    # the reduction runs on h diag(2, 1), whose image of i is h(2i)
    reduce = cocycle._lattice_reduce
    monkeypatch.setattr(cocycle, "_lattice_reduce", lambda a, b, c, d: reduce(2 * a, b, 2 * c, d))


def _inverse_gamma(monkeypatch):
    # gamma^-1 for gamma: z0 = gamma(z) in place of z = gamma(z0)
    reduce = modular.reduce_to_fundamental_domain

    def inverted(z):
        red = reduce(z)
        a, b, c, d = red.gamma.entries()
        return dataclasses.replace(red, gamma=modular.IntMat2(d, -b, -c, a))

    monkeypatch.setattr(verify, "reduce_to_fundamental_domain", inverted)


def _rounded_proposal_edge(monkeypatch):
    # the area estimate's proposal starts at y = 0.86, not sqrt(3)/2
    monkeypatch.setattr(cocycle, "_SQRT3_HALF", 0.86)


def _shifted_shadow(monkeypatch):
    # every Monte-Carlo shadow moved right by 0.3
    shadow = cocycle._shadow_batch

    def shifted(*args):
        zx, zy = shadow(*args)
        return zx + 0.3, zy

    monkeypatch.setattr(cocycle, "_shadow_batch", shifted)


def _word_table_zero_at_identity(monkeypatch):
    # the two-round word table reads 0 on the code of +-I, where the word
    # symbol is 1
    table = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    monkeypatch.setitem(modular._TWO_ROUND_TABLES, modular.symbol_m_word, table)


def _flipped_gx(name):
    # the subject reads g_x with the wrong sign
    def mutate(monkeypatch):
        orig = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda c, *args: orig(ANCoords(-c.g_x, c.g_y), *args))

    return mutate


def _chart_height_inverted(monkeypatch):
    # d g_y / d log r read with 1/g_y for g_y, which weighs the small heights
    # of the circle up by g_y^-2
    closed_form = decay._closed_form

    def inverted(gx, gy):
        m, dgx, dgy = closed_form(gx, gy)
        return m, dgx, dgy / (gy * gy)

    monkeypatch.setattr(decay, "_closed_form", inverted)


def _log_r_derivatives(gx_scale, gy_scale):
    # the circle coordinates' derivatives in log r scaled by the given factors
    def mutate(monkeypatch):
        coords = decay._circle_coords

        def scaled(r, theta):
            gx, gy, gx_r, gy_r = coords(r, theta)
            return gx, gy, gx_scale * gx_r, gy_scale * gy_r

        monkeypatch.setattr(decay, "_circle_coords", scaled)

    return mutate


def _v_jacobian_dropped(monkeypatch):
    # the circle average taken in v without the Jacobian d theta / d v
    v_angles = decay._circle_v_angles
    monkeypatch.setattr(decay, "_circle_v_angles", lambda v: (v_angles(v)[0], 1.0))


def _angles_in_v(monkeypatch):
    # the transition table handing over its angles in the v of the circle
    # averages, not in theta: the inner ends of _circle_v_edges, where theta = 0
    # is always a transition angle and so holds the Jacobian's kink
    table = decay.case_transition_thetas

    def in_v(r):
        thetas = table(r)
        out = regions._TransitionAngles(regions._circle_v_edges(thetas)[1:-1].tolist())
        out.constant = thetas.constant
        return out

    monkeypatch.setattr(decay, "case_transition_thetas", in_v)


def _negated_factor(monkeypatch):
    factor = decay.case8_second_derivative_factor
    monkeypatch.setattr(decay, "case8_second_derivative_factor", lambda gx: -factor(gx))


# every check of every suite, in report order: its suite and a mutation of
# its subject that it must report
MUTATIONS = {
    "cocycle_identity_exact": ("cocycle", _unsigned_beta),
    "k_shift_sign_only": ("cocycle", _shadow_at_2i),
    "tiling_roundtrip": ("cocycle", _inverse_gamma),
    "measure_pi_over_3": ("cocycle", _rounded_proposal_edge),
    "mc_matches_scalar_cocycle": ("cocycle", _shifted_shadow),
    "case1_and_case7_exact": ("cases", _flipped_gx("m_hat_case")),
    "case_vs_direct": ("cases", _flip_ellipse_sign),
    "monotone_in_gx": ("cases", _flipped_gx("m_hat_direct")),
    "identity_value": ("cases", _word_table_zero_at_identity),
    "f1_matches_m_tilde_difference": ("decay", _log_r_derivatives(0.0, 1.0)),
    "theta_limits": ("decay", _angles_in_v),
    "divergence_probe_increasing": ("decay", _negated_factor),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_check_fails_under_a_mutation(monkeypatch, name):
    suite, mutate = MUTATIONS[name]
    mutate(monkeypatch)
    report = run_verify([suite], DEFAULT_SEED)
    (check,) = [c for c in report["suites"][0]["checks"] if c["name"] == name]
    assert check["passed"] is False and report["passed"] is False


@pytest.mark.parametrize(
    "mutate",
    [
        _chart_height_inverted,
        _log_r_derivatives(0.0, 1.0),
        _log_r_derivatives(-1.0, 1.0),
        _log_r_derivatives(1.0, 0.5),
        _v_jacobian_dropped,
    ],
    ids=["height_inverted", "gx_term_dropped", "gx_sign_flipped", "gy_half", "v_jacobian_dropped"],
)
def test_f1_check_catches_every_integrand_mutation(monkeypatch, mutate):
    # the one f1 check of the decay suite holds each factor of the table's
    # integrand, not only the one the mutation table above names
    mutate(monkeypatch)
    checks = {c["name"]: c["passed"] for c in verify.suite_decay()["checks"]}
    assert checks["f1_matches_m_tilde_difference"] is False
