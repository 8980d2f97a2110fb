"""Decay estimates: adjoint transport, Lie derivatives of the region symbol
and its angle average, the weighted first-order table, transition angles, and
the second-order divergence probe."""

import math
import os
import warnings

import numpy as np
import pytest
import scipy.linalg

from hypertransfer import decay, regions
from hypertransfer.decay import (
    DecayRow,
    LieDirection,
    adjoint_action,
    case8_second_derivative_factor,
    divergence_probe_onset,
    hm_table,
    lie_derivative_mtilde,
    lie_derivative_mtilde_adjoint,
    lie_derivative_mtt,
    second_order_divergence_probe,
    theta_boundaries,
    worker_count,
)
from hypertransfer.errors import DomainError
from hypertransfer.regions import (
    boundary_values,
    case_transition_thetas,
    iwasawa_image_coords,
    m_hat_case,
    m_tilde,
)
from hypertransfer.sl2 import ANCoords, RealMat2, cartan_a, rotation

SQRT3 = math.sqrt(3.0)

# the basis that LieDirection names
GENERATORS = {
    LieDirection.X1: np.array([[1.0, 0.0], [0.0, -1.0]]),
    LieDirection.X2: np.array([[0.0, 1.0], [0.0, 0.0]]),
    LieDirection.X3: np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


def lie_derivative_mtilde_fd(g: RealMat2, direction: LieDirection) -> float:
    """Central difference, step 1e-4, of the K-averaged symbol along g exp(t X_j)."""

    def along(t: float) -> float:
        return m_tilde(g @ RealMat2(*scipy.linalg.expm(t * GENERATORS[direction]).ravel()))

    return (along(1e-4) - along(-1e-4)) / 2e-4


def test_adjoint_examples():
    for th in (0.0, 0.3, 1.1, -2.5):
        assert adjoint_action(th, LieDirection.X3) == (0.0, 0.0, 1.0)
    assert adjoint_action(0.0, LieDirection.X1) == (1.0, 0.0, 0.0)
    c = adjoint_action(math.pi / 4.0, LieDirection.X1)
    assert abs(c[0]) < 1e-15 and abs(c[1] - 2.0) < 1e-15 and abs(c[2] + 1.0) < 1e-15


def test_adjoint_reconstruction():
    rng = np.random.default_rng(17)
    gens = list(GENERATORS.values())
    for _ in range(100):
        th = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        k = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        for d in LieDirection:
            want = k @ GENERATORS[d] @ k.T
            got = sum(ci * gi for ci, gi in zip(adjoint_action(th, d), gens))
            assert np.max(np.abs(want - got)) < 1e-12


def test_lie_exponential_closed_forms():
    # the basis exponentiates to the one-parameter subgroups: diag(e^t, e^-t),
    # the unipotent (1 t; 0 1), and the rotations of sl2.rotation
    for t in (-0.7, 0.0, 0.3, 2.0):
        closed = {
            LieDirection.X1: RealMat2(math.exp(t), 0.0, 0.0, math.exp(-t)),
            LieDirection.X2: RealMat2(1.0, t, 0.0, 1.0),
            LieDirection.X3: rotation(-t),
        }
        for d, got in closed.items():
            want = scipy.linalg.expm(t * GENERATORS[d])
            assert np.max(np.abs(want - np.array(got.entries()).reshape(2, 2))) < 1e-12


def test_mtt_directional_values():
    c = ANCoords(-0.19, 0.3)
    assert lie_derivative_mtt(c, LieDirection.X3) == 0.0
    c8 = ANCoords(-0.5, 1.5)
    assert lie_derivative_mtt(c8, LieDirection.X1) == 0.0
    c2 = ANCoords(0.27, 0.3)
    h = 1e-5
    fd = (m_hat_case(ANCoords(c2.g_x + h, c2.g_y)) - m_hat_case(ANCoords(c2.g_x - h, c2.g_y))) / (2 * h)
    got = lie_derivative_mtt(c2, LieDirection.X2)
    assert abs(got - c2.g_y * fd) <= 1e-3 * abs(c2.g_y * fd)


def test_mtt_x1_is_gy_scaled_partial():
    c = ANCoords(-0.06, 0.1)
    h = 1e-5
    fd = (m_hat_case(ANCoords(c.g_x, c.g_y + h)) - m_hat_case(ANCoords(c.g_x, c.g_y - h))) / (2 * h)
    got = lie_derivative_mtt(c, LieDirection.X1)
    assert abs(got - 2.0 * c.g_y * fd) <= 1e-3 * abs(2.0 * c.g_y * fd)


def test_f_values_and_symmetry():
    assert lie_derivative_mtilde(0.37, LieDirection.X3) == 0.0
    f1 = lie_derivative_mtilde(0.1, LieDirection.X1)
    assert abs(f1) <= 0.12  # the 12 r^2 envelope at r = 0.1
    assert lie_derivative_mtilde(4.0, LieDirection.X1) == lie_derivative_mtilde(
        0.25, LieDirection.X1
    )
    with pytest.raises(DomainError, match="excludes r = 1"):
        lie_derivative_mtilde(1.0, LieDirection.X1)
    with pytest.raises(DomainError, match="need r > 0"):
        lie_derivative_mtilde(0.0, LieDirection.X1)


def test_every_direction_refuses_the_same_radii():
    # X3 answers 0 without integrating, but only for a radius X1 and X2 accept
    for lie in (lie_derivative_mtilde, lie_derivative_mtilde_adjoint):
        for r, message in (
            (-1.0, "need r > 0"),
            (math.nan, "need r > 0"),
            (1.0, "excludes r = 1"),
            (1e-300, "supported range"),
        ):
            for d in LieDirection:
                with pytest.raises(DomainError, match=message):
                    lie(r, d)
        assert lie(0.37, LieDirection.X3) == 0.0


def test_f2_roughly_linear_smallr():
    rs = [0.05, 0.1, 0.2]
    vals = [abs(lie_derivative_mtilde(r, LieDirection.X2)) for r in rs]
    slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    assert slope >= 0.9


def test_interchange_against_finite_difference():
    # the transported integrand is what a finite difference of the average
    # sees; X1 at r = 0.2 frozen after the two routes agreed to 4e-9
    adj = lie_derivative_mtilde_adjoint(0.2, LieDirection.X1)
    fd = lie_derivative_mtilde_fd(cartan_a(0.2), LieDirection.X1)
    assert abs(adj - 0.003912252) < 1e-7
    assert abs(adj - fd) < 1e-6
    adj2 = lie_derivative_mtilde_adjoint(0.2, LieDirection.X2)
    fd2 = lie_derivative_mtilde_fd(cartan_a(0.2), LieDirection.X2)
    assert abs(adj2) < 1e-6 and abs(fd2) < 1e-6


def test_adjoint_x2_vanishes_by_bi_k_invariance():
    # m_tilde is bi-K-invariant, so its derivative along the transported X2
    # is zero; finite-difference partials in the fallback band left 2e-8, and
    # ungraded segments left 3.9e-8 at r = 0.8466
    for r in np.linspace(0.05, 0.99, 60):
        assert abs(lie_derivative_mtilde_adjoint(float(r), LieDirection.X2)) < 1e-9, r


def test_hm_table_contract():
    rows = hm_table([0.1, 0.2])
    assert [row.r for row in rows] == [0.1, 0.2]
    for row in rows:
        assert row.weighted == (abs(row.f1) + abs(row.f2)) / row.r
        # one shared integration gives both columns and both directions
        assert row.f1 == lie_derivative_mtilde(row.r, LieDirection.X1)
        assert row.f2 == lie_derivative_mtilde(row.r, LieDirection.X2)
    assert hm_table([]) == []
    with pytest.raises(DomainError):
        hm_table([0.1, 1.2])
    with pytest.raises(DomainError):
        DecayRow(r=1.5, f1=0.0, f2=0.0)


def test_decay_rejects_radii_past_the_norm_range():
    # below r = 1/MAX_NORM the radius is refused by name before r^4 can
    # underflow in _circle_coords (from about r = 1e-77 on)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="supported range"):
            hm_table([1e-80])
        with pytest.raises(DomainError, match="supported range"):
            lie_derivative_mtilde(1e-300, LieDirection.X1)
        with pytest.raises(DomainError, match="supported range"):
            lie_derivative_mtilde(1e300, LieDirection.X2)
        row = hm_table([1e-38])[0]
    assert math.isfinite(row.f1) and math.isfinite(row.f2)


def test_decay_table_shares_closed_form_nodes(monkeypatch):
    # f1 and f2 of a row come from one integration on shared nodes, with
    # every segment graded at both ends and the arcs where m_hat is constant
    # left out: the default table evaluates the closed form at 3 192 points
    # (3 402 with those arcs, 7 938 ungraded at a looser target, 12 012 with
    # one integration per column as well)
    sizes = []
    closed_form = decay._closed_form

    def counted(gx, gy):
        sizes.append(np.size(gx))  # list.append is atomic under the pool
        return closed_form(gx, gy)

    monkeypatch.setattr(decay, "_closed_form", counted)
    hm_table(np.linspace(0.05, 0.5, 10))
    assert sum(sizes) <= 3600


def test_worker_count_env(monkeypatch):
    # one thread per row and per CPU at most; the former HYPERTRANSFER_THREADS
    # override is ignored, whatever it holds
    cpus = os.cpu_count() or 1
    monkeypatch.delenv("HYPERTRANSFER_THREADS", raising=False)
    for value in (None, "2", "zap", "0"):
        if value is not None:
            monkeypatch.setenv("HYPERTRANSFER_THREADS", value)
        assert worker_count(0) == worker_count(1) == 1
        assert worker_count(8) == min(cpus, 8)
        assert 1 <= worker_count(64) == min(cpus, 64)


def test_theta_boundaries_closed_forms():
    for r in (0.1, 0.3, 0.5):
        tb = theta_boundaries(r)
        assert tb.theta2 == -math.pi / 6.0
        # theta8 re-enters the narrow window: g_x crosses -2/sqrt(3)
        c8 = iwasawa_image_coords(r, tb.theta8)
        assert abs(c8.g_x + 2.0 / SQRT3) < 1e-10
        # theta7 hits the m_hat = 0 cutoff of the small-g_y regime
        c7 = iwasawa_image_coords(r, tb.theta7)
        assert abs(c7.g_x - boundary_values(c7.g_y).b7) < 1e-10
    tb = theta_boundaries(1e-3)
    assert abs(tb.theta7 - math.pi / 6.0) < 1e-6
    assert abs(tb.theta8 - math.pi / 2.0) < 1e-3
    for r in np.linspace(0.02, 0.56, 28):
        assert theta_boundaries(float(r)).theta7 in case_transition_thetas(float(r))
    # above r = 0.56462 the smaller b7 root lies above g_y = 1/2, where
    # classify_case does not use b7
    for r in (0.58, 0.6):
        with pytest.raises(DomainError, match="g_y"):
            theta_boundaries(r)
    with pytest.raises(DomainError):
        theta_boundaries(0.8)  # no arc where m_hat = 0 (the b7 quadratic has no real root)
    with pytest.raises(DomainError):
        theta_boundaries(-0.2)
    with pytest.raises(DomainError):
        theta_boundaries(1.0)
    # below r = 1e-38 the transition table refuses the radius; theta_boundaries
    # returned angles at 1e-39 and 1e-50 when it solved its own quadratics
    for r in (1e-39, 1e-50):
        with pytest.raises(DomainError, match="supported range"):
            theta_boundaries(r)


def test_theta_boundaries_are_read_off_the_transition_table(monkeypatch):
    # theta2 ends the arc of m_hat = 1, theta7 and theta8 end the arc of
    # m_hat = 0; they are the b2 root -pi/6, the smaller b7 root and the
    # larger b8 root bit for bit, and theta_boundaries solves no quadratic
    def no_solve(*args):
        raise AssertionError("theta_boundaries reads the transition table")

    monkeypatch.setattr(decay, "_tan_roots", no_solve)
    monkeypatch.setattr(decay, "_transition_quadratics", no_solve)
    for r in np.geomspace(1e-38, 0.5646, 120):
        r = float(r)
        quads = regions._transition_quadratics(r)
        tb = theta_boundaries(r)
        assert tb.theta2 == -math.pi / 6.0
        assert tb.theta7 == regions._tan_roots(*quads["b7"])[0], r
        assert tb.theta8 == regions._tan_roots(*quads["b8"])[1], r


def test_case8_second_derivative_factor():
    got = case8_second_derivative_factor(-1.0)
    assert abs(got - (1.0 + 1.0 / math.sqrt(7.0)) / 2.0) < 1e-14
    assert abs(got - 0.68898) < 1e-5
    for gx in np.linspace(-2.0 / SQRT3 + 1e-6, -1e-3, 50):
        f = case8_second_derivative_factor(float(gx))
        assert -3.0 / (5.0 * gx) - 1e-12 <= f <= 4.0 * (SQRT3 - 2.0) / gx + 1e-12
    with pytest.raises(DomainError, match="g_x < 0"):
        case8_second_derivative_factor(0.0)
    with pytest.raises(DomainError, match="g_x < 0"):
        case8_second_derivative_factor(0.5)


def test_probe_onset():
    for r in (0.05, 0.1, 0.3):
        on = divergence_probe_onset(r)
        assert 0.0 < on < theta_boundaries(r).theta8
        assert abs(iwasawa_image_coords(r, on).g_x + 2.0 / SQRT3) < 1e-10
    assert abs(divergence_probe_onset(1e-3) - math.atan(2.0 / SQRT3)) < 1e-9
    with pytest.raises(DomainError):
        divergence_probe_onset(1.0)
    with pytest.raises(DomainError):
        divergence_probe_onset(0.0)


def test_divergence_probe_frozen():
    got = second_order_divergence_probe(0.3, [1e-2, 1e-3, 1e-4, 1e-5])
    want = [0.400371959, 2.531285571, 4.801592751, 7.024408592]
    assert all(abs(a - b) < 1e-6 for a, b in zip(got, want))
    assert all(b > a for a, b in zip(got, got[1:]))
    inc = [b - a for a, b in zip(got, got[1:])]
    assert max(inc) / min(inc) <= 1.2  # log-regime increments


def test_divergence_probe_errors():
    with pytest.raises(DomainError):
        second_order_divergence_probe(0.5, [1e-2])
    with pytest.raises(DomainError):
        second_order_divergence_probe(0.3, [])
    with pytest.raises(DomainError):
        second_order_divergence_probe(0.3, [1e-3, 1e-2])
    with pytest.raises(DomainError):
        second_order_divergence_probe(0.3, [1.0])  # upper limit below onset
    # NaN passes every comparison-based check: [nan] returned [0.0], and
    # [1e-2, nan] the first partial twice
    for eps in ([math.nan], [1e-2, math.nan], [math.inf]):
        with pytest.raises(DomainError, match="finite and positive"):
            second_order_divergence_probe(0.3, eps)


def test_numpy_scalar_radius_gives_the_float_result():
    # a numpy radius reached the scalar closed form as np.float64 coordinates,
    # whose np.bool_ flags counted a doubly active ellipse term once: f1 was
    # 0.010984 against 0.012392
    r = 0.29454545454545455
    for d in (LieDirection.X1, LieDirection.X2):
        assert lie_derivative_mtilde(np.float64(r), d) == lie_derivative_mtilde(r, d)
    assert abs(lie_derivative_mtilde(r, LieDirection.X1) - 0.0123917) < 1e-6


def test_lie_derivative_across_the_untracked_bump():
    # at r = 0.578... the X1 integrand rises from 0 to 8.5e-3 and back between
    # theta = 1.0443925210 (a b6 root: the line's ellipse crossing enters at
    # x = 1/2) and 1.0460827222 (the line, the circle and the ellipse meet
    # in one point); a theta rule with no node in the bump was 2.3e-6 off
    # while the right end was no transition angle. Both ends are transition
    # angles now, and the references are theta quadrature at 1e-13 split at
    # every transition angle
    r = 0.5780934891480582
    ts = case_transition_thetas(r)
    for end in (1.0443925210, 1.0460827222):
        assert min(abs(t - end) for t in ts) < 1e-8
    assert abs(lie_derivative_mtilde(r, LieDirection.X1) - 0.1112841644763) < 1e-10
    assert abs(lie_derivative_mtilde(r, LieDirection.X2) - 0.2539708916902) < 1e-10
