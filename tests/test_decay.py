"""Decay estimates: X1 transport, Lie derivatives of the region symbol
and of m_tilde, the weighted first-order table, transition angles, and the
second-order divergence probe."""

import math
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from hypertransfer import decay, regions
from hypertransfer.decay import (
    DecayRow,
    LieDirection,
    _x1_transport,
    case8_second_derivative_factor,
    divergence_probe_onset,
    hm_table,
    lie_derivative_mtilde,
    lie_derivative_mtt,
    second_order_divergence_probe,
    theta_boundaries,
    worker_count,
)
from hypertransfer.errors import DomainError
from hypertransfer.regions import (
    boundary_values,
    _circle_coords,
    case_transition_thetas,
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


def log_norm_difference(r: float) -> float:
    """Central difference, step 1e-4 in log r, of m_tilde(diag(r, 1/r)): for
    r < 1 the norm is 1/r, so this is -d m_tilde / d log n."""
    return (m_tilde(cartan_a(r * math.exp(1e-4))) - m_tilde(cartan_a(r * math.exp(-1e-4)))) / 2e-4


def test_adjoint_examples():
    # Ad(k_rho) X1 = cos(2 rho) X1 + 2 sin(2 rho) X2 - sin(2 rho) X3
    assert _x1_transport(0.0) == (1.0, 0.0)
    a11, a12 = _x1_transport(math.pi / 4.0)
    assert abs(a11) < 1e-15 and abs(a12 - 2.0) < 1e-15


def test_adjoint_reconstruction():
    # k X1 k^T = a11 X1 + a12 X2 + a13 X3 reads a11 off its (0, 0) entry and
    # a12 off the sum of its off-diagonal ones, where the X3 terms cancel
    rng = np.random.default_rng(17)
    rho = rng.uniform(-2 * math.pi, 2 * math.pi, 100)
    a11, a12 = _x1_transport(rho)
    for th, b11, b12 in zip(rho, a11, a12):
        k = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        m = k @ GENERATORS[LieDirection.X1] @ k.T
        assert abs(b11 - m[0, 0]) < 1e-12 and abs(b12 - (m[0, 1] + m[1, 0])) < 1e-12


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
    assert lie_derivative_mtilde(0.37, LieDirection.X2) == 0.0
    f1 = lie_derivative_mtilde(0.1, LieDirection.X1)
    assert abs(f1) <= 0.12  # the 12 r^2 envelope at r = 0.1
    # radii past 1 are refused: they were answered with f1(1/r), where the X1
    # derivative of m_tilde at diag(r, 1/r), r > 1, is -f1(1/r)
    for r in (4.0, 1.0):
        with pytest.raises(DomainError, match=r"need r in \(0, 1\)"):
            lie_derivative_mtilde(r, LieDirection.X1)
    with pytest.raises(DomainError, match="need r > 0"):
        lie_derivative_mtilde(0.0, LieDirection.X1)


def test_every_direction_refuses_the_same_radii():
    # X2 and X3 answer 0 without integrating, but only for a radius X1 accepts
    for r, message in (
        (-1.0, "need r > 0"),
        (math.nan, "need r > 0"),
        (1.0, r"need r in \(0, 1\), got 1.0"),
        (4.0, r"need r in \(0, 1\), got 4.0"),
        (1e-300, "supported range"),
    ):
        for d in LieDirection:
            with pytest.raises(DomainError, match=message):
                lie_derivative_mtilde(r, d)


def test_f1_is_the_log_norm_derivative_of_m_tilde():
    # f1 is -d m_tilde / d log n, read off two m_tilde calls; the chart
    # average the table reported before read 0.0677 against 0.0991 at r = 0.5
    for r in (0.2, 0.5):
        assert abs(lie_derivative_mtilde(r, LieDirection.X1) - log_norm_difference(r)) < 1e-6, r


def test_interchange_against_finite_difference():
    # the transported integrand is what a finite difference of the average
    # sees; X1 at r = 0.2 frozen after the two routes agreed to 4e-9
    f1 = lie_derivative_mtilde(0.2, LieDirection.X1)
    fd = lie_derivative_mtilde_fd(cartan_a(0.2), LieDirection.X1)
    assert abs(f1 - 0.003912252) < 1e-7
    assert abs(f1 - fd) < 1e-6
    fd2 = lie_derivative_mtilde_fd(cartan_a(0.2), LieDirection.X2)
    assert lie_derivative_mtilde(0.2, LieDirection.X2) == 0.0 and abs(fd2) < 1e-6


def test_hm_table_contract():
    rows = hm_table([0.1, 0.2])
    assert [row.r for row in rows] == [0.1, 0.2]
    for row in rows:
        assert row.weighted == (abs(row.f1) + abs(row.f2)) / row.r
        assert row.f1 == lie_derivative_mtilde(row.r, LieDirection.X1)
        assert row.f2 == lie_derivative_mtilde(row.r, LieDirection.X2) == 0.0
    assert hm_table([]) == []
    with pytest.raises(DomainError):
        hm_table([0.1, 1.2])
    with pytest.raises(DomainError):
        DecayRow(r=1.5, f1=0.0, f2=0.0)


def test_table_rows_and_angles_refuse_the_same_radii(monkeypatch):
    # one check holds r in (0, 1) inside the norm range for the table, its
    # rows, the transition angles and the probe onset
    refusals = (
        (0.0, "need r > 0"),
        (-0.2, "need r > 0"),
        (math.nan, "need r > 0"),
        (1.0, r"need r in \(0, 1\), got 1.0"),
        (1.5, r"need r in \(0, 1\), got 1.5"),
        (4.0, r"need r in \(0, 1\), got 4.0"),
        (math.inf, "supported range"),
        (1e-39, "supported range"),
    )
    for r, message in refusals:
        for refuse in (
            lambda r: hm_table([0.3, r]),
            lambda r: DecayRow(r=r, f1=0.0, f2=0.0),
            theta_boundaries,
            divergence_probe_onset,
        ):
            with pytest.raises(DomainError, match=message):
                refuse(r)

    # the table checks the whole grid before it computes a row
    def no_row(r):
        raise AssertionError("a row ran before the grid was checked")

    monkeypatch.setattr(decay, "_decay_row", no_row)
    with pytest.raises(DomainError, match="got 1.2"):
        hm_table([0.1, 1.2])


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
    # f1 of a row comes from one integration of the transported X1 column,
    # with every segment graded at both ends, the arcs where m_hat is
    # constant left out and no split at a touch: the default table evaluates
    # the closed form at 2 730 points in 25 calls (3 276 with the transported
    # X2 column integrated on shared nodes as well, 3 150 for the chart
    # columns the table reported before)
    sizes = []
    closed_form = decay._closed_form

    def counted(gx, gy):
        sizes.append(np.size(gx))  # on the table's one worker thread
        return closed_form(gx, gy)

    monkeypatch.setattr(decay, "_closed_form", counted)
    hm_table(np.linspace(0.05, 0.5, 10))
    assert sum(sizes) <= 2730


def _tanh_sinh_circle_average(r: float, h: float = 1.0 / 64.0) -> float:
    """f1 at r by a tanh-sinh rule in theta on each arc between the
    transition angles, the touches included, and theta = 0, applied to the
    closed-form partials, X1 transported by the residual rotation in its own
    closed form: no quadrature.integrate, no v-parametrisation, no grading,
    no _x1_transport and no arc left out. The rule's double-exponential
    thinning at both ends of an arc absorbs the log|g_x| terms at theta = 0
    and +-pi/2 and the kinks at the transition angles."""
    t = np.arange(-3.5, 3.5 + 0.5 * h, h)
    u = 0.5 * math.pi * np.sinh(t)
    gap = 1.0 / (np.exp(np.abs(u)) * np.cosh(u))  # 1 - |tanh u|, free of cancellation
    weight = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    ends = [-math.pi / 2.0, *sorted({0.0, *case_transition_thetas(r)}), math.pi / 2.0]
    total = 0.0
    for a, b in zip(ends, ends[1:]):
        half = 0.5 * (b - a)
        theta = np.where(t < 0.0, a + half * gap, b - half * gap)
        gx, gy = regions._circle_coords(r, theta)
        _, dgx, dgy = regions._closed_form(gx, gy)
        # Ad(k_rho) X1 = cos(2 rho) X1 + 2 sin(2 rho) X2 - sin(2 rho) X3
        rho2 = 2.0 * np.arctan2(r * np.sin(theta), np.cos(theta) / r)
        total += half * (weight @ (np.cos(rho2) * 2.0 * gy * dgy + 2.0 * np.sin(rho2) * gy * dgx))
    return total / math.pi


def test_decay_table_matches_a_theta_reference():
    # a second route to f1: the reference moves by at most 1.2e-16 when its
    # step halves or doubles, and the table was at most 9.4e-14 off it (at
    # r = 0.001)
    radii = [0.001, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5780934891480582, 0.6, 0.7, 0.8466]
    for row in hm_table([*radii, 0.9, 0.97, 0.99]):
        ref = _tanh_sinh_circle_average(row.r)
        assert abs(row.f1 - ref) < 1e-9 and row.f2 == 0.0, (row, ref)


def test_no_touch_borders_a_constant_arc():
    # _lie_average splits at no touch, so a segment can span one, and reads
    # whether m_hat is constant on a segment off the arc at its midpoint;
    # that is right for the whole segment only while the arcs on both sides
    # of every touch vary
    touches = 0
    for r in np.geomspace(1e-38, 1e38, 3000):
        thetas = case_transition_thetas(float(r))
        for i, t in enumerate(thetas):
            if t in thetas.touches:
                touches += 1
                assert thetas.constant[i] is None and thetas.constant[i + 1] is None, (r, t)
    assert touches > 1000


def test_worker_count_env():
    # one thread for any number of rows, whatever the CPU count
    for n in (0, 1, 8, 64):
        assert worker_count(n) == 1


def test_table_rows_run_in_grid_order_on_one_worker(monkeypatch):
    # the rows hold the GIL, so they run one after another on one pool thread
    # that is not the caller's
    ran = []
    decay_row = decay._decay_row

    def recorded(r):
        ran.append((r, threading.get_ident()))
        return decay_row(r)

    monkeypatch.setattr(decay, "_decay_row", recorded)
    grid = [0.1, 0.2, 0.3, 0.4]
    assert [row.r for row in hm_table(grid)] == grid
    assert [r for r, _ in ran] == grid
    threads = {t for _, t in ran}
    assert len(threads) == 1 and threading.get_ident() not in threads


def test_theta_boundaries_closed_forms():
    for r in (0.1, 0.3, 0.5):
        tb = theta_boundaries(r)
        assert tb.theta2 == -math.pi / 6.0
        # theta8 re-enters the narrow window: g_x crosses -2/sqrt(3)
        gx8, _ = _circle_coords(r, tb.theta8)
        assert abs(gx8 + 2.0 / SQRT3) < 1e-10
        # theta7 hits the m_hat = 0 cutoff of the small-g_y regime
        gx7, gy7 = _circle_coords(r, tb.theta7)
        assert abs(gx7 - boundary_values(float(gy7)).b7) < 1e-10
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
        assert abs(_circle_coords(r, on)[0] + 2.0 / SQRT3) < 1e-10
    assert abs(divergence_probe_onset(1e-3) - math.atan(2.0 / SQRT3)) < 1e-9
    with pytest.raises(DomainError):
        divergence_probe_onset(1.0)
    with pytest.raises(DomainError):
        divergence_probe_onset(0.0)
    # from r = 0.61 or so g_x no longer reaches -2/sqrt(3) on the circle
    assert divergence_probe_onset(0.6) == 1.1164147085108254
    for r in (0.62, 0.8, 0.99):
        with pytest.raises(DomainError, match="no b8 crossing on the Cartan circle"):
            divergence_probe_onset(r)


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
    # below r = 1e-38 r^4 underflows and the b8 crossing is lost: both
    # reported "no b8 crossing" for a crossing that exists
    with pytest.raises(DomainError, match="supported range"):
        divergence_probe_onset(1e-100)
    with pytest.raises(DomainError, match="supported range"):
        second_order_divergence_probe(1e-100, [1e-2])
    # NaN passes every comparison-based check: [nan] returned [0.0], and
    # [1e-2, nan] the first partial twice
    for eps in ([math.nan], [1e-2, math.nan], [math.inf]):
        with pytest.raises(DomainError, match="finite and positive"):
            second_order_divergence_probe(0.3, eps)


def test_numpy_scalar_radius_gives_the_float_result():
    # a numpy radius reached the scalar closed form as np.float64 coordinates,
    # whose np.bool_ flags counted a doubly active ellipse term once: f1 was
    # 0.010984 against 0.012392 (the chart average the table then reported)
    r = 0.29454545454545455
    for d in (LieDirection.X1, LieDirection.X2):
        assert lie_derivative_mtilde(np.float64(r), d) == lie_derivative_mtilde(r, d)
    assert abs(lie_derivative_mtilde(r, LieDirection.X1) - log_norm_difference(r)) < 1e-6


def test_lie_derivative_across_the_untracked_bump():
    # at r = 0.578... the chart X1 integrand rises from 0 to 8.5e-3 and back
    # (the transported one from 0 to 1.1e-2, ending at 3.2e-3) between
    # theta = 1.0443925210 (a b6 root: the line's ellipse crossing enters at
    # x = 1/2) and 1.0460827222 (the line, the circle and the ellipse meet
    # in one point); a theta rule with no node in the bump was 2.3e-6 off
    # while the right end was no transition angle. Both ends are transition
    # angles now, and the reference is theta quadrature at 1e-13 of the X1
    # column transported by the residual rotation, split at every transition
    # angle
    r = 0.5780934891480582
    ts = case_transition_thetas(r)
    for end in (1.0443925210, 1.0460827222):
        assert min(abs(t - end) for t in ts) < 1e-8
    assert abs(lie_derivative_mtilde(r, LieDirection.X1) - 0.1863713068949) < 1e-10
