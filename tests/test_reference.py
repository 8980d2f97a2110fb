"""The test-side references of tests/reference.py: each one fails its
comparison under a named mutation of the package code it holds, and no test
module defines a reference of its own, imports mpmath or scipy, or keeps an
import it does not use."""

import __future__

import ast
import inspect
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

import reference
from hypertransfer import cli, cocycle, decay, modular, quadrature, regions, sl2, verify
from hypertransfer.cocycle import _sample_xyth, sample_domain
from hypertransfer.errors import ConvergenceError
from hypertransfer.modular import Letter
from hypertransfer.sl2 import ANCoords, HalfPlanePoint, RealMat2, cartan_a

_PACKAGE = (cli, cocycle, decay, modular, quadrature, regions, sl2, verify)


def _source_mutation(module, name: str, old: str, new: str):
    """A mutation that recompiles module.name with the one occurrence of old
    in its source replaced by new, and binds the mutant wherever the package
    binds the original."""

    def mutate(monkeypatch):
        original = getattr(module, name)
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(old) == 1, (name, old)
        code = compile(
            source.replace(old, new),
            f"<mutant of {module.__name__}.{name}>",
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        )
        scope = {}
        exec(code, vars(module), scope)
        for mod in _PACKAGE:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, scope[name])

    return mutate


# comparisons: each holds package code against one reference, on a small
# input, and returns whether the two agree within the bound the main tests
# use


def _first_letters_match_the_words() -> bool:
    want = {"S": Letter.S_PREFIX, "R": Letter.R_PREFIX, "R2": Letter.R_PREFIX}
    return all(
        modular.first_letter(g) is (want[word[0]] if word else Letter.IDENTITY)
        for word, g in reference.reduced_words(6)
    )


def _probe_matches_region_membership() -> bool:
    probe = HalfPlanePoint(0.0, 2.0)
    return all(
        (modular.first_letter(g) is Letter.S_PREFIX)
        == reference.in_region_A(sl2.mobius_act(g.to_real(), probe))
        for _, g in reference.reduced_words(8)[1:]
    )


def _norm_matches_the_svd() -> bool:
    elements = [sl2.rotation(0.4) @ cartan_a(math.exp(10.0**-k)) @ sl2.rotation(-1.1) for k in (6, 9, 12)]
    return all(
        abs(sl2.operator_norm(g) - reference.mp_operator_norm(g)) <= 4.0 * math.ulp(1.0) for g in elements
    )


def _m_hat_matches_membership() -> bool:
    for gx, gy in ((-0.3265, 0.69), (0.2, 0.55), (-0.6, 1.0)):
        c = ANCoords(gx, gy)
        est, se = reference.m_hat_mc(c, 200_000, 17)
        if abs(regions.m_hat_case(c) - est) > 4.0 * se:
            return False
    return True


def _crossings_match_the_companion_roots() -> bool:
    # within 1e-10 of a tangency p(t0) = p'(t0) = 0, where the finder's count
    # of breakpoints must follow np.roots
    for t0 in (0.8, 1.2, 1.45):
        s = (3.0 * t0**4 + 2.0 * t0**2 + 3.0) / (4.0 * t0**2)
        gx = (t0**3 + (1.0 - 2.0 * s) * t0) / 2.0
        for ds in (1e-10, -1e-10, 1e-8, -1e-8):
            gy = math.sqrt(s + ds - gx * gx)
            row = regions._ellipse_circle_abscissas(np.array([gx]), np.array([gy]))[0]
            got = sorted(float(x) for x in row if not math.isnan(x))
            want = reference.companion_crossings(gx, gy)
            if len(got) != len(want) or any(abs(g - w) >= 1e-6 for g, w in zip(got, want)):
                return False
    return True


def _crossings_match_mpmath_in_relative_terms() -> bool:
    # crossings within 1e-5 of x = 0, held to the test's 1e-14 relative
    for gx, gy in ((-1e-8, 1.1e-3), (-1e-4, 1.7e-3), (1.5e-14, 2.3e-3), (-0.3, 0.7)):
        row = regions._ellipse_circle_abscissas(np.array([gx]), np.array([gy]))[0]
        got = sorted(float(x) for x in row if not math.isnan(x))
        want = reference.mp_circle_crossings(gx, gy)
        if len(got) != len(want) or any(abs(g - w) > 1e-14 * abs(w) for g, w in zip(got, want)):
            return False
    return True


def _partials_match_mpmath() -> bool:
    for gx, gy in ((0.2, 0.3), (-0.3265, 0.69), (-0.5, 1.5)):
        got = regions.m_hat_partials(ANCoords(gx, gy))
        if any(abs(g - w) >= 1e-9 for g, w in zip(got, reference.mp_partials(gx, gy))):
            return False
    return True


def _antiderivatives_match_mpmath() -> bool:
    for x, gx, gy, sigma in ((0.1, -0.7, 0.6, -1), (-0.2, 0.3, 0.4, 1), (0.3, -1.2, 1.1, 1)):
        parts, _ = reference.mp_ellipse_antiderivatives(x, gx, gy, sigma)
        xe = math.sqrt(1.0 + gx * gx / (gy * gy)) - 1.0
        log_lo, log_hi, a = regions._ellipse_antiderivative(x, gx, gy, xe)
        got = (log_lo if sigma < 0 else -log_hi, a)
        if any(abs(g - w) >= 1e-12 * max(1.0, abs(w)) for g, w in zip(got, parts)):
            return False
    return True


def _root_split_is_the_minimiser() -> bool:
    least = reference.mp_root_split()
    return abs(regions._ROOT_SPLIT - least) <= math.ulp(least)


def _no_touch_borders_a_constant_arc() -> bool:
    radii = np.geomspace(1e-3, 1e3, 40)
    for r, touches in zip(radii, reference.extent_touch_thetas(radii)):
        thetas = regions.case_transition_thetas(float(r))
        for t in touches:
            if thetas.constant[int(np.searchsorted(thetas, t))] is not None:
                return False
    return True


def _table_matches_the_scan(radii) -> bool:
    radii = [float(x) for r in radii for x in (r, 1.0 / r)]
    for r, (angles, constant) in zip(radii, reference.keep_rule_scan(radii)):
        thetas = regions.case_transition_thetas(r)
        if [t.hex() for t in thetas] != [t.hex() for t in angles] or thetas.constant != constant:
            return False
    return True


def _table_matches_the_scan_inside_each_row() -> bool:
    # a norm in the middle of each c-interval of the table
    events = [2.0, *reference.transition_events(), 25.0]
    return _table_matches_the_scan([reference.radius_at(0.5 * (a + b)) for a, b in zip(events, events[1:])])


def _events_match_the_closed_forms() -> bool:
    return all(abs(a - b) <= math.ulp(b) for a, b in zip(regions._EVENTS, reference.transition_events()))


def _xlo_matches_mpmath() -> bool:
    for r in np.geomspace(1e-38, 1e-15, 60):
        try:
            got = regions._meeting_thetas(float(r))["Xlo"]
        except ConvergenceError:
            return False
        if abs(got / reference.mp_xlo_angle(float(r)) - 1.0) > 1e-12:
            return False
    return True


def _transition_angles_lie_on_the_curves() -> bool:
    for r in (0.05, 0.1, 0.3, 10.0):
        for t in regions.case_transition_thetas(r):
            # a zero up to the change that one ulp of theta makes
            u = math.ulp(t)
            points = [regions._circle_coords(r, t + d)[:2] for d in (0.0, -u, u)]
            vals = zip(*(reference.transition_residuals(float(gx), float(gy)) for gx, gy in points))
            if not any(abs(f) < 1e-12 + abs(fp - fm) for f, fm, fp in vals):
                return False
    return True


def _codes(shadow, g, n=4096):
    x, y, theta = _sample_xyth(5, n)
    return modular._two_round_codes(*shadow(x, y, theta, g))[0]


def _shadow_codes_match_the_matrix_shadow() -> bool:
    elements = (cartan_a(0.2), reference.closed_form_rotated(1e3, 1.6, 5.2))
    package = lambda x, y, theta, g: cocycle._shadow_batch(x, y, np.tan(theta), g)  # noqa: E731
    return all(
        np.array_equal(_codes(package, g), _codes(reference.matrix_shadow, g)) for g in elements
    )


def _pole_shadow_matches_mpmath() -> bool:
    s = 2.0**125
    g = RealMat2(s, 0.0, s, 1.0 / s)
    tau = np.array([-1.0 / sl2.halfplane_image(g).x] * 2)
    x, y = np.array([0.0, 0.3]), np.array([1.0, 2.5])
    zx, zy = cocycle._shadow_batch(x, y, tau, g)
    ref_x, ref_y = reference.mp_shadow(x, y, tau, g)
    return bool(np.all(np.abs(zx - ref_x) <= 1e-15 * np.abs(zx)) and np.all(np.abs(zy - ref_y) <= 1e-15 * zy))


def _two_round_codes_match_mpmath() -> bool:
    g = cartan_a(1e20)
    x, y, theta = _sample_xyth(5, 300)
    code, _ = modular._two_round_codes(*cocycle._shadow_batch(x, y, np.tan(theta), g))
    return np.array_equal(code, reference.mp_two_round_codes(x, y, theta, g))


def _beta_matches_mpmath() -> bool:
    g = reference.closed_form_rotated(0.999 * 3e5, 0.9, 2.1)
    return all(cocycle.cocycle_beta(p, g).beta == reference.mp_beta(p, g) for p in sample_domain(50, 40))


def _moved_matches_mpmath() -> bool:
    g = reference.closed_form_rotated(2.9e5, 0.7, 1.9)
    for p in sample_domain(60, 40):
        moved = cocycle.cocycle_beta(p, g).moved
        got = (moved.x, moved.y, moved.k0_angle)
        if any(abs(a - b) > math.ulp(b) for a, b in zip(got, reference.mp_moved(p, g))):
            return False
    return True


def _reduction_matches_fractions() -> bool:
    # points on the unit arc with 0 < Re z < 1/2, where the edge clause
    # decides, and a low one that takes many rounds
    points = [(math.cos(phi), math.sin(phi)) for phi in np.linspace(1.1, 1.5, 9)]
    points.append((0.3, 1e-7))
    for x, y in points:
        red = modular.reduce_to_fundamental_domain(HalfPlanePoint(x, y))
        if (red.gamma, red.z0.x, red.z0.y) != reference.fraction_reduce(x, y):
            return False
    return True


def _rotation_matches_the_exponential() -> bool:
    got = np.array(sl2.rotation(-0.3).entries()).reshape(2, 2)
    return np.max(np.abs(reference.lie_exponential("X3", 0.3) - got)) < 1e-12


def _f1_matches_the_lie_difference() -> bool:
    fd = reference.lie_derivative_mtilde_fd(cartan_a(0.2), "X1")
    return abs(decay.lie_derivative_mtilde(0.2) - fd) < 1e-6


def _f1_matches_the_log_norm_difference() -> bool:
    return abs(decay.lie_derivative_mtilde(0.2) - reference.log_norm_difference(0.2)) < 1e-6


def _f1_matches_tanh_sinh() -> bool:
    (touches,) = reference.extent_touch_thetas([0.3])
    return abs(decay.lie_derivative_mtilde(0.3) - reference.tanh_sinh_circle_average(0.3, touches)) < 1e-9


def _set_root_split(monkeypatch):
    monkeypatch.setattr(regions, "_ROOT_SPLIT", 0.3900)


def _set_table_row(index: int, kept: str, zero_after: str):
    def mutate(monkeypatch):
        table = list(regions._TRANSITION_TABLE)
        table[index] = (kept, zero_after)
        monkeypatch.setattr(regions, "_TRANSITION_TABLE", tuple(table))

    return mutate


def _scale_event(index: int, factor: float):
    def mutate(monkeypatch):
        events = list(regions._EVENTS)
        events[index] *= factor
        monkeypatch.setattr(regions, "_EVENTS", tuple(events))

    return mutate


# row -> (mutation of the package code the reference holds, comparison); a
# row is named after its reference, with "/" and the mutant's name where the
# reference has more than one
MUTATIONS = {
    "reduced_words": (
        # +-T^n taken for the identity
        _source_mutation(modular, "first_letter", "gamma.b == 0 and gamma.c == 0", "gamma.c == 0"),
        _first_letters_match_the_words,
    ),
    "in_region_A": (
        # the probe's strip read as Re >= -1, not Re >= -1/2
        _source_mutation(modular, "_probe_in_region_A", "2 * n + dd >= 0", "n + dd >= 0"),
        _probe_matches_region_membership,
    ),
    "mp_operator_norm": (
        # the norm from the trace of g^T g and det = 1, which cancels near 1
        _source_mutation(
            sl2,
            "operator_norm",
            "return 0.5 * math.hypot(g.a + g.d, g.b - g.c) + 0.5 * math.hypot(g.a - g.d, g.b + g.c)",
            "s = g.a * g.a + g.b * g.b + g.c * g.c + g.d * g.d\n"
            "    return math.sqrt(0.5 * (s + math.sqrt(max(s * s - 4.0, 0.0))))",
        ),
        _norm_matches_the_svd,
    ),
    "m_hat_mc": (
        # the line cut ignored: the section starts at the circle wherever
        # the circle is above the axis
        _source_mutation(
            regions, "_section_cuts", "valid = (0.0 < ymin) & (ymin < top)", "valid = 0.0 < ymin"
        ),
        _m_hat_matches_membership,
    ),
    "companion_crossings": (
        # a complex pair up to 1e-3 off the real axis taken as a crossing
        _source_mutation(
            regions, "_ellipse_circle_abscissas", "spare = (-4e-12 <= disc)", "spare = (-4e-6 <= disc)"
        ),
        _crossings_match_the_companion_roots,
    ),
    "mp_circle_crossings/newton": (
        # the finishing Newton step on the quartic in u dropped
        _source_mutation(
            regions, "_ellipse_circle_abscissas", "us = np.where(better, newton, us)", "us = us"
        ),
        _crossings_match_mpmath_in_relative_terms,
    ),
    "mp_circle_crossings/small_m": (
        # the resolvent root taken as z - b/3 also where it cancels
        _source_mutation(
            regions,
            "_ellipse_circle_abscissas",
            "m = np.where(small < 1e-8, small, np.maximum(z - b / 3.0, 0.0))",
            "m = np.maximum(z - b / 3.0, 0.0)",
        ),
        _crossings_match_mpmath_in_relative_terms,
    ),
    "mp_partials": (
        # the sign of the ellipse-root logarithms
        _source_mutation(
            regions,
            "_ellipse_antiderivative",
            "return np.log(lo), np.log(hi),",
            "return -np.log(lo), -np.log(hi),",
        ),
        _partials_match_mpmath,
    ),
    "mp_ellipse_antiderivatives": (
        # acos for asin in the d/dg_y antiderivative
        _source_mutation(regions, "_ellipse_antiderivative", "np.arctan2(u, r)", "np.arctan2(r, u)"),
        _antiderivatives_match_mpmath,
    ),
    "mp_root_split": (
        # the split rounded to four digits
        _set_root_split,
        _root_split_is_the_minimiser,
    ),
    "extent_touch_thetas": (
        # past c = 10/3 the arc after b3.0 taken for m_hat = 0 too: it holds
        # the touch below Xlo
        _set_table_row(6, "b2.0 b3.0 Xlo b5.0 b6.0 b7.0 b8.1", "b3.0 b7.0"),
        _no_touch_borders_a_constant_arc,
    ),
    "keep_rule_scan": (
        # b5.1 kept past 4 sqrt(15)/5, where it meets b7.1
        _set_table_row(5, "b2.0 b3.0 T Xlo b5.0 b5.1 b6.0 b6.1 b7.0 b7.1 b8.0 b8.1", "b7.0 b8.0"),
        _table_matches_the_scan_inside_each_row,
    ),
    "transition_events": (
        # the event where Xhi leaves moved up by 1%
        _scale_event(3, 1.01),
        _events_match_the_closed_forms,
    ),
    "mp_xlo_angle": (
        # the root search's step budget cut to 100, which the walk back down
        # to a small root overruns
        lambda monkeypatch: monkeypatch.setattr(regions, "_ROOT_STEPS", 100),
        _xlo_matches_mpmath,
    ),
    "transition_residuals": (
        # the meeting angle's cos 2 theta read with +rho^2 for -rho^2
        _source_mutation(
            regions,
            "_meeting_thetas",
            "2.0 * rho * inv_gy - 1.0 - rho * rho",
            "2.0 * rho * inv_gy - 1.0 + rho * rho",
        ),
        _transition_angles_lie_on_the_curves,
    ),
    "matrix_shadow": (
        # the sign of the v q term of Re k0(g(i))
        _source_mutation(
            cocycle, "_shadow_batch", "((u - tau) * p + v * q) / den", "((u - tau) * p - v * q) / den"
        ),
        _shadow_codes_match_the_matrix_shadow,
    ),
    "mp_shadow": (
        # Im (1 + tau z) read off Re z
        _source_mutation(cocycle, "_shadow_batch", "q = tau * v", "q = tau * u"),
        _pole_shadow_matches_mpmath,
    ),
    "mp_two_round_codes": (
        # sgn n2 read off 2x >= rr, the side of z, not of -1/z
        _source_mutation(modular, "_two_round_codes", "(-2.0 * x[inv] >= rr[inv])", "(2.0 * x[inv] >= rr[inv])"),
        _two_round_codes_match_mpmath,
    ),
    "mp_beta": (
        # h formed as k0 s0 g: the integer factors multiplied out of order
        _source_mutation(cocycle, "cocycle_beta", "_product(_product(s0, k0), gm)", "_product(_product(k0, s0), gm)"),
        _beta_matches_mpmath,
    ),
    "mp_moved": (
        # the moved point of the float product h, reduced from its rounded
        # image of i, as before the reduction ran on integers
        _source_mutation(
            cocycle,
            "cocycle_beta",
            "return CocycleResult(gamma, DomainPoint(z0.x, z0.y, theta))",
            "h = an_matrix(ANCoords(p.x, p.y)) @ rotation(p.k0_angle) @ g\n"
            "    z0 = reduce_to_fundamental_domain(halfplane_image(h)).z0\n"
            "    return CocycleResult(gamma, DomainPoint(z0.x, z0.y, theta))",
        ),
        _moved_matches_mpmath,
    ),
    "fraction_reduce": (
        # the edge clause dropped: points within _CIRCLE_TOL of the unit arc
        # at Re z > 0 are kept, not inverted
        _source_mutation(
            modular,
            "_lattice_reduce",
            "top >= den * (_TOL_DEN + _TOL_NUM) or (top >= den * (_TOL_DEN - _TOL_NUM) and num <= 0)",
            "top >= den * (_TOL_DEN - _TOL_NUM)",
        ),
        _reduction_matches_fractions,
    ),
    "lie_exponential": (
        # the rotation turned the other way
        _source_mutation(sl2, "rotation", "RealMat2(c, -s, s, c)", "RealMat2(c, s, -s, c)"),
        _rotation_matches_the_exponential,
    ),
    "lie_derivative_mtilde_fd": (
        # the circle average over 2 pi, not over the half circle's pi
        _source_mutation(decay, "_lie_average", "float(val) / math.pi", "float(val) / (2.0 * math.pi)"),
        _f1_matches_the_lie_difference,
    ),
    "log_norm_difference": (
        # the g_x term of d m_hat / d log r with the wrong sign
        _source_mutation(decay, "_lie_average", "(gx_r * dgx + gy_r * dgy)", "(-gx_r * dgx + gy_r * dgy)"),
        _f1_matches_the_log_norm_difference,
    ),
    "tanh_sinh_circle_average": (
        # the Jacobian d theta / d v of the v-parametrisation dropped
        _source_mutation(decay, "_lie_average", "* (jac * dv)", "* dv"),
        _f1_matches_tanh_sinh,
    ),
}

# references with no mutation: a sampling helper, two input constructors, and
# a check of formulas that holds no package code. The law constants SLOPE, A
# and B take their 1% perturbation in tests/test_range.py
NO_MUTATION = {"random_domain_point", "closed_form_rotated", "radius_at", "mp_circle_and_line_residual"}


def _reference_names(public_only: bool = False) -> set:
    return {
        name
        for name, value in vars(reference).items()
        if inspect.isfunction(value)
        and value.__module__ == reference.__name__
        and not (public_only and name.startswith("_"))
    }


def test_every_public_reference_has_a_mutation_or_a_reason():
    mutated = {row.split("/")[0] for row in MUTATIONS}
    assert mutated | NO_MUTATION == _reference_names(public_only=True)
    assert not mutated & NO_MUTATION


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_reference_fails_under_its_mutation(monkeypatch, name):
    # the comparison holds on the package as it is, and fails once the code
    # the reference holds is mutated; the transition table's cache is
    # emptied around the mutant, so no angle outlives the code it came from
    mutate, agrees = MUTATIONS[name]
    table = regions.case_transition_thetas
    try:
        table.cache_clear()
        assert agrees(), name
        mutate(monkeypatch)
        table.cache_clear()
        assert not agrees(), name
    finally:
        table.cache_clear()


def _violations(source: str, references: set) -> list:
    """The lines of a test module's source that import mpmath or scipy,
    import a name the module never reads, or define a function with the name
    of a reference."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            modules, bound = [], []
        if any(m.split(".")[0] in ("mpmath", "scipy") for m in modules):
            out.append((node.lineno, "imports " + ", ".join(modules)))
        out.extend((node.lineno, f"never reads {name}") for name in bound if name not in read)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in references:
            out.append((node.lineno, f"defines {node.name}"))
    return out


def test_only_the_reference_module_holds_references():
    references = _reference_names()
    # the scan sees each kind of violation
    planted = (
        "import re\nimport scipy.linalg\nfrom mpmath import mp\nfrom math import pi as half_turn\n\n"
        "def f():\n    def mp_beta(p, g):\n        return re, scipy.linalg.expm(mp)\n"
    )
    assert _violations(planted, references) == [
        (2, "imports scipy.linalg"),
        (3, "imports mpmath"),
        (4, "never reads half_turn"),
        (7, "defines mp_beta"),
    ]
    modules = sorted(Path(__file__).parent.glob("test_*.py"))
    assert len(modules) >= 12
    for path in modules:
        assert _violations(path.read_text(), references) == [], path.name
