"""Symmetric-difference volumes, Fraenkel asymmetry, weighted asymmetry."""

import csv
import dataclasses
import inspect
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from scipy.optimize import brentq, minimize

import isocap.asymmetry
from isocap.asymmetry import (_crossing_radii, _nelder_mead, alpha, alpha_R, annulus_lower_bound,
                              fraenkel, symdiff_volume)
from isocap.capacity import counter_uniform
from isocap.domains import (CompositeDomain, FamilySpec, StarDomain, ball, barycenter,
                            ellipsoid, family_member, generate_family,
                            nearly_spherical_from_phi, radial_bounds, volume)
from isocap.errors import ConfigError, GeometryError, SolverError
from isocap.sphere import ball_volume, build_quadrature
from isocap.stability import project_barycenter

OMEGA = ball_volume()


# ---------------------------------------------------------------------------
# symmetric difference volumes
# ---------------------------------------------------------------------------


def test_symdiff_ball_exact_zero():
    assert symdiff_volume(ball(1.0), (0, 0, 0), 1.0) == 0.0


def test_symdiff_two_unit_balls_closed_form():
    # centers distance 1 apart: lens volume 5 pi / 12, symdiff 11 pi / 6
    v = symdiff_volume(ball(1.0), (1.0, 0.0, 0.0), 1.0)
    assert v == pytest.approx(11.0 * math.pi / 6.0, rel=1e-14)


def test_symdiff_disjoint_and_nested_balls():
    far = symdiff_volume(ball(1.0), (5.0, 0.0, 0.0), 1.0)
    assert far == pytest.approx(2.0 * OMEGA, rel=1e-14)
    nested = symdiff_volume(ball(1.0), (0.0, 0.0, 0.0), 0.5)
    assert nested == pytest.approx(OMEGA - ball_volume(0.5), rel=1e-14)


def test_symdiff_general_path_matches_lens():
    # a barely-nonspherical domain exercises the ray-quadrature path,
    # which carries a kink-limited error at the 1e-4 scale
    dom = ellipsoid(1e-9)
    assert not dom.is_ball()
    exact = 11.0 * math.pi / 6.0
    v = symdiff_volume(dom, (1.0, 0.0, 0.0), 1.0)
    assert v == pytest.approx(exact, abs=2e-3)


def test_symdiff_offset_domain():
    # |B_1(c) symdiff B_1(c)| = 0 measured through the domain offset
    dom = ball(1.0, center=(0.4, -0.3, 0.2))
    assert symdiff_volume(dom, (0.4, -0.3, 0.2), 1.0) < 1e-14


# ---------------------------------------------------------------------------
# Fraenkel asymmetry
# ---------------------------------------------------------------------------


def test_fraenkel_ball_zero():
    res = fraenkel(ball(1.0))
    assert res.value == 0.0
    npt.assert_allclose(res.minimizing_center, 0.0, atol=1e-9)
    assert res.evaluations > 0


def test_fraenkel_recovers_offset_center():
    c = (0.3, -0.2, 0.1)
    res = fraenkel(ball(1.0, center=c))
    assert res.value <= 1e-12
    npt.assert_allclose(res.minimizing_center, c, atol=1e-6)


def test_fraenkel_ellipsoid_value():
    res = fraenkel(ellipsoid(0.2))
    # symdiff at the origin in closed spirit: the optimizer may shave a
    # whisker off the centered value but no more than the ray ripple
    at_origin = symdiff_volume(ellipsoid(0.2), np.zeros(3), 1.0) / OMEGA
    assert res.value <= at_origin + 1e-12
    assert res.value == pytest.approx(at_origin, abs=5e-4)
    assert res.value == pytest.approx(0.4142, abs=1e-3)


def test_fraenkel_translation_invariance():
    fam = generate_family(FamilySpec("random_star", 1, amplitude=0.12, seed=3))
    dom = fam[0][2]
    base = fraenkel(dom)
    moved = fraenkel(dataclasses.replace(dom, center_offset=(0.25, -0.15, 0.35)))
    assert moved.value == pytest.approx(base.value, abs=1e-8)
    npt.assert_allclose(moved.minimizing_center - base.minimizing_center,
                        [0.25, -0.15, 0.35], atol=1e-4)


def test_fraenkel_requires_unit_volume():
    with pytest.raises(GeometryError):
        fraenkel(ball(1.3))


def _symdiff_general(dom, p, center, radius):
    """symdiff_volume's general ray formula for every center, on the
    degree-128 ray rule; p holds the domain's radii at its nodes."""
    quad = build_quadrature(128)
    c = np.asarray(center, dtype=float) - dom.center_offset
    c2 = float(c @ c)
    dots = quad.nodes @ c
    disc = dots**2 - c2 + radius * radius
    s = np.sqrt(np.maximum(disc, 0.0))
    b0 = np.where(disc <= 0.0, 0.0, np.maximum(dots - s, 0.0))
    b1 = np.where(disc <= 0.0, 0.0, np.maximum(dots + s, 0.0))
    ia = p * p * p
    ib = b1 * b1 * b1 - b0 * b0 * b0
    lo, hi = np.minimum(b0, p), np.minimum(b1, p)
    iab = hi * hi * hi - lo * lo * lo
    return float(quad.weights @ (ia + ib - 2.0 * iab)) / 3.0


def _ray_path_stars():
    stars = [dom for _, _, dom, _ in
             generate_family(FamilySpec("random_star", 4, amplitude=0.45, seed=17,
                                        max_degree=8))]
    shifted = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=18))[0][2]
    return stars + [dataclasses.replace(shifted, center_offset=np.array([0.3, -0.2, 0.25]))]


@pytest.mark.parametrize("member", range(5))
def test_symdiff_fast_ray_path_matches_general_formula_bit_for_bit(member, monkeypatch):
    # 200 ball centers c (relative to the domain's center) with 4|c|^2 <= r^2,
    # which take the fast path, and 200 with 4|c|^2 > r^2, which take the
    # general one, each side reaching to within 1e-12 of the boundary, and
    # one exactly on it; then the origin at r = 1, the relative-mode
    # denominator.  Of the general ones, a ball beyond the certified
    # enclosing sphere, |c| >= rho_hi + r, takes the exact disjoint route
    # instead and makes no ray call
    dom = _ray_path_stars()[member]
    assert not dom.is_ball() and dom.quad.degree < 128
    rng = np.random.default_rng([29, member])
    dirs = rng.normal(size=(400, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = rng.uniform(0.6, 1.4, size=400)
    frac = np.concatenate([rng.uniform(0.0, 1.0, 196), [0.0, 1.0 - 1e-12, 1.0, 1.0 - 1e-9],
                           rng.uniform(1.0, 5.0, 196), [1.0 + 1e-12, 1.0 + 1e-9, 2.0, 5.0]])
    centers = dom.center_offset + dirs * (frac * radii / 2.0)[:, None]
    centers[198] = dom.center_offset + [radii[198] / 2.0, 0.0, 0.0]
    calls = [0]
    general = isocap.asymmetry._ball_interval

    def counted(*args):
        calls[0] += 1
        return general(*args)

    monkeypatch.setattr(isocap.asymmetry, "_ball_interval", counted)
    p = dom.radial(build_quadrature(128).nodes)
    rho_hi = radial_bounds(dom)[1]
    fast = disjoint = 0
    for center, r in zip(centers, radii):
        c = center - dom.center_offset
        inside = 4.0 * float(c @ c) <= r * r
        far = float(c @ c) >= (rho_hi + r) ** 2
        fast += inside
        disjoint += far
        before = calls[0]
        want = volume(dom) + ball_volume(r) if far else _symdiff_general(dom, p, center, r)
        assert symdiff_volume(dom, center, r) == want
        assert calls[0] == before + (not inside and not far)
    assert fast == 200 and 0 < disjoint < 100
    assert symdiff_volume(dom, np.zeros(3), 1.0) == _symdiff_general(dom, p, np.zeros(3), 1.0)


def test_ray_cache_belongs_to_its_domain():
    # A sweep builds each member's domains, uses them and drops them, so a
    # new domain often takes the memory, and the id, of one just freed
    # (CPython can reuse the freed object's slot).  Members 0 and 1 are built,
    # used and discarded in turn; each must give what it gives on its own.
    stars = [dom for _, _, dom, _ in
             generate_family(FamilySpec("random_star", 2, amplitude=0.3, seed=7))]

    def build(k):
        return dataclasses.replace(stars[k])

    center = np.array([0.05, -0.02, 0.03])
    alone = [symdiff_volume(dom, center, 1.0) for dom in stars]
    assert alone[0] != alone[1]
    for i in range(24):
        dom = build(i % 2)
        assert dom._rays is None
        assert symdiff_volume(dom, center, 1.0) == alone[i % 2]
        del dom
    # Fraenkel on member 1 built on its own, then on member 1 built right
    # after member 0 was built, used and discarded, with its ray cache
    # cold and then warm
    ref = fraenkel(stars[1])
    first = build(0)
    fraenkel(first)
    del first
    second = build(1)
    for res in (fraenkel(second), fraenkel(second)):
        assert res.value == ref.value
        assert np.array_equal(res.minimizing_center, ref.minimizing_center)
        assert res.evaluations == ref.evaluations
    # a copy with a new center starts with an empty cache of its own
    assert second._rays is not None
    assert dataclasses.replace(second, center_offset=(0.1, 0.0, 0.0))._rays is None


# ---------------------------------------------------------------------------
# the simplex minimiser against SciPy's Nelder-Mead
# ---------------------------------------------------------------------------


def _same_as_scipy(f, x0, maxfev):
    """Run `_nelder_mead` and SciPy's Nelder-Mead on f from x0, assert
    that they evaluate the same points in the same order and return the
    same bits and count, and return SciPy's result."""
    ours, theirs = [], []

    def logged(log):
        def g(x):
            log.append([float(v) for v in x])
            return f(x)
        return g

    x, val, nfev = _nelder_mead(logged(ours), x0, maxfev)
    res = minimize(logged(theirs), np.asarray(x0, dtype=float), method="Nelder-Mead",
                   options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-10})
    assert np.array(ours).tobytes() == np.array(theirs).tobytes()
    assert np.array(x).tobytes() == res.x.tobytes()
    assert val.hex() == float(res.fun).hex()
    assert nfev == res.nfev
    return res


def _checked_fraenkel(domain, monkeypatch):
    """fraenkel(domain) with every start checked against SciPy; returns
    the result and the evaluation count of each start."""
    counts = []

    def checked(f, x0, maxfev):
        counts.append(_same_as_scipy(f, x0, maxfev).nfev)
        return _nelder_mead(f, x0, maxfev)

    monkeypatch.setattr(isocap.asymmetry, "_nelder_mead", checked)
    return fraenkel(domain), counts


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("member", [0, 1, 2])
def test_fraenkel_starts_match_scipy(seed, member, monkeypatch):
    # a projected (abs-mode) member and the unprojected member that
    # rel mode measures, as `run_sweep` builds them
    _, _, dom, phi = family_member(FamilySpec("random_star", 3, amplitude=0.3, seed=seed),
                                   member)
    projected = project_barycenter(phi)[1]
    res, counts = _checked_fraenkel(projected, monkeypatch)
    # the barycenter start is degenerate (see `fraenkel`): 4 evaluations
    assert counts == [4, 100, 100, 100, 100]
    assert res.evaluations == 404
    _, counts = _checked_fraenkel(dom, monkeypatch)
    assert counts == [100] * 5


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_fraenkel_ellipsoid_starts_match_scipy(eps, monkeypatch):
    _, counts = _checked_fraenkel(ellipsoid(eps), monkeypatch)
    assert len(counts) == 5


def test_fraenkel_truncation_composite_matches_scipy(monkeypatch):
    # the default truncation experiment: one start, the whole budget
    f = 0.01
    comp = CompositeDomain([ball((1 - f) ** (1 / 3)),
                            ball(f ** (1 / 3), center=(10.0, 0.0, 0.0))])
    _, counts = _checked_fraenkel(comp, monkeypatch)
    assert len(counts) == 1 and counts[0] <= 500


def _executed_lines(functions, run):
    """Line numbers of functions (and the functions nested in them) that
    run() executes, with those that carry code at all."""
    codes, lines = set(), set()

    def collect(code):
        codes.add(code)
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if inspect.iscode(const):
                collect(const)

    for fn in functions:
        collect(fn.__code__)
        lines.discard(fn.__code__.co_firstlineno)
    hit = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code in codes else None

    sys.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return hit, lines


def test_nelder_mead_matches_scipy_on_every_branch():
    # smooth: expansion, both contractions, and the xatol/fatol stop long
    # before the budget; x0 has a zero coordinate
    def quadratic(x):
        return (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.1) ** 2 + 3.0 * (x[2] - 0.7) ** 2

    # piecewise constant: exact ties among the four values and shrinks
    def steps(x):
        return float(math.floor(8.0 * math.hypot(x[0] - 0.3, x[1] + 0.2, x[2])))

    # the four initial values tie in pairs, (1, 1, 0, 0), where np.argsort
    # need not be stable, so the tie order decides the whole path
    def paired(x):
        return 0.0 if x[1] + 1000.0 * x[2] > 1.0 else 1.0

    stale = []

    def run():
        res = _same_as_scipy(quadratic, (1.0, 0.0, -2.0), 2000)
        assert res.nfev < 2000
        # every budget from 1, so that one runs out in the initial
        # simplex, and some inside a shrink, where SciPy returns a
        # vertex it moved but never evaluated
        for maxfev in range(1, 40):
            seen = []
            res = _same_as_scipy(lambda x: seen.append(list(x)) or steps(x),
                                 (1.0, 0.0, -1.0), maxfev)
            stale.append(any(list(v) not in seen for v in res.final_simplex[0]))
            _same_as_scipy(paired, (1.0, 1.0, 0.0), maxfev)

    hit, lines = _executed_lines([_nelder_mead], run)
    assert lines - hit == set()
    assert any(stale)


# ---------------------------------------------------------------------------
# weighted asymmetry and the annulus bound
# ---------------------------------------------------------------------------


def test_alpha_ball_zero():
    assert alpha(ball(1.0)) == 0.0
    assert alpha_R(ball(1.0)) == 0.0


def test_alpha_barycentric_invariance():
    # a translated unit ball has zero barycentric weighted asymmetry but a
    # positive origin-centered one
    dom = ball(1.0, center=(0.3, 0.0, 0.0))
    assert abs(alpha(dom)) < 1e-10
    assert alpha_R(dom) > 1e-3


def test_alpha_R_scaled_ball_closed_form():
    # int_1^r (s-1) s^2 ds * 4 pi
    r = 1.2
    expected = 4.0 * math.pi * ((r**4 - 1) / 4.0 - (r**3 - 1) / 3.0)
    assert alpha_R(ball(r)) == pytest.approx(expected, rel=1e-13)


def test_alpha_R_outer_radius_gate():
    assert alpha_R(ellipsoid(0.2), 2.0) == alpha_R(ellipsoid(0.2))
    with pytest.raises(GeometryError):
        alpha_R(ellipsoid(0.2), 1.1)


@pytest.mark.parametrize("R", [0.9, 1.0])
def test_alpha_R_refuses_an_outer_radius_not_above_one(R):
    # the one ConfigError of every entry point that takes an outer radius
    with pytest.raises(ConfigError, match="must exceed 1"):
        alpha_R(ball(0.5), R)


def test_annulus_bound_closed_form():
    # delta = 1/2 annulus: volume omega*(1.5^3 - 0.5^3), weighted integral
    # 4 pi * (int_0.5^1 (1-s)s^2 + int_1^1.5 (s-1)s^2) = 4 pi * 0.28125
    v = OMEGA * (1.5**3 - 0.5**3)
    assert annulus_lower_bound(v) == pytest.approx(4.0 * math.pi * 0.28125,
                                                   rel=1e-12)


def test_annulus_bound_small_volume_constant():
    # behaves like v^2 / (4 sigma) = v^2 / (16 pi) for small v
    for v in (1e-3, 1e-4):
        assert annulus_lower_bound(v) / v**2 == pytest.approx(
            1.0 / (16.0 * math.pi), rel=1e-3)
    assert annulus_lower_bound(0.0) == 0.0
    with pytest.raises(ValueError):
        annulus_lower_bound(-1.0)


def _annulus_reference(v):
    """The annulus bound to 50 digits: delta by mpmath's root finder on
    the measure equation, the integral by its exact antiderivatives."""
    with mpmath.workdps(50):
        k = mpmath.mpf(v) / (4 * mpmath.pi / 3)
        delta = mpmath.findroot(lambda d: (1 + d) ** 3 - max(1 - d, 0) ** 3 - k,
                                (0, mpmath.cbrt(k + 1)), solver="anderson")
        lo = max(1 - delta, 0)
        shell = ((1 - lo) ** 2 / 2 - 2 * (1 - lo) ** 3 / 3 + (1 - lo) ** 4 / 4
                 + delta ** 2 / 2 + 2 * delta ** 3 / 3 + delta ** 4 / 4)
        return 4 * mpmath.pi * shell


def test_annulus_bound_matches_mpmath():
    branch = 8.0 * OMEGA  # the inner radius reaches 0
    volumes = list(np.logspace(-9, 2, 34)) + [
        1e-6, 1e-3, branch, math.nextafter(branch, 0.0), math.nextafter(branch, 99.0)]
    for v in volumes:
        want = _annulus_reference(v)
        got = annulus_lower_bound(float(v))
        assert abs(got - want) <= 1e-14 * want, v


def test_alpha_R_dominates_annulus_bound():
    for eps in (0.05, 0.15, 0.3):
        dom = ellipsoid(eps)
        v = symdiff_volume(dom, np.zeros(3), 1.0)
        assert alpha_R(dom) >= annulus_lower_bound(v) - 1e-10


# ---------------------------------------------------------------------------
# ray crossings: the batched solve against closed forms and a scalar oracle
# ---------------------------------------------------------------------------

POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def _certified_limit(dom, sampled=True):
    """Largest |origin - center| the single-crossing certificate admits."""
    lo, _, grad = radial_bounds(dom, sampled)
    return lo * lo / math.hypot(lo, grad) if lo > 0.0 else 0.0


def _scalar_g(dom, a):
    def g(s, w):
        x = a + s * w
        r = np.linalg.norm(x)
        return r - float(dom.radial((x / r)[None, :])[0])
    return g


def _crossing_radii_reference(dom, origin, dirs):
    """One scalar brentq per ray, as tight as brentq goes."""
    a = np.asarray(origin) - dom.center_offset
    lo, hi, _ = radial_bounds(dom, sampled=True)
    na = float(np.linalg.norm(a))
    g = _scalar_g(dom, a)
    return np.array([brentq(g, lo - na - 1e-9, hi + na + 1e-9, args=(w,),
                            xtol=1e-300, rtol=4 * np.finfo(float).eps) for w in dirs])


def _undecided_width(g, root, w, ulps=64):
    """Width of the band around root in which the computed g has no steady sign.

    Over the floats within `ulps` of root: from the lowest with g >= 0 to
    the highest with g <= 0.  Any bracketing solve of the computed g may
    land anywhere in it.
    """
    t = root + np.arange(-ulps, ulps + 1) * np.spacing(root)
    vals = np.array([g(x, w) for x in t])
    return max(float(t[vals <= 0.0].max(initial=root) - t[vals >= 0.0].min(initial=root)), 0.0)


def test_crossing_radii_off_center_ball_closed_form():
    r = 1.3
    a = np.array([0.4, -0.3, 0.5])
    u = a / np.linalg.norm(a)
    dirs = np.vstack([build_quadrature(16).nodes, POLES, u, -u])
    got = _crossing_radii(ball(r), a, dirs)
    aw = dirs @ a
    exact = -aw + np.sqrt(aw * aw - a @ a + r * r)
    assert np.all(np.abs(got - exact) <= 4 * np.spacing(exact))


@pytest.mark.parametrize("member", range(4))
def test_crossing_radii_match_scalar_oracle(member):
    # origins up to 0.99 of the certified distance, in random directions;
    # the rays include both poles and the directions towards and away
    # from the origin's offset
    dom = generate_family(FamilySpec("random_star", 4, amplitude=0.3, seed=4,
                                     max_degree=8))[member][2]
    rng = np.random.default_rng(member)
    exact = dom.radial
    calls = [0]

    def counted(dirs):
        calls[0] += 1
        return exact(dirs)

    for frac in (0.5, 0.9, 0.99):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        a = frac * _certified_limit(dom) * v
        dirs = np.vstack([dom.quad.nodes, POLES, v, -v])
        calls[0] = 0
        dom.radial = counted
        got = _crossing_radii(dom, dom.center_offset + a, dirs)
        dom.radial = exact
        # one call for the center-ray start, then one per pass
        assert calls[0] <= 24, (frac, calls[0])
        want = _crossing_radii_reference(dom, dom.center_offset + a, dirs)
        err = np.abs(got - want)
        # near the poles synthesis resolves the radius only to a few 1e-15,
        # so where g's sign is undecided over a wider band, that band is
        # the agreement either solver can reach
        g = _scalar_g(dom, a)
        for k in np.flatnonzero(err > 1e-15):
            assert err[k] <= 1e-15 + _undecided_width(g, want[k], dirs[k]), (frac, k)
        assert np.median(err) <= 1e-15


@pytest.mark.parametrize("first_nan", [2, 3, 5])
def test_crossing_radii_nan_radius_raises_solver_error(first_nan):
    # a radius that answers the start and the first passes, then turns NaN
    dom = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=4))[0][2]
    exact = dom.radial
    calls = [0]

    def unsettled(dirs):
        calls[0] += 1
        return exact(dirs) if calls[0] < first_nan else np.full(len(dirs), np.nan)

    dom.radial = unsettled
    with pytest.raises(SolverError, match="NaN"):
        _crossing_radii(dom, dom.center_offset + 0.01, dom.quad.nodes)
    assert calls[0] == first_nan


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_crossing_radii_refuse_a_bracket_without_sign_change(shift):
    # a radius off its certified bounds by `shift` leaves g one sign over
    # the whole bracket; the solve reaches the far end of the certified
    # bracket, evaluates it and refuses, whether the start lies inside
    # the bracket (the node radii) or is clipped to its end (radial)
    dom = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=4))[0][2]
    exact = dom.radial
    dom.radial = lambda dirs: exact(dirs) + shift
    origin = dom.center_offset + 0.01
    for start in (dom.rho, None):
        with pytest.raises(SolverError, match="does not change sign"):
            _crossing_radii(dom, origin, dom.quad.nodes, start=start)


def test_crossing_radii_refuse_uncertified_origin():
    dom = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=4))[0][2]
    limit = _certified_limit(dom)
    # the sampled bounds admit origins the coefficient bounds alone refuse
    assert limit > 1.2 * _certified_limit(dom, sampled=False)
    offset = np.array([0.0, 0.6, 0.8]) * limit
    _crossing_radii(dom, dom.center_offset + 0.99 * offset, dom.quad.nodes)
    with pytest.raises(GeometryError, match="certify"):
        _crossing_radii(dom, dom.center_offset + 1.01 * offset, dom.quad.nodes)
    # a star whose barycenter sits 0.33 from its center: single-crossing
    # about the barycenter, but the bounds meet the weakest radius and the
    # steepest slope at different points, so they cannot show it
    far = generate_family(FamilySpec("random_star", 1, amplitude=0.45, seed=1,
                                     max_degree=4))[0][2]
    with pytest.raises(GeometryError, match="certify"):
        alpha(far)
    # an exact radial callable alone gives nothing to certify from, so
    # such a domain is refused when it is built
    ell = ellipsoid(0.2)
    with pytest.raises(GeometryError, match="coefficients"):
        StarDomain(quad=ell.quad, rho=ell.rho, rho_fn=ell.rho_fn)


@pytest.mark.parametrize("amplitude, max_degree, member, projected", [
    (0.45, 16, 0, True),  # sup |phi| = 0.43, near the 0.5 cap on perturbations
    (0.3, 16, 0, False),  # barycenter 0.19 from the center, as `asym --domain` sees it
    (0.45, 8, 1, False),  # barycenter 0.26 from the center
])
def test_alpha_near_the_amplitude_cap_and_off_center(amplitude, max_degree, member,
                                                     projected):
    phi = generate_family(FamilySpec("random_star", member + 1, amplitude=amplitude,
                                     seed=1, max_degree=max_degree))[member][3]
    dom = project_barycenter(phi)[1] if projected else nearly_spherical_from_phi(phi)
    x0 = barycenter(dom)
    if not projected:
        # the coefficient bounds alone refuse this origin
        assert _certified_limit(dom, sampled=False) < np.linalg.norm(x0 - dom.center_offset)
    assert alpha(dom) > 0.0
    dirs = np.vstack([dom.quad.nodes[::9], POLES])
    got = _crossing_radii(dom, x0, dirs)
    want = _crossing_radii_reference(dom, x0, dirs)
    assert np.median(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(got - want)) <= 1e-14


def test_alpha_solves_all_rays_in_few_radial_calls():
    phi = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=1,
                                     max_degree=8))[0][3]
    dom = project_barycenter(phi)[1]
    exact = dom.radial
    calls = [0]

    def counted(dirs):
        calls[0] += 1
        return exact(dirs)

    dom.radial = counted
    assert alpha(dom) > 0.0
    assert 0 < calls[0] <= 8


def _golden_cell(version, name, row_id, column):
    path = pathlib.Path(__file__).parent / "goldens" / version / name
    rows = list(csv.DictReader(path.read_text().splitlines()))
    return float(next(r for r in rows if r["domain_id"] == row_id)[column])


def _exact_weighted_shell(s):
    """Integral of |1 - t| t^2 dt between float s and 1, in exact rationals."""
    s, one = Fraction(s), Fraction(1)
    def primitive(t):
        return t**3 / 3 - t**4 / 4 if t <= one else one / 12 + (t**4 - 1) / 4 - (t**3 - 1) / 3
    return abs(primitive(s) - primitive(one))


def test_golden_alpha_moved_toward_the_oracle():
    # goldens/v2 moved one cell of the sweep_random golden: random-002's
    # alpha, member 2 of `isocap sweep --family random_star --count 4
    # --amplitude 0.12 --seed 5`.  The reference integrates the scalar
    # oracle's crossings in exact rational arithmetic, so neither the
    # batched roots nor the float integrand enter it.
    phi = generate_family(FamilySpec("random_star", 4, amplitude=0.12, seed=5))[2][3]
    dom = project_barycenter(phi)[1]
    s = _crossing_radii_reference(dom, barycenter(dom), dom.quad.nodes)
    want = float(sum(Fraction(w) * _exact_weighted_shell(r)
                     for w, r in zip(dom.quad.weights, s)))
    v1 = _golden_cell("v1", "sweep_random.csv", "random-002", "alpha")
    v2 = _golden_cell("v2", "sweep_random.csv", "random-002", "alpha")
    assert abs(v2 - want) <= 1e-14 * want
    assert abs(v1 - want) > 1e-13 * want
    assert abs(alpha(dom) - want) <= 1e-14 * want


def test_weighted_shell_matches_exact_integral():
    # the closed form keeps its relative accuracy as s -> 1, where the
    # difference of antiderivatives cancels
    for s in (0.0, 0.3, 1.0 - 1e-4, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-4, 1.7):
        want = _exact_weighted_shell(s)
        got = isocap.asymmetry._weighted_shell(np.array([s]))[0]
        assert abs(Fraction(got) - want) <= 4 * np.finfo(float).eps * want, s


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------


def _truncation_composite(f=0.01):
    # the truncation experiment's domain: volume fraction f in a far ball
    near = ball((1 - f) ** (1 / 3))
    far = ball(f ** (1 / 3), center=(10.0, 0.0, 0.0))
    return CompositeDomain([near, far])


def test_symdiff_mc_unit_ball_against_truth():
    comp = _truncation_composite()
    # symdiff with B_1 at origin: the far ball sticks out entirely and the
    # near ball misses a thin spherical shell
    r_near = (1 - 0.01) ** (1 / 3)
    truth = 0.01 * OMEGA + (OMEGA - ball_volume(r_near))
    assert symdiff_volume(comp, np.zeros(3), 1.0) == pytest.approx(truth, abs=1e-14)
    # the Monte Carlo oracle below agrees with the same truth
    v, err = _symdiff_mc_reference(comp, np.zeros(3), 1.0, n_samples=200000, seed=1)
    assert abs(v - truth) <= 4.0 * err
    assert err < 0.01


def test_symdiff_mc_deterministic():
    comp = _truncation_composite()
    # the exact route has no seed: repeated calls return the same bits
    a = symdiff_volume(comp, (0.3, -0.2, 0.1), 0.9)
    b = symdiff_volume(comp, (0.3, -0.2, 0.1), 0.9)
    assert a == b
    r1, r2 = fraenkel(comp), fraenkel(comp)
    assert (r1.value, r1.evaluations) == (r2.value, r2.evaluations)
    npt.assert_array_equal(r1.minimizing_center, r2.minimizing_center)
    # and the seeded oracle repeats its draw
    assert (_symdiff_mc_reference(comp, np.zeros(3), 1.0, 50000, 7)
            == _symdiff_mc_reference(comp, np.zeros(3), 1.0, 50000, 7))


def _uniform_in_ball_reference(seed, ids, stratum, center, radius):
    u1 = counter_uniform(seed, ids, stratum, 0)
    u2 = counter_uniform(seed, ids, stratum, 1)
    u3 = counter_uniform(seed, ids, stratum, 2)
    z = 1.0 - 2.0 * u1
    s = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    phi = 2.0 * math.pi * u2
    r = radius * u3 ** (1.0 / 3.0)
    return np.asarray(center) + r[:, None] * np.column_stack(
        [s * np.cos(phi), s * np.sin(phi), z])


def _member_of_reference(domain, pts):
    q = pts - domain.center_offset
    r = np.linalg.norm(q, axis=1)
    safe = np.maximum(r, 1e-300)
    return r < domain.radial(q / safe[:, None])


def _symdiff_mc_reference(comp, center, radius, n_samples, seed):
    """Stratified Monte Carlo estimate of |comp symdiff B_radius(center)|
    and its standard error: one stratum per component's enclosing ball for
    comp minus B, one in B for B minus comp."""
    center = np.asarray(center, dtype=float)
    ids = np.arange(n_samples, dtype=np.uint64)
    total, var = 0.0, 0.0
    for k, c in enumerate(comp.components):
        pts = _uniform_in_ball_reference(seed, ids, 2 * k, c.center_offset, c.rho_max)
        good = (_member_of_reference(c, pts)
                & (np.linalg.norm(pts - center, axis=1) >= radius))
        p = good.mean()
        vol_box = ball_volume(c.rho_max)
        total += p * vol_box
        var += p * (1.0 - p) / n_samples * vol_box**2
    pts = _uniform_in_ball_reference(seed, ids, 2 * len(comp.components) + 1,
                                     center, radius)
    outside = np.ones(n_samples, dtype=bool)
    for c in comp.components:
        outside &= ~_member_of_reference(c, pts)
    p = outside.mean()
    vol_box = ball_volume(radius)
    total += p * vol_box
    var += p * (1.0 - p) / n_samples * vol_box**2
    return total, math.sqrt(var)


_MC_CENTERS = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (10.0, 0.0, 0.0), (9.3, 0.2, 0.0),
               tuple(np.random.default_rng(20).uniform(-1.0, 1.0, 3))]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("radius", [1.0, 0.7])
@pytest.mark.parametrize("center", _MC_CENTERS)
def test_symdiff_mc_matches_per_center_draw(center, radius, seed):
    # the exact route against an independent Monte Carlo draw made for
    # each center; a stratum that is all in or all out has no error, so
    # there the two agree to rounding
    comp = _truncation_composite()
    got = symdiff_volume(comp, center, radius)
    want, err = _symdiff_mc_reference(comp, center, radius, 50000, seed)
    assert abs(got - want) <= 4.0 * err + 1e-12
    assert err < 0.02


@pytest.mark.parametrize("f", [0.01, 0.05])
def test_fraenkel_truncation_composite_is_2f(f):
    # no unit ball meets both components, so |Omega symdiff B| is at least
    # |far| + (|B_1| - |near|) = 2f |B_1|, with equality for the ball
    # centred on the near component
    res = fraenkel(_truncation_composite(f))
    assert abs(res.value - 2.0 * f) <= 1e-12
    assert np.linalg.norm(res.minimizing_center) <= 1.0 - (1 - f) ** (1 / 3)
    assert 0 < res.evaluations <= 500


def _lens_by_caps(r1, r2, d):
    """Intersection volume of two balls that overlap partially, as the sum
    of the two caps cut off by the plane through their intersection circle."""
    assert abs(r1 - r2) < d < r1 + r2
    x = (d * d - r2 * r2 + r1 * r1) / (2.0 * d)  # the plane, from center 1
    h1, h2 = r1 - x, r2 - (d - x)
    return math.pi * (h1 * h1 * (3 * r1 - h1) + h2 * h2 * (3 * r2 - h2)) / 3.0


_LENS_CENTERS = [(0.55, 0.0, 0.0), (0.5, 0.15, 0.0), (0.6, -0.1, 0.05),
                 (0.45, 0.05, -0.2), tuple(np.random.default_rng(20).uniform(0.45, 0.6, 3)
                                           * (1.0, 0.3, 0.3))]


@pytest.mark.parametrize("radius", [1.0, 0.7])
@pytest.mark.parametrize("center", _LENS_CENTERS)
def test_symdiff_two_ball_composite_matches_lens(center, radius):
    # B_r(center) cuts into both balls, so both terms are true lenses
    r1, r2, c2 = 0.6, 0.45, np.array([1.2, 0.0, 0.0])
    comp = CompositeDomain([ball(r1), ball(r2, center=c2)])
    c = np.asarray(center)
    inter = (_lens_by_caps(r1, radius, float(np.linalg.norm(c)))
             + _lens_by_caps(r2, radius, float(np.linalg.norm(c - c2))))
    want = ball_volume(r1) + ball_volume(r2) + ball_volume(radius) - 2.0 * inter
    assert symdiff_volume(comp, c, radius) == pytest.approx(want, rel=1e-13)


def test_symdiff_star_plus_far_ball_sums_its_components():
    star = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=2))[0][2]
    far = ball(0.3, center=(6.0, 0.0, 0.0))
    comp = CompositeDomain([star, far])
    # a ball that misses the far component: the far ball adds its volume
    for c in [(0.0, 0.0, 0.0), (0.2, -0.1, 0.3)]:
        got = symdiff_volume(comp, c, 1.0)
        assert got == pytest.approx(symdiff_volume(star, c, 1.0) + volume(far), rel=1e-14)
    # in general, the sum over the components less the extra copy of the ball
    for c, r in [((0.4, 0.2, -0.1), 1.0), ((6.1, 0.1, 0.0), 0.5), ((3.0, 0.0, 0.0), 3.0)]:
        want = symdiff_volume(star, c, r) + symdiff_volume(far, c, r) - ball_volume(r)
        assert symdiff_volume(comp, c, r) == pytest.approx(want, rel=1e-14)


def test_symdiff_ball_beyond_the_enclosing_sphere_is_exact():
    # a ball that misses the star's certified enclosing sphere is disjoint
    # from it; the degree-128 ray rule alone was off here by +1.5e-3,
    # +4.4e-3 and -3.4e-3 (3.0% of |B|)
    star = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=2))[0][2]
    rho_hi = radial_bounds(star)[1]
    for c, r in [((6.1, 0.1, 0.0), 0.5), ((3.0, 0.0, 0.0), 0.5), ((2.0, 0.0, 0.0), 0.3)]:
        assert np.linalg.norm(c) >= rho_hi + r
        want = volume(star) + ball_volume(r)
        assert symdiff_volume(star, c, r) == pytest.approx(want, rel=1e-13)


def test_fraenkel_composite_requires_unit_volume():
    comp = CompositeDomain([ball(1.0), ball(0.5, center=(9.0, 0.0, 0.0))])
    with pytest.raises(GeometryError):
        fraenkel(comp)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1e-6, max_value=8.0),
       st.floats(min_value=1e-6, max_value=8.0))
def test_annulus_bound_monotone(v1, v2):
    lo, hi = sorted((v1, v2))
    assert annulus_lower_bound(lo) <= annulus_lower_bound(hi) + 1e-15


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.0, max_value=2.5),
       st.floats(min_value=0.1, max_value=2.0))
def test_symdiff_bounds(d, r):
    # 0 <= |B_1 symdiff B_r(c)| <= |B_1| + |B_r|, with equality when disjoint
    v = symdiff_volume(ball(1.0), (d, 0.0, 0.0), r)
    total = OMEGA + ball_volume(r)
    assert -1e-12 <= v <= total + 1e-12
    if d >= 1.0 + r:
        assert v == pytest.approx(total, rel=1e-12)
