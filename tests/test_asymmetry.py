"""Symmetric-difference volumes, Fraenkel asymmetry, weighted asymmetry."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import isocap.asymmetry
from isocap.asymmetry import (alpha, alpha_R, annulus_lower_bound, fraenkel,
                              fraenkel_mc, symdiff_volume, symdiff_volume_mc)
from isocap.capacity import counter_uniform
from isocap.domains import (CompositeDomain, FamilySpec, ball, ellipsoid,
                            generate_family, translate)
from isocap.errors import GeometryError
from isocap.sphere import ball_volume

OMEGA = ball_volume(3)


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
    assert nested == pytest.approx(OMEGA - ball_volume(3, 0.5), rel=1e-14)


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
    moved = fraenkel(translate(dom, (0.25, -0.15, 0.35)))
    assert moved.value == pytest.approx(base.value, abs=1e-8)
    npt.assert_allclose(moved.minimizing_center - base.minimizing_center,
                        [0.25, -0.15, 0.35], atol=1e-4)


def test_fraenkel_requires_unit_volume():
    with pytest.raises(GeometryError):
        fraenkel(ball(1.3))


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


def test_alpha_R_dominates_annulus_bound():
    for eps in (0.05, 0.15, 0.3):
        dom = ellipsoid(eps)
        v = symdiff_volume(dom, np.zeros(3), 1.0)
        assert alpha_R(dom) >= annulus_lower_bound(v) - 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo variants for composites
# ---------------------------------------------------------------------------


def _two_ball_composite():
    near = ball((1 - 0.01) ** (1 / 3))
    far = ball(0.01 ** (1 / 3), center=(10.0, 0.0, 0.0))
    return CompositeDomain([near, far])


def test_symdiff_mc_unit_ball_against_truth():
    comp = _two_ball_composite()
    # symdiff with B_1 at origin: the far ball sticks out entirely and the
    # near ball misses a thin spherical shell
    r_near = (1 - 0.01) ** (1 / 3)
    truth = 0.01 * OMEGA + (OMEGA - ball_volume(3, r_near))
    v, err = symdiff_volume_mc(comp, np.zeros(3), 1.0, n_samples=200000, seed=1)
    assert abs(v - truth) <= 4.0 * err
    assert err < 0.01


def test_symdiff_mc_deterministic():
    comp = _two_ball_composite()
    a = symdiff_volume_mc(comp, np.zeros(3), 1.0, n_samples=50000, seed=7)
    b = symdiff_volume_mc(comp, np.zeros(3), 1.0, n_samples=50000, seed=7)
    assert a == b


def test_fraenkel_mc_two_ball():
    comp = _two_ball_composite()
    res = fraenkel_mc(comp, n_samples=100000, seed=2)
    truth = 0.02  # both defect volumes are 0.01 * omega
    assert res.value == pytest.approx(truth, abs=4.0 * res.stderr + 1e-3)
    assert res.stderr < 0.01
    assert res.evaluations > 0


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


def _symdiff_volume_mc_reference(comp, center, radius, n_samples, seed):
    """The estimator drawing every stratum afresh for each center."""
    center = np.asarray(center, dtype=float)
    ids = np.arange(n_samples, dtype=np.uint64)
    total, var = 0.0, 0.0
    for k, c in enumerate(comp.components):
        pts = _uniform_in_ball_reference(seed, ids, 2 * k, c.center_offset, c.rho_max)
        good = (_member_of_reference(c, pts)
                & (np.linalg.norm(pts - center, axis=1) >= radius))
        p = good.mean()
        vol_box = ball_volume(3, c.rho_max)
        total += p * vol_box
        var += p * (1.0 - p) / n_samples * vol_box**2
    pts = _uniform_in_ball_reference(seed, ids, 2 * len(comp.components) + 1,
                                     center, radius)
    outside = np.ones(n_samples, dtype=bool)
    for c in comp.components:
        outside &= ~_member_of_reference(c, pts)
    p = outside.mean()
    vol_box = ball_volume(3, radius)
    total += p * vol_box
    var += p * (1.0 - p) / n_samples * vol_box**2
    return total, math.sqrt(var)


_MC_CENTERS = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (10.0, 0.0, 0.0), (9.3, 0.2, 0.0),
               tuple(np.random.default_rng(20).uniform(-1.0, 1.0, 3))]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("radius", [1.0, 0.7])
@pytest.mark.parametrize("center", _MC_CENTERS)
def test_symdiff_mc_matches_per_center_draw(center, radius, seed):
    comp = _two_ball_composite()
    got = symdiff_volume_mc(comp, center, radius, n_samples=20000, seed=seed)
    want = _symdiff_volume_mc_reference(comp, center, radius, 20000, seed)
    assert got == want


@pytest.mark.parametrize("seed", [1, 7])
def test_fraenkel_mc_matches_per_center_draw(seed):
    comp = _two_ball_composite()
    n = 20000
    count = [0]

    def objective(c):
        count[0] += 1
        return _symdiff_volume_mc_reference(comp, c, 1.0, n, seed)[0] / OMEGA

    start = comp.components[0].center_offset
    ref = minimize(objective, start, method="Nelder-Mead",
                   options={"maxfev": 120, "xatol": 1e-6, "fatol": 1e-9})
    val, err = _symdiff_volume_mc_reference(comp, ref.x, 1.0, n, seed)
    res = fraenkel_mc(comp, n_samples=n, seed=seed)
    assert res.value == val / OMEGA
    assert res.stderr == err / OMEGA
    npt.assert_array_equal(res.minimizing_center, ref.x)
    assert res.evaluations == count[0]


def test_fraenkel_mc_draws_each_stratum_once(monkeypatch):
    comp = _two_ball_composite()
    draws = [0]

    def counting(*args):
        draws[0] += 1
        return counter_uniform(*args)

    monkeypatch.setattr(isocap.asymmetry, "counter_uniform", counting)
    res = fraenkel_mc(comp, n_samples=20000, seed=1)
    assert draws[0] == 3 * (len(comp.components) + 1)
    assert res.evaluations > draws[0]


def test_fraenkel_mc_requires_unit_volume():
    comp = CompositeDomain([ball(1.0), ball(0.5, center=(9.0, 0.0, 0.0))])
    with pytest.raises(GeometryError):
        fraenkel_mc(comp)


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
    total = OMEGA + ball_volume(3, r)
    assert -1e-12 <= v <= total + 1e-12
    if d >= 1.0 + r:
        assert v == pytest.approx(total, rel=1e-12)
