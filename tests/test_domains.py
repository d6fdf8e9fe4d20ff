"""Star-domain construction, measures, families, and persistence."""

import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap import domains
from isocap.capacity import deficit
from isocap.domains import (CompositeDomain, FamilySpec, StarDomain, ball,
                            barycenter, boundary_cloud, diameter, ellipsoid,
                            family_member, generate_family, load_domain,
                            nearly_spherical_from_phi, normalize_volume,
                            radial_bounds, save_domain, scale_domain,
                            truncate_rescale, volume)
from isocap.errors import ConfigError, GeometryError
from isocap.sphere import HarmonicCoeffs, ball_volume, build_quadrature, synthesize

OMEGA = ball_volume()


def test_ball_basics():
    b = ball(1.5)
    assert b.is_ball()
    assert b.rho_max == pytest.approx(1.5)
    assert b.rho_min == pytest.approx(1.5)
    assert volume(b) == pytest.approx(ball_volume(1.5), rel=1e-14)
    assert diameter(b) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(GeometryError):
        ball(0.0)


def test_offset_ball_barycenter_and_cloud():
    c = (0.3, -0.2, 0.5)
    b = ball(1.0, center=c)
    npt.assert_allclose(barycenter(b), c, atol=1e-14)
    cloud = boundary_cloud(b)
    npt.assert_allclose(np.linalg.norm(cloud - np.asarray(c), axis=1), 1.0,
                        atol=1e-14)


def test_ellipsoid_volume_is_unit_ball():
    for eps in (0.0, 0.1, 0.25, 0.4):
        dom = ellipsoid(eps)
        assert volume(dom) == pytest.approx(OMEGA, rel=1e-12)
    assert ellipsoid(0.0).is_ball()
    assert not ellipsoid(0.1).is_ball()
    with pytest.raises(GeometryError):
        ellipsoid(0.6)
    with pytest.raises(GeometryError):
        ellipsoid(-0.1)


def test_ellipsoid_radial_matches_implicit_surface():
    dom = ellipsoid(0.3)
    axes = np.array([1.3, 1.3, 1.3**-2])
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rho = dom.radial(dirs)
    pts = rho[:, None] * dirs
    npt.assert_allclose(((pts / axes) ** 2).sum(axis=1), 1.0, atol=1e-12)


def test_nearly_spherical_volume_correction():
    phi = HarmonicCoeffs.single(2, 2, 0.2)
    dom = nearly_spherical_from_phi(phi)
    assert abs(volume(dom) - OMEGA) < 1e-12
    # without correction the volume picks up the quadratic term
    raw = 1.0 + synthesize(phi, dom.quad.nodes)
    assert abs(dom.quad.weights @ raw**3 / 3.0 - OMEGA) > 1e-4


@pytest.mark.parametrize("make", [
    lambda: ball(1.0),
    lambda: ball(0.01 ** (1.0 / 3.0)),
    lambda: ball(0.99 ** (1.0 / 3.0)),
    lambda: generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=1))[0][2],
], ids=["unit-ball", "ball-0.01", "ball-0.99", "random-star"])
def test_volume_is_the_correctly_rounded_quadrature_sum(make):
    # the rational sum is exact, so the float volume must not depend on
    # the summation order of the machine's BLAS
    dom = make()
    exact = sum(Fraction(w) * Fraction(r) ** 3
                for w, r in zip(dom.quad.weights.tolist(), dom.rho.tolist()))
    assert volume(dom) == float(exact) / 3


def test_nearly_spherical_sup_norm_guard():
    with pytest.raises(GeometryError):
        nearly_spherical_from_phi(HarmonicCoeffs.single(2, 2, 2.0))


def test_scale_translate_normalize():
    dom = ellipsoid(0.2)
    scaled = scale_domain(dom, 2.0)
    assert volume(scaled) == pytest.approx(8.0 * volume(dom), rel=1e-12)
    back, _ = normalize_volume(scaled)
    assert volume(back) == pytest.approx(OMEGA, rel=1e-12)
    moved = ball(1.0, center=(1.0, 0.0, 0.0))
    npt.assert_allclose(barycenter(moved), [1.0, 0.0, 0.0], atol=1e-14)
    with pytest.raises(GeometryError):
        scale_domain(dom, -1.0)


def test_composite_requires_disjoint_components():
    with pytest.raises(GeometryError):
        CompositeDomain([ball(1.0), ball(1.0, center=(1.5, 0, 0))])
    comp = CompositeDomain([ball(1.0), ball(0.5, center=(3.0, 0, 0))])
    assert volume(comp) == pytest.approx(OMEGA * (1 + 0.5**3), rel=1e-13)
    with pytest.raises(GeometryError):
        CompositeDomain([])


def _two_balls():
    return CompositeDomain([ball(0.9), ball(0.4, center=(3.0, 0.0, 0.0))])


def _star_plus_far_ball():
    star = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=2))[0][2]
    return CompositeDomain([star, ball(0.3, center=(6.0, 0.0, 0.0))])


@pytest.mark.parametrize("make", [_two_balls, _star_plus_far_ball])
def test_normalize_volume_of_a_union(make):
    comp = make()
    out, lam = normalize_volume(comp)
    assert isinstance(out, CompositeDomain)
    assert abs(volume(out) - OMEGA) <= 1e-12
    # every component is dilated about the origin by the one factor
    for before, after in zip(comp.components, out.components, strict=True):
        npt.assert_array_equal(after.center_offset, lam * before.center_offset)
        npt.assert_array_equal(after.rho, lam * before.rho)
    if make is _two_balls:
        assert deficit(comp, solver="closed").scale == lam


def _seed1_member(k):
    return family_member(FamilySpec("random_star", 4, amplitude=0.3, seed=1, max_degree=8),
                         k)[2]


def _peak(dom):
    """The largest radius on a degree-600 sampling, and its direction."""
    fine = build_quadrature(600)
    r = dom.radial(fine.nodes)
    return float(r.max()), fine.nodes[int(np.argmax(r))]


def test_composite_refuses_a_ball_that_meets_a_star_between_its_nodes():
    # the star's radius peaks between its quadrature nodes, above rho_max,
    # so a ball that reaches 1e-3 into the peak overlaps it although it
    # clears the node maximum
    star = _seed1_member(1)
    peak, u = _peak(star)
    assert peak - star.rho_max > 1e-3
    with pytest.raises(GeometryError, match="not certifiably disjoint"):
        CompositeDomain([star, ball(0.2, center=(peak + 0.2 - 1e-3) * u)])
    # past the certified radius the pair is accepted
    rho_hi = radial_bounds(star, sampled=True)[1]
    assert peak < rho_hi
    CompositeDomain([star, ball(0.2, center=(rho_hi + 0.2 + 1e-9) * u)])


def test_truncate_rescale_refuses_a_cut_between_the_nodes_and_the_peak():
    star = _seed1_member(1)
    peak, _ = _peak(star)
    cut = star.rho_max + 1e-4
    assert cut < peak  # the cut sphere slices the star
    with pytest.raises(GeometryError, match="sliced"):
        truncate_rescale(star, cut)


def test_a_star_is_certified_once(monkeypatch):
    star = _seed1_member(1)
    calls = []
    sampled = domains._sampled_bounds
    monkeypatch.setattr(domains, "_sampled_bounds",
                        lambda coeffs: calls.append(coeffs) or sampled(coeffs))
    far = ball(0.5, center=(4.0, 0.0, 0.0))
    CompositeDomain([star, far])
    comp = CompositeDomain([far, star])
    truncate_rescale(comp, 2.5)
    assert len(calls) == 1
    assert star.certified_bounds == radial_bounds(star, sampled=True)
    assert len(calls) == 2  # radial_bounds itself keeps nothing


def test_composite_barycenter_weighted():
    comp = CompositeDomain([ball(1.0), ball(0.5, center=(4.0, 0, 0))])
    x = 4.0 * 0.5**3 / (1 + 0.5**3)
    npt.assert_allclose(barycenter(comp), [x, 0.0, 0.0], atol=1e-13)


def test_truncate_rescale_two_balls():
    near = ball((1 - 0.01) ** (1 / 3))
    far = ball(0.01 ** (1 / 3), center=(10.0, 0, 0))
    comp = CompositeDomain([near, far])
    out, rep = truncate_rescale(comp, 2.0)
    assert isinstance(out, StarDomain)
    assert out.is_ball()
    assert volume(out) == pytest.approx(OMEGA, rel=1e-13)
    assert rep.outside_volume == pytest.approx(0.01 * OMEGA, rel=1e-12)
    assert rep.scale == pytest.approx((1 / 0.99) ** (1 / 3), rel=1e-12)
    assert rep.diameter == pytest.approx(2.0, rel=1e-12)


def test_truncate_rescale_rejects_sliced_and_empty():
    comp = CompositeDomain([ball(1.0), ball(0.3, center=(3.0, 0, 0))])
    with pytest.raises(GeometryError):
        truncate_rescale(comp, 3.0)  # cut sphere slices the far ball
    with pytest.raises(GeometryError):
        truncate_rescale(ball(1.0, center=(5.0, 0, 0)), 2.0)  # nothing inside


def test_truncate_rescale_identity_when_inside():
    out, rep = truncate_rescale(ball(1.0), 2.0)
    assert rep.outside_volume == 0.0
    assert rep.scale == pytest.approx(1.0, rel=1e-13)


def test_generate_family_ellipsoid_grid():
    fam = generate_family(FamilySpec("ellipsoid", 4, eps_min=0.1, eps_max=0.4))
    assert len(fam) == 4
    ids = [m[0] for m in fam]
    assert ids == sorted(ids)
    eps = [m[1] for m in fam]
    npt.assert_allclose(eps, [0.1, 0.2, 0.3, 0.4])
    for _, _, dom, phi in fam:
        assert phi is None
        assert volume(dom) == pytest.approx(OMEGA, rel=1e-12)


def test_generate_family_random_star_deterministic():
    spec = FamilySpec("random_star", 3, amplitude=0.2, seed=42)
    a = generate_family(spec)
    b = generate_family(spec)
    for (ia, ta, da, pa), (ib, tb, db, pb) in zip(a, b):
        assert ia == ib and ta == tb
        npt.assert_array_equal(da.rho, db.rho)
        npt.assert_array_equal(pa.values, pb.values)
    # the sup-norm parameter respects the amplitude cap
    assert all(m[1] <= 0.2 + 1e-12 for m in a)


def test_generate_family_harmonic_perturbation():
    fam = generate_family(FamilySpec("harmonic_perturbation", 3,
                                     degree=2, order=2, amplitude=0.15))
    ts = [m[1] for m in fam]
    npt.assert_allclose(ts, [0.05, 0.10, 0.15])
    for _, t, dom, phi in fam:
        assert phi.coefficient(2, 2) == pytest.approx(t)
        assert volume(dom) == pytest.approx(OMEGA, rel=1e-12)


def test_generate_family_rejects_bad_variant_and_count():
    with pytest.raises(GeometryError):
        generate_family(FamilySpec("mystery", 3))
    with pytest.raises(GeometryError):
        generate_family(FamilySpec("ellipsoid", 0))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.0, "1", True])
def test_family_spec_refuses_a_seed_outside_uint64(seed):
    with pytest.raises(ConfigError):
        FamilySpec("random_star", 2, seed=seed)
    assert FamilySpec("random_star", 1, seed=2**64 - 1).seed == 2**64 - 1
    assert FamilySpec("random_star", 1, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert FamilySpec("random_star", 1, seed=np.int64(5)).seed == 5


def test_save_load_roundtrip(tmp_path):
    phi = HarmonicCoeffs.single(3, 1, 0.1, max_degree=3)
    dom = nearly_spherical_from_phi(phi)
    path = tmp_path / "dom.txt"
    save_domain(dom, path)
    back = load_domain(path)
    npt.assert_allclose(back.coeffs.values, dom.coeffs.values, atol=1e-15)
    npt.assert_allclose(back.center_offset, dom.center_offset, atol=1e-15)
    assert volume(back) == pytest.approx(volume(dom), rel=1e-12)


def test_save_refuses_a_domain_without_coefficients(tmp_path):
    path = tmp_path / "ellipsoid.txt"
    with pytest.raises(GeometryError, match="harmonic coefficients"):
        save_domain(ellipsoid(0.1), path)
    assert not path.exists()


def test_load_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a domain\n1 2 3\n")
    with pytest.raises(GeometryError):
        load_domain(path)


def test_radial_dispatch_consistency():
    # radial() from the callable and from stored coefficients agree
    phi = HarmonicCoeffs.single(2, 0, 0.15)
    dom = nearly_spherical_from_phi(phi)
    quad = build_quadrature(20)
    from isocap.sphere import synthesize

    expected = synthesize(dom.coeffs, quad.nodes)
    npt.assert_allclose(dom.radial(quad.nodes), expected, atol=1e-12)


def _radius_and_slope(dom, n_theta=90):
    """The radius on a polar grid, and the largest surface gradient by
    central differences: |grad_S rho|^2 = rho_theta^2 + (rho_phi / sin theta)^2."""
    theta, phi = np.meshgrid(np.linspace(0.02, math.pi - 0.02, n_theta),
                             np.linspace(0.0, 2.0 * math.pi, 2 * n_theta, endpoint=False))
    theta, phi = theta.ravel(), phi.ravel()

    def rho(t, p):
        return dom.radial(np.column_stack([np.sin(t) * np.cos(p),
                                           np.sin(t) * np.sin(p), np.cos(t)]))

    h = 1e-6
    d_theta = (rho(theta + h, phi) - rho(theta - h, phi)) / (2 * h)
    d_phi = (rho(theta, phi + h) - rho(theta, phi - h)) / (2 * h * np.sin(theta))
    return rho(theta, phi), np.hypot(d_theta, d_phi).max()


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("amplitude, max_degree, member",
                         [(0.3, 8, 0), (0.3, 8, 1), (0.3, 8, 2), (0.45, 16, 0)])
def test_radial_bounds_enclose_radius_and_gradient(amplitude, max_degree, member, sampled):
    dom = generate_family(FamilySpec("random_star", member + 1, amplitude=amplitude,
                                     seed=4, max_degree=max_degree))[member][2]
    lo, hi, grad = radial_bounds(dom, sampled)
    r, slope = _radius_and_slope(dom)
    assert lo <= r.min() and r.max() <= hi
    assert slope <= grad
    if sampled:
        # within the sampling slack: 1/15 of the half-range on each side
        # of the radius, a factor sqrt(4/3) on the slope
        assert hi - lo <= 1.25 * (r.max() - r.min())
        assert grad <= 1.25 * slope


def test_radial_bounds_need_coefficients():
    assert radial_bounds(ball(1.3)) == pytest.approx((1.3, 1.3, 0.0), abs=1e-15)
    assert radial_bounds(ball(1.3), sampled=True) == pytest.approx((1.3, 1.3, 0.0), abs=1e-15)
    # a domain with nothing to bound its radius by cannot be built: node
    # samples alone, or an exact radial callable without closed-form bounds
    dom = ellipsoid(0.2)
    with pytest.raises(GeometryError, match="coefficients"):
        StarDomain(quad=dom.quad, rho=dom.rho)
    with pytest.raises(GeometryError, match="coefficients"):
        StarDomain(quad=dom.quad, rho=dom.rho, rho_fn=dom.rho_fn)
    assert radial_bounds(dom) == dom.rho_bounds


def test_diameter_of_ellipsoid():
    # longest axis 2*(1+eps), resolved by the boundary cloud
    dom = ellipsoid(0.25)
    assert diameter(dom) == pytest.approx(2.5, rel=1e-3)


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.01, max_value=0.45))
def test_ellipsoid_radial_bounds(eps):
    dom = ellipsoid(eps)
    lo, hi = (1 + eps) ** -2, 1 + eps
    assert lo - 1e-12 <= dom.rho_min <= dom.rho_max <= hi + 1e-12
    grad = (hi**2 - lo**2) / (2 * lo)
    assert radial_bounds(dom) == radial_bounds(dom, sampled=True)
    assert radial_bounds(dom) == pytest.approx((lo, hi, grad), rel=1e-15)
    r, slope = _radius_and_slope(dom, n_theta=60)
    assert lo - 1e-12 <= r.min() and r.max() <= hi + 1e-12
    assert slope <= grad
    # a dilation scales all three
    assert radial_bounds(scale_domain(dom, 1.7)) == pytest.approx((1.7 * lo, 1.7 * hi,
                                                                    1.7 * grad), rel=1e-15)


@settings(deadline=None, max_examples=15)
@given(st.floats(min_value=0.3, max_value=2.5),
       st.floats(min_value=0.3, max_value=2.5))
def test_scale_composes(a, b):
    for dom in (ball(1.0), CompositeDomain([ball(1.0), ball(0.5, center=(3.0, 0.0, 0.0))])):
        once = scale_domain(dom, a * b)
        twice = scale_domain(scale_domain(dom, a), b)
        assert once.enclosing_radius == pytest.approx(twice.enclosing_radius, rel=1e-12)
        assert volume(once) == pytest.approx(volume(twice), rel=1e-12)
