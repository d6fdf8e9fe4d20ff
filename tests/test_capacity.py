"""Capacity solvers against closed forms and image-charge oracles."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap.capacity import (WosConfig, _any_orthonormal, _cross, _norm, _ridge_weighted_lstsq,
                             _run_walks, _shell_radial, _surface_polar, _WosComponent,
                             cap_ball, cap_exterior_harmonic, cap_relative_harmonic,
                             cap_spheroid, cap_wos, capacity, counter_uniform, deficit)
from isocap.domains import (CompositeDomain, FamilySpec, StarDomain, ball,
                            ellipsoid, generate_family, scale_domain, volume)
from isocap.errors import ConfigError, GeometryError, SolverError
from isocap.sphere import (HarmonicCoeffs, ball_volume, build_quadrature, flat_index,
                           harmonic_basis, synthesize)

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# independent oracles rebuilt from image-charge series
# ---------------------------------------------------------------------------


def two_sphere_cap(a: float, d: float, tol: float = 1e-16) -> float:
    """Capacity of two equal spheres (radius a, centers d apart) held at a
    common unit potential, by the classical axial image-charge iteration."""
    charges = [(a, 0.0)]  # charges carried by the sphere at the origin
    new = charges[:]
    for _ in range(200):
        nxt = []
        for q, x in new:
            s = d - x  # distance to the partner sphere's center
            q_img, x_img = -q * a / s, d - a * a / s
            nxt.append((q_img, d - x_img))  # partner's image, mirrored back
        if max(abs(q) for q, _ in nxt) < tol:
            break
        charges += nxt
        new = nxt
    return FOUR_PI * 2.0 * sum(q for q, _ in charges)


def eccentric_shell_cap(a: float, b: float, c: float,
                        tol: float = 1e-16) -> float:
    """Capacity of a sphere of radius a, centered at distance c from the
    center of a grounded sphere of radius b (a + c < b), held at unit
    potential.  Axial image-charge iteration: every interior charge gets an
    exterior image to keep the outer sphere grounded, every exterior charge
    gets a Kelvin image to keep the inner sphere equipotential."""
    new_int = [(a, c)]
    total = a
    for _ in range(400):
        new_ext = [(-q * b / abs(x), b * b / x) for q, x in new_int]
        new_int = []
        for q, x in new_ext:
            s = x - c
            new_int.append((-q * a / abs(s), c + a * a / s))
        total += sum(q for q, _ in new_int)
        if max(abs(q) for q, _ in new_int) < tol:
            break
    return FOUR_PI * total


TWO_SPHERE_CAP_UNIT_D4 = 20.171113135709675


def test_oracles_self_consistent():
    # the two-sphere series reproduces its frozen value
    assert two_sphere_cap(1.0, 4.0) == pytest.approx(TWO_SPHERE_CAP_UNIT_D4,
                                                     abs=1e-12)
    # the eccentric shell reduces to the concentric closed form
    assert eccentric_shell_cap(0.6, 2.0, 1e-9) == pytest.approx(
        cap_ball(0.6, 2.0), rel=1e-12)
    # far-apart spheres decouple: capacity approaches twice a single sphere
    assert two_sphere_cap(1.0, 1e7) == pytest.approx(2.0 * FOUR_PI, rel=1e-6)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_cap_ball_closed_forms():
    assert cap_ball(1.0) == pytest.approx(FOUR_PI, rel=1e-15)
    assert cap_ball(2.0) == pytest.approx(2.0 * FOUR_PI, rel=1e-15)


def test_cap_ball_relative_closed_forms():
    assert cap_ball(1.0, 2.0) == pytest.approx(8.0 * math.pi, rel=1e-15)
    # R -> infinity recovers the absolute capacity
    assert cap_ball(1.0, 1e12) == pytest.approx(FOUR_PI, rel=1e-11)
    # shrinking gap blows up
    assert cap_ball(1.0, 1.001) > 1000.0
    with pytest.raises(ValueError):
        cap_ball(1.0, 0.9)


def test_cap_spheroid_limits():
    assert cap_spheroid(1.0, 1.0) == pytest.approx(FOUR_PI, rel=1e-12)
    assert cap_spheroid(1.0 + 1e-9, 1.0) == pytest.approx(FOUR_PI, rel=1e-8)
    # known prolate closed form: c_e = 2 sqrt(a^2-c^2)/arctanh terms;
    # cross-check a strongly prolate case against the defining formula
    a, c = 0.5, 2.0  # equatorial, polar (prolate: polar > equatorial)
    e = math.sqrt(c * c - a * a)
    expected = FOUR_PI * 2.0 * e / math.log((c + e) / (c - e))
    assert cap_spheroid(a, c) == pytest.approx(expected, rel=1e-12)
    # oblate closed form: e / arcsin(e / a)
    a, c = 2.0, 0.5
    e = math.sqrt(a * a - c * c)
    expected = FOUR_PI * e / math.asin(e / a)
    assert cap_spheroid(a, c) == pytest.approx(expected, rel=1e-12)


def test_capacity_monotone_in_radius():
    assert cap_ball(1.2) > cap_ball(1.0)
    assert cap_ball(1.2, 2.0) > cap_ball(1.0, 2.0)


# ---------------------------------------------------------------------------
# harmonic collocation, absolute problem
# ---------------------------------------------------------------------------


def test_harmonic_ball_machine_accurate():
    res = cap_exterior_harmonic(ball(1.0), l_max=8)
    assert res.value == pytest.approx(FOUR_PI, rel=1e-12)
    assert res.error_estimate < 1e-9
    assert res.max_residual < 1e-11


def test_harmonic_offset_ball_translation_invariance():
    res = cap_exterior_harmonic(ball(1.0, center=(0.2, -0.1, 0.15)),
                                l_max=12)
    assert res.value == pytest.approx(FOUR_PI, rel=1e-9)


def test_harmonic_ellipsoid_matches_spheroid_closed_form():
    for eps in (0.1, 0.2):
        truth = cap_spheroid(1.0 + eps, (1.0 + eps) ** -2)
        res = cap_exterior_harmonic(ellipsoid(eps), l_max=16)
        assert res.value == pytest.approx(truth, rel=1e-8)
        assert abs(res.value - truth) < max(res.error_estimate, 1e-8 * truth)


def test_harmonic_refuses_eccentric_domain():
    with pytest.raises(GeometryError):
        cap_exterior_harmonic(ellipsoid(0.4))


def test_harmonic_refuses_origin_outside():
    with pytest.raises(GeometryError):
        cap_exterior_harmonic(ball(0.5, center=(1.0, 0.0, 0.0)))
    # radii about the origin from 2.5 to 4.5 pass the spread check, so the
    # origin test itself refuses this one
    with pytest.raises(GeometryError, match="origin must lie inside"):
        cap_exterior_harmonic(ball(1.0, center=(3.5, 0.0, 0.0)))
    # a unit ball centred at minus a collocation node meets the origin at
    # that node exactly
    dom = ball(1.0, center=-build_quadrature(16).nodes[0])
    with pytest.raises(GeometryError, match="passes through the origin"):
        cap_exterior_harmonic(dom, l_max=8)


@pytest.mark.parametrize("outer_radius", [None, 2.0])
def test_harmonic_refuses_a_negative_degree_and_an_ill_conditioned_fit(outer_radius,
                                                                       monkeypatch):
    with pytest.raises(ConfigError, match="l_max"):
        capacity(ball(1.0), outer_radius, solver="harmonic", l_max=-1)
    # the package exports the function `capacity` under the module's name
    monkeypatch.setattr(sys.modules["isocap.capacity"], "_MAX_CONDITION", 1.0)
    with pytest.raises(SolverError, match="ill-conditioned"):
        capacity(ball(1.0), outer_radius, solver="harmonic", l_max=4)


def test_wos_refuses_a_run_with_no_hits():
    # one walk, which escapes for seed 0 (it hits for seeds 2, 3 and 4)
    with pytest.raises(SolverError, match="zero hits"):
        cap_wos(ball(1.0), WosConfig(num_walks=1, seed=0))
    assert cap_wos(ball(1.0), WosConfig(num_walks=1, seed=2)).value > 0.0


# ---------------------------------------------------------------------------
# harmonic collocation, relative problem
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("outer_radius", [None, 2.0])
def test_collocation_radial_factors_once_per_degree_bit_for_bit(outer_radius, monkeypatch):
    # `_collocate` takes each degree's radial factor once and spreads it
    # over the degree's 2l + 1 columns; its design matrix and its residual
    # are those of the factor broadcast over every column, bit for bit
    dom = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=1))[0][2]
    L = 8
    if outer_radius is None:
        def radial(l, r):
            return r ** -(l + 1)
        solve = cap_exterior_harmonic
    else:
        def radial(l, r):
            return _shell_radial(l, r, outer_radius)

        def solve(domain, l_max):
            return cap_relative_harmonic(domain, outer_radius, l_max=l_max)
    seen = []

    def captured(A, w):
        out = _ridge_weighted_lstsq(A, w)
        seen.append((A, out[0]))
        return out

    monkeypatch.setattr(sys.modules["isocap.capacity"], "_ridge_weighted_lstsq", captured)
    res = solve(dom, l_max=L)
    (A, coef), = seen
    l_of = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    _, r, dirs = _surface_polar(dom, 2 * L)
    assert A.tobytes() == (harmonic_basis(L, dirs) * radial(l_of, r[:, None])).tobytes()
    _, rf, df = _surface_polar(dom, 4 * L + 8)
    fit = (harmonic_basis(L, df) * radial(l_of, rf[:, None])) @ coef
    assert res.max_residual == float(np.abs(fit - 1.0).max())


def test_relative_harmonic_ball():
    res = cap_relative_harmonic(ball(1.0), 2.0, l_max=8)
    assert res.value == pytest.approx(8.0 * math.pi, rel=1e-12)


def test_relative_harmonic_eccentric_shell_oracle():
    a, b, c = 0.6, 2.0, 0.15
    truth = eccentric_shell_cap(a, b, c)
    res = cap_relative_harmonic(ball(a, center=(c, 0.0, 0.0)), b,
                                l_max=14)
    assert res.value == pytest.approx(truth, rel=1e-9)


def test_relative_approaches_absolute_for_large_shell():
    dom = ellipsoid(0.1)
    absval = cap_exterior_harmonic(dom, l_max=12).value
    # the gap decays like 1/R: still ~2% at R=50, below 1e-3 at R=2000
    rel50 = cap_relative_harmonic(dom, 50.0, l_max=12).value
    rel2000 = cap_relative_harmonic(dom, 2000.0, l_max=12).value
    assert rel50 > absval
    assert (rel50 - absval) / absval == pytest.approx(0.0206, abs=0.005)
    assert (rel2000 - absval) / absval < 1e-3


def test_relative_requires_domain_inside_shell():
    with pytest.raises(GeometryError):
        cap_relative_harmonic(ball(1.0), 1.05)


# ---------------------------------------------------------------------------
# walk on spheres
# ---------------------------------------------------------------------------


def test_counter_rng_stateless_and_uniform():
    ids = np.arange(50000, dtype=np.uint64)
    u = counter_uniform(3, ids, 7, 1)
    v = counter_uniform(3, ids, 7, 1)
    npt.assert_array_equal(u, v)
    w = counter_uniform(3, ids, 8, 1)
    assert np.abs(u - w).max() > 0.1  # different stream
    assert np.all((0.0 <= u) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_counter_uniform_known_answer():
    # the stream as the unstaged hash chain wrote it; the WoS loop and
    # every golden that rests on it depend on these exact values
    u = counter_uniform(3, np.arange(8, dtype=np.uint64), 7, 1)
    npt.assert_array_equal(u, [0.7634895079882582, 0.2581576865811618,
                               0.7034915747513748, 0.6267591062479839,
                               0.1970857090413577, 0.43666734805064744,
                               0.9957085630971915, 0.21085445798509828])


def _unstaged_uniform(seed, walk, step, slot):
    """The hash chain in one piece, as counter_uniform first wrote it."""
    def mix(x):
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
        return x ^ (x >> np.uint64(33))

    gold = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        h = mix(np.asarray(np.uint64(seed) + gold))
        h = mix(np.asarray(walk, dtype=np.uint64) ^ (h + gold))
        h = mix(np.uint64(step) ^ (h + gold))
        h = mix(np.uint64(slot) ^ (h + gold))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


@pytest.mark.parametrize("seed", [0, 3, 2**63 + 5, 2**64 - 1])
def test_staged_hash_matches_the_unstaged_chain(seed):
    ids = np.concatenate([np.arange(4096, dtype=np.uint64),
                          np.array([2**32, 2**63, 2**64 - 1], dtype=np.uint64)])
    for step in (0, 1, 7, 9999):
        for slot in range(5):
            npt.assert_array_equal(counter_uniform(seed, ids, step, slot),
                                   _unstaged_uniform(seed, ids, step, slot))
    assert counter_uniform(seed, 5, 7, 1) == _unstaged_uniform(seed, 5, 7, 1)


def _star_member():
    return generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=1))[0][2]


@pytest.mark.parametrize("block_size", [250, 8192])
def test_wos_random_star_known_answer(block_size, monkeypatch):
    monkeypatch.setattr(sys.modules["isocap.capacity"], "_WOS_BLOCK", block_size)
    res = cap_wos(_star_member(), WosConfig(num_walks=1000, seed=3))
    assert res.value == 12.780738586975538
    assert res.error_estimate == 0.81074641274984


def test_wos_pool_size_changes_no_bit(monkeypatch):
    # walkers leave the pool and the next walk ids take their places; no
    # pass carries more walkers than the pool holds, and the estimate is
    # the same for any pool size
    module = sys.modules["isocap.capacity"]
    step_keys = module._step_keys
    widest = []

    def counted(walk_keys, step):
        widest[-1] = max(widest[-1], len(walk_keys))
        return step_keys(walk_keys, step)

    monkeypatch.setattr(module, "_step_keys", counted)
    dom, cfg = _star_member(), WosConfig(num_walks=300, seed=3)
    results = []
    for pool in (1, 7, 64, 8192):
        monkeypatch.setattr(module, "_WOS_BLOCK", pool)
        widest.append(0)
        results.append(cap_wos(dom, cfg))
        assert widest[-1] == min(pool, 300)
    for res in results[1:]:
        assert (res.value, res.error_estimate) == (results[0].value, results[0].error_estimate)


def test_wos_memory_is_set_by_the_pool_not_the_walk_count():
    # NumPy reports its buffers to tracemalloc; five times the walks may
    # not cost more than a quarter more memory at the peak
    def peak(walks):
        tracemalloc.start()
        try:
            cap_wos(ball(1.0), WosConfig(num_walks=walks, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)
    assert peak(40000) <= 1.25 * peak(8192)


def test_wos_killed_walkers_known_answer(monkeypatch):
    # with the step cap lowered, walkers are killed: the count of
    # unresolved walks, and the error term they add, are pinned
    dom = _star_member()
    comps = [_WosComponent(dom)]
    a, eps = 4.0 * dom.enclosing_radius, 1e-4 * dom.enclosing_radius
    module = sys.modules["isocap.capacity"]
    monkeypatch.setattr(module, "_WOS_MAX_STEPS", 5)
    assert _run_walks(comps, 1000, 3, a, eps) == (0, 540)
    monkeypatch.setattr(module, "_WOS_MAX_STEPS", 40)
    assert _run_walks(comps, 1000, 3, a, eps) == (32, 199)
    # a walker admitted after others have left gets the whole step budget
    # of its own: a loop that counted steps over the call would kill it early
    monkeypatch.setattr(module, "_WOS_BLOCK", 250)
    assert _run_walks(comps, 1000, 3, a, eps) == (32, 199)
    monkeypatch.setattr(module, "_WOS_MAX_STEPS", 5)
    assert _run_walks(comps, 1000, 3, a, eps) == (0, 540)
    monkeypatch.setattr(module, "_WOS_MAX_STEPS", 40)
    res = cap_wos(dom, WosConfig(num_walks=1000, seed=3))
    assert res.value == 2.044918173916086
    assert res.error_estimate == 13.072885287119284


@pytest.mark.parametrize("kwargs", [
    dict(seed=-1), dict(seed=2**64), dict(num_walks=0), dict(num_walks=-5),
    dict(seed=1.5), dict(seed=1.0), dict(seed="1"), dict(seed=True),
    dict(num_walks=100.5), dict(num_walks=100.0), dict(num_walks="100"),
    dict(num_walks=True),
], ids=["seed-negative", "seed-too-large", "no-walks", "negative-walks",
        "seed-fraction", "seed-float", "seed-string", "seed-bool",
        "walks-fraction", "walks-float", "walks-string", "walks-bool"])
def test_wos_config_refuses_bad_values(kwargs):
    with pytest.raises(ConfigError):
        WosConfig(**kwargs)


def test_wos_config_takes_numpy_integers():
    want = cap_wos(ball(1.0), WosConfig(num_walks=300, seed=7))
    for walks, seed in ((np.int64(300), np.uint64(7)), (np.uint16(300), np.int32(7))):
        assert cap_wos(ball(1.0), WosConfig(num_walks=walks, seed=seed)) == want


def test_wos_config_takes_the_largest_seed():
    res = cap_wos(ball(1.0), WosConfig(num_walks=200, seed=2**64 - 1))
    assert res.value > 0.0


def _np_cross_orthonormal(w):
    """The np.cross form of `_any_orthonormal`, as a reference."""
    ref = np.zeros_like(w)
    small = np.abs(w[:, 0]) < 0.9
    ref[small, 0] = 1.0
    ref[~small, 1] = 1.0
    a = np.cross(w, ref)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_written_out_cross_products_match_np_cross_bit_for_bit():
    # edge rows: |w_x| exactly 0.9 and just below, signed zeros, the
    # poles and +-e_x, then random unit rows; bits are compared, so a
    # signed zero that differs shows
    edge = np.array([
        [0.9, 0.3, 0.4], [-0.9, 0.3, -0.4], [0.8999999999999999, 0.1, 0.2],
        [0.9, 0.0, -0.0], [-0.9, -0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [1.0, -0.0, -0.0], [-1.0, -0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        [-0.0, -0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, 1.0, -0.0], [0.0, -1.0, 0.0],
    ])
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(2000, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    w = np.vstack([edge, -edge, rows])
    bits = lambda x: x.view(np.uint64)  # noqa: E731
    # the helpers take vectors as columns, the references as rows
    npt.assert_array_equal(bits(_any_orthonormal(np.ascontiguousarray(w.T)).T),
                           bits(_np_cross_orthonormal(w)))
    v = np.vstack([edge[::-1], edge, rows[::-1]])
    npt.assert_array_equal(bits(_cross(np.ascontiguousarray(w.T), np.ascontiguousarray(v.T)).T),
                           bits(np.cross(w, v)))
    x = 3.0 * w + v
    npt.assert_array_equal(bits(_norm(np.ascontiguousarray(x.T))),
                           bits(np.linalg.norm(x, axis=1)))


def test_wos_ball_within_three_sigma():
    res = cap_wos(ball(1.0), WosConfig(num_walks=40000, seed=2))
    assert abs(res.value - FOUR_PI) <= 3.0 * res.error_estimate
    assert res.error_estimate / FOUR_PI < 0.02


def _in_threads(calls):
    """Run each (function, args) in its own thread, all at once; return
    the results in order."""
    out = [None] * len(calls)

    def run(i, fn, args):
        out[i] = fn(*args)

    threads = [threading.Thread(target=run, args=(i, fn, args))
               for i, (fn, args) in enumerate(calls)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def test_wos_deterministic_across_threads(monkeypatch):
    # the estimate is the same from the calling thread and from two
    # threads running at once, and for any block size; for a ball and
    # for the truncation experiment's two-ball composite, whose known
    # answer is pinned too
    two_balls = CompositeDomain([ball(0.99 ** (1.0 / 3.0)),
                                 ball(0.01 ** (1.0 / 3.0), center=(10.0, 0.0, 0.0))])
    cfg = WosConfig(num_walks=20000, seed=9)
    for dom in (ball(1.0), two_balls):
        a = cap_wos(dom, cfg)
        others = _in_threads([(cap_wos, (dom, cfg))] * 2)
        with monkeypatch.context() as m:
            m.setattr(sys.modules["isocap.capacity"], "_WOS_BLOCK", 3000)
            others.append(cap_wos(dom, cfg))
        for b in others:
            assert a.value == b.value
            assert a.error_estimate == b.error_estimate
    assert (a.value, a.error_estimate) == (14.53160270395708, 0.6710067313035951)


def test_wos_random_star_deterministic_across_threads(monkeypatch):
    # a non-ball member takes the synthesis path; two threads running at
    # once evaluate the same domain's harmonic series concurrently
    dom = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=1))[0][2]
    cfg = WosConfig(num_walks=1000, seed=3)
    a = cap_wos(dom, cfg)
    others = _in_threads([(cap_wos, (dom, cfg))] * 2)
    for bs in (250, 400):
        monkeypatch.setattr(sys.modules["isocap.capacity"], "_WOS_BLOCK", bs)
        others.append(cap_wos(dom, cfg))
    for b in others:
        assert a == b


def _nearest_boundary_distance(dom, q, cloud_degree=600, rounds=200):
    """Distance from each row of q (relative to the center) to the
    boundary: the nearest point of a dense boundary cloud, polished by a
    compass search over boundary directions that doubles its span after
    a move and halves it when none of its eight neighbours is nearer."""
    dirs = build_quadrature(cloud_degree).nodes
    cloud = dom.radial(dirs)[:, None] * dirs
    # |p - y|^2 up to the |p|^2 every candidate shares; picks the start only
    w = dirs[np.argmin((cloud**2).sum(axis=1) - 2.0 * q @ cloud.T, axis=1)]

    def dist(v):
        return np.linalg.norm(q - dom.radial(v)[:, None] * v, axis=1)

    best = dist(w)
    span = np.full(len(q), math.pi / cloud_degree)
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    for _ in range(rounds):
        a1 = _any_orthonormal(w.T).T
        a2 = np.cross(w, a1)
        improved = np.zeros(len(q), dtype=bool)
        for s, t in offs:
            v = w + span[:, None] * (s * a1 + t * a2)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            dv = dist(v)
            better = dv < best
            best = np.where(better, dv, best)
            w = np.where(better[:, None], v, w)
            improved |= better
        span = np.where(improved, 2.0 * span, 0.5 * span)
    return best


_STEP_CASES = [
    (0.3, 4), (0.3, 8), (0.3, 16), (0.45, 4), (0.45, 8), (0.45, 16),
    (None, None),  # ellipsoid(0.3), with its closed-form bounds
]


def _step_case(amplitude, max_degree):
    """A domain, its WoS component, cap_wos's absorption shell, and 240
    outside points p, (3, n), with their offsets q from the center and
    their radial gaps: half within 1e-3 of the surface, half up to 1.5
    away."""
    if amplitude is None:
        dom = ellipsoid(0.3)
    else:
        dom = generate_family(FamilySpec("random_star", 1, amplitude=amplitude, seed=2,
                                         max_degree=max_degree))[0][2]
    rng = np.random.default_rng(11)
    u = rng.normal(size=(240, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    gaps = np.concatenate([10.0 ** rng.uniform(-6, -3, 120), rng.uniform(1e-3, 1.5, 120)])
    q = (dom.radial(u) + gaps)[:, None] * u
    p = (dom.center_offset + q).T
    return dom, _WosComponent(dom), 1e-4 * dom.enclosing_radius, p, q, gaps


@pytest.mark.parametrize("amplitude, max_degree", _STEP_CASES)
def test_wos_step_is_a_certified_distance_bound(amplitude, max_degree):
    dom, comp, eps, p, q, gaps = _step_case(amplitude, max_degree)
    step, gap = comp.step_gap(p, _norm(p), eps)
    true = _nearest_boundary_distance(dom, q)
    # the step and radial gap of a full synthesis on every column
    r = _norm(q.T)
    full = r - dom.radial(q / r[:, None])
    want = np.maximum(full / comp.lipschitz, r - comp.rho_hi)
    skipped = np.isinf(gap)
    npt.assert_allclose(gap[~skipped], gaps[~skipped], rtol=1e-12, atol=1e-15)
    assert np.array_equal(gap[~skipped], full[~skipped])
    # a column left unsynthesised steps by the floor r - rho_hi, which is
    # what the synthesis would give bit for bit, and is not absorbed
    assert np.array_equal(step[skipped], (r - comp.rho_hi)[skipped])
    assert np.array_equal(step, want)
    assert np.all(full[skipped] > eps)
    assert np.all(step > 0.0)
    assert np.all(step <= true)
    assert np.all(true <= gap)
    assert np.all(true <= full)


def test_wos_step_skips_synthesis_only_where_the_floor_sets_it():
    # the cases above include steps of both kinds, and a skipped column
    # costs no radius: the rows synthesised are the finite gaps
    both = 0
    for case in _STEP_CASES:
        dom, comp, eps, p, _, _ = _step_case(*case)
        rows = []
        radial = dom.radial
        dom.radial = lambda dirs: rows.append(len(dirs)) or radial(dirs)
        try:
            _, gap = comp.step_gap(p, _norm(p), eps)
        finally:
            del dom.radial
        assert sum(rows) == np.count_nonzero(np.isfinite(gap)) > 0, case
        both += bool(np.isinf(gap).any())
    assert both >= 2


@pytest.mark.parametrize("dom", [
    ball(1.0), ball(0.7, center=(0.3, -1.2, 2.5)), scale_domain(ball(1.3), 0.77),
], ids=["centred", "shifted", "scaled"])
def test_wos_step_on_a_ball_is_its_gap(dom):
    # a ball's certified bounds are (r, r, 0): the Lipschitz factor is 1
    # and the step is the gap, the exact distance, bit for bit
    comp = _WosComponent(dom)
    assert comp.lipschitz == 1.0
    rng = np.random.default_rng(3)
    u = rng.normal(size=(200, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    p = (dom.center_offset + (dom.rho_max + rng.uniform(1e-9, 3.0, 200))[:, None] * u).T
    step, gap = comp.step_gap(p, _norm(p), 1e-4 * dom.enclosing_radius)
    assert np.all(gap > 0.0)
    assert np.array_equal(step, gap)


def test_wos_on_balls_keeps_its_recorded_values():
    # recorded when a ball's walks stepped by its exact distance on a
    # branch of their own: the general step must give them bit for bit
    cfg = WosConfig(num_walks=4000, seed=2)
    single = cap_wos(ball(1.0), cfg)
    pair = cap_wos(CompositeDomain([ball(1.0), ball(0.5, center=(3.0, 0.0, 0.0))]), cfg)
    assert repr(single) == ("CapacityResult(value=12.352742313915066, method='wos', "
                            "error_estimate=0.34340712776676996, max_residual=None, "
                            "condition=None)")
    assert repr(pair) == ("CapacityResult(value=15.1738925168387, method='wos', "
                          "error_estimate=0.7915320243951822, max_residual=None, "
                          "condition=None)")


def test_wos_refuses_a_radius_that_reaches_zero():
    # 1 + 1.2 cos(theta) is positive at the degree-2 rule's nodes but not
    # at the south pole, so no step can be certified
    coeffs = HarmonicCoeffs.zeros(1)
    coeffs.values[0] = math.sqrt(4.0 * math.pi)
    coeffs.values[flat_index(1, 1)] = 1.2 * math.sqrt(4.0 * math.pi / 3.0)
    quad = build_quadrature(2)
    dom = StarDomain(quad=quad, rho=synthesize(coeffs, quad.nodes), coeffs=coeffs)
    with pytest.raises(GeometryError, match="bounded away from zero"):
        cap_wos(dom, WosConfig(num_walks=100))


def test_wos_star_path_on_a_coefficient_ball_against_closed_form():
    # a ball known only by its harmonic coefficients, off the origin:
    # no exact radial callable, so every query goes through synthesis
    coeffs = HarmonicCoeffs.zeros(0)
    coeffs.values[0] = 1.3 * math.sqrt(4.0 * math.pi)
    quad = build_quadrature(16)
    dom = StarDomain(quad=quad, rho=np.full(quad.n_nodes, 1.3),
                     coeffs=coeffs, center_offset=np.array([0.4, -0.3, 0.2]))
    res = cap_wos(dom, WosConfig(num_walks=40000, seed=6))
    assert abs(res.value - cap_ball(1.3)) <= 3.0 * res.error_estimate
    assert res.error_estimate / cap_ball(1.3) < 0.02


def test_wos_ellipsoid_against_spheroid_closed_form():
    res = cap_wos(ellipsoid(0.2), WosConfig(num_walks=40000, seed=7))
    want = cap_spheroid(1.2, 1.2**-2)
    assert abs(res.value - want) <= 3.0 * res.error_estimate
    assert res.error_estimate / want < 0.02


def test_wos_two_sphere_composite_against_oracle():
    comp = CompositeDomain([ball(1.0), ball(1.0, center=(4.0, 0.0, 0.0))])
    res = cap_wos(comp, WosConfig(num_walks=60000, seed=4))
    assert abs(res.value - TWO_SPHERE_CAP_UNIT_D4) <= 3.0 * res.error_estimate
    # subadditivity: strictly below two isolated spheres
    assert res.value < 2.0 * FOUR_PI


def test_wos_scaling_law():
    # capacity scales linearly with dilation in three dimensions
    res = cap_wos(ball(2.0), WosConfig(num_walks=40000, seed=5))
    assert abs(res.value - 2.0 * FOUR_PI) <= 3.0 * res.error_estimate


# ---------------------------------------------------------------------------
# two balls in closed form: the Kelvin image series
# ---------------------------------------------------------------------------


def two_balls(a, b, d):
    return CompositeDomain([ball(a), ball(b, center=(d, 0.0, 0.0))])


# the truncation experiment's default composite: far fraction 0.01 at distance 10
TRUNCATION_PAIR = (0.99 ** (1.0 / 3.0), 0.01 ** (1.0 / 3.0), 10.0)


@pytest.mark.parametrize("a,b,d", [TRUNCATION_PAIR, (1.0, 1.0, 4.0), (1.0, 0.5, 1.6),
                                   (0.3, 2.0, 2.5), (1.0, 1.0, 2.05)],
                         ids=["truncation", "equal-d4", "unequal-close", "small-big",
                              "equal-close"])
def test_two_ball_series_matches_bispherical_sum(a, b, d, bispherical_cap):
    res = capacity(two_balls(a, b, d), solver="closed")
    want = bispherical_cap(a, b, d)
    assert abs(res.value - want) <= 1e-14 * want
    assert abs(res.value - want) <= res.error_estimate
    # resolved to rounding level
    assert res.error_estimate <= 1e-13 * want
    # the same set with the balls swapped and moved off the axis
    shift = np.array([0.3, -1.2, 0.7])
    axis = np.array([2.0, 1.0, -2.0]) / 3.0
    swapped = CompositeDomain([ball(b, center=shift), ball(a, center=shift + d * axis)])
    assert capacity(swapped, solver="closed").value == pytest.approx(want, rel=1e-14)


def test_two_ball_series_near_contact(bispherical_cap):
    # two unit balls 1e-6 apart: about 31,000 generations, still within
    # the error estimate of the bispherical sum.  The touching pair has
    # capacity 2 ln 2 * 4 pi a; the pair at gap g lies inside the
    # touching pair dilated by 1 + g / (2a), so its capacity is at most
    # that factor above the limit; and it grows with the gap, so it is no
    # less than the limit
    gap = 1e-6
    res = capacity(two_balls(1.0, 1.0, 2.0 + gap), solver="closed")
    assert abs(res.value - bispherical_cap(1.0, 1.0, 2.0 + gap)) <= res.error_estimate
    assert res.error_estimate <= 1e-8 * res.value
    touching = 2.0 * math.log(2.0) * FOUR_PI
    assert touching - res.error_estimate <= res.value
    assert res.value <= touching * (1.0 + gap / 2.0) + res.error_estimate


@pytest.mark.parametrize("d", [1e2, 1e3, 1e4])
def test_two_ball_series_far_apart(d, bispherical_cap):
    # 4 pi (a + b - 2ab/d) + O(1/d^2); the next term of the series is
    # 4 pi ab (a + b) / d^2
    a, b = 1.0, 0.5
    res = capacity(two_balls(a, b, d), solver="closed")
    assert abs(res.value - FOUR_PI * (a + b - 2.0 * a * b / d)) \
        <= FOUR_PI * 2.0 * a * b * (a + b) / d**2
    assert abs(res.value - bispherical_cap(a, b, d)) <= res.error_estimate


def test_two_ball_series_against_walk_on_spheres():
    dom = two_balls(*TRUNCATION_PAIR)
    res = capacity(dom, solver="closed")
    wos = cap_wos(dom, WosConfig(num_walks=40000, seed=11))
    assert abs(wos.value - res.value) <= 3.0 * wos.error_estimate


def test_two_ball_series_error_bounds_a_truncated_chain(monkeypatch, bispherical_cap):
    # at the generation cap the first omitted charge still bounds each
    # chain's tail: unit balls 1e-8 apart need more than the cap
    gap = 1e-8
    res = capacity(two_balls(1.0, 1.0, 2.0 + gap), solver="closed")
    err = abs(res.value - bispherical_cap(1.0, 1.0, 2.0 + gap))
    assert err > 1e-7 * res.value  # the chains did stop early
    assert err <= res.error_estimate
    # a cap lowered below what a gap of 1e-4 needs (about 3,300)
    monkeypatch.setattr(sys.modules["isocap.capacity"], "_SERIES_MAX_GENERATIONS", 1000)
    res = capacity(two_balls(1.0, 0.8, 1.8 + 1e-4), solver="closed")
    err = abs(res.value - bispherical_cap(1.0, 0.8, 1.8 + 1e-4))
    assert err > 1e-7 * res.value
    assert err <= res.error_estimate


def test_two_ball_series_refusals():
    with pytest.raises(SolverError):
        capacity(CompositeDomain([ball(1.0), ball(0.5, center=(3.0, 0.0, 0.0)),
                                  ball(0.5, center=(-3.0, 0.0, 0.0))]), solver="closed")
    star = ellipsoid(0.1)
    star.center_offset = np.array([4.0, 0.0, 0.0])
    with pytest.raises(SolverError):
        capacity(CompositeDomain([ball(1.0), star]), solver="closed")
    with pytest.raises(SolverError):
        capacity(CompositeDomain([ball(1.0)]), solver="closed")
    with pytest.raises(SolverError):
        capacity(two_balls(*TRUNCATION_PAIR), outer_radius=20.0, solver="closed")


# ---------------------------------------------------------------------------
# dispatch and deficit
# ---------------------------------------------------------------------------


def test_capacity_dispatch_closed():
    assert capacity(ball(1.0), solver="closed").value == pytest.approx(FOUR_PI)
    assert capacity(ball(1.0), outer_radius=2.0,
                    solver="closed").value == pytest.approx(8.0 * math.pi)
    with pytest.raises(SolverError):
        capacity(ellipsoid(0.1), solver="closed")
    with pytest.raises(SolverError):
        capacity(ball(1.0, center=(0.2, 0, 0)), solver="closed")


def test_capacity_dispatch_errors():
    with pytest.raises(ValueError):
        capacity(ball(1.0), solver="sorcery")
    with pytest.raises(SolverError):
        capacity(ball(1.0), outer_radius=2.0, solver="wos")
    with pytest.raises(SolverError):
        capacity(CompositeDomain([ball(1.0)]), solver="harmonic")
    for radius in (1.0, 0.5):
        for solver in ("closed", "harmonic"):
            with pytest.raises(ConfigError):
                capacity(ball(0.4), outer_radius=radius, solver=solver)
        with pytest.raises(ConfigError):
            deficit(ball(1.0), outer_radius=radius)


def test_deficit_ball_is_zero():
    d = deficit(ball(1.3))
    assert abs(d.value) <= max(d.error_estimate, 1e-9)
    assert d.scale == pytest.approx(1.0 / 1.3, rel=1e-12)


def test_deficit_of_two_balls_is_the_written_out_formula_bit_for_bit():
    # the unit-volume factor, the component-wise dilation, then the
    # closed-form capacity, as deficit computed them before
    # normalize_volume took a union
    two_balls = CompositeDomain([ball(0.9), ball(0.4, center=(3.0, 0.0, 0.0))])
    lam = (ball_volume() / volume(two_balls)) ** (1.0 / 3.0)
    scaled = CompositeDomain([scale_domain(c, lam) for c in two_balls.components])
    cap = capacity(scaled, solver="closed")
    d = deficit(two_balls, solver="closed")
    assert d.scale == lam
    assert d.capacity == cap
    assert d.value == cap.value - cap_ball(1.0)
    assert d.error_estimate == cap.error_estimate


def test_deficit_positive_for_ellipsoid():
    truth = cap_spheroid(1.2, 1.2**-2) - FOUR_PI
    # the default truncation resolves the value to a few parts in 1e5;
    # the point estimate keeps converging with l_max while the sup-norm
    # error bound grows more conservative, so check against the oracle
    d = deficit(ellipsoid(0.2))
    assert d.value == pytest.approx(truth, rel=1e-3)
    d16 = deficit(ellipsoid(0.2), l_max=16)
    assert d16.value == pytest.approx(truth, rel=1e-7)
    assert d16.value > 0


def test_deficit_relative_exceeds_absolute():
    dom = ellipsoid(0.15)
    d_abs = deficit(dom)
    d_rel = deficit(dom, outer_radius=2.0)
    assert d_rel.value > d_abs.value > 0


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.2, max_value=3.0))
def test_cap_spheroid_between_enclosing_balls(a, c):
    # monotonicity under inclusion brackets the spheroid capacity
    val = cap_spheroid(a, c)
    assert cap_ball(min(a, c)) - 1e-9 <= val <= cap_ball(max(a, c)) + 1e-9


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=0, max_value=1000))
def test_counter_rng_range(seed, stratum):
    ids = np.arange(64, dtype=np.uint64)
    u = counter_uniform(seed, ids, stratum, 0)
    assert np.all((0.0 <= u) & (u < 1.0))
