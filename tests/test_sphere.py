"""Quadrature, harmonic basis, and coefficient-layout tests."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, lpmv

from isocap.sphere import (HarmonicCoeffs, _polar, ball_volume, build_quadrature, expand,
                           flat_index, harmonic_basis, sphere_area, synthesize)


def test_sphere_area_and_ball_volume():
    assert sphere_area() == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert ball_volume() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert ball_volume(2.0) == pytest.approx(32.0 * math.pi / 3.0, rel=1e-15)


def test_quadrature_weights_sum_to_area():
    for deg in (0, 1, 5, 16, 33):
        quad = build_quadrature(deg)
        assert quad.weights.sum() == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert np.all(quad.weights > 0)
        npt.assert_allclose(np.linalg.norm(quad.nodes, axis=1), 1.0,
                            atol=1e-14)


def test_quadrature_polynomial_exactness():
    quad = build_quadrature(8)
    x, y, z = quad.nodes.T
    w = quad.weights
    # odd monomials vanish, even ones have closed forms
    assert abs(w @ x) < 1e-13
    assert abs(w @ (x * y * z)) < 1e-13
    assert w @ z**2 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
    assert w @ z**4 == pytest.approx(4.0 * math.pi / 5.0, rel=1e-13)
    assert w @ (x**2 * y**2) == pytest.approx(4.0 * math.pi / 15.0, rel=1e-13)
    assert w @ z**8 == pytest.approx(4.0 * math.pi / 9.0, rel=1e-13)


def test_quadrature_antipodal_symmetry():
    quad = build_quadrature(12)
    # every node's antipode is also a node: odd functions integrate to 0
    x, y, z = quad.nodes.T
    assert abs(quad.weights @ (x**3 * z**2)) < 1e-13


def test_harmonic_basis_orthonormal():
    L = 6
    quad = build_quadrature(2 * L)
    B = harmonic_basis(L, quad.nodes)
    gram = (B * quad.weights[:, None]).T @ B
    npt.assert_allclose(gram, np.eye((L + 1) ** 2), atol=5e-13)


def reference_basis(max_degree, dirs):
    """The basis by scipy's lpmv, one (l, m) at a time, as an oracle."""
    z = np.clip(dirs[:, 2], -1.0, 1.0)
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    out = np.empty((dirs.shape[0], (max_degree + 1) ** 2))
    for l in range(max_degree + 1):
        for m in range(l + 1):
            k = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                          * math.exp(gammaln(l - m + 1) - gammaln(l + m + 1)))
            p = k * lpmv(m, l, z)
            if m == 0:
                out[:, flat_index(l, l)] = p
            else:
                out[:, flat_index(l, l + m)] = math.sqrt(2.0) * p * np.cos(m * phi)
                out[:, flat_index(l, l - m)] = math.sqrt(2.0) * p * np.sin(m * phi)
    return out


def directions(n, seed):
    """Random unit rows, then the poles and eight points on the equator."""
    d = np.random.default_rng(seed).normal(size=(n, 3))
    t = np.arange(8) * math.pi / 4.0
    equator = np.column_stack([np.cos(t), np.sin(t), np.zeros(8)])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    return np.vstack([d / np.linalg.norm(d, axis=1, keepdims=True), poles, equator])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polar_powers_match_complex_powers(seed):
    # C + iS = (x + iy)^m by the real recurrence, to m ulps of its modulus
    # sin^m theta; at the poles x = y = 0 makes every power exactly 0
    d = directions(500, seed)
    z, C, S = _polar(d, 32)
    assert np.array_equal(z, d[:, 2])
    assert C.shape == S.shape == (32, len(d))
    w = d[:, 0] + 1j * d[:, 1]
    for m in range(1, 33):
        ref = w**m
        tol = 2 * m * np.finfo(float).eps * np.abs(w) ** m
        assert np.all(np.abs(C[m - 1] - ref.real) <= tol), m
        assert np.all(np.abs(S[m - 1] - ref.imag) <= tol), m
    poles = (d[:, 0] == 0.0) & (d[:, 1] == 0.0)
    assert np.count_nonzero(poles) == 2
    assert np.all(C[:, poles] == 0.0) and np.all(S[:, poles] == 0.0)
    # the equator points are the unit complex numbers e^{i t}
    npt.assert_allclose(np.abs(C[:, -8:] + 1j * S[:, -8:]), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("L", [0, 1, 2, 8, 16, 32])
def test_harmonic_basis_matches_lpmv_reference(L):
    d = directions(500, L)
    npt.assert_allclose(harmonic_basis(L, d), reference_basis(L, d), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [0, 1, 5000])
@pytest.mark.parametrize("L", [0, 8])
def test_synthesize_matches_basis_product(L, n):
    c = HarmonicCoeffs.zeros(L)
    c.values[:] = np.random.default_rng(n).normal(size=c.values.size)
    d = directions(4990, L)[:n]  # 5,000 rows with the poles and equator last
    f = synthesize(c, d)
    assert f.shape == (n,)
    npt.assert_allclose(f, harmonic_basis(L, d) @ c.values, rtol=0, atol=1e-13)


def test_flat_index_layout():
    assert flat_index(0, 0) == 0
    assert flat_index(1, 0) == 1
    assert flat_index(2, 4) == 8
    with pytest.raises(ValueError):
        flat_index(2, 5)
    with pytest.raises(ValueError):
        flat_index(1, -1)


def test_degree_slice_is_view():
    c = HarmonicCoeffs.zeros(3)
    c.degree_slice(2)[:] = 1.0
    assert c.values[4:9].sum() == 5.0
    assert c.values[:4].sum() == 0.0


def test_expand_synthesize_roundtrip():
    rng = np.random.default_rng(7)
    c = HarmonicCoeffs.zeros(5)
    c.values[:] = rng.normal(size=c.values.size)
    quad = build_quadrature(16)
    samples = synthesize(c, quad.nodes)
    back = expand(samples, 5, quad)
    npt.assert_allclose(back.values, c.values, atol=1e-12)


def test_coordinate_functions_in_degree_one_slots():
    """The degree-1 slots carry (x, y, z) up to sign and normalisation.

    This freezes the basis convention the barycenter projection relies
    on: each coordinate occupies exactly one slot with coefficient of
    magnitude sqrt(4 pi / 3).
    """
    quad = build_quadrature(8)
    k = math.sqrt(4.0 * math.pi / 3.0)
    expected_slot = {0: 2, 1: 0, 2: 1}  # x -> (1,2), y -> (1,0), z -> (1,1)
    expected_sign = {0: -1.0, 1: -1.0, 2: 1.0}
    for axis in range(3):
        c = expand(quad.nodes[:, axis], 1, quad)
        sl = c.degree_slice(1)
        hot = int(np.argmax(np.abs(sl)))
        assert hot == expected_slot[axis]
        assert sl[hot] == pytest.approx(expected_sign[axis] * k, rel=1e-13)
        # the other two slots and the constant are empty
        assert np.abs(np.delete(sl, hot)).max() < 1e-14
        assert abs(c.values[0]) < 1e-14


def test_single_and_coefficient_access():
    c = HarmonicCoeffs.single(2, 2, 0.5, max_degree=4)
    assert c.max_degree == 4
    assert c.coefficient(2, 2) == 0.5


def test_synthesize_single_harmonic_l2_norm():
    # an orthonormal basis function has squared integral 1
    quad = build_quadrature(12)
    for (l, m) in [(0, 0), (1, 1), (2, 0), (3, 5)]:
        f = synthesize(HarmonicCoeffs.single(l, m), quad.nodes)
        assert quad.weights @ f**2 == pytest.approx(1.0, rel=1e-12)


def test_build_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        build_quadrature(-1)


@pytest.mark.parametrize("degree", [0, 16, 128])
def test_build_quadrature_is_shared_and_read_only(degree):
    quad = build_quadrature(degree)
    assert build_quadrature(degree) is quad
    for arr in (quad.nodes, quad.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
       st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
       st.floats(min_value=0.1, max_value=4.0, allow_nan=False))
def test_synthesize_is_linear(a, b, z):
    quad = build_quadrature(8)
    c1 = HarmonicCoeffs.single(2, 1, a)
    c2 = HarmonicCoeffs.single(2, 1, b)
    lhs = synthesize(c1, quad.nodes) * z + synthesize(c2, quad.nodes)
    c3 = HarmonicCoeffs.single(2, 1, a * z + b)
    npt.assert_allclose(lhs, synthesize(c3, quad.nodes), atol=1e-11)
