"""Spectral second-variation forms, penalties, and Taylor checks."""

import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocap.capacity import cap_ball
from isocap.domains import (FamilySpec, barycenter, generate_family,
                            nearly_spherical_from_phi)
from isocap.errors import ConfigError, GeometryError
from isocap.sphere import HarmonicCoeffs, ball_volume
from isocap.stability import (ball_profile, dtn, f_eta, h_half_norm, project_barycenter,
                              second_variation, spectrum_table, taylor_check)

ABS = None
REL2 = 2.0


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann eigenvalues
# ---------------------------------------------------------------------------


def test_dtn_exterior_values():
    assert dtn(0) == 1.0
    assert dtn(1) == 2.0
    assert dtn(5) == 6.0
    with pytest.raises(ValueError):
        dtn(-1)


def test_dtn_relative_exact_fractions():
    assert dtn(0, outer_radius=2.0) == 2.0  # 1 + 1/(2-1)
    assert dtn(1, outer_radius=2.0) == pytest.approx(17.0 / 7.0, rel=1e-15)
    assert dtn(2, outer_radius=2.0) == pytest.approx(98.0 / 31.0, rel=1e-15)
    with pytest.raises(ValueError):
        dtn(1, outer_radius=1.0)
    with pytest.raises(ValueError):
        dtn(-2, 2.0)


def test_dtn_relative_approaches_exterior():
    # gap is (2l+1)/(R^(2l+1)-1): about 3e-18 for l=1 at R=1e6 (which
    # rounds to exactly zero in doubles), but a full 1/(R-1) for l=0
    for l in range(1, 7):
        gap = dtn(l, outer_radius=1e6) - dtn(l)
        assert 0.0 <= gap < 1e-10
    gap0 = dtn(0, outer_radius=1e6) - dtn(0)
    assert gap0 == pytest.approx(1.0 / (1e6 - 1.0), rel=1e-9)
    # at moderate radii the ordering is visibly strict
    assert dtn(1, outer_radius=2.0) > dtn(1)


# ---------------------------------------------------------------------------
# outer radius validation
# ---------------------------------------------------------------------------


def test_form_spec_validation():
    # an outer radius must enclose the unit ball: R = 1 is refused before
    # the shell prefactor divides by 1 - 1/R, by every form
    phi = HarmonicCoeffs.single(2, 2, 1.0)
    for form in (second_variation, h_half_norm,
                 lambda p, R: taylor_check(p, (0.01,), R)):
        with pytest.raises(ConfigError, match="exceed 1"):
            form(phi, 1.0)
    with pytest.raises(ConfigError, match="exceed 1"):
        spectrum_table(4, 1.0)


# ---------------------------------------------------------------------------
# second variation and boundary norm
# ---------------------------------------------------------------------------


def test_second_variation_mode_values():
    a = 0.7
    # volume mode: weight 2 * (1 - 2) = -2
    assert second_variation(HarmonicCoeffs.single(0, 0, a), ABS) == pytest.approx(
        -2.0 * a * a, rel=1e-14)
    # translation modes carry zero weight in absolute mode
    for slot in range(3):
        assert second_variation(HarmonicCoeffs.single(1, slot, a), ABS) == 0.0
    # degree 2: weight 2 * (3 - 2) = 2
    assert second_variation(HarmonicCoeffs.single(2, 2, a), ABS) == pytest.approx(
        2.0 * a * a, rel=1e-14)


def test_second_variation_relative_translation():
    # shell prefactor 2 * q^2 = 8 at R = 2; weight 8 * (17/7 - 2) = 24/7
    a = 0.3
    got = second_variation(HarmonicCoeffs.single(1, 1, a), REL2)
    assert got == pytest.approx(24.0 / 7.0 * a * a, rel=1e-14)


def test_second_variation_additive_over_degrees():
    phi = HarmonicCoeffs.zeros(3)
    phi.degree_slice(0)[0] = 0.2
    phi.degree_slice(2)[1] = -0.4
    phi.degree_slice(3)[4] = 0.1
    parts = sum(
        second_variation(HarmonicCoeffs.single(l, j, phi.degree_slice(l)[j]), ABS)
        for l, j in ((0, 0), (2, 1), (3, 4)))
    assert second_variation(phi, ABS) == pytest.approx(parts, rel=1e-13)


def test_h_half_norm_values():
    a = 0.5
    # abs degree 2: 1 + lambda = 4
    assert h_half_norm(HarmonicCoeffs.single(2, 2, a), ABS) == pytest.approx(
        4.0 * a * a, rel=1e-14)
    # rel degree 1 at R = 2: 1 + 17/7 = 24/7
    assert h_half_norm(HarmonicCoeffs.single(1, 1, a), REL2) == pytest.approx(
        24.0 / 7.0 * a * a, rel=1e-14)


def test_spectrum_table_shape_and_signs():
    tab = spectrum_table(6, ABS)
    assert [e.degree for e in tab] == list(range(7))
    assert tab[0].form_eigenvalue < 0
    assert tab[1].form_eigenvalue == 0.0
    assert all(e.form_eigenvalue > 0 for e in tab[2:])
    energies = [e.energy_eigenvalue for e in tab]
    assert energies == sorted(energies)
    rel = spectrum_table(6, REL2)
    for e_abs, e_rel in zip(tab, rel):
        assert e_rel.energy_eigenvalue > e_abs.energy_eigenvalue
        assert e_rel.form_eigenvalue > e_abs.form_eigenvalue


# ---------------------------------------------------------------------------
# volume penalty and the penalized ball profile
# ---------------------------------------------------------------------------


def test_f_eta_shape():
    w = ball_volume()
    eta = 0.05
    assert f_eta(w, eta) == 0.0
    assert f_eta(w - 0.1, eta) == pytest.approx(0.1 / eta, rel=1e-12)
    assert f_eta(w + 0.1, eta) == pytest.approx(-eta * 0.1, rel=1e-12)
    with pytest.raises(ConfigError):
        f_eta(w, 0.0)
    with pytest.raises(ValueError):
        f_eta(-1.0, eta)


def test_ball_profile_minimum_at_unit_radius():
    grid = np.linspace(0.5, 1.5, 101)
    rep = ball_profile(grid, outer_radius=2.0, eta=0.01)
    assert rep.argmin_radius == 1.0
    assert rep.center_value == pytest.approx(cap_ball(1.0, 2.0), rel=1e-14)
    assert rep.linear_constant > 0.0
    assert rep.values.shape == grid.shape


def test_ball_profile_refuses_a_bad_outer_radius():
    # refused as every other entry point refuses it, before any work:
    # R <= 1 does not enclose the unit ball, and None is the absolute
    # problem, which has no profile
    with pytest.raises(ConfigError):
        ball_profile([0.5, 0.9], 0.95, 0.01)
    with pytest.raises(ConfigError):
        ball_profile([0.5, 1.0, 1.5], None, 0.01)


def test_ball_profile_grid_validation():
    with pytest.raises(ConfigError):
        ball_profile([1.0], outer_radius=2.0, eta=0.01)
    with pytest.raises(ConfigError):
        ball_profile([0.5, 2.5], outer_radius=2.0, eta=0.01)
    with pytest.raises(ConfigError):
        ball_profile(np.ones((2, 2)), outer_radius=2.0, eta=0.01)


# ---------------------------------------------------------------------------
# barycenter projection and Taylor ladders
# ---------------------------------------------------------------------------


def test_project_barycenter_reaches_tolerance():
    fam = generate_family(FamilySpec("random_star", 1, amplitude=0.12, seed=11))
    phi = fam[0][3]
    projected, dom = project_barycenter(phi)
    npt.assert_array_equal(dom.rho, nearly_spherical_from_phi(projected).rho)
    assert float(np.linalg.norm(barycenter(dom))) < 1e-10
    again, _ = project_barycenter(projected)
    npt.assert_allclose(again.values, projected.values, atol=1e-9)


def test_project_barycenter_refuses_a_perturbation_over_the_bound(monkeypatch):
    # the dense sup-norm check runs on the phi given, before any round builds
    stability = sys.modules["isocap.stability"]
    monkeypatch.setattr(stability, "_nearly_spherical", lambda phi: pytest.fail("built"))
    with pytest.raises(GeometryError, match="sup-norm bound 1/2"):
        project_barycenter(HarmonicCoeffs.single(2, 2, 2.0))


def test_taylor_check_quadratic_match():
    phi = HarmonicCoeffs.single(2, 2, 1.0)
    rows = taylor_check(phi, (0.02, 0.01, 0.005), ABS)
    assert [r.t for r in rows] == [0.02, 0.01, 0.005]
    for r in rows:
        assert r.form_half == pytest.approx(r.t**2, rel=1e-14)  # S = 2 here
        assert r.deficit > 0
        assert r.deficit_error < 1e-6
    ratios = [abs(r.remainder_ratio) for r in rows]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] <= 1e-3


def test_taylor_check_rejects_nonpositive_ladder():
    phi = HarmonicCoeffs.single(2, 2, 1.0)
    with pytest.raises(ConfigError):
        taylor_check(phi, (0.02, -0.01), ABS)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=1.01, max_value=1e5))
def test_dtn_relative_dominates_exterior(l, R):
    # ">=" because the gap underflows to zero for large degree and radius
    assert dtn(l, outer_radius=R) >= dtn(l)


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=1e-3, max_value=0.9))
def test_f_eta_sandwich(s, t, eta):
    s, t = sorted((s, t))
    assert eta * (t - s) <= f_eta(s, eta) - f_eta(t, eta) + 1e-12
