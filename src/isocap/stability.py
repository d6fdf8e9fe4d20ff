"""Spectral second-variation machinery.

The harmonic extension of a boundary perturbation diagonalises over
spherical harmonics, so the quadratic forms behind the stability
estimates reduce to weighted coefficient sums: one weight per degree,
given by the Dirichlet-to-Neumann eigenvalue of the exterior or shell
problem.  This module computes those eigenvalues and forms, the
fractional boundary norm built from them, a volume penalty, the
penalized relative-capacity ball profile, and a Taylor-remainder table
comparing solver deficits against the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import _check_outer_radius, cap_ball, deficit
from .domains import (StarDomain, _check_sup_norm, _nearly_spherical, barycenter,
                      nearly_spherical_from_phi)
from .errors import ConfigError, SolverError
from .sphere import HarmonicCoeffs, ball_volume

__all__ = [
    "SpectrumEntry",
    "dtn",
    "second_variation",
    "h_half_norm",
    "spectrum_table",
    "f_eta",
    "ball_profile",
    "ProfileReport",
    "project_barycenter",
    "taylor_check",
    "TaylorRow",
]

_PROJECTION_TOL = 1e-10  # barycenter norm at which project_barycenter stops
_PROJECTION_MAX_ROUNDS = 30


@dataclass(frozen=True)
class SpectrumEntry:
    degree: int
    energy_eigenvalue: float  # Dirichlet-to-Neumann value at this degree
    form_eigenvalue: float  # second-variation weight, zero at degree 1 (abs)


def dtn(l: int, outer_radius: float | None = None) -> float:
    """Dirichlet-to-Neumann eigenvalue at degree l.

    outer_radius None is the exterior problem: the degree-l mode is
    r^-(l+1), so the eigenvalue is l + 1, which equals 2 at l = 1, the
    translation mode.  For R > 1 it is the shell problem in B_R: the
    degree-l mode vanishing on the outer sphere is
    -r^l / k + (1 + 1/k) r^-(l+1) with k = R^(2l+1) - 1, giving
    (l + 1) + (2l + 1)/k, which decreases to the exterior value as R
    grows.
    """
    if l < 0:
        raise ValueError("degree must be nonnegative")
    if outer_radius is None:
        return float(l + 1)
    _check_outer_radius(outer_radius)
    k = outer_radius ** (2 * l + 1) - 1.0
    return float((l + 1) + (2 * l + 1) / k)


def _prefactor(outer_radius: float | None) -> float:
    # The shell prefactor is the SQUARE of the flux normalisation
    # q = 1/(1 - 1/R): the first-order potential response to a
    # boundary perturbation phi is the shell extension of q*phi,
    # so its energy carries q^2.  Cross-checked against an image-charge
    # solution for the eccentric spherical capacitor.
    if outer_radius is None:
        return 2.0
    _check_outer_radius(outer_radius)
    return 2.0 / (1.0 - outer_radius ** -1) ** 2


def second_variation(phi: HarmonicCoeffs, outer_radius: float | None = None) -> float:
    """Second variation of capacity at the unit ball in direction phi.

    outer_radius None is the absolute problem; a radius R > 1 the
    problem relative to B_R.  Diagonal sum prefactor * sum_l |phi_l|^2
    (lambda_l - 2); the degree-1 weight vanishes in the absolute problem
    (translations) and the degree-0 weight is negative (volume changes),
    which is why the stability statements fix the volume and, in the
    absolute problem, the barycenter.
    """
    pre = _prefactor(outer_radius)
    out = 0.0
    for l in range(phi.max_degree + 1):
        a2 = float(np.sum(phi.degree_slice(l) ** 2))
        if a2 != 0.0:
            out += a2 * (dtn(l, outer_radius) - 2)
    return pre * out


def h_half_norm(phi: HarmonicCoeffs, outer_radius: float | None = None) -> float:
    """Squared boundary norm: L^2 part plus the extension's energy.

    Spectrally sum_l |phi_l|^2 (1 + lambda_l), which dominates the
    plain L^2 norm since every eigenvalue is positive.
    """
    out = 0.0
    for l in range(phi.max_degree + 1):
        a2 = float(np.sum(phi.degree_slice(l) ** 2))
        if a2 != 0.0:
            out += a2 * (1.0 + dtn(l, outer_radius))
    return out


def spectrum_table(max_degree: int,
                   outer_radius: float | None = None) -> list[SpectrumEntry]:
    """Eigenvalue and form-weight table through max_degree >= 0."""
    if max_degree < 0:
        raise ConfigError(f"the table's degree must be at least 0, got {max_degree}")
    pre = _prefactor(outer_radius)
    out = []
    for l in range(max_degree + 1):
        lam = dtn(l, outer_radius)
        out.append(SpectrumEntry(degree=l, energy_eigenvalue=lam,
                                 form_eigenvalue=pre * (lam - 2)))
    return out


# ---------------------------------------------------------------------------
# volume penalty and the penalized ball profile
# ---------------------------------------------------------------------------


def f_eta(s: float, eta: float) -> float:
    """Piecewise-linear volume penalty, zero at the unit-ball volume.

    Slope -1/eta below the ball volume and -eta above it, so
    eta * (t - s) <= f_eta(s) - f_eta(t) holds for every s <= t.
    """
    if not 0.0 < eta < math.inf:
        raise ConfigError(f"eta must be positive and finite, got {eta!r}")
    if s < 0:
        raise ValueError("volume must be nonnegative")
    gap = s - ball_volume()
    if gap <= 0:
        return -gap / eta
    return -eta * gap


@dataclass(frozen=True)
class ProfileReport:
    radii: np.ndarray
    values: np.ndarray
    argmin_radius: float
    center_value: float  # value at radius 1
    linear_constant: float  # min over r != 1 of (g(r) - g(1)) / |r - 1|


def ball_profile(radii, outer_radius: float, eta: float) -> ProfileReport:
    """Penalized relative capacity of centered balls along a radius grid.

    g(r) = cap_ball(r, R) + f_eta(ball volume at r).  For small eta
    the grid minimum sits at r = 1 and g grows at least linearly away
    from it; the report carries the empirical linear-growth constant.
    The profile exists only in the relative problem, so outer_radius
    must be given.
    """
    if outer_radius is None:
        raise ConfigError("the ball profile is relative to B_R: give an outer radius")
    _check_outer_radius(outer_radius)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ConfigError("need a one-dimensional grid of radii")
    if np.any(radii <= 0) or np.any(radii >= outer_radius):
        raise ConfigError("grid radii must lie strictly between 0 and R")
    vals = np.array([
        cap_ball(r, outer_radius) + f_eta(ball_volume(r), eta)
        for r in radii
    ])
    g1 = cap_ball(1.0, outer_radius)
    off = np.abs(radii - 1.0) > 1e-12
    ratios = (vals[off] - g1) / np.abs(radii[off] - 1.0)
    return ProfileReport(radii=radii, values=vals,
                         argmin_radius=float(radii[np.argmin(vals)]),
                         center_value=g1,
                         linear_constant=float(ratios.min()))


# ---------------------------------------------------------------------------
# Taylor comparison of solver deficits against the quadratic form
# ---------------------------------------------------------------------------


def project_barycenter(phi: HarmonicCoeffs) -> tuple[HarmonicCoeffs, StarDomain]:
    """Adjust degree-1 coefficients so the generated domain is centered.

    Products of higher harmonics leak into degree 1, so zeroing the
    coefficients once leaves a residual barycenter; subtracting the
    first-order translation response converges linearly at a rate
    proportional to the perturbation size (two rounds suffice only for
    very small phi, so this iterates to the tolerance instead).

    Returns the adjusted phi and its domain, nearly_spherical_from_phi(phi).
    The dense sup-norm check runs on the phi given and the phi returned,
    not on the rounds between.
    """
    _check_sup_norm(phi)
    out = phi.copy()
    for _ in range(_PROJECTION_MAX_ROUNDS):
        dom = _nearly_spherical(out)
        x = barycenter(dom)
        if float(np.linalg.norm(x)) < _PROJECTION_TOL:
            _check_sup_norm(out)
            return out, dom
        sl = out.degree_slice(1)
        # a translation by v shifts the radial graph by v . omega at
        # first order; in this basis the degree-1 slots carry
        # (-y, +z, -x) times sqrt(4 pi / 3)
        c = math.sqrt(4.0 * math.pi / 3.0)
        sl[:] -= c * np.array([-x[1], x[2], -x[0]])
    raise SolverError("barycenter projection did not reach tolerance "
                      f"{_PROJECTION_TOL} in {_PROJECTION_MAX_ROUNDS} rounds")


@dataclass(frozen=True)
class TaylorRow:
    t: float
    deficit: float
    deficit_error: float
    form_half: float  # (t^2 / 2) * second_variation(phi)
    remainder_ratio: float  # (deficit - form_half) / t^2


def taylor_check(phi: HarmonicCoeffs, t_ladder, outer_radius: float | None = None,
                 l_max: int = 8) -> list[TaylorRow]:
    """Deficit of domains 1 + t*phi against the second-variation form.

    For each t, in ladder order, the domain is built volume-corrected,
    the deficit solved with the harmonic solver, and the remainder
    (deficit - t^2/2 * form) reported relative to t^2; the ratios must
    shrink as t does when the form matches the true second variation.
    """
    s2 = second_variation(phi, outer_radius)

    def row(t: float) -> TaylorRow:
        scaled = phi.copy()
        scaled.values *= t
        dom = nearly_spherical_from_phi(scaled)
        d = deficit(dom, outer_radius, solver="harmonic", l_max=l_max)
        half = 0.5 * t * t * s2
        return TaylorRow(t=float(t), deficit=d.value, deficit_error=d.error_estimate,
                         form_half=half, remainder_ratio=(d.value - half) / t**2)

    ts = [float(t) for t in t_ladder]
    if not all(0.0 < t < math.inf for t in ts):
        raise ConfigError(f"ladder values must be positive and finite, got {ts}")
    return [row(t) for t in ts]
