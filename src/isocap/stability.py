"""Spectral second-variation machinery.

The harmonic extension of a boundary perturbation diagonalises over
spherical harmonics, so the quadratic forms behind the stability
estimates reduce to weighted coefficient sums: one weight per degree,
given by the Dirichlet-to-Neumann eigenvalue of the exterior or shell
problem.  This module computes those eigenvalues and forms, the
fractional boundary norm built from them, the volume penalty used by
the penalized functionals, the relative-capacity ball profile, and a
Taylor-remainder table comparing solver deficits against the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymmetry import alpha, alpha_R
from .capacity import SolverConfig, cap_ball_rel, capacity, deficit
from .domains import barycenter, nearly_spherical_from_phi, volume
from .errors import ConfigError, SolverError
from .sphere import HarmonicCoeffs, ball_volume

__all__ = [
    "QuadraticFormSpec",
    "SpectrumEntry",
    "dtn_exterior",
    "dtn_relative",
    "second_variation",
    "h_half_norm",
    "spectrum_table",
    "f_eta",
    "penalized",
    "penalized_j",
    "ball_profile",
    "ProfileReport",
    "project_barycenter",
    "taylor_check",
    "TaylorRow",
]


@dataclass(frozen=True)
class QuadraticFormSpec:
    """Problem selector for the spectral forms.

    mode 'abs' is the exterior problem; 'rel' is the shell problem
    inside the ball of outer_radius.
    """

    dimension: int = 3
    mode: str = "abs"
    outer_radius: float | None = None

    def __post_init__(self):
        if self.dimension < 3:
            raise ConfigError("spectral forms need dimension >= 3")
        if self.mode not in ("abs", "rel"):
            raise ConfigError(f"mode must be 'abs' or 'rel', got {self.mode!r}")
        if self.mode == "rel":
            if self.outer_radius is None or self.outer_radius <= 1.0:
                raise ConfigError("relative mode needs outer_radius > 1")
        elif self.outer_radius is not None:
            raise ConfigError("absolute mode takes no outer_radius")


@dataclass(frozen=True)
class SpectrumEntry:
    degree: int
    energy_eigenvalue: float  # Dirichlet-to-Neumann value at this degree
    form_eigenvalue: float  # second-variation weight, zero at degree 1 (abs)


def dtn_exterior(l: int, dimension: int = 3) -> float:
    """Dirichlet-to-Neumann eigenvalue of the exterior harmonic extension.

    The degree-l exterior mode is r^-(l+N-2), so the eigenvalue is
    l + N - 2.  At l = 1 it equals N - 1, the translation mode.
    """
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return float(l + dimension - 2)


def dtn_relative(l: int, dimension: int = 3, outer_radius: float = 2.0) -> float:
    """Dirichlet-to-Neumann eigenvalue of the shell problem in B_R.

    The degree-l mode vanishing on the outer sphere is
    -r^l / k + (1 + 1/k) r^-(l+N-2) with k = R^(2l+N-2) - 1, giving
    (l + N - 2) + (2l + N - 2)/k.  Decreases to the exterior value as
    R grows.
    """
    if l < 0:
        raise ValueError("degree must be nonnegative")
    if outer_radius <= 1.0:
        raise ValueError("outer radius must exceed 1")
    n = dimension
    k = outer_radius ** (2 * l + n - 2) - 1.0
    return float((l + n - 2) + (2 * l + n - 2) / k)


def _eigenvalue(l: int, spec: QuadraticFormSpec) -> float:
    if spec.mode == "abs":
        return dtn_exterior(l, spec.dimension)
    return dtn_relative(l, spec.dimension, spec.outer_radius)


def _prefactor(spec: QuadraticFormSpec) -> float:
    # The shell prefactor is the SQUARE of the flux normalisation
    # q = 1/(1 - R^-(N-2)): the first-order potential response to a
    # boundary perturbation phi is the shell extension of (N-2)*q*phi,
    # so its energy carries q^2.  Cross-checked against an image-charge
    # solution for the eccentric spherical capacitor.
    n = spec.dimension
    base = 2.0 * (n - 2) ** 2
    if spec.mode == "abs":
        return base
    return base / (1.0 - spec.outer_radius ** -(n - 2)) ** 2


def second_variation(phi: HarmonicCoeffs, spec: QuadraticFormSpec) -> float:
    """Second variation of capacity at the unit ball in direction phi.

    Diagonal sum prefactor * sum_l |phi_l|^2 (lambda_l - (N-1)); the
    degree-1 weight vanishes in absolute mode (translations) and the
    degree-0 weight is negative (volume changes), which is why the
    stability statements fix the volume and, in absolute mode, the
    barycenter.
    """
    n = spec.dimension
    pre = _prefactor(spec)
    out = 0.0
    for l in range(phi.max_degree + 1):
        a2 = float(np.sum(phi.degree_slice(l) ** 2))
        if a2 != 0.0:
            out += a2 * (_eigenvalue(l, spec) - (n - 1))
    return pre * out


def h_half_norm(phi: HarmonicCoeffs, spec: QuadraticFormSpec) -> float:
    """Squared boundary norm: L^2 part plus the extension's energy.

    Spectrally sum_l |phi_l|^2 (1 + lambda_l), which dominates the
    plain L^2 norm since every eigenvalue is positive.
    """
    out = 0.0
    for l in range(phi.max_degree + 1):
        a2 = float(np.sum(phi.degree_slice(l) ** 2))
        if a2 != 0.0:
            out += a2 * (1.0 + _eigenvalue(l, spec))
    return out


def spectrum_table(max_degree: int, spec: QuadraticFormSpec) -> list[SpectrumEntry]:
    """Eigenvalue and form-weight table through max_degree."""
    n = spec.dimension
    pre = _prefactor(spec)
    out = []
    for l in range(max_degree + 1):
        lam = _eigenvalue(l, spec)
        out.append(SpectrumEntry(degree=l, energy_eigenvalue=lam,
                                 form_eigenvalue=pre * (lam - (n - 1))))
    return out


# ---------------------------------------------------------------------------
# volume penalty and penalized functionals
# ---------------------------------------------------------------------------


def f_eta(s: float, eta: float, dimension: int = 3) -> float:
    """Piecewise-linear volume penalty, zero at the unit-ball volume.

    Slope -1/eta below the ball volume and -eta above it, so
    eta * (t - s) <= f_eta(s) - f_eta(t) holds for every s <= t.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    if s < 0:
        raise ValueError("volume must be nonnegative")
    gap = s - ball_volume(dimension)
    if gap <= 0:
        return -gap / eta
    return -eta * gap


def penalized(domain, eta: float, mode: str = "abs",
              outer_radius: float | None = None, solver: str = "harmonic",
              cfg: SolverConfig | None = None) -> float:
    """Capacity plus volume penalty (no volume normalisation here)."""
    res = capacity(domain, mode=mode, outer_radius=outer_radius,
                   solver=solver, cfg=cfg)
    return res.value + f_eta(volume(domain), eta)


def penalized_j(domain, eta: float, sigma: float, eps_j: float,
                mode: str = "abs", outer_radius: float | None = None,
                solver: str = "harmonic", cfg: SolverConfig | None = None) -> float:
    """Penalized capacity plus the smoothed asymmetry barrier.

    Adds sqrt(eps_j^2 + sigma^2 (alpha_* - eps_j)^2), where alpha_* is
    the mode-matching smoothed asymmetry; the barrier is 1-Lipschitz in
    alpha_* because sigma < 1.
    """
    if not 0.0 < sigma < 1.0:
        raise ConfigError("sigma must lie in (0, 1)")
    if eps_j <= 0:
        raise ConfigError("eps_j must be positive")
    a = alpha(domain) if mode == "abs" else alpha_R(domain, outer_radius)
    base = penalized(domain, eta, mode=mode, outer_radius=outer_radius,
                     solver=solver, cfg=cfg)
    return base + math.sqrt(eps_j**2 + sigma**2 * (a - eps_j) ** 2)


@dataclass(frozen=True)
class ProfileReport:
    radii: np.ndarray
    values: np.ndarray
    argmin_radius: float
    center_value: float  # value at radius 1
    linear_constant: float  # min over r != 1 of (g(r) - g(1)) / |r - 1|


def ball_profile(radii, outer_radius: float, eta: float,
                 dimension: int = 3) -> ProfileReport:
    """Penalized relative capacity of centered balls along a radius grid.

    g(r) = cap_ball_rel(r, R) + f_eta(ball volume at r).  For small eta
    the grid minimum sits at r = 1 and g grows at least linearly away
    from it; the report carries the empirical linear-growth constant.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ConfigError("need a one-dimensional grid of radii")
    if np.any(radii <= 0) or np.any(radii >= outer_radius):
        raise ConfigError("grid radii must lie strictly between 0 and R")
    vals = np.array([
        cap_ball_rel(r, outer_radius, dimension)
        + f_eta(ball_volume(dimension, r), eta, dimension)
        for r in radii
    ])
    g1 = cap_ball_rel(1.0, outer_radius, dimension)
    off = np.abs(radii - 1.0) > 1e-12
    ratios = (vals[off] - g1) / np.abs(radii[off] - 1.0)
    return ProfileReport(radii=radii, values=vals,
                         argmin_radius=float(radii[np.argmin(vals)]),
                         center_value=g1,
                         linear_constant=float(ratios.min()))


# ---------------------------------------------------------------------------
# Taylor comparison of solver deficits against the quadratic form
# ---------------------------------------------------------------------------


def project_barycenter(phi: HarmonicCoeffs, tol: float = 1e-10,
                       max_iterations: int = 30) -> HarmonicCoeffs:
    """Adjust degree-1 coefficients so the generated domain is centered.

    Products of higher harmonics leak into degree 1, so zeroing the
    coefficients once leaves a residual barycenter; subtracting the
    first-order translation response converges linearly at a rate
    proportional to the perturbation size (two rounds suffice only for
    very small phi, so this iterates to the tolerance instead).
    """
    out = phi.copy()
    for _ in range(max_iterations):
        dom = nearly_spherical_from_phi(out)
        x = barycenter(dom)
        if float(np.linalg.norm(x)) < tol:
            return out
        sl = out.degree_slice(1)
        # a translation by v shifts the radial graph by v . omega at
        # first order; in this basis the degree-1 slots carry
        # (-y, +z, -x) times sqrt(4 pi / 3)
        c = math.sqrt(4.0 * math.pi / 3.0)
        sl[:] -= c * np.array([-x[1], x[2], -x[0]])
    raise SolverError("barycenter projection did not reach tolerance "
                      f"{tol} in {max_iterations} rounds")


@dataclass(frozen=True)
class TaylorRow:
    t: float
    deficit: float
    deficit_error: float
    form_half: float  # (t^2 / 2) * second_variation(phi)
    remainder_ratio: float  # (deficit - form_half) / t^2


def taylor_check(phi: HarmonicCoeffs, t_ladder, spec: QuadraticFormSpec,
                 cfg: SolverConfig | None = None) -> list[TaylorRow]:
    """Deficit of domains 1 + t*phi against the second-variation form.

    For each t, in ladder order, the domain is built volume-corrected,
    the deficit solved with the harmonic solver, and the remainder
    (deficit - t^2/2 * form) reported relative to t^2; the ratios must
    shrink as t does when the form matches the true second variation.
    """
    s2 = second_variation(phi, spec)

    def row(t: float) -> TaylorRow:
        scaled = phi.copy()
        scaled.values *= t
        dom = nearly_spherical_from_phi(scaled)
        d = deficit(dom, mode=spec.mode, outer_radius=spec.outer_radius,
                    solver="harmonic", cfg=cfg)
        half = 0.5 * t * t * s2
        return TaylorRow(t=float(t), deficit=d.value, deficit_error=d.error_estimate,
                         form_half=half, remainder_ratio=(d.value - half) / t**2)

    ts = [float(t) for t in t_ladder]
    if any(t <= 0 for t in ts):
        raise ConfigError("ladder values must be positive")
    return [row(t) for t in ts]
