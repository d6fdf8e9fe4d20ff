"""Symmetric-difference functionals: Fraenkel asymmetry and the
boundary-weighted variants used by the quantitative stability checks.

All exact routes reduce to one-dimensional ray integrals.  Along the
ray t -> c + t*w the domain occupies [0, rho(w)) and a ball cuts the
interval between the roots of a quadratic, so both the plain volume
|A symdiff B| and the weighted integral of |1 - |x|| over it have
closed forms per ray; the angular integral is a quadrature sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .capacity import counter_uniform
from .domains import CompositeDomain, StarDomain, barycenter, volume
from .errors import GeometryError
from .sphere import ball_volume, build_quadrature, sphere_area

__all__ = [
    "AsymmetryResult",
    "symdiff_volume",
    "symdiff_volume_mc",
    "fraenkel",
    "fraenkel_mc",
    "alpha_R",
    "alpha",
    "annulus_lower_bound",
]


@dataclass(frozen=True)
class AsymmetryResult:
    value: float
    minimizing_center: np.ndarray
    evaluations: int
    stderr: float | None = None


def _cube(x):
    return x * x * x


def _lens_volume(r1: float, r2: float, d: float) -> float:
    """Intersection volume of two balls with radii r1, r2 at center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return ball_volume(3, min(r1, r2))
    return (math.pi * (r1 + r2 - d) ** 2
            * (d * d + 2.0 * d * (r1 + r2) - 3.0 * (r1 - r2) ** 2) / (12.0 * d))


_RAY_DEGREE = 128  # internal angular rule; ray integrands have kinks at
                   # surface crossings, so finer than the domain default


def _ray_samples(domain: StarDomain):
    cached = getattr(domain, "_ray_cache", None)
    if cached is not None:
        return cached
    if domain.quad.degree >= _RAY_DEGREE:
        quad, rho = domain.quad, domain.rho
    else:
        quad = build_quadrature(3, _RAY_DEGREE)
        rho = domain.radial(quad.nodes)
    domain._ray_cache = (quad, rho)
    return quad, rho


def _ball_interval(dots: np.ndarray, c2: float, radius: float):
    """Entry/exit parameters of rays t*w (t >= 0) through a ball.

    dots holds w . c for the ball center c, c2 = |c|^2.  Returns
    (b0, b1) clipped to t >= 0, with b1 <= b0 marking no intersection.
    """
    disc = dots**2 - c2 + radius * radius
    s = np.sqrt(np.maximum(disc, 0.0))
    b0 = np.maximum(dots - s, 0.0)
    b1 = np.maximum(dots + s, 0.0)
    empty = disc <= 0.0
    b0 = np.where(empty, 0.0, b0)
    b1 = np.where(empty, 0.0, b1)
    return b0, b1


def symdiff_volume(domain: StarDomain, center, radius: float) -> float:
    """|Omega symdiff B_r(center)| by exact ray integration.

    The ball may sit anywhere; the domain is integrated along rays from
    its own star center, where its radial extent is exact.  Ball domains
    take a closed-form lens route instead: the per-ray integrand has a
    derivative kink along the curve where the surfaces cross, which
    limits the quadrature path to roughly 1e-5 accuracy at unit scale.
    """
    c = np.asarray(center, dtype=float) - domain.center_offset
    c2 = float(c @ c)
    if domain.is_ball():
        r1 = domain.rho_max
        cap = _lens_volume(r1, radius, math.sqrt(c2))
        return max(ball_volume(3, r1) + ball_volume(3, radius) - 2.0 * cap, 0.0)
    quad, p = _ray_samples(domain)
    dots = quad.nodes @ c
    b0, b1 = _ball_interval(dots, c2, radius)
    # |1_A - 1_B| integrates to vol(A) + vol(B) - 2 vol(A cap B) per ray
    ia = _cube(p)
    ib = _cube(b1) - _cube(b0)
    lo = np.minimum(b0, p)
    hi = np.minimum(b1, p)
    iab = _cube(hi) - _cube(lo)
    return float(quad.weights @ (ia + ib - 2.0 * iab)) / 3.0


def fraenkel(domain: StarDomain) -> AsymmetryResult:
    """Fraenkel asymmetry min_c |Omega symdiff B_1(c)| / |B_1|.

    The domain must be volume-normalised.  The minimisation runs
    Nelder-Mead from five starts (barycenter, origin, and 0.1-shifted
    barycenters) under a shared budget of 500 objective evaluations.
    """
    if abs(volume(domain) - ball_volume(3)) > 1e-8:
        raise GeometryError("fraenkel needs a volume-normalised domain")
    omega = ball_volume(3)
    count = [0]

    def objective(c):
        count[0] += 1
        return symdiff_volume(domain, c, 1.0) / omega

    b = barycenter(domain)
    starts = [
        b,
        np.zeros(3),
        b + np.array([0.1, 0.0, 0.0]),
        b - np.array([0.1, 0.0, 0.0]),
        b + np.array([0.0, 0.0, 0.1]),
    ]
    best_val, best_c = np.inf, b
    for s in starts:
        res = minimize(objective, s, method="Nelder-Mead",
                       options={"maxfev": 100, "xatol": 1e-10, "fatol": 1e-10})
        if res.fun < best_val:
            best_val, best_c = float(res.fun), np.asarray(res.x)
    return AsymmetryResult(value=best_val, minimizing_center=best_c,
                           evaluations=count[0])


def _weighted_cumulative(t: np.ndarray) -> np.ndarray:
    """int_0^t |1-s| s^2 ds, vectorised and exact."""
    t = np.asarray(t, dtype=float)
    below = np.minimum(t, 1.0)
    g = below**3 / 3.0 - below**4 / 4.0
    above = np.maximum(t, 1.0)
    h = (above**4 - 1.0) / 4.0 - (above**3 - 1.0) / 3.0
    return g + h


def _crossing_radii(domain: StarDomain, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Where rays origin + s*w leave the domain (one crossing assumed).

    Valid for domains star-shaped about `origin`; the families this
    package generates keep their barycenter well inside, where the
    assumption holds.
    """
    a = origin - domain.center_offset
    if np.linalg.norm(a) >= domain.rho_min:
        raise GeometryError("ray origin must lie inside the domain")
    hi = float(np.linalg.norm(a) + domain.rho_max + 1.0)
    out = np.empty(len(dirs))

    def g(s, w):
        x = a + s * w
        r = np.linalg.norm(x)
        if r == 0.0:
            return -domain.rho_min
        return r - float(domain.radial((x / r)[None, :])[0])

    for k, w in enumerate(dirs):
        out[k] = brentq(g, 0.0, hi, args=(w,), xtol=1e-13)
    return out


def alpha_R(domain: StarDomain, outer_radius: float | None = None) -> float:
    """Integral of |1 - |x|| over Omega symdiff B_1, both about the origin.

    outer_radius only gates the geometry (the domain must fit inside
    B_R when a relative-problem radius is given).
    """
    if outer_radius is not None and domain.enclosing_radius >= outer_radius:
        raise GeometryError("domain does not fit inside the outer ball")
    q = domain.quad
    if np.linalg.norm(domain.center_offset) == 0.0:
        s_exit = domain.rho
    else:
        s_exit = _crossing_radii(domain, np.zeros(3), q.nodes)
    lo = np.minimum(s_exit, 1.0)
    hi = np.maximum(s_exit, 1.0)
    vals = _weighted_cumulative(hi) - _weighted_cumulative(lo)
    return float(q.weights @ vals)


def alpha(domain: StarDomain) -> float:
    """Barycentric variant: the same weighted integral against B_1(x_O),
    measured in coordinates centered at the barycenter x_O."""
    q = domain.quad
    x0 = barycenter(domain)
    if np.linalg.norm(x0 - domain.center_offset) < 1e-12:
        s_exit = domain.rho
    else:
        s_exit = _crossing_radii(domain, x0, q.nodes)
    lo = np.minimum(s_exit, 1.0)
    hi = np.maximum(s_exit, 1.0)
    vals = _weighted_cumulative(hi) - _weighted_cumulative(lo)
    return float(q.weights @ vals)


def annulus_lower_bound(v: float, dimension: int = 3) -> float:
    """Smallest possible integral of |1 - |x|| over a set of volume v.

    The minimiser is the sublevel annulus {|1 - |x|| <= delta} with
    measure v (bathtub principle); delta comes from a scalar root-find
    and the integral is closed-form.  Behaves like v^2 / (4 sigma_{N-1})
    as v -> 0.
    """
    if v < 0:
        raise ValueError("volume must be nonnegative")
    if v == 0.0:
        return 0.0
    n = dimension
    if n != 3:
        raise NotImplementedError("annulus bound implemented for dimension 3")
    omega = ball_volume(3)

    def measure(delta):
        inner = max(1.0 - delta, 0.0)
        return omega * ((1.0 + delta) ** 3 - inner**3) - v

    hi = (v / omega + 1.0) ** (1.0 / 3.0) - 1.0 + 1e-12
    delta = brentq(measure, 0.0, hi, xtol=1e-15)
    lo = max(1.0 - delta, 0.0)
    return float(sphere_area(3) * (_weighted_cumulative(1.0 + delta) - _weighted_cumulative(lo)))


# ---------------------------------------------------------------------------
# Monte Carlo variants for composite domains (truncation experiment only)
# ---------------------------------------------------------------------------


def _uniform_in_ball(seed: int, ids: np.ndarray, stratum: int, center, radius: float):
    u1 = counter_uniform(seed, ids, stratum, 0)
    u2 = counter_uniform(seed, ids, stratum, 1)
    u3 = counter_uniform(seed, ids, stratum, 2)
    z = 1.0 - 2.0 * u1
    s = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    phi = 2.0 * math.pi * u2
    r = radius * u3 ** (1.0 / 3.0)
    return np.asarray(center) + r[:, None] * np.column_stack(
        [s * np.cos(phi), s * np.sin(phi), z])


def _member_of(domain: StarDomain, pts: np.ndarray) -> np.ndarray:
    q = pts - domain.center_offset
    r = np.linalg.norm(q, axis=1)
    safe = np.maximum(r, 1e-300)
    return r < domain.radial(q / safe[:, None])


def symdiff_volume_mc(comp: CompositeDomain, center, radius: float,
                      n_samples: int = 200000, seed: int = 0):
    """Stratified Monte Carlo |Omega symdiff B_r(c)| for composite domains.

    One stratum per component (uniform in its bounding sphere, counting
    component points outside the ball) plus one for the ball (counting
    ball points outside every component).  Deterministic for fixed seed.
    Returns (value, stderr).
    """
    center = np.asarray(center, dtype=float)
    ids = np.arange(n_samples, dtype=np.uint64)
    total, var = 0.0, 0.0
    for k, c in enumerate(comp.components):
        pts = _uniform_in_ball(seed, ids, 2 * k, c.center_offset, c.rho_max)
        good = _member_of(c, pts) & (np.linalg.norm(pts - center, axis=1) >= radius)
        p = good.mean()
        vol_box = ball_volume(3, c.rho_max)
        total += p * vol_box
        var += p * (1.0 - p) / n_samples * vol_box**2
    pts = _uniform_in_ball(seed, ids, 2 * len(comp.components) + 1, center, radius)
    outside = np.ones(n_samples, dtype=bool)
    for c in comp.components:
        outside &= ~_member_of(c, pts)
    p = outside.mean()
    vol_box = ball_volume(3, radius)
    total += p * vol_box
    var += p * (1.0 - p) / n_samples * vol_box**2
    return total, math.sqrt(var)


def fraenkel_mc(comp: CompositeDomain, n_samples: int = 200000, seed: int = 0,
                maxfev: int = 120) -> AsymmetryResult:
    """Fraenkel asymmetry of a composite by the stratified MC objective.

    The sampler is frozen per seed, so the objective is a deterministic
    function of the center and Nelder-Mead can run on it; accuracy is
    set by the sample count, reported through stderr at the optimum.
    """
    if abs(volume(comp) - ball_volume(3)) > 1e-8:
        raise GeometryError("fraenkel needs a volume-normalised domain")
    omega = ball_volume(3)
    count = [0]

    def objective(c):
        count[0] += 1
        return symdiff_volume_mc(comp, c, 1.0, n_samples, seed)[0] / omega

    vols = [volume(c) for c in comp.components]
    start = comp.components[int(np.argmax(vols))].center_offset
    res = minimize(objective, start, method="Nelder-Mead",
                   options={"maxfev": maxfev, "xatol": 1e-6, "fatol": 1e-9})
    val, err = symdiff_volume_mc(comp, res.x, 1.0, n_samples, seed)
    return AsymmetryResult(value=val / omega, minimizing_center=np.asarray(res.x),
                           evaluations=count[0], stderr=err / omega)
