"""Capacity solvers.

Normalisation: the capacity of a compact set K is the infimum of the
Dirichlet energy integral |grad u|^2 over functions u >= 1 on K that
decay at infinity (absolute case), or vanish on the boundary sphere of
radius R (relative case).  With this convention the unit ball in R^3
has absolute capacity 4*pi and capacity 8*pi relative to R = 2.  The
sphere-area factor 4*pi is carried explicitly everywhere; some
classical references quote the same formulas with that factor dropped.

Three routes are provided and kept deliberately independent of each
other: closed forms for balls and pairs of balls, a spectral
collocation solver for star domains, and a walk-on-spheres Monte Carlo
estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import CompositeDomain, StarDomain, _check_seed, _is_integer, normalize_volume
from .errors import ConfigError, GeometryError, SolverError
from .sphere import build_quadrature, harmonic_basis, sphere_area

__all__ = [
    "CapacityResult",
    "WosConfig",
    "cap_ball",
    "cap_spheroid",
    "cap_exterior_harmonic",
    "cap_relative_harmonic",
    "cap_wos",
    "capacity",
    "deficit",
]


@dataclass(frozen=True)
class CapacityResult:
    value: float
    method: str
    error_estimate: float
    max_residual: float | None = None
    condition: float | None = None

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def cap_ball(radius: float, outer_radius: float | None = None) -> float:
    """Capacity of the centered ball B_r: absolute, 4 * pi * r, for
    outer_radius None; relative to B_R, 4 * pi / (1/r - 1/R), for
    outer_radius R > r, which tends to the absolute value as R grows.
    """
    if outer_radius is None:
        if radius <= 0:
            raise GeometryError("radius must be positive")
        return sphere_area() * radius
    if not 0 < radius < outer_radius:
        raise GeometryError(f"need 0 < r < R, got r={radius}, R={outer_radius}")
    return sphere_area() / (radius ** -1 - outer_radius ** -1)


def cap_spheroid(equatorial: float, polar: float) -> float:
    """Absolute capacity of a spheroid with semi-axes (a, a, c), closed form.

    Classical reduction of the ellipsoid capacity integral
    8*pi / int_0^inf ds / sqrt((a^2+s)^2 (c^2+s)); the u = sqrt(c^2+s)
    substitution makes it elementary in both the oblate and prolate
    branches.  This is the route of choice for eccentric spheroids,
    where a single-center harmonic expansion stops converging on the
    boundary (the potential's continuation has a focal ring of radius
    sqrt(a^2-c^2), which ends up outside the inscribed sphere).
    """
    a, c = float(equatorial), float(polar)
    if a <= 0 or c <= 0:
        raise GeometryError("semi-axes must be positive")
    if abs(a - c) < 1e-12 * a:
        return cap_ball(0.5 * (a + c))
    if a > c:
        t = math.sqrt(a * a - c * c)
        return 4.0 * math.pi * t / math.atan2(t, c)
    t = math.sqrt(c * c - a * a)
    return 4.0 * math.pi * t / math.atanh(t / c)


_UNIT_ROUNDOFF = 2.0**-53
# A chain of images stops after this many generations even if its charges
# are still above the stopping tolerance; its first omitted charge still
# bounds the tail, so the error estimate stays a bound.  Two equal balls
# 1e-6 radii apart need about 31,000.
_SERIES_MAX_GENERATIONS = 1 << 16


def _two_ball_series(domain: CompositeDomain) -> CapacityResult:
    """Absolute capacity of two disjoint balls held at potential 1, by
    Kelvin images (Maxwell, Treatise, vol. 1, ch. XI; Smythe, Static and
    Dynamic Electricity, 5.08).

    A charge q inside one ball has the image -q b / |x - c| at
    c + b^2 (x - c) / |x - c|^2 in the other ball (center c, radius b),
    which keeps that ball's potential fixed.  Two chains of images run,
    one started at each center with a charge equal to that ball's
    radius; every image lies on the segment between the centers, so a
    charge is carried as its distance from its own ball's center.  The
    capacity is 4 pi times the sum of all the charges.

    The balls are disjoint, so each factor b / |x - c| is below 1: a
    chain is an alternating series of falling terms, and its first
    omitted charge bounds its tail.  A chain stops once that charge is
    below the unit roundoff of its partial sum, or after
    _SERIES_MAX_GENERATIONS generations.  error_estimate is 4 pi times
    the two omitted charges plus a rounding allowance: each charge's
    relative error and each position's absolute error are carried to
    first order through the recurrence, and the final sum adds three
    roundings.
    """
    comps = domain.components
    if len(comps) != 2 or not all(c.is_ball() for c in comps):
        raise SolverError("closed form covers a composite of exactly two balls")
    radii = (comps[0].rho_max, comps[1].rho_max)
    d = math.dist(comps[0].center_offset, comps[1].center_offset)
    u = _UNIT_ROUNDOFF
    charges, tails, allowance = [], 0.0, 0.0
    for first in (0, 1):
        own, q, x = first, radii[first], 0.0
        rel_q = pos_err = 0.0  # relative error of q, absolute error of x
        partial = q
        charges.append(q)
        for gen in range(1, _SERIES_MAX_GENERATIONS + 2):
            r = radii[1 - own]
            s = d - x
            f = r / s
            q, x, own = -q * f, r * f, 1 - own
            # the relative error this step adds to q, and gives x
            rel = (pos_err + 2.0 * u * d) / s + 3.0 * u
            rel_q += rel
            pos_err = x * rel
            if abs(q) <= u * partial or gen > _SERIES_MAX_GENERATIONS:
                break
            charges.append(q)
            partial += q
            allowance += abs(q) * rel_q
        tails += abs(q) * (1.0 + rel_q)
    sigma = sphere_area()
    value = sigma * math.fsum(charges)
    err = sigma * (tails + allowance) + 3.0 * u * value
    return CapacityResult(value=value, method="closed-form", error_estimate=err)


_RIDGE = 1e-12  # Tikhonov weight on the column-equilibrated normal equations
_MAX_CONDITION = 1e14  # normal equations worse than this are refused
# The validated geometry range: a domain whose boundary radii about the
# origin spread by more than this factor is refused rather than
# silently mis-solved.
_MAX_RADIUS_RATIO = 2.0
_OUTER_MARGIN = 0.05  # relative gap a domain must keep from the outer sphere


def _surface_polar(domain: StarDomain, degree: int):
    """Boundary points of a star domain in polar form about the origin."""
    quad = build_quadrature(degree)
    surface = domain.center_offset + domain.radial(quad.nodes)[:, None] * quad.nodes
    r = np.linalg.norm(surface, axis=1)
    dirs = surface / r[:, None]
    return quad, r, dirs


def _ridge_weighted_lstsq(A: np.ndarray, w: np.ndarray):
    # equilibrate columns so the ridge acts uniformly across degrees
    scale = np.sqrt((w[:, None] * A**2).sum(axis=0))
    scale[scale == 0] = 1.0
    As = A / scale
    M = As.T @ (w[:, None] * As) + _RIDGE * np.eye(A.shape[1])
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise SolverError(
            f"normal equations ill-conditioned beyond regularisation (cond={cond:.3e})"
        )
    coef = np.linalg.solve(M, As.T @ w) / scale
    return coef, cond


def _collocate(domain: StarDomain, l_max: int, radial):
    """Fit sum_lm c_lm radial(l, |x|) Y_lm(x/|x|) = 1 on the boundary.

    radial(l, r) is the radial factor of the degree-l modes, broadcast
    over an (n, 1) column of radii and the (L+1)^2 degrees of the
    columns.  The fit is ridge-regularised weighted least squares at
    quadrature nodes of degree 2*l_max.  The maximum-principle bounds of
    both solvers need the residual sup over the whole boundary, so it is
    measured on a grid finer than the collocation nodes.

    Returns (c_00, largest boundary radius, max residual, condition).
    """
    quad, r, dirs = _surface_polar(domain, 2 * l_max)
    if r.min() <= 0:
        raise GeometryError("surface passes through the origin")
    ratio = r.max() / r.min()
    if ratio > _MAX_RADIUS_RATIO:
        raise GeometryError(
            f"radial spread {ratio:.3f} outside the validated range "
            f"(max_radius_ratio={_MAX_RADIUS_RATIO})"
        )
    if np.linalg.norm(domain.center_offset) >= domain.rho_min:
        raise GeometryError("origin must lie inside the domain for the harmonic expansion")
    l_of = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    A = harmonic_basis(l_max, dirs) * radial(l_of, r[:, None])
    coef, cond = _ridge_weighted_lstsq(A, quad.weights)
    _, rf, df = _surface_polar(domain, 4 * l_max + 8)
    fit = (harmonic_basis(l_max, df) * radial(l_of, rf[:, None])) @ coef
    max_res = float(np.abs(fit - 1.0).max())
    return coef[0], r.max(), max_res, cond


def cap_exterior_harmonic(domain: StarDomain, l_max: int = 8) -> CapacityResult:
    """Absolute capacity by collocation in decaying solid harmonics.

    The candidate potential sum_lm c_lm |x|^-(l+1) Y_lm(x/|x|) is fitted
    to the boundary condition u = 1 (`_collocate`).  The capacity is
    read off the monopole: sqrt(4 pi) * c_00.

    error_estimate is a maximum-principle style bound: a boundary
    mismatch of size max|residual| changes the capacity by at most
    4 pi * max_res * (1 + r_max).
    """
    c00, r_max, max_res, cond = _collocate(domain, l_max, lambda l, r: r ** -(l + 1))
    sigma = sphere_area()
    value = math.sqrt(sigma) * c00
    err = sigma * max_res * (1.0 + r_max)
    return CapacityResult(value=float(value), method="harmonic", error_estimate=float(err),
                          max_residual=max_res, condition=cond)


def _shell_radial(l: np.ndarray, r: np.ndarray, outer_radius: float) -> np.ndarray:
    """Shell mode equal to 1 at radius 1 and 0 at the outer radius."""
    k = outer_radius ** (2 * l + 1) - 1.0
    return -(r**l) / k + (1.0 + 1.0 / k) * r ** -(l + 1)


def cap_relative_harmonic(domain: StarDomain, outer_radius: float,
                          l_max: int = 8) -> CapacityResult:
    """Capacity relative to the centered ball B_R by shell collocation.

    Same scheme as the absolute solver with the decaying solid
    harmonics replaced by shell modes vanishing at radius R; the value
    comes from the radial flux of the l = 0 mode, which is conserved
    across the shell.
    """
    if domain.enclosing_radius >= outer_radius * (1.0 - _OUTER_MARGIN):
        raise GeometryError(
            f"domain (enclosing radius {domain.enclosing_radius:.4f}) too close to "
            f"the outer sphere R={outer_radius} (margin {_OUTER_MARGIN})"
        )
    c00, r_max, max_res, cond = _collocate(
        domain, l_max, lambda l, r: _shell_radial(l, r, outer_radius))
    k0 = outer_radius - 1.0  # R^(2l+1) - 1 at l = 0
    value = math.sqrt(sphere_area()) * c00 * (1.0 + 1.0 / k0)
    err = max_res * cap_ball(min(r_max, outer_radius * (1 - _OUTER_MARGIN)), outer_radius)
    return CapacityResult(value=float(value), method="harmonic", error_estimate=float(err),
                          max_residual=max_res, condition=cond)


# ---------------------------------------------------------------------------
# walk on spheres
# ---------------------------------------------------------------------------

_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(33)


def _mix64(x):
    """The 64-bit finaliser, in place on an array (a scalar is rebound)."""
    # multiplies wrap mod 2^64 on purpose
    x ^= x >> _SHIFT
    x *= _M1
    x ^= x >> _SHIFT
    x *= _M2
    x ^= x >> _SHIFT
    return x


# counter_uniform's chain mixes in seed, walk, step and slot in turn,
# adding _GOLD to each hash before the next key is xor-ed in.  The WoS
# loop runs it in stages: a walk's key once, when the walk is admitted,
# the step keys once per step, and then one mix per slot.

def _walk_keys(seed: int, walk) -> np.ndarray:
    """The chain through (seed, walk), plus _GOLD."""
    with np.errstate(over="ignore"):
        h = _mix64(np.asarray(walk, dtype=np.uint64) ^ (_mix64(np.uint64(seed) + _GOLD) + _GOLD))
        h += _GOLD
    return h


def _step_keys(walk_keys: np.ndarray, step: int) -> np.ndarray:
    """The chain continued through step, plus _GOLD."""
    h = _mix64(walk_keys ^ np.uint64(step))
    h += _GOLD
    return h


def _slot_uniform(step_keys: np.ndarray, slot) -> np.ndarray:
    """The chain finished with slot, as uniforms in [0, 1); a column of
    slots gives a row of uniforms for each."""
    h = _mix64(step_keys ^ np.uint64(slot))
    h >>= np.uint64(11)
    return np.multiply(h, 2.0**-53)


def counter_uniform(seed: int, walk: np.ndarray, step: int, slot: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1) keyed by (seed, walk, step, slot).

    Stateless, so a walk's stream does not depend on which other walks
    are drawn with it, or on when it joins the WoS pool.
    """
    with np.errstate(over="ignore"):
        return _slot_uniform(_step_keys(_walk_keys(seed, walk), step), slot)


def _check_walks(num_walks: int) -> None:
    """Refuse a walk count that is not an integer of at least 1."""
    if not _is_integer(num_walks) or num_walks < 1:
        raise ConfigError(f"the walk count must be an integer of at least 1, got {num_walks!r}")


@dataclass(frozen=True)
class WosConfig:
    num_walks: int = 20000
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        _check_walks(self.num_walks)


# The slots of a step key: 0 and 1 draw the move's direction, 2 decides
# whether a walker outside the launch sphere survives, and 3 and 4 draw
# its re-entry point.
_MOVE_SLOTS = np.array([[0], [1]], dtype=np.uint64)
_ESCAPE_SLOTS = np.array([[2], [3], [4]], dtype=np.uint64)

_WOS_MAX_STEPS = 10000  # a walk still alive after this many steps counts as killed
# At most this many walkers are alive at once, which bounds the memory of
# a call whatever its walk count; a walker that leaves gives its place to
# the next walk id.  Walks are independent, so the estimate does not
# depend on it.
_WOS_BLOCK = 8192


def _norm(p: np.ndarray) -> np.ndarray:
    """|x| for each column of p, shape (3, n), with the operations of
    np.linalg.norm(axis=1) on rows, in its order: (x*x + y*y) + z*z."""
    s = p[0] * p[0]
    s += p[1] * p[1]
    s += p[2] * p[2]
    return np.sqrt(s, out=s)


class _WosComponent:
    """Certified step and absorption gap for one star component.

    For x = c + r u outside the component, the radial gap r - rho(u) is
    the distance to the boundary point c + rho(u) u, so it bounds the
    true distance from above; it also decides absorption.  The step is a
    lower bound on that distance.  The segment from x to its nearest
    boundary point lies outside the component, where |z - c| >= rho_lo
    and the function |z - c| - rho((z - c)/|z - c|), which vanishes on
    the boundary, has gradient at most sqrt(1 + (G / rho_lo)^2); so the
    distance is at least the gap over that constant, and at least
    r - rho_hi.  (rho_lo, rho_hi, G) are the domain's `certified_bounds`;
    a ball's are (r, r, 0), so its step is its gap, the exact distance.
    """

    def __init__(self, dom: StarDomain):
        self.center = dom.center_offset
        self.centered = not np.any(self.center)
        self.dom = dom
        self.rho_lo, self.rho_hi, g = dom.certified_bounds
        if self.rho_lo <= 0.0:
            raise GeometryError("walk on spheres needs a radius bounded away from zero; "
                                f"the certified lower bound is {self.rho_lo:.4g}")
        self.lipschitz = math.sqrt(1.0 + (g / self.rho_lo) ** 2)

    def step_gap(self, p: np.ndarray, norms: np.ndarray):
        """(certified step, signed radial gap) for the columns of p,
        shape (3, n), whose norms are given; a component centered at the
        origin takes them as its r.

        The gap is negative inside the component; the step is only
        meaningful where the gap is positive.
        """
        q, r = p, norms
        if not self.centered:
            q = p - self.center[:, None]
            r = _norm(q)
        gap = r - self.dom.radial((q / np.maximum(r, 1e-300)).T)
        return np.maximum(gap / self.lipschitz, r - self.rho_hi), gap


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Column-wise u x v for shape (3, n), written out with np.cross's
    operations in its order, so it matches np.cross bit for bit, signed
    zeros too."""
    out = np.empty_like(u)
    out[0] = u[1] * v[2] - u[2] * v[1]
    out[1] = u[2] * v[0] - u[0] * v[2]
    out[2] = u[0] * v[1] - u[1] * v[0]
    return out


def _any_orthonormal(w: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to each column of w, shape (3, n)."""
    ref = np.zeros_like(w)
    small = np.abs(w[0]) < 0.9
    ref[0, small] = 1.0
    ref[1, ~small] = 1.0
    a = _cross(w, ref)
    a /= _norm(a)
    return a


def _reentry_points(p: np.ndarray, r: np.ndarray, a: float, u_pol: np.ndarray,
                    u_azi: np.ndarray) -> np.ndarray:
    """Return-to-sphere positions for escaped walkers at the columns of
    p, whose norms are r.

    Conditioned on a walker at |p| > a ever reaching the sphere of
    radius a again, the landing point follows the harmonic measure of
    the sphere seen from the inverse point a^2 p / |p|^2; its polar
    cosine about p/|p| has a closed-form inverse CDF in three
    dimensions, used here directly.
    """
    axis = p / r
    h = a / r
    t = 1.0 / (1.0 + h) + 2.0 * h * u_pol / (1.0 - h**2)
    c = (1.0 + h**2 - t**-2) / (2.0 * h)
    c = np.clip(c, -1.0, 1.0)
    s = np.sqrt(1.0 - c**2)
    chi = 2.0 * math.pi * u_azi
    e1 = _any_orthonormal(axis)
    e2 = _cross(axis, e1)
    out = axis * c + (np.cos(chi) * e1 + np.sin(chi) * e2) * s
    return a * out


def _uniform_directions(step_keys: np.ndarray, scale) -> tuple:
    """Coordinates (x, y, z) of scale times unit vectors, uniform on the
    sphere, drawn from the move's slots of the step keys."""
    u, v = _slot_uniform(step_keys, _MOVE_SLOTS)
    z = 1.0 - 2.0 * u
    s = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    phi = 2.0 * math.pi * v
    return s * np.cos(phi) * scale, s * np.sin(phi) * scale, z * scale


def _admit(seed: int, first: int, count: int, a: float):
    """Walk keys, step counts, launch points and their norms for the
    walk ids first .. first + count - 1."""
    keys = _walk_keys(seed, np.arange(first, first + count, dtype=np.uint64))
    pos = np.array(_uniform_directions(_step_keys(keys, 0), a))
    return keys, np.zeros(count, dtype=np.uint64), pos, _norm(pos)


def _run_walks(components, num_walks: int, seed: int, a: float, eps: float):
    """Run walks 0 .. num_walks - 1 to the end; return (hits, unresolved).

    Walkers live in a pool of at most _WOS_BLOCK, positions stored
    coordinate-major, shape (3, n), with each one's norm.  A walker
    leaves when it is absorbed, killed or out of steps, and the next walk
    ids take the places freed; a walk's key and launch point are
    computed when it is admitted, and each walker keeps its own step
    count.  Each walker's arithmetic does not depend on the others, so
    this is the walk of each id alone.
    """
    admitted = min(_WOS_BLOCK, num_walks)
    keys, steps, pos, r = _admit(seed, 0, admitted, a)
    hits = unresolved = passes = 0
    while len(keys):
        passes += 1
        d, gap = components[0].step_gap(pos, r)
        for comp in components[1:]:
            dc, gc = comp.step_gap(pos, r)
            d = np.minimum(d, dc)
            gap = np.minimum(gap, gc)
        # absorbed walkers take this step with the rest, which costs less
        # than dropping them first, and leave with the killed ones below
        leave = gap <= eps
        hits += int(np.count_nonzero(leave))
        steps += np.uint64(1)
        step_keys = _step_keys(keys, steps)
        for coord, dx in zip(pos, _uniform_directions(step_keys, d)):
            coord += dx
        r = _norm(pos)
        out = np.flatnonzero(r > a)
        if len(out):
            u = _slot_uniform(step_keys[out], _ESCAPE_SLOTS)
            survive = u[0] < a / r[out]
            back = out[survive]
            if len(back):
                pos[:, back] = _reentry_points(pos[:, back], r[back], a,
                                               u[1, survive], u[2, survive])
                r[back] = _norm(pos[:, back])
            leave[out[~survive]] = True
        if passes >= _WOS_MAX_STEPS:
            spent = (steps >= _WOS_MAX_STEPS) & ~leave
            unresolved += int(np.count_nonzero(spent))
            leave |= spent
        free = np.flatnonzero(leave)
        if not len(free):
            continue
        take = min(len(free), num_walks - admitted)
        if take:
            slots = free[:take]
            keys[slots], steps[slots], pos[:, slots], r[slots] = _admit(seed, admitted, take, a)
            admitted += take
        if take < len(free):
            keep = np.ones(len(keys), dtype=bool)
            keep[free[take:]] = False
            keys, steps, pos, r = keys[keep], steps[keep], pos[:, keep], r[keep]
    return hits, unresolved


def cap_wos(domain, cfg: WosConfig | None = None) -> CapacityResult:
    """Absolute capacity by walk on spheres.

    Walks start uniformly on the sphere of radius rho_far, four times
    the enclosing radius; the spherical mean of the capacitary potential
    there is exactly c0 / rho_far (higher harmonics integrate to zero),
    so the hit fraction rescales to the capacity:

        value = hit_rate * 4 * pi * rho_far.

    A walker farther out than rho_far survives with probability
    rho_far/|x| and re-enters through the exact conditional harmonic
    measure.  error_estimate is the binomial standard error plus a
    documented O(eps_shell) absorption bias bound, with eps_shell
    1e-4 times the enclosing radius; walks still alive after
    _WOS_MAX_STEPS steps count as killed and are added to the error
    term.  The walks run through a pool of at most _WOS_BLOCK live
    walkers (`_run_walks`), which bounds memory whatever the walk count
    and leaves every walk, and so the estimate, as it would be alone.

    The bias bound holds because each step radius is a certified lower
    bound on the distance to the boundary, so no sphere leaves the
    exterior, and a walker is absorbed once its radial gap is at most
    eps_shell, which bounds that distance from above (`_WosComponent`).
    The absorbing set thus lies between the domain and its
    eps_shell-neighbourhood, and so does the capacity it estimates.
    That neighbourhood lies inside each component's dilation by
    1 + eps_shell / rho_lo about its center, with rho_lo the certified
    lower bound on its radius, so the bias term is value * eps_shell /
    min rho_lo.
    """
    cfg = cfg or WosConfig()
    comps = domain.components if isinstance(domain, CompositeDomain) else [domain]
    encl = domain.enclosing_radius
    a = 4.0 * encl
    eps = 1e-4 * encl
    geoms = [_WosComponent(c) for c in comps]
    m = cfg.num_walks
    hits, unresolved = _run_walks(geoms, m, cfg.seed, a, eps)
    if hits == 0:
        raise SolverError("walk on spheres recorded zero hits; result inconclusive")
    scale = sphere_area() * a
    p = hits / m
    value = p * scale
    stderr = math.sqrt(p * (1.0 - p) / m) * scale
    bias = value * eps / min(g.rho_lo for g in geoms) + unresolved / m * scale
    return CapacityResult(value=value, method="wos", error_estimate=stderr + bias,
                          max_residual=None, condition=None)


def _check_outer_radius(outer_radius: float) -> None:
    """Refuse an outer radius that does not enclose the unit ball."""
    if not outer_radius > 1.0:
        raise ConfigError(f"the outer radius must exceed 1, got {outer_radius!r}")


def capacity(domain, outer_radius: float | None = None,
             solver: str = "harmonic", l_max: int = 8,
             wos_cfg: WosConfig | None = None) -> CapacityResult:
    """Dispatch to a solver by method name.  outer_radius None is the
    absolute problem; a radius R > 1 is the problem relative to B_R.

    The closed forms cover a centered ball in either problem and, in the
    absolute problem, a composite of two disjoint balls (its Kelvin image
    series, with error_estimate a bound on the series' tail and rounding).
    """
    if outer_radius is not None:
        _check_outer_radius(outer_radius)
    if solver == "closed":
        if isinstance(domain, CompositeDomain):
            if outer_radius is not None:
                raise SolverError("the two-ball closed form is for the absolute problem")
            return _two_ball_series(domain)
        if not domain.is_ball() or np.linalg.norm(domain.center_offset) > 0:
            raise SolverError("closed form only covers centered balls")
        return CapacityResult(value=cap_ball(domain.rho_max, outer_radius),
                              method="closed-form", error_estimate=0.0)
    if solver == "wos":
        if outer_radius is not None:
            raise SolverError("walk on spheres is implemented for the absolute problem")
        return cap_wos(domain, wos_cfg)
    if solver == "harmonic":
        if isinstance(domain, CompositeDomain):
            raise SolverError("harmonic collocation needs a single star component")
        if outer_radius is None:
            return cap_exterior_harmonic(domain, l_max)
        return cap_relative_harmonic(domain, outer_radius, l_max)
    raise ValueError(f"unknown solver {solver!r}")


@dataclass(frozen=True)
class DeficitResult:
    value: float
    error_estimate: float
    capacity: CapacityResult
    scale: float  # dilation applied to reach unit-ball volume


def deficit(domain, outer_radius: float | None = None, solver: str = "harmonic",
            l_max: int = 8, wos_cfg: WosConfig | None = None) -> DeficitResult:
    """Capacity excess over the unit ball at fixed volume.

    The domain, a star or a union, is dilated to unit-ball volume first
    (`normalize_volume`), so the deficit of any ball is zero up to solver
    error, and the value is nonnegative up to solver error for every
    domain.
    """
    dom, lam = normalize_volume(domain)
    res = capacity(dom, outer_radius=outer_radius, solver=solver,
                   l_max=l_max, wos_cfg=wos_cfg)
    return DeficitResult(value=res.value - cap_ball(1.0, outer_radius),
                         error_estimate=res.error_estimate, capacity=res, scale=lam)
