"""Symmetric-difference functionals: Fraenkel asymmetry and the
boundary-weighted variants used by the quantitative stability checks.

All exact routes reduce to one-dimensional ray integrals.  Along the
ray t -> c + t*w the domain occupies [0, rho(w)) and a ball cuts the
interval between the roots of a quadratic, so both the plain volume
|A symdiff B| and the weighted integral of |1 - |x|| over it have
closed forms per ray; the angular integral is a quadrature sum.  A
composite's symmetric difference is a sum over its components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import _check_outer_radius
from .domains import CompositeDomain, StarDomain, barycenter, radial_bounds, volume
from .errors import GeometryError, SolverError
from .sphere import SphereQuadrature, ball_volume, build_quadrature, sphere_area

__all__ = [
    "AsymmetryResult",
    "symdiff_volume",
    "fraenkel",
    "alpha_R",
    "alpha",
    "annulus_lower_bound",
]


@dataclass(frozen=True)
class AsymmetryResult:
    value: float
    minimizing_center: np.ndarray
    evaluations: int


def _cube(x):
    y = x * x
    y *= x
    return y


def _lens_volume(r1: float, r2: float, d: float) -> float:
    """Intersection volume of two balls with radii r1, r2 at center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return ball_volume(min(r1, r2))
    return (math.pi * (r1 + r2 - d) ** 2
            * (d * d + 2.0 * d * (r1 + r2) - 3.0 * (r1 - r2) ** 2) / (12.0 * d))


_RAY_DEGREE = 128  # internal angular rule; ray integrands have kinks at
                   # surface crossings, so finer than the domain default


@dataclass(frozen=True)
class _RaySamples:
    """What `symdiff_volume` reads of a domain on every call.  A ball
    needs only its flag; any other domain has the cubes of its radii at
    the nodes of a rule of degree >= _RAY_DEGREE, and the certified upper
    bound rho_hi on its radius (`radial_bounds`)."""

    ball: bool
    quad: SphereQuadrature | None = None
    rho_cubed: np.ndarray | None = None
    rho_hi: float = math.inf


def _ray_samples(domain: StarDomain) -> _RaySamples:
    """The domain's `_RaySamples`, built on first use and kept on it."""
    if domain._rays is None:
        if domain.is_ball():
            domain._rays = _RaySamples(ball=True)
        else:
            if domain.quad.degree >= _RAY_DEGREE:
                quad, rho = domain.quad, domain.rho
            else:
                quad = build_quadrature(_RAY_DEGREE)
                rho = domain.radial(quad.nodes)
            domain._rays = _RaySamples(False, quad, _cube(rho),
                                       radial_bounds(domain)[1])
    return domain._rays


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


def symdiff_volume(domain, center, radius: float) -> float:
    """|Omega symdiff B_r(center)| by exact ray integration, for a star
    domain or a union.

    |Omega cap B| sums over the k disjoint components of a union, so
    |Omega symdiff B| = sum_i |Omega_i symdiff B| - (k - 1) |B|.

    The ball may sit anywhere; a star is integrated along rays from
    its own star center, where its radial extent is exact.  Ball domains
    take a closed-form lens route instead: the per-ray integrand has a
    derivative kink along the curve where the surfaces cross, which
    limits the quadrature path to roughly 1e-5 accuracy at unit scale.
    A ball that misses the domain's certified enclosing sphere,
    |c| >= rho_hi + r, is disjoint from it, so the value is exactly
    |Omega| + |B|; the rays would see it as a small cap with a kinked
    edge, off by up to a few percent of |B|.

    When 4|c|^2 <= r^2, with c the ball center relative to the domain's,
    the ray origin lies inside the ball, and the discriminant is at least
    (w.c)^2 + 3r^2/4, so its root exceeds |w.c| even after rounding.
    Then every ray enters the ball at t = 0: b0 and its cube are exactly
    0, no ray misses, b1 = w.c + root is positive, and only b1 is
    computed.  The result is the general formula's, bit for bit, with
    the same operations in the same order.

    A ray's share of |Omega cap B| is min(b1, rho)^3 - min(b0, rho)^3.
    The rounded cube x*x*x is nondecreasing for x >= 0, so
    min(b, rho)^3 is min(b^3, rho^3) exactly, and the cached rho^3 is
    used.
    """
    if isinstance(domain, CompositeDomain):
        parts = [symdiff_volume(c, center, radius) for c in domain.components]
        return math.fsum(parts) - (len(parts) - 1) * ball_volume(radius)
    c = np.asarray(center, dtype=float) - domain.center_offset
    c2 = float(c @ c)
    rays = _ray_samples(domain)
    if rays.ball:
        r1 = domain.rho_max
        cap = _lens_volume(r1, radius, math.sqrt(c2))
        return max(ball_volume(r1) + ball_volume(radius) - 2.0 * cap, 0.0)
    if c2 >= (rays.rho_hi + radius) ** 2:
        return volume(domain) + ball_volume(radius)
    rho3 = rays.rho_cubed
    dots = rays.quad.nodes @ c
    # |1_A - 1_B| integrates to vol(A) + vol(B) - 2 vol(A cap B) per ray
    if 4.0 * c2 <= radius * radius:
        b1 = dots**2
        b1 -= c2
        b1 += radius * radius
        np.sqrt(b1, out=b1)
        b1 += dots
        ib = _cube(b1)
        iab = np.minimum(ib, rho3)
    else:
        b0, b1 = _ball_interval(dots, c2, radius)
        b0, b1 = _cube(b0), _cube(b1)
        ib = b1 - b0
        iab = np.minimum(b1, rho3)
        iab -= np.minimum(b0, rho3)
    ib += rho3
    iab *= 2.0
    ib -= iab
    return float(rays.quad.weights @ ib) / 3.0


_SIMPLEX_TOL = 1e-10  # xatol and fatol of the simplex stop


class _BudgetSpent(Exception):
    """`_nelder_mead` has spent its evaluation budget."""


def _nelder_mead(f, x0, maxfev: int):
    """Minimise f from x0 by SciPy's Nelder-Mead, bit for bit.

    This is scipy.optimize.minimize(f, x0, method="Nelder-Mead",
    options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-10}) as
    SciPy 1.17 computes it, on lists of Python floats: the same initial
    simplex (each nonzero coordinate times 1.05, a zero one set to
    0.00025), the same points in the same floating-point operations
    (reflection 2 xbar - w, expansion 3 xbar - 2 w, contractions
    1.5 xbar - 0.5 w and 0.5 xbar + 0.5 w, shrink toward the best
    vertex), the same tie-breaking (np.argsort, which is not stable on
    every machine: on AVX-512 it runs a sorting network) and the same stop.
    The budget is checked before each evaluation, so it can run out
    inside a shrink, which leaves the vertex being shrunk moved with its
    old value, as SciPy does.  f receives a list.

    Returns SciPy's x, fun and nfev: the first vertex after the final
    sort, the least value in the simplex (NaN if any value is NaN), and
    the number of evaluations.  After a stop inside a shrink, that value
    may belong to the vertex's position before the shrink.
    """
    n = len(x0)
    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x)

    def sort():
        order = np.argsort(fsim).tolist()
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    sort()
    sort()  # as SciPy does: an unstable argsort may reorder ties again
    while nfev < maxfev:
        try:
            best = sim[0]
            if (all(abs(v - b) <= _SIMPLEX_TOL for x in sim[1:] for v, b in zip(x, best))
                    and all(abs(fsim[0] - fv) <= _SIMPLEX_TOL for fv in fsim[1:])):
                break
            xbar = list(sim[0])
            for x in sim[1:-1]:
                xbar = [s + v for s, v in zip(xbar, x)]
            xbar = [s / n for s in xbar]
            w = sim[-1]
            xr = [2 * b - v for b, v in zip(xbar, w)]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = [3 * b - 2 * v for b, v in zip(xbar, w)]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = [1.5 * b - 0.5 * v for b, v in zip(xbar, w)]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = [0.5 * b + 0.5 * v for b, v in zip(xbar, w)]
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        sort()
    return sim[0], float(np.min(fsim)), nfev


def fraenkel(domain: StarDomain | CompositeDomain) -> AsymmetryResult:
    """Fraenkel asymmetry min_c |Omega symdiff B_1(c)| / |B_1|.

    The domain must be volume-normalised.  The minimisation runs
    Nelder-Mead (`_nelder_mead`) under a budget of 500 objective
    evaluations, shared among its starts, of the objective
    `symdiff_volume`.  A star domain has five starts (barycenter,
    origin, and 0.1-shifted barycenters); a composite has one, its
    largest component's center.

    A start within about 2e-9 of the origin, with no coordinate exactly
    zero, is degenerate: its initial simplex steps are 5% of each
    coordinate, so its four vertices lie within 1e-10 of each other, and
    where their values also agree to 1e-10 it stops after its 4 initial
    evaluations.  On a projected abs-mode sweep member the barycenter is
    that close (1e-12 to 1e-10 from the origin on family seeds 1-3 at
    amplitude 0.3), so the first start is spent this way and the member
    takes 404 evaluations, not 500.  Changing the start would move every
    abs-mode `fraenkel` value, so it is kept (ROADMAP item 1).
    """
    if abs(volume(domain) - ball_volume()) > 1e-8:
        raise GeometryError("fraenkel needs a volume-normalised domain")
    omega = ball_volume()
    if isinstance(domain, CompositeDomain):
        starts = [max(domain.components, key=volume).center_offset]
    else:
        b = barycenter(domain)
        starts = [
            b,
            np.zeros(3),
            b + np.array([0.1, 0.0, 0.0]),
            b - np.array([0.1, 0.0, 0.0]),
            b + np.array([0.0, 0.0, 0.1]),
        ]

    def objective(c):
        return symdiff_volume(domain, c, 1.0) / omega

    best_val, best_c, count = np.inf, starts[0], 0
    for s in starts:
        x, val, nfev = _nelder_mead(objective, s, 500 // len(starts))
        count += nfev
        if val < best_val:
            best_val, best_c = val, np.array(x)
    return AsymmetryResult(value=best_val, minimizing_center=best_c,
                           evaluations=count)


def _weighted_shell(s: np.ndarray) -> np.ndarray:
    """Integral of |1 - t| t^2 dt between s and 1, vectorised.

    With d = |s - 1| it is d^2/2 - 2d^3/3 + d^4/4 for s < 1 and
    d^2/2 + 2d^3/3 + d^4/4 for s > 1.  This keeps full relative accuracy
    as s -> 1, where a difference of two antiderivatives near 1/12
    cancels: at d = 1e-4 it would keep about 8 of 16 digits.
    """
    s = np.asarray(s, dtype=float)
    d = np.abs(s - 1.0)
    return d * d * (0.5 + d * (np.where(s < 1.0, -2.0 / 3.0, 2.0 / 3.0) + 0.25 * d))


_CROSSING_RTOL = 4e-16  # the final bracket is this narrow, relative to the root
_CROSSING_PAD = 1e-12  # relative widening of the certified bracket, so that
                       # rounding in g cannot flip the sign at its ends


def _transversal(bounds: tuple[float, float, float], na: float) -> bool:
    """Whether rho_lo^2 > |a| sqrt(rho_lo^2 + G^2), with rho_lo > 0."""
    rho_lo, _, grad = bounds
    return rho_lo > 0.0 and rho_lo * rho_lo > na * math.hypot(rho_lo, grad)


def _crossing_radii(domain: StarDomain, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Where the rays origin + s*w, one per row w of dirs, leave the domain.

    The single crossing is certified, not assumed.  With a = origin -
    center, the outward normal at a boundary point x = rho(u) u points
    along u - grad_S rho / rho, whose length is
    sqrt(1 + |grad_S rho|^2 / rho^2) because grad_S rho is orthogonal to
    u.  So (x - a) . (u - grad_S rho / rho) is at least
    rho - |a| sqrt(1 + |grad_S rho|^2 / rho^2).
    With (rho_lo, rho_hi, G) from `radial_bounds` this is positive
    everywhere when rho_lo^2 > |a| sqrt(rho_lo^2 + G^2).  Every ray then
    leaves the domain transversally, hence exactly once, at a radius in
    [rho_lo - |a|, rho_hi + |a|].  The coefficient bounds are tried
    first; if they cannot certify, the sampled ones (`certified_bounds`)
    are; if those cannot either, GeometryError.

    All rays are bisected together from that bracket, one `radial` call
    per pass on g(s) = |a + s w| - rho, for as many passes as take the
    bracket's width below 4e-16 of its lower end.  `radial` gives each
    row's value from that row alone, so every ray's radius is
    independent of the others in the batch.  A NaN radius raises
    SolverError.
    """
    a = np.asarray(origin, dtype=float) - domain.center_offset
    na = float(np.linalg.norm(a))
    bounds = radial_bounds(domain)
    if not _transversal(bounds, na):
        bounds = domain.certified_bounds
    rho_lo, rho_hi, grad = bounds
    if not _transversal(bounds, na):
        raise GeometryError(
            f"cannot certify one boundary crossing per ray from {origin}: needs "
            f"rho_lo^2 > |a| sqrt(rho_lo^2 + G^2), with rho_lo = {rho_lo:.6g}, "
            f"|a| = {na:.6g}, G = {grad:.6g}")

    def g(s, w):
        x = a + s[:, None] * w
        r = np.linalg.norm(x, axis=1)
        # the point a + s w = 0 is the domain's center, inside along any w
        u = np.where((r > 0.0)[:, None], x / np.where(r > 0.0, r, 1.0)[:, None], w)
        gs = r - domain.radial(u)
        if np.isnan(gs).any():
            raise SolverError("the radius is NaN on a crossing ray")
        return gs

    n = len(dirs)
    w = np.asarray(dirs, dtype=float)
    s_lo = (rho_lo - na) * (1.0 - _CROSSING_PAD)
    s_hi = (rho_hi + na) * (1.0 + _CROSSING_PAD)
    ends = g(np.repeat([s_lo, s_hi], n), np.vstack([w, w]))
    if not (np.all(ends[:n] <= 0.0) and np.all(ends[n:] >= 0.0)):
        raise SolverError("the certified crossing bracket does not change sign")
    lo, hi = np.full(n, s_lo), np.full(n, s_hi)
    for _ in range(math.ceil(math.log2((s_hi - s_lo) / (_CROSSING_RTOL * s_lo)))):
        mid = 0.5 * (lo + hi)
        up = g(mid, w) >= 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


def _weighted_asymmetry(domain: StarDomain, origin: np.ndarray | None) -> float:
    """Integral of |1 - |x - origin|| over Omega symdiff B_1(origin).

    The integral runs along rays from the origin, on which the domain
    occupies [0, s(w)) and the ball [0, 1), so each ray contributes the
    integral of |1 - t| t^2 dt between s and 1, in closed form.
    origin None takes the rays from the domain's own center, where s(w)
    is the node radius; otherwise s(w) comes from `_crossing_radii`.
    """
    q = domain.quad
    s_exit = domain.rho if origin is None else _crossing_radii(domain, origin, q.nodes)
    return float(q.weights @ _weighted_shell(s_exit))


def alpha_R(domain: StarDomain, outer_radius: float | None = None) -> float:
    """Integral of |1 - |x|| over Omega symdiff B_1, both about the origin.

    outer_radius only gates the geometry: a relative-problem radius must
    exceed 1 (ConfigError otherwise), and the domain must fit inside B_R.
    """
    if outer_radius is not None:
        _check_outer_radius(outer_radius)
        if domain.enclosing_radius >= outer_radius:
            raise GeometryError("domain does not fit inside the outer ball")
    centered = np.linalg.norm(domain.center_offset) == 0.0
    return _weighted_asymmetry(domain, None if centered else np.zeros(3))


def alpha(domain: StarDomain) -> float:
    """Barycentric variant: the same weighted integral against B_1(x_O),
    measured in coordinates centered at the barycenter x_O."""
    x0 = barycenter(domain)
    centered = np.linalg.norm(x0 - domain.center_offset) < 1e-12
    return _weighted_asymmetry(domain, None if centered else x0)


def annulus_lower_bound(v: float) -> float:
    """Smallest possible integral of |1 - |x|| over a set of volume v.

    The minimiser is the sublevel annulus {|1 - |x|| <= delta} of
    measure v (bathtub principle).  With k = v / |B_1|, delta solves
    2 delta^3 + 6 delta = k while the inner radius 1 - delta is
    positive, so delta = 2 sinh(asinh(k/4) / 3), and the integral is
    4 pi (delta^2 + delta^4 / 2), both to full relative accuracy as
    v -> 0, where it behaves like v^2 / (16 pi).  From k = 8 on the
    annulus is the ball of radius cbrt(k), so delta = cbrt(k) - 1.
    """
    if v < 0:
        raise ValueError("volume must be nonnegative")
    k = v / ball_volume()
    if k < 8.0:
        delta = 2.0 * math.sinh(math.asinh(0.25 * k) / 3.0)
        d2 = delta * delta
        return sphere_area() * (d2 + 0.5 * d2 * d2)
    outer = float(np.cbrt(k))
    return float(sphere_area() * (_weighted_shell(outer) + _weighted_shell(0.0)))
