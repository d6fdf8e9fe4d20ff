"""Star-shaped domains given by a radial graph over the unit sphere.

A domain is the set {c + t*w : w on S^2, 0 <= t < rho(w)} for a strictly
positive radial function rho and a center c.  rho is carried as samples
at the nodes of a sphere quadrature, and away from the nodes by either
its harmonic coefficients (band-limited domains) or an exact radial
callable with closed-form bounds (ellipsoids); balls carry both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GeometryError
from .sphere import (
    HarmonicCoeffs,
    SphereQuadrature,
    ball_volume,
    build_quadrature,
    expand,
    flat_index,
    synthesize,
)

__all__ = [
    "StarDomain",
    "CompositeDomain",
    "TruncationReport",
    "FamilySpec",
    "ball",
    "ellipsoid",
    "nearly_spherical_from_phi",
    "volume",
    "barycenter",
    "normalize_volume",
    "scale_domain",
    "diameter",
    "truncate_rescale",
    "generate_family",
    "family_member",
    "save_domain",
    "load_domain",
]

_SUP_NORM_BOUND = 0.5  # radial perturbations must stay below this in sup norm
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 50


@dataclass
class StarDomain:
    """Radial-graph domain.  rho holds the radii at the quadrature nodes."""

    quad: SphereQuadrature
    rho: np.ndarray
    coeffs: HarmonicCoeffs | None = None
    rho_fn: object | None = None  # exact radial callable dirs -> radii
    rho_bounds: tuple | None = None  # closed-form (rho_lo, rho_hi, G) for rho_fn
    center_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    # the cubes of the radii on `asymmetry.symdiff_volume`'s ray rule, set
    # once on first use; not an init field, so a domain made by `replace`
    # starts without them
    _rays: object | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.center_offset = np.asarray(self.center_offset, dtype=float)
        if self.rho.shape != (self.quad.n_nodes,):
            raise GeometryError("rho must be sampled at the quadrature nodes")
        if not np.all(np.isfinite(self.rho)) or np.any(self.rho <= 0.0):
            raise GeometryError("radial function must be finite and strictly positive")
        if self.center_offset.shape != (3,) or not np.all(np.isfinite(self.center_offset)):
            raise GeometryError("center_offset must hold 3 finite numbers")
        if self.coeffs is None and (self.rho_fn is None or self.rho_bounds is None):
            raise GeometryError("a star domain needs harmonic coefficients, or an exact "
                                "radial callable together with its rho_bounds")

    # rho, coeffs and rho_bounds are set once, at construction, so these are taken once
    @cached_property
    def rho_max(self) -> float:
        return float(self.rho.max())

    @cached_property
    def rho_min(self) -> float:
        return float(self.rho.min())

    @cached_property
    def bounds(self) -> tuple[float, float, float]:
        """Certified (rho_lo, rho_hi, G): rho_lo <= rho <= rho_hi and
        |grad_S rho| <= G everywhere on the sphere, worked out once.

        A domain that carries closed-form bounds (`ball`, `ellipsoid`)
        returns them.  Otherwise they hold for the band-limited radius
        `radial` synthesises and are read off its harmonic coefficients.
        With c_l the coefficients of degree l, Cauchy-Schwarz and the
        addition theorem sum_m Y_lm^2 = (2l+1)/(4 pi),
        sum_m |grad_S Y_lm|^2 = l(l+1)(2l+1)/(4 pi) bound the degree-l
        part by |c_l| sqrt((2l+1)/(4 pi)) and its gradient by
        |c_l| sqrt(l(l+1)(2l+1)/(4 pi)); summing over l >= 1 around the
        mean c_00 / sqrt(4 pi) gives the three numbers.  The sums grow
        with the degree much faster than the radius and its gradient do,
        so at perturbations of 0.3 and above they can leave rho_lo <= 0.
        """
        if self.rho_bounds is not None:
            return self.rho_bounds
        coeffs = self.coeffs
        l = np.arange(1, coeffs.max_degree + 1)
        norms = np.array([np.linalg.norm(coeffs.degree_slice(k)) for k in l])
        mean = float(coeffs.values[0]) / math.sqrt(4.0 * math.pi)
        spread = float(norms @ np.sqrt((2 * l + 1) / (4.0 * math.pi)))
        grad = float(norms @ np.sqrt(l * (l + 1) * (2 * l + 1) / (4.0 * math.pi)))
        return mean - spread, mean + spread, grad

    @cached_property
    def certified_bounds(self) -> tuple[float, float, float]:
        """`bounds` tightened by samples, the tightest certified
        (rho_lo, rho_hi, G) there is, worked out once.

        A radius of degree L >= 1 given by coefficients is also bounded
        from samples, which is tight but costs a synthesis at degree 2L
        on about 80 L^2 points (`_sampled_bounds`), and the better of
        each pair is kept.  Closed-form bounds are returned as they are.
        """
        if self.rho_bounds is not None or self.coeffs.max_degree == 0:
            return self.bounds
        lo, hi, grad = self.bounds
        s_lo, s_hi, s_grad = _sampled_bounds(self.coeffs)
        return max(s_lo, lo), min(s_hi, hi), min(s_grad, grad)

    @cached_property
    def volume(self) -> float:
        """The volume (`domains.volume`): the correctly rounded sum of
        w_i rho_i^3, over 3, worked out once."""
        return _exact_moment(self.quad.weights, self.rho, 3) / 3

    @cached_property
    def centroid(self) -> np.ndarray:
        """The barycenter relative to the domain's center, worked out
        once; `barycenter` adds the center.  Read-only."""
        moment = (self.quad.weights * self.rho ** 4) @ self.quad.nodes / 4
        centroid = moment / self.volume
        centroid.setflags(write=False)
        return centroid

    @property
    def enclosing_radius(self) -> float:
        """|center| + rho_max: for a ball, the radius about the origin of a
        ball containing the closure.  A star can reach past its node maximum
        rho_max (by 3.8e-4 to 3.6e-3 on degree-8 random stars); then it falls short."""
        return float(np.linalg.norm(self.center_offset) + self.rho_max)

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        """Radii in arbitrary unit directions (from the domain's center):
        the exact callable when there is one, else the band-limited
        generator."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.rho_fn is not None:
            return np.asarray(self.rho_fn(dirs), dtype=float)
        return synthesize(self.coeffs, dirs)

    def is_ball(self) -> bool:
        """Whether the certified `bounds` meet, rho_lo == rho_hi: a ball
        about the domain's center, of radius rho_lo."""
        lo, hi, _ = self.bounds
        return lo == hi


@dataclass
class CompositeDomain:
    """Finite union of star domains with pairwise disjoint closures.

    Disjointness is certified by center separation exceeding the sum of
    certified radii about each component's own center (`certified_bounds`).
    """

    components: list

    def __post_init__(self):
        comps = self.components
        if not comps:
            raise GeometryError("composite domain needs at least one component")
        rho_hi = [c.certified_bounds[1] for c in comps]
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                gap = np.linalg.norm(comps[i].center_offset - comps[j].center_offset)
                if gap <= rho_hi[i] + rho_hi[j]:
                    raise GeometryError(
                        f"components {i} and {j} are not certifiably disjoint "
                        f"(center gap {gap:.6g} <= {rho_hi[i] + rho_hi[j]:.6g})"
                    )

    @property
    def enclosing_radius(self) -> float:
        return max(c.enclosing_radius for c in self.components)


def ball(radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> StarDomain:
    """Ball about center, with the closed-form bounds (radius, radius, 0.0)."""
    if radius <= 0:
        raise GeometryError(f"radius must be positive, got {radius}")
    quad = build_quadrature(16)
    r = float(radius)
    coeffs = HarmonicCoeffs.zeros(0)
    coeffs.values[0] = r * math.sqrt(4.0 * math.pi)
    return StarDomain(
        quad=quad,
        rho=np.full(quad.n_nodes, r),
        coeffs=coeffs,
        rho_fn=lambda dirs: np.full(np.atleast_2d(dirs).shape[0], r),
        rho_bounds=(r, r, 0.0),
        center_offset=np.asarray(center, dtype=float),
    )


def ellipsoid(eps: float) -> StarDomain:
    """Volume-preserving ellipsoid with semi-axes (1+eps, 1+eps, (1+eps)^-2).

    eps = 0 gives the unit ball; the product of the axes is 1, so the
    volume equals that of the unit ball for every eps.

    With a = 1+eps and c = (1+eps)^-2 the radius at polar angle t is
    rho = ac / sqrt(c^2 sin^2 t + a^2 cos^2 t), between c and a, and
    |d rho/dt| = rho (a^2 - c^2) sin t cos t / (c^2 sin^2 t + a^2 cos^2 t)
    <= rho (a^2 - c^2) / (2ac) <= (a^2 - c^2) / (2c) by AM-GM: the
    closed-form `bounds` it carries.
    """
    if not 0.0 <= eps < 0.5:
        raise GeometryError(f"eps must lie in [0, 0.5), got {eps}")
    # the radial integrands are smooth but not band-limited; the degree
    # needed for ~1e-12 volume accuracy grows with the eccentricity
    quad = build_quadrature(max(16, 8 * math.ceil((32 + 150 * eps) / 8)))
    a, c = 1.0 + eps, (1.0 + eps) ** -2
    axes = np.array([a, a, c])

    def rho_fn(dirs, axes=axes):
        d = np.atleast_2d(np.asarray(dirs, dtype=float))
        return 1.0 / np.sqrt((d**2 / axes**2).sum(axis=1))

    return StarDomain(
        quad=quad,
        rho=rho_fn(quad.nodes),
        rho_fn=rho_fn,
        rho_bounds=(c, a, (a * a - c * c) / (2.0 * c)),
    )


def _sup_norm_dense(coeffs: HarmonicCoeffs) -> float:
    """Sup norm of a band-limited function by dense sampling."""
    deg = max(6 * coeffs.max_degree, 48)
    fine = build_quadrature(deg)
    return float(np.abs(synthesize(coeffs, fine.nodes)).max())


def _check_sup_norm(phi: HarmonicCoeffs) -> None:
    """Refuse a perturbation with sup|phi| >= 1/2, by dense sampling."""
    if not _sup_norm_dense(phi) < _SUP_NORM_BOUND:
        raise GeometryError("perturbation exceeds the sup-norm bound 1/2")


def nearly_spherical_from_phi(phi: HarmonicCoeffs) -> StarDomain:
    """Domain with radial graph 1 + phi + shift for a band-limited
    perturbation phi.

    Requires sup|phi| < 1/2 (checked by dense sampling).  The constant
    shift is found by Newton iteration so that the volume equals that of
    the unit ball to within 1e-13.
    """
    _check_sup_norm(phi)
    return _nearly_spherical(phi)


def _nearly_spherical(phi: HarmonicCoeffs) -> StarDomain:
    """`nearly_spherical_from_phi` without the dense check of phi, for a
    caller that checks the phi it starts from and the one it returns
    (`project_barycenter`).  The radii at the nodes are still checked."""
    # the volume integrand rho^3 must stay inside the exactness range
    quad = build_quadrature(max(3 * phi.max_degree, 16))
    phi_nodes = synthesize(phi, quad.nodes)
    shift = 0.0
    w = quad.weights
    target = ball_volume()
    for _ in range(_NEWTON_MAX_ITER):
        r = 1.0 + phi_nodes + shift
        v = float(w @ (r**3)) / 3.0
        if abs(v - target) < _NEWTON_TOL:
            break
        dv = float(w @ (r**2))
        shift -= (v - target) / dv
    else:
        raise GeometryError("volume correction did not converge")
    coeffs = phi.copy()
    coeffs.values[flat_index(0, 0)] += (1.0 + shift) * math.sqrt(4.0 * math.pi)
    dom = StarDomain(quad=quad, rho=1.0 + phi_nodes + shift, coeffs=coeffs)
    if dom.rho_max - 1.0 >= _SUP_NORM_BOUND or 1.0 - dom.rho_min >= _SUP_NORM_BOUND:
        raise GeometryError("perturbation exceeds the sup-norm bound 1/2 after correction")
    return dom


_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles


def _two_product(a: np.ndarray, b: np.ndarray):
    """Dekker's error-free product: p + e == a * b exactly, elementwise.

    Uses only IEEE basic operations (no fused multiply-add), so the pair
    is the same on every machine.  Exact barring overflow or underflow.
    """
    p = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _exact_moment(weights: np.ndarray, rho: np.ndarray, power: int) -> float:
    """Correctly rounded sum_i weights_i * rho_i**power over the float inputs.

    Each term is expanded exactly into 2**power doubles by repeated
    two-products, and math.fsum rounds the exact total once (Ogita,
    Rump & Oishi, SIAM J. Sci. Comput. 26, 2005).  Unlike a BLAS dot
    product, the result does not depend on the summation order that the
    build or the CPU picks.
    """
    terms = [weights]
    for _ in range(power):
        terms = [part for t in terms for part in _two_product(t, rho)]
    return math.fsum(np.concatenate(terms).tolist())


def volume(domain) -> float:
    """Lebesgue volume; exact when rho^3 is inside the quadrature range.

    The quadrature sum sum_i w_i rho_i^3 is correctly rounded and then
    divided by 3 once, so the value is the same on every machine.
    """
    if isinstance(domain, CompositeDomain):
        return sum(volume(c) for c in domain.components)
    return domain.volume


def barycenter(domain) -> np.ndarray:
    if isinstance(domain, CompositeDomain):
        vols = np.array([volume(c) for c in domain.components])
        cents = np.array([barycenter(c) for c in domain.components])
        return (vols[:, None] * cents).sum(axis=0) / vols.sum()
    return domain.center_offset + domain.centroid


def _sampled_bounds(coeffs: HarmonicCoeffs) -> tuple[float, float, float]:
    """(rho_lo, rho_hi, G) for a radius of degree L >= 1, from samples.

    On any circle of the sphere, latitude or great circle, a polynomial
    of degree n on the sphere is a trigonometric polynomial T of degree
    n, so |T''| <= n^2 sup|T| (Bernstein).  The samples lie on great
    circles through the poles at longitudes 2 delta apart, each sampled
    every 2 delta of arc.  At an extremum of T on the sphere T' vanishes
    along the latitude circle, so the nearest of these great circles
    holds a value within n^2 delta^2 sup|T| / 2 of it; at that circle's
    own extremum T' vanishes again, so the nearest sample is within
    another n^2 delta^2 sup|T| / 2.  The sampled extremes thus miss the
    true ones by at most kappa sup|T - m| for any constant m, with
    kappa = n^2 delta^2, and sup|T - m| <= r / (1 - kappa) where m and r
    are the midpoint and half-width of the sampled range.  Here
    delta = 1 / (4L): kappa = 1/16 for rho (n = L), and 1/4 for
    q = |grad_S rho|^2 = Lap(rho^2) / 2 - rho Lap(rho) (n = 2L, q >= 0,
    so sup q <= max sampled q / (1 - kappa)).  rho^2 is expanded to
    degree 2L exactly, by a quadrature exact to degree 4L.
    """
    L = coeffs.max_degree
    k = math.ceil(2.0 * math.pi * L)  # pi / k <= 2 delta, with delta = 1 / (4L)
    colat = np.arange(2 * k) * (math.pi / k)
    lon = np.arange(k) * (math.pi / k)
    t, p = (a.ravel() for a in np.meshgrid(colat, lon))
    dirs = np.column_stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
    quad = build_quadrature(4 * L)
    square = expand(synthesize(coeffs, quad.nodes) ** 2, 2 * L, quad)
    rho = synthesize(coeffs, dirs)
    q = 0.5 * synthesize(_laplacian(square), dirs) - rho * synthesize(_laplacian(coeffs), dirs)
    kappa = 1.0 / 16.0
    slack = kappa / (1.0 - kappa) * 0.5 * float(rho.max() - rho.min())
    return (float(rho.min()) - slack, float(rho.max()) + slack,
            math.sqrt(max(float(q.max()), 0.0) / (1.0 - 4.0 * kappa)))


def _laplacian(coeffs: HarmonicCoeffs) -> HarmonicCoeffs:
    """Coefficients of the Laplace-Beltrami operator applied to coeffs."""
    l = np.arange(coeffs.max_degree + 1)
    return HarmonicCoeffs(coeffs.max_degree,
                          coeffs.values * np.repeat(-l * (l + 1.0), 2 * l + 1))


def scale_domain(domain, lam: float):
    """Dilation x -> lam*x about the origin; a union is dilated
    component by component."""
    if lam <= 0:
        raise GeometryError("scale factor must be positive")
    if isinstance(domain, CompositeDomain):
        return CompositeDomain([scale_domain(c, lam) for c in domain.components])
    coeffs = None
    if domain.coeffs is not None:
        coeffs = domain.coeffs.copy()
        coeffs.values *= lam
    fn = domain.rho_fn
    rho_fn = (lambda dirs, fn=fn, lam=lam: lam * np.asarray(fn(dirs))) if fn is not None else None
    bounds = domain.rho_bounds
    return StarDomain(
        quad=domain.quad,
        rho=lam * domain.rho,
        coeffs=coeffs,
        rho_fn=rho_fn,
        rho_bounds=tuple(lam * b for b in bounds) if bounds is not None else None,
        center_offset=lam * domain.center_offset,
    )


def normalize_volume(domain):
    """Dilate a star or a union about the origin so its volume equals
    that of the unit ball (within 1e-12).  Returns (domain, factor)."""
    lam = (ball_volume() / volume(domain)) ** (1.0 / 3.0)
    return scale_domain(domain, lam), lam


def boundary_cloud(domain) -> np.ndarray:
    if isinstance(domain, CompositeDomain):
        return np.vstack([boundary_cloud(c) for c in domain.components])
    return domain.center_offset + domain.rho[:, None] * domain.quad.nodes


def diameter(domain) -> float:
    """Diameter of the boundary node cloud.

    Exact for balls (the node set is antipodally symmetric); for other
    domains a lower estimate with the angular resolution of the rule.
    """
    pts = boundary_cloud(domain)
    # max pairwise distance; point counts here are small enough for O(n^2)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


@dataclass(frozen=True)
class TruncationReport:
    outside_volume: float
    scale: float
    diameter: float


def truncate_rescale(domain, radius_cut: float):
    """Drop components outside a centered ball, rescale the rest to unit volume.

    Every component must lie entirely inside or entirely outside the
    ball of radius `radius_cut`, judged by its certified radius
    (`certified_bounds`); a component the cut sphere slices is refused.
    The kept part, one component or a union of several, is dilated
    about the origin to unit-ball volume (`normalize_volume`).

    Returns the truncated domain and a report with the volume dropped,
    the dilation factor, and the diameter of the result.
    """
    comps = domain.components if isinstance(domain, CompositeDomain) else [domain]
    inside, outside = [], []
    for k, c in enumerate(comps):
        dist = float(np.linalg.norm(c.center_offset))
        rho_hi = c.certified_bounds[1]
        if dist + rho_hi <= radius_cut:
            inside.append(c)
        elif dist - rho_hi >= radius_cut:
            outside.append(c)
        else:
            raise GeometryError(
                f"component {k} is sliced by the cut sphere of radius {radius_cut}"
            )
    if not inside:
        raise GeometryError("no component lies inside the cut sphere")
    out, lam = normalize_volume(CompositeDomain(inside) if len(inside) > 1 else inside[0])
    report = TruncationReport(
        outside_volume=sum(volume(c) for c in outside),
        scale=lam,
        diameter=diameter(out),
    )
    return out, report


# family variant -> domain_id prefix of its members
_MEMBER_PREFIX = {"ellipsoid": "ellipsoid",
                  "harmonic_perturbation": "harm-{degree}-{order}",
                  "random_star": "random"}


@dataclass
class FamilySpec:
    """Description of a one-parameter family of test domains.

    variant is one of:
      "ellipsoid"               eps grid on [eps_min, eps_max]
      "harmonic_perturbation"   1 + t*Y_{degree,order}, t grid up to amplitude
      "random_star"             random band-limited perturbations
    """

    variant: str
    count: int
    eps_min: float = 0.05
    eps_max: float = 0.4
    degree: int = 2
    order: int = 2
    amplitude: float = 0.1
    seed: int = 0
    max_degree: int = 4

    def __post_init__(self):
        if self.variant not in _MEMBER_PREFIX:
            raise GeometryError(f"unknown family variant {self.variant!r}")
        if self.count < 1:
            raise GeometryError("family count must be >= 1")
        if self.max_degree < 1:
            raise ConfigError(f"the family's max_degree must be at least 1, got {self.max_degree}")
        if not math.isfinite(self.amplitude):
            raise ConfigError(f"the family's amplitude must be finite, got {self.amplitude}")
        if not (0.0 <= self.eps_min < 0.5 and 0.0 <= self.eps_max < 0.5):
            raise ConfigError("the family's eps_min and eps_max must lie in [0, 0.5), "
                              f"got {self.eps_min} and {self.eps_max}")
        _check_seed(self.seed)

    def member_id(self, k: int) -> str:
        """The domain_id of member k, known before the member is built."""
        prefix = _MEMBER_PREFIX[self.variant].format(degree=self.degree, order=self.order)
        return f"{prefix}-{k:03d}"


def _is_integer(value) -> bool:
    """True for a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not an integer in [0, 2**64), the range
    every seeded stream of isocap takes (NumPy's generator, the uint64
    walk hash)."""
    if not (_is_integer(seed) and 0 <= seed < 2**64):
        raise ConfigError(f"the seed must be an integer in [0, 2**64), got {seed!r}")


def _random_phi(seed: int, member: int, max_degree: int, amplitude: float) -> HarmonicCoeffs:
    rng = np.random.default_rng([seed, member])
    phi = HarmonicCoeffs.zeros(max_degree)
    for l in range(1, max_degree + 1):
        sl = phi.degree_slice(l)
        sl[:] = rng.normal(size=sl.size) / l**2
    # scale the sup norm to a member-dependent fraction of the cap
    target = amplitude * rng.uniform(0.3, 1.0)
    phi.values *= target / _sup_norm_dense(phi)
    return phi


def family_member(spec: FamilySpec, k: int):
    """Member k of a family, as (domain_id, parameter, domain, phi).

    phi is the generating perturbation (volume-corrected) when the
    member is nearly spherical, else None.  Each member is built on its
    own: a random star's generator is keyed by (seed, k), and a grid
    member takes entry k of the family's grid, so a member that fails to
    build leaves the others as they are.
    """
    if spec.variant == "ellipsoid":
        eps = float(np.linspace(spec.eps_min, spec.eps_max, spec.count)[k])
        return spec.member_id(k), eps, normalize_volume(ellipsoid(eps))[0], None
    if spec.variant == "harmonic_perturbation":
        t = float((spec.amplitude * (1.0 + np.arange(spec.count)) / spec.count)[k])
        phi = HarmonicCoeffs.single(spec.degree, spec.order, t,
                                    max_degree=max(spec.degree, 1))
        dom = nearly_spherical_from_phi(phi)
        return spec.member_id(k), t, dom, phi
    phi = _random_phi(spec.seed, k, spec.max_degree, spec.amplitude)
    dom = nearly_spherical_from_phi(phi)
    amp = float(np.abs(synthesize(phi, dom.quad.nodes)).max())
    return spec.member_id(k), amp, dom, phi


def generate_family(spec: FamilySpec):
    """Every member of a family, in order (`family_member`)."""
    return [family_member(spec, k) for k in range(spec.count)]


_FORMAT_LINE = "stardomain 1"
_DIMENSION_LINE = "dimension 3"  # the only space a domain file may describe


def save_domain(domain: StarDomain, path) -> None:
    """Write the harmonic generator to a plain-text file.  A domain
    without one, such as an ellipsoid, is refused with GeometryError."""
    coeffs = domain.coeffs
    if coeffs is None:
        raise GeometryError("only a domain with harmonic coefficients can be saved")
    lines = [
        f"format {_FORMAT_LINE}",
        _DIMENSION_LINE,
        f"max_degree {coeffs.max_degree}",
        "center " + " ".join(repr(float(x)) for x in domain.center_offset),
        "coeffs",
    ]
    lines += [repr(float(v)) for v in coeffs.values]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_domain(path) -> StarDomain:
    """Read a file written by `save_domain`.  A file that describes
    another space than R^3 is refused with GeometryError."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != f"format {_FORMAT_LINE}":
        raise GeometryError(f"unrecognised domain file header: {lines[:1]}")
    fields = {}
    i = 1
    while lines[i] != "coeffs":
        key, _, val = lines[i].partition(" ")
        fields[key] = val
        i += 1
    max_degree = int(fields["max_degree"])
    center = np.array([float(x) for x in fields["center"].split()])
    if _DIMENSION_LINE not in lines[1:i] or center.shape != (3,):
        raise GeometryError(f"a domain file must hold the line {_DIMENSION_LINE!r} "
                            "and a center with 3 entries")
    values = np.array([float(x) for x in lines[i + 1 :]])
    coeffs = HarmonicCoeffs(max_degree, values)
    quad = build_quadrature(max(3 * max_degree, 16))
    return StarDomain(
        quad=quad,
        rho=synthesize(coeffs, quad.nodes),
        coeffs=coeffs,
        center_offset=center,
    )
