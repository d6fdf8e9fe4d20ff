"""Quadrature and real spherical harmonics on the unit sphere S^2.

Conventions used throughout the package:

* directions are unit vectors in R^3 stored as rows of shape (..., 3);
* surface integrals are with respect to the area measure of S^2, so
  the weights of a quadrature rule sum to the sphere area 4 pi;
* spherical harmonics are real and orthonormal in L^2 of that measure
  (no 1/(4 pi) normalisation), so the constant harmonic of degree zero
  equals (4 pi)^{-1/2}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "sphere_area",
    "ball_volume",
    "SphereQuadrature",
    "build_quadrature",
    "HarmonicCoeffs",
    "harmonic_basis",
    "expand",
    "synthesize",
]


def sphere_area() -> float:
    """Surface area of the unit sphere S^2 in R^3."""
    return 4.0 * math.pi


def ball_volume(radius: float = 1.0) -> float:
    """Volume of the ball of given radius in R^3."""
    return 4.0 * math.pi / 3.0 * radius**3


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights integrating spherical polynomials exactly.

    A product rule: Gauss-Legendre in the polar cosine crossed with a
    uniform azimuthal grid.  Exact for polynomials on the sphere up to
    total degree `degree`; weights sum to the sphere area.
    """

    degree: int
    nodes: np.ndarray  # (n, 3), unit rows
    weights: np.ndarray  # (n,), positive

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@functools.lru_cache(maxsize=None)
def build_quadrature(degree: int) -> SphereQuadrature:
    """Product quadrature on S^2 exact up to the requested degree.

    Rules are built once per degree and shared by every caller, so
    their arrays are read-only.

    Parameters
    ----------
    degree : int
        Polynomial exactness degree, >= 0.

    Notes
    -----
    The rule uses ceil((degree+1)/2) Gauss-Legendre nodes in
    cos(theta) and an even number >= degree+1 of uniform azimuth nodes,
    which makes the node set antipodally symmetric.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    n_theta = (degree + 2) // 2
    n_theta = max(n_theta, 1)
    n_phi = degree + 1
    if n_phi % 2 == 1:
        n_phi += 1
    z, wz = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - z**2)
    # outer products over (theta, phi)
    x = np.outer(s, np.cos(phi)).ravel()
    y = np.outer(s, np.sin(phi)).ravel()
    zz = np.outer(z, np.ones(n_phi)).ravel()
    nodes = np.column_stack([x, y, zz])
    weights = np.outer(wz, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphereQuadrature(degree=degree, nodes=nodes, weights=weights)


_SQRT2 = math.sqrt(2.0)
# rows synthesised per pass: keeps the (L+1, rows) work arrays in cache,
# which halves the time of a 65,536-row call at L = 8
_SYNTH_ROWS = 4096


def _n_coeffs(max_degree: int) -> int:
    # sum of (2l+1) for l = 0..L
    return (max_degree + 1) ** 2


@dataclass
class HarmonicCoeffs:
    """Coefficients of a real band-limited function on S^2.

    Layout: degrees stacked in increasing l; inside degree l the order
    index m runs 0..2l and maps to the signed azimuthal order m - l
    (negative orders are the sin(|m| phi) modes, positive the cos).
    """

    max_degree: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = _n_coeffs(self.max_degree)
        if self.values.shape != (expected,):
            raise ValueError(
                f"expected {expected} coefficients for max_degree {self.max_degree}, "
                f"got shape {self.values.shape}"
            )

    @staticmethod
    def zeros(max_degree: int) -> "HarmonicCoeffs":
        return HarmonicCoeffs(max_degree, np.zeros(_n_coeffs(max_degree)))

    @staticmethod
    def single(degree: int, order: int, amplitude: float = 1.0,
               max_degree: int | None = None) -> "HarmonicCoeffs":
        """Coefficients of amplitude * Y_{l,m}, padded to max_degree."""
        L = degree if max_degree is None else max_degree
        c = HarmonicCoeffs.zeros(L)
        c.values[flat_index(degree, order)] = amplitude
        return c

    def coefficient(self, degree: int, order: int) -> float:
        return float(self.values[flat_index(degree, order)])

    def degree_slice(self, degree: int) -> np.ndarray:
        i0 = degree**2
        return self.values[i0 : i0 + 2 * degree + 1]

    def copy(self) -> "HarmonicCoeffs":
        return HarmonicCoeffs(self.max_degree, self.values.copy())


def flat_index(degree: int, order: int) -> int:
    """Position of (l, m) in the flat coefficient layout."""
    if not 0 <= order <= 2 * degree:
        raise ValueError(f"order {order} outside 0..{2 * degree} for degree {degree}")
    return degree**2 + order


@functools.lru_cache(maxsize=None)
def _recurrence_tables(max_degree: int) -> tuple:
    """Tables of the normalised associated-Legendre recurrence through L.

    For l = 1..L, diag[l] = -sqrt((2l+1)/(2l)) steps Pbar_{l-1}^{l-1} to
    Pbar_l^l (the sign is the Condon-Shortley phase), and the columns
    a[l], b[l] hold a_lm = sqrt((4l^2-1)/(l^2-m^2)) for m < l and
    b_lm = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1)) for m < l-1, so that
    Pbar_l^m = a_lm (z Pbar_{l-1}^m - b_lm Pbar_{l-2}^m); at m = l-1 this
    is Pbar_l^{l-1} = sqrt(2l+1) z Pbar_{l-1}^{l-1} (Holmes & Featherstone,
    J. Geodesy 76, 2002).  The arrays are read-only: every caller
    shares the cached entry of a degree.
    """
    diag, a, b = [0.0], [None], [None]
    for l in range(1, max_degree + 1):
        m = np.arange(l)[:, None]
        diag.append(-math.sqrt((2 * l + 1) / (2 * l)))
        a.append(np.sqrt((4 * l * l - 1) / (l * l - m * m)))
        b.append(np.sqrt(((l - 1) ** 2 - m[:-1] ** 2) / (4 * (l - 1) ** 2 - 1)))
        a[l].flags.writeable = b[l].flags.writeable = False
    return tuple(diag), tuple(a), tuple(b)


def _normalised_legendre(max_degree: int, z: np.ndarray):
    """Yield (l, P) for l = 0..L, where P[m] holds Pbar_l^m(z), m = 0..l.

    Pbar_l^m is scipy's lpmv(m, l, z), Condon-Shortley phase included,
    times sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!): Pbar_l^0(cos theta) is the
    orthonormal zonal harmonic, and sqrt(2) Pbar_l^m(cos theta) cos(m phi),
    sqrt(2) Pbar_l^m(cos theta) sin(m phi) are the orthonormal m > 0 ones.
    """
    diag, a, b = _recurrence_tables(max_degree)
    s = np.sqrt((1.0 - z) * (1.0 + z))
    prev = np.empty((0,) + z.shape)
    cur = np.full((1,) + z.shape, 1.0 / math.sqrt(4.0 * math.pi))
    yield 0, cur
    for l in range(1, max_degree + 1):
        P = np.empty((l + 1,) + z.shape)
        np.multiply(z, cur, out=P[:l])
        P[: l - 1] -= b[l] * prev
        P[:l] *= a[l]
        np.multiply(diag[l] * s, cur[l - 1], out=P[l])
        prev, cur = cur, P
        yield l, P


def _polar(dirs: np.ndarray, max_degree: int):
    """Polar cosine z of unit rows, and e^{i m phi} for m = 1..L as rows.

    The powers come from one running product of e^{i phi}, which is
    accurate to about m ulps and avoids 2L trigonometric calls per
    point.  On the polar axis phi is taken as 0, where every m > 0
    harmonic vanishes.
    """
    z = np.clip(dirs[:, 2], -1.0, 1.0)
    rho = np.hypot(dirs[:, 0], dirs[:, 1])
    pole = rho == 0.0
    unit = np.where(pole, 1.0, dirs[:, 0] + 1j * dirs[:, 1]) / np.where(pole, 1.0, rho)
    return z, np.cumprod(np.broadcast_to(unit, (max_degree,) + unit.shape), axis=0)


def harmonic_basis(max_degree: int, dirs: np.ndarray) -> np.ndarray:
    """Matrix of all real orthonormal harmonics through max_degree.

    Parameters
    ----------
    max_degree : int
        Largest degree L included.
    dirs : ndarray, shape (n, 3)
        Unit vectors.

    Returns
    -------
    ndarray, shape (n, (L+1)^2)
        Column j holds Y_{l,m} evaluated at the rows of `dirs`, in the
        flat layout of HarmonicCoeffs.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    z, e_m = _polar(dirs, max_degree)
    cos_m = _SQRT2 * e_m.real
    sin_m = _SQRT2 * e_m.imag
    out = np.empty((dirs.shape[0], _n_coeffs(max_degree)))
    for l, P in _normalised_legendre(max_degree, z):
        centre = l * l + l
        out[:, centre] = P[0]
        # signed order +m sits at centre + m, -m at centre - m
        out[:, centre + 1 : centre + l + 1] = (P[1:] * cos_m[:l]).T
        out[:, centre - l : centre] = (P[1:] * sin_m[:l])[::-1].T
    return out


def expand(samples: np.ndarray, max_degree: int, quad: SphereQuadrature) -> HarmonicCoeffs:
    """Project sampled values onto harmonics through max_degree.

    The rule must integrate products of two degree-L harmonics exactly,
    so quad.degree >= 2 * max_degree is required.
    """
    if quad.degree < 2 * max_degree:
        raise ValueError(
            f"quadrature degree {quad.degree} too low for expansion through "
            f"degree {max_degree}; need >= {2 * max_degree}"
        )
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (quad.n_nodes,):
        raise ValueError("samples must be given at the quadrature nodes")
    B = harmonic_basis(max_degree, quad.nodes)
    coeffs = B.T @ (quad.weights * samples)
    return HarmonicCoeffs(max_degree, coeffs)


def _synthesize_rows(coeffs: HarmonicCoeffs, dirs: np.ndarray) -> np.ndarray:
    L = coeffs.max_degree
    z, e_m = _polar(dirs, L)
    c = coeffs.values
    cos_sum = np.zeros((L + 1, dirs.shape[0]))  # order m = 0..L
    sin_sum = np.zeros((L, dirs.shape[0]))  # order m = 1..L
    for l, P in _normalised_legendre(L, z):
        row = c[l * l : (l + 1) ** 2]  # signed order m sits at row[l + m]
        cos_sum[: l + 1] += row[l:, None] * P
        sin_sum[:l] += row[:l][::-1, None] * P[1:]
    harmonics = e_m.real * cos_sum[1:] + e_m.imag * sin_sum
    return cos_sum[0] + _SQRT2 * harmonics.sum(axis=0)


def synthesize(coeffs: HarmonicCoeffs, dirs: np.ndarray) -> np.ndarray:
    """Evaluate a band-limited function from its coefficients.

    For each azimuthal order m it sums the Legendre series
    sum_l c_{l,+-m} Pbar_l^m first and applies sqrt(2) cos(m phi) or
    sqrt(2) sin(m phi) once, so the (n, (L+1)^2) basis is never formed.
    Each row's value depends on that row alone.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    out = np.empty(dirs.shape[0])
    for i in range(0, dirs.shape[0], _SYNTH_ROWS):
        out[i : i + _SYNTH_ROWS] = _synthesize_rows(coeffs, dirs[i : i + _SYNTH_ROWS])
    return out
