"""Exact implicit-surface geometry: signed distance, normals, closest-point
projection, and extension of surface fields into the surrounding tubular
neighborhood.

All operations accept a single point of shape (3,) or a batch of shape
(n, 3) and return correspondingly shaped results.  Everything is a pure
function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImplicitSurface",
    "Torus",
    "Translated",
    "GeometryError",
    "fd_gradient",
    "fd_jacobian",
]

FD_STEP = 1e-5


class GeometryError(ValueError):
    pass


def _as_points(x):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


def _squeeze(arr, single):
    return arr[0] if single else arr


class ImplicitSurface:
    """Closed surface given by a signed distance function.

    `delta0` is the half-width of the tubular neighborhood within which the
    closest-point projection is unique; operations that rely on projection
    raise GeometryError outside it.
    """

    delta0: float

    # subclasses implement the batch kernels (pts has shape (n, 3))
    def _distance(self, pts):
        raise NotImplementedError

    def _gradient(self, pts):
        raise NotImplementedError

    def _closest(self, pts):
        raise NotImplementedError

    def signed_distance(self, x):
        pts, single = _as_points(x)
        return _squeeze(self._distance(pts), single)

    def surface_normal(self, x):
        """Unit normal n = grad(rho)/|grad(rho)|; constant along normal lines."""
        pts, single = _as_points(x)
        g = self._gradient(pts)
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms <= 1e-10):
            raise GeometryError("undefined normal: degenerate distance gradient")
        return _squeeze(g / norms[:, None], single)

    def closest_point(self, x):
        """Projection onto the surface; guaranteed unique for |rho| < delta0.

        The closed-form kernels remain valid outside the tube and raise
        "projection not unique" only on their genuinely degenerate sets.
        """
        pts, single = _as_points(x)
        return _squeeze(self._closest(pts), single)

    def extend_vector(self, f, x):
        """Pull-back extension f(p(x)) of a scalar or vector field, constant
        along normal lines."""
        pts, single = _as_points(x)
        vals = np.asarray(f(self.closest_point(pts)), dtype=float)
        return _squeeze(vals, single)

    def surface_divergence_fd(self, v, x):
        """Surface divergence tr(P * D(v o p)) by central differences.

        Testing utility: `x` must lie on the surface (|rho| <= 1e-10) and `v`
        must be evaluable near the surface through the extension.
        """
        pts, single = _as_points(x)
        rho = self._distance(pts)
        if np.any(np.abs(rho) > 1e-10):
            raise GeometryError("surface_divergence_fd requires points on the surface")
        jac = fd_jacobian(lambda q: self.extend_vector(v, q), pts)
        n = np.atleast_2d(self.surface_normal(pts))
        trace_full = np.trace(jac, axis1=1, axis2=2)
        normal_part = np.einsum("ni,nij,nj->n", n, jac, n)
        return _squeeze(trace_full - normal_part, single)


@dataclass(frozen=True)
class Torus(ImplicitSurface):
    """Torus of major radius R and minor radius r centered on the z-axis.

    rho(x) = sqrt(x3^2 + (sqrt(x1^2 + x2^2) - R)^2) - r is the exact signed
    distance away from the axis; delta0 < r keeps the projection unique.
    """

    R: float = 1.0
    r: float = 0.5
    delta0: float = 0.4

    def __post_init__(self):
        if not 0.0 < self.r < self.R:
            raise GeometryError("torus requires 0 < r < R")
        if not 0.0 < self.delta0 < self.r:
            raise GeometryError("delta0 must lie in (0, r) for projection uniqueness")

    def _ring_frame(self, pts):
        """Distance s to the axis and distance q to the tube-center circle."""
        s = np.hypot(pts[:, 0], pts[:, 1])
        q = np.hypot(pts[:, 2], s - self.R)
        return s, q

    def _distance(self, pts):
        _, q = self._ring_frame(pts)
        return q - self.r

    def _gradient(self, pts):
        s, q = self._ring_frame(pts)
        if np.any(s <= 1e-14) or np.any(q <= 1e-14):
            raise GeometryError("distance gradient degenerate on the torus axis/core")
        a = (s - self.R) / (q * s)
        return np.stack([a * pts[:, 0], a * pts[:, 1], pts[:, 2] / q], axis=1)

    def _closest(self, pts):
        s, q = self._ring_frame(pts)
        if np.any(s <= 1e-14) or np.any(q <= 1e-14):
            raise GeometryError("projection not unique on the torus axis/core circle")
        ring = np.zeros_like(pts)
        ring[:, 0] = self.R * pts[:, 0] / s
        ring[:, 1] = self.R * pts[:, 1] / s
        return ring + (self.r / q)[:, None] * (pts - ring)


@dataclass(frozen=True)
class Translated(ImplicitSurface):
    """Rigid translation of another surface: every quantity of the translated
    surface at x equals the inner surface's quantity at x - offset."""

    inner: ImplicitSurface
    offset: tuple

    def __post_init__(self):
        object.__setattr__(self, "offset", tuple(float(c) for c in self.offset))

    @property
    def delta0(self):
        return self.inner.delta0

    def _shift(self, pts):
        return pts - np.asarray(self.offset, dtype=float)

    def _distance(self, pts):
        return self.inner._distance(self._shift(pts))

    def _gradient(self, pts):
        return self.inner._gradient(self._shift(pts))

    def _closest(self, pts):
        return self.inner._closest(self._shift(pts)) + np.asarray(self.offset, dtype=float)


def fd_gradient(f, x, step: float = FD_STEP):
    """Central-difference gradient of a scalar field; batch aware."""
    pts, single = _as_points(x)
    grad = np.empty_like(pts)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        grad[:, j] = (np.atleast_1d(f(pts + e)) - np.atleast_1d(f(pts - e))) / (2 * step)
    return _squeeze(grad, single)


def fd_jacobian(f, x, step: float = FD_STEP):
    """Central-difference Jacobian J[i, j] = d f_i / d x_j of a vector field."""
    pts, single = _as_points(x)
    jac = np.empty((len(pts), 3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        jac[:, :, j] = (np.atleast_2d(f(pts + e)) - np.atleast_2d(f(pts - e))) / (2 * step)
    return _squeeze(jac, single)
