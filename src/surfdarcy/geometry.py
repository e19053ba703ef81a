"""Exact implicit-surface geometry: signed distance, normals, closest-point
projection, and extension of surface fields into the surrounding tubular
neighborhood.

Every operation takes a batch of points of shape (n, 3) and returns one
value, vector or matrix per point.  The one surface is the torus, placed at
any `center`; the program moves it by a sub-cell offset to probe how the
surface cuts the mesh.  Everything is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImplicitSurface",
    "Torus",
    "GeometryError",
    "fd_gradient",
    "fd_jacobian",
]

FD_STEP = 1e-5


class GeometryError(ValueError):
    pass


class ImplicitSurface:
    """Closed surface given by a signed distance function."""

    # subclasses implement the batch kernels (pts has shape (n, 3))
    def _distance(self, pts):
        raise NotImplementedError

    def _gradient(self, pts):
        raise NotImplementedError

    def _closest(self, pts):
        raise NotImplementedError

    def signed_distance(self, x):
        return self._distance(x)

    def surface_normal(self, x):
        """Unit normal n = grad(rho)/|grad(rho)|; constant along normal lines."""
        g = self._gradient(x)
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms <= 1e-10):
            raise GeometryError("undefined normal: degenerate distance gradient")
        return g / norms[:, None]

    def closest_point(self, x):
        """Projection onto the surface.  The closed-form kernels raise
        "projection not unique" only on their genuinely degenerate sets."""
        return self._closest(x)

    def extend_vector(self, f, x):
        """Pull-back extension f(p(x)) of a scalar or vector field, constant
        along normal lines."""
        return np.asarray(f(self.closest_point(x)), dtype=float)

    def surface_divergence_fd(self, v, x):
        """Surface divergence tr(P * D(v o p)) by central differences.

        Testing utility: `x` must lie on the surface (|rho| <= 1e-10) and `v`
        must be evaluable near the surface through the extension.
        """
        if np.any(np.abs(self._distance(x)) > 1e-10):
            raise GeometryError("surface_divergence_fd requires points on the surface")
        jac = fd_jacobian(lambda q: self.extend_vector(v, q), x)
        n = self.surface_normal(x)
        trace_full = np.trace(jac, axis1=1, axis2=2)
        normal_part = np.einsum("ni,nij,nj->n", n, jac, n)
        return trace_full - normal_part


@dataclass(frozen=True)
class Torus(ImplicitSurface):
    """Torus of major radius R and minor radius r around the axis through
    `center` parallel to z.

    rho(x) = sqrt(y3^2 + (sqrt(y1^2 + y2^2) - R)^2) - r, with y = x - center,
    is the exact signed distance away from the axis.
    """

    R: float = 1.0
    r: float = 0.5
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.r < self.R:
            raise GeometryError("torus requires 0 < r < R")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _ring_frame(self, pts):
        """The points relative to the center, y, their distance s to the axis
        and their distance q to the tube-center circle."""
        y = pts - np.asarray(self.center)
        s = np.hypot(y[:, 0], y[:, 1])
        q = np.hypot(y[:, 2], s - self.R)
        return y, s, q

    def _distance(self, pts):
        _, _, q = self._ring_frame(pts)
        return q - self.r

    def _gradient(self, pts):
        y, s, q = self._ring_frame(pts)
        if np.any(s <= 1e-14) or np.any(q <= 1e-14):
            raise GeometryError("distance gradient degenerate on the torus axis/core")
        a = (s - self.R) / (q * s)
        return np.stack([a * y[:, 0], a * y[:, 1], y[:, 2] / q], axis=1)

    def _closest(self, pts):
        y, s, q = self._ring_frame(pts)
        if np.any(s <= 1e-14) or np.any(q <= 1e-14):
            raise GeometryError("projection not unique on the torus axis/core circle")
        ring = np.zeros_like(y)
        ring[:, 0] = self.R * y[:, 0] / s
        ring[:, 1] = self.R * y[:, 1] / s
        return ring + (self.r / q)[:, None] * (y - ring) + np.asarray(self.center)


def fd_gradient(f, x):
    """Central-difference gradient (n, 3) of a scalar field at (n, 3) points,
    with step FD_STEP: the one-row Jacobian."""
    return fd_jacobian(lambda q: np.asarray(f(q))[:, None], x)[:, 0]


def fd_jacobian(f, x):
    """Central-difference Jacobian J[n, i, j] = d f_i / d x_j (n, 3, 3) of a
    vector field at (n, 3) points, with step FD_STEP."""
    jac = np.empty((len(x), 3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = FD_STEP
        jac[:, :, j] = (f(x + e) - f(x - e)) / (2 * FD_STEP)
    return jac
