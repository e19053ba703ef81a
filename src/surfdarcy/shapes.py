"""Lagrange shape functions on reference tetrahedra and triangles, in
barycentric form, plus the affine helpers shared by the surface extraction
and the finite element spaces."""

from __future__ import annotations

import numpy as np

# local edge numbering of a tetrahedron (pairs of local vertices)
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# local edge numbering of a triangle, matching VTK quadratic-triangle order
TRI_EDGES = ((0, 1), (1, 2), (2, 0))


def tet_p1_values(lam):
    """P1 values at barycentric coords lam (..., 4) -> (..., 4)."""
    return np.asarray(lam, dtype=float)


def tet_p1_dvalues(lam):
    """d(values)/d(lam): constant identity, broadcast to (..., 4, 4)."""
    lam = np.asarray(lam, dtype=float)
    eye = np.eye(4)
    return np.broadcast_to(eye, lam.shape[:-1] + (4, 4))


def tet_p2_values(lam):
    """P2 values (vertices then TET_EDGES midpoints): (..., 4) -> (..., 10)."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty(lam.shape[:-1] + (10,))
    out[..., :4] = lam * (2.0 * lam - 1.0)
    for k, (a, b) in enumerate(TET_EDGES):
        out[..., 4 + k] = 4.0 * lam[..., a] * lam[..., b]
    return out


def tet_p2_dvalues(lam):
    """Derivatives w.r.t. the 4 barycentric coords: (..., 4) -> (..., 10, 4)."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape[:-1] + (10, 4))
    for i in range(4):
        out[..., i, i] = 4.0 * lam[..., i] - 1.0
    for k, (a, b) in enumerate(TET_EDGES):
        out[..., 4 + k, a] = 4.0 * lam[..., b]
        out[..., 4 + k, b] = 4.0 * lam[..., a]
    return out


def tet_p2_dlam(lam, coeffs):
    """Derivatives w.r.t. the 4 barycentric coords of the P2 functions with
    local coefficients coeffs (..., 10), contracted without a table of the
    basis derivatives: lam (..., 4) -> (..., 4)."""
    lam = np.asarray(lam, dtype=float)
    out = coeffs[..., :4] * (4.0 * lam - 1.0)
    for k, (a, b) in enumerate(TET_EDGES):
        edge = 4.0 * coeffs[..., 4 + k]
        out[..., a] += edge * lam[..., b]
        out[..., b] += edge * lam[..., a]
    return out


def tri_p1_values(lam):
    return np.asarray(lam, dtype=float)


def tri_p2_values(lam):
    """6-node triangle values (vertices then TRI_EDGES midpoints)."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty(lam.shape[:-1] + (6,))
    out[..., :3] = lam * (2.0 * lam - 1.0)
    for k, (a, b) in enumerate(TRI_EDGES):
        out[..., 3 + k] = 4.0 * lam[..., a] * lam[..., b]
    return out


def tri_p2_dvalues(lam):
    """Derivatives w.r.t. the 3 barycentric coords: (..., 3) -> (..., 6, 3)."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape[:-1] + (6, 3))
    for i in range(3):
        out[..., i, i] = 4.0 * lam[..., i] - 1.0
    for k, (a, b) in enumerate(TRI_EDGES):
        out[..., 3 + k, a] = 4.0 * lam[..., b]
        out[..., 3 + k, b] = 4.0 * lam[..., a]
    return out


def tri_p1_dvalues(lam):
    lam = np.asarray(lam, dtype=float)
    eye = np.eye(3)
    return np.broadcast_to(eye, lam.shape[:-1] + (3, 3))


def barycentric_gradients(tet_vertices):
    """Physical gradients of the 4 barycentric coordinates.

    tet_vertices: (..., 4, 3) -> (..., 4, 3) with rows grad(lam_i).
    """
    v = np.asarray(tet_vertices, dtype=float)
    edges = np.stack([v[..., 1, :] - v[..., 0, :],
                      v[..., 2, :] - v[..., 0, :],
                      v[..., 3, :] - v[..., 0, :]], axis=-2)
    inv = np.linalg.inv(edges)  # rows of inv.T are grad(lam_{1,2,3})
    grads = np.swapaxes(inv, -1, -2)
    g0 = -grads.sum(axis=-2, keepdims=True)
    return np.concatenate([g0, grads], axis=-2)


def tet_edge_midpoints(tet_vertices):
    """Midpoints of the 6 tet edges: (..., 4, 3) -> (..., 6, 3)."""
    v = np.asarray(tet_vertices, dtype=float)
    return np.stack(
        [0.5 * (v[..., a, :] + v[..., b, :]) for a, b in TET_EDGES], axis=-2
    )
