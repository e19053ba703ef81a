"""Lagrange shape functions of order 1 and 2 on tetrahedra and triangles, in
barycentric form, plus the affine helpers shared by the surface extraction
and the finite element spaces.

The basis of each order and its nodes (`tet_nodes`, `tri_nodes`) are chosen
here only: the spaces (and with them phi_h, a function of one), the surface
cells, the stabilization and the VTK export pass their order to these
functions.  Physical gradients enter only through `tet_gradients`, which
only `fe_space` calls, with the active mesh's barycentric gradients.
`tet_dlam` gives the barycentric derivatives of functions with given local
coefficients: `fe_space` contracts them with those gradients, and the
quadratic lift's line search with a barycentric direction.
"""

from __future__ import annotations

import numpy as np

# local edge numbering of a tetrahedron (pairs of local vertices)
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# local edge numbering of a triangle, matching VTK quadratic-triangle order
TRI_EDGES = ((0, 1), (1, 2), (2, 0))


def _nodes(order, n, edges):
    """Barycentric coordinates of the Lagrange nodes of a simplex with n
    vertices: the vertices, then for P2 the midpoints of `edges`."""
    vertices = np.eye(n)
    if order == 1:
        return vertices
    return np.vstack([vertices, [0.5 * (vertices[a] + vertices[b]) for a, b in edges]])


def tet_nodes(order):
    """(4, 4) for P1, (10, 4) for P2: the nodes of `tet_values`' basis."""
    return _nodes(order, 4, TET_EDGES)


def tri_nodes(order):
    """(3, 3) for P1, (6, 3) for P2: the nodes of `tri_values`' basis."""
    return _nodes(order, 3, TRI_EDGES)


def _values(order, lam, edges):
    """Values at barycentric coords lam (..., n): P1 is lam itself, P2 the n
    vertex functions, then one per midpoint of `edges`."""
    lam = np.asarray(lam, dtype=float)
    if order == 1:
        return lam
    n = lam.shape[-1]
    out = np.empty(lam.shape[:-1] + (n + len(edges),))
    out[..., :n] = lam * (2.0 * lam - 1.0)
    for k, (a, b) in enumerate(edges):
        out[..., n + k] = 4.0 * lam[..., a] * lam[..., b]
    return out


def tet_values(order, lam):
    """(..., 4) -> (..., 4) for P1, (..., 10) for P2 (vertices, then the
    TET_EDGES midpoints)."""
    return _values(order, lam, TET_EDGES)


def tri_values(order, lam):
    """(..., 3) -> (..., 3) for P1, (..., 6) for P2 (vertices, then the
    TRI_EDGES midpoints)."""
    return _values(order, lam, TRI_EDGES)


def tri_dvalues(order, lam):
    """Derivatives w.r.t. the 3 barycentric coords: (..., 3) -> (..., 3 or
    6, 3)."""
    lam = np.asarray(lam, dtype=float)
    if order == 1:
        return np.broadcast_to(np.eye(3), lam.shape[:-1] + (3, 3))
    out = np.zeros(lam.shape[:-1] + (6, 3))
    for i in range(3):
        out[..., i, i] = 4.0 * lam[..., i] - 1.0
    for k, (a, b) in enumerate(TRI_EDGES):
        out[..., 3 + k, a] = 4.0 * lam[..., b]
        out[..., 3 + k, b] = 4.0 * lam[..., a]
    return out


def tet_gradients(order, lam, lam_grads):
    """Physical gradients of the basis functions, without a table of their
    barycentric derivatives.

    lam (..., 4) and the barycentric gradients lam_grads (..., 4, 3)
    broadcast against each other -> (..., 4 or 10, 3).  P1's gradients are
    lam_grads themselves; P2's are (4 lam_i - 1) grad(lam_i) at the vertices
    and 4 (lam_b grad(lam_a) + lam_a grad(lam_b)) on the edges.  The result
    is in C order for both: the active mesh stores lam_grads transposed, and
    assembly's batched products round differently on that layout, which
    would move the assembled values by round-off.
    """
    lam = np.asarray(lam, dtype=float)
    lam_grads = np.asarray(lam_grads, dtype=float)
    shape = np.broadcast_shapes(lam.shape[:-1], lam_grads.shape[:-2])
    if order == 1:
        return np.ascontiguousarray(np.broadcast_to(lam_grads, shape + (4, 3)))
    out = np.empty(shape + (10, 3))
    out[..., :4, :] = (4.0 * lam - 1.0)[..., None] * lam_grads
    for k, (a, b) in enumerate(TET_EDGES):
        out[..., 4 + k, :] = 4.0 * (
            lam[..., b, None] * lam_grads[..., a, :] + lam[..., a, None] * lam_grads[..., b, :]
        )
    return out


def tet_dlam(order, lam, coeffs):
    """Derivatives w.r.t. the 4 barycentric coords of the functions with
    local coefficients coeffs (..., 4 or 10), contracted without a table of
    the basis derivatives: lam (..., 4) -> (..., 4).  P1's are the
    coefficients themselves at every point, a read-only broadcast view."""
    lam = np.asarray(lam, dtype=float)
    if order == 1:
        return np.broadcast_to(coeffs, np.broadcast_shapes(np.shape(coeffs), lam.shape))
    out = coeffs[..., :4] * (4.0 * lam - 1.0)
    for k, (a, b) in enumerate(TET_EDGES):
        edge = 4.0 * coeffs[..., 4 + k]
        out[..., a] += edge * lam[..., b]
        out[..., b] += edge * lam[..., a]
    return out


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

