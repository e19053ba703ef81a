"""Continuous Lagrange spaces (P1, P2) on the active mesh.

Degrees of freedom sit at vertices (P1) plus edge midpoints (P2) of active
tets only.  The active mesh holds its own vertices, in lexicographic grid
order: they are the P1 DOFs in that order, followed for P2 by the edges
ordered by their sorted endpoint pair, so rebuilding from identical inputs
yields identical DOF maps.

A function of a space is its coefficient vector: u_h and p_h, and the
discrete level set phi_h, the nodal interpolant (`interpolate`) of the
signed distance in the space of the geometry order.

Basis functions are tabulated at points given by their active tet and their
barycentric coordinates in it, which the discrete surface already holds for
its quadrature points and nodes; nothing here locates a physical point.
`tabulate`, `evaluate` and `evaluate_gradient` take the tets and the points
in one convention: the tets' shape broadcasts against the points' leading
shape, so (t, 1) tets at (m, 4) or (t, m, 4) points gather each tet's data
once for all its points.
This module is the only place where the basis meets the gradients of the
barycentric coordinates, those of the active mesh, which computes them once
for all spaces built on it.  Assembly needs the basis tables (`tabulate`); a
function with given coefficients is evaluated from its local coefficients
without them (`evaluate`, `evaluate_gradient`).
The basis of each order is chosen in `shapes` only: every function here
passes the space's order to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shapes
from .mesh import ActiveMesh

__all__ = ["FESpace", "build_space", "interpolate", "FESpaceError"]


class FESpaceError(ValueError):
    pass


@dataclass(frozen=True)
class FESpace:
    active_mesh: ActiveMesh
    order: int
    global_dofs: int
    cell_dofs: np.ndarray  # (n_active, 4 or 10)


def build_space(active: ActiveMesh, order: int) -> FESpace:
    if order not in (1, 2):
        raise FESpaceError("polynomial order must be 1 or 2")
    cell_dofs = active.tets
    ndof = len(active.vertices)
    if order == 2:
        # an edge's key a * n_vertices + b of its sorted endpoints a < b sorts
        # the edges by their endpoint pair
        ends = active.tets
        first = ends[:, [a for a, _ in shapes.TET_EDGES]]
        second = ends[:, [b for _, b in shapes.TET_EDGES]]
        keys = np.minimum(first, second) * ndof + np.maximum(first, second)
        edges, inverse = np.unique(keys, return_inverse=True)
        cell_dofs = np.concatenate([cell_dofs, ndof + inverse.reshape(len(ends), 6)], axis=1)
        ndof += len(edges)
    return FESpace(
        active_mesh=active,
        order=order,
        global_dofs=ndof,
        cell_dofs=cell_dofs.astype(np.int64),
    )


def tabulate(space: FESpace, cell_positions, lambdas):
    """Basis values and physical gradients at barycentric coordinates
    (..., 4) of active tets, broadcast as in `evaluate`.

    Returns values (..., nb) over the points' leading shape, which is all
    they depend on, and gradients (..., nb, 3) over the broadcast shape of
    the tets and the points, formed from the tets' barycentric gradients
    (`shapes.tet_gradients`).
    """
    cells = np.asarray(cell_positions, dtype=np.int64)
    lam = np.asarray(lambdas, dtype=float)
    lam_grads = space.active_mesh.lam_grads[cells]
    return shapes.tet_values(space.order, lam), shapes.tet_gradients(space.order, lam, lam_grads)


def interpolate(space: FESpace, field):
    """Coefficients of the nodal interpolant of `field`, a map of (n, 3)
    points to (n,) values, called once on the global_dofs nodes."""
    nodes = np.empty((space.global_dofs, 3))
    nodes[space.cell_dofs] = shapes.tet_nodes(space.order) @ space.active_mesh.tet_vertices
    return np.asarray(field(nodes), dtype=float)


def evaluate(space: FESpace, coeffs, cell_positions, lambdas):
    """Values of the FE functions with coefficients (..., global_dofs) at
    barycentric coordinates (..., 4) of active tets.

    The tets' shape broadcasts against the points' leading shape: (n,) tets
    at (n, 4) coordinates, or (t, 1) tets at (m, 4) or (t, m, 4) ones.
    Returns that broadcast shape, then the functions' leading shape: (n, ...)
    for n points.
    """
    cells = np.asarray(cell_positions, dtype=np.int64)
    coeffs = np.asarray(coeffs)
    local = coeffs[..., space.cell_dofs[cells]]
    comps = "uvw"[: coeffs.ndim - 1]  # einsum labels of the functions' leading axes
    values = shapes.tet_values(space.order, lambdas)
    return np.einsum(f"...b,{comps}...b->...{comps}", values, local)


def evaluate_gradient(space: FESpace, coeffs, cell_positions, lambdas):
    """Physical gradients of the FE functions with coefficients
    (..., global_dofs) at barycentric coordinates (..., 4) of active tets,
    broadcast as in `evaluate`: (n, ..., 3) for n points.

    The local coefficients are contracted first, into the derivative along
    the 4 barycentric coordinates, so no basis gradient table is formed; each
    point's tet then applies its barycentric gradients once.
    """
    cells = np.asarray(cell_positions, dtype=np.int64)
    coeffs = np.asarray(coeffs)
    local = coeffs[..., space.cell_dofs[cells]]
    comps = "uvw"[: coeffs.ndim - 1]
    dlam = shapes.tet_dlam(space.order, lambdas, local)
    lam_grads = space.active_mesh.lam_grads[cells]
    return np.einsum(f"{comps}...i,...ix->...{comps}x", dlam, lam_grads)
