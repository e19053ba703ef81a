"""Continuous Lagrange spaces (P1, P2) on the active mesh.

Degrees of freedom sit at vertices (P1) plus edge midpoints (P2) of active
tets only; global numbering is vertices in lexicographic grid order followed
by edges ordered by their sorted endpoint pair, so rebuilding from identical
inputs yields identical DOF maps.

Basis functions are tabulated at points given by their active tet and their
barycentric coordinates in it, which the discrete surface already holds for
its quadrature points and nodes; nothing here locates a physical point.  The
gradients of the barycentric coordinates are those of the active mesh, which
computes them once for all spaces built on it.  Assembly needs the basis
tables (`tabulate`); a function with given coefficients is evaluated from
its local coefficients without them (`evaluate`, `evaluate_gradient`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shapes
from .mesh import ActiveMesh

__all__ = ["FESpace", "build_space", "FESpaceError"]


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
    tets = active.tets  # (na, 4) global vertex ids
    verts_used = np.unique(tets)
    vert_dof = np.full(len(active.parent.vertices), -1, dtype=np.int64)
    vert_dof[verts_used] = np.arange(len(verts_used))
    cell_dofs = vert_dof[tets]

    ndof = len(verts_used)
    if order == 2:
        # an edge's key a * n_vertices + b of its sorted endpoints a < b sorts
        # the edges by their endpoint pair
        n_vertices = len(active.parent.vertices)
        ends = tets.astype(np.int64)
        first = ends[:, [a for a, _ in shapes.TET_EDGES]]
        second = ends[:, [b for _, b in shapes.TET_EDGES]]
        keys = np.minimum(first, second) * n_vertices + np.maximum(first, second)
        edges, inverse = np.unique(keys, return_inverse=True)
        cell_dofs = np.concatenate([cell_dofs, ndof + inverse.reshape(len(tets), 6)], axis=1)
        ndof += len(edges)
    return FESpace(
        active_mesh=active,
        order=order,
        global_dofs=ndof,
        cell_dofs=cell_dofs.astype(np.int64),
    )


def tabulate(space: FESpace, cell_positions, lambdas):
    """Basis values and physical gradients at points given in barycentric
    coordinates of their active tets.

    cell_positions: (n,) active-mesh tet positions; lambdas: (n, 4)
    barycentric coordinates in those tets, such as `DiscreteSurface.lambdas`.
    Returns values (n, nb), gradients (n, nb, 3), dofs (n, nb).  The
    gradients are formed in closed form from the barycentric gradients: P1's
    are those gradients themselves, and no (n, nb, 4) table of barycentric
    derivatives is made.
    """
    cells = np.asarray(cell_positions, dtype=np.int64)
    lam = np.asarray(lambdas, dtype=float)
    lam_grads = space.active_mesh.lam_grads[cells]
    if space.order == 1:
        # in C order, like the P2 gradients: the mesh stores them
        # transposed, and assembly's batched products round differently on
        # that layout, which would move the assembled values by round-off
        grads = np.ascontiguousarray(lam_grads)
        return shapes.tet_p1_values(lam), grads, space.cell_dofs[cells]
    grads = shapes.tet_p2_gradients(lam, lam_grads)
    return shapes.tet_p2_values(lam), grads, space.cell_dofs[cells]


def evaluate(space: FESpace, coeffs, cell_positions, lambdas):
    """Values of the FE functions with coefficients (..., global_dofs) at
    barycentric coordinates (n, 4) of active tets: (n, ...)."""
    cells = np.asarray(cell_positions, dtype=np.int64)
    lam = np.asarray(lambdas, dtype=float)
    local = np.asarray(coeffs)[..., space.cell_dofs[cells]]
    values = shapes.tet_p1_values(lam) if space.order == 1 else shapes.tet_p2_values(lam)
    return np.einsum("nb,...nb->n...", values, local)


def evaluate_gradient(space: FESpace, coeffs, cell_positions, lambdas):
    """Physical gradients of the FE functions with coefficients
    (..., global_dofs) at barycentric coordinates (n, 4) of active tets:
    (n, ..., 3).

    The local coefficients are contracted first, into the derivative along
    the 4 barycentric coordinates, so no basis gradient table is formed; each
    point's tet then applies its barycentric gradients once.
    """
    cells = np.asarray(cell_positions, dtype=np.int64)
    lam = np.asarray(lambdas, dtype=float)
    local = np.asarray(coeffs)[..., space.cell_dofs[cells]]
    dlam = local if space.order == 1 else shapes.tet_p2_dlam(lam, local)
    return np.einsum("...ni,nix->n...x", dlam, space.active_mesh.lam_grads[cells])
