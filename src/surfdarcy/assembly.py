"""Assembly of the stabilized primal mixed system for surface Darcy flow.

`assemble` builds the surface form, in its expanded symmetric-plus-skew form

    1/2 (u, v) + 1/2 (grad p, grad q) + 1/2 (grad p, v) - 1/2 (u, grad q)

with full 3-component gradients of the bulk basis functions evaluated at the
discrete-surface quadrature points (the tangential condition is enforced only
weakly), and appends the zero-mean pressure constraint as a single symmetric
Lagrange multiplier row/column.  `stabilize(system, spaces, ds, kind, tau,
alpha)` adds the volume stabilization over all active tets per scalar field:
tau * h^(alpha-1) times either the full-gradient or the normal-gradient
penalty, with the bulk normal taken from the gradient of the discrete level
set phi_h whose zero set is the discrete surface.

Every element integral is one call of the weighted-Gram kernel `_gram`,
sum_q w_q a_i(q) b_j(q) per cell, taken as the batched matmul (w a)^T b: mass
and load terms sum over the quadrature points, and gradient-gradient terms
add one such sum per component (`_grad_gram`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from . import fe_space, shapes
from .cut_surface import DiscreteSurface, TetInterpolant
from .fe_space import FESpace
from .mesh import ActiveMesh
from .quadrature import tet_rule

__all__ = [
    "Stabilization",
    "SystemLayout",
    "AssembledSystem",
    "assemble",
    "stabilize",
    "assemble_stabilization",
    "assemble_surface_mass",
    "assemble_surface_stiffness",
    "assemble_bulk_mass",
    "surface_load_vector",
    "AssemblyError",
]


class AssemblyError(ValueError):
    pass


class Stabilization(Enum):
    FULL_GRADIENT = "full"
    NORMAL_GRADIENT = "normal"


@dataclass(frozen=True)
class SystemLayout:
    n_u: int  # scalar velocity-component DOFs
    n_p: int

    @property
    def total(self):
        return 3 * self.n_u + self.n_p + 1

    def u_slice(self, component: int):
        return slice(component * self.n_u, (component + 1) * self.n_u)

    @property
    def p_slice(self):
        return slice(3 * self.n_u, 3 * self.n_u + self.n_p)

    @property
    def multiplier_index(self):
        return self.total - 1


@dataclass(frozen=True)
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    layout: SystemLayout


def _cell_tab(space: FESpace, ds: DiscreteSurface):
    """Per-cell basis tabulation at the surface quadrature points."""
    m = ds.qp_points.shape[1]
    values, grads, _ = fe_space.tabulate(space, ds.point_active, ds.lambdas)
    nb = values.shape[1]
    return (
        values.reshape(-1, m, nb),
        grads.reshape(-1, m, nb, 3),
        space.cell_dofs[ds.cell_active],
    )


def _gram(w, a, b):
    """The weighted-Gram kernel: sum_q w_q a_i(q) b_j(q) for every cell.

    w: (..., q) weights, a: (..., q, i) and b: (..., q, j) -> (..., i, j).
    """
    return np.swapaxes(w[..., None] * a, -1, -2) @ b


def _grad_gram(w, grads):
    """sum_q w_q grad(v_i)(q) . grad(v_j)(q) of (..., m) weights and
    (..., m, nb, 3) gradients, one `_gram` per gradient component (no
    reordered copy of the gradients)."""
    return sum(_gram(w, grads[..., x], grads[..., x]) for x in range(3))


def _scatter(data, rows_dofs, cols_dofs, shape):
    rows = np.broadcast_to(rows_dofs[:, :, None], data.shape)
    cols = np.broadcast_to(cols_dofs[:, None, :], data.shape)
    mat = sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    )
    return mat.tocsr()


def _scatter_vector(contrib, dofs, n):
    """Sum per-cell contributions (nc, nb) into a global vector of length n."""
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n)


def assemble_surface_mass(space: FESpace, ds: DiscreteSurface) -> sp.csr_matrix:
    """(w, v) over the discrete surface."""
    vals, _, dofs = _cell_tab(space, ds)
    n = space.global_dofs
    return _scatter(_gram(ds.qp_weights, vals, vals), dofs, dofs, (n, n))


def assemble_surface_stiffness(
    space: FESpace, ds: DiscreteSurface, tangential: bool = False
) -> sp.csr_matrix:
    """(grad w, grad v) over the discrete surface; optionally the discrete
    tangential gradients P_h grad with P_h = I - n_h (x) n_h."""
    _, grads, dofs = _cell_tab(space, ds)
    if tangential:
        normals = ds.qp_normals
        grads = grads - (grads @ normals[..., None]) * normals[:, :, None, :]
    n = space.global_dofs
    return _scatter(_grad_gram(ds.qp_weights, grads), dofs, dofs, (n, n))


def surface_load_vector(space: FESpace, ds: DiscreteSurface) -> np.ndarray:
    """b_j = integral of basis_j over the discrete surface."""
    vals, _, dofs = _cell_tab(space, ds)
    w = ds.qp_weights
    ones = np.ones(w.shape + (1,))
    return _scatter_vector(_gram(w, vals, ones)[..., 0], dofs, space.global_dofs)


def assemble_bulk_mass(space: FESpace, active: ActiveMesh) -> sp.csr_matrix:
    """(w, v) of a P1 space over all active tets, exact by the degree-2 rule."""
    if space.active_mesh is not active:
        raise AssemblyError("space was built on a different active mesh")
    bary, w = tet_rule(2)
    shape_vals = shapes.tet_p1_values(bary)  # (m, nb)
    # the reference-tet mass matrix, scaled by each tet's volume
    data = _tet_volumes(active)[:, None, None] * _gram(w, shape_vals, shape_vals)
    n = space.global_dofs
    return _scatter(data, space.cell_dofs, space.cell_dofs, (n, n))


def _tet_volumes(active: ActiveMesh):
    v = active.tet_vertices
    edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=1)
    return np.abs(np.linalg.det(edges)) / 6.0


def assemble_stabilization(
    space: FESpace,
    ds: DiscreteSurface,
    kind: Stabilization,
    tau: float,
    alpha: float,
) -> sp.csr_matrix:
    """One scalar-space stabilization block over the active mesh of ds:
    tau * h^(alpha-1) * penalty.

    FULL_GRADIENT penalizes the full gradient over every active tet;
    NORMAL_GRADIENT penalizes only the component along the bulk normal field
    grad(phi_h)/|grad(phi_h)| of the surface's own level-set interpolant,
    falling back to the exact distance gradient where it degenerates.
    """
    active = ds.active
    if space.active_mesh is not active:
        raise AssemblyError("space was built on a different active mesh")
    if tau <= 0.0:
        raise AssemblyError("stabilization parameter tau must be positive")
    if not 0.0 <= alpha <= 2.0:
        raise AssemblyError("stabilization exponent alpha must lie in [0, 2]")

    degree = max(2 * (space.order - 1), 1)
    bary, w = tet_rule(degree)
    dvals = (
        shapes.tet_p1_dvalues(bary) if space.order == 1 else shapes.tet_p2_dvalues(bary)
    )  # (m, nb, 4)
    weights = _tet_volumes(active)[:, None] * w  # (t, m)
    grads = dvals @ active.lam_grads[:, None]  # (t, m, nb, 3)

    if kind == Stabilization.FULL_GRADIENT:
        data = _grad_gram(weights, grads)
    elif kind == Stabilization.NORMAL_GRADIENT:
        normals = _bulk_normals(ds, bary)
        ndot = (grads @ normals[..., None])[..., 0]  # (t, m, nb)
        data = _gram(weights, ndot, ndot)
    else:
        raise AssemblyError(f"unknown stabilization kind {kind!r}")

    data *= tau * active.h ** (alpha - 1.0)
    n = space.global_dofs
    return _scatter(data, space.cell_dofs, space.cell_dofs, (n, n))


def _bulk_normals(ds: DiscreteSurface, bary):
    """Normal field of the surface's phi_h at the bulk quadrature points of
    every active tet: (t, m, 3) unit vectors."""
    phi = TetInterpolant(ds.phi.verts[:, None], ds.phi.order, ds.phi.values[:, None])
    phi.lam_grads = ds.active.lam_grads[:, None]
    return phi.normal_at(bary, ds.surface.surface_normal)


def assemble(spaces, ds: DiscreteSurface, data) -> AssembledSystem:
    """Assemble matrix and right-hand side of the unstabilized surface form;
    `stabilize` adds the volume stabilization.

    spaces: (velocity_space, pressure_space) on the active mesh of ds; data:
    (f, g) surface fields, extended off the surface through the closest-point
    projection at the quadrature points.
    """
    vspace, pspace = spaces
    if vspace.active_mesh is not ds.active or pspace.active_mesh is not ds.active:
        raise AssemblyError("spaces and discrete surface do not match")

    f, g = data
    n_u = vspace.global_dofs
    n_p = pspace.global_dofs
    layout = SystemLayout(n_u=n_u, n_p=n_p)
    w = ds.qp_weights

    # one tabulation per space: the pressure's serves the velocity when the
    # two are the same space, and the zero-mean constraint row
    pvals, pgrads, pdofs = _cell_tab(pspace, ds)
    uvals, _, udofs = (pvals, pgrads, pdofs) if vspace is pspace else _cell_tab(vspace, ds)

    nc, m = w.shape
    ones = np.ones((nc, m, 1))
    mass_u = _scatter(_gram(w, uvals, uvals), udofs, udofs, (n_u, n_u))
    stiff_p = _scatter(_grad_gram(w, pgrads), pdofs, pdofs, (n_p, n_p))
    # (u_i, d_c p_j) for the three components c at once: (nc, nb_u, nb_p, 3)
    coupling = _gram(w, uvals, pgrads.reshape(nc, m, -1)).reshape(
        nc, uvals.shape[-1], pvals.shape[-1], 3
    )
    grad_blocks = [
        _scatter(coupling[..., c], udofs, pdofs, (n_u, n_p)) for c in range(3)
    ]

    constraint = _scatter_vector(_gram(w, pvals, ones)[..., 0], pdofs, n_p)

    # right-hand side: f and g pulled back from one projection of the points
    projected = ds.surface.closest_point(ds.points)
    f_vals = np.asarray(f(projected), dtype=float).reshape(nc, m, 1)
    g_vals = np.asarray(g(projected), dtype=float).reshape(nc, m, 3)
    rhs = np.zeros(layout.total)
    contrib_u = 0.5 * _gram(w, uvals, g_vals)  # (nc, nb_u, 3)
    for c in range(3):
        rhs[layout.u_slice(c)] = _scatter_vector(contrib_u[..., c], udofs, n_u)
    load_p = f_vals * pvals + 0.5 * (pgrads @ g_vals[..., None])[..., 0]  # f q + g.grad q / 2
    rhs[layout.p_slice] = _scatter_vector(_gram(w, load_p, ones)[..., 0], pdofs, n_p)
    # released before the blocks are stacked, the largest allocation here
    del uvals, pvals, pgrads, coupling, load_p

    half_mass_u = 0.5 * mass_u
    col = sp.csr_matrix(constraint[:, None])
    row = sp.csr_matrix(constraint[None, :])
    blocks = [
        [half_mass_u, None, None, 0.5 * grad_blocks[0], None],
        [None, half_mass_u, None, 0.5 * grad_blocks[1], None],
        [None, None, half_mass_u, 0.5 * grad_blocks[2], None],
        [
            -0.5 * grad_blocks[0].T,
            -0.5 * grad_blocks[1].T,
            -0.5 * grad_blocks[2].T,
            0.5 * stiff_p,
            col,
        ],
        [None, None, None, row, sp.csr_matrix((1, 1))],
    ]
    matrix = sp.bmat(blocks, format="csr")
    return AssembledSystem(matrix=matrix, rhs=rhs, layout=layout)


def stabilize(
    system: AssembledSystem,
    spaces,
    ds: DiscreteSurface,
    kind: Stabilization,
    tau: float,
    alpha: float,
) -> AssembledSystem:
    """The system with blockdiag(S_u, S_u, S_u, S_p, 0) added to its matrix,
    S the stabilization of each space (`assemble_stabilization` with the same
    kind, tau and alpha).

    `+` drops the diagonal-block entries that sum to zero; the other blocks
    keep their stored zeros.  SuperLU's ordering reads this stored pattern.
    """
    vspace, pspace = spaces
    stab_u = assemble_stabilization(vspace, ds, kind, tau, alpha)
    stab_p = stab_u if vspace is pspace else assemble_stabilization(
        pspace, ds, kind, tau, alpha
    )
    lay = system.layout
    ranges = [lay.u_slice(c) for c in range(3)] + [lay.p_slice, slice(lay.total - 1, None)]
    blocks = [[system.matrix[rows, cols] for cols in ranges] for rows in ranges]
    for i, stab in enumerate((stab_u, stab_u, stab_u, stab_p)):
        blocks[i][i] = blocks[i][i] + stab
    return replace(system, matrix=sp.bmat(blocks, format="csr"))
