"""Assembly of the stabilized primal mixed system for surface Darcy flow.

The surface bilinear form is assembled in its expanded symmetric-plus-skew
form

    1/2 (u, v) + 1/2 (grad p, grad q) + 1/2 (grad p, v) - 1/2 (u, grad q)

with full 3-component gradients of the bulk basis functions evaluated at the
discrete-surface quadrature points (the tangential condition is enforced only
weakly).  A volume stabilization over all active tets is added per scalar
field: tau * h^(alpha-1) times either the full-gradient or the
normal-gradient penalty, with the bulk normal taken from the gradient of the
per-tet level-set interpolant of matching geometric order.  The zero-mean
pressure constraint is appended as a single symmetric Lagrange multiplier
row/column.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from . import fe_space, shapes
from .cut_surface import DiscreteSurface
from .fe_space import FESpace
from .geometry import ImplicitSurface
from .mesh import ActiveMesh
from .quadrature import tet_rule

__all__ = [
    "Stabilization",
    "AssemblyParams",
    "SystemLayout",
    "AssembledSystem",
    "assemble",
    "assemble_stabilization",
    "assemble_surface_mass",
    "assemble_surface_stiffness",
    "assemble_bulk_mass",
    "surface_load_vector",
    "export_matrix_market",
    "AssemblyError",
]


class AssemblyError(ValueError):
    pass


class Stabilization(Enum):
    FULL_GRADIENT = "full"
    NORMAL_GRADIENT = "normal"


@dataclass(frozen=True)
class AssemblyParams:
    stab: Stabilization = Stabilization.FULL_GRADIENT
    tau: float = 0.1
    alpha: float = 2.0


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
    params: AssemblyParams
    h: float
    k_g: int
    # (total - 1, 3); only the memory-bounded dissection elimination of the
    # solver, used above solver.NESTED_THRESHOLD unknowns, reads them
    dof_coords: np.ndarray | None = None


def _cell_tab(space: FESpace, ds: DiscreteSurface):
    """Per-cell basis tabulation at the surface quadrature points."""
    m = ds.qp_points.shape[1]
    values, grads, _ = fe_space.tabulate(space, ds.point_active, ds.points)
    nb = values.shape[1]
    return (
        values.reshape(-1, m, nb),
        grads.reshape(-1, m, nb, 3),
        space.cell_dofs[ds.cell_active],
    )


def _scatter(data, rows_dofs, cols_dofs, shape):
    rows = np.broadcast_to(rows_dofs[:, :, None], data.shape)
    cols = np.broadcast_to(cols_dofs[:, None, :], data.shape)
    mat = sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    )
    return mat.tocsr()


def assemble_surface_mass(space: FESpace, ds: DiscreteSurface) -> sp.csr_matrix:
    """(w, v) over the discrete surface."""
    vals, _, dofs = _cell_tab(space, ds)
    data = np.einsum("cm,cmi,cmj->cij", ds.qp_weights, vals, vals)
    n = space.global_dofs
    return _scatter(data, dofs, dofs, (n, n))


def assemble_surface_stiffness(
    space: FESpace, ds: DiscreteSurface, tangential: bool = False
) -> sp.csr_matrix:
    """(grad w, grad v) over the discrete surface; optionally the discrete
    tangential gradients P_h grad with P_h = I - n_h (x) n_h."""
    _, grads, dofs = _cell_tab(space, ds)
    if tangential:
        normals = ds.qp_normals
        ndot = np.einsum("cmx,cmbx->cmb", normals, grads)
        grads = grads - ndot[..., None] * normals[:, :, None, :]
    data = np.einsum("cm,cmix,cmjx->cij", ds.qp_weights, grads, grads)
    n = space.global_dofs
    return _scatter(data, dofs, dofs, (n, n))


def surface_load_vector(space: FESpace, ds: DiscreteSurface, values=None) -> np.ndarray:
    """b_j = integral of (values *) basis_j over the discrete surface."""
    vals, _, dofs = _cell_tab(space, ds)
    w = ds.qp_weights
    if values is not None:
        w = w * np.asarray(values, dtype=float).reshape(w.shape)
    contrib = np.einsum("cm,cmj->cj", w, vals)
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=space.global_dofs)


def assemble_bulk_mass(space: FESpace, active: ActiveMesh) -> sp.csr_matrix:
    """(w, v) over all active tets (exact: polynomial-degree quadrature)."""
    if space.active_mesh is not active:
        raise AssemblyError("space was built on a different active mesh")
    bary, w = tet_rule(2 * space.order)
    shape_vals = (
        shapes.tet_p1_values(bary) if space.order == 1 else shapes.tet_p2_values(bary)
    )  # (m, nb)
    vols = _tet_volumes(active)
    data = np.einsum("m,t,mi,mj->tij", w, vols, shape_vals, shape_vals)
    n = space.global_dofs
    return _scatter(data, space.cell_dofs, space.cell_dofs, (n, n))


def _tet_volumes(active: ActiveMesh):
    v = active.tet_vertices
    edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=1)
    return np.abs(np.linalg.det(edges)) / 6.0


def assemble_stabilization(
    space: FESpace,
    active: ActiveMesh,
    surface: ImplicitSurface,
    kind: Stabilization,
    tau: float,
    alpha: float,
    h: float,
    k_g: int,
) -> sp.csr_matrix:
    """One scalar-space stabilization block: tau * h^(alpha-1) * penalty.

    FULL_GRADIENT penalizes the full gradient over every active tet;
    NORMAL_GRADIENT penalizes only the component along the bulk normal field
    grad(phi_h)/|grad(phi_h)| of the degree-k_g level-set interpolant, falling
    back to the exact distance gradient where the interpolant degenerates.
    """
    if space.active_mesh is not active:
        raise AssemblyError("space was built on a different active mesh")
    if tau <= 0.0:
        raise AssemblyError("stabilization parameter tau must be positive")
    if not 0.0 <= alpha <= 2.0:
        raise AssemblyError("stabilization exponent alpha must lie in [0, 2]")

    degree = max(2 * (space.order - 1), 1)
    bary, w = tet_rule(degree, positive=True)
    dvals = (
        shapes.tet_p1_dvalues(bary) if space.order == 1 else shapes.tet_p2_dvalues(bary)
    )  # (m, nb, 4)
    tet_verts = active.tet_vertices
    lam_grads = shapes.barycentric_gradients(tet_verts)  # (t, 4, 3)
    vols = _tet_volumes(active)
    grads = np.einsum("mba,tax->tmbx", dvals, lam_grads)  # (t, m, nb, 3)

    if kind == Stabilization.FULL_GRADIENT:
        data = np.einsum("m,t,tmbx,tmcx->tbc", w, vols, grads, grads)
    elif kind == Stabilization.NORMAL_GRADIENT:
        normals = _bulk_normals(active, surface, k_g, bary, lam_grads)
        ndot = np.einsum("tmx,tmbx->tmb", normals, grads)
        data = np.einsum("m,t,tmb,tmc->tbc", w, vols, ndot, ndot)
    else:
        raise AssemblyError(f"unknown stabilization kind {kind!r}")

    data *= tau * h ** (alpha - 1.0)
    n = space.global_dofs
    return _scatter(data, space.cell_dofs, space.cell_dofs, (n, n))


def _bulk_normals(active, surface, k_g, bary, lam_grads):
    """Normal field of the per-tet degree-k_g level-set interpolant at the
    bulk quadrature points: (t, m, 3) unit vectors."""
    tet_verts = active.tet_vertices
    if k_g == 1:
        vals = surface.signed_distance(tet_verts.reshape(-1, 3)).reshape(-1, 4)
        grad = np.einsum("ta,tax->tx", vals, lam_grads)
        grad = np.broadcast_to(grad[:, None, :], (len(vals), len(bary), 3)).copy()
    elif k_g == 2:
        mids = shapes.tet_edge_midpoints(tet_verts)
        vals = np.concatenate(
            [
                surface.signed_distance(tet_verts.reshape(-1, 3)).reshape(-1, 4),
                surface.signed_distance(mids.reshape(-1, 3)).reshape(-1, 6),
            ],
            axis=1,
        )
        dvals = shapes.tet_p2_dvalues(bary)  # (m, 10, 4)
        dphi_dlam = np.einsum("mka,tk->tma", dvals, vals)
        grad = np.einsum("tma,tax->tmx", dphi_dlam, lam_grads)
    else:
        raise AssemblyError("geometry order k_g must be 1 or 2")
    norms = np.linalg.norm(grad, axis=2)
    degenerate = norms <= 1e-10
    if np.any(degenerate):
        pts = np.einsum("ma,tax->tmx", bary, tet_verts)
        exact = surface.surface_normal(pts[degenerate])
        grad[degenerate] = np.atleast_2d(exact)
        norms = np.linalg.norm(grad, axis=2)
    return grad / norms[:, :, None]


def assemble(
    spaces,
    ds: DiscreteSurface,
    active: ActiveMesh,
    surface: ImplicitSurface,
    data,
    params: AssemblyParams = AssemblyParams(),
) -> AssembledSystem:
    """Assemble matrix and right-hand side of the discrete problem.

    spaces: (velocity_space, pressure_space) on `active`; data: (f, g) surface
    fields, extended off the surface through the closest-point projection at
    the quadrature points.
    """
    vspace, pspace = spaces
    if vspace.active_mesh is not active or pspace.active_mesh is not active:
        raise AssemblyError("spaces and active mesh do not match")
    if ds.active is not active:
        raise AssemblyError("discrete surface was built on a different active mesh")
    if params.tau <= 0.0:
        raise AssemblyError("stabilization parameter tau must be positive")

    f, g = data
    n_u = vspace.global_dofs
    n_p = pspace.global_dofs
    layout = SystemLayout(n_u=n_u, n_p=n_p)
    w = ds.qp_weights

    uvals, _, udofs = _cell_tab(vspace, ds)
    pvals, pgrads, pdofs = _cell_tab(pspace, ds)

    mass_u = _scatter(
        np.einsum("cm,cmi,cmj->cij", w, uvals, uvals), udofs, udofs, (n_u, n_u)
    )
    stiff_p = _scatter(
        np.einsum("cm,cmix,cmjx->cij", w, pgrads, pgrads), pdofs, pdofs, (n_p, n_p)
    )
    grad_blocks = [
        _scatter(
            np.einsum("cm,cmi,cmj->cij", w, uvals, pgrads[..., c]),
            udofs,
            pdofs,
            (n_u, n_p),
        )
        for c in range(3)
    ]

    stab_u = assemble_stabilization(
        vspace, active, surface, params.stab, params.tau, params.alpha, active.h, ds.k_g
    )
    stab_p = assemble_stabilization(
        pspace, active, surface, params.stab, params.tau, params.alpha, active.h, ds.k_g
    )

    constraint = surface_load_vector(pspace, ds)

    # right-hand side
    f_vals = surface.extend_scalar(f, ds.points).reshape(w.shape)
    g_vals = surface.extend_vector(g, ds.points).reshape(w.shape + (3,))
    rhs = np.zeros(layout.total)
    for c in range(3):
        contrib = 0.5 * np.einsum("cm,cmj->cj", w * g_vals[..., c], uvals)
        rhs[layout.u_slice(c)] = np.bincount(
            udofs.ravel(), weights=contrib.ravel(), minlength=n_u
        )
    contrib_p = np.einsum("cm,cmj->cj", w * f_vals, pvals) + 0.5 * np.einsum(
        "cm,cmx,cmjx->cj", w, g_vals, pgrads
    )
    rhs[layout.p_slice] = np.bincount(
        pdofs.ravel(), weights=contrib_p.ravel(), minlength=n_p
    )

    diag_u = 0.5 * mass_u + stab_u
    col = sp.csr_matrix(constraint[:, None])
    row = sp.csr_matrix(constraint[None, :])
    blocks = [
        [diag_u, None, None, 0.5 * grad_blocks[0], None],
        [None, diag_u, None, 0.5 * grad_blocks[1], None],
        [None, None, diag_u, 0.5 * grad_blocks[2], None],
        [
            -0.5 * grad_blocks[0].T,
            -0.5 * grad_blocks[1].T,
            -0.5 * grad_blocks[2].T,
            0.5 * stiff_p + stab_p,
            col,
        ],
        [None, None, None, row, sp.csr_matrix((1, 1))],
    ]
    matrix = sp.bmat(blocks, format="csr")
    dof_coords = np.vstack([vspace.dof_coords] * 3 + [pspace.dof_coords])
    return AssembledSystem(
        matrix=matrix,
        rhs=rhs,
        layout=layout,
        params=params,
        h=active.h,
        k_g=ds.k_g,
        dof_coords=dof_coords,
    )


def export_matrix_market(system: AssembledSystem, path):
    from scipy.io import mmwrite

    mmwrite(str(path), system.matrix)
