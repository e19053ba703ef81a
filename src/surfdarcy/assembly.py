"""Assembly of the stabilized primal mixed system for surface Darcy flow.

`assemble` builds the surface form, in its expanded symmetric-plus-skew form

    1/2 (u, v) + 1/2 (grad p, grad q) + 1/2 (grad p, v) - 1/2 (u, grad q)

with full 3-component gradients of the bulk basis functions evaluated at the
discrete-surface quadrature points (the tangential condition is enforced only
weakly), and appends the zero-mean pressure constraint as a single symmetric
Lagrange multiplier row/column.  It returns the system by its distinct
blocks A_u, G, A_p and c (`AssembledSystem`).  `stabilize(system, spaces,
ds, kind, tau, alpha)` adds the volume stabilization over all active tets
per scalar field to A_u and A_p: tau * h^(alpha-1) times either
the full-gradient or the normal-gradient penalty, with the bulk normal taken
from the gradient of the discrete level set phi_h whose zero set is the
discrete surface.

Every element integral is one call of the weighted-Gram kernel `_gram`,
sum_q w_q a_i(q) b_j(q) per cell, taken as the batched matmul (w a)^T b: mass
and load terms sum over the quadrature points, and gradient-gradient terms
add one such sum per component (`_grad_gram`).

The work at quadrature points is done in chunks of CHUNK_CELLS surface cells
(`DiscreteSurface.cell_chunks`), or of as many active tets for the
stabilization.  Each chunk's basis tables come from `fe_space.tabulate`, with
one row per cell or tet broadcast against its points: the surface cells'
(nc, m, 4) quadrature barycentrics, or the tet rule's (m, 4) points shared
by all tets.  The tables and the data at a chunk's points live only while
the chunk's element matrices are formed.  Those are written into
arrays with a row per cell or tet, and each block is scattered from them
once, with int32 indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fe_space, shapes
from .cut_surface import DiscreteSurface, chunks, level_set_normals
from .fe_space import FESpace
from .mesh import ActiveMesh
from .quadrature import tet_rule

__all__ = [
    "Stabilization",
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
class AssembledSystem:
    """The bordered system by its distinct blocks, every one CSR:

        [[A_u (x) I_3, G,   0  ],
         [-G^T,        A_p, c^T],
         [0,           c,   0  ]]

    with unknowns u_x, u_y, u_z, p and the multiplier.  `a_u` serves the three
    velocity components, `g` is (G_x, G_y, G_z), each (n_u, n_p), and `c` is
    the zero-mean constraint as a (1, n_p) row.  `matvec` applies the blocks;
    `matrix` stacks them, on first use."""

    a_u: sp.csr_matrix
    g: tuple
    a_p: sp.csr_matrix
    c: sp.csr_matrix
    rhs: np.ndarray

    @property
    def n_u(self):
        return self.a_u.shape[0]

    @property
    def n_p(self):
        return self.a_p.shape[0]

    @property
    def total(self):
        return 3 * self.n_u + self.n_p + 1

    @property
    def p_slice(self):
        return slice(3 * self.n_u, self.total - 1)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        n_u = self.n_u
        # empty blocks are stored CSR too: on an all-CSR grid `sp.bmat` stacks
        # the rows directly, without a COO copy of the whole matrix
        zero_u = sp.csr_matrix((n_u, n_u))
        velocity = [
            [self.a_u if c == d else zero_u for d in range(3)] + [g_c, sp.csr_matrix((n_u, 1))]
            for c, g_c in enumerate(self.g)
        ]
        pressure = [(-g_c.T).tocsr() for g_c in self.g] + [self.a_p, self.c.T.tocsr()]
        multiplier = [sp.csr_matrix((1, n_u))] * 3 + [self.c, sp.csr_matrix((1, 1))]
        return sp.bmat(velocity + [pressure, multiplier], format="csr")

    def matvec(self, x):
        """The bordered matrix times x, each row summed in the order of the
        blocks of `matrix`."""
        u, p = x[: 3 * self.n_u].reshape(3, -1), x[self.p_slice]
        velocity = [self.a_u @ u_c + g_c @ p for g_c, u_c in zip(self.g, u)]
        pressure = sum(-(g_c.T @ u_c) for g_c, u_c in zip(self.g, u)) + self.a_p @ p
        return np.concatenate(velocity + [pressure + self.c.T @ x[-1:], self.c @ p])


def _cell_dofs(space: FESpace, cells):
    """Global DOFs (n, nb) of active tets, as the int32 indices the sparse
    matrices store."""
    return space.cell_dofs[cells].astype(np.int32)


def _gather(n, pieces):
    """Arrays with n rows from `pieces`, pairs of a slice of the rows and a
    tuple of arrays with a row per row of that slice, one pair per chunk."""
    out = None
    for rows, parts in pieces:
        if out is None:
            out = [np.empty((n,) + part.shape[1:]) for part in parts]
        for whole, part in zip(out, parts):
            whole[rows] = part
    return out


def _per_cell(ds: DiscreteSurface, kernel):
    """kernel(chunk) -> tuple of per-cell arrays of the chunk, evaluated over
    the surface's cell chunks and gathered into arrays with a row per cell."""
    return _gather(ds.n_cells, ((cells, kernel(chunk)) for cells, chunk in ds.cell_chunks()))


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

    def kernel(chunk):
        vals, _ = fe_space.tabulate(space, chunk.cell_active[:, None], chunk.qp_lambdas)
        return (_gram(chunk.qp_weights, vals, vals),)

    (data,) = _per_cell(ds, kernel)
    dofs = _cell_dofs(space, ds.cell_active)
    n = space.global_dofs
    return _scatter(data, dofs, dofs, (n, n))


def assemble_surface_stiffness(space: FESpace, ds: DiscreteSurface) -> sp.csr_matrix:
    """(grad_h w, grad_h v) over the discrete surface, with the discrete
    tangential gradients P_h grad, P_h = I - n_h (x) n_h."""

    def kernel(chunk):
        _, grads = fe_space.tabulate(space, chunk.cell_active[:, None], chunk.qp_lambdas)
        normals = chunk.qp_normals
        grads = grads - (grads @ normals[..., None]) * normals[:, :, None, :]
        return (_grad_gram(chunk.qp_weights, grads),)

    (data,) = _per_cell(ds, kernel)
    dofs = _cell_dofs(space, ds.cell_active)
    n = space.global_dofs
    return _scatter(data, dofs, dofs, (n, n))


def surface_load_vector(space: FESpace, ds: DiscreteSurface) -> np.ndarray:
    """b_j = integral of basis_j over the discrete surface."""

    def kernel(chunk):
        vals, _ = fe_space.tabulate(space, chunk.cell_active[:, None], chunk.qp_lambdas)
        w = chunk.qp_weights
        return (_gram(w, vals, np.ones(w.shape + (1,)))[..., 0],)

    (contrib,) = _per_cell(ds, kernel)
    dofs = _cell_dofs(space, ds.cell_active)
    return _scatter_vector(contrib, dofs, space.global_dofs)


def assemble_bulk_mass(space: FESpace, active: ActiveMesh) -> sp.csr_matrix:
    """(w, v) of a P1 space over all active tets, exact by the degree-2 rule."""
    if space.active_mesh is not active:
        raise AssemblyError("space was built on a different active mesh")
    bary, w = tet_rule(2)
    shape_vals = shapes.tet_values(1, bary)  # (m, nb)
    # the reference-tet mass matrix, scaled by each tet's volume
    data = active.volumes[:, None, None] * _gram(w, shape_vals, shape_vals)
    n = space.global_dofs
    return _scatter(data, space.cell_dofs, space.cell_dofs, (n, n))


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
    grad(phi_h)/|grad(phi_h)| of the surface's own level set
    (`level_set_normals`), the exact surface normal where it degenerates.
    The element matrices are formed in chunks of CHUNK_CELLS active tets.
    """
    active = ds.active
    if space.active_mesh is not active:
        raise AssemblyError("space was built on a different active mesh")
    if not 0.0 < tau < np.inf:
        raise AssemblyError("stabilization parameter tau must be positive and finite")
    if not 0.0 <= alpha <= 2.0:
        raise AssemblyError("stabilization exponent alpha must lie in [0, 2]")
    if kind not in (Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT):
        raise AssemblyError(f"unknown stabilization kind {kind!r}")

    degree = max(2 * (space.order - 1), 1)
    bary, w = tet_rule(degree)
    volumes = active.volumes
    scale = tau * active.h ** (alpha - 1.0)

    def kernel(tets):
        weights = volumes[tets, None] * w  # (t, m)
        cells = np.arange(tets.start, tets.stop)[:, None]  # (t, 1)
        _, grads = fe_space.tabulate(space, cells, bary)  # (t, m, nb, 3)
        if kind == Stabilization.FULL_GRADIENT:
            data = _grad_gram(weights, grads)
        else:
            normals = level_set_normals(ds.phi_space, ds.phi, ds.surface, cells, bary)
            ndot = (grads @ normals[..., None])[..., 0]  # (t, m, nb)
            data = _gram(weights, ndot, ndot)
        data *= scale
        return (data,)

    (data,) = _gather(len(volumes), ((tets, kernel(tets)) for tets in chunks(len(volumes))))
    dofs = _cell_dofs(space, slice(None))
    n = space.global_dofs
    return _scatter(data, dofs, dofs, (n, n))


def assemble(spaces, ds: DiscreteSurface, data) -> AssembledSystem:
    """Assemble the blocks and right-hand side of the unstabilized surface
    form; `stabilize` adds the volume stabilization.

    spaces: (velocity_space, pressure_space) on the active mesh of ds; data:
    (f, g) surface fields, extended off the surface through the closest-point
    projection at the quadrature points.

    The surface is worked through in chunks of CHUNK_CELLS cells
    (`DiscreteSurface.cell_chunks`): each chunk is tabulated once per space
    and its element matrices and load vectors are written into arrays with a
    row per cell, which are scattered once into the blocks.
    """
    vspace, pspace = spaces
    if vspace.active_mesh is not ds.active or pspace.active_mesh is not ds.active:
        raise AssemblyError("spaces and discrete surface do not match")

    f, g = data
    n_u = vspace.global_dofs
    n_p = pspace.global_dofs

    def kernel(chunk):
        w = chunk.qp_weights
        nc, m = w.shape
        # one tabulation per space: the pressure's serves the velocity when
        # the two are the same space, and the zero-mean constraint row
        at = (chunk.cell_active[:, None], chunk.qp_lambdas)
        pvals, pgrads = fe_space.tabulate(pspace, *at)
        uvals = pvals if vspace is pspace else fe_space.tabulate(vspace, *at)[0]
        ones = np.ones((nc, m, 1))
        # (u_i, d_c p_j) for the three components c at once: (nc, nb_u, nb_p, 3)
        coupling = _gram(w, uvals, pgrads.reshape(nc, m, -1)).reshape(
            nc, uvals.shape[-1], pvals.shape[-1], 3
        )
        # right-hand side: f and g pulled back from one projection of the points
        projected = ds.surface.closest_point(chunk.points)
        f_vals = np.asarray(f(projected), dtype=float).reshape(nc, m, 1)
        g_vals = np.asarray(g(projected), dtype=float).reshape(nc, m, 3)
        load_p = f_vals * pvals + 0.5 * (pgrads @ g_vals[..., None])[..., 0]  # f q + g.grad q / 2
        return (
            _gram(w, uvals, uvals),
            _grad_gram(w, pgrads),
            coupling,
            _gram(w, pvals, ones)[..., 0],
            0.5 * _gram(w, uvals, g_vals),  # (nc, nb_u, 3)
            _gram(w, load_p, ones)[..., 0],
        )

    mass, stiff, coupling, constraint, load_u, load_p = _per_cell(ds, kernel)
    udofs = _cell_dofs(vspace, ds.cell_active)
    pdofs = _cell_dofs(pspace, ds.cell_active)

    rhs = np.concatenate(
        [_scatter_vector(load_u[..., c], udofs, n_u) for c in range(3)]
        + [_scatter_vector(load_p, pdofs, n_p), [0.0]]
    )
    constraint = _scatter_vector(constraint, pdofs, n_p)

    a_u = 0.5 * _scatter(mass, udofs, udofs, (n_u, n_u))
    a_p = 0.5 * _scatter(stiff, pdofs, pdofs, (n_p, n_p))
    del mass, stiff
    couplings = tuple(
        0.5 * _scatter(coupling[..., c], udofs, pdofs, (n_u, n_p)) for c in range(3)
    )
    return AssembledSystem(a_u, couplings, a_p, sp.csr_matrix(constraint[None, :]), rhs)


def stabilize(
    system: AssembledSystem,
    spaces,
    ds: DiscreteSurface,
    kind: Stabilization,
    tau: float,
    alpha: float,
) -> AssembledSystem:
    """The system with S_u added to A_u and S_p to A_p, S the stabilization
    of each space (`assemble_stabilization` with the same kind, tau and
    alpha); G, c and the right-hand side are shared with it.

    `+` drops the entries of A_u and A_p that sum to zero; G keeps its stored
    zeros.  SuperLU's ordering reads this stored pattern.
    """
    vspace, pspace = spaces
    stab_u = assemble_stabilization(vspace, ds, kind, tau, alpha)
    stab_p = stab_u if vspace is pspace else assemble_stabilization(
        pspace, ds, kind, tau, alpha
    )
    return replace(system, a_u=system.a_u + stab_u, a_p=system.a_p + stab_p)
