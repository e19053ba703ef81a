"""Discrete surface extraction: marching tetrahedra on the vertex-interpolated
level set, optional quadratic lifting for second-order geometry, and
quadrature-ready surface cells with oriented normals.

The discrete level set phi_h is the degree-k_g nodal interpolant of the exact
signed distance on every active tet (`TetInterpolant`).  The first-order
surface is the zero set of its vertex values' linear interpolant, one or two
planar triangles per cut tet.  The second-order surface lifts the 3 vertices
and 3 edge midpoints of every base triangle onto the zero set of the
quadratic phi_h, along the per-tet quasi-normal grad(phi_h)/|grad(phi_h)|.
The lift is not constrained to the tet entity a node lies on: a curved node
may leave its parent tet by O(h^2), and the copies of a base vertex shared by
neighboring tets are lifted by different interpolants, so they do not
coincide.  On the centered torus two copies lie up to 0.53 h^4 apart at
level 0 and 0.68 h^4 at level 1, below the O(h^3) geometric error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import shapes
from .geometry import ImplicitSurface
from .mesh import ActiveMesh
from .quadrature import triangle_rule

__all__ = [
    "CHUNK_CELLS",
    "DiscreteSurface",
    "TetInterpolant",
    "build_surface",
    "chunks",
    "surface_mean",
    "with_quadrature",
    "CutSurfaceError",
]

log = logging.getLogger(__name__)

SLIVER_FACTOR = 1e-14

# surface cells, or active tets, per chunk of the work done at quadrature
# points (assembly, stabilization, error sums), so that no array with a row
# per quadrature point is made for a whole level.  On case 1, level 2
# (50,612 cells, best of 3 on a 2-vCPU host), `assemble` took 0.33 s at 256
# cells, 0.20 s at 2,048 and 0.21 s at 8,192; the error sums took 0.34,
# 0.29 and 0.32 s.  Their traced peaks at 2,048 cells, 61 and 42 MB, are
# within 3 MB of those at 256, against 109 and 189 MB for the whole surface
# at once.
CHUNK_CELLS = 2048


class CutSurfaceError(RuntimeError):
    pass


@dataclass(frozen=True)
class DiscreteSurface:
    k_g: int
    surface: ImplicitSurface
    active: ActiveMesh
    phi: TetInterpolant  # phi_h of order k_g, a (n_active,) batch of active tets
    cell_active: np.ndarray  # (nc,) position of the parent tet in the active mesh
    nodes: np.ndarray  # (nc, 3 or 6, 3)
    node_lambdas: np.ndarray  # (nc, 3 or 6, 4) barycentric w.r.t. parent tet
    flips: np.ndarray  # (nc,) bool, orientation of the reference normal
    qp_points: np.ndarray  # (nc, m, 3)
    qp_lambdas: np.ndarray  # (nc, m, 4) barycentric w.r.t. parent tet
    qp_weights: np.ndarray  # (nc, m)
    qp_normals: np.ndarray  # (nc, m, 3)

    @property
    def n_cells(self):
        return len(self.cell_active)

    @property
    def points(self):
        return self.qp_points.reshape(-1, 3)

    @property
    def lambdas(self):
        return self.qp_lambdas.reshape(-1, 4)

    @property
    def weights(self):
        return self.qp_weights.reshape(-1)

    @property
    def normals(self):
        return self.qp_normals.reshape(-1, 3)

    @property
    def point_active(self):
        """Active-mesh tet position per quadrature point."""
        m = self.qp_points.shape[1]
        return np.repeat(self.cell_active, m)

    def cell_chunks(self):
        """The cells in consecutive chunks of CHUNK_CELLS: pairs of the
        chunk's slice of the cells and the chunk as a DiscreteSurface of
        views into this one."""
        for cells in chunks(self.n_cells):
            yield cells, replace(
                self, **{name: getattr(self, name)[cells] for name in _CELL_FIELDS}
            )

    @property
    def total_area(self):
        return float(self.qp_weights.sum())

    # measured geometric quality, used by the verification suites
    def max_distance(self):
        return float(np.abs(self.surface.signed_distance(self.points)).max())

    def max_normal_error(self):
        exact = self.surface.surface_normal(self.points)
        return float(np.linalg.norm(exact - self.normals, axis=1).max())

    def closedness_defect(self):
        return float(np.linalg.norm(self.weights @ self.normals))


# the DiscreteSurface fields with one row per cell
_CELL_FIELDS = (
    "cell_active",
    "nodes",
    "node_lambdas",
    "flips",
    "qp_points",
    "qp_lambdas",
    "qp_weights",
    "qp_normals",
)


def chunks(n: int):
    """Consecutive slices of range(n), CHUNK_CELLS long but the last; one
    empty slice when n is 0, so that a caller still sees the shapes of its
    per-chunk results."""
    return [
        slice(start, min(start + CHUNK_CELLS, n)) for start in range(0, max(n, 1), CHUNK_CELLS)
    ]


class TetInterpolant:
    """Nodal interpolant phi_h of a scalar field on tets (order 1 or 2).

    The one definition of the discrete level set: its zero set is the
    discrete surface, and its normal grad(phi_h)/|grad(phi_h)| is both the
    lift direction of the quadratic surface and the bulk normal of the
    normal-gradient stabilization.  Vertices have shape (..., 4, 3) and
    nodal values (..., 4) for order 1 or (..., 10) for order 2 (vertices,
    then the TET_EDGES midpoints).  The evaluators at barycentric
    coordinates broadcast the batch shape against the points' leading shape:
    a (t, 1) batch evaluated at (m, 4) or (t, m, 4) coordinates gives (t, m).
    The gradients of the barycentric coordinates, `lam_grads` (..., 4, 3),
    are computed on first use; an interpolant on active-mesh tets takes the
    mesh's own.
    """

    def __init__(self, tet_vertices, order: int, values):
        self.verts = np.asarray(tet_vertices, dtype=float)
        self.order = int(order)
        self.values = np.asarray(values, dtype=float)
        if self.order not in (1, 2):
            raise ValueError("interpolation order must be 1 or 2")
        n_nodes = 4 if order == 1 else 10
        if self.values.shape[-1:] != (n_nodes,):
            raise ValueError(f"expected {n_nodes} nodal values for order {order}")

    @cached_property
    def lam_grads(self):
        return shapes.barycentric_gradients(self.verts)

    @classmethod
    def of_field(cls, tet_vertices, order, field):
        """Interpolate `field`, evaluated in one call on all nodes."""
        verts = np.asarray(tet_vertices, dtype=float)
        nodes = verts if order == 1 else np.concatenate(
            [verts, shapes.tet_edge_midpoints(verts)], axis=-2
        )
        values = np.asarray(field(nodes.reshape(-1, 3)), dtype=float)
        return cls(verts, order, values.reshape(nodes.shape[:-1]))

    def value_at(self, lam):
        basis = shapes.tet_p1_values(lam) if self.order == 1 else shapes.tet_p2_values(lam)
        return np.einsum("...k,...k->...", basis, self.values)

    def dvalue_at(self, lam):
        """Derivatives with respect to the 4 barycentric coords: (..., 4)."""
        lam = np.asarray(lam, dtype=float)
        if self.order == 2:
            return shapes.tet_p2_dlam(lam, self.values)
        # P1: the nodal values themselves, at every point
        shape = np.broadcast_shapes(self.values.shape, lam.shape)
        return np.broadcast_to(self.values, shape).copy()

    def gradient_at(self, lam):
        return (self.dvalue_at(lam)[..., None, :] @ self.lam_grads)[..., 0, :]

    def normal_at(self, lam, exact_normal):
        """Unit normal grad(phi_h)/|grad(phi_h)|, (..., 3).

        Where |grad(phi_h)| <= 1e-10 the normal is `exact_normal` (a map of
        (k, 3) points to (k, 3) unit normals) at the physical point.
        """
        grad = self.gradient_at(lam)
        norms = np.linalg.norm(grad, axis=-1)
        degenerate = norms <= 1e-10
        if np.any(degenerate):
            points = (lam[..., None, :] @ self.verts)[..., 0, :]
            grad[degenerate] = exact_normal(points[degenerate])
            norms = np.linalg.norm(grad, axis=-1)
        return grad / norms[..., None]


# ---------------------------------------------------------------------------
# marching tetrahedra
# ---------------------------------------------------------------------------

_OTHERS = np.array([[j for j in range(4) if j != i] for i in range(4)])


def _edge_root_lambda(phi, i_idx, j_idx):
    """Barycentric coords of the level-set root on edges (i, j), endpoint-order
    independent: endpoints are sorted before the interpolation formula."""
    a = np.minimum(i_idx, j_idx)
    b = np.maximum(i_idx, j_idx)
    rows = np.arange(len(a))
    phi_a = phi[rows, a]
    phi_b = phi[rows, b]
    t = phi_a / (phi_a - phi_b)
    lam = np.zeros((len(a), 4))
    lam[rows, a] = 1.0 - t
    lam[rows, b] = t
    return lam


def _march_batch(tet_verts, phi):
    """Marching tetrahedra over a batch.

    tet_verts: (n, 4, 3), phi: (n, 4) finite.  Returns (cell_tet, cell_lam,
    cell_flip) with cells ordered by (tet, local cell index); cell_lam has
    shape (nc, 3, 4).  A vertex value of exactly 0 counts as positive.
    """
    pos = phi >= 0.0
    npos = pos.sum(axis=1)
    out_tet = []
    out_lam = []
    out_flip = []
    out_local = []

    lone_mask = (npos == 1) | (npos == 3)
    if np.any(lone_mask):
        idx = np.flatnonzero(lone_mask)
        lone_is_pos = npos[idx] == 1
        lone = np.where(lone_is_pos, pos[idx].argmax(axis=1), (~pos[idx]).argmax(axis=1))
        others = _OTHERS[lone]  # (k, 3) ascending
        phis = phi[idx]
        lam = np.stack(
            [_edge_root_lambda(phis, lone, others[:, m]) for m in range(3)], axis=1
        )  # (k, 3, 4)
        verts = tet_verts[idx]
        x = lam @ verts
        raw_n = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
        to_lone = verts[np.arange(len(idx)), lone] - x.mean(axis=1)
        side = np.einsum("kx,kx->k", raw_n, to_lone)
        flip = np.where(lone_is_pos, side < 0.0, side > 0.0)
        out_tet.append(idx)
        out_lam.append(lam)
        out_flip.append(flip)
        out_local.append(np.zeros(len(idx), dtype=np.int64))

    quad_mask = npos == 2
    if np.any(quad_mask):
        idx = np.flatnonzero(quad_mask)
        order = np.argsort(pos[idx], axis=1, kind="stable")  # negatives first
        a, b, c, d = order[:, 0], order[:, 1], order[:, 2], order[:, 3]
        phis = phi[idx]
        q = np.stack(
            [
                _edge_root_lambda(phis, a, c),
                _edge_root_lambda(phis, a, d),
                _edge_root_lambda(phis, b, d),
                _edge_root_lambda(phis, b, c),
            ],
            axis=1,
        )  # (k, 4, 4) quad corners in cyclic order
        verts = tet_verts[idx]
        xq = q @ verts
        d02 = np.linalg.norm(xq[:, 0] - xq[:, 2], axis=1)
        d13 = np.linalg.norm(xq[:, 1] - xq[:, 3], axis=1)
        first = d02 <= d13
        tri1 = np.where(first[:, None, None], q[:, (0, 1, 2)], q[:, (1, 2, 3)])
        tri2 = np.where(first[:, None, None], q[:, (0, 2, 3)], q[:, (1, 3, 0)])
        outward = 0.5 * (
            verts[np.arange(len(idx)), c] + verts[np.arange(len(idx)), d]
        ) - 0.5 * (verts[np.arange(len(idx)), a] + verts[np.arange(len(idx)), b])
        for local, tri in enumerate((tri1, tri2)):
            x = tri @ verts
            raw_n = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
            flip = np.einsum("kx,kx->k", raw_n, outward) < 0.0
            out_tet.append(idx)
            out_lam.append(tri)
            out_flip.append(flip)
            out_local.append(np.full(len(idx), local, dtype=np.int64))

    if not out_tet:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 3, 4)),
            np.zeros(0, dtype=bool),
        )
    cell_tet = np.concatenate(out_tet)
    cell_lam = np.concatenate(out_lam)
    cell_flip = np.concatenate(out_flip)
    cell_local = np.concatenate(out_local)
    order = np.lexsort((cell_local, cell_tet))
    return cell_tet[order], cell_lam[order], cell_flip[order]


# ---------------------------------------------------------------------------
# quadratic lift
# ---------------------------------------------------------------------------


def _line_roots(phi: TetInterpolant, lam0, dlam, h):
    """Step lengths t onto the zero set of phi_h along barycentric rays
    lam0 + t * dlam, both (..., 4) and broadcast against phi's batch.

    The restriction of phi_h to a line is a polynomial of degree at most 2
    in t, so the roots come in closed form; the real root nearest the start
    point is chosen.  Returns (t, resolved) with t = 0 where no real root
    lies within |t| <= h.
    """
    c = phi.value_at(lam0)
    b = np.einsum("...a,...a->...", phi.dvalue_at(lam0), dlam)
    a = phi.value_at(lam0 + dlam) - c - b

    quad = np.abs(a) > 1e-14 * (np.abs(b) + np.abs(c) + 1e-300)
    disc = b * b - 4.0 * a * c
    ok = quad & (disc >= 0.0)
    sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
    q = -0.5 * (b + np.sign(np.where(b == 0.0, 1.0, b)) * sqrt_disc)
    lin = ~quad & (np.abs(b) > 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(ok, q / a, np.where(lin, -c / b, np.nan))
        second = np.where(ok, np.where(q != 0.0, c / q, 0.0), np.nan)
    # the nearer root, the first one on a tie; NaN where there is none
    take_second = np.abs(second) < np.where(np.isnan(first), np.inf, np.abs(first))
    nearest = np.where(take_second, second, first)
    resolved = np.isfinite(nearest) & (np.abs(nearest) <= h)
    t = np.where(resolved, nearest, 0.0)
    return t, resolved


# ---------------------------------------------------------------------------
# surface construction
# ---------------------------------------------------------------------------


def build_surface(
    active: ActiveMesh,
    surface: ImplicitSurface,
    k_g: int = 1,
    quad_degree: int = 4,
) -> DiscreteSurface:
    """Extract the discrete surface of geometry order k_g from the active mesh."""
    if k_g not in (1, 2):
        raise ValueError("geometry order k_g must be 1 or 2")
    phi = TetInterpolant.of_field(active.tet_vertices, k_g, surface.signed_distance)
    tet_verts = phi.verts  # (na, 4, 3)
    cell_active, lam3, flips = _march_batch(tet_verts, phi.values[:, :4])
    nodes3 = lam3 @ tet_verts[cell_active]

    area = 0.5 * np.linalg.norm(
        np.cross(nodes3[:, 1] - nodes3[:, 0], nodes3[:, 2] - nodes3[:, 0]), axis=1
    )
    keep = area >= SLIVER_FACTOR * active.h**2
    if not np.all(keep):
        log.info("dropped %d degenerate surface cells", int((~keep).sum()))
        cell_active, lam3, flips, nodes3 = (
            cell_active[keep],
            lam3[keep],
            flips[keep],
            nodes3[keep],
        )

    if k_g == 1:
        node_lam = lam3
        nodes = nodes3
    else:
        cell_phi = TetInterpolant(
            tet_verts[cell_active, None], 2, phi.values[cell_active, None]
        )
        cell_phi.lam_grads = active.lam_grads[cell_active, None]
        node_lam, nodes = _lift_cells(cell_phi, lam3, active.h, surface.surface_normal)

    return DiscreteSurface(
        k_g=k_g,
        surface=surface,
        active=active,
        phi=phi,
        cell_active=cell_active,
        nodes=nodes,
        node_lambdas=node_lam,
        flips=flips,
        **_attach_quadrature(k_g, nodes, node_lam, flips, *triangle_rule(quad_degree)),
    )


def _lift_cells(phi, lam3, h, exact_normal):
    """Lift the vertices and edge midpoints of the base triangles onto the
    zero set of phi_h, a (nc, 1) batch holding each cell's parent tet.

    Every node moves along the quasi-normal grad(phi_h)/|grad(phi_h)| of its
    own cell's tet (see the module docstring for what that means for nodes
    shared between tets).  The displacement is a smooth O(h^2) graph over the
    base surface, so even needle-shaped base cells (surface grazing a mesh
    vertex) stay fold-free.
    """
    lam6 = np.concatenate(
        [
            lam3,
            np.stack(
                [0.5 * (lam3[:, a] + lam3[:, b]) for a, b in shapes.TRI_EDGES], axis=1
            ),
        ],
        axis=1,
    )  # (nc, 6, 4)
    d = phi.normal_at(lam6, exact_normal)  # (nc, 6, 3)
    dlam = (phi.lam_grads @ d[..., None])[..., 0]
    t, resolved = _line_roots(phi, lam6, dlam, h)
    unresolved = int((~resolved).sum())
    if unresolved:
        log.warning("quadratic lift: %d nodes kept at their base position", unresolved)
    lam6 = lam6 + t[..., None] * dlam
    lifted = (lam6[..., None, :] @ phi.verts)[..., 0, :]
    return lam6, lifted


def _attach_quadrature(k_g, nodes, node_lambdas, flips, bary, w):
    """Quadrature points, their barycentrics in the parent tet, weights and
    oriented unit normals of the cell maps at the reference rule (bary, w),
    as `DiscreteSurface` fields."""
    if k_g == 1:
        values = shapes.tri_p1_values(bary)  # (m, 3)
        dvalues = shapes.tri_p1_dvalues(bary)  # (m, 3, 3)
    else:
        values = shapes.tri_p2_values(bary)  # (m, 6)
        dvalues = shapes.tri_p2_dvalues(bary)  # (m, 6, 3)
    # reference derivatives via lam = (1 - xi - eta, xi, eta)
    dlam_dxi = np.array([-1.0, 1.0, 0.0])
    dlam_deta = np.array([-1.0, 0.0, 1.0])
    dN_dxi = dvalues @ dlam_dxi  # (m, nn)
    dN_deta = dvalues @ dlam_deta

    points = values @ nodes  # (nc, m, 3)
    cross = np.cross(dN_dxi @ nodes, dN_deta @ nodes)
    norm = np.linalg.norm(cross, axis=2)
    weights = 0.5 * w[None, :] * norm
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = cross / norm[:, :, None]
    normals[norm == 0.0] = 0.0
    sign = np.where(flips, -1.0, 1.0)
    normals *= sign[:, None, None]
    return {
        "qp_points": points,
        "qp_lambdas": values @ node_lambdas,
        "qp_weights": weights,
        "qp_normals": normals,
    }


def with_quadrature(ds: DiscreteSurface, degree: int) -> DiscreteSurface:
    """Same surface cells, re-sampled with a quadrature rule of another degree."""
    return replace(
        ds,
        **_attach_quadrature(
            ds.k_g, ds.nodes, ds.node_lambdas, ds.flips, *triangle_rule(degree)
        ),
    )


def sample_cells(ds: DiscreteSurface, bary):
    """Evaluate the cell maps at reference barycentric coords (m, 3).

    Returns points (nc, m, 3) and oriented unit normals (nc, m, 3); used for
    exporting nodal data on the discrete surface.
    """
    fields = _attach_quadrature(
        ds.k_g, ds.nodes, ds.node_lambdas, ds.flips, bary, np.zeros(len(bary))
    )
    return fields["qp_points"], fields["qp_normals"]


def surface_mean(ds: DiscreteSurface, values) -> float:
    """Area-weighted mean over the discrete surface."""
    values = np.asarray(values, dtype=float)
    total = ds.total_area
    if total <= 0.0:
        raise CutSurfaceError("zero total surface area")
    return float(ds.weights @ values / total)
