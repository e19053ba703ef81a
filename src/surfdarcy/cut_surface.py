"""Discrete surface extraction: marching tetrahedra on the vertex-interpolated
level set, optional quadratic lifting for second-order geometry, and
quadrature-ready surface cells with oriented normals.

The discrete level set phi_h is the nodal interpolant of the exact signed
distance in the P_k_g space on the active mesh (`fe_space.interpolate`), and
is evaluated like any function of that space.  The first-order surface is
the zero set of its vertex values' linear interpolant, one or two planar
triangles per cut tet, each oriented to point up the gradient of that linear
interpolant.  It is cut by marching tetrahedra, from one table over the 16
sign patterns of a tet's vertex values that names the edges whose roots are
the cut's corners: 3 for a lone vertex of either sign, 4 for a quad split
along its shorter diagonal.  The second-order surface lifts the 3 vertices
and 3 edge midpoints of every base triangle onto the zero set of the
quadratic phi_h, along the quasi-normal grad(phi_h)/|grad(phi_h)| of the
cell's tet (`level_set_normals`).
The lift is not constrained to the tet entity a node lies on: a curved node
may leave its parent tet by O(h^2).  phi_h is continuous, but its gradient
jumps across the faces of the tets, so the copies of a base vertex shared by
neighboring tets move along different directions and do not coincide.  On
the centered torus two copies lie up to 0.53 h^4 apart at level 0 and
0.68 h^4 at level 1, below the O(h^3) geometric error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import fe_space, shapes
from .fe_space import FESpace
from .geometry import ImplicitSurface
from .mesh import ActiveMesh
from .quadrature import triangle_rule

__all__ = [
    "CHUNK_CELLS",
    "DiscreteSurface",
    "build_surface",
    "level_set_normals",
    "chunks",
    "surface_mean",
    "with_quadrature",
    "CutSurfaceError",
    "QUAD_DEGREE",
]

log = logging.getLogger(__name__)

SLIVER_FACTOR = 1e-14

# degree of the triangle rule on the surface cells, which the surface forms
# are integrated with
QUAD_DEGREE = 4

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
    surface: ImplicitSurface
    active: ActiveMesh
    phi_space: FESpace  # P_k_g on the active mesh
    phi: np.ndarray  # (phi_space.global_dofs,) coefficients of phi_h
    cell_active: np.ndarray  # (nc,) position of the parent tet in the active mesh
    nodes: np.ndarray  # (nc, 3 or 6, 3)
    # (nc, 3 or 6, 4) barycentric w.r.t. parent tet; those of the lifted
    # k_g = 2 nodes may lie outside [0, 1], as a lift may leave the tet
    node_lambdas: np.ndarray
    flips: np.ndarray  # (nc,) bool, the raw cell normal points down grad(phi_h)
    qp_points: np.ndarray  # (nc, m, 3)
    qp_lambdas: np.ndarray  # (nc, m, 4) barycentric w.r.t. parent tet
    qp_weights: np.ndarray  # (nc, m)
    qp_normals: np.ndarray  # (nc, m, 3)

    @property
    def k_g(self):
        """The geometry order, that of phi_h."""
        return self.phi_space.order

    @property
    def n_cells(self):
        return len(self.cell_active)

    @property
    def points(self):
        return self.qp_points.reshape(-1, 3)

    @property
    def weights(self):
        return self.qp_weights.reshape(-1)

    @property
    def normals(self):
        return self.qp_normals.reshape(-1, 3)

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


# ---------------------------------------------------------------------------
# marching tetrahedra
# ---------------------------------------------------------------------------


def _pattern_edges(pattern):
    """The 4 tet edges, endpoints sorted, whose level-set roots are the
    corners of the cut of a tet with vertex i positive where bit i of
    `pattern` is set: the lone vertex's 3 edges, to the others in ascending
    order, padded with the first; or, for negatives a < b and positives
    c < d, the quad (a, c), (a, d), (b, d), (b, c)."""
    pos = [i for i in range(4) if pattern >> i & 1]
    neg = [i for i in range(4) if not pattern >> i & 1]
    if len(pos) == 2:
        (a, b), (c, d) = neg, pos
        edges = [(a, c), (a, d), (b, d), (b, c)]
    elif len(pos) in (1, 3):
        lone = (pos if len(pos) == 1 else neg)[0]
        edges = [(lone, j) for j in range(4) if j != lone]
        edges.append(edges[0])
    else:
        edges = [(0, 1)] * 4  # uncut, never read
    return [sorted(edge) for edge in edges]


# the marching-tetrahedra table over the 16 sign patterns: the edges of the
# cut's corners (16, 4, 2) and its number of triangles (16,)
_CUT_EDGES = np.array([_pattern_edges(pattern) for pattern in range(16)])
_CUT_CELLS = np.array([min(n, 4 - n) for n in map(int.bit_count, range(16))])
# the two triangles of the quad 0123 split along its diagonal 02 or 13
_QUAD_SPLITS = np.array([[(0, 1, 2), (0, 2, 3)], [(1, 2, 3), (1, 3, 0)]])


def _march_batch(tet_verts, phi):
    """Marching tetrahedra over a batch, read from the table of the 16 sign
    patterns in one path.

    tet_verts: (n, 4, 3), phi: (n, 4) finite.  Returns (cell_tet, cell_lam)
    with cells ordered by (tet, local cell index); cell_lam has shape
    (nc, 3, 4).  A vertex value of exactly 0 counts as positive.  Every cut
    tet gets the roots of its pattern's 4 edges at once.  A quad is split
    along its shorter diagonal, 02 on a tie; a triangle is the first 3
    corners.
    """
    pattern = (phi >= 0.0) @ (1 << np.arange(4))
    idx = np.flatnonzero(_CUT_CELLS[pattern])
    edges = _CUT_EDGES[pattern[idx]]  # (k, 4, 2)
    n_cells = _CUT_CELLS[pattern[idx]]
    phi_ab = np.take_along_axis(phi[idx, None], edges, axis=2)
    t = phi_ab[..., 0] / (phi_ab[..., 0] - phi_ab[..., 1])
    corners = np.zeros((len(idx), 4, 4))
    np.put_along_axis(corners, edges, np.stack([1.0 - t, t], axis=-1), axis=2)

    xq = corners @ tet_verts[idx]
    diagonals = np.linalg.norm(xq[:, :2] - xq[:, 2:], axis=2)  # |x0 - x2|, |x1 - x3|
    second = ~(diagonals[:, 0] <= diagonals[:, 1]) & (n_cells == 2)
    rows = 4 * np.arange(len(idx))[:, None, None] + _QUAD_SPLITS[second.astype(int)]
    keep = np.arange(2) < n_cells[:, None]  # (k, 2): a triangle keeps its first
    return np.repeat(idx, n_cells), corners.reshape(-1, 4)[rows[keep]]


# ---------------------------------------------------------------------------
# level-set normal and quadratic lift
# ---------------------------------------------------------------------------


def level_set_normals(phi_space: FESpace, phi, surface: ImplicitSurface, cells, lambdas):
    """Unit normals grad(phi_h)/|grad(phi_h)| of the level set with
    coefficients `phi` in `phi_space`, at barycentric coordinates `lambdas`
    of the active tets `cells`, broadcast as in `fe_space.evaluate`: (..., 3).

    Both the lift of the quadratic surface and the normal-gradient
    stabilization take their direction from here.  Where |grad(phi_h)| <=
    1e-10 the normal is the exact surface's at the physical point, and the
    number of such points is logged.
    """
    grad = fe_space.evaluate_gradient(phi_space, phi, cells, lambdas)
    norms = np.linalg.norm(grad, axis=-1)
    degenerate = norms <= 1e-10
    n_degenerate = int(degenerate.sum())
    if n_degenerate:
        log.warning(
            "level-set normal: the exact surface normal at %d points where "
            "|grad(phi_h)| <= 1e-10",
            n_degenerate,
        )
        active = phi_space.active_mesh
        verts = active.vertices[active.tets[cells]]
        points = (np.asarray(lambdas)[..., None, :] @ verts)[..., 0, :]
        grad[degenerate] = surface.surface_normal(points[degenerate])
        norms = np.linalg.norm(grad, axis=-1)
    return grad / norms[..., None]


def _line_roots(phi_space: FESpace, phi, cells, lam0, dlam, h):
    """Step lengths t onto the zero set of phi_h along barycentric rays
    lam0 + t * dlam, both (..., 4), in the active tets `cells`, broadcast as
    in `fe_space.evaluate`.

    The restriction of phi_h to a line is a polynomial of degree at most 2
    in t, so the roots come in closed form; the real root nearest the start
    point is chosen.  Returns (t, resolved) with t = 0 where no real root
    lies within |t| <= h.
    """
    c = fe_space.evaluate(phi_space, phi, cells, lam0)
    local = phi[phi_space.cell_dofs[cells]]
    b = np.einsum("...a,...a->...", shapes.tet_dlam(phi_space.order, lam0, local), dlam)
    a = fe_space.evaluate(phi_space, phi, cells, lam0 + dlam) - c - b

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


def build_surface(active: ActiveMesh, surface: ImplicitSurface, k_g: int = 1) -> DiscreteSurface:
    """Extract the discrete surface of geometry order k_g from the active
    mesh, with the triangle rule of degree QUAD_DEGREE on its cells."""
    if k_g not in (1, 2):
        raise ValueError("geometry order k_g must be 1 or 2")
    phi_space = fe_space.build_space(active, k_g)
    phi = fe_space.interpolate(phi_space, surface.signed_distance)
    # the vertices are the first DOFs of either order
    vertex_phi = phi[active.tets]
    tet_vertices = active.tet_vertices
    cell_active, lam3 = _march_batch(tet_vertices, vertex_phi)
    nodes3 = lam3 @ tet_vertices[cell_active]
    raw_n = np.cross(nodes3[:, 1] - nodes3[:, 0], nodes3[:, 2] - nodes3[:, 0])

    keep = 0.5 * np.linalg.norm(raw_n, axis=1) >= SLIVER_FACTOR * active.h**2
    if not np.all(keep):
        log.info("dropped %d degenerate surface cells", int((~keep).sum()))
        cell_active, lam3, nodes3, raw_n = (
            cell_active[keep],
            lam3[keep],
            nodes3[keep],
            raw_n[keep],
        )
    # orient each cell towards phi_h >= 0: up the gradient of the linear
    # phi_h of its tet
    grad = (vertex_phi[cell_active, None] @ active.lam_grads[cell_active])[:, 0]
    flips = np.einsum("kx,kx->k", raw_n, grad) < 0.0

    if k_g == 1:
        node_lam = lam3
        nodes = nodes3
    else:
        node_lam, nodes = _lift_cells(phi_space, phi, surface, cell_active, lam3)

    return DiscreteSurface(
        surface=surface,
        active=active,
        phi_space=phi_space,
        phi=phi,
        cell_active=cell_active,
        nodes=nodes,
        node_lambdas=node_lam,
        flips=flips,
        **_attach_quadrature(k_g, nodes, node_lam, flips, *triangle_rule(QUAD_DEGREE)),
    )


def _lift_cells(phi_space: FESpace, phi, surface: ImplicitSurface, cells, lam3):
    """Lift the vertices and edge midpoints of the base triangles, with
    barycentrics lam3 in their tets `cells`, onto the zero set of phi_h.

    Every node moves along the quasi-normal grad(phi_h)/|grad(phi_h)| of its
    own cell's tet (see the module docstring for what that means for nodes
    shared between tets).  The displacement is a smooth O(h^2) graph over the
    base surface, so even needle-shaped base cells (surface grazing a mesh
    vertex) stay fold-free.
    """
    active = phi_space.active_mesh
    lam6 = shapes.tri_nodes(2) @ lam3  # (nc, 6, 4)
    at = (cells[:, None], lam6)
    d = level_set_normals(phi_space, phi, surface, *at)  # (nc, 6, 3)
    dlam = (active.lam_grads[cells, None] @ d[..., None])[..., 0]
    t, resolved = _line_roots(phi_space, phi, *at, dlam, active.h)
    unresolved = int((~resolved).sum())
    if unresolved:
        log.warning("quadratic lift: %d nodes kept at their base position", unresolved)
    lam6 = lam6 + t[..., None] * dlam
    # one (1, 4) @ (4, 3) product per node: (nc, 6, 4) @ (nc, 4, 3) rounds
    # the node coordinates differently
    lifted = (lam6[..., None, :] @ active.vertices[active.tets[cells, None]])[..., 0, :]
    return lam6, lifted


def _attach_quadrature(k_g, nodes, node_lambdas, flips, bary, w):
    """Quadrature points, their barycentrics in the parent tet, weights and
    oriented unit normals of the cell maps at the reference rule (bary, w),
    as `DiscreteSurface` fields."""
    values = shapes.tri_values(k_g, bary)  # (m, nn)
    dvalues = shapes.tri_dvalues(k_g, bary)  # (m, nn, 3)
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
