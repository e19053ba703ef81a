"""Independent brute-force assembly oracle.

Everything here is deliberately written from scratch: quadrature comes from
tensor Gauss-Legendre rules collapsed onto the triangle/tet (Duffy maps),
basis functions are evaluated through their own barycentric solve, and the
global matrix is accumulated densely with plain Python loops.  The only
shared ingredient with the library is the geometry object (exact closest
points), which is verified independently in test_geometry.
"""

import numpy as np

TET_EDGE_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def gl_unit(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_points(n=8):
    """Duffy-collapsed rule on the unit triangle; weights sum to 1/2."""
    u, wu = gl_unit(n)
    v, wv = gl_unit(n)
    pts, wts = [], []
    for i in range(n):
        for j in range(n):
            pts.append((u[i], v[j] * (1.0 - u[i])))
            wts.append(wu[i] * wv[j] * (1.0 - u[i]))
    return np.array(pts), np.array(wts)


def tet_points(n=6):
    """Duffy-collapsed rule on the unit tet; weights sum to 1/6."""
    u, wu = gl_unit(n)
    v, wv = gl_unit(n)
    w, ww = gl_unit(n)
    pts, wts = [], []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x = u[i]
                y = v[j] * (1.0 - u[i])
                z = w[k] * (1.0 - u[i]) * (1.0 - v[j])
                pts.append((x, y, z))
                wts.append(wu[i] * wv[j] * ww[k] * (1.0 - u[i]) ** 2 * (1.0 - v[j]))
    return np.array(pts), np.array(wts)


def bary_and_grads(tet_verts, x):
    """Barycentric coords of x and their gradients, via one 4x4 solve."""
    mat = np.vstack([np.ones(4), np.asarray(tet_verts, dtype=float).T])
    inv = np.linalg.inv(mat)
    lam = inv @ np.concatenate([[1.0], x])
    grads = inv[:, 1:]
    return lam, grads


def shape_tet(tet_verts, order, x):
    """Values and physical gradients of the P1/P2 tet basis at x."""
    lam, glam = bary_and_grads(tet_verts, x)
    if order == 1:
        return lam.copy(), glam.copy()
    values = np.empty(10)
    grads = np.empty((10, 3))
    for i in range(4):
        values[i] = lam[i] * (2.0 * lam[i] - 1.0)
        grads[i] = (4.0 * lam[i] - 1.0) * glam[i]
    for k, (a, b) in enumerate(TET_EDGE_PAIRS):
        values[4 + k] = 4.0 * lam[a] * lam[b]
        grads[4 + k] = 4.0 * (lam[a] * glam[b] + lam[b] * glam[a])
    return values, grads


def barycentric_coords(tet_vertices, points):
    """Barycentric coordinates of physical points, batched.

    tet_vertices: (..., 4, 3), points: (..., 3) -> (..., 4).
    """
    v = np.asarray(tet_vertices, dtype=float)
    p = np.asarray(points, dtype=float)
    edges = np.stack([v[..., k, :] - v[..., 0, :] for k in (1, 2, 3)], axis=-1)
    lam123 = np.linalg.solve(edges, (p - v[..., 0, :])[..., None])[..., 0]
    return np.concatenate([1.0 - lam123.sum(axis=-1, keepdims=True), lam123], axis=-1)


def interpolant_value(tet_verts, values, order, x):
    """Value of the nodal level-set interpolant (own formulas)."""
    basis, _ = shape_tet(tet_verts, order, x)
    return values @ basis


def interpolant_gradient(tet_verts, values, order, x):
    """Gradient of the nodal level-set interpolant (own formulas)."""
    _, grads = shape_tet(tet_verts, order, x)
    return values @ grads


def tet_nodes(tet_verts, order):
    """The P1 (4) or P2 (10) nodes of one tet: vertices, then edge midpoints."""
    tet_verts = np.asarray(tet_verts, dtype=float)
    if order == 1:
        return tet_verts
    mids = [0.5 * (tet_verts[a] + tet_verts[b]) for a, b in TET_EDGE_PAIRS]
    return np.vstack([tet_verts, mids])


def lift(x0, tet_verts, values, order, direction, h):
    """Move x0 along `direction` onto the zero set of one tet's interpolant.

    The interpolant restricted to the line x0 + t d is a polynomial
    a t^2 + b t + c, read off its values at t = -h, 0, h.  The root nearest
    to x0 is 2c / (-b - sign(b) sqrt(b^2 - 4ac)), which also covers a = 0;
    it must lie within |t| <= h.
    """
    x0 = np.asarray(x0, dtype=float)
    d = np.asarray(direction, dtype=float)
    lo, c, hi = (interpolant_value(tet_verts, values, order, x0 + t * d) for t in (-h, 0.0, h))
    b = (hi - lo) / (2.0 * h)
    a = (hi + lo - 2.0 * c) / (2.0 * h * h)
    disc = b * b - 4.0 * a * c
    assert disc >= 0.0, "no real root on the line"
    t = 2.0 * c / (-b - np.copysign(np.sqrt(disc), b))
    assert abs(t) <= h, "no root within |t| <= h"
    return x0 + t * d


def march_tet(verts, phi):
    """Marching tetrahedra on one tet, written out case by case: the cut's
    triangles in local order, each as the barycentric coordinates (3, 4) of
    its corners.

    A vertex value of exactly 0 counts as positive.  The root on the edge
    (i, j), i < j, is at t = phi_i / (phi_i - phi_j), with lambda_i = 1 - t
    and lambda_j = t.  A lone vertex of either sign gives one triangle, the
    roots on its edges to the other vertices in ascending order.  Negatives
    a < b and positives c < d give the quad of the roots on (a, c), (a, d),
    (b, d), (b, c), split into (0, 1, 2), (0, 2, 3) when |x0 - x2| <=
    |x1 - x3| and into (1, 2, 3), (1, 3, 0) otherwise.
    """
    verts = np.asarray(verts, dtype=float)
    phi = [float(value) for value in phi]
    positive = [i for i in range(4) if phi[i] >= 0.0]
    negative = [i for i in range(4) if not phi[i] >= 0.0]

    def root(i, j):
        i, j = min(i, j), max(i, j)
        t = phi[i] / (phi[i] - phi[j])
        lam = np.zeros(4)
        lam[i] = 1.0 - t
        lam[j] = t
        return lam

    if len(positive) in (1, 3):
        lone = positive[0] if len(positive) == 1 else negative[0]
        return [np.array([root(lone, j) for j in range(4) if j != lone])]
    if len(positive) != 2:
        return []
    (a, b), (c, d) = negative, positive
    quad = [root(a, c), root(a, d), root(b, d), root(b, c)]
    x = [sum(lam[i] * verts[i] for i in range(4)) for lam in quad]
    if np.linalg.norm(x[0] - x[2]) <= np.linalg.norm(x[1] - x[3]):
        splits = [(0, 1, 2), (0, 2, 3)]
    else:
        splits = [(1, 2, 3), (1, 3, 0)]
    return [np.array([quad[m] for m in split]) for split in splits]


def dof_coords(space):
    """Coordinates of a space's DOFs: each tet's nodes scattered through its
    `cell_dofs`."""
    coords = np.zeros((space.global_dofs, 3))
    for tet_verts, dofs in zip(space.active_mesh.tet_vertices, space.cell_dofs):
        coords[dofs] = tet_nodes(tet_verts, space.order)
    return coords


def interpolate(space, field):
    """Nodal interpolation of a field mapping (n, 3) points to (n,) values."""
    return np.asarray(field(dof_coords(space)), dtype=float)


def oracle_assemble(vspace, pspace, ds, data, kind, tau, alpha):
    """Dense global matrix and rhs of the expanded stabilized system, read
    from the surface's cell arrays (planar cells only)."""
    active, surface = ds.active, ds.surface
    n_u = vspace.global_dofs
    n_p = pspace.global_dofs
    total = 3 * n_u + n_p + 1
    mat = np.zeros((total, total))
    rhs = np.zeros(total)
    f_fun, g_fun = data
    h = active.h
    k_g = ds.k_g

    tri_xi, tri_w = triangle_points()
    assert ds.nodes.shape[1] == 3, "oracle covers planar cells"
    for (v0, v1, v2), tet_pos in zip(ds.nodes, ds.cell_active):
        area = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0))
        tet_verts = active.tet_vertices[tet_pos]
        vdofs = vspace.cell_dofs[tet_pos]
        pdofs = pspace.cell_dofs[tet_pos]
        for (xi, eta), wq in zip(tri_xi, tri_w):
            x = v0 + xi * (v1 - v0) + eta * (v2 - v0)
            weight = 2.0 * area * wq
            phi_u, _ = shape_tet(tet_verts, vspace.order, x)
            phi_p, grad_p = shape_tet(tet_verts, pspace.order, x)
            for c in range(3):
                off = c * n_u
                for i in range(len(vdofs)):
                    gi = off + vdofs[i]
                    for j in range(len(vdofs)):
                        mat[gi, off + vdofs[j]] += 0.5 * weight * phi_u[i] * phi_u[j]
                    for j in range(len(pdofs)):
                        mat[gi, 3 * n_u + pdofs[j]] += (
                            0.5 * weight * phi_u[i] * grad_p[j, c]
                        )
                        mat[3 * n_u + pdofs[j], gi] -= (
                            0.5 * weight * phi_u[i] * grad_p[j, c]
                        )
            for i in range(len(pdofs)):
                gi = 3 * n_u + pdofs[i]
                for j in range(len(pdofs)):
                    mat[gi, 3 * n_u + pdofs[j]] += (
                        0.5 * weight * grad_p[i] @ grad_p[j]
                    )
                mat[gi, total - 1] += weight * phi_p[i]
                mat[total - 1, gi] += weight * phi_p[i]
            # right-hand side with pull-back extension
            proj = surface.closest_point(x[None])[0]
            f_val = float(np.atleast_1d(f_fun(proj[None]))[0])
            g_val = np.atleast_2d(g_fun(proj[None]))[0]
            for c in range(3):
                for i in range(len(vdofs)):
                    rhs[c * n_u + vdofs[i]] += 0.5 * weight * g_val[c] * phi_u[i]
            for i in range(len(pdofs)):
                rhs[3 * n_u + pdofs[i]] += weight * (
                    f_val * phi_p[i] + 0.5 * g_val @ grad_p[i]
                )

    tet_xi, tet_w = tet_points()
    scale = tau * h ** (alpha - 1.0)
    for tet_pos in range(len(active)):
        tet_verts = active.tet_vertices[tet_pos]
        vol = abs(np.linalg.det((tet_verts[1:] - tet_verts[0]).T)) / 6.0
        nodal = None
        if kind == "normal":
            nodal = np.atleast_1d(surface.signed_distance(tet_nodes(tet_verts, k_g)))
        for (bx, by, bz), wq in zip(tet_xi, tet_w):
            x = (
                tet_verts[0]
                + bx * (tet_verts[1] - tet_verts[0])
                + by * (tet_verts[2] - tet_verts[0])
                + bz * (tet_verts[3] - tet_verts[0])
            )
            weight = 6.0 * vol * wq
            for space, offsets in ((vspace, (0, n_u, 2 * n_u)), (pspace, (3 * n_u,))):
                _, grads = shape_tet(tet_verts, space.order, x)
                if kind == "normal":
                    grad_phi = interpolant_gradient(tet_verts, nodal, k_g, x)
                    norm = np.linalg.norm(grad_phi)
                    normal = (
                        grad_phi / norm
                        if norm > 1e-10
                        else np.atleast_2d(surface.surface_normal(x[None]))[0]
                    )
                    comp = grads @ normal
                    local = scale * weight * np.outer(comp, comp)
                else:
                    local = scale * weight * (grads @ grads.T)
                dofs = space.cell_dofs[tet_pos]
                for off in offsets:
                    for i in range(len(dofs)):
                        for j in range(len(dofs)):
                            mat[off + dofs[i], off + dofs[j]] += local[i, j]
    return mat, rhs


def triangle_shape(order, l0, xi, eta):
    """Values and (xi, eta)-derivatives of the P1/P2 triangle basis at the
    reference point with barycentrics (l0, xi, eta), taken as given (a
    tabulated rule's sum to 1 only up to round-off): vertices (0,0), (1,0),
    (0,1), then for P2 the midpoints of the edges (0, 1), (1, 2), (2, 0)."""
    if order == 1:
        return (
            np.array([l0, xi, eta]),
            np.array([-1.0, 1.0, 0.0]),
            np.array([-1.0, 0.0, 1.0]),
        )
    values = np.array(
        [
            l0 * (2.0 * l0 - 1.0),
            xi * (2.0 * xi - 1.0),
            eta * (2.0 * eta - 1.0),
            4.0 * l0 * xi,
            4.0 * xi * eta,
            4.0 * eta * l0,
        ]
    )
    d_xi = np.array(
        [1.0 - 4.0 * l0, 4.0 * xi - 1.0, 0.0, 4.0 * (l0 - xi), 4.0 * eta, -4.0 * eta]
    )
    d_eta = np.array(
        [1.0 - 4.0 * l0, 0.0, 4.0 * eta - 1.0, -4.0 * xi, 4.0 * xi, 4.0 * (l0 - eta)]
    )
    return values, d_xi, d_eta


def cell_quadrature(order, nodes, node_lambdas, flips, bary, weights):
    """Quadrature points, barycentrics in the parent tet, weights and oriented
    unit normals of the surface cell maps, one cell and one point at a time.

    The rule is given on the reference triangle by barycentric points (m, 3)
    and weights summing to 1; a cell's weights are the rule's times the
    reference area 1/2 times the map's area element |x_xi x x_eta|.
    """
    nc, m = len(nodes), len(bary)
    points = np.zeros((nc, m, 3))
    lambdas = np.zeros((nc, m, 4))
    cell_weights = np.zeros((nc, m))
    normals = np.zeros((nc, m, 3))
    for c in range(nc):
        for q in range(m):
            values, d_xi, d_eta = triangle_shape(order, *bary[q])
            for k in range(len(values)):
                points[c, q] += values[k] * nodes[c][k]
                lambdas[c, q] += values[k] * node_lambdas[c][k]
            t_xi = sum(d_xi[k] * nodes[c][k] for k in range(len(values)))
            t_eta = sum(d_eta[k] * nodes[c][k] for k in range(len(values)))
            cross = np.cross(t_xi, t_eta)
            jac = np.linalg.norm(cross)
            cell_weights[c, q] = 0.5 * weights[q] * jac
            if jac > 0.0:
                normals[c, q] = (-1.0 if flips[c] else 1.0) * cross / jac
    return points, lambdas, cell_weights, normals
