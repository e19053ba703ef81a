import logging

import numpy as np
import numpy.testing as npt
import pytest

from surfdarcy import fe_space
from surfdarcy.cut_surface import (
    _attach_quadrature,
    _line_roots,
    _march_batch,
    build_surface,
    level_set_normals,
    surface_mean,
    with_quadrature,
)
from surfdarcy.fe_space import build_space
from surfdarcy.geometry import Torus
from surfdarcy.mesh import ActiveMesh, build_background, extract_active, refine_uniform
from surfdarcy.quadrature import triangle_rule

from oracle import (
    TET_EDGE_PAIRS,
    barycentric_coords,
    cell_quadrature,
    interpolant_gradient,
    lift,
    march_tet,
    tet_nodes,
)

REF_TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
TORUS_AREA = 4 * np.pi**2 * 1.0 * 0.5


@pytest.fixture(scope="module")
def torus():
    return Torus()


def _active(torus, level):
    mesh = build_background()
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return extract_active(mesh, torus.signed_distance(mesh.vertices))


@pytest.fixture(scope="module")
def active_l1(torus):
    return _active(torus, 1)


def _one_tet(verts):
    """An active mesh of the single tet `verts` (4, 3)."""
    return ActiveMesh(
        h=1.0,
        active_tets=np.array([0]),
        vertices=np.asarray(verts, dtype=float),
        tets=np.array([[0, 1, 2, 3]]),
    )


def _interpolant(verts, order, field):
    """The P_order space on the single tet `verts` and the coefficients of
    the interpolant of `field` in it."""
    space = build_space(_one_tet(verts), order)
    return space, fe_space.interpolate(space, field)


def _march_one(tet, phi):
    """Marching tetrahedra on a (1, 4, 3) batch: the cells' vertex
    coordinates (nc, 3, 3)."""
    verts = np.asarray(tet, dtype=float).reshape(1, 4, 3)
    cell_tet, lam = _march_batch(verts, np.asarray(phi, dtype=float).reshape(1, 4))
    assert np.all(cell_tet == 0)
    return lam @ verts[0]


def _p1_gradients(tet_vertices, vertex_values):
    """(n, 3) gradients of the vertex-linear interpolants on (n, 4, 3) tets."""
    n = len(tet_vertices)
    system = np.concatenate([np.ones((n, 4, 1)), tet_vertices], axis=2)
    return np.linalg.solve(system, vertex_values[..., None])[:, 1:, 0]


class TestMarchingTet:
    def test_one_negative_vertex(self):
        tris = _march_one(REF_TET, [-1.0, 1.0, 1.0, 1.0])
        assert len(tris) == 1
        expected = {(0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5)}
        got = {tuple(np.round(v, 12)) for v in tris[0]}
        assert got == expected

    def test_two_two_split(self):
        phi = np.array([-1.0, -1.0, 1.0, 1.0])
        tris = _march_one(REF_TET, phi)
        assert len(tris) == 2
        for tri in tris:
            # all vertices on tet edges where the linear level set vanishes
            for lam in barycentric_coords(REF_TET, tri):
                assert abs(lam @ phi) < 1e-12

    def test_uniform_sign_empty(self):
        assert len(_march_one(REF_TET, [1.0, 1.0, 1.0, 1.0])) == 0
        assert len(_march_one(REF_TET, [-1.0, -1.0, -1.0, -1.0])) == 0

    def test_zero_counts_positive(self):
        # (0, +, +, +) is uniform positive under the tie-break
        assert len(_march_one(REF_TET, [0.0, 1.0, 1.0, 1.0])) == 0

    def test_shared_facet_bit_exact(self):
        # two tets sharing a face produce identical edge roots on that face
        rng = np.random.default_rng(3)
        for _ in range(50):
            shared = rng.standard_normal((3, 3))
            apex1 = shared.mean(axis=0) + np.cross(
                shared[1] - shared[0], shared[2] - shared[0]
            )
            apex2 = 2 * shared.mean(axis=0) - apex1
            phi_shared = rng.standard_normal(3)
            tet1 = np.vstack([shared, apex1])
            tet2 = np.vstack([shared, apex2])
            tris1 = _march_one(tet1, [*phi_shared, 1.0])
            tris2 = _march_one(tet2, [*phi_shared, 1.0])
            verts1 = {tuple(v) for tri in tris1 for v in tri}
            verts2 = {tuple(v) for tri in tris2 for v in tri}
            on_face1 = {v for v in verts1 if v in verts2}
            # roots on the shared face's edges agree bit-exactly
            n_cross = int((phi_shared >= 0).sum())
            if 0 < n_cross < 3:
                assert len(on_face1) >= 2

    @staticmethod
    def _assert_matches_oracle(tet_verts, phi):
        """`_march_batch` gives the cells of `march_tet`, tet by tet, bit for
        bit: the same parent tets, corner barycentrics, and order of the
        cells and of their corners."""
        cell_tet, cell_lam = _march_batch(tet_verts, phi)
        cells = [
            (tet, tri) for tet, args in enumerate(zip(tet_verts, phi)) for tri in march_tet(*args)
        ]
        npt.assert_array_equal(cell_tet, np.array([tet for tet, _ in cells], dtype=np.int64))
        expected = np.array([tri for _, tri in cells]).reshape(-1, 3, 4)
        assert cell_lam.shape == expected.shape
        assert cell_lam.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_matches_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 401))
        tet_verts = rng.standard_normal((n, 4, 3))
        phi = rng.standard_normal((n, 4))
        phi[rng.random((n, 4)) < 0.05] = 0.0
        phi[rng.random((n, 4)) < 0.02] = -0.0
        self._assert_matches_oracle(tet_verts, phi)

    def test_batch_matches_oracle_on_diagonal_tie(self):
        # the quad of the edge midpoints has diagonals of exactly equal
        # length, and a tie splits along 02
        quad = np.array([[0, 0.5, 0], [0, 0, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
        assert np.linalg.norm(quad[0] - quad[2]) == np.linalg.norm(quad[1] - quad[3])
        phi = [-1.0, -1.0, 1.0, 1.0]
        npt.assert_array_equal(_march_one(REF_TET, phi), [quad[[0, 1, 2]], quad[[0, 2, 3]]])
        self._assert_matches_oracle(REF_TET[None], np.array([phi]))

    def test_batch_matches_oracle_on_torus_mesh(self):
        probe = Torus(center=(0.031, -0.052, 0.017))
        active = _active(probe, 1)
        phi = probe.signed_distance(active.vertices)[active.tets]
        self._assert_matches_oracle(active.tet_vertices, phi)

    def test_area_additivity_2v2(self):
        # quad split along either diagonal conserves total area
        tris = _march_one(REF_TET, [-0.3, -1.4, 0.8, 0.9])
        area = sum(
            0.5 * np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0])) for t in tris
        )
        assert area > 0

    @pytest.mark.parametrize(
        "phi", [[-1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0], [-0.3, -1.4, 0.8, 0.9]]
    )
    def test_orientation_points_to_positive_side(self, phi):
        # the flipped cell normal points from phi < 0 towards phi >= 0
        grad = _p1_gradients(REF_TET[None], np.asarray(phi)[None])[0]

        class Linear:
            def signed_distance(self, x):
                return phi[0] + x @ grad

        ds = build_surface(_one_tet(REF_TET), Linear(), k_g=1)
        assert ds.n_cells >= 1
        for tri, flip in zip(ds.nodes, ds.flips):
            normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            assert (-1.0 if flip else 1.0) * normal @ grad > 0.0


class TestLiftPoint:
    """The lift of a point onto the zero set of phi_h along a ray, as
    `_line_roots` computes it for every node of the quadratic surface."""

    @staticmethod
    def _lift(interp, x0, direction, h=1.0):
        space, phi = interp
        active = space.active_mesh
        lam0 = barycentric_coords(active.vertices, x0)
        dlam = active.lam_grads[0] @ np.asarray(direction, dtype=float)
        t, resolved = _line_roots(space, phi, [0], lam0, dlam, h)
        return x0 + t[0] * np.asarray(direction), bool(resolved[0])

    def test_already_on_zero_set(self):
        interp = _interpolant(REF_TET, 2, lambda p: p[:, 0] - 0.25)
        out, resolved = self._lift(interp, np.array([0.25, 0.2, 0.2]), [1.0, 0, 0])
        assert resolved
        npt.assert_allclose(out, [0.25, 0.2, 0.2], atol=1e-13)

    def test_affine_matches_linear_interpolation(self):
        interp = _interpolant(REF_TET, 2, lambda p: 2 * p[:, 0] - 0.5)
        out, resolved = self._lift(interp, np.array([0.1, 0.3, 0.1]), [1.0, 0, 0])
        assert resolved
        npt.assert_allclose(out, [0.25, 0.3, 0.1], atol=1e-13)

    def test_sphere_root(self):
        verts = np.array([[0.85, -0.1, -0.1], [1.1, 0, 0], [0.85, 0.3, 0], [0.85, 0, 0.3]])
        interp = _interpolant(verts, 2, lambda p: np.einsum("nx,nx->n", p, p) - 1.0)
        out, resolved = self._lift(interp, np.array([0.9, 0.0, 0.0]), [1.0, 0, 0])
        assert resolved
        npt.assert_allclose(out, [1.0, 0, 0], atol=1e-12)

    def test_no_root_is_unresolved(self):
        interp = _interpolant(REF_TET, 2, lambda p: p[:, 0] + 10.0)
        x0 = np.array([0.2, 0.2, 0.2])
        out, resolved = self._lift(interp, x0, [1.0, 0, 0], h=0.5)
        assert not resolved
        npt.assert_array_equal(out, x0)

    def test_linear_interpolant(self):
        interp = _interpolant(REF_TET, 1, lambda p: 2 * p[:, 0] - 0.5)
        out, resolved = self._lift(interp, np.array([0.1, 0.3, 0.1]), [1.0, 0, 0])
        assert resolved
        npt.assert_allclose(out, [0.25, 0.3, 0.1], atol=1e-13)

    def test_reproduces_quadratic_surface_nodes(self, torus):
        # each node of the k_g = 2 surface is its base node lifted along the
        # normal of its own cell's quadratic phi_h, here by the oracle's lift
        active = _active(torus, 0)
        base = build_surface(active, torus, k_g=1)
        curved = build_surface(active, torus, k_g=2)
        npt.assert_array_equal(base.cell_active, curved.cell_active)
        lam3 = base.node_lambdas
        mids = [0.5 * (lam3[:, a] + lam3[:, b]) for a, b in ((0, 1), (1, 2), (2, 0))]
        lam6 = np.concatenate([lam3, np.stack(mids, axis=1)], axis=1)
        tet_verts = active.tet_vertices[base.cell_active]
        for c in range(0, base.n_cells, 4):  # every 4th of the 3,304 cells
            verts = tet_verts[c]
            nodal = torus.signed_distance(tet_nodes(verts, 2))
            for i, x0 in enumerate(lam6[c] @ verts):
                grad = interpolant_gradient(verts, nodal, 2, x0)
                out = lift(x0, verts, nodal, 2, grad / np.linalg.norm(grad), active.h)
                npt.assert_allclose(out, curved.nodes[c, i], rtol=0, atol=1e-14)


class TestLevelSet:
    """phi_h as a function of the P_k_g space: its interpolation, its
    evaluation and its unit normal."""

    def test_reproduces_quadratic(self):
        field = lambda p: 1 + 2 * p[:, 0] - p[:, 1] * p[:, 2] + p[:, 2] ** 2
        space, phi = _interpolant(REF_TET, 2, field)
        rng = np.random.default_rng(4)
        lam = rng.dirichlet(np.ones(4), size=20)
        pts = lam @ REF_TET
        values = fe_space.evaluate(space, phi, np.zeros(20, dtype=int), lam)
        npt.assert_allclose(values, field(pts), atol=1e-13)

    def test_gradient_matches_fd(self):
        field = lambda p: p[:, 0] ** 2 - 0.5 * p[:, 1] * p[:, 0] + p[:, 2]
        space, phi = _interpolant(REF_TET, 2, field)
        x = np.array([0.2, 0.3, 0.1])
        value = lambda y: fe_space.evaluate(space, phi, [0], barycentric_coords(REF_TET, y))[0]
        grad = fe_space.evaluate_gradient(space, phi, [0], barycentric_coords(REF_TET, x))[0]
        step = 1e-6
        for c in range(3):
            e = np.zeros(3)
            e[c] = step
            fd = (value(x + e) - value(x - e)) / (2 * step)
            assert grad[c] == pytest.approx(fd, abs=1e-8)

    def test_surface_holds_the_interpolant_it_cut(self, torus, active_l1):
        # phi_h in the P_k_g space of the active mesh: the distance at every
        # tet's nodes, bit for bit, and zero at the surface nodes of its cells
        verts = active_l1.tet_vertices
        for k_g in (1, 2):
            ds = build_surface(active_l1, torus, k_g=k_g)
            assert ds.phi_space.order == ds.k_g == k_g
            assert ds.phi_space.active_mesh is active_l1
            nodes = verts
            if k_g == 2:
                mids = [0.5 * (verts[:, a] + verts[:, b]) for a, b in TET_EDGE_PAIRS]
                nodes = np.concatenate([verts, np.stack(mids, axis=1)], axis=1)
            distance = torus.signed_distance(nodes.reshape(-1, 3)).reshape(nodes.shape[:2])
            npt.assert_array_equal(ds.phi[ds.phi_space.cell_dofs], distance)
            at_nodes = fe_space.evaluate(
                ds.phi_space, ds.phi, ds.cell_active[:, None], ds.node_lambdas
            )
            assert np.abs(at_nodes).max() < 1e-11

    def test_normal_falls_back_where_the_gradient_vanishes(self, caplog):
        # P2 reproduces phi = |x - c|^2 - 0.01, whose gradient vanishes at c:
        # the normal there is the exact surface's, elsewhere grad(phi)/|grad(phi)|
        c = np.array([0.25, 0.25, 0.25])
        space, phi = _interpolant(REF_TET, 2, lambda p: np.sum((p - c) ** 2, axis=1) - 0.01)

        class Radial:
            def surface_normal(self, x):
                return x / np.linalg.norm(x, axis=1, keepdims=True)

        lam = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]])
        with caplog.at_level(logging.WARNING, logger="surfdarcy.cut_surface"):
            normals = level_set_normals(space, phi, Radial(), [0], lam)
        npt.assert_allclose(normals[0], c / np.linalg.norm(c), rtol=0, atol=1e-15)
        grad = 2.0 * (lam[1] @ REF_TET - c)
        npt.assert_allclose(normals[1], grad / np.linalg.norm(grad), rtol=0, atol=1e-14)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == [
            "level-set normal: the exact surface normal at 1 points where |grad(phi_h)| <= 1e-10"
        ]


class TestPlanarSurface:
    def test_plane_area_and_normals(self):
        mesh = build_background(((0.0, 1.0),) * 3, 4)

        class Plane:
            def signed_distance(self, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                return x[:, 2] - 0.6125

            def surface_normal(self, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                out = np.zeros_like(x)
                out[:, 2] = 1.0
                return out

        plane = Plane()
        active = extract_active(mesh, plane.signed_distance(mesh.vertices))
        ds = build_surface(active, plane, k_g=1)
        assert ds.total_area == pytest.approx(1.0, abs=1e-12)
        npt.assert_allclose(ds.normals, [[0.0, 0.0, 1.0]] * len(ds.normals), atol=1e-12)


class TestTorusSurface:
    def test_area_converges(self, torus):
        rel_errors = []
        for level in (1, 2):
            ds = build_surface(_active(torus, level), torus, k_g=1)
            rel_errors.append(abs(ds.total_area - TORUS_AREA) / TORUS_AREA)
        assert rel_errors[1] < 0.02
        # second-order area convergence
        assert rel_errors[0] / rel_errors[1] > 3.0

    def test_quad_points_in_parent_tet(self, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=1)
        verts = active_l1.tet_vertices[ds.cell_active][:, None]
        lam = barycentric_coords(verts, ds.qp_points)
        tol = 1e-10 * active_l1.h
        assert lam.min() > -tol and lam.max() < 1 + tol

    def test_weights_positive_sum_to_area(self, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=1)
        assert np.all(ds.weights > 0)
        for nodes, weights in zip(ds.nodes[:50], ds.qp_weights[:50]):
            tri_area = 0.5 * np.linalg.norm(
                np.cross(nodes[1] - nodes[0], nodes[2] - nodes[0])
            )
            assert weights.sum() == pytest.approx(tri_area, rel=1e-12)

    def test_normals_unit_and_oriented(self, torus, active_l1):
        # the oriented normals point outward and, on every cell, up the
        # gradient of its tet's vertex-linear phi_h; centered and at the
        # probe offset
        probe = Torus(center=(0.031, -0.052, 0.017))
        for surface, active in ((torus, active_l1), (probe, _active(probe, 1))):
            for k_g in (1, 2):
                ds = build_surface(active, surface, k_g=k_g)
                npt.assert_allclose(np.linalg.norm(ds.normals, axis=1), 1.0, atol=1e-12)
                exact = surface.surface_normal(ds.points)
                assert np.all(np.einsum("nx,nx->n", exact, ds.normals) > 0)
                verts = active.tet_vertices[ds.cell_active]
                values = surface.signed_distance(verts.reshape(-1, 3)).reshape(-1, 4)
                grad = _p1_gradients(verts, values)
                assert np.all(np.einsum("cmx,cx->cm", ds.qp_normals, grad) > 0)

    def test_closedness(self, torus, active_l1):
        for k_g in (1, 2):
            ds = build_surface(active_l1, torus, k_g=k_g)
            defect = ds.closedness_defect()
            assert defect < 10 * active_l1.h ** (k_g + 1) * ds.total_area

    def test_quadratic_nodes_on_interpolant_zero_set(self, torus, active_l1):
        # nodes lie on the zero set of the per-tet quadratic interpolant
        ds = build_surface(active_l1, torus, k_g=2)
        lam = ds.node_lambdas
        from surfdarcy import shapes

        nodes = np.array([tet_nodes(v, 2) for v in active_l1.tet_vertices[ds.cell_active]])
        nodal = torus.signed_distance(nodes.reshape(-1, 3)).reshape(-1, 10)
        basis = shapes.tet_values(2, lam)  # (nc, 6, 10)
        residual = np.einsum("cnk,ck->cn", basis, nodal)
        assert np.abs(residual).max() < 1e-11

    def test_quad_points_near_tet_for_curved_cells(self, torus):
        # the quasi-normal node lift leaves the parent tet by at most O(h^2)
        # in distance, i.e. O(h) in barycentric units, shrinking under
        # refinement; first-order cells stay inside exactly
        mins = []
        hs = []
        for level in (1, 2):
            active = _active(torus, level)
            ds = build_surface(active, torus, k_g=2)
            verts = active.tet_vertices[ds.cell_active][:, None]
            lam = barycentric_coords(verts, ds.qp_points)
            mins.append(lam.min())
            hs.append(active.h)
        assert mins[0] > -2.0 * hs[0]
        assert mins[1] > -2.0 * hs[1]

    def test_geometric_rates(self, torus):
        for k_g in (1, 2):
            hs, dist, nerr = [], [], []
            for level in (1, 2, 3):
                active = _active(torus, level)
                ds = build_surface(active, torus, k_g=k_g)
                hs.append(active.h)
                dist.append(ds.max_distance())
                nerr.append(ds.max_normal_error())
            order_d = np.polyfit(np.log(hs), np.log(dist), 1)[0]
            order_n = np.polyfit(np.log(hs), np.log(nerr), 1)[0]
            assert abs(order_d - (k_g + 1)) <= 0.3
            assert abs(order_n - k_g) <= 0.3

    def test_pullback_orientation(self, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=1)
        # closest points of one cell's quad points are pairwise distinct
        for quad_points in ds.qp_points[:20]:
            proj = torus.closest_point(quad_points)
            dists = np.linalg.norm(proj[:, None] - proj[None, :], axis=2)
            assert dists[np.triu_indices(len(proj), 1)].min() > 0


class TestSurfaceMean:
    def test_constant(self, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=1)
        assert surface_mean(ds, np.ones(len(ds.weights))) == pytest.approx(1.0)

    def test_odd_symmetry(self, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=1)
        assert abs(surface_mean(ds, ds.points[:, 2])) < 1e-3

    def test_linearity(self, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=1)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(len(ds.weights))
        lhs = surface_mean(ds, 3.0 * v + 2.0)
        rhs = 3.0 * surface_mean(ds, v) + 2.0
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRequadrature:
    def test_same_cells_higher_degree(self, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=1)
        ds6 = with_quadrature(ds, 6)
        assert ds6.qp_points.shape[1] == 12
        assert ds6.total_area == pytest.approx(ds.total_area, rel=1e-12)
        npt.assert_array_equal(ds6.nodes, ds.nodes)

    @pytest.mark.parametrize("k_g", [1, 2])
    def test_barycentrics_map_to_points(self, k_g, torus, active_l1):
        ds = build_surface(active_l1, torus, k_g=k_g)
        for surf in (ds, with_quadrature(ds, 6)):
            verts = active_l1.tet_vertices[surf.cell_active]
            mapped = np.einsum("nml,nlx->nmx", surf.qp_lambdas, verts)
            npt.assert_allclose(mapped, surf.qp_points, rtol=0, atol=1e-13)


def test_determinism(torus, active_l1):
    a = build_surface(active_l1, torus, k_g=2)
    b = build_surface(active_l1, torus, k_g=2)
    npt.assert_array_equal(a.qp_points, b.qp_points)
    npt.assert_array_equal(a.qp_weights, b.qp_weights)
    npt.assert_array_equal(a.cell_active, b.cell_active)


@pytest.mark.parametrize("k_g", [1, 2])
def test_quadrature_maps_match_per_cell_loop(torus, k_g):
    """Points, barycentrics, weights and normals of the cell maps against a
    loop over cells and reference points with the oracle's own shapes.

    The weights, and the normals weighted by them, are compared in units of
    the mean weight: the unit normal of a small curved cell is fixed only up
    to round-off over the cell's size (3e-13 on the smallest cells here, where
    the P2 tangents are sums of O(1) terms that cancel to O(cell size)).
    """
    ds = build_surface(_active(torus, 0), torus, k_g=k_g)
    for degree in (4, 6):
        bary, w = triangle_rule(degree)
        fields = _attach_quadrature(k_g, ds.nodes, ds.node_lambdas, ds.flips, bary, w)
        points, lambdas, weights, normals = cell_quadrature(
            k_g, ds.nodes, ds.node_lambdas, ds.flips, bary, w
        )
        unit = weights.mean()
        for got, ref in (
            (fields["qp_points"], points),
            (fields["qp_lambdas"], lambdas),
            (fields["qp_weights"] / unit, weights / unit),
            (
                fields["qp_weights"][..., None] * fields["qp_normals"] / unit,
                weights[..., None] * normals / unit,
            ),
        ):
            npt.assert_allclose(got, ref, rtol=0, atol=1e-13)
        npt.assert_allclose(np.linalg.norm(fields["qp_normals"], axis=-1), 1.0, atol=1e-14)
