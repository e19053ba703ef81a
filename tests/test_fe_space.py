import numpy as np
import numpy.testing as npt
import pytest

from surfdarcy import fe_space
from surfdarcy.cut_surface import build_surface, with_quadrature
from surfdarcy.fe_space import FESpaceError, build_space, tabulate
from surfdarcy.geometry import Torus
from surfdarcy.mesh import build_background, extract_active, refine_uniform
from surfdarcy.shapes import TET_EDGES
from surfdarcy.verification import ManufacturedSolution

from oracle import dof_coords, interpolate


@pytest.fixture(scope="module")
def torus():
    return Torus()


@pytest.fixture(scope="module")
def active(torus):
    mesh = refine_uniform(build_background())
    return extract_active(mesh, torus.signed_distance(mesh.vertices))


class TestBuildSpace:
    def test_p1_dofs_are_active_vertices(self, active):
        # one DOF per active-mesh vertex, in lexicographic grid order
        space = build_space(active, 1)
        assert space.global_dofs == len(np.unique(active.tets)) == len(active.vertices)
        npt.assert_array_equal(space.cell_dofs, active.tets)
        coords = dof_coords(space)
        npt.assert_array_equal(coords, active.vertices)
        x, y, z = coords.T
        npt.assert_array_equal(np.lexsort((z, y, x)), np.arange(len(coords)))
        assert len(np.unique(coords, axis=0)) == len(coords)

    def test_p2_dofs_vertices_plus_edges(self, active):
        space = build_space(active, 2)
        nv = len(np.unique(active.tets))
        pairs = set()
        for tet in active.tets:
            for a in range(4):
                for b in range(a + 1, 4):
                    pairs.add((min(tet[a], tet[b]), max(tet[a], tet[b])))
        assert space.global_dofs == nv + len(pairs)

    def test_determinism(self, active):
        a = build_space(active, 2)
        b = build_space(active, 2)
        npt.assert_array_equal(a.cell_dofs, b.cell_dofs)
        assert a.global_dofs == b.global_dofs

    def test_p2_edge_dofs_ordered_by_sorted_endpoints(self, active):
        space = build_space(active, 2)
        n_vertex_dofs = len(np.unique(active.tets))
        pair_of = {}
        for tet, dofs in zip(active.tets, space.cell_dofs):
            for k, (a, b) in enumerate(TET_EDGES):
                pair = (min(tet[a], tet[b]), max(tet[a], tet[b]))
                assert pair_of.setdefault(int(dofs[4 + k]), pair) == pair
        pairs = [pair_of[d] for d in range(n_vertex_dofs, space.global_dofs)]
        assert all(p < q for p, q in zip(pairs, pairs[1:]))
        vertices = active.vertices
        midpoints = [0.5 * (vertices[a] + vertices[b]) for a, b in pairs]
        npt.assert_array_equal(dof_coords(space)[n_vertex_dofs:], midpoints)

    def test_invalid_order(self, active):
        with pytest.raises(FESpaceError):
            build_space(active, 3)

    def test_all_dofs_used(self, active):
        for order in (1, 2):
            space = build_space(active, order)
            assert set(np.unique(space.cell_dofs)) == set(range(space.global_dofs))


class TestEvalBasis:
    """Basis values and gradients through `tabulate` at barycentrics."""

    def test_p1_kronecker_at_vertices(self, active):
        space = build_space(active, 1)
        values, _ = tabulate(space, np.full(4, 5), np.eye(4))
        npt.assert_allclose(values, np.eye(4), atol=1e-12)

    def test_partition_of_unity(self, active):
        rng = np.random.default_rng(0)
        tets = rng.integers(0, len(active), size=20)
        lam = rng.dirichlet(np.ones(4), size=20)
        for order in (1, 2):
            space = build_space(active, order)
            values, grads = tabulate(space, tets, lam)
            npt.assert_allclose(values.sum(axis=1), 1.0, atol=1e-12)
            npt.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-11)

    def test_p1_gradients_are_barycentric_gradients(self, active):
        space = build_space(active, 1)
        _, grads = tabulate(space, [7], [[0.1, 0.2, 0.3, 0.4]])
        verts = active.tet_vertices[7]
        # grad(lam_i) . (v_j - v_0) = delta_ij - delta_i0
        expected = np.eye(4)
        expected[0] -= 1.0
        npt.assert_allclose(grads[0] @ (verts - verts[0]).T, expected, atol=1e-12)

    def test_p2_vertex_functions_vanish_at_midpoints(self, active):
        space = build_space(active, 2)
        values, _ = tabulate(space, [3], [[0.5, 0.5, 0.0, 0.0]])
        npt.assert_allclose(values[0, :4], [0, 0, 0, 0], atol=1e-12)


class TestCoefficientsFirst:
    """`evaluate` and `evaluate_gradient` contract the coefficients without a
    basis table; they match `tabulate` contracted with the same coefficients."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("components", [(), (3,)], ids=["scalar", "vector"])
    def test_matches_tabulate(self, active, order, components):
        rng = np.random.default_rng(7)
        space = build_space(active, order)
        tets = rng.integers(0, len(active), size=200)
        lam = rng.dirichlet(np.ones(4), size=200)
        coeffs = rng.standard_normal(components + (space.global_dofs,))
        values, grads = tabulate(space, tets, lam)
        local = coeffs[..., space.cell_dofs[tets]]
        expected = np.einsum("nb,...nb->n...", values, local)
        expected_grad = np.einsum("nbx,...nb->n...x", grads, local)
        got = fe_space.evaluate(space, coeffs, tets, lam)
        got_grad = fe_space.evaluate_gradient(space, coeffs, tets, lam)
        assert got.shape == expected.shape and got_grad.shape == expected_grad.shape
        npt.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
        scale = np.abs(expected_grad).max()
        npt.assert_allclose(got_grad, expected_grad, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("components", [(), (3,)], ids=["scalar", "vector"])
    def test_broadcast_matches_flat(self, active, order, components):
        # (t, 1) tets at (m, 4) points, or at (t, m, 4) points of each tet's
        # own, each tet's data gathered once: bit for bit the flat call on
        # every (tet, point) pair, for the evaluators and the basis tables
        rng = np.random.default_rng(8)
        space = build_space(active, order)
        tets = rng.integers(0, len(active), size=50)
        lam = rng.dirichlet(np.ones(4), size=7)
        coeffs = rng.standard_normal(components + (space.global_dofs,))
        own = rng.dirichlet(np.ones(4), size=(50, 7))
        for points in (lam, own):
            flat = (np.repeat(tets, 7), np.broadcast_to(points, (50, 7, 4)).reshape(-1, 4))
            for evaluator in (fe_space.evaluate, fe_space.evaluate_gradient):
                expected = evaluator(space, coeffs, *flat)
                got = evaluator(space, coeffs, tets[:, None], points)
                assert got.shape == (50, 7) + expected.shape[1:]
                npt.assert_array_equal(got.reshape(expected.shape), expected)
            values, grads = tabulate(space, *flat)
            got_values, got_grads = tabulate(space, tets[:, None], points)
            nb = values.shape[1]
            assert got_grads.shape == (50, 7, nb, 3)
            npt.assert_array_equal(got_grads.reshape(grads.shape), grads)
            # the values depend on the points only, and keep their shape
            assert got_values.shape == points.shape[:-1] + (nb,)
            got_values = np.broadcast_to(got_values, (50, 7, nb))
            npt.assert_array_equal(got_values.reshape(values.shape), values)


class TestContinuity:
    def test_shared_facets_agree(self, active):
        rng = np.random.default_rng(1)
        faces = {}
        for pos, tet in enumerate(active.tets):
            for skip in range(4):
                face = tuple(sorted(np.delete(tet, skip)))
                faces.setdefault(face, []).append(pos)
        interior = [f for f, tets in faces.items() if len(tets) == 2]
        picks = rng.choice(len(interior), size=min(50, len(interior)), replace=False)
        for order in (1, 2):
            space = build_space(active, order)
            coeffs = rng.standard_normal(space.global_dofs)
            for pick in picks:
                face = interior[pick]
                t1, t2 = faces[face]
                lam = rng.dirichlet(np.ones(3), size=5)
                values = []
                for tet in (t1, t2):
                    # the face's barycentrics in the tet, 0 at its other vertex
                    lam4 = np.zeros((5, 4))
                    lam4[:, [list(active.tets[tet]).index(v) for v in face]] = lam
                    values.append(fe_space.evaluate(space, coeffs, np.full(5, tet), lam4))
                npt.assert_allclose(values[0], values[1], atol=1e-10)


class TestInterpolate:
    def test_p1_reproduces_linears(self, active):
        space = build_space(active, 1)
        field = lambda p: 3.0 * p[:, 0] - 2.0 * p[:, 2]
        coeffs = interpolate(space, field)
        rng = np.random.default_rng(2)
        tets = rng.integers(0, len(active), size=100)
        lam = rng.dirichlet(np.ones(4), size=100)
        pts = np.einsum("nl,nlx->nx", lam, active.tet_vertices[tets])
        values = fe_space.evaluate(space, coeffs, tets, lam)
        npt.assert_allclose(values, field(pts), atol=1e-12)

    def test_p2_reproduces_quadratics(self, active):
        space = build_space(active, 2)
        field = lambda p: p[:, 0] ** 2 + p[:, 1] * p[:, 2]
        coeffs = interpolate(space, field)
        rng = np.random.default_rng(3)
        tets = rng.integers(0, len(active), size=100)
        lam = rng.dirichlet(np.ones(4), size=100)
        pts = np.einsum("nl,nlx->nx", lam, active.tet_vertices[tets])
        values = fe_space.evaluate(space, coeffs, tets, lam)
        npt.assert_allclose(values, field(pts), atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_field_called_once_on_the_dofs(self, active, torus, order):
        space = build_space(active, order)
        calls = []

        def field(points):
            calls.append(points.copy())
            return torus.signed_distance(points)

        coeffs = fe_space.interpolate(space, field)
        assert len(calls) == 1
        npt.assert_array_equal(calls[0], dof_coords(space))
        npt.assert_array_equal(coeffs, torus.signed_distance(dof_coords(space)))

    def test_interpolation_rate_of_extended_pressure(self, torus):
        # nodal interpolation of the extended exact pressure converges at
        # second order in the surface L2 norm for P1
        exact = ManufacturedSolution()
        mesh = build_background()
        errors = []
        hs = []
        for level in range(3):
            if level:
                mesh = refine_uniform(mesh)
            act = extract_active(mesh, torus.signed_distance(mesh.vertices))
            space = build_space(act, 1)
            coeffs = interpolate(space, lambda p: torus.extend_vector(exact.pressure, p))
            ds = with_quadrature(build_surface(act, torus, 1), 6)
            vals = fe_space.evaluate(space, coeffs, ds.cell_active[:, None], ds.qp_lambdas)
            p_e = torus.extend_vector(exact.pressure, ds.points)
            err = np.sqrt(ds.weights @ (vals.reshape(-1) - p_e) ** 2)
            errors.append(err)
            hs.append(mesh.h)
        order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert abs(order - 2.0) <= 0.3
