import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from surfdarcy.assembly import (
    AssemblyError,
    Stabilization,
    assemble,
    assemble_bulk_mass,
    assemble_stabilization,
    assemble_surface_mass,
    assemble_surface_stiffness,
    stabilize,
    surface_load_vector,
)
from surfdarcy.cut_surface import build_surface, surface_mean
from surfdarcy.fe_space import build_space
from surfdarcy.geometry import ImplicitSurface, Torus
from surfdarcy.mesh import (
    DEFAULT_BOX,
    ActiveMesh,
    build_background,
    extract_active,
    refine_uniform,
)
from surfdarcy.quadrature import tet_rule
from surfdarcy.verification import ManufacturedSolution, case_config

from oracle import interpolant_gradient, oracle_assemble, shape_tet, tet_nodes


class PlaneSurface(ImplicitSurface):
    """Exact signed distance of the plane z = z0 (normal +e_z)."""

    def __init__(self, z0):
        self.z0 = z0

    def _distance(self, pts):
        return pts[:, 2] - self.z0

    def _gradient(self, pts):
        out = np.zeros_like(pts)
        out[:, 2] = 1.0
        return out

    def _closest(self, pts):
        out = pts.copy()
        out[:, 2] = self.z0
        return out


class SphereSurface(ImplicitSurface):
    """Exact signed distance of a sphere (used to cut two corner tets)."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def _distance(self, pts):
        return np.linalg.norm(pts - self.center, axis=1) - self.radius

    def _gradient(self, pts):
        d = pts - self.center
        return d / np.linalg.norm(d, axis=1)[:, None]

    def _closest(self, pts):
        d = pts - self.center
        return self.center + self.radius * d / np.linalg.norm(d, axis=1)[:, None]


def _const_data(f0=2.5, g0=(0.3, -1.1, 0.7)):
    f = lambda p: np.full(len(np.atleast_2d(p)), f0)
    g = lambda p: np.tile(g0, (len(np.atleast_2d(p)), 1))
    return f, g


def _single_tet_setup():
    """One active tet of the unit cube, cut by a plane: one triangle."""
    mesh = build_background(((0.0, 1.0),) * 3, 1)
    surface = PlaneSurface(0.35)
    phi = surface.signed_distance(mesh.vertices)
    positive = phi >= 0
    counts = positive[mesh.tets].sum(axis=1)
    cut = np.flatnonzero((counts > 0) & (counts < 4))
    active = ActiveMesh.of(mesh, cut[:1])
    ds = build_surface(active, surface, k_g=1)
    assert ds.n_cells >= 1
    return active, surface, ds


def _two_tet_setup():
    """Sphere around a cube corner that only two Kuhn tets contain."""
    mesh = build_background(((0.0, 1.0),) * 3, 1)
    surface = SphereSurface((1.0, 0.0, 0.0), 0.3)
    active = extract_active(mesh, surface.signed_distance(mesh.vertices))
    assert len(active) == 2
    ds = build_surface(active, surface, k_g=1)
    return active, surface, ds


@pytest.mark.parametrize("orders", [(1, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("kind", [Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT])
def test_single_element_matches_oracle(orders, kind):
    active, surface, ds = _single_tet_setup()
    vspace = build_space(active, orders[0])
    pspace = build_space(active, orders[1])
    data = _const_data()
    spaces = (vspace, pspace)
    system = stabilize(assemble(spaces, ds, data), spaces, ds, kind, 0.1, 2.0)
    dense, rhs = oracle_assemble(vspace, pspace, ds, data, kind.value, 0.1, 2.0)
    npt.assert_allclose(system.matrix.toarray(), dense, atol=1e-12)
    npt.assert_allclose(system.rhs, rhs, atol=1e-12)


@pytest.mark.parametrize("orders", [(1, 1), (1, 2)])
@pytest.mark.parametrize("kind", [Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT])
def test_two_tets_match_oracle(orders, kind):
    active, surface, ds = _two_tet_setup()
    vspace = build_space(active, orders[0])
    pspace = build_space(active, orders[1])
    data = _const_data()
    spaces = (vspace, pspace)
    system = stabilize(assemble(spaces, ds, data), spaces, ds, kind, 0.2, 1.5)
    dense, rhs = oracle_assemble(vspace, pspace, ds, data, kind.value, 0.2, 1.5)
    npt.assert_allclose(system.matrix.toarray(), dense, atol=1e-12)
    npt.assert_allclose(system.rhs, rhs, atol=1e-12)


def _u_slice(system, component):
    """The unknowns of one velocity component."""
    return slice(component * system.n_u, (component + 1) * system.n_u)


class TestLayout:
    def test_dimensions(self):
        # P1 velocity and P2 pressure, so that n_u and n_p differ
        active, _, ds = _two_tet_setup()
        spaces = (build_space(active, 1), build_space(active, 2))
        system = assemble(spaces, ds, _const_data())
        n_u, n_p = (space.global_dofs for space in spaces)
        assert (system.n_u, system.n_p) == (n_u, n_p) and n_u != n_p
        assert system.total == 3 * n_u + n_p + 1 == len(system.rhs) == system.matrix.shape[0]
        assert system.p_slice == slice(3 * n_u, 3 * n_u + n_p)


@pytest.fixture(scope="module")
def torus_level1():
    torus = Torus()
    mesh = refine_uniform(build_background())
    active = extract_active(mesh, torus.signed_distance(mesh.vertices))
    ds = build_surface(active, torus, k_g=1)
    return torus, active, ds


@pytest.fixture(scope="module")
def assembled_level1(torus_level1):
    torus, active, ds = torus_level1
    exact = ManufacturedSolution()
    vspace = build_space(active, 1)
    pspace = build_space(active, 1)
    spaces = (vspace, pspace)
    surface_form = assemble(spaces, ds, (exact.f_field, exact.g_field))
    full = Stabilization.FULL_GRADIENT
    return stabilize(surface_form, spaces, ds, full, 0.1, 2.0), vspace, pspace


class TestAssembledStructure:
    def test_dimension(self, assembled_level1):
        system, vspace, pspace = assembled_level1
        assert system.matrix.shape[0] == 3 * vspace.global_dofs + pspace.global_dofs + 1

    def test_no_empty_rows_or_columns(self, assembled_level1):
        system, _, _ = assembled_level1
        mat = system.matrix.tocsr()
        assert np.all(np.diff(mat.indptr) > 0)
        assert np.all(np.diff(mat.tocsc().indptr) > 0)

    def test_skew_blocks_exact(self, assembled_level1):
        system, _, _ = assembled_level1
        p_slice = system.p_slice
        mat = system.matrix
        for c in range(3):
            up = mat[_u_slice(system, c), p_slice]
            down = mat[p_slice, _u_slice(system, c)]
            diff = (up + down.T).toarray()
            assert np.abs(diff).max() == 0.0
        # the multiplier row and column are one border vector, bit for bit
        m = system.total - 1
        npt.assert_array_equal(mat[m, :].toarray().ravel(), mat[:, m].toarray().ravel())

    def test_stored_pattern(self, assembled_level1, torus_level1):
        """The stabilized matrix stores every (u, p) pair of a surface cell in
        the coupling blocks, zeros included, and no zero in the diagonal
        blocks.  SuperLU's minimum-degree ordering reads the stored pattern,
        so the factor fill depends on it: dropping the coupling zeros, or
        keeping zeros where the surface form and the stabilization both
        vanish, changes the fill at unchanged values."""
        system, vspace, pspace = assembled_level1
        _, _, ds = torus_level1
        p_slice = system.p_slice
        mat = system.matrix
        udofs = vspace.cell_dofs[ds.cell_active]
        pdofs = pspace.cell_dofs[ds.cell_active]
        pairs = np.broadcast_arrays(udofs[:, :, None], pdofs[:, None, :])
        cell_pairs = sp.csr_matrix(
            (np.ones(pairs[0].size), (pairs[0].ravel(), pairs[1].ravel())),
            shape=(system.n_u, system.n_p),
        )
        zeros = 0
        for c in range(3):
            u_c = _u_slice(system, c)
            for block in (mat[u_c, p_slice], mat[p_slice, u_c].T):
                block = block.tocsr()
                block.sort_indices()
                npt.assert_array_equal(block.indptr, cell_pairs.indptr)
                npt.assert_array_equal(block.indices, cell_pairs.indices)
                zeros += int(np.sum(block.data == 0.0))
            assert np.all(mat[u_c, u_c].data != 0.0)
        assert zeros > 0, "the coupling blocks hold stored zeros"
        assert np.all(mat[p_slice, p_slice].data != 0.0)

    def test_symmetric_part_positive_definite(self, assembled_level1, torus_level1):
        system, vspace, pspace = assembled_level1
        _, _, ds = torus_level1
        sym = 0.5 * (system.matrix + system.matrix.T)
        load = surface_load_vector(pspace, ds)
        area = ds.total_area
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(system.total)
            x[-1] = 0.0
            p = x[system.p_slice]
            p -= (load @ p) / area  # orthogonalize against the constant
            assert x @ (sym @ x) > 0.0

    def test_rhs_constant_pressure_zero_for_manufactured(self, assembled_level1):
        system, vspace, pspace = assembled_level1
        e_const = np.zeros(system.total)
        e_const[system.p_slice] = 1.0
        assert abs(system.rhs @ e_const) < 1e-10

    def test_mismatched_mesh_raises(self, torus_level1):
        torus, active, ds = torus_level1
        other = extract_active(
            refine_uniform(refine_uniform(build_background())),
            torus.signed_distance(
                refine_uniform(refine_uniform(build_background())).vertices
            ),
        )
        vspace = build_space(other, 1)
        pspace = build_space(other, 1)
        exact = ManufacturedSolution()
        with pytest.raises(AssemblyError):
            assemble((vspace, pspace), ds, (exact.f_field, exact.g_field))
        with pytest.raises(AssemblyError):
            assemble_stabilization(vspace, ds, Stabilization.FULL_GRADIENT, 0.1, 2.0)

    def test_nonpositive_tau_raises(self, torus_level1):
        torus, active, ds = torus_level1
        vspace = build_space(active, 1)
        with pytest.raises(AssemblyError):
            assemble_stabilization(
                vspace, ds, Stabilization.FULL_GRADIENT, tau=0.0, alpha=2.0
            )

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_raises(self, tau, torus_level1):
        torus, active, ds = torus_level1
        vspace = build_space(active, 1)
        with pytest.raises(AssemblyError, match="finite"):
            assemble_stabilization(vspace, ds, Stabilization.FULL_GRADIENT, tau, 2.0)


class TestStabilization:
    def test_constant_in_kernel(self, torus_level1):
        torus, active, ds = torus_level1
        space = build_space(active, 1)
        ones = np.ones(space.global_dofs)
        for kind in Stabilization:
            stab = assemble_stabilization(space, ds, kind, 0.1, 2.0)
            assert abs(ones @ (stab @ ones)) < 1e-12

    def test_normal_bounded_by_full(self, torus_level1):
        torus, active, ds = torus_level1
        space = build_space(active, 1)
        full = assemble_stabilization(space, ds, Stabilization.FULL_GRADIENT, 0.1, 2.0)
        normal = assemble_stabilization(space, ds, Stabilization.NORMAL_GRADIENT, 0.1, 2.0)
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.standard_normal(space.global_dofs)
            assert x @ (normal @ x) <= x @ (full @ x) + 1e-13

    def test_tau_and_h_scaling(self, torus_level1):
        torus, active, ds = torus_level1
        space = build_space(active, 1)
        full = Stabilization.FULL_GRADIENT
        base = assemble_stabilization(space, ds, full, 0.1, 2.0)
        doubled = assemble_stabilization(space, ds, full, 0.2, 2.0)
        npt.assert_allclose(doubled.toarray(), 2.0 * base.toarray(), rtol=1e-14)
        # h^(alpha-1) with h = active.h: one unit more of alpha is one factor h
        lower = assemble_stabilization(space, ds, full, 0.1, 0.5)
        higher = assemble_stabilization(space, ds, full, 0.1, 1.5)
        npt.assert_allclose(higher.toarray(), active.h * lower.toarray(), rtol=1e-13)

    def test_alpha_out_of_range(self, torus_level1):
        torus, active, ds = torus_level1
        space = build_space(active, 1)
        with pytest.raises(AssemblyError):
            assemble_stabilization(space, ds, Stabilization.FULL_GRADIENT, 0.1, 2.5)


class TestHelpers:
    def test_bulk_mass_volume(self, torus_level1):
        torus, active, _ = torus_level1
        space = build_space(active, 1)
        mass = assemble_bulk_mass(space, active)
        ones = np.ones(space.global_dofs)
        edges = active.tet_vertices
        vols = (
            np.abs(
                np.linalg.det(
                    np.stack(
                        [edges[:, i] - edges[:, 0] for i in (1, 2, 3)], axis=1
                    )
                )
            )
            / 6.0
        )
        assert ones @ (mass @ ones) == pytest.approx(vols.sum(), rel=1e-12)

    def test_surface_mass_area(self, torus_level1):
        torus, active, ds = torus_level1
        space = build_space(active, 1)
        mass = assemble_surface_mass(space, ds)
        ones = np.ones(space.global_dofs)
        assert ones @ (mass @ ones) == pytest.approx(ds.total_area, rel=1e-12)

    def test_tangential_stiffness_bounded_by_full(self, torus_level1):
        # the unstabilized pressure block is half the full-gradient stiffness
        torus, active, ds = torus_level1
        space = build_space(active, 1)
        exact = ManufacturedSolution()
        system = assemble((space, space), ds, (exact.f_field, exact.g_field))
        full = 2.0 * system.a_p
        tan = assemble_surface_stiffness(space, ds)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.standard_normal(space.global_dofs)
            assert x @ (tan @ x) <= x @ (full @ x) + 1e-12

    def test_load_vector_is_area_partition(self, torus_level1):
        torus, active, ds = torus_level1
        space = build_space(active, 1)
        load = surface_load_vector(space, ds)
        assert load.sum() == pytest.approx(ds.total_area, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_quadratic_geometry_normal_stabilization_matches_oracle(order):
    # with k_g = 2 the bulk normal grad(phi_h)/|grad(phi_h)| varies inside a
    # tet, so the integrand is not polynomial: the oracle evaluates it
    # directly at the library's own quadrature points
    active, surface, _ = _two_tet_setup()
    ds = build_surface(active, surface, k_g=2)
    space = build_space(active, order)
    tau, alpha = 0.2, 1.5
    stab = assemble_stabilization(space, ds, Stabilization.NORMAL_GRADIENT, tau, alpha)
    bary, w = tet_rule(max(2 * (order - 1), 1))
    dense = np.zeros((space.global_dofs, space.global_dofs))
    scale = tau * active.h ** (alpha - 1.0)
    for tet_verts, dofs in zip(active.tet_vertices, space.cell_dofs):
        vol = abs(np.linalg.det((tet_verts[1:] - tet_verts[0]).T)) / 6.0
        nodal = surface.signed_distance(tet_nodes(tet_verts, 2))
        for lam, wq in zip(bary, w):
            x = lam @ tet_verts
            grad_phi = interpolant_gradient(tet_verts, nodal, 2, x)
            _, grads = shape_tet(tet_verts, order, x)
            comp = grads @ (grad_phi / np.linalg.norm(grad_phi))
            dense[np.ix_(dofs, dofs)] += scale * wq * vol * np.outer(comp, comp)
    npt.assert_allclose(stab.toarray(), dense, atol=1e-12)


def test_assemble_evaluates_no_signed_distance(monkeypatch):
    # phi_h is interpolated once, by build_surface; the normal-gradient
    # stabilization of both spaces reads it from the discrete surface
    config = case_config(6)
    mesh = build_background(DEFAULT_BOX, config.n_cells0)
    exact = ManufacturedSolution()
    active = extract_active(mesh, exact.surface.signed_distance(mesh.vertices))
    ds = build_surface(active, exact.surface, config.k_g)
    spaces = (build_space(active, config.k_u), build_space(active, config.k_p))
    points = []
    signed_distance = ImplicitSurface.signed_distance
    monkeypatch.setattr(
        ImplicitSurface,
        "signed_distance",
        lambda self, x: points.append(len(np.atleast_2d(x))) or signed_distance(self, x),
    )
    surface_form = assemble(spaces, ds, (exact.f_field, exact.g_field))
    stabilize(surface_form, spaces, ds, config.stab, config.tau, config.alpha)
    assert points == []


@pytest.fixture(scope="module", params=[1, 6], ids=["case1", "case6"])
def surface_form_n8(request):
    """The unstabilized system of a case at level 0 of an 8-cell grid, with
    what `stabilize` needs."""
    config = case_config(request.param, n_cells0=8)
    mesh = build_background(DEFAULT_BOX, config.n_cells0)
    exact = ManufacturedSolution()
    active = extract_active(mesh, exact.surface.signed_distance(mesh.vertices))
    ds = build_surface(active, exact.surface, config.k_g)
    spaces = (build_space(active, config.k_u), build_space(active, config.k_p))
    return assemble(spaces, ds, (exact.f_field, exact.g_field)), spaces, ds, config


@pytest.mark.parametrize("kind", list(Stabilization))
def test_matvec_matches_stacked_matrix(surface_form_n8, kind):
    """`matvec` applies the blocks as `matrix` stacks them, and `stabilize`
    changes A_u and A_p only: G, c and the right-hand side are the input's."""
    surface_form, spaces, ds, config = surface_form_n8
    system = stabilize(surface_form, spaces, ds, kind, config.tau, config.alpha)
    assert system.g is surface_form.g
    assert system.c is surface_form.c
    assert system.rhs is surface_form.rhs
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(system.total)
        stacked = system.matrix @ x
        npt.assert_allclose(system.matvec(x), stacked, rtol=0, atol=1e-12 * np.abs(stacked).max())
