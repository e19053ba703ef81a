import numpy as np
import numpy.testing as npt
import pytest

from surfdarcy.geometry import GeometryError, Torus, fd_gradient


@pytest.fixture(scope="module")
def torus():
    return Torus()


def _random_tube_points(torus, n, rng, depth=0.35):
    """Random points within |rho| < depth of the torus surface."""
    theta = rng.uniform(0, 2 * np.pi, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    rho = rng.uniform(-depth, depth, n)
    ring = torus.R + (torus.r + rho) * np.cos(theta)
    return np.stack(
        [ring * np.cos(phi), ring * np.sin(phi), (torus.r + rho) * np.sin(theta)],
        axis=1,
    )


class TestSignedDistance:
    def test_outer_equator_point(self, torus):
        assert torus.signed_distance(np.array([[1.5, 0, 0]])) == pytest.approx([0.0], abs=1e-15)

    def test_tube_center_circle(self, torus):
        assert torus.signed_distance(np.array([[1.0, 0, 0]])) == pytest.approx([-0.5])

    def test_outside_outer_equator(self, torus):
        assert torus.signed_distance(np.array([[2.0, 0, 0]])) == pytest.approx([0.5])

    def test_batch_shape(self, torus):
        pts = np.array([[1.5, 0, 0], [2.0, 0, 0]])
        npt.assert_allclose(torus.signed_distance(pts), [0.0, 0.5], atol=1e-15)

    def test_eikonal_property_fd(self, torus):
        rng = np.random.default_rng(7)
        pts = _random_tube_points(torus, 1000, rng)
        grad = fd_gradient(torus.signed_distance, pts)
        npt.assert_allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-8)

    def test_analytic_gradient_is_unit(self, torus):
        rng = np.random.default_rng(8)
        pts = _random_tube_points(torus, 1000, rng)
        norms = np.linalg.norm(torus._gradient(pts), axis=1)
        npt.assert_allclose(norms, 1.0, atol=1e-10)


class TestNormal:
    @pytest.mark.parametrize(
        "point,expected",
        [
            ((1.5, 0, 0), (1, 0, 0)),
            ((1, 0, 0.5), (0, 0, 1)),
            ((0.5, 0, 0), (-1, 0, 0)),
        ],
    )
    def test_known_normals(self, torus, point, expected):
        npt.assert_allclose(torus.surface_normal(np.array([point])), [expected], atol=1e-14)

    def test_constant_along_normal_lines(self, torus):
        rng = np.random.default_rng(9)
        pts = _random_tube_points(torus, 50, rng)
        n_here = torus.surface_normal(pts)
        n_proj = torus.surface_normal(torus.closest_point(pts))
        npt.assert_allclose(n_here, n_proj, atol=1e-12)

    def test_degenerate_gradient_raises(self, torus):
        with pytest.raises(GeometryError):
            torus.surface_normal(np.zeros((1, 3)))


class TestClosestPoint:
    @pytest.mark.parametrize(
        "point,expected",
        [
            ((2, 0, 0), (1.5, 0, 0)),
            ((1.5, 0, 0), (1.5, 0, 0)),
            ((1, 0, 0.2), (1, 0, 0.5)),
        ],
    )
    def test_known_projections(self, torus, point, expected):
        npt.assert_allclose(torus.closest_point(np.array([point])), [expected], atol=1e-14)

    def test_projection_properties(self, torus):
        rng = np.random.default_rng(10)
        pts = _random_tube_points(torus, 200, rng)
        proj = torus.closest_point(pts)
        # projected points are on the surface
        npt.assert_allclose(torus.signed_distance(proj), 0.0, atol=1e-12)
        # the projection distance matches |rho|
        npt.assert_allclose(
            np.linalg.norm(proj - pts, axis=1),
            np.abs(torus.signed_distance(pts)),
            atol=1e-12,
        )

    def test_idempotence(self, torus):
        rng = np.random.default_rng(11)
        pts = _random_tube_points(torus, 200, rng)
        proj = torus.closest_point(pts)
        npt.assert_allclose(torus.closest_point(proj), proj, atol=1e-12)

    def test_degenerate_core_circle_raises(self, torus):
        with pytest.raises(GeometryError, match="projection not unique"):
            torus.closest_point(np.array([[1.0, 0.0, 0.0]]))


class TestExtension:
    def test_extends_z_coordinate(self, torus):
        val = torus.extend_vector(lambda p: p[:, 2], np.array([[1, 0, 0.2]]))
        assert val == pytest.approx([0.5], abs=1e-14)

    def test_constant_field(self, torus):
        rng = np.random.default_rng(15)
        pts = _random_tube_points(torus, 40, rng)
        npt.assert_allclose(torus.extend_vector(lambda p: np.full(len(p), 3.25), pts), 3.25)

    def test_normal_constancy(self, torus):
        rng = np.random.default_rng(16)
        pts = _random_tube_points(torus, 40, rng, depth=0.2)
        f = lambda p: p[:, 0] * p[:, 2] ** 2
        n = torus.surface_normal(torus.closest_point(pts))
        shifted = pts + 0.01 * n
        npt.assert_allclose(
            torus.extend_vector(f, pts), torus.extend_vector(f, shifted), atol=1e-12
        )

    def test_gradient_of_extension_is_tangential_on_surface(self, torus):
        # extension of p = z has a purely tangential gradient on the surface
        rng = np.random.default_rng(17)
        pts = torus.closest_point(_random_tube_points(torus, 50, rng))
        ext = lambda q: torus.extend_vector(lambda p: p[:, 2], q)
        grad = fd_gradient(ext, pts)
        n = torus.surface_normal(pts)
        proj = grad - np.einsum("nx,nx->n", grad, n)[:, None] * n
        npt.assert_allclose(grad, proj, atol=1e-6)


class TestSurfaceDivergence:
    def test_constant_field_divergence_free(self, torus):
        rng = np.random.default_rng(18)
        pts = torus.closest_point(_random_tube_points(torus, 20, rng))
        div = torus.surface_divergence_fd(
            lambda p: np.tile([0.3, -1.2, 0.7], (len(p), 1)), pts
        )
        npt.assert_allclose(div, 0.0, atol=1e-6)

    def test_normal_field_gives_mean_curvature(self, torus):
        div = torus.surface_divergence_fd(torus.surface_normal, np.array([[1.5, 0, 0]]))
        assert div == pytest.approx([8.0 / 3.0], abs=1e-4)

    def test_requires_surface_point(self, torus):
        with pytest.raises(GeometryError):
            torus.surface_divergence_fd(torus.surface_normal, np.array([[1.6, 0, 0]]))


class TestTranslated:
    def test_all_quantities_shift(self, torus):
        # a torus moved by its center: every quantity at x is the centered
        # torus's at x - center, the projection moved back by the center
        offset = (0.12, -0.34, 0.21)
        moved = Torus(center=offset)
        rng = np.random.default_rng(19)
        pts = _random_tube_points(torus, 60, rng)
        shifted = pts + np.asarray(offset)
        npt.assert_allclose(
            moved.signed_distance(shifted), torus.signed_distance(pts), atol=1e-14
        )
        npt.assert_allclose(
            moved.surface_normal(shifted), torus.surface_normal(pts), atol=1e-14
        )
        npt.assert_allclose(
            moved.closest_point(shifted),
            torus.closest_point(pts) + np.asarray(offset),
            atol=1e-14,
        )


class TestValidation:
    def test_torus_radii_invariant(self):
        with pytest.raises(GeometryError):
            Torus(R=0.5, r=1.0)
