"""The Lagrange basis of order 1 and 2 in `shapes`, checked directly: nodal
and partition-of-unity properties, and every derivative against central
differences of the values."""

import numpy as np
import numpy.testing as npt
import pytest

from surfdarcy import shapes

ORDERS = [1, 2]
EPS = 1e-6


@pytest.fixture
def lam_grads():
    """The gradients of the barycentric coordinates (4, 3) of a random
    non-degenerate tet."""
    rng = np.random.default_rng(3)
    return shapes.barycentric_gradients(np.eye(4, 3, k=-1) + 0.2 * rng.standard_normal((4, 3)))


def random_lambdas(n_vertices, n=25, seed=5):
    return np.random.default_rng(seed).dirichlet(np.ones(n_vertices), size=n)


@pytest.mark.parametrize("order", ORDERS)
class TestTet:
    def test_partition_of_unity(self, order):
        values = shapes.tet_values(order, random_lambdas(4))
        assert values.shape == (25, 4 if order == 1 else 10)
        npt.assert_allclose(values.sum(axis=-1), 1.0, rtol=0, atol=1e-14)

    def test_kronecker_at_the_nodes(self, order):
        at_nodes = shapes.tet_values(order, shapes.tet_nodes(order))
        npt.assert_allclose(at_nodes, np.eye(len(at_nodes)), rtol=0, atol=1e-15)

    def test_gradients_sum_to_zero(self, order, lam_grads):
        grads = shapes.tet_gradients(order, random_lambdas(4), lam_grads)
        assert grads.shape == (25, 4 if order == 1 else 10, 3)
        npt.assert_allclose(grads.sum(axis=-2), 0.0, rtol=0, atol=1e-12)

    def test_gradients_match_central_differences(self, order, lam_grads):
        # moving x by eps e_k moves the barycentrics by eps grad(lam)_k
        lam = random_lambdas(4)
        grads = shapes.tet_gradients(order, lam, lam_grads)
        for k in range(3):
            step = EPS * lam_grads[:, k]
            diff = shapes.tet_values(order, lam + step) - shapes.tet_values(order, lam - step)
            npt.assert_allclose(grads[..., k], diff / (2 * EPS), rtol=0, atol=1e-8)

    def test_gradients_are_c_ordered(self, order, lam_grads):
        grads = shapes.tet_gradients(order, random_lambdas(4), lam_grads.T.copy().T)
        assert grads.flags.c_contiguous

    def test_dlam_applies_the_barycentric_gradients(self, order, lam_grads):
        lam = random_lambdas(4)
        coeffs = np.random.default_rng(8).standard_normal(4 if order == 1 else 10)
        dlam = shapes.tet_dlam(order, lam, coeffs)
        assert dlam.shape == (25, 4)
        expected = coeffs @ shapes.tet_gradients(order, lam, lam_grads)
        npt.assert_allclose(dlam @ lam_grads, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", ORDERS)
class TestTriangle:
    def test_partition_of_unity(self, order):
        values = shapes.tri_values(order, random_lambdas(3))
        assert values.shape == (25, 3 if order == 1 else 6)
        npt.assert_allclose(values.sum(axis=-1), 1.0, rtol=0, atol=1e-14)

    def test_kronecker_at_the_nodes(self, order):
        at_nodes = shapes.tri_values(order, shapes.tri_nodes(order))
        npt.assert_allclose(at_nodes, np.eye(len(at_nodes)), rtol=0, atol=1e-15)

    def test_dvalues_match_central_differences(self, order):
        lam = random_lambdas(3)
        dvalues = shapes.tri_dvalues(order, lam)
        assert dvalues.shape == (25, 3 if order == 1 else 6, 3)
        for i in range(3):
            step = EPS * np.eye(3)[i]
            diff = shapes.tri_values(order, lam + step) - shapes.tri_values(order, lam - step)
            npt.assert_allclose(dvalues[..., i], diff / (2 * EPS), rtol=0, atol=1e-8)
