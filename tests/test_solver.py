import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import surfdarcy.solver as solver_mod
from surfdarcy.assembly import (
    AssembledSystem,
    AssemblyParams,
    Stabilization,
    SystemLayout,
    assemble,
)
from surfdarcy.cut_surface import build_surface, surface_mean
from surfdarcy.fe_space import build_space, evaluate
from surfdarcy.geometry import Torus
from surfdarcy.mesh import build_background, extract_active, refine_uniform
from surfdarcy.solver import estimate_condition, factorize, solve
from surfdarcy.verification import ManufacturedSolution


def _raw_system(matrix, rhs, n_u=1, n_p=0):
    matrix = sp.csr_matrix(matrix)
    return AssembledSystem(
        matrix=matrix,
        rhs=np.asarray(rhs, dtype=float),
        layout=SystemLayout(n_u=n_u, n_p=n_p),
        params=AssemblyParams(),
        h=1.0,
        k_g=1,
    )


@pytest.fixture(scope="module")
def level1_system():
    torus = Torus()
    mesh = refine_uniform(build_background())
    active = extract_active(mesh, torus.signed_distance(mesh.vertices))
    ds = build_surface(active, torus, k_g=1, quad_degree=4)
    vspace = build_space(active, 1)
    pspace = build_space(active, 1)
    exact = ManufacturedSolution()
    system = assemble(
        (vspace, pspace), ds, active, torus, (exact.f_field, exact.g_field),
        AssemblyParams(),
    )
    return system, ds, pspace


class TestSolve:
    def test_identity(self):
        system = _raw_system(sp.eye(4), [1.0, 0.0, 0.0, 0.0])
        sol = solve(system)
        assert sol.u_coeffs[0, 0] == pytest.approx(1.0)
        assert sol.residual_norm < 1e-14

    def test_manufactured_consistency(self, level1_system):
        system, _, _ = level1_system
        rng = np.random.default_rng(0)
        x_star = rng.standard_normal(system.matrix.shape[0])
        b_star = system.matrix @ x_star
        shadow = AssembledSystem(
            matrix=system.matrix,
            rhs=b_star,
            layout=system.layout,
            params=system.params,
            h=system.h,
            k_g=system.k_g,
            dof_coords=system.dof_coords,
        )
        sol = solve(shadow)
        recovered = np.concatenate(
            [sol.u_coeffs.ravel(), sol.p_coeffs, [sol.multiplier]]
        )
        npt.assert_allclose(recovered, x_star, rtol=0, atol=1e-9 * np.abs(x_star).max())

    def test_torus_solve_contract(self, level1_system):
        system, ds, pspace = level1_system
        sol = solve(system)
        assert sol.residual_norm <= 1e-9 * np.linalg.norm(system.rhs)
        # constraint satisfied: discrete pressure has zero surface mean
        vals = evaluate(pspace, sol.p_coeffs, ds.point_active, ds.points)
        assert abs(surface_mean(ds, vals)) < 1e-9

    def test_nonsquare_raises(self):
        matrix = sp.csr_matrix(np.ones((3, 4)))
        system = AssembledSystem(
            matrix=matrix,
            rhs=np.ones(3),
            layout=SystemLayout(n_u=1, n_p=0),
            params=AssemblyParams(),
            h=1.0,
            k_g=1,
        )
        with pytest.raises(ValueError):
            solve(system)

    def test_singular_raises(self):
        matrix = sp.csr_matrix(np.zeros((4, 4)))
        with pytest.raises(solver_mod.SingularSystemError):
            solve(_raw_system(matrix, np.ones(4)))

    def test_nested_path_matches_direct(self, level1_system, monkeypatch):
        system, _, _ = level1_system
        direct = solve(system)
        monkeypatch.setattr(solver_mod, "NESTED_THRESHOLD", 1000)
        nested = solve(system)
        assert nested.residual_norm <= 1e-9 * np.linalg.norm(system.rhs)
        npt.assert_allclose(nested.p_coeffs, direct.p_coeffs, atol=1e-10)
        npt.assert_allclose(nested.u_coeffs, direct.u_coeffs, atol=1e-10)

    def test_one_factorization_serves_solve_and_estimate(self, level1_system, monkeypatch):
        system, _, _ = level1_system
        separate = (solve(system), estimate_condition(system, seed=3))
        calls = []
        splu = solver_mod.spla.splu
        monkeypatch.setattr(
            solver_mod.spla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw)
        )
        lu = factorize(system)
        shared = (solve(lu), estimate_condition(lu, seed=3))
        assert len(calls) == 1
        npt.assert_array_equal(shared[0].p_coeffs, separate[0].p_coeffs)
        assert shared[1] == separate[1]


class TestEstimateCondition:
    def test_diagonal(self):
        cond = estimate_condition(sp.diags([1.0, 10.0]).tocsr())
        assert cond == pytest.approx(10.0, rel=0.01)

    def test_permutation_matrix(self):
        perm = sp.csr_matrix(np.eye(5)[[3, 0, 4, 1, 2]])
        assert estimate_condition(perm) == pytest.approx(1.0, rel=0.01)

    def test_invariant_under_symmetric_permutation(self):
        rng = np.random.default_rng(7)
        n = 120
        a = sp.random(n, n, density=0.05, random_state=7)
        spd = (a @ a.T + 10.0 * sp.eye(n)).tocsr()
        base = estimate_condition(spd)
        perm = rng.permutation(n)
        shuffled = spd[perm][:, perm].tocsr()
        assert estimate_condition(shuffled) == pytest.approx(base, rel=0.05)

    def test_bordered_system(self, level1_system):
        system, _, _ = level1_system
        cond = estimate_condition(system)
        assert np.isfinite(cond) and cond > 1.0
