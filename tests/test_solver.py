import gc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.linalg as spla

import surfdarcy.solver as solver_mod
from surfdarcy.assembly import Stabilization, assemble, stabilize
from surfdarcy.cut_surface import build_surface, surface_mean
from surfdarcy.fe_space import build_space, evaluate
from surfdarcy.geometry import Torus
from surfdarcy.mesh import DEFAULT_BOX, build_background, extract_active, refine_uniform
from surfdarcy.solver import Factorization, estimate_condition, solve
from surfdarcy.verification import ManufacturedSolution, case_config, run_level


@pytest.fixture(scope="module")
def level1_system():
    torus = Torus()
    mesh = refine_uniform(build_background())
    active = extract_active(mesh, torus.signed_distance(mesh.vertices))
    ds = build_surface(active, torus, k_g=1)
    spaces = (build_space(active, 1), build_space(active, 1))
    exact = ManufacturedSolution()
    surface_form = assemble(spaces, ds, (exact.f_field, exact.g_field))
    full = Stabilization.FULL_GRADIENT
    return stabilize(surface_form, spaces, ds, full, 0.1, 2.0), ds, spaces[1]


@pytest.fixture(scope="module", params=[1, 6], ids=["case1", "case6"])
def level0_system(request):
    config = case_config(request.param)
    mesh = build_background(DEFAULT_BOX, config.n_cells0)
    return run_level(config, mesh, ManufacturedSolution())["system"]


def zero_first_row(system):
    """The system with row 0 of A_u and of G_x zeroed: the first row of the
    matrix is then zero, and A_u, shared by the three velocity components,
    is singular."""

    def zeroed(block):
        block = block.tolil()
        block[0, :] = 0.0
        return block.tocsr()

    return replace(system, a_u=zeroed(system.a_u), g=(zeroed(system.g[0]), *system.g[1:]))


class TestSolve:
    def test_manufactured_consistency(self, level1_system):
        system, _, _ = level1_system
        rng = np.random.default_rng(0)
        x_star = rng.standard_normal(system.matrix.shape[0])
        b_star = system.matrix @ x_star
        shadow = replace(system, rhs=b_star)
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
        vals = evaluate(pspace, sol.p_coeffs, ds.cell_active[:, None], ds.qp_lambdas)
        assert abs(surface_mean(ds, vals.reshape(-1))) < 1e-9

    def test_singular_raises(self, level1_system):
        # a zero velocity row makes the A_u block of the preconditioner singular
        system, _, _ = level1_system
        with pytest.raises(solver_mod.SingularSystemError, match="exactly singular"):
            solve(zero_first_row(system))

    def test_block_gmres_matches_factor(self, level0_system):
        system = level0_system
        gmres = solve(system)
        direct = Factorization(system).solution()
        assert 0 < gmres.iterations <= 20 and direct.iterations == 0
        # GMRES stops on the residual of the assembled system, the one reported
        assert gmres.residual_norm <= 1e-12 * np.linalg.norm(system.rhs)
        npt.assert_allclose(gmres.u_coeffs, direct.u_coeffs, rtol=0, atol=1e-10)
        npt.assert_allclose(gmres.p_coeffs, direct.p_coeffs, rtol=0, atol=1e-10)
        assert gmres.multiplier == pytest.approx(direct.multiplier, abs=1e-10)

    def test_block_path_factors_the_two_diagonal_blocks(self, level0_system, splu_calls):
        system = level0_system
        solve(system)
        n_u, n_p = system.n_u, system.n_p
        settings = TestSymmetricMode.SETTINGS
        assert splu_calls == [((n_u, n_u), settings), ((n_p, n_p), settings)]

    @pytest.mark.parametrize("case", [1, 6])
    def test_solve_reads_the_block_grid(self, case):
        """A solve neither stacks the bordered matrix nor copies the
        couplings: the preconditioner multiplies by the system's own G."""
        config = case_config(case, n_cells0=8)
        mesh = build_background(DEFAULT_BOX, config.n_cells0)
        system = run_level(config, mesh, ManufacturedSolution())["system"]
        solve(system)
        assert "matrix" not in vars(system)
        inner = solver_mod._BorderedOperator(system, solver_mod._BlockTriangle).inner
        for c in range(3):
            assert inner.coupling[c] is system.g[c]

    def test_solves_end_within_one_restart_cycle(self, level0_system):
        # a solve that ends before GMRES's first restart does not depend on
        # the basis size: the basis holds RESTART + 1 vectors
        assert 0 < solve(level0_system).iterations < solver_mod.RESTART

    def test_unconverged_gmres_raises(self, level0_system, monkeypatch):
        monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 1)
        with pytest.raises(solver_mod.ConvergenceError, match="1 iterations"):
            solve(level0_system)

    def test_one_factorization_serves_solve_and_estimate(self, level1_system, splu_calls):
        system, _, _ = level1_system
        separate = (
            Factorization(system).solution(),
            estimate_condition(Factorization(system), seed=3),
        )
        splu_calls.clear()
        lu = Factorization(system)
        shared = (solve(lu), estimate_condition(lu, seed=3))
        assert len(splu_calls) == 1
        npt.assert_array_equal(shared[0].p_coeffs, separate[0].p_coeffs)
        assert shared[1] == separate[1]

    def test_solves_leave_no_reference_cycles(self):
        # a cycle through a solver object would keep its factors alive until
        # the cyclic collector runs, past the solve that needed them
        config = case_config(6, n_cells0=8)
        mesh = build_background(DEFAULT_BOX, config.n_cells0)
        system = run_level(config, mesh, ManufacturedSolution())["system"]
        gc.collect()
        gc.disable()
        try:
            solve(system)
            lu = Factorization(system)
            solve(lu)
            estimate_condition(lu)
            del lu
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSymmetricMode:
    SETTINGS = {
        "permc_spec": "MMD_AT_PLUS_A",
        "diag_pivot_thresh": 0,
        "options": {"SymmetricMode": True},
    }

    def test_grounded_block_is_factored_in_symmetric_mode(self, level1_system, splu_calls):
        system, _, _ = level1_system
        Factorization(system)
        n = system.total - 1
        assert splu_calls == [((n, n), self.SETTINGS)]

    def test_matches_pivoting_factor(self, level0_system, monkeypatch):
        system = level0_system
        sym = solve(system)
        assert sym.residual_norm < 1e-12 * np.linalg.norm(system.rhs)
        monkeypatch.setattr(solver_mod, "_splu", lambda m: spla.splu(m.tocsc()))
        piv = solve(system)
        npt.assert_allclose(sym.u_coeffs, piv.u_coeffs, rtol=0, atol=1e-10)
        npt.assert_allclose(sym.p_coeffs, piv.p_coeffs, rtol=0, atol=1e-10)
        assert sym.multiplier == pytest.approx(piv.multiplier, abs=1e-10)

    def test_singular_grounded_block_raises(self, level1_system):
        system, _, _ = level1_system
        with pytest.raises(solver_mod.SingularSystemError, match="exactly singular"):
            Factorization(zero_first_row(system))


class TestEstimateCondition:
    def test_bordered_system(self, level1_system):
        system, _, _ = level1_system
        cond = estimate_condition(Factorization(system))
        assert np.isfinite(cond) and cond > 1.0

    def test_matches_dense_condition_number(self):
        # a level-0 case-1 system on an 8-cell grid: 1,133 unknowns
        config = case_config(1, n_cells0=8)
        mesh = build_background(DEFAULT_BOX, config.n_cells0)
        system = run_level(config, mesh, ManufacturedSolution())["system"]
        assert system.total == 1133
        kappa = np.linalg.cond(system.matrix.toarray())
        estimate = estimate_condition(Factorization(system))
        assert 0.95 * kappa <= estimate <= kappa * (1 + 1e-9)
