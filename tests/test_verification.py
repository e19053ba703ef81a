import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from surfdarcy import fe_space
from surfdarcy.assembly import Stabilization
from surfdarcy.cut_surface import CHUNK_CELLS, build_surface, with_quadrature
from surfdarcy.geometry import ImplicitSurface, Torus, fd_gradient
from surfdarcy.mesh import build_background, extract_active, refine_uniform
from surfdarcy.quadrature import triangle_rule
from surfdarcy.solver import Solution
from surfdarcy.verification import (
    CASE_TABLE,
    CaseConfig,
    ManufacturedSolution,
    case_config,
    compute_eoc,
    compute_errors,
    report_to_csv,
    report_to_markdown,
    run_case,
    run_level,
    solution_values,
    tangency_defect,
)

from oracle import interpolate

TORUS_AREA = 4 * np.pi**2 * 0.5


@pytest.fixture(scope="module")
def exact():
    return ManufacturedSolution()


@pytest.fixture(scope="module")
def level1(exact):
    mesh = refine_uniform(build_background())
    return run_level(case_config(1), mesh, exact)


class TestManufacturedSolution:
    def test_velocity_tangential(self, exact):
        rng = np.random.default_rng(0)
        pts = exact.random_surface_points(100, rng)
        n = exact.surface.surface_normal(pts)
        u = exact.velocity(pts)
        assert np.abs(np.einsum("nx,nx->n", u, n)).max() <= 1e-10

    def test_forcing_tangential(self, exact):
        rng = np.random.default_rng(1)
        pts = exact.random_surface_points(100, rng)
        n = exact.surface.surface_normal(pts)
        g = exact.g_field(pts)
        assert np.abs(np.einsum("nx,nx->n", g, n)).max() <= 1e-10

    def test_momentum_residual(self, exact):
        rng = np.random.default_rng(2)
        pts = exact.random_surface_points(100, rng)
        grad = fd_gradient(lambda q: exact.surface.extend_vector(exact.pressure, q), pts)
        n = exact.surface.surface_normal(pts)
        proj = grad - np.einsum("nx,nx->n", grad, n)[:, None] * n
        residual = exact.velocity(pts) + proj - exact.g_field(pts)
        assert np.abs(residual).max() <= 1e-8

    def test_divergence_free(self, exact):
        rng = np.random.default_rng(3)
        pts = exact.random_surface_points(20, rng)
        div = exact.surface.surface_divergence_fd(exact.velocity, pts)
        assert np.abs(div).max() <= 1e-5

    def test_source_zero(self, exact):
        rng = np.random.default_rng(4)
        pts = exact.random_surface_points(10, rng)
        npt.assert_array_equal(exact.f_field(pts), 0.0)

    def test_point_values(self, exact):
        npt.assert_allclose(exact.velocity([[1.5, 0, 0]]), [[0, 0, -1.5]], atol=1e-14)
        npt.assert_allclose(exact.g_field([[1.5, 0, 0]]), [[0, 0, -0.5]], atol=1e-14)
        pressure = exact.surface.extend_vector(exact.pressure, [[1.0, 0, 0.2]])
        npt.assert_allclose(pressure, [0.5], atol=1e-14)

    def test_g_matches_independent_composition(self, exact):
        # u + P grad(z) must reproduce the closed-form forcing
        rng = np.random.default_rng(5)
        pts = exact.random_surface_points(50, rng)
        combined = exact.velocity(pts) + exact.pressure_surface_gradient(pts)
        npt.assert_allclose(combined, exact.g_field(pts), atol=1e-12)

    def test_translation(self):
        moved = ManufacturedSolution(offset=(0.2, -0.1, 0.05))
        base = ManufacturedSolution()
        rng = np.random.default_rng(6)
        pts = base.random_surface_points(20, rng)
        npt.assert_allclose(
            moved.velocity(pts + [0.2, -0.1, 0.05]), base.velocity(pts), atol=1e-12
        )


class TestComputeErrors:
    def test_zero_solution_gives_exact_norms(self, exact, level1):
        degree = case_config(1).quad_degree_err
        ds_err = with_quadrature(level1["ds"], degree)
        vspace, pspace = level1["spaces"]
        zero = Solution(
            u_coeffs=np.zeros((3, vspace.global_dofs)),
            p_coeffs=np.zeros(pspace.global_dofs),
            multiplier=0.0,
            residual_norm=0.0,
        )
        errors, tangency = compute_errors(zero, (vspace, pspace), level1["ds"], exact, degree)
        assert tangency == 0.0
        # ||z||^2 over the torus: 2 pi^2 R r^3, so ||z|| ~ sqrt(area r^2 / 2);
        # the discrete surface carries an O(h^2) geometric error at level 1
        expected_p = np.sqrt(2 * np.pi**2 * 1.0 * 0.5**3)
        assert errors.p_l2 == pytest.approx(expected_p, rel=1e-2)
        assert errors.p_l2 == pytest.approx(np.sqrt(TORUS_AREA * 0.125), rel=1e-2)
        # velocity error equals ||u_exact|| which is nonzero
        u_e = exact.surface.extend_vector(exact.velocity, ds_err.points)
        u_norm_sq = ds_err.weights @ np.sum(u_e**2, axis=1)
        assert errors.u_l2 == pytest.approx(np.sqrt(u_norm_sq), rel=1e-12)

    def test_interpolant_velocity_rate(self, exact):
        errs = []
        hs = []
        mesh = build_background()
        for level in range(3):
            if level:
                mesh = refine_uniform(mesh)
            out_cfg = case_config(1)
            torus = exact.surface
            active = extract_active(mesh, torus.signed_distance(mesh.vertices))
            ds = build_surface(active, torus, 1, 4)
            vspace = fe_space.build_space(active, 1)
            pspace = fe_space.build_space(active, 1)
            u_coeffs = interpolate(vspace, lambda p: torus.extend_vector(exact.velocity, p)).T
            p_coeffs = interpolate(pspace, lambda p: torus.extend_vector(exact.pressure, p))
            sol = Solution(u_coeffs, p_coeffs, 0.0, 0.0)
            errors, _ = compute_errors(sol, (vspace, pspace), ds, exact, 6)
            errs.append(errors.u_l2)
            hs.append(mesh.h)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(order - 2.0) <= 0.35

    def test_translation_invariance(self, exact):
        mesh = refine_uniform(build_background())
        base = run_level(case_config(1), mesh, ManufacturedSolution())
        offset = (mesh.h, 0.0, 0.0)  # full cell shift keeps the cut pattern
        moved = run_level(
            case_config(1, offset=offset), mesh, ManufacturedSolution(offset=offset)
        )
        for attr in ("u_l2", "p_h1", "p_l2"):
            assert getattr(moved["errors"], attr) == pytest.approx(
                getattr(base["errors"], attr), abs=1e-10
            )


def test_run_level_logs_iterations_and_residual(exact, caplog):
    with caplog.at_level("INFO", logger="surfdarcy.verification"):
        out = run_level(case_config(1), build_background(), exact)
    system, solution = out["system"], out["solution"]
    rel = solution.residual_norm / np.linalg.norm(system.rhs)
    assert solution.iterations > 0
    assert (
        f"{system.layout.total} unknowns: {solution.iterations} GMRES iterations, "
        f"relative residual {rel:.3e}"
    ) in caplog.messages


class TestTabulationsPerLevel:
    """`run_level` tabulates each space once at each of the surface's
    quadrature points for assembly: one space in case 1, two in case 6.  The
    values at the error-quadrature points are contracted from the
    coefficients without a basis table."""

    @pytest.mark.parametrize("case, spaces", [(1, 1), (6, 2)])
    def test_run_level_tabulation_count(self, case, spaces, exact, monkeypatch):
        counted = []
        tabulate = fe_space.tabulate

        def counting(space, cells, lambdas):
            counted.append(len(lambdas))
            return tabulate(space, cells, lambdas)

        monkeypatch.setattr(fe_space, "tabulate", counting)
        out = run_level(case_config(case), build_background(), exact)
        assert sum(counted) == spaces * len(out["ds"].points)
        vspace, pspace = out["spaces"]
        assert (vspace is pspace) == (case == 1)


def test_solution_values_allocates_no_basis_table():
    # case 6, P2 pressure: a table of the P2 basis gradients alone takes
    # 240 bytes per point; the values, pressure and gradient returned take 56
    offset = (0.031, -0.052, 0.017)
    config = case_config(6, n_cells0=12, offset=offset)
    mesh = build_background(config.box, config.n_cells0)
    out = run_level(config, mesh, ManufacturedSolution(offset=offset))
    ds_err = with_quadrature(out["ds"], config.quad_degree_err)
    tracemalloc.start()
    try:
        solution_values(out["solution"], out["spaces"], ds_err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 320 * len(ds_err.points)


def test_run_level_projects_each_point_set_once(monkeypatch):
    # assemble pulls f and g back from one projection of the surface's
    # quadrature points, and compute_errors evaluates u, p and grad p from
    # one projection of the error quadrature's
    offset = (0.031, -0.052, 0.017)
    config = case_config(1, offset=offset)
    projected = []
    closest_point = ImplicitSurface.closest_point
    monkeypatch.setattr(
        ImplicitSurface,
        "closest_point",
        lambda self, x: projected.append(len(x)) or closest_point(self, x),
    )
    out = run_level(config, build_background(), ManufacturedSolution(offset=offset))
    ds_err = with_quadrature(out["ds"], config.quad_degree_err)
    assert sum(projected) == len(out["ds"].points) + len(ds_err.points)


def test_error_stage_holds_few_bytes_per_error_point(exact, level1):
    # the error quadrature is built and evaluated one chunk of cells at a
    # time; only the two pressures and the weights (24 bytes) are kept for
    # every error point, against 344 bytes when the whole level's error
    # quadrature and fields were held at once
    config = case_config(1)
    ds = level1["ds"]
    n_points = ds.n_cells * len(triangle_rule(config.quad_degree_err)[1])
    assert ds.n_cells > 4 * CHUNK_CELLS
    tracemalloc.start()
    try:
        compute_errors(level1["solution"], level1["spaces"], ds, exact, config.quad_degree_err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 160 * n_points


class TestEOC:
    def test_known_ratio(self):
        assert compute_eoc([0.4, 0.1])[1] == pytest.approx(2.0)

    def test_equal_errors(self):
        assert compute_eoc([0.5, 0.5])[1] == pytest.approx(0.0)

    def test_level0_absent(self):
        assert compute_eoc([1.0, 0.5])[0] is None

    def test_zero_error_absent(self):
        eoc = compute_eoc([1.0, 0.0, 1.0])
        assert eoc[1] is None and eoc[2] is None

    def test_paper_case1_pressure_column(self):
        errors = [1.69e-1, 5.29e-2, 1.18e-2, 2.80e-3, 6.86e-4]
        eoc = compute_eoc(errors)
        npt.assert_allclose(eoc[1:], [1.68, 2.16, 2.08, 2.03], atol=5e-3)


class TestTangency:
    def test_zero_field(self, exact, level1):
        vspace, pspace = level1["spaces"]
        zero = Solution(
            u_coeffs=np.zeros((3, vspace.global_dofs)),
            p_coeffs=np.zeros(pspace.global_dofs),
            multiplier=0.0,
            residual_norm=0.0,
        )
        ds_err = with_quadrature(level1["ds"], case_config(1).quad_degree_err)
        u_h = solution_values(zero, (vspace, pspace), ds_err)[0]
        assert tangency_defect(u_h, ds_err) == 0.0

    def test_interpolated_exact_field_decreases(self, exact):
        mesh = build_background()
        defects = []
        for level in range(2):
            if level:
                mesh = refine_uniform(mesh)
            torus = exact.surface
            active = extract_active(mesh, torus.signed_distance(mesh.vertices))
            ds = with_quadrature(build_surface(active, torus, 1, 4), 6)
            vspace = fe_space.build_space(active, 1)
            u_coeffs = interpolate(vspace, lambda p: torus.extend_vector(exact.velocity, p)).T
            u_h = fe_space.evaluate(vspace, u_coeffs, ds.point_active, ds.lambdas)
            defects.append(tangency_defect(u_h, ds))
        assert defects[1] < defects[0]


class TestCaseTable:
    def test_six_cases(self):
        assert sorted(CASE_TABLE) == [1, 2, 3, 4, 5, 6]
        assert CASE_TABLE[1] == (1, 1, 1, Stabilization.FULL_GRADIENT)
        assert CASE_TABLE[6] == (1, 2, 2, Stabilization.NORMAL_GRADIENT)

    def test_invalid_case(self):
        with pytest.raises(ValueError):
            case_config(7)


class TestReports:
    @pytest.fixture(scope="class")
    def small_report(self):
        return run_case(case_config(1), levels=1, case=1)

    def test_csv_schema(self, small_report):
        csv = report_to_csv(small_report)
        lines = csv.strip().splitlines()
        assert lines[0] == (
            "level,h,dofs_u,dofs_p,err_u_L2,err_p_H1,err_p_L2,"
            "eoc_u_L2,eoc_p_H1,eoc_p_L2"
        )
        assert len(lines) == 3
        # level 0 has empty EOC fields
        assert lines[1].endswith(",,,")

    def test_markdown_echoes_config(self, small_report):
        md = report_to_markdown(small_report)
        assert "tau = 0.1" in md
        assert "case 1" in md

    def test_eoc_reasonable_after_one_refinement(self, small_report):
        assert small_report.eoc_p_l2[1] > 1.3
