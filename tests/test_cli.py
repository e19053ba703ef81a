import logging
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import surfdarcy.cli as cli_mod
import surfdarcy.solver as solver_mod
import surfdarcy.suites as suites_mod
import surfdarcy.vtk_io as vtk_io_mod
from surfdarcy.cli import main
from surfdarcy.mesh import DEFAULT_BOX, build_background
from surfdarcy.verification import ManufacturedSolution, case_config, run_level


# case 1's CSV at levels 0-1 on the default grid, with the torus at the
# origin and at a sub-cell offset; a change that keeps the k_g = 1
# discretization writes both byte for byte.  Case 6's, on the 8-cell grid at
# the same offset, pins the quadratic geometry, the P2 pressure and the
# normal-gradient stabilization
PROBE_OFFSET = "--offset=0.031,-0.052,0.017"
TINY_RUN_ARGS = {
    "origin": ["--case", "1"],
    "offset": ["--case", "1", PROBE_OFFSET],
    "case6": ["--case", "6", "--ncells0", "8", PROBE_OFFSET],
}
TINY_RUN_CSV = {
    "origin": """\
level,h,dofs_u,dofs_p,err_u_L2,err_p_H1,err_p_L2,eoc_u_L2,eoc_p_H1,eoc_p_L2
0,0.23571429,2622,874,4.422243e-01,8.013393e-01,1.056436e-01,,,
1,0.11785714,10116,3372,1.228587e-01,3.991879e-01,2.499413e-02,1.8478,1.0053,2.0795
""",
    "offset": """\
level,h,dofs_u,dofs_p,err_u_L2,err_p_H1,err_p_L2,eoc_u_L2,eoc_p_H1,eoc_p_L2
0,0.23571429,2580,860,4.501222e-01,8.116601e-01,1.094144e-01,,,
1,0.11785714,10110,3370,1.239423e-01,3.954580e-01,2.483204e-02,1.8606,1.0374,2.1395
""",
    "case6": """\
level,h,dofs_u,dofs_p,err_u_L2,err_p_H1,err_p_L2,eoc_u_L2,eoc_p_H1,eoc_p_L2
0,0.4125,825,1657,8.827151e-01,1.381447e+00,2.314120e-01,,,
1,0.20625,3267,6435,2.822260e-01,7.864325e-01,6.294928e-02,1.6451,0.8128,1.8782
""",
}


def test_converge_tiny_run(tmp_path, capsys):
    for where, args in TINY_RUN_ARGS.items():
        csv_path = tmp_path / f"report_{where}.csv"
        md_path = tmp_path / f"report_{where}.md"
        code = main(
            [
                "converge", *args, "--levels", "1",
                "--csv", str(csv_path), "--markdown", str(md_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tau = 0.1" in out
        assert csv_path.read_text() == TINY_RUN_CSV[where], where
        assert "| 1 |" in md_path.read_text()


def test_converge_echoes_tau(tmp_path, capsys):
    code = main(["converge", "--case", "1", "--levels", "1", "--tau", "0.2"])
    assert code == 0
    assert "tau = 0.2" in capsys.readouterr().out


def test_invalid_case_is_config_error(capsys):
    assert main(["converge", "--case", "9", "--levels", "1"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_invalid_tau_is_config_error(capsys):
    assert main(["converge", "--case", "1", "--levels", "1", "--tau", "-1"]) == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--tau", "nan"],
        ["--tau", "inf"],
        ["--offset=nan,0,0"],
        ["--offset=0,-inf,0"],
        ["--tau=-inf"],
    ],
)
def test_non_finite_value_is_config_error(extra, capsys, splu_calls):
    assert main(["converge", "--case", "1", "--levels", "1", "--ncells0", "8", *extra]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "must be finite" in err
    assert not splu_calls


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_file_non_finite_tau_is_config_error(value, tmp_path, capsys, splu_calls):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tau = {value}\n")
    assert main(["converge", "--case", "1", "--levels", "1", f"--config={cfg}"]) == 1
    assert "tau must be finite" in capsys.readouterr().err
    assert not splu_calls


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.3\nlevels = 1\n# comment\n")
    code = main(["converge", "--case", "1", "--config", str(cfg)])
    assert code == 0
    assert "tau = 0.3" in capsys.readouterr().out
    code = main(["converge", "--case", "1", "--config", str(cfg), "--tau", "0.4"])
    assert code == 0
    assert "tau = 0.4" in capsys.readouterr().out


def test_export_writes_vtk(tmp_path, capsys):
    out = tmp_path / "vtk"
    code = main(["export", "--case", "1", "--level", "0", "--vtk-dir", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "active_mesh_case1_level0.vtk",
        "surface_case1_level0.vtk",
    ]
    surface = (out / "surface_case1_level0.vtk").read_text().splitlines()
    assert surface[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in surface[3]
    assert any(line.startswith("SCALARS pressure") for line in surface)
    assert any(line.startswith("VECTORS velocity") for line in surface)


def test_export_pressure_range(tmp_path):
    out = tmp_path / "vtk"
    assert main(["export", "--case", "1", "--level", "1", "--vtk-dir", str(out)]) == 0
    lines = (out / "surface_case1_level1.vtk").read_text().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("SCALARS pressure"))
    n_pts = int(lines[4].split()[1])
    values = np.array([float(v) for v in lines[start + 2 : start + 2 + n_pts]])
    assert values.min() > -0.6 and values.max() < 0.6


def test_export_quadratic_surface(tmp_path):
    """The k_g = 2 surface is written as 6-node quadratic triangles, with the
    nodes of run_level's surface in their stored order."""
    out = tmp_path / "vtk"
    assert main(["export", "--case", "6", "--level", "0", "--vtk-dir", str(out)]) == 0
    lines = (out / "surface_case6_level0.vtk").read_text().splitlines()
    config = case_config(6)
    mesh = build_background(DEFAULT_BOX, config.n_cells0)
    ds = run_level(config, mesh, ManufacturedSolution())["ds"]
    nodes = ds.nodes.reshape(-1, 3)
    assert lines[4] == f"POINTS {len(nodes)} double"
    assert lines[5 : 5 + len(nodes)] == ["%.12g %.12g %.12g" % tuple(x) for x in nodes]

    at = lines.index(f"CELLS {ds.n_cells} {7 * ds.n_cells}")
    cells = [line.split() for line in lines[at + 1 : at + 1 + ds.n_cells]]
    assert all(cell[0] == "6" and len(cell) == 7 for cell in cells)
    at = lines.index(f"CELL_TYPES {ds.n_cells}")
    assert lines[at + 1 : at + 1 + ds.n_cells] == ["22"] * ds.n_cells

    at = lines.index("VECTORS normal double")
    normals = np.array([line.split() for line in lines[at + 1 : at + 1 + len(nodes)]], float)
    npt.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0, atol=1e-11)


def test_check_command_deterministic_output(tmp_path, capsys):
    args = [
        "check", "--levels", "2", "--translations", "2", "--seed", "42",
    ]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert "[PASS]" in out1


def test_check_failure_in_a_positioning_worker_is_numerical_failure(monkeypatch, capsys):
    def singular(system):
        raise solver_mod.SingularSystemError("singular system: injected")

    # the positioning suite's forked workers inherit the patch
    monkeypatch.setattr(suites_mod, "Factorization", singular)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["check", "--levels", "2", "--translations", "2"]) == 2
    assert "numerical failure: singular system: injected" in capsys.readouterr().err
    assert not multiprocessing.active_children()


def test_converge_exports_finest_level_without_solving_again(tmp_path, splu_calls):
    conv, exp = tmp_path / "converge", tmp_path / "export"
    assert main(["converge", "--case", "1", "--levels", "1", "--vtk-dir", str(conv)]) == 0
    assert len(splu_calls) == 4, "two block factorizations per level"
    assert main(["export", "--case", "1", "--level", "1", "--vtk-dir", str(exp)]) == 0
    names = sorted(p.name for p in conv.iterdir())
    assert names == ["active_mesh_case1_level1.vtk", "surface_case1_level1.vtk"]
    assert names == sorted(p.name for p in exp.iterdir())
    for name in names:
        assert (conv / name).read_bytes() == (exp / name).read_bytes()


def test_converge_export_samples_the_surface_nodes_once(tmp_path, monkeypatch):
    calls = []
    sample_cells = vtk_io_mod.sample_cells
    monkeypatch.setattr(
        vtk_io_mod,
        "sample_cells",
        lambda *a, **kw: calls.append(1) or sample_cells(*a, **kw),
    )
    argv = ["converge", "--case", "1", "--levels", "1", "--vtk-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 1


def test_check_needs_two_levels(capsys, splu_calls):
    assert main(["check", "--levels", "1"]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not splu_calls


def test_converge_needs_one_level(capsys):
    assert main(["converge", "--case", "1", "--levels", "0"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_export_level_not_negative(tmp_path, capsys):
    out = tmp_path / "vtk"
    assert main(["export", "--case", "1", "--level", "-1", "--vtk-dir", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra", [["--offset=0.2,0,0"], ["--offset=0,-0.16,0"], ["--offset=0,0,1.2"]]
)
def test_offset_outside_box_is_config_error(extra, capsys):
    assert main(["converge", "--case", "1", "--levels", "1", *extra]) == 1
    assert "outside the box" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--case", "1", "--levels", "1", "--ncells0", "0"],
        ["check", "--levels", "2", "--translations", "0"],
        ["check", "--levels", "2", "--seed", "-1"],
        ["export", "--case", "1", "--level", "5", "--vtk-dir", "unused"],
    ],
    ids=["ncells0", "translations", "seed", "export-level"],
)
def test_out_of_range_count_is_config_error(argv, tmp_path, monkeypatch, capsys, splu_calls):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not splu_calls
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("degree", ["99", "7", "0", "-1"])
@pytest.mark.parametrize("flag", ["--quad-degree", "--quad-degree-err"])
def test_quadrature_degree_without_a_triangle_rule_is_config_error(
    flag, degree, monkeypatch, capsys
):
    # the triangle rules' degrees are fixed in the program, so no degree that
    # is asked for is taken; rejected before any work: no study is started
    started = []
    monkeypatch.setattr(cli_mod, "run_case", lambda *a, **kw: started.append(1))
    argv = ["converge", "--case", "1", "--levels", "1", "--ncells0", "8", f"{flag}={degree}"]
    assert main(argv) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not started


@pytest.mark.parametrize(
    "command, flag",
    [
        ("converge", "seed"),
        ("export", "seed"),
        # the suites of `check` fix their own grid
        ("check", "ncells0"),
        # the background box and the triangle rules are fixed in the program
        # (mesh.DEFAULT_BOX, cut_surface.QUAD_DEGREE and
        # verification.ERROR_QUAD_DEGREE): no command takes them
        *(
            (command, flag)
            for command in ("converge", "export", "check")
            for flag in ("box", "quad-degree", "quad-degree-err")
        ),
    ],
)
def test_flag_the_command_does_not_read_is_config_error(
    command, flag, tmp_path, capsys, splu_calls
):
    value = {"seed": "5", "ncells0": "6", "box": "-1.65,1.65"}.get(flag, "2")
    base = {
        "converge": ["converge", "--case", "1", "--levels", "1", "--ncells0", "6"],
        "export": ["export", "--case", "1", "--level", "0", f"--vtk-dir={tmp_path / 'vtk'}"],
        "check": ["check", "--levels", "2"],
    }[command]
    assert main([*base, f"--{flag}={value}"]) == 1
    assert "configuration error" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert main([*base, f"--config={cfg}"]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not splu_calls
    assert not (tmp_path / "vtk").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--case", "1", "--levels", "1", "--csv", "{missing}/x.csv"],
        ["converge", "--case", "1", "--levels", "1", "--csv", "{dir}"],
        ["converge", "--case", "1", "--levels", "1", "--markdown", "{file}/x.md"],
        ["converge", "--case", "1", "--levels", "1", "--vtk-dir", "{file}"],
        ["converge", "--case", "1", "--levels", "1", "--vtk-dir", "{file}/vtk"],
        ["export", "--case", "1", "--level", "0", "--vtk-dir", "{file}"],
    ],
    ids=[
        "csv-in-missing-dir",
        "csv-is-dir",
        "markdown-in-file",
        "vtk-dir-is-file",
        "vtk-dir-below-file",
        "export",
    ],
)
def test_unusable_output_path_is_config_error(argv, tmp_path, capsys, splu_calls):
    # rejected before any work, not with a traceback after the study
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file", "dir": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not splu_calls
    assert not paths["missing"].exists()


@pytest.mark.parametrize("flag", ["--csv", "--vtk-dir"])
def test_output_that_cannot_be_written_is_config_error(flag, tmp_path, monkeypatch, capsys):
    # the path passes the checks made before the study, and the disk is full
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    monkeypatch.setattr(vtk_io_mod, "write_unstructured_grid", full)
    target = tmp_path / ("x.csv" if flag == "--csv" else "vtk")
    argv = ["converge", "--case", "1", "--levels", "1", "--ncells0", "8", flag, str(target)]
    assert main(argv) == 1
    assert "configuration error: [Errno 28] No space left on device" in capsys.readouterr().err


@pytest.mark.parametrize("ncells0", ["1", "2"])
def test_grid_too_coarse_for_the_surface_is_config_error(ncells0, capsys, splu_calls):
    argv = ["converge", "--case", "1", "--levels", "1", "--ncells0", ncells0]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error: surface not resolved" in err
    assert not splu_calls


def test_config_file_equals_form_is_applied(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = -1\n")
    assert main(["converge", "--case", "1", "--levels", "1", f"--config={cfg}"]) == 1
    assert "tau must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["tua = 0.37", "config = other.cfg", "translations = 2"])
def test_config_file_unknown_key_is_config_error(line, tmp_path, capsys, splu_calls):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"levels = 1\n{line}\n")
    assert main(["converge", "--case", "1", f"--config={cfg}"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and line.split()[0] in err
    assert not splu_calls


def test_warnings_reach_stderr_with_logger_name(monkeypatch, capsys):
    def warn(*args, **kwargs):
        logging.getLogger("surfdarcy.solver").warning("condition estimate did not converge")
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver_mod.spla, "splu", warn)
    assert main(["converge", "--case", "1", "--levels", "1"]) == 2
    out, err = capsys.readouterr()
    assert "WARNING surfdarcy.solver: condition estimate did not converge\n" in err
    assert "condition estimate" not in out


def test_each_level_logs_its_residual_to_stderr(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    level = logging.getLogger("surfdarcy").level
    assert main(["converge", "--case", "1", "--levels", "1", "--csv", str(csv_path)]) == 0
    out, err = capsys.readouterr()
    for unknowns in (3497, 13489):
        assert re.search(
            rf"^INFO surfdarcy.verification: {unknowns} unknowns: \d+ GMRES iterations, "
            r"relative residual \d\.\d{3}e-\d+$",
            err,
            re.MULTILINE,
        ), unknowns
    assert "INFO" not in out
    assert csv_path.read_text() == TINY_RUN_CSV["origin"]
    # the package's logger level is restored once the command has run
    assert logging.getLogger("surfdarcy").level == level


def test_unconverged_solve_is_numerical_failure(monkeypatch, capsys):
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 1)
    assert main(["converge", "--case", "1", "--levels", "1"]) == 2
    assert "numerical failure: GMRES did not converge" in capsys.readouterr().err


def test_config_without_value_is_usage_error(capsys, splu_calls):
    assert main(["converge", "--case", "1", "--levels", "1", "--config"]) == 1
    assert "--config: expected one argument" in capsys.readouterr().err
    assert not splu_calls


@pytest.mark.parametrize(
    "argv, message",
    [
        (["converge", "--case", "1", "--tau", "abc"], "invalid float value: 'abc'"),
        (["converge", "--levels", "1"], "the following arguments are required: --case"),
        (["converge", "--case", "1", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["bad-value", "missing-case", "unknown-flag"],
)
def test_usage_error_is_config_error(argv, message, capsys, splu_calls):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not splu_calls


def test_config_file_bad_value_is_config_error(tmp_path, capsys, splu_calls):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = abc\n")
    assert main(["converge", "--case", "1", "--levels", "1", f"--config={cfg}"]) == 1
    assert "invalid float value: 'abc'" in capsys.readouterr().err
    assert not splu_calls


@pytest.mark.parametrize("argv", [["--help"], ["converge", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert "usage: surfdarcy" in capsys.readouterr().out
