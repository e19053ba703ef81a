import numpy as np
import pytest

import surfdarcy.solver as solver_mod
from surfdarcy.cli import main


@pytest.fixture
def splu_calls(monkeypatch):
    calls = []
    splu = solver_mod.spla.splu
    monkeypatch.setattr(
        solver_mod.spla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw)
    )
    return calls


def test_converge_tiny_run(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    md_path = tmp_path / "report.md"
    code = main(
        [
            "converge", "--case", "1", "--levels", "1",
            "--csv", str(csv_path), "--markdown", str(md_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tau = 0.1" in out
    csv = csv_path.read_text().splitlines()
    assert csv[0].startswith("level,h,dofs_u,dofs_p")
    assert len(csv) == 3
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


def test_converge_exports_finest_level_without_solving_again(tmp_path, splu_calls):
    conv, exp = tmp_path / "converge", tmp_path / "export"
    assert main(["converge", "--case", "1", "--levels", "1", "--vtk-dir", str(conv)]) == 0
    assert len(splu_calls) == 2, "one factorization per level"
    assert main(["export", "--case", "1", "--level", "1", "--vtk-dir", str(exp)]) == 0
    names = sorted(p.name for p in conv.iterdir())
    assert names == ["active_mesh_case1_level1.vtk", "surface_case1_level1.vtk"]
    assert names == sorted(p.name for p in exp.iterdir())
    for name in names:
        assert (conv / name).read_bytes() == (exp / name).read_bytes()


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
    "extra", [["--offset=0.2,0,0"], ["--offset=0,-0.16,0"], ["--box=-1,1"]]
)
def test_offset_outside_box_is_config_error(extra, capsys):
    assert main(["converge", "--case", "1", "--levels", "1", *extra]) == 1
    assert "outside the box" in capsys.readouterr().err
