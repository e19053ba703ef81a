"""The legacy VTK writer, pinned byte for byte."""

import numpy as np
import numpy.testing as npt

from surfdarcy.geometry import Torus
from surfdarcy.mesh import build_background, extract_active
from surfdarcy.vtk_io import export_active_mesh, write_unstructured_grid

POINTS = [
    [0.0, -0.0, 1e-300],
    [123456789012345.0, 1.0, -2.5e-7],
    [0.1, 3.0, 2.0 / 3.0],
    [1.0, 1.0, 0.0],
]

TRIANGLES = """\
# vtk DataFile Version 3.0
surfdarcy output
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0 -0 1e-300
1.23456789012e+14 1 -2.5e-07
0.1 3 0.666666666667
1 1 0
CELLS 2 8
3 0 1 2
3 2 1 3
CELL_TYPES 2
5
5
POINT_DATA 4
SCALARS p double 1
LOOKUP_TABLE default
-0
1e-300
1.23456789012e+14
-3.75e-12
VECTORS u double
7 -0 1e-300
-1e-05 2 0.25
0.333333333333 -12 5e+20
0 0 -1
"""

TETS = """\
# vtk DataFile Version 3.0
surfdarcy output
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0 -0 1e-300
1.23456789012e+14 1 -2.5e-07
0.1 3 0.666666666667
1 1 0
CELLS 1 5
4 0 1 2 3
CELL_TYPES 1
10
"""


def test_triangles_with_scalar_and_vector_fields(tmp_path):
    path = tmp_path / "tri.vtk"
    point_data = {
        "p": [-0.0, 1e-300, 123456789012345.0, -3.75e-12],
        "u": [
            [7.0, -0.0, 1e-300],
            [-1e-5, 2.0, 0.25],
            [1.0 / 3.0, -12.0, 5e20],
            [0.0, 0.0, -1.0],
        ],
    }
    write_unstructured_grid(path, POINTS, [[0, 1, 2], [2, 1, 3]], 5, point_data)
    assert path.read_text() == TRIANGLES


def test_tets_without_point_data(tmp_path):
    path = tmp_path / "tet.vtk"
    write_unstructured_grid(path, POINTS, [[0, 1, 2, 3]], 10)
    assert path.read_text() == TETS


def test_every_value_reads_as_its_twelve_digit_fstring(tmp_path):
    """Random bit patterns (subnormals, huge values, nan, inf) and large
    indices come out as a per-value f-string and str() would write them."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**63, size=(200, 3), dtype=np.uint64)
    points = bits.view(np.float64) * rng.choice([-1.0, 1.0], size=(200, 3))
    points[:4] = [
        [np.nan, np.inf, -np.inf],
        [5e-324, -0.0, 1e308],
        [1e16, 0.5, 2.0**60],
        [-1.0, 1e-5, 99.0],
    ]
    cells = rng.integers(0, 2**40, size=(50, 3))
    path = tmp_path / "random.vtk"
    write_unstructured_grid(path, points, cells, 5, {"s": points[:, 0], "v": points})

    def rows(values):
        return [" ".join(f"{x:.12g}" for x in row) for row in values]

    lines = path.read_text().split("\n")
    assert lines[5:205] == rows(points)
    assert lines[206:256] == ["3 " + " ".join(str(i) for i in row) for row in cells]
    start = lines.index("LOOKUP_TABLE default") + 1
    assert lines[start : start + 200] == rows(points[:, :1])
    start = lines.index("VECTORS v double") + 1
    assert lines[start:] == rows(points) + [""]


def test_active_mesh_file_numbers_the_used_vertices_in_global_order(tmp_path):
    mesh = build_background(n_cells=14)
    active = extract_active(mesh, Torus().signed_distance(mesh.vertices))
    global_tets = mesh.tets[active.active_tets]
    used = np.unique(global_tets)
    n, nt = len(used), len(active)
    path = tmp_path / "active.vtk"
    export_active_mesh(path, active)

    lines = path.read_text().split("\n")
    assert lines[4] == f"POINTS {n} double"
    assert lines[5 : 5 + n] == [" ".join(f"{x:.12g}" for x in mesh.vertices[v]) for v in used]
    assert lines[5 + n] == f"CELLS {nt} {5 * nt}"
    cells = np.array([row.split() for row in lines[6 + n : 6 + n + nt]], dtype=np.int64)
    assert np.all(cells[:, 0] == 4)
    npt.assert_array_equal(used[cells[:, 1:]], global_tets)
    assert lines[6 + n + nt] == f"CELL_TYPES {nt}"
    assert lines[7 + n + nt :] == ["10"] * nt + [""]
