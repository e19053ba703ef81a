"""Legacy ASCII VTK writers for the active mesh and the discrete surface.

Each block of a file (the points, the cells, the cell types and each point
field) is one `%` format: the row format, such as "%.12g %.12g %.12g\n",
repeated once per row and applied to the array's values as Python numbers.
`"%.12g" % x` is the same text as `f"{x:.12g}"` for every float, -0, nan,
inf and subnormals included, and `"%d" % i` the same as `str(i)`.
"""

from __future__ import annotations

import numpy as np

from .cut_surface import DiscreteSurface, sample_cells
from .mesh import ActiveMesh
from .shapes import tri_nodes

__all__ = ["write_unstructured_grid", "export_active_mesh", "export_surface"]

_VTK_TET = 10
_VTK_TRIANGLE = 5
_VTK_QUADRATIC_TRIANGLE = 22


def write_unstructured_grid(path, points, cells, cell_type, point_data=None):
    """Write one legacy VTK unstructured grid with optional point data.

    point_data maps names to (n,) scalar or (n, 3) vector arrays.
    """
    points = np.asarray(points, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    n_cells, nodes_per_cell = cells.shape
    text = [
        "# vtk DataFile Version 3.0\nsurfdarcy output\nASCII\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n",
        _block(points, "%.12g"),
        f"CELLS {n_cells} {n_cells * (nodes_per_cell + 1)}\n",
        _block(cells, "%d", prefix=f"{nodes_per_cell} "),
        f"CELL_TYPES {n_cells}\n",
        f"{cell_type}\n" * n_cells,
    ]
    if point_data:
        text.append(f"POINT_DATA {len(points)}\n")
        for name, values in point_data.items():
            values = np.asarray(values, dtype=float)
            if values.ndim == 1:
                text.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            else:
                text.append(f"VECTORS {name} double\n")
            text.append(_block(values, "%.12g"))
    with open(path, "w") as handle:
        handle.write("".join(text))


def _block(values, fmt, prefix=""):
    """The rows of a 1-D or 2-D array as text lines, formatted in one `%`."""
    width = 1 if values.ndim == 1 else values.shape[1]
    row = prefix + " ".join([fmt] * width) + "\n"
    return (row * len(values)) % tuple(values.ravel().tolist())


def export_active_mesh(path, active: ActiveMesh):
    """Active-mesh wireframe: the cut tets on the active mesh's own vertices."""
    write_unstructured_grid(path, active.vertices, active.tets, _VTK_TET)


def export_surface(path, ds: DiscreteSurface, point_data=None):
    """Discrete surface cells (linear or quadratic triangles) with nodal data.

    `point_data` maps names to arrays over the flattened cell nodes, in the
    order returned by `surface_node_points`. The oriented normal at the nodes
    is written after them as the vector field `normal`.
    """
    nodes, normals = surface_node_points(ds)
    nc, m, _ = nodes.shape
    cells = np.arange(nc * m).reshape(nc, m)
    cell_type = _VTK_TRIANGLE if ds.k_g == 1 else _VTK_QUADRATIC_TRIANGLE
    point_data = {**(point_data or {}), "normal": normals.reshape(-1, 3)}
    write_unstructured_grid(
        path, nodes.reshape(-1, 3), cells, cell_type, point_data=point_data
    )


def surface_node_points(ds: DiscreteSurface):
    """Cell-node coordinates (nc, m, 3) and oriented normals (nc, m, 3)."""
    return sample_cells(ds, tri_nodes(ds.k_g))
