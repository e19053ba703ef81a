"""Correctness checks on the program's outputs, written apart from the program.

Nothing here imports surfdarcy.  The closed-form torus solution is restated
below from the problem definition, and every check compares an output
against it or against a property the method must have, never against a
stored copy of an earlier output.

Each check function returns a list of (ok, message) pairs.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

# Torus of major radius R and minor radius r around the z-axis, translated by
# the workload offset.  The manufactured solution on it is the pressure p = z
# and the divergence-free tangential velocity u below (coordinates relative to
# the torus centre).
R_MAJOR = 1.0
R_MINOR = 0.5
TORUS_AREA = 4.0 * math.pi**2 * R_MAJOR * R_MINOR

# A priori order of the energy-norm estimate, h^min(k_u, k_p, k_g); the
# full-gradient stabilization is first-order consistent, so it is 1 there as
# well.  The energy norm holds ||u||_L2 and ||grad p||_L2, and bounds ||p||_L2,
# so the same order is required of all three columns.  All six cases of the
# study have k_u = 1, which makes it 1 for every case.
CASE_ORDERS = {  # case: (k_u, k_p, k_g, stabilization)
    1: (1, 1, 1, "full"),
    2: (1, 1, 1, "normal"),
    3: (1, 2, 1, "full"),
    4: (1, 2, 1, "normal"),
    5: (1, 2, 2, "full"),
    6: (1, 2, 2, "normal"),
}
EOC_MARGIN = 0.3

# the nodal errors of the exported fields must lie within this factor of the
# quadrature L2 errors of the CSV, scaled to a root mean square over the area
NODAL_FACTOR = 3.0
# exported nodes lie within GEOM_DISTANCE * h^2 of the torus and exported
# normals within GEOM_NORMAL * h of the exact ones (linear geometry)
GEOM_DISTANCE = 1.0
GEOM_NORMAL = 3.0

RESIDUAL_LIMIT = 1e-9
SPREAD_LIMIT = 100.0


def energy_order(case: int) -> int:
    k_u, k_p, k_g, stab = CASE_ORDERS[case]
    order = min(k_u, k_p, k_g)
    return min(order, 1) if stab == "full" else order


# ---------------------------------------------------------------------------
# closed-form solution
# ---------------------------------------------------------------------------


def torus_projection(points, offset):
    """Closest torus points (relative to the torus centre) and outward normals."""
    y = np.asarray(points, dtype=float) - np.asarray(offset, dtype=float)
    s = np.hypot(y[:, 0], y[:, 1])
    ring = np.zeros_like(y)
    ring[:, 0] = R_MAJOR * y[:, 0] / s
    ring[:, 1] = R_MAJOR * y[:, 1] / s
    radial = y - ring
    q = np.linalg.norm(radial, axis=1)
    normals = radial / q[:, None]
    return ring + R_MINOR * normals, normals, q - R_MINOR


def exact_velocity(y):
    s = np.hypot(y[:, 0], y[:, 1])
    return np.stack(
        [
            2.0 * y[:, 0] * y[:, 2],
            -2.0 * y[:, 1] * y[:, 2],
            2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2) * (R_MAJOR - s) / s,
        ],
        axis=1,
    )


def exact_pressure(y):
    return y[:, 2].copy()


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def read_vtk(path):
    """Points and point data of a legacy ASCII unstructured grid."""
    with open(path) as handle:
        lines = handle.read().splitlines()

    def block(start, count):
        return np.array(" ".join(lines[start : start + count]).split(), dtype=float)

    points = None
    data = {}
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if not head:
            i += 1
        elif head[0] == "POINTS":
            n = int(head[1])
            points = block(i + 1, n).reshape(n, 3)
            i += 1 + n
        elif head[0] == "SCALARS":
            n = len(points)
            data[head[1]] = block(i + 2, n)
            i += 2 + n
        elif head[0] == "VECTORS":
            n = len(points)
            data[head[1]] = block(i + 1, n).reshape(n, 3)
            i += 1 + n
        else:
            i += 1
    if points is None:
        raise ValueError(f"{path}: no POINTS section")
    return points, data


def read_report(path):
    """Rows of the convergence CSV as dicts of floats (None for empty EOCs)."""
    rows = []
    with open(path, newline="") as handle:
        for raw in csv.DictReader(handle):
            rows.append({k: (float(v) if v != "" else None) for k, v in raw.items()})
    return rows


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_report(rows, case: int, levels: int):
    """Levels present, errors positive, EOCs consistent and not below order."""
    out = []
    got = [int(r["level"]) for r in rows]
    out.append((got == list(range(levels + 1)), f"report has levels {got}"))
    if got != list(range(levels + 1)):
        return out
    order = energy_order(case)
    for err, eoc in (
        ("err_u_L2", "eoc_u_L2"),
        ("err_p_H1", "eoc_p_H1"),
        ("err_p_L2", "eoc_p_L2"),
    ):
        errors = [r[err] for r in rows]
        positive = all(e is not None and math.isfinite(e) and e > 0.0 for e in errors)
        out.append((positive, f"{err} positive and finite: {errors}"))
        if not positive:
            continue
        for k in range(1, len(rows)):
            reported = rows[k][eoc]
            measured = math.log(errors[k - 1] / errors[k], 2.0)
            out.append(
                (
                    reported is not None and abs(reported - measured) <= 1e-3,
                    f"level {k}: {eoc} {reported} agrees with the errors ({measured:.4f})",
                )
            )
            out.append(
                (
                    measured >= order - EOC_MARGIN,
                    f"level {k}: {eoc} {measured:.4f} >= a priori order {order} - {EOC_MARGIN}",
                )
            )
    return out


def check_surface_export(points, data, offset, h, finest):
    """Exported surface fields against the closed-form solution.

    `finest` is the CSV row of the exported level; its L2 errors set the
    scale that the nodal errors must match within NODAL_FACTOR.
    """
    out = []
    missing = {"pressure", "velocity", "speed", "normal"} - set(data)
    out.append((not missing, f"surface fields present (missing {sorted(missing)})"))
    if missing or len(points) == 0:
        return out
    y, n_exact, dist = torus_projection(points, offset)

    worst = float(np.abs(dist).max())
    out.append(
        (worst <= GEOM_DISTANCE * h**2, f"node distance {worst:.3e} <= {GEOM_DISTANCE} h^2")
    )
    normal = data["normal"]
    unit = float(np.abs(np.linalg.norm(normal, axis=1) - 1.0).max())
    out.append((unit <= 1e-9, f"normals unit length (defect {unit:.1e})"))
    n_err = float(np.linalg.norm(normal - n_exact, axis=1).max())
    out.append(
        (n_err <= GEOM_NORMAL * h, f"normal error {n_err:.3e} <= {GEOM_NORMAL} h, outward")
    )

    velocity = data["velocity"]
    speed_err = float(np.abs(np.linalg.norm(velocity, axis=1) - data["speed"]).max())
    out.append((speed_err <= 1e-9, f"speed = |velocity| (defect {speed_err:.1e})"))

    scale = math.sqrt(TORUS_AREA)
    e_p = data["pressure"] - exact_pressure(y)
    e_p -= e_p.mean()  # the pressure is fixed only up to a constant
    e_u = velocity - exact_velocity(y)
    for name, nodal, l2 in (
        ("pressure", math.sqrt(float(np.mean(e_p**2))), finest["err_p_L2"]),
        ("velocity", math.sqrt(float(np.mean(np.sum(e_u**2, axis=1)))), finest["err_u_L2"]),
    ):
        ratio = nodal / (l2 / scale)
        out.append(
            (
                1.0 / NODAL_FACTOR <= ratio <= NODAL_FACTOR,
                f"{name}: nodal rms error {nodal:.3e} is {ratio:.2f} x L2/sqrt(area) "
                f"(within {NODAL_FACTOR}x)",
            )
        )
    return out


_RESIDUAL = re.compile(
    r"^(PASS|FAIL): (\w+): all (\d+) solves, max relative residual (\S+) < "
)
_SPREAD = re.compile(r"^(PASS|FAIL): (\w+): condition spread (\S+) < ")


def check_positioning(passed, lines, n_translations):
    """Both stabilizations: every solve accurate, condition spread bounded."""
    out = [(bool(passed), "positioning suite passed")]
    residuals, spreads = {}, {}
    for line in lines:
        m = _RESIDUAL.match(line)
        if m:
            residuals[m.group(2)] = (int(m.group(3)), float(m.group(4)))
        m = _SPREAD.match(line)
        if m:
            spreads[m.group(2)] = float(m.group(3))
    for kind in ("full", "normal"):
        count, residual = residuals.get(kind, (0, math.inf))
        out.append(
            (
                count == n_translations and residual < RESIDUAL_LIMIT,
                f"{kind}: {count} of {n_translations} solves, max relative residual "
                f"{residual:.3e} < {RESIDUAL_LIMIT}",
            )
        )
        spread = spreads.get(kind, math.inf)
        out.append(
            (1.0 <= spread < SPREAD_LIMIT, f"{kind}: condition spread {spread:.3g} < {SPREAD_LIMIT}")
        )
    return out
