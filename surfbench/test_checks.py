"""The benchmark's checks accept outputs built from the closed-form solution
and reject deliberately perturbed ones.  Run with

    python3 -m pytest -q surfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

OFFSET = np.array([0.03, -0.05, 0.02])
H = 0.1
# nodal error amplitudes of the synthetic "discrete" solution
EPS_P = 2e-3
EPS_U = 1e-2


def _torus_export(n_theta=48, n_phi=96):
    """Triangulated torus with per-cell nodes, as the surface export lays
    them out, carrying the exact fields plus small smooth errors."""
    theta, phi = np.meshgrid(
        np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False),
        np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    ring = checks.R_MAJOR + checks.R_MINOR * np.cos(theta)
    grid = np.stack(
        [ring * np.cos(phi), ring * np.sin(phi), checks.R_MINOR * np.sin(theta)], axis=-1
    )
    i, j = np.meshgrid(np.arange(n_theta), np.arange(n_phi), indexing="ij")
    i1, j1 = (i + 1) % n_theta, (j + 1) % n_phi
    tris = np.concatenate(
        [
            np.stack([grid[i, j], grid[i1, j], grid[i1, j1]], axis=-2).reshape(-1, 3, 3),
            np.stack([grid[i, j], grid[i1, j1], grid[i, j1]], axis=-2).reshape(-1, 3, 3),
        ]
    )
    y = tris.reshape(-1, 3)
    _, normals, _ = checks.torus_projection(y, np.zeros(3))
    pressure = checks.exact_pressure(y) + EPS_P * np.cos(3.0 * np.arctan2(y[:, 1], y[:, 0]))
    velocity = checks.exact_velocity(y) + EPS_U * normals[:, [1, 2, 0]]
    data = {
        "pressure": pressure,
        "velocity": velocity,
        "speed": np.linalg.norm(velocity, axis=1),
        "normal": normals,
    }
    return y + OFFSET, data


def _report(case=1, eoc=1.0):
    """CSV rows whose finest L2 errors match the synthetic nodal errors."""
    points, data = _torus_export()
    y, _, _ = checks.torus_projection(points, OFFSET)
    e_p = data["pressure"] - checks.exact_pressure(y)
    e_p -= e_p.mean()
    e_u = data["velocity"] - checks.exact_velocity(y)
    scale = math.sqrt(checks.TORUS_AREA)
    finest = {
        "err_u_L2": math.sqrt(np.mean(np.sum(e_u**2, axis=1))) * scale,
        "err_p_H1": 0.05,
        "err_p_L2": math.sqrt(np.mean(e_p**2)) * scale,
    }
    rows = []
    for level in (0, 1):
        factor = 2.0 ** (eoc * (1 - level))
        row = {"level": float(level), "h": H * 2.0 ** (1 - level)}
        for key, value in finest.items():
            row[key] = value * factor
            row[key.replace("err", "eoc")] = None if level == 0 else eoc
        rows.append(row)
    return rows


def _failed(results):
    return [msg for ok, msg in results if not ok]


def test_exact_export_passes():
    points, data = _torus_export()
    rows = _report()
    assert _failed(checks.check_report(rows, case=1, levels=1)) == []
    assert _failed(checks.check_surface_export(points, data, OFFSET, H, rows[-1])) == []


@pytest.mark.parametrize(
    "field, perturb",
    [
        ("pressure", lambda v, y: v + 0.05 * np.sin(2.0 * y[:, 0])),
        ("velocity", lambda v, y: v + 0.2 * np.stack([y[:, 1], -y[:, 0], 0 * y[:, 2]], axis=1)),
        ("normal", lambda v, y: -v),
        ("speed", lambda v, y: 1.01 * v),
    ],
)
def test_perturbed_field_fails(field, perturb):
    points, data = _torus_export()
    rows = _report()
    data[field] = perturb(data[field], points - OFFSET)
    failed = _failed(checks.check_surface_export(points, data, OFFSET, H, rows[-1]))
    assert failed, f"perturbed {field} passed"


def test_nodes_off_the_surface_fail():
    points, data = _torus_export()
    _, normals, _ = checks.torus_projection(points, OFFSET)
    moved = points + 2.0 * H**2 * normals
    assert _failed(checks.check_surface_export(moved, data, OFFSET, H, _report()[-1]))


def test_errors_too_small_for_the_report_fail():
    points, data = _torus_export()
    rows = _report()
    rows[-1]["err_p_L2"] *= 10.0
    assert _failed(checks.check_surface_export(points, data, OFFSET, H, rows[-1]))


def test_slow_convergence_fails():
    rows = _report(eoc=0.5)
    assert _failed(checks.check_report(rows, case=6, levels=1))


def test_misreported_eoc_fails():
    rows = _report()
    rows[1]["eoc_p_L2"] = 2.0
    assert _failed(checks.check_report(rows, case=1, levels=1))


def test_missing_level_fails():
    assert _failed(checks.check_report(_report()[:1], case=1, levels=1))


POSITIONING_LINES = [
    "PASS: full: all 12 solves, max relative residual 3.032e-14 < 1e-9",
    "PASS: full: condition spread 1.31 < 100.0",
    "PASS: normal: all 12 solves, max relative residual 5.837e-14 < 1e-9",
    "PASS: normal: condition spread 1.91 < 100.0",
]


def test_positioning_passes():
    assert _failed(checks.check_positioning(True, POSITIONING_LINES, 12)) == []


@pytest.mark.parametrize(
    "index, line",
    [
        (0, "PASS: full: all 12 solves, max relative residual 3.0e-08 < 1e-9"),
        (2, "PASS: normal: all 11 solves, max relative residual 5.8e-14 < 1e-9"),
        (3, "PASS: normal: condition spread 250 < 100.0"),
        (1, "unrelated line"),
    ],
)
def test_positioning_perturbed_fails(index, line):
    lines = list(POSITIONING_LINES)
    lines[index] = line
    assert _failed(checks.check_positioning(True, lines, 12))


def test_positioning_suite_failure_fails():
    assert _failed(checks.check_positioning(False, POSITIONING_LINES, 12))


def test_closed_form_velocity_is_tangential_and_divergence_free():
    """The restated solution is the manufactured one: u . n = 0 and
    div_S u = 0 on the torus, checked by central differences."""
    rng = np.random.default_rng(0)
    theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=(2, 50))
    ring = checks.R_MAJOR + checks.R_MINOR * np.cos(theta)
    y = np.stack([ring * np.cos(phi), ring * np.sin(phi), checks.R_MINOR * np.sin(theta)], 1)
    _, normals, dist = checks.torus_projection(y, np.zeros(3))
    assert np.abs(dist).max() < 1e-12
    u = checks.exact_velocity(y)
    assert np.abs(np.einsum("nx,nx->n", u, normals)).max() < 1e-12

    def extended(x):
        return checks.exact_velocity(checks.torus_projection(x, np.zeros(3))[0])

    step = 1e-5
    jac = np.stack(
        [(extended(y + step * e) - extended(y - step * e)) / (2 * step) for e in np.eye(3)],
        axis=2,
    )
    div = np.trace(jac, axis1=1, axis2=2) - np.einsum("ni,nij,nj->n", normals, jac, normals)
    assert np.abs(div).max() < 1e-6
