"""Manufactured torus solution, discrete error norms, EOC computation, and
the convergence-study driver for the six mixed-order/stabilization cases.

A level's error norms are quadrature sums over the surface's cells at the
higher-degree rule of ERROR_QUAD_DEGREE.  `compute_errors` builds that rule's
points for one chunk of `cut_surface.CHUNK_CELLS` cells at a time and adds up
each chunk's squared errors.  Only the two pressures and the weights are
kept for every error point, because the exact pressure's mean shift is taken
over the whole surface.  No array with a row per error point of any other
kind is held for a whole level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import fe_space
from .assembly import Stabilization, assemble, stabilize
# surface_mean is not called here, but the benchmark's tracer
# (surfbench/tracing.py) wraps it under this module's name
from .cut_surface import DiscreteSurface, build_surface, surface_mean, with_quadrature  # noqa: F401
from .geometry import Torus
from .mesh import (
    DEFAULT_BOX,
    DEFAULT_N_CELLS,
    build_background,
    extract_active,
    refine_uniform,
)
from .solver import Solution, solve

__all__ = [
    "ERROR_QUAD_DEGREE",
    "ManufacturedSolution",
    "ErrorTriple",
    "LevelResult",
    "ConvergenceReport",
    "CaseConfig",
    "CASE_TABLE",
    "case_config",
    "solution_values",
    "compute_errors",
    "compute_eoc",
    "tangency_defect",
    "run_case",
    "run_level",
    "report_to_csv",
    "report_to_markdown",
]

log = logging.getLogger(__name__)

# degree of the triangle rule that the error norms re-sample the surface
# cells with, above the surface forms' QUAD_DEGREE
ERROR_QUAD_DEGREE = 6


class ManufacturedSolution:
    """Closed-form torus solution: divergence-free tangential velocity,
    linear pressure p = z, zero source, and the matching tangential forcing.

    The evaluators are surface fields: they take (n, 3) points on the exact
    surface.  A caller with points off the surface extends a field through
    the closest-point projection, once per point set (`assemble`,
    `compute_errors`) or with `ImplicitSurface.extend_vector`.
    """

    def __init__(self, offset=(0.0, 0.0, 0.0)):
        self.surface = Torus(center=tuple(offset))

    def _on_torus(self, x):
        """Undo the translation of surface points: coordinates relative to
        the torus's center."""
        return np.asarray(x, dtype=float) - np.asarray(self.surface.center)

    def velocity(self, x):
        y = self._on_torus(x)
        s = np.hypot(y[:, 0], y[:, 1])
        return np.stack(
            [
                2.0 * y[:, 0] * y[:, 2],
                -2.0 * y[:, 1] * y[:, 2],
                2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2) * (self.surface.R - s) / s,
            ],
            axis=1,
        )

    def pressure(self, x):
        return self._on_torus(x)[:, 2]

    def f_field(self, x):
        return np.zeros(len(x))

    def g_field(self, x):
        y = self._on_torus(x)
        R = self.surface.R
        s = np.hypot(y[:, 0], y[:, 1])
        a = (s - R) ** 2 + y[:, 2] ** 2  # equals r^2 on the surface
        rad = (1.0 - R / s) / a
        return np.stack(
            [
                y[:, 0] * y[:, 2] * (2.0 - rad),
                y[:, 1] * y[:, 2] * (-2.0 - rad),
                1.0
                - 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2) * (s - R) / s
                - y[:, 2] ** 2 / a,
            ],
            axis=1,
        )

    def pressure_surface_gradient(self, x):
        """Tangential gradient of p = z: P (0, 0, 1)."""
        n = self.surface.surface_normal(x)
        grad = -n[:, 2][:, None] * n
        grad[:, 2] += 1.0
        return grad

    def random_surface_points(self, n: int, rng) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        torus = self.surface
        ring = torus.R + torus.r * np.cos(theta)
        pts = np.stack(
            [ring * np.cos(phi), ring * np.sin(phi), torus.r * np.sin(theta)], axis=1
        )
        return pts + np.asarray(torus.center)


@dataclass(frozen=True)
class ErrorTriple:
    u_l2: float
    p_h1: float
    p_l2: float


@dataclass(frozen=True)
class LevelResult:
    level: int
    h: float
    dofs_u: int  # all three velocity components
    dofs_p: int
    errors: ErrorTriple
    tangency: float


@dataclass(frozen=True)
class CaseConfig:
    k_u: int = 1
    k_p: int = 1
    k_g: int = 1
    stab: Stabilization = Stabilization.FULL_GRADIENT
    tau: float = 0.1
    alpha: float = 2.0
    n_cells0: int = DEFAULT_N_CELLS
    offset: tuple = (0.0, 0.0, 0.0)


# (k_u, k_p, k_g, stabilization) of the six study cases
CASE_TABLE = {
    1: (1, 1, 1, Stabilization.FULL_GRADIENT),
    2: (1, 1, 1, Stabilization.NORMAL_GRADIENT),
    3: (1, 2, 1, Stabilization.FULL_GRADIENT),
    4: (1, 2, 1, Stabilization.NORMAL_GRADIENT),
    5: (1, 2, 2, Stabilization.FULL_GRADIENT),
    6: (1, 2, 2, Stabilization.NORMAL_GRADIENT),
}


def case_config(case: int, **overrides) -> CaseConfig:
    if case not in CASE_TABLE:
        raise ValueError(f"case must be one of {sorted(CASE_TABLE)}")
    k_u, k_p, k_g, stab = CASE_TABLE[case]
    return CaseConfig(k_u=k_u, k_p=k_p, k_g=k_g, stab=stab, **overrides)


@dataclass(frozen=True)
class ConvergenceReport:
    case: int | None
    config: CaseConfig
    levels: list
    eoc_u_l2: list = field(default_factory=list)
    eoc_p_h1: list = field(default_factory=list)
    eoc_p_l2: list = field(default_factory=list)
    # run_level output of the finest level, kept for exporting it
    finest: dict | None = field(default=None, repr=False, compare=False)


def solution_values(solution: Solution, spaces, ds: DiscreteSurface):
    """u_h (n, 3), p_h (n,) and grad p_h (n, 3) at the quadrature points of
    ds, each contracted from the local coefficients without a basis table."""
    vspace, pspace = spaces
    at = (ds.cell_active[:, None], ds.qp_lambdas)
    u_h = fe_space.evaluate(vspace, solution.u_coeffs, *at)
    p_h = fe_space.evaluate(pspace, solution.p_coeffs, *at)
    grad_p_h = fe_space.evaluate_gradient(pspace, solution.p_coeffs, *at)
    return u_h.reshape(-1, 3), p_h.reshape(-1), grad_p_h.reshape(-1, 3)


def compute_errors(
    solution: Solution, spaces, ds: DiscreteSurface, exact
) -> tuple[ErrorTriple, float]:
    """Quadrature error norms of the discrete solution on the discrete
    surface, and its tangency defect (`tangency_defect`): (ErrorTriple, float).

    The error quadrature is ds's cells re-sampled by the rule of
    ERROR_QUAD_DEGREE (`with_quadrature`).  It is built and worked through
    one chunk of cells at a time (`DiscreteSurface.cell_chunks`): the chunk's
    discrete fields are evaluated (`solution_values`), its points are
    projected once onto the exact surface, and its squared errors are added
    up.

    Velocity: all three components of the discrete field against the extended
    exact tangential field.  Pressure compares against the exact pressure with
    its surface mean removed (the discrete pressure has zero discrete mean by
    construction); that mean is taken over the whole surface, so the two
    pressures and the weights are kept per point.  The H1 seminorm uses the
    discrete tangential gradient against the exact surface gradient at the
    closest points.
    """
    e_u_sq = e_g_sq = tangency_sq = 0.0
    p_h, p_e, w = [], [], []
    for _, chunk in ds.cell_chunks():
        q = with_quadrature(chunk, ERROR_QUAD_DEGREE)
        u_h, p_h_q, grad_p_h = solution_values(solution, spaces, q)
        on_surface = q.surface.closest_point(q.points)
        w_q = q.weights
        e_u_sq += float(w_q @ np.sum((u_h - exact.velocity(on_surface)) ** 2, axis=1))
        normals = q.normals
        tangential = grad_p_h - np.einsum("nx,nx->n", normals, grad_p_h)[:, None] * normals
        grad_exact = exact.pressure_surface_gradient(on_surface)
        e_g_sq += float(w_q @ np.sum((tangential - grad_exact) ** 2, axis=1))
        tangency_sq += _tangency_sq(u_h, q)
        p_h.append(p_h_q)
        p_e.append(exact.pressure(on_surface))
        w.append(w_q)
    p_h, p_e, w = (np.concatenate(parts) for parts in (p_h, p_e, w))
    shift = float(w @ p_e / w.sum())
    e_p_sq = float(w @ (p_h - (p_e - shift)) ** 2)
    errors = ErrorTriple(
        u_l2=np.sqrt(e_u_sq),
        p_h1=np.sqrt(e_p_sq + e_g_sq),
        p_l2=np.sqrt(e_p_sq),
    )
    return errors, float(np.sqrt(tangency_sq))


def _tangency_sq(u_h, ds: DiscreteSurface) -> float:
    n_exact = ds.surface.surface_normal(ds.points)
    defect = np.einsum("nx,nx->n", u_h, n_exact)
    return float(ds.weights @ defect**2)


def tangency_defect(u_h, ds: DiscreteSurface) -> float:
    """Surface L2 norm of u_h . n_exact, the weak-tangency residual, from the
    discrete velocity u_h (n, 3) at the quadrature points of ds."""
    return float(np.sqrt(_tangency_sq(u_h, ds)))


def compute_eoc(errors) -> list:
    """EOC(k) = log2(E_{k-1} / E_k); None at level 0 and at zero errors."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("at least two levels are required")
    eoc = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev <= 0.0 or cur <= 0.0:
            eoc.append(None)
        else:
            eoc.append(float(np.log(prev / cur) / np.log(2.0)))
    return eoc


def _space(ds: DiscreteSurface, order: int):
    """The space of `order` on the active mesh of ds: phi_h's own when the
    orders agree."""
    return ds.phi_space if order == ds.k_g else fe_space.build_space(ds.active, order)


def run_level(config: CaseConfig, mesh, exact: ManufacturedSolution):
    """Solve one refinement level; returns (LevelResult pieces, objects)."""
    surface = exact.surface
    phi = surface.signed_distance(mesh.vertices)
    active = extract_active(mesh, phi)
    ds = build_surface(active, surface, config.k_g)
    vspace = _space(ds, config.k_u)
    pspace = vspace if config.k_p == config.k_u else _space(ds, config.k_p)
    spaces = (vspace, pspace)
    data = (exact.f_field, exact.g_field)
    system = stabilize(
        assemble(spaces, ds, data), spaces, ds, config.stab, config.tau, config.alpha
    )
    solution = solve(system)
    log.info(
        "%d unknowns: %d GMRES iterations, relative residual %.3e",
        system.total,
        solution.iterations,
        solution.residual_norm / np.linalg.norm(system.rhs),
    )
    errors, defect = compute_errors(solution, spaces, ds, exact)
    return {
        "active": active,
        "ds": ds,
        "spaces": spaces,
        "system": system,
        "solution": solution,
        "errors": errors,
        "tangency": defect,
    }


def run_case(config: CaseConfig, levels: int, case: int | None = None) -> ConvergenceReport:
    """Run the convergence study on refinement levels 0..levels."""
    if levels < 1:
        raise ValueError("need at least two levels (levels >= 1)")
    exact = ManufacturedSolution(offset=config.offset)
    mesh = build_background(DEFAULT_BOX, config.n_cells0)
    results = []
    for level in range(levels + 1):
        # the previous level's surface, spaces and system are let go before
        # this level is built; only the finest stays, on the report
        out = None
        if level > 0:
            mesh = refine_uniform(mesh)
        log.info("level %d: h = %.5g", level, mesh.h)
        out = run_level(config, mesh, exact)
        results.append(
            LevelResult(
                level=level,
                h=mesh.h,
                dofs_u=3 * out["spaces"][0].global_dofs,
                dofs_p=out["spaces"][1].global_dofs,
                errors=out["errors"],
                tangency=out["tangency"],
            )
        )
        log.info(
            "level %d: e_u = %.3e, e_p_H1 = %.3e, e_p_L2 = %.3e",
            level,
            out["errors"].u_l2,
            out["errors"].p_h1,
            out["errors"].p_l2,
        )
    return ConvergenceReport(
        case=case,
        config=config,
        levels=results,
        eoc_u_l2=compute_eoc([r.errors.u_l2 for r in results]),
        eoc_p_h1=compute_eoc([r.errors.p_h1 for r in results]),
        eoc_p_l2=compute_eoc([r.errors.p_l2 for r in results]),
        finest=out,
    )


def _fmt_eoc(value):
    return "" if value is None else f"{value:.4f}"


def report_to_csv(report: ConvergenceReport) -> str:
    lines = ["level,h,dofs_u,dofs_p,err_u_L2,err_p_H1,err_p_L2,eoc_u_L2,eoc_p_H1,eoc_p_L2"]
    for k, row in enumerate(report.levels):
        lines.append(
            f"{row.level},{row.h:.8g},{row.dofs_u},{row.dofs_p},"
            f"{row.errors.u_l2:.6e},{row.errors.p_h1:.6e},{row.errors.p_l2:.6e},"
            f"{_fmt_eoc(report.eoc_u_l2[k])},{_fmt_eoc(report.eoc_p_h1[k])},"
            f"{_fmt_eoc(report.eoc_p_l2[k])}"
        )
    return "\n".join(lines) + "\n"


def report_to_markdown(report: ConvergenceReport) -> str:
    cfg = report.config
    head = [
        f"# Convergence report (case {report.case if report.case else 'custom'})",
        "",
        f"- orders: velocity {cfg.k_u}, pressure {cfg.k_p}, geometry {cfg.k_g}",
        f"- stabilization: {cfg.stab.value}, tau = {cfg.tau}, alpha = {cfg.alpha}",
        f"- initial grid: {cfg.n_cells0} cells/dim on box {DEFAULT_BOX}",
        f"- surface offset: {tuple(cfg.offset)}",
        "- pressure H1 error uses the tangential discrete gradient",
        "",
        "| k | h | ||e_u|| | EOC | ||e_p||_1 | EOC | ||e_p|| | EOC |",
        "|---|---|---------|-----|-----------|-----|---------|-----|",
    ]
    body = []
    for k, row in enumerate(report.levels):
        body.append(
            f"| {row.level} | {row.h:.4g} | {row.errors.u_l2:.3e} | "
            f"{_fmt_eoc(report.eoc_u_l2[k]) or '--'} | {row.errors.p_h1:.3e} | "
            f"{_fmt_eoc(report.eoc_p_h1[k]) or '--'} | {row.errors.p_l2:.3e} | "
            f"{_fmt_eoc(report.eoc_p_l2[k]) or '--'} |"
        )
    return "\n".join(head + body) + "\n"
