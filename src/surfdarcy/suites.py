"""Property-check suites: manufactured-solution residuals, measured geometric
approximation rates, stability-lemma ratio boundedness, and robustness of the
solve with respect to how the surface cuts the background mesh.

Each suite returns a SuiteResult with per-check messages; the CLI `check`
command is a thin shell over these functions and the acceptance tests reuse
them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fe_space
from .assembly import (
    AssemblyParams,
    Stabilization,
    assemble,
    assemble_bulk_mass,
    assemble_stabilization,
    assemble_surface_mass,
    assemble_surface_stiffness,
    surface_load_vector,
)
from .cut_surface import build_surface
from .geometry import fd_gradient
from .mesh import build_background, extract_active, refine_uniform
from .solver import estimate_condition, factorize, solve
from .verification import CaseConfig, ManufacturedSolution

__all__ = [
    "SuiteResult",
    "manufactured_residual_suite",
    "geometric_rate_suite",
    "lemma_ratio_suite",
    "positioning_suite",
]


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def check(self, ok: bool, message: str):
        self.passed = self.passed and bool(ok)
        self.lines.append(f"{'PASS' if ok else 'FAIL'}: {message}")


def manufactured_residual_suite(offset=(0.0, 0.0, 0.0), seed: int = 0) -> SuiteResult:
    """Mesh-free consistency checks of the closed-form solution."""
    result = SuiteResult("manufactured-solution residuals")
    exact = ManufacturedSolution(offset=offset)
    rng = np.random.default_rng(seed)
    pts = exact.random_surface_points(100, rng)
    surface = exact.surface

    normals = surface.surface_normal(pts)
    u = exact.velocity(pts)
    un = np.abs(np.einsum("nx,nx->n", u, normals)).max()
    result.check(un <= 1e-10, f"velocity tangential: max |u.n| = {un:.3e} <= 1e-10")

    g = exact.g_field(pts)
    gn = np.abs(np.einsum("nx,nx->n", g, normals)).max()
    result.check(gn <= 1e-10, f"forcing tangential: max |g.n| = {gn:.3e} <= 1e-10")

    # momentum residual with a finite-difference extension gradient of p
    grad_pe = fd_gradient(lambda q: exact.pressure(q), pts)
    proj = grad_pe - np.einsum("nx,nx->n", grad_pe, normals)[:, None] * normals
    res = np.linalg.norm(u + proj - g, axis=1).max()
    result.check(res <= 1e-8, f"momentum residual: max |u + grad_S p - g| = {res:.3e} <= 1e-8")

    div_pts = exact.random_surface_points(20, rng)
    divs = surface.surface_divergence_fd(exact.velocity, div_pts)
    dmax = np.abs(divs).max()
    result.check(dmax <= 1e-5, f"velocity divergence-free: max |div_S u| = {dmax:.3e} <= 1e-5")
    return result


def geometric_rate_suite(
    offset=(0.0, 0.0, 0.0),
    levels=(1, 2, 3),
    orders=(1, 2),
    n_cells0: int = 14,
    box=None,
) -> SuiteResult:
    """Observed orders of the surface distance and normal errors."""
    from .mesh import DEFAULT_BOX

    result = SuiteResult("geometric approximation rates")
    box = DEFAULT_BOX if box is None else box
    exact = ManufacturedSolution(offset=offset)
    surface = exact.surface
    meshes = {}
    mesh = build_background(box, n_cells0)
    meshes[0] = mesh
    for k in range(1, max(levels) + 1):
        mesh = refine_uniform(mesh)
        meshes[k] = mesh

    for k_g in orders:
        hs, dist, nerr = [], [], []
        for level in levels:
            mesh = meshes[level]
            active = extract_active(mesh, surface.signed_distance(mesh.vertices))
            ds = build_surface(active, surface, k_g=k_g, quad_degree=4)
            hs.append(mesh.h)
            dist.append(ds.max_distance())
            nerr.append(ds.max_normal_error())
        order_dist = np.polyfit(np.log(hs), np.log(dist), 1)[0]
        order_normal = np.polyfit(np.log(hs), np.log(nerr), 1)[0]
        result.check(
            abs(order_dist - (k_g + 1)) <= 0.3,
            f"k_g={k_g}: distance order {order_dist:.2f} within {k_g + 1} +- 0.3",
        )
        result.check(
            abs(order_normal - k_g) <= 0.3,
            f"k_g={k_g}: normal order {order_normal:.2f} within {k_g} +- 0.3",
        )
    return result


def _lemma_ratios(active, surface, h, stab_kind, tau, alpha, n_samples, rng):
    """Max measured ratios over random P1 coefficient vectors."""
    space = fe_space.build_space(active, 1)
    mass_bulk = assemble_bulk_mass(space, active)
    ds = build_surface(active, surface, k_g=1, quad_degree=4)
    mass_surf = assemble_surface_mass(space, ds)
    stiff_tan = assemble_surface_stiffness(space, ds, tangential=True)
    stab = assemble_stabilization(
        space, active, surface, stab_kind, tau, alpha, h, k_g=1
    )
    load = surface_load_vector(space, ds)
    area = ds.total_area

    scaled_l2 = 0.0
    poincare = 0.0
    n = space.global_dofs
    for _ in range(n_samples):
        v = rng.standard_normal(n)
        bulk = v @ (mass_bulk @ v)
        surf = v @ (mass_surf @ v)
        s = v @ (stab @ v)
        scaled_l2 = max(scaled_l2, (bulk / h) / (surf + s))
        mean = (load @ v) / area
        centered = surf - 2.0 * mean * (load @ v) + mean**2 * area
        tan = v @ (stiff_tan @ v)
        if tan > 1e-14 * surf:
            poincare = max(poincare, np.sqrt(max(centered, 0.0) / tan))
    return scaled_l2, poincare


def lemma_ratio_suite(
    offset=(0.0, 0.0, 0.0),
    levels=(1, 2, 3),
    n_samples: int = 30,
    tau: float = 0.1,
    alpha: float = 2.0,
    seed: int = 0,
    growth: float = 1.5,
) -> SuiteResult:
    """Scaled bulk-L2 control and surface Poincare ratios across levels."""
    from .mesh import DEFAULT_BOX, DEFAULT_N_CELLS

    result = SuiteResult("stability-lemma ratios")
    exact = ManufacturedSolution(offset=offset)
    surface = exact.surface
    mesh = build_background(DEFAULT_BOX, DEFAULT_N_CELLS)
    meshes = {0: mesh}
    for k in range(1, max(levels) + 1):
        mesh = refine_uniform(mesh)
        meshes[k] = mesh

    for kind in (Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT):
        rng = np.random.default_rng(seed)
        scaled = {}
        poin = {}
        for level in levels:
            mesh = meshes[level]
            active = extract_active(mesh, surface.signed_distance(mesh.vertices))
            scaled[level], poin[level] = _lemma_ratios(
                active, surface, mesh.h, kind, tau, alpha, n_samples, rng
            )
        first, last = levels[0], levels[-1]
        result.check(
            scaled[last] <= growth * scaled[first],
            f"{kind.value}: scaled-L2 ratio {scaled[first]:.3g} -> {scaled[last]:.3g} "
            f"(growth <= {growth})",
        )
        result.check(
            poin[last] <= growth * poin[first],
            f"{kind.value}: Poincare ratio {poin[first]:.3g} -> {poin[last]:.3g} "
            f"(growth <= {growth})",
        )
    return result


def positioning_suite(
    level: int = 2,
    n_translations: int = 20,
    tau: float = 0.1,
    alpha: float = 2.0,
    seed: int = 0,
    spread_limit: float = 100.0,
) -> SuiteResult:
    """Random sub-cell surface translations: solvability and conditioning."""
    from .mesh import DEFAULT_BOX, DEFAULT_N_CELLS

    result = SuiteResult("surface-positioning robustness")
    mesh = build_background(DEFAULT_BOX, DEFAULT_N_CELLS)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, mesh.h, size=(n_translations, 3))

    for kind in (Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT):
        conditions = []
        max_rel_residual = 0.0
        for delta in offsets:
            exact = ManufacturedSolution(offset=tuple(delta))
            surface = exact.surface
            active = extract_active(mesh, surface.signed_distance(mesh.vertices))
            ds = build_surface(active, surface, k_g=1, quad_degree=4)
            vspace = fe_space.build_space(active, 1)
            pspace = fe_space.build_space(active, 1)
            system = assemble(
                (vspace, pspace),
                ds,
                active,
                surface,
                (exact.f_field, exact.g_field),
                AssemblyParams(stab=kind, tau=tau, alpha=alpha),
            )
            # one factorization serves both the solve and the estimate
            lu = factorize(system)
            solution = solve(lu)
            rel = solution.residual_norm / np.linalg.norm(system.rhs)
            max_rel_residual = max(max_rel_residual, rel)
            conditions.append(estimate_condition(lu, seed=seed))
            # two live factors would raise the peak memory from 108 to 175 MB
            del lu
        spread = max(conditions) / min(conditions)
        result.check(
            max_rel_residual < 1e-9,
            f"{kind.value}: all {n_translations} solves, max relative residual "
            f"{max_rel_residual:.3e} < 1e-9",
        )
        result.check(
            spread < spread_limit,
            f"{kind.value}: condition spread {spread:.3g} < {spread_limit}",
        )
    return result
