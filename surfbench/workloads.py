"""The benchmark's workloads: inputs made from the seed, one round of work
through the program's own entry points, the size of the distinct problems a
round asks for, and the checks on what it produced.

Each workload runs as a closed loop with a single caller: a round starts
when the previous one has returned.
"""

from __future__ import annotations

import numpy as np

import checks
from surfdarcy import cli, suites
from surfdarcy.fe_space import build_space
from surfdarcy.mesh import (
    DEFAULT_BOX,
    DEFAULT_N_CELLS,
    build_background,
    extract_active,
    refine_uniform,
)
from surfdarcy.solver import SingularSystemError
from surfdarcy.verification import ManufacturedSolution

# what the CLI itself counts as a numerical failure
NUMERICAL_FAILURES = (SingularSystemError, np.linalg.LinAlgError, ArithmeticError)


class RoundFailed(RuntimeError):
    pass


class Converge:
    """`surfdarcy converge` on levels 0..levels of one case, with the torus
    shifted by a sub-cell offset drawn from the seed."""

    entry = "cli.main"

    def __init__(self, case, levels, n_cells0, export):
        self.case = case
        self.levels = levels
        self.n_cells0 = n_cells0
        self.export = export
        self.problems = levels + 1

    def inputs(self, seed, outdir):
        # Any position of the torus relative to the grid is reached by a
        # shift within half a coarse cell either way, and |offset| <= h0 / 2
        # keeps the torus (extent 1.5) inside the box (half-width 1.65), so
        # the discrete surface stays closed.
        h0 = (DEFAULT_BOX[0][1] - DEFAULT_BOX[0][0]) / self.n_cells0
        offset = np.random.default_rng(seed).uniform(-0.5 * h0, 0.5 * h0, size=3)
        argv = [
            "converge",
            "--case", str(self.case),
            "--levels", str(self.levels),
            "--ncells0", str(self.n_cells0),
            # the "=" form, since a leading minus sign would read as an option
            "--offset=" + ",".join(repr(float(c)) for c in offset),
            "--csv", str(outdir / "converge.csv"),
        ]  # fmt: skip
        if self.export:
            argv += ["--vtk-dir", str(outdir / "vtk")]
        return {"offset": offset, "argv": argv, "outdir": outdir}

    def run(self, inputs):
        code = cli.main(inputs["argv"])
        if code != 0:
            raise RoundFailed(f"surfdarcy converge exited with {code}")

    def check(self, inputs, _):
        rows = checks.read_report(inputs["outdir"] / "converge.csv")
        out = checks.check_report(rows, self.case, self.levels)
        if self.export and len(rows) == self.levels + 1:
            finest = rows[-1]
            vtk = inputs["outdir"] / "vtk"
            points, data = checks.read_vtk(
                vtk / f"surface_case{self.case}_level{self.levels}.vtk"
            )
            out += checks.check_surface_export(
                points, data, inputs["offset"], finest["h"], finest
            )
            mesh_points, _ = checks.read_vtk(
                vtk / f"active_mesh_case{self.case}_level{self.levels}.vtk"
            )
            out.append((len(mesh_points) > 0, f"active mesh has {len(mesh_points)} points"))
        return out

    def unknowns(self, inputs):
        """Summed system size over the levels, one per level, as reported."""
        rows = checks.read_report(inputs["outdir"] / "converge.csv")
        return int(sum(r["dofs_u"] + r["dofs_p"] + 1 for r in rows))


class Positioning:
    """`positioning_suite`: seeded sub-cell translations of the torus on one
    background mesh, each solved and condition-estimated under both
    stabilizations."""

    entry = "suites.positioning_suite"

    def __init__(self, level, n_translations):
        self.level = level
        self.n_translations = n_translations
        self.problems = 2 * n_translations

    def inputs(self, seed, outdir):
        return {"seed": int(seed), "outdir": outdir}

    def run(self, inputs):
        return suites.positioning_suite(
            level=self.level, n_translations=self.n_translations, seed=inputs["seed"]
        )

    def check(self, inputs, result):
        (inputs["outdir"] / "positioning.txt").write_text("\n".join(result.lines) + "\n")
        return checks.check_positioning(result.passed, result.lines, self.n_translations)

    def unknowns(self, inputs):
        """Summed size of the 2 x n_translations systems, counted from the
        same translations the suite draws from its seed."""
        mesh = build_background(DEFAULT_BOX, DEFAULT_N_CELLS)
        for _ in range(self.level):
            mesh = refine_uniform(mesh)
        rng = np.random.default_rng(inputs["seed"])
        total = 0
        for delta in rng.uniform(0.0, mesh.h, size=(self.n_translations, 3)):
            surface = ManufacturedSolution(offset=tuple(delta)).surface
            active = extract_active(mesh, surface.signed_distance(mesh.vertices))
            total += 4 * build_space(active, 1).global_dofs + 1  # 3 u + p + multiplier
        return 2 * total


WORKLOADS = {
    # case 1 (P1/P1/P1, full gradient) on the paper's 14-cell grid, levels 0-1,
    # with the VTK export of the finest level
    "converge-p1-export": Converge(case=1, levels=1, n_cells0=14, export=True),
    # case 6 (P1/P2/P2, normal gradient), levels 0-1 on a 12-cell grid: the
    # finest system (21,000-22,500 unknowns) takes the nested-dissection path
    "converge-p2-normal": Converge(case=6, levels=1, n_cells0=12, export=False),
    # 6 translations x 2 stabilizations of ~3,500 unknowns each
    "positioning-sweep": Positioning(level=0, n_translations=6),
}
