"""Spans and counts recorded around the program's public functions.

The tracer replaces each public name in the namespace of the module that
calls it (for example `surfdarcy.verification.build_surface`) by a wrapper
that records a span, and puts every original back when it is removed.  No
program file changes.  Spans are kept in memory; `dump` writes them out once.

A span's layer is the part of its name before the first dot.  The layers are
the package's modules; `bench` is the benchmark's own round span, whose self
time is the part of the round no program span covers.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = (
    "mesh",
    "geometry",
    "cut_surface",
    "fe_space",
    "assembly",
    "solver",
    "verification",
    "vtk_io",
    "cli",
    "suites",
)

ROUND = "bench.round"

# per-layer time metrics: inclusive time of the named spans
INCLUSIVE = {
    "mesh.build_s": ("mesh.build_background", "mesh.refine_uniform"),
    "mesh.extract_active_s": ("mesh.extract_active",),
    "geometry.project_s": ("geometry.closest_point",),
    "cut_surface.build_s": ("cut_surface.build_surface",),
    "cut_surface.requadrature_s": ("cut_surface.with_quadrature",),
    "fe_space.build_s": ("fe_space.build_space",),
    "fe_space.tabulate_s": ("fe_space.tabulate",),
    "assembly.stabilization_s": ("assembly.assemble_stabilization",),
    "solver.solve_s": ("solver.solve",),
    "solver.condition_s": ("solver.estimate_condition",),
    "solver.factor_s": ("solver.splu",),
    "verification.run_level_s": ("verification.run_level",),
    "verification.errors_s": ("verification.compute_errors", "verification.tangency_defect"),
    "vtk_io.export_s": ("vtk_io.export_surface", "vtk_io.export_active_mesh"),
}
# per-layer time metrics: self time of the named spans
SELF = {"assembly.assemble_s": ("assembly.assemble",)}
COUNTS = (
    "geometry.projected_points",
    "cut_surface.cells",
    "fe_space.tabulated_points",
    "assembly.matrix_nnz",
    "solver.factorizations",
    "solver.factor_fill_nnz",
    "vtk_io.bytes_written",
)


def _n_points(x):
    shape = np.shape(x)
    return 1 if len(shape) == 1 else int(shape[0])


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = []  # one dict per round span
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, key, value):
        if self.counts:
            self.counts[-1][key] += value

    def run_round(self, entry, fn, *args, **kwargs):
        """One round: a root span around one call of the program's entry point."""
        self.counts.append(defaultdict(int))
        self._open(ROUND)
        try:
            self._open(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        finally:
            self._close()

    # -- installing --------------------------------------------------------

    def wrap(self, owner, attr, name, counter=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self):
        from surfdarcy import (
            assembly,
            cli,
            fe_space,
            geometry,
            solver,
            suites,
            verification,
            vtk_io,
        )

        def projected(t, a, kw, _):
            t.count("geometry.projected_points", _n_points(a[1] if len(a) > 1 else kw["x"]))

        def tabulated(t, a, kw, _):
            t.count("fe_space.tabulated_points", _n_points(a[2] if len(a) > 2 else kw["points"]))

        def cells(t, a, kw, ds):
            t.count("cut_surface.cells", int(ds.n_cells))

        def nnz(t, a, kw, system):
            t.count("assembly.matrix_nnz", int(system.matrix.nnz))

        def factor(t, a, kw, lu):
            t.count("solver.factorizations", 1)
            t.count("solver.factor_fill_nnz", int(lu.nnz))

        def written(t, a, kw, _):
            t.count("vtk_io.bytes_written", os.path.getsize(a[0] if a else kw["path"]))

        for module in (cli, verification, suites):
            self.wrap(module, "build_background", "mesh.build_background")
            self.wrap(module, "refine_uniform", "mesh.refine_uniform")
        for module in (verification, suites):
            self.wrap(module, "extract_active", "mesh.extract_active")
            self.wrap(module, "build_surface", "cut_surface.build_surface", cells)
            self.wrap(module, "assemble", "assembly.assemble", nnz)
            self.wrap(module, "solve", "solver.solve")

        surface = geometry.ImplicitSurface
        self.wrap(surface, "closest_point", "geometry.closest_point", projected)
        self.wrap(surface, "signed_distance", "geometry.signed_distance")
        self.wrap(surface, "surface_normal", "geometry.surface_normal")

        self.wrap(verification, "with_quadrature", "cut_surface.with_quadrature")
        self.wrap(verification, "surface_mean", "cut_surface.surface_mean")
        self.wrap(vtk_io, "sample_cells", "cut_surface.sample_cells")

        self.wrap(fe_space, "build_space", "fe_space.build_space")
        self.wrap(fe_space, "tabulate", "fe_space.tabulate", tabulated)
        self.wrap(fe_space, "evaluate", "fe_space.evaluate")

        self.wrap(assembly, "assemble_stabilization", "assembly.assemble_stabilization")
        self.wrap(assembly, "surface_load_vector", "assembly.surface_load_vector")

        self.wrap(suites, "estimate_condition", "solver.estimate_condition")
        # SciPy's splu as surfdarcy.solver calls it, through its own `spla` name
        spla = types.ModuleType(solver.spla.__name__)
        spla.__dict__.update(vars(solver.spla))
        self._restore.append((solver, "spla", solver.spla))
        solver.spla = spla
        self.wrap(spla, "splu", "solver.splu", factor)

        self.wrap(cli, "run_case", "verification.run_case")
        self.wrap(cli, "run_level", "verification.run_level")
        self.wrap(verification, "run_level", "verification.run_level")
        self.wrap(verification, "compute_errors", "verification.compute_errors")
        self.wrap(verification, "tangency_defect", "verification.tangency_defect")
        self.wrap(cli, "report_to_csv", "verification.report_to_csv")
        self.wrap(cli, "report_to_markdown", "verification.report_to_markdown")

        self.wrap(vtk_io, "export_surface", "vtk_io.export_surface", written)
        self.wrap(vtk_io, "export_active_mesh", "vtk_io.export_active_mesh", written)
        self.wrap(vtk_io, "surface_node_points", "vtk_io.surface_node_points")

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def round_metrics(self):
        """Per-layer metrics of each round, in round order."""
        children = defaultdict(list)
        roots = []
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
            elif name == ROUND:
                roots.append(i)

        def duration(i):
            return self.spans[i][2] - self.spans[i][1]

        rounds = []
        for root, counts in zip(roots, self.counts):
            inclusive = defaultdict(float)
            own = defaultdict(float)
            layers = defaultdict(float)
            n_spans = 0
            # depth-first, carrying the names open above each span so that a
            # span nested in one of the same name is not counted twice
            todo = [(root, frozenset())]
            while todo:
                i, above = todo.pop()
                n_spans += 1
                name = self.spans[i][0]
                self_time = duration(i) - sum(duration(c) for c in children[i])
                own[name] += self_time
                layers[name.split(".", 1)[0]] += self_time
                if name not in above:
                    inclusive[name] += duration(i)
                todo.extend((c, above | {name}) for c in children[i])
            metrics = {}
            for key, names in INCLUSIVE.items():
                metrics[key] = sum(inclusive[n] for n in names)
            for key, names in SELF.items():
                metrics[key] = sum(own[n] for n in names)
            for key in COUNTS:
                metrics[key] = counts.get(key, 0)
            for layer in LAYERS:
                metrics[f"{layer}.self_s"] = layers[layer]
            metrics["trace.unattributed_s"] = layers["bench"]
            metrics["trace.wall_s"] = duration(root)
            metrics["trace.spans"] = n_spans
            rounds.append(metrics)
        return rounds

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": [dict(c) for c in self.counts],
                },
                handle,
            )
