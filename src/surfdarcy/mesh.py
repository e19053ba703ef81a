"""Structured tetrahedral background meshes and active-mesh extraction.

The background mesh splits every grid cube into 6 positively oriented
tetrahedra around the cube's main diagonal (Kuhn split), which is
translation-invariant and therefore conforming across cube faces and stable
under uniform refinement.  The active mesh keeps exactly the tetrahedra on
which the vertex-interpolated level set changes sign, so the extracted
discrete surface is covered by active cells by construction.  It holds its
own copy of the vertices those tets use, numbered in the background mesh's
order, and its tets index them; nothing built on it reads the background
mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .shapes import barycentric_gradients

__all__ = [
    "BackgroundMesh",
    "ActiveMesh",
    "build_background",
    "refine_uniform",
    "extract_active",
    "MeshError",
    "DEFAULT_BOX",
    "DEFAULT_N_CELLS",
]

DEFAULT_BOX = ((-1.65, 1.65), (-1.65, 1.65), (-1.65, 1.65))
DEFAULT_N_CELLS = 14

# Kuhn split: for each permutation p of the axes, the tet walks the cube from
# corner (0,0,0) to (1,1,1) adding unit steps in the order p.  Odd
# permutations get their last two vertices swapped for positive orientation.
_KUHN_PERMS = sorted(permutations(range(3)))


class MeshError(ValueError):
    pass


def _cube_tet_offsets():
    """(6, 4, 3) integer vertex offsets of the 6 Kuhn tets in one cube."""
    offsets = np.zeros((6, 4, 3), dtype=np.int64)
    for t, perm in enumerate(_KUHN_PERMS):
        corner = np.zeros(3, dtype=np.int64)
        verts = [corner.copy()]
        for axis in perm:
            corner = corner.copy()
            corner[axis] += 1
            verts.append(corner)
        parity = _perm_parity(perm)
        if parity < 0:
            verts[2], verts[3] = verts[3], verts[2]
        offsets[t] = verts
    return offsets


def _perm_parity(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


_TET_OFFSETS = _cube_tet_offsets()


@dataclass(frozen=True)
class BackgroundMesh:
    box: tuple
    n_cells: int
    vertices: np.ndarray  # ((n+1)^3, 3), lexicographic by (i, j, k)
    tets: np.ndarray  # (6 n^3, 4) vertex indices, positively oriented
    h: float  # cube edge length


@dataclass(frozen=True)
class ActiveMesh:
    h: float
    active_tets: np.ndarray  # sorted tet ids in the background mesh
    vertices: np.ndarray  # (nv, 3) the vertices they use, by increasing background id
    tets: np.ndarray  # (n_active, 4) indices into vertices

    @classmethod
    def of(cls, mesh: BackgroundMesh, ids) -> ActiveMesh:
        """The tets `ids` (sorted) of `mesh`, with their vertices numbered
        in the background mesh's order."""
        used, local = np.unique(mesh.tets[ids], return_inverse=True)
        return cls(
            h=mesh.h,
            active_tets=ids,
            vertices=mesh.vertices[used],
            tets=local.reshape(len(ids), 4),
        )

    @property
    def tet_vertices(self):
        """(n_active, 4, 3) coordinates of the active tets."""
        return self.vertices[self.tets]

    @cached_property
    def lam_grads(self):
        """(n_active, 4, 3) gradients of the barycentric coordinates of the
        active tets, computed once per active mesh for all its spaces."""
        return barycentric_gradients(self.tet_vertices)

    @cached_property
    def volumes(self):
        """(n_active,) volumes of the active tets, computed once per active
        mesh for the bulk mass and every stabilization assembled on it."""
        v = self.tet_vertices
        edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=1)
        return np.abs(np.linalg.det(edges)) / 6.0

    def __len__(self):
        return len(self.active_tets)


def build_background(box=DEFAULT_BOX, n_cells: int = DEFAULT_N_CELLS) -> BackgroundMesh:
    """Uniform n x n x n cube grid over `box`, each cube split into 6 tets."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if n_cells < 1:
        raise MeshError("n_cells must be >= 1")
    extents = [hi - lo for lo, hi in box]
    if min(extents) <= 0.0:
        raise MeshError("degenerate box")
    if max(abs(e - extents[0]) for e in extents) > 1e-12 * extents[0]:
        raise MeshError("box must be a cube (uniform h in all directions)")
    n1 = n_cells + 1
    if n1**3 > 2**31 - 1:
        raise MeshError("n_cells too large: vertex indices overflow")

    h = extents[0] / n_cells
    coords = [lo + np.arange(n1) * h for lo, _ in box]
    gi, gj, gk = np.meshgrid(np.arange(n1), np.arange(n1), np.arange(n1), indexing="ij")
    vertices = np.stack(
        [coords[0][gi.ravel()], coords[1][gj.ravel()], coords[2][gk.ravel()]], axis=1
    )

    ci, cj, ck = np.meshgrid(
        np.arange(n_cells, dtype=np.int32),
        np.arange(n_cells, dtype=np.int32),
        np.arange(n_cells, dtype=np.int32),
        indexing="ij",
    )
    base = (ci.ravel(), cj.ravel(), ck.ravel())
    tets = np.empty((len(base[0]), 6, 4), dtype=np.int32)
    for t in range(6):
        for v in range(4):
            di, dj, dk = _TET_OFFSETS[t, v]
            tets[:, t, v] = ((base[0] + di) * n1 + (base[1] + dj)) * n1 + (base[2] + dk)
    tets = tets.reshape(-1, 4)
    return BackgroundMesh(box=box, n_cells=n_cells, vertices=vertices, tets=tets, h=h)


def refine_uniform(mesh: BackgroundMesh) -> BackgroundMesh:
    """Halve the mesh size; identical to rebuilding with doubled n_cells."""
    return build_background(mesh.box, 2 * mesh.n_cells)


def extract_active(mesh: BackgroundMesh, phi_values) -> ActiveMesh:
    """Keep the tets whose vertex level-set values straddle zero.

    A vertex value of exactly 0 counts as positive, so the marching-tet
    facets of the vertex interpolant live exactly on the active tets.
    """
    phi = np.asarray(phi_values, dtype=float)
    if phi.shape != (len(mesh.vertices),):
        raise MeshError("phi_values must hold one value per mesh vertex")
    if not np.all(np.isfinite(phi)):
        raise MeshError("non-finite level-set values")
    positive = phi >= 0.0
    pos_count = positive[mesh.tets].sum(axis=1)
    active = np.flatnonzero((pos_count > 0) & (pos_count < 4)).astype(np.int64)
    if len(active) == 0 or len(active) == len(mesh.tets):
        raise MeshError("surface not resolved / not inside box")
    return ActiveMesh.of(mesh, active)
