import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from surfdarcy.geometry import Torus
from surfdarcy.mesh import (
    MeshError,
    build_background,
    extract_active,
    refine_uniform,
)

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def _tet_signed_volumes(mesh):
    v = mesh.vertices[mesh.tets]
    edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=1)
    return np.linalg.det(edges) / 6.0


class TestBuildBackground:
    def test_single_cube(self):
        mesh = build_background(UNIT_BOX, 1)
        assert len(mesh.vertices) == 8
        assert len(mesh.tets) == 6
        assert _tet_signed_volumes(mesh).sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_cells_per_dim(self):
        mesh = build_background(UNIT_BOX, 2)
        assert len(mesh.vertices) == 27
        assert len(mesh.tets) == 48

    def test_paper_initial_mesh_size(self):
        mesh = build_background(n_cells=14)
        assert mesh.h == pytest.approx(3.3 / 14)
        assert round(mesh.h, 2) == 0.24

    def test_positive_orientation(self):
        mesh = build_background(UNIT_BOX, 3)
        assert np.all(_tet_signed_volumes(mesh) > 0)

    def test_volume_partition(self):
        mesh = build_background(((-1.65, 1.65),) * 3, 4)
        total = _tet_signed_volumes(mesh).sum()
        assert total == pytest.approx(3.3**3, rel=1e-10)

    def test_determinism(self):
        a = build_background(UNIT_BOX, 3)
        b = build_background(UNIT_BOX, 3)
        npt.assert_array_equal(a.tets, b.tets)
        npt.assert_array_equal(a.vertices, b.vertices)

    def test_invalid_inputs(self):
        with pytest.raises(MeshError):
            build_background(UNIT_BOX, 0)
        with pytest.raises(MeshError):
            build_background(((0, 0), (0, 1), (0, 1)), 2)
        with pytest.raises(MeshError):
            build_background(UNIT_BOX, 5000)

    def test_facets_conform_across_cubes(self):
        # every interior triangular facet must be shared by exactly two tets
        mesh = build_background(UNIT_BOX, 2)
        faces = {}
        for tet in mesh.tets:
            for skip in range(4):
                face = tuple(sorted(np.delete(tet, skip)))
                faces[face] = faces.get(face, 0) + 1
        counts = np.array(list(faces.values()))
        assert set(counts.tolist()) <= {1, 2}
        # interior faces: total faces 4*ntets, boundary faces on the cube hull
        assert (counts == 2).sum() * 2 + (counts == 1).sum() == 4 * len(mesh.tets)


class TestRefine:
    def test_h_halves_exactly(self):
        mesh = build_background(n_cells=14)
        fine = refine_uniform(mesh)
        assert fine.h == mesh.h / 2
        assert fine.n_cells == 28

    def test_volume_conserved(self):
        mesh = build_background(UNIT_BOX, 2)
        fine = refine_uniform(mesh)
        assert _tet_signed_volumes(fine).sum() == pytest.approx(1.0, rel=1e-10)

    def test_four_refinements_match_paper_level4(self):
        mesh = build_background(n_cells=14)
        for _ in range(4):
            mesh = refine_uniform(mesh)
        assert mesh.n_cells == 224

    def test_matches_direct_build(self):
        fine = refine_uniform(build_background(UNIT_BOX, 2))
        direct = build_background(UNIT_BOX, 4)
        npt.assert_array_equal(fine.tets, direct.tets)
        npt.assert_array_equal(fine.vertices, direct.vertices)


class TestExtractActive:
    def test_plane_cut(self):
        mesh = build_background(((-1.0, 1.0),) * 3, 2)
        phi = mesh.vertices[:, 2]  # plane z = 0
        active = extract_active(mesh, phi)
        crossing = 0
        for tet in mesh.tets:
            z = mesh.vertices[tet][:, 2]
            pos = z >= 0
            if 0 < pos.sum() < 4:
                crossing += 1
        assert len(active) == crossing

    def test_torus_active_strictly_between(self):
        mesh = build_background(n_cells=14)
        torus = Torus()
        active = extract_active(mesh, torus.signed_distance(mesh.vertices))
        assert 0 < len(active) < len(mesh.tets)

    def test_active_growth_factor(self):
        torus = Torus()
        mesh = build_background(n_cells=14)
        counts = []
        for level in range(4):
            if level > 0:
                mesh = refine_uniform(mesh)
            active = extract_active(mesh, torus.signed_distance(mesh.vertices))
            counts.append(len(active))
        for k in (2, 3):
            ratio = counts[k] / counts[k - 1]
            assert 3.0 <= ratio <= 5.0

    def test_volumes_are_the_kuhn_tets_computed_once(self):
        mesh = build_background(n_cells=14)
        active = extract_active(mesh, Torus().signed_distance(mesh.vertices))
        npt.assert_allclose(active.volumes, _tet_signed_volumes(mesh)[active.active_tets])
        npt.assert_allclose(active.volumes, mesh.h**3 / 6.0, rtol=1e-12)
        assert active.volumes is active.volumes

    def test_active_mesh_owns_its_vertices(self):
        # the active mesh's vertices are the used background vertices in
        # increasing global id, each used, and its tets index them
        mesh = refine_uniform(build_background(n_cells=14))
        active = extract_active(mesh, Torus().signed_distance(mesh.vertices))
        global_tets = mesh.tets[active.active_tets]
        npt.assert_array_equal(active.tet_vertices, mesh.vertices[global_tets])
        n1 = mesh.n_cells + 1
        lo = np.array([lo for lo, _ in mesh.box])
        i, j, k = np.rint((active.vertices - lo) / mesh.h).astype(np.int64).T
        ids = (i * n1 + j) * n1 + k
        assert np.all(np.diff(ids) > 0)
        npt.assert_array_equal(mesh.vertices[ids], active.vertices)
        npt.assert_array_equal(ids[active.tets], global_tets)
        npt.assert_array_equal(np.unique(active.tets), np.arange(len(active.vertices)))
        assert active.h == mesh.h

    def test_active_mesh_keeps_no_background_mesh_alive(self):
        mesh = build_background(n_cells=14)
        active = extract_active(mesh, Torus().signed_distance(mesh.vertices))
        background = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert background() is None
        assert len(active) > 0

    def test_not_resolved_raises(self):
        mesh = build_background(UNIT_BOX, 2)
        with pytest.raises(MeshError, match="not resolved"):
            extract_active(mesh, np.ones(len(mesh.vertices)))
        with pytest.raises(MeshError):
            extract_active(mesh, -np.ones(len(mesh.vertices)))

    def test_zero_values_count_positive(self):
        mesh = build_background(UNIT_BOX, 1)
        phi = np.zeros(8)
        with pytest.raises(MeshError):
            extract_active(mesh, phi)  # all-positive: nothing active

    def test_wrong_length_raises(self):
        mesh = build_background(UNIT_BOX, 1)
        with pytest.raises(MeshError):
            extract_active(mesh, np.zeros(5))

    def test_translation_consistency(self):
        # shifting the surface by one full cell spacing shifts the active set
        torus = Torus()
        mesh = refine_uniform(build_background(n_cells=14))  # level 1
        h = mesh.h
        base = extract_active(mesh, torus.signed_distance(mesh.vertices))
        moved = extract_active(mesh, Torus(center=(h, 0, 0)).signed_distance(mesh.vertices))
        n1 = mesh.n_cells + 1
        # tet index -> cube (i, j, k) plus split index; shift i by one
        cube_base, split = np.divmod(base.active_tets, 6)
        i, rem = np.divmod(cube_base, mesh.n_cells**2)
        shifted = (i + 1) * mesh.n_cells**2 + rem
        expected = shifted * 6 + split
        npt.assert_array_equal(np.sort(expected), moved.active_tets)
