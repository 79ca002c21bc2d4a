import numpy as np
import pytest

import surfcrf as sc
from surfcrf import mesh as mesh_mod
from surfcrf.mesh import MeshError, cotangent_edge_weights, signed_volume

from conftest import cube_mesh, tetrahedron


class TestMeshIO:
    def test_tetrahedron_round_trip(self, tmp_path):
        tet = tetrahedron()
        path = tmp_path / "tet.mesh"
        sc.save_mesh(tet, path)
        back = sc.load_mesh(path)
        assert np.array_equal(back.faces, tet.faces)
        assert np.array_equal(back.vertices, tet.vertices)

    def test_icosphere_round_trip_precision(self, tmp_path):
        ico = sc.icosphere(3)
        path = tmp_path / "ico.mesh"
        sc.save_mesh(ico, path)
        back = sc.load_mesh(path)
        assert np.abs(back.vertices - ico.vertices).max() <= 1e-6

    def test_out_of_range_face_index(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 100\n")
        with pytest.raises(MeshError, match="vertex 100"):
            sc.load_mesh(path)

    def test_non_triangle_face_rejected(self, tmp_path):
        path = tmp_path / "quad.mesh"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshError, match="3 vertices"):
            sc.load_mesh(path)


class TestValidate:
    def test_icosahedron_passes(self):
        ico = sc.icosphere(0)
        report = sc.validate_closed_genus0(ico)
        assert report.ok
        assert (report.n_vertices, report.n_edges, report.n_faces) == (12, 30, 20)

    def test_missing_face_is_boundary(self):
        ico = sc.icosphere(0)
        broken = sc.TriMesh(vertices=ico.vertices, faces=ico.faces[:-1])
        report = sc.validate_closed_genus0(broken)
        assert not report.ok
        assert any("boundary edge" in p for p in report.problems)

    def test_disjoint_components(self):
        a = tetrahedron()
        b = tetrahedron()
        verts = np.concatenate([a.vertices, b.vertices + 10.0])
        faces = np.concatenate([a.faces, b.faces + 4])
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=verts, faces=faces))
        assert not report.ok
        assert any("disconnected" in p for p in report.problems)

    def test_inconsistent_orientation(self):
        ico = sc.icosphere(0)
        faces = ico.faces.copy()
        faces[0] = faces[0][::-1]
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=ico.vertices, faces=faces))
        assert not report.ok
        assert any("orientation" in p for p in report.problems)

    def test_invariant_under_vertex_permutation(self):
        rng = np.random.default_rng(0)
        ico = sc.icosphere(1)
        perm = rng.permutation(len(ico.vertices))
        inv = np.argsort(perm)
        permuted = sc.TriMesh(vertices=ico.vertices[perm], faces=inv[ico.faces])
        assert sc.validate_closed_genus0(permuted).ok


class TestVertexNormals:
    def test_icosphere_radial(self):
        # angle-weighted normals approach the radial direction as the mesh refines
        ico = sc.icosphere(6)
        n = sc.vertex_normals(ico)
        assert np.abs(n - ico.vertices).max() <= 1e-3
        coarse = sc.icosphere(3)
        nc = sc.vertex_normals(coarse)
        assert np.abs(nc - coarse.vertices).max() <= 5e-3

    def test_cube_corner(self):
        cube = cube_mesh()
        n = sc.vertex_normals(cube)
        expect = cube.vertices / np.linalg.norm(cube.vertices, axis=1)[:, None]
        assert np.allclose(np.abs(n), 1 / np.sqrt(3), atol=1e-12)
        assert np.allclose(n, expect, atol=1e-12)

    def test_flipped_orientation_negates(self):
        ico = sc.icosphere(2)
        n = sc.vertex_normals(ico)
        flipped = sc.TriMesh(vertices=ico.vertices, faces=ico.faces[:, ::-1])
        assert np.allclose(sc.vertex_normals(flipped), -n, atol=1e-12)

    def test_degenerate_face_error(self):
        verts = np.asarray([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]], float)
        faces = np.asarray([[0, 1, 2], [0, 1, 1]])
        with pytest.raises(MeshError, match="degenerate face 1"):
            sc.vertex_normals(sc.TriMesh(vertices=verts, faces=faces))


class TestTaubin:
    def test_zero_iterations_identity(self):
        ico = sc.icosphere(2)
        out = sc.taubin_smooth(ico, 0)
        assert np.array_equal(out.vertices, ico.vertices)

    def test_sphere_radius_stable(self):
        ico = sc.icosphere(3, radius=10.0)
        out = sc.taubin_smooth(ico, 10, lam=0.5, mu_shrink=-0.53)
        r0 = np.linalg.norm(ico.vertices, axis=1).mean()
        r1 = np.linalg.norm(out.vertices, axis=1).mean()
        assert abs(r1 - r0) / r0 < 0.01

    def test_noisy_sphere_variance_decreases(self):
        rng = np.random.default_rng(6)
        ico = sc.icosphere(3)
        r_noisy = 1.0 + 0.05 * rng.standard_normal(len(ico.vertices))
        noisy = sc.TriMesh(vertices=ico.vertices * r_noisy[:, None], faces=ico.faces)
        out = sc.taubin_smooth(noisy, 5)
        var0 = np.linalg.norm(noisy.vertices, axis=1).var()
        var1 = np.linalg.norm(out.vertices, axis=1).var()
        assert var1 < var0

    def test_connectivity_unchanged(self):
        ico = sc.icosphere(2)
        out = sc.taubin_smooth(ico, 3)
        assert np.array_equal(out.faces, ico.faces)


class TestHarmonicMap:
    def test_icosphere_fixed_point(self):
        ico = sc.icosphere(3)
        smap = sc.harmonic_sphere_map(ico)
        assert np.abs(smap.positions - ico.vertices).max() <= 1e-3
        assert smap.converged

    def test_line_search_stall_is_not_converged(self, monkeypatch):
        # an energy that rises on every call rejects all 12 halvings of the
        # first step, so the map stalls at its start
        calls = iter(range(10 ** 6))
        monkeypatch.setattr(mesh_mod, "harmonic_energy",
                            lambda edges, weights, phi: float(next(calls)))
        smap = sc.harmonic_sphere_map(sc.icosphere(2))
        assert smap.iterations == 1
        assert len(smap.energy_trace) == 1
        assert not smap.converged

    def test_ellipsoid_invariants(self):
        ico = sc.icosphere(3)
        ell = sc.TriMesh(vertices=ico.vertices * np.array([25.0, 22.0, 25.0]),
                         faces=ico.faces)
        smap = sc.harmonic_sphere_map(ell)
        norms = np.linalg.norm(smap.positions, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6
        a = smap.positions[ell.faces[:, 0]]
        b = smap.positions[ell.faces[:, 1]]
        c = smap.positions[ell.faces[:, 2]]
        trip = np.einsum("ij,ij->i", a, np.cross(b, c))
        assert (trip > 0).all()

    def test_energy_non_increasing(self):
        ico = sc.icosphere(3)
        bumpy = sc.TriMesh(
            vertices=ico.vertices * (1.0 + 0.1 * np.sin(3 * ico.vertices[:, 0]))[:, None],
            faces=ico.faces)
        smap = sc.harmonic_sphere_map(bumpy)
        diffs = np.diff(smap.energy_trace)
        assert (diffs <= 1e-9).all()

    def test_rejects_open_mesh(self):
        ico = sc.icosphere(1)
        broken = sc.TriMesh(vertices=ico.vertices, faces=ico.faces[:-1])
        with pytest.raises(MeshError, match="genus-0"):
            sc.harmonic_sphere_map(broken)

    def test_cotangent_weights_positive_on_sphere(self):
        ico = sc.icosphere(2)
        edges, weights, clamped = cotangent_edge_weights(ico)
        assert clamped == 0
        assert (weights > 0).all()
        assert len(edges) == 480  # E = 30 * 4^2 for subdivided icosahedron

    def test_energy_decreases_from_start(self):
        ico = sc.icosphere(2)
        ell = sc.TriMesh(vertices=ico.vertices * np.array([2.0, 1.0, 1.0]), faces=ico.faces)
        smap = sc.harmonic_sphere_map(ell)
        assert smap.energy_trace[-1] < smap.energy_trace[0]


def test_signed_volume_cube():
    cube = cube_mesh(side=2.0)
    assert signed_volume(cube) == pytest.approx(8.0, rel=1e-12)


def test_cotangent_clamping_recorded():
    # a badly stretched mesh has obtuse triangles -> negative cotangents are
    # clamped and the count is reported on the map
    rng = np.random.default_rng(7)
    ico = sc.icosphere(2)
    stretched = ico.vertices * np.array([30.0, 3.0, 30.0])
    stretched += rng.normal(0, 0.4, stretched.shape)
    mesh = sc.TriMesh(vertices=stretched, faces=ico.faces)
    edges, weights, clamped = cotangent_edge_weights(mesh)
    assert clamped > 0
    assert (weights >= 0).all()
