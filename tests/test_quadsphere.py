import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

import surfcrf as sc
from surfcrf import quadsphere
from surfcrf.quadsphere import LocateError, save_arrays


class TestBuildQuadsphere:
    @pytest.mark.parametrize("level", range(7))
    def test_counts(self, level):
        qs = sc.build_quadsphere(level)
        n = 2 ** level
        assert len(qs.vertices) == 6 * n * n + 2
        assert len(qs.faces) == 6 * n * n
        assert qs.edge_count() == 12 * n * n
        assert len(qs.vertices) - qs.edge_count() + len(qs.faces) == 2

    @pytest.mark.parametrize("level", range(7))
    def test_eight_degree3_vertices(self, level):
        deg = sc.build_quadsphere(level).vertex_degrees()
        assert (deg == 3).sum() == 8
        if level > 0:
            assert (deg == 4).sum() == len(deg) - 8

    def test_base_case_is_cube(self):
        qs = sc.build_quadsphere(0)
        assert len(qs.vertices) == 8
        assert len(qs.faces) == 6
        assert np.allclose(np.abs(qs.vertices), 1 / np.sqrt(3), atol=1e-15)

    def test_unit_norms(self):
        qs = sc.build_quadsphere(4)
        assert np.abs(np.linalg.norm(qs.vertices, axis=1) - 1.0).max() <= 1e-12

    def test_level5_grid_shape(self):
        qs = sc.build_quadsphere(5)
        assert qs.grids.shape == (6, 33, 33)

    def test_outward_orientation(self):
        qs = sc.build_quadsphere(2)
        quads = qs.faces
        v = qs.vertices
        tris = np.concatenate([quads[:, (0, 1, 2)], quads[:, (0, 2, 3)]])
        a, b, c = v[tris[:, 0]], v[tris[:, 1]], v[tris[:, 2]]
        trip = np.einsum("ij,ij->i", a, np.cross(b, c))
        assert (trip > 0).all()

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            sc.build_quadsphere(-1)

    def test_cached_and_read_only(self):
        qs = sc.build_quadsphere(3)
        assert sc.build_quadsphere(3) is qs
        for arr in (qs.vertices, qs.grids):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


@pytest.fixture(scope="module")
def ico_map():
    ico = sc.icosphere(3)
    return sc.harmonic_sphere_map(ico)


class TestLocate:
    def test_mapped_vertex_is_unit_coordinate(self, ico_map):
        for vid in (0, 7, 100, 500):
            face, bary = sc.locate_on_sphere(ico_map.positions[vid], ico_map)
            assert vid in set(ico_map.mesh.faces[face])
            corner = list(ico_map.mesh.faces[face]).index(vid)
            assert bary[corner] >= 1.0 - 1e-9
            assert bary.sum() == pytest.approx(1.0, abs=1e-9)

    def test_edge_midpoint_is_half_half(self, ico_map):
        i, j = ico_map.mesh.faces[0][:2]
        mid = ico_map.positions[i] + ico_map.positions[j]
        mid /= np.linalg.norm(mid)
        face, bary = sc.locate_on_sphere(mid, ico_map)
        tri = list(ico_map.mesh.faces[face])
        bi, bj = bary[tri.index(i)], bary[tri.index(j)]
        assert bi == pytest.approx(0.5, abs=1e-9)
        assert bj == pytest.approx(0.5, abs=1e-9)

    def test_interior_reconstruction(self, ico_map):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(200, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        faces, bary = sc.locate_on_sphere(pts, ico_map)
        tri = ico_map.positions[ico_map.mesh.faces[faces]]
        recon = np.einsum("vk,vkj->vj", bary, tri)
        recon /= np.linalg.norm(recon, axis=1)[:, None]
        assert np.abs(recon - pts).max() <= 1e-9

    def test_no_containing_triangle_errors(self):
        # a single spherical triangle near the north pole cannot contain the south pole
        verts = np.asarray([[0.1, 0.0, 1.0], [0.0, 0.1, 1.0], [-0.1, -0.1, 1.0]])
        verts /= np.linalg.norm(verts, axis=1)[:, None]
        partial = sc.SphereMap(mesh=sc.TriMesh(vertices=verts, faces=np.asarray([[0, 1, 2]])),
                               positions=verts)
        with pytest.raises(LocateError, match="no containing triangle"):
            sc.locate_on_sphere(np.asarray([0.0, 0.0, -1.0]), partial)

    def test_lowest_face_id_on_shared_edge(self, ico_map):
        # the same edge midpoint must resolve to one deterministic face id
        i, j = ico_map.mesh.faces[4][:2]
        mid = ico_map.positions[i] + ico_map.positions[j]
        mid /= np.linalg.norm(mid)
        f1, _ = sc.locate_on_sphere(mid, ico_map)
        f2, _ = sc.locate_on_sphere(mid, ico_map)
        assert f1 == f2
        sharing = [fi for fi, f in enumerate(ico_map.mesh.faces)
                   if i in f and j in f]
        assert f1 == min(sharing)


class TestRemesh:
    def test_unit_sphere_round_trip(self):
        # flat barycentric pullback sags by ~edge^2/6, so the tri mesh must be
        # fine enough for the 1e-3 bound
        ico = sc.icosphere(5)
        smap = sc.harmonic_sphere_map(ico)
        qm = sc.remesh(ico, smap, sc.build_quadsphere(3))
        norms = np.linalg.norm(qm.positions, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-3

    def test_ellipsoid_implicit_equation(self):
        ico = sc.icosphere(4)
        axes = np.array([25.0, 22.0, 25.0])
        ell = sc.TriMesh(vertices=ico.vertices * axes, faces=ico.faces)
        smap = sc.harmonic_sphere_map(ell)
        qm = sc.remesh(ell, smap, sc.build_quadsphere(3))
        implicit = ((qm.positions / axes) ** 2).sum(axis=1)
        assert np.abs(implicit - 1.0).max() <= 0.02

    def test_barycentric_invariants(self, ico_map):
        # remesh pulls back the records that locate_on_sphere gives the
        # cube-sphere vertices
        qs = sc.build_quadsphere(3)
        _, bary = sc.locate_on_sphere(qs.vertices, ico_map)
        assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-9
        assert bary.min() >= -1e-9
        qm = sc.remesh(ico_map.mesh, ico_map, qs)
        assert np.abs(np.linalg.norm(qm.normals, axis=1) - 1.0).max() <= 1e-9

    def test_injective_on_phantom(self):
        spec = sc.PhantomSpec(kind="bumpy", seed=1, mesh_subdivisions=3)
        _, mesh = sc.make_phantom(spec)
        smap = sc.harmonic_sphere_map(mesh)
        qm = sc.remesh(mesh, smap, sc.build_quadsphere(3))
        d, _ = cKDTree(qm.positions).query(qm.positions, k=2)
        assert d[:, 1].min() > 1e-9

    def test_edge_length_ratio_bounded(self):
        spec = sc.PhantomSpec(kind="ellipsoid", seed=2, mesh_subdivisions=3)
        _, mesh = sc.make_phantom(spec)
        smap = sc.harmonic_sphere_map(mesh)
        qm = sc.remesh(mesh, smap, sc.build_quadsphere(4))
        quads = qm.sphere.faces
        edges = np.concatenate([np.stack([quads[:, a], quads[:, (a + 1) % 4]], axis=1)
                                for a in range(4)])
        lengths = np.linalg.norm(qm.positions[edges[:, 0]] - qm.positions[edges[:, 1]], axis=1)
        assert lengths.max() / np.median(lengths) < 20

    def test_quadmesh_serialization_round_trip(self, ico_map, tmp_path):
        qm = sc.remesh(ico_map.mesh, ico_map, sc.build_quadsphere(2))
        sc.save_quadmesh(qm, tmp_path / "q.npz")
        back = sc.load_quadmesh(tmp_path / "q.npz")
        assert back.sphere is qm.sphere
        assert np.array_equal(back.positions, qm.positions)
        assert np.array_equal(back.normals, qm.normals)
        assert sorted(np.load(tmp_path / "q.npz").files) == ["level", "normals", "positions"]

    def test_loads_a_quad_file_with_barycentric_records(self, ico_map, tmp_path):
        # earlier quad.npz files also stored each vertex's source triangle
        # and barycentric weights; nothing reads them, and such a file loads
        qs = sc.build_quadsphere(2)
        qm = sc.remesh(ico_map.mesh, ico_map, qs)
        face, bary = sc.locate_on_sphere(qs.vertices, ico_map)
        save_arrays(tmp_path / "q.npz", level=np.int64(2), positions=qm.positions,
                    normals=qm.normals, bary_face=face, bary=bary)
        back = sc.load_quadmesh(tmp_path / "q.npz")
        assert back.sphere is qs
        assert np.array_equal(back.positions, qm.positions)
        assert np.array_equal(back.normals, qm.normals)


class TestQuadSidecarErrors:
    @pytest.fixture
    def saved(self, ico_map, tmp_path):
        qm = sc.remesh(ico_map.mesh, ico_map, sc.build_quadsphere(2))
        sc.save_quadmesh(qm, tmp_path / "q.npz")
        arrays = dict(np.load(tmp_path / "q.npz"))
        return tmp_path, arrays

    def test_missing_sidecar_names_file(self, saved):
        tmp_path, _ = saved
        os.remove(tmp_path / "q.npz")
        with pytest.raises(FileNotFoundError, match=r"q\.npz"):
            sc.load_quadmesh(tmp_path / "q.npz")

    @pytest.mark.parametrize("field", ["level", "positions", "normals"])
    def test_missing_array_names_file_and_field(self, saved, field):
        tmp_path, arrays = saved
        del arrays[field]
        save_arrays(tmp_path / "q.npz", **arrays)
        with pytest.raises(ValueError, match=rf"q\.npz: missing array '{field}'"):
            sc.load_quadmesh(tmp_path / "q.npz")

    @pytest.mark.parametrize("field, bad", [
        ("level", lambda a: a.reshape(1)),
        ("positions", lambda a: a[:-1]),
        ("normals", lambda a: a[:, :2]),
    ])
    def test_wrong_shape_or_dtype_names_file_and_field(self, saved, field, bad):
        tmp_path, arrays = saved
        arrays[field] = bad(arrays[field])
        save_arrays(tmp_path / "q.npz", **arrays)
        with pytest.raises(ValueError, match=rf"q\.npz: '{field}' has shape"):
            sc.load_quadmesh(tmp_path / "q.npz")

    def test_non_finite_positions_named(self, saved):
        tmp_path, arrays = saved
        arrays["positions"][5, 1] = np.nan
        save_arrays(tmp_path / "q.npz", **arrays)
        with pytest.raises(ValueError, match=r"q\.npz: 'positions' must be finite"):
            sc.load_quadmesh(tmp_path / "q.npz")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_normals_named(self, saved, value):
        tmp_path, arrays = saved
        arrays["normals"][5, 1] = value
        save_arrays(tmp_path / "q.npz", **arrays)
        with pytest.raises(ValueError, match=r"q\.npz: 'normals' must be finite$"):
            sc.load_quadmesh(tmp_path / "q.npz")

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8, 1.0 - 1e-8])
    def test_non_unit_normals_named(self, saved, scale):
        tmp_path, arrays = saved
        arrays["normals"][5] *= scale
        save_arrays(tmp_path / "q.npz", **arrays)
        with pytest.raises(ValueError, match=r"q\.npz: 'normals' rows must have unit length"):
            sc.load_quadmesh(tmp_path / "q.npz")

    @pytest.mark.parametrize("level, message", [
        (12, r"q\.npz: 'positions' has shape \(98, 3\) .* expected \(100663298, 3\)"),
        (-1, r"q\.npz: 'level' must be >= 0, got -1"),
    ])
    def test_level_checked_before_the_cube_sphere_is_built(self, saved, monkeypatch,
                                                           level, message):
        # the build time grows about 4x per level, so an edited level is
        # caught by the vertex count 6 * 4**level + 2 without building
        tmp_path, arrays = saved
        save_arrays(tmp_path / "q.npz", **{**arrays, "level": np.int64(level)})

        def no_build(level):
            raise AssertionError(f"built the level-{level} cube sphere")
        monkeypatch.setattr(quadsphere, "build_quadsphere", no_build)
        with pytest.raises(ValueError, match=message):
            sc.load_quadmesh(tmp_path / "q.npz")

    def test_text_file_is_not_an_archive(self, saved):
        tmp_path, _ = saved
        (tmp_path / "q.npz").write_text('{"level": 2}')
        with pytest.raises(ValueError, match=r"q\.npz: not an \.npz archive"):
            sc.load_quadmesh(tmp_path / "q.npz")
