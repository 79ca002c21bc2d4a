import dataclasses
import json
import os
import re

import numpy as np
import pytest

import surfcrf as sc
from surfcrf import accel, quadsphere
from surfcrf.patches import build_column_graph
from surfcrf.quadsphere import padded_gid_grids, save_arrays

from conftest import owned_mask, traced_peak_mib


def synthetic_quadmesh(level=2, radius=10.0, center=(16.0, 16.0, 16.0)):
    """QuadMesh with exactly radial normals (sphere of the given radius)."""
    qs = sc.build_quadsphere(level)
    return sc.QuadMesh(sphere=qs, positions=qs.vertices * radius + np.asarray(center),
                       normals=qs.vertices.copy())


def quad_error(path, message):
    """The regex of an error that names the quad.npz of the patch set at
    ``path``, followed by ``message``."""
    return re.escape(f"{path / 'quad.npz'}: ") + message


def ref_padded_gid_grids(qs, pad):
    """Padded id grids by seam matching: each (face, side) finds the neighbor
    face side with the same boundary id sequence (forward or reversed) and
    copies that face's grid lines at depths 1..pad into the pad ring."""
    n = qs.n
    if pad > n:
        raise ValueError(f"pad {pad} exceeds face grid size n={n}")

    def line(grid, side, depth):  # sides: u = 0, u = n, v = 0, v = n
        return (grid[depth, :], grid[n - depth, :], grid[:, depth], grid[:, n - depth])[side]

    adj = {}
    for f, s, g, s2 in np.ndindex(6, 4, 6, 4):
        seq, other = line(qs.grids[f], s, 0), line(qs.grids[g], s2, 0)
        if g != f and np.array_equal(seq, other):
            adj[f, s] = (g, s2, False)
        elif g != f and np.array_equal(seq, other[::-1]):
            adj[f, s] = (g, s2, True)
    W = n + 1 + 2 * pad
    inner = slice(pad, pad + n + 1)
    out = np.full((6, W, W), -1, dtype=np.int64)
    for f in range(6):
        out[f, inner, inner] = qs.grids[f]
        for s in range(4):
            g, s2, rev = adj[f, s]
            for d in range(1, pad + 1):
                seq = line(qs.grids[g], s2, d)[::-1 if rev else 1]
                at = ((pad - d, inner), (pad + n + d, inner), (inner, pad - d), (inner, pad + n + d))
                out[(f, *at[s])] = seq
    return out


def constant_volume(value=4.0, dims=(32, 32, 32)):
    return sc.Volume(dims=dims, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0),
                     data=np.full(dims, value, dtype=np.float32))


class TestPaddedGidGrids:
    @pytest.mark.parametrize("level", range(6))
    def test_fold_matches_seam_matching(self, level):
        qs = sc.build_quadsphere(level)
        for pad in range(qs.n + 1):
            got = padded_gid_grids(qs, pad)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref_padded_gid_grids(qs, pad)), pad
        with pytest.raises(ValueError, match=f"pad {qs.n + 1} exceeds face grid size n={qs.n}"):
            padded_gid_grids(qs, qs.n + 1)


class TestColumnGraph:
    def test_interior_bijection(self):
        qs = sc.build_quadsphere(3)
        g = build_column_graph(qs, pad=3)
        assert np.array_equal(g.gid.reshape(-1)[g.owner], np.arange(g.n_vertices))
        owned = owned_mask(g)
        assert owned.sum() == g.n_vertices
        assert len(np.unique(g.gid[owned])) == g.n_vertices

    def test_seam_vertex_owned_once(self):
        qs = sc.build_quadsphere(2)
        g = build_column_graph(qs, pad=2)
        counts = np.zeros(g.n_vertices, dtype=int)
        np.add.at(counts, g.gid[owned_mask(g)], 1)
        assert (counts == 1).all()

    def test_seam_owner_is_first_face_showing_it(self):
        # owners are the first interior slot in (face, row, column) order:
        # face 0 owns its whole grid, face 5 only what no earlier face shows
        qs = sc.build_quadsphere(2)
        p, n = 2, qs.n
        owned = owned_mask(build_column_graph(qs, p))
        inner = (slice(p, p + n + 1),) * 2
        assert owned[(0, *inner)].all()
        earlier = np.isin(qs.grids[5], qs.grids[:5])
        assert np.array_equal(owned[(5, *inner)], ~earlier)

    def test_corner_pad_blocks_invalid(self):
        qs = sc.build_quadsphere(2)
        p = 2
        g = build_column_graph(qs, p)
        for sl in ((slice(None, p), slice(None, p)), (slice(None, p), slice(-p, None)),
                   (slice(-p, None), slice(None, p)), (slice(-p, None), slice(-p, None))):
            assert not g.valid[(0, *sl)].any()

    def test_split_merge_round_trip(self):
        qs = sc.build_quadsphere(2)
        g = build_column_graph(qs, pad=2)
        rng = np.random.default_rng(0)
        field = rng.random((g.n_vertices, 5))
        assert np.array_equal(g.merge(g.split(field)), field)

    def test_pads_never_contribute_to_merge(self):
        qs = sc.build_quadsphere(2)
        g = build_column_graph(qs, pad=2)
        rng = np.random.default_rng(1)
        field = rng.random(g.n_vertices)
        slots = g.split(field)
        corrupted = slots.copy()
        corrupted[~owned_mask(g)] = -99.0
        assert np.array_equal(g.merge(corrupted), g.merge(slots))

    def test_cached_and_read_only(self):
        qs = sc.build_quadsphere(2)
        g = build_column_graph(qs, pad=2)
        assert build_column_graph(qs, 2) is g
        for arr in (g.gid, g.owner):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0

    def test_derived_slot_fields(self):
        # valid and n_vertices follow from gid and owner, and each owning
        # slot holds its own vertex
        g = build_column_graph(sc.build_quadsphere(2), pad=2)
        assert np.array_equal(g.valid, g.gid >= 0)
        assert g.n_vertices == len(g.owner) == g.gid.max() + 1
        assert np.array_equal(g.gid.reshape(-1)[g.owner], np.arange(g.n_vertices))

    def test_pad_exceeding_grid_rejected(self):
        qs = sc.build_quadsphere(1)
        with pytest.raises(ValueError, match="pad"):
            build_column_graph(qs, pad=3)

    def test_pad_geometry_continues_across_seams(self):
        # world positions along a padded grid line step smoothly over the seam
        qs = sc.build_quadsphere(3)
        g = build_column_graph(qs, pad=3)
        pos = qs.vertices[g.gid[0, :, 5].clip(0)]
        steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert steps.max() / steps.min() < 1.6


class TestSampleColumns:
    def test_constant_volume(self):
        qm = synthetic_quadmesh()
        ps = sc.sample_columns(constant_volume(4.0), qm, z_len=8, delta=0.5, pad=2)
        assert np.allclose(ps.samples[ps.graph.valid], 4.0, atol=1e-6)
        assert (ps.samples[~ps.graph.valid] == 0).all()

    def test_center_sample_on_preseg_vertex(self):
        # paper configuration: column length 64 at 0.625 mm, center index 32
        qm = synthetic_quadmesh(level=2, radius=10.0, center=(24.0, 24.0, 24.0))
        ii = np.arange(48, dtype=np.float32)
        data = np.broadcast_to(ii[None, None, :], (48, 48, 48)).copy()
        vol = sc.Volume((48, 48, 48), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), data)
        ps = sc.sample_columns(vol, qm, z_len=64, delta=0.625, pad=0)
        assert ps.sample_offsets()[32] == 0.0
        base_vals = accel.trilinear_gather(vol.data, np.asarray(vol.origin),
                                           np.asarray(vol.spacing), ps.quad.positions)
        center_vals = ps.graph.merge(ps.samples)[:, 32]
        assert np.allclose(center_vals, base_vals, atol=1e-5)

    def test_affine_field_slope(self):
        qm = synthetic_quadmesh(level=2, radius=8.0)
        a = 0.7
        ii = np.arange(32, dtype=np.float32)
        data = np.broadcast_to(a * ii[None, None, :], (32, 32, 32)).copy()
        vol = sc.Volume((32, 32, 32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), data)
        delta = 0.5
        ps = sc.sample_columns(vol, qm, z_len=10, delta=delta, pad=0)
        cols = ps.graph.merge(ps.samples).astype(np.float64)
        slopes = np.diff(cols, axis=1)
        nz = ps.quad.normals[:, 2]
        # columns fully inside the volume follow the analytic slope
        pts = ps.column_points()
        inside = (pts[..., 2].min(axis=1) > 0.5) & (pts[..., 2].max(axis=1) < 30.5)
        expect = a * delta * nz
        assert np.allclose(slopes[inside], expect[inside, None], atol=1e-5)

    def test_geometry_identity(self):
        qm = synthetic_quadmesh()
        ps = sc.sample_columns(constant_volume(), qm, z_len=8, delta=0.25, pad=1)
        pts = ps.column_points()
        c = ps.z_len // 2
        recon = ps.quad.positions[:, None, :] + \
            (np.arange(8) - c)[None, :, None] * 0.25 * ps.quad.normals[:, None, :]
        assert pts.shape == (ps.graph.n_vertices, 8, 3)
        assert np.allclose(pts, recon, atol=1e-12)

    def test_equals_gather_over_every_slot(self, ellipsoid_run):
        # one sample per vertex column, spread to the slots, is the gather of
        # every padded slot's points with the corner pad blocks zeroed
        vol, qm = ellipsoid_run["vol"], ellipsoid_run["qm"]
        ps = sc.sample_columns(vol, qm, z_len=12, delta=0.75, pad=3)
        slot_points = ps.graph.split(ps.column_points())
        vals = accel.trilinear_gather(vol.data, np.asarray(vol.origin), np.asarray(vol.spacing),
                                      slot_points.reshape(-1, 3))
        want = vals.reshape(ps.samples.shape).astype(np.float32)
        want[~ps.graph.valid] = 0.0
        assert ps.samples.dtype == np.float32
        assert np.array_equal(ps.samples, want)

    def test_memory_bounded(self):
        # the default r=5 case: Z=48 at 0.625 mm, pad 3, a 64^3 volume, so
        # 295,008 column points; gathering them in one block traces about
        # 81 MiB
        qm = synthetic_quadmesh(level=5, radius=22.0, center=(32.0, 32.0, 32.0))
        vol = constant_volume(dims=(64, 64, 64))
        build_column_graph(qm.sphere, 3)  # built once per process, outside the bound
        ps, peak = traced_peak_mib(sc.sample_columns, vol, qm, 48, 0.625, 3)
        assert ps.graph.n_vertices * ps.z_len == 295_008
        assert peak < 24.0

    def test_parameter_validation(self):
        qm = synthetic_quadmesh()
        vol = constant_volume()
        with pytest.raises(ValueError):
            sc.sample_columns(vol, qm, z_len=1, delta=0.5, pad=0)
        with pytest.raises(ValueError):
            sc.sample_columns(vol, qm, z_len=8, delta=0.0, pad=0)
        with pytest.raises(ValueError):
            sc.sample_columns(vol, qm, z_len=8, delta=0.5, pad=-1)


class TestGroundTruth:
    def test_reference_equals_preseg(self):
        spec = sc.PhantomSpec(kind="ellipsoid", seed=0, mesh_subdivisions=3)
        _, mesh = sc.make_phantom(spec)
        smap = sc.harmonic_sphere_map(mesh)
        qm = sc.remesh(mesh, smap, sc.build_quadsphere(3))
        gt = sc.ground_truth(qm, mesh, 16, 0.5)
        assert gt.valid.all()
        assert (gt.surface_index == 8).all()

    def test_inflated_sphere_offset(self):
        ico_in = sc.icosphere(4, radius=10.0)
        ico_out = sc.icosphere(4, radius=11.0)
        qm = synthetic_quadmesh(level=3, radius=10.0, center=(0, 0, 0))
        delta = 0.5
        gt = sc.ground_truth(qm, ico_out, 16, delta)
        assert gt.valid.all()
        assert (gt.surface_index == 8 + 2).mean() > 0.99  # +2 samples = 1.0 mm

    def test_nearest_abs_t_of_two_shells(self):
        inner = sc.icosphere(4, radius=10.5)
        outer = sc.icosphere(4, radius=11.5)
        both = sc.TriMesh(vertices=np.concatenate([inner.vertices, outer.vertices]),
                          faces=np.concatenate([inner.faces, outer.faces + len(inner.vertices)]))
        qm = synthetic_quadmesh(level=3, radius=10.0, center=(0, 0, 0))
        gt = sc.ground_truth(qm, both, 16, 0.5)
        assert (gt.surface_index == 9).mean() > 0.99  # 0.5 mm shell wins over 1.5 mm

    def test_abs_t_tie_prefers_negative(self):
        # two parallel triangles straddling the origin at exactly +-1
        verts = np.asarray([
            [-5, -5, 1.0], [5, -5, 1.0], [0, 8, 1.0],
            [-5, -5, -1.0], [5, -5, -1.0], [0, 8, -1.0],
        ], dtype=np.float64)
        faces = np.asarray([[0, 1, 2], [3, 4, 5]])
        t, hit = accel.raycast_min_abs_t(verts, faces,
                                         np.zeros((1, 3)), np.asarray([[0.0, 0.0, 1.0]]))
        assert hit[0]
        assert t[0] == pytest.approx(-1.0, abs=1e-12)

    def test_hit_outside_column_is_flagged_invalid(self):
        # the shell lies 1.0 mm out, i.e. index 2 + 2 = 4 in a 4-sample column
        ico_out = sc.icosphere(4, radius=11.0)
        qm = synthetic_quadmesh(level=3, radius=10.0, center=(0, 0, 0))
        short = sc.ground_truth(qm, ico_out, 4, 0.5)
        assert not short.valid.any()
        assert (short.surface_index == 0).all()
        longer = sc.ground_truth(qm, ico_out, 6, 0.5)
        assert longer.valid.all()
        assert (longer.surface_index == 3 + 2).mean() > 0.99

    def test_miss_is_flagged_invalid(self):
        tiny = sc.icosphere(1, radius=0.5)
        tiny.vertices += (50.0, 0.0, 0.0)
        qm = synthetic_quadmesh(level=2, radius=10.0, center=(0, 0, 0))
        gt = sc.ground_truth(qm, tiny, 16, 0.5)
        assert not gt.valid.all()

    def test_json_round_trip(self):
        gt = sc.GroundTruth(surface_index=np.asarray([1, 2, 3]),
                            valid=np.asarray([True, False, True]))
        back = sc.GroundTruth.from_json(gt.to_json())
        assert np.array_equal(back.surface_index, gt.surface_index)
        assert np.array_equal(back.valid, gt.valid)


class TestLabelingToWorld:
    def test_center_labels_reproduce_preseg(self):
        qm = synthetic_quadmesh()
        ps = sc.sample_columns(constant_volume(), qm, z_len=8, delta=0.5, pad=1)
        labels = np.full(ps.graph.n_vertices, ps.z_len // 2)
        verts, faces = sc.labeling_to_world(labels, ps)
        assert np.allclose(verts, qm.positions, atol=1e-12)
        assert np.array_equal(faces, qm.sphere.faces)

    def test_plus_one_inflates_sphere_by_delta(self):
        qm = synthetic_quadmesh(level=2, radius=10.0, center=(0.0, 0.0, 0.0))
        delta = 0.5
        ps = sc.sample_columns(constant_volume(), qm, z_len=8, delta=delta, pad=0)
        labels = np.full(ps.graph.n_vertices, ps.z_len // 2 + 1)
        verts, _ = sc.labeling_to_world(labels, ps)
        assert np.abs(np.linalg.norm(verts, axis=1) - 10.5).max() <= 1e-9

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_label_outside_the_column_rejected(self, bad):
        qm = synthetic_quadmesh()
        ps = sc.sample_columns(constant_volume(), qm, z_len=8, delta=0.5, pad=0)
        labels = np.full(ps.graph.n_vertices, 7)
        labels[:2] = 0
        sc.labeling_to_world(labels, ps)  # 0 and z_len - 1 are in the column
        labels[5] = bad
        with pytest.raises(ValueError, match=re.escape("labels must lie in [0, z_len) = [0, 8)")):
            sc.labeling_to_world(labels, ps)

    def test_incomplete_labeling_rejected(self):
        qm = synthetic_quadmesh()
        ps = sc.sample_columns(constant_volume(), qm, z_len=8, delta=0.5, pad=0)
        with pytest.raises(ValueError, match="cover"):
            sc.labeling_to_world(np.zeros(3), ps)

    def test_ground_truth_round_trip_on_phantom(self, ellipsoid_run):
        # discretization bound: ASD <= delta, HD <= 2*delta against the truth
        ps, gt, truth = ellipsoid_run["ps"], ellipsoid_run["gt"], ellipsoid_run["truth"]
        assert gt.valid.all()
        verts, faces = sc.labeling_to_world(gt.surface_index, ps)
        s_pred = sc.sample_surface(verts, faces, 0.5)
        s_truth = sc.sample_surface(truth.vertices, truth.faces, 0.5)
        delta = ps.delta
        assert sc.asd(s_pred, s_truth) <= delta
        assert sc.hd(s_pred, s_truth) <= 2 * delta


def write_grids(path, dims, spacing=(1.0, 1.0, 0.5), faces=range(6)):
    """Overwrite the face grids ``faces`` of the patch set at ``path`` with
    zero grids of ``dims`` and ``spacing``."""
    for f in faces:
        sc.save_svol(sc.Volume(dims=dims, spacing=spacing, origin=(0.0, 0.0, 0.0),
                               data=np.zeros(dims, dtype=np.float32)), path / f"patch{f}.svol")


class TestPatchSetIO:
    @pytest.fixture
    def saved(self, tmp_path):
        qm = synthetic_quadmesh()
        ps = sc.sample_columns(constant_volume(3.3), qm, z_len=8, delta=0.5, pad=2)
        sc.save_patchset(ps, tmp_path / "ps")
        return ps, tmp_path / "ps"

    def test_fields_are_the_grids_and_the_mesh(self, saved):
        # z_len is the grids' depth, and the pad is the graph's
        ps, _ = saved
        assert [f.name for f in dataclasses.fields(sc.PatchSet)] == [
            "quad", "graph", "samples", "delta"]
        assert ps.z_len == ps.samples.shape[-1] == 8
        assert ps.graph is build_column_graph(ps.quad.sphere, 2)

    def test_save_load_round_trip(self, saved):
        ps, path = saved
        back = sc.load_patchset(path)
        assert back.z_len == ps.z_len
        assert back.delta == ps.delta
        assert np.array_equal(back.samples, ps.samples)
        assert back.quad.sphere is ps.quad.sphere
        assert np.array_equal(back.quad.positions, ps.quad.positions)
        assert np.array_equal(back.quad.normals, ps.quad.normals)
        assert back.graph is ps.graph is sc.load_patchset(path).graph

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_round_trip_at_every_pad(self, tmp_path, level):
        # the pad is read back from the grid width W = n + 1 + 2*pad, z_len
        # and delta from the grids' dims and spacing
        qm = synthetic_quadmesh(level=level)
        for pad in range(qm.sphere.n + 1):
            ps = sc.sample_columns(constant_volume(1.5), qm, z_len=7, delta=0.3, pad=pad)
            sc.save_patchset(ps, tmp_path / f"pad{pad}")
            back = sc.load_patchset(tmp_path / f"pad{pad}")
            assert back.graph is ps.graph is build_column_graph(qm.sphere, pad), pad
            W = qm.sphere.n + 1 + 2 * pad
            assert back.samples.shape == (6, W, W, 7), pad
            assert np.array_equal(back.samples, ps.samples), pad
            assert (back.delta, back.z_len) == (0.3, 7), pad

    def test_geometry_is_a_quad_mesh_file(self, saved):
        # the six face grids and the quad mesh, nothing else
        ps, path = saved
        assert sorted(os.listdir(path)) == sorted(
            [f"patch{f}.svol" for f in range(6)] + ["quad.npz"])
        qm = sc.load_quadmesh(path / "quad.npz")
        assert qm.sphere is ps.quad.sphere
        assert np.array_equal(qm.positions, ps.quad.positions)
        assert np.array_equal(qm.normals, ps.quad.normals)

    @pytest.mark.parametrize("extra", [{}, {"center_index": 4}], ids=["scalars", "center_index"])
    def test_loads_a_directory_with_patchset_json(self, saved, extra):
        # earlier versions also wrote the scalars to patchset.json (and
        # before that the column centre); the file is not read
        ps, path = saved
        (path / "patchset.json").write_text(json.dumps({"z_len": 8, "delta": 0.5, "pad": 2,
                                                        **extra}))
        back = sc.load_patchset(path)
        assert back.graph is ps.graph
        assert (back.z_len, back.delta) == (8, 0.5)
        assert np.array_equal(back.samples, ps.samples)

    def test_missing_sidecar_names_file(self, saved):
        _, path = saved
        os.remove(path / "quad.npz")
        with pytest.raises(FileNotFoundError, match=re.escape(str(path / "quad.npz"))):
            sc.load_patchset(path)

    # the geometry errors of load_quadmesh (tested in test_quadsphere) reach
    # the caller of load_patchset naming the patch set's own quad.npz

    @pytest.mark.parametrize("field", ["positions", "normals"])
    def test_missing_array_names_file_and_field(self, saved, field):
        _, path = saved
        arrays = dict(np.load(path / "quad.npz"))
        del arrays[field]
        save_arrays(path / "quad.npz", **arrays)
        with pytest.raises(ValueError, match=quad_error(path, f"missing array '{field}'")):
            sc.load_patchset(path)

    @pytest.mark.parametrize("field, bad", [
        ("positions", lambda a: a[:-1]),
        ("normals", lambda a: a.astype(np.float32)),
    ])
    def test_wrong_shape_or_dtype_names_file_and_field(self, saved, field, bad):
        _, path = saved
        arrays = dict(np.load(path / "quad.npz"))
        arrays[field] = bad(arrays[field])
        save_arrays(path / "quad.npz", **arrays)
        with pytest.raises(ValueError, match=quad_error(path, f"'{field}' has shape")):
            sc.load_patchset(path)

    @pytest.mark.parametrize("field", ["positions", "normals"])
    def test_non_finite_geometry_names_file_and_field(self, saved, field):
        _, path = saved
        arrays = dict(np.load(path / "quad.npz"))
        arrays[field][7] = np.nan
        save_arrays(path / "quad.npz", **arrays)
        with pytest.raises(ValueError, match=quad_error(path, f"'{field}' must be finite$")):
            sc.load_patchset(path)

    def test_non_unit_normals_names_file(self, saved):
        _, path = saved
        arrays = dict(np.load(path / "quad.npz"))
        arrays["normals"] *= 2.0
        save_arrays(path / "quad.npz", **arrays)
        with pytest.raises(ValueError,
                           match=quad_error(path, "'normals' rows must have unit length")):
            sc.load_patchset(path)

    def test_level_mismatch_names_the_vertex_count(self, saved):
        # level-2 arrays under a quad.npz level of 3
        _, path = saved
        arrays = dict(np.load(path / "quad.npz"))
        save_arrays(path / "quad.npz", **{**arrays, "level": np.int64(3)})
        with pytest.raises(ValueError,
                           match=quad_error(path, r"'positions' has shape \(98, 3\).*\(386, 3\)")):
            sc.load_patchset(path)

    def test_level_checked_before_the_cube_sphere_is_built(self, saved, monkeypatch):
        # the build time grows about 4x per level, so an edited level is
        # caught by the vertex count 6 * 4**level + 2 without building
        _, path = saved
        arrays = dict(np.load(path / "quad.npz"))
        save_arrays(path / "quad.npz", **{**arrays, "level": np.int64(12)})

        def no_build(level):
            raise AssertionError(f"built the level-{level} cube sphere")
        monkeypatch.setattr(quadsphere, "build_quadsphere", no_build)
        with pytest.raises(ValueError, match=quad_error(
                path, r"'positions' has shape \(98, 3\).*\(100663298, 3\)")):
            sc.load_patchset(path)

    def test_patch_dims_mismatch_names_file_and_field(self, saved):
        ps, path = saved
        W = ps.graph.shape[1]
        write_grids(path, (W, W, 7), faces=[2])
        with pytest.raises(ValueError, match=re.escape(
                f"{path / 'patch2.svol'}: dims [{W}, {W}, 7] differ from "
                f"{path / 'patch0.svol'}'s [{W}, {W}, 8]")):
            sc.load_patchset(path)

    def test_patch_spacing_mismatch_names_file_and_field(self, saved):
        ps, path = saved
        W = ps.graph.shape[1]
        write_grids(path, (W, W, 8), spacing=(1.0, 1.0, 0.25), faces=[4])
        with pytest.raises(ValueError, match=re.escape(
                f"{path / 'patch4.svol'}: spacing [1.0, 1.0, 0.25] differ from "
                f"{path / 'patch0.svol'}'s [1.0, 1.0, 0.5]")):
            sc.load_patchset(path)

    # level 2: n = 4, so W = 5 + 2*pad for a pad in 0..4
    @pytest.mark.parametrize("dims", [(6, 6, 8), (15, 15, 8), (4, 4, 8), (9, 11, 8), (9, 9, 1)],
                             ids=["odd-ring", "pad-over-n", "narrower-than-n", "not-square",
                                  "z_len-1"])
    def test_dims_that_fit_no_patch_set_name_file(self, saved, dims):
        _, path = saved
        write_grids(path, dims)
        with pytest.raises(ValueError, match=re.escape(
                f"{path / 'patch0.svol'}: dims {list(dims)} must be [W, W, z_len] with "
                f"z_len >= 2 and W = n + 1 + 2*pad for a pad in 0..n, n = 4 the face grid "
                f"size of {path / 'quad.npz'}")):
            sc.load_patchset(path)

    @pytest.mark.parametrize("delta", ["-0.5", "0.0", "NaN", "Infinity", "true", "\"0.5\""])
    def test_bad_delta_names_file_and_field(self, saved, delta):
        # delta is the grids' z spacing; a negative one would mirror every
        # column about its centre
        _, path = saved
        raw = (path / "patch0.svol").read_bytes()
        (path / "patch0.svol").write_bytes(raw.replace(b"[1.0, 1.0, 0.5]",
                                                       b"[1.0, 1.0, " + delta.encode() + b"]", 1))
        with pytest.raises(ValueError, match=re.escape(
                f"header field 'spacing' in {path / 'patch0.svol'} must be ")):
            sc.load_patchset(path)


class TestPadCompleteness:
    def test_pad_at_least_radius_gives_in_grid_windows(self):
        # with p >= R every owned column's Chebyshev window stays inside the
        # padded grid (corner blocks are in-grid but flagged invalid)
        qs = sc.build_quadsphere(3)
        R = 3
        g = build_column_graph(qs, pad=R)
        P, H, W = g.shape
        ys, xs = np.nonzero(owned_mask(g).any(axis=0))
        assert ys.min() - R >= 0 and xs.min() - R >= 0
        assert ys.max() + R <= H - 1 and xs.max() + R <= W - 1
