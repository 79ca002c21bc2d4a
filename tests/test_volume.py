import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import surfcrf as sc
from surfcrf.volume import SvolError

GOOD_HEADER = {"dims": [2, 3, 4], "spacing": [1.0, 0.5, 2.0], "origin": [0.0, -1.0, 3.5],
               "dtype": "f32le"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
# near-valid triples: the corruptions a writer is most likely to make
number_lists = st.lists(st.integers(-2, 30) | st.floats(), min_size=0, max_size=4)


def write_svol(path, header, n_floats=24):
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(np.zeros(n_floats, dtype="<f4").tobytes())


def small_volume(data=None, dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0)):
    if data is None:
        data = np.zeros(dims, dtype=np.float32)
    return sc.Volume(dims=dims, spacing=spacing, origin=(0.0, 0.0, 0.0), data=data)


class TestSvolIO:
    def test_round_trip_zeros(self, tmp_path):
        vol = small_volume()
        path = tmp_path / "z.svol"
        sc.save_svol(vol, path)
        back = sc.load_svol(path)
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing
        assert back.origin == vol.origin
        assert np.array_equal(back.data, vol.data)

    def test_round_trip_random_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vol = small_volume(rng.random((4, 4, 4)).astype(np.float32))
        path = tmp_path / "r.svol"
        sc.save_svol(vol, path)
        assert np.array_equal(sc.load_svol(path).data, vol.data)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.svol"
        header = {"dims": [2, 2, 2], "spacing": [1, 1, 1], "origin": [0, 0, 0],
                  "dtype": "f32le"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            fh.write(np.zeros(7, dtype="<f4").tobytes())
        with pytest.raises(SvolError, match="length mismatch"):
            sc.load_svol(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.svol"
        path.write_bytes(b"not json at all\n\x00\x01")
        with pytest.raises(SvolError):
            sc.load_svol(path)

    @pytest.mark.parametrize("field, value", [("dims", [2, 2]), ("dims", "abc"),
                                              ("spacing", [1, 1])])
    def test_bad_header_field_names_file_and_field(self, tmp_path, field, value):
        path = tmp_path / "h.svol"
        write_svol(path, dict(GOOD_HEADER, **{field: value}))
        with pytest.raises(SvolError) as err:
            sc.load_svol(path)
        assert str(path) in str(err.value)
        assert repr(field) in str(err.value)

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(sorted(GOOD_HEADER)), value=json_values | number_lists,
           drop=st.booleans())
    def test_fuzzed_header_raises_or_loads_consistent_volume(self, field, value, drop):
        header = dict(GOOD_HEADER)
        if drop:
            del header[field]
        else:
            header[field] = value
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "f.svol")
            write_svol(path, header)
            try:
                vol = sc.load_svol(path)
            except SvolError:
                return
        assert vol.data.shape == vol.dims and vol.data.size == 24
        assert all(type(d) is int and d >= 1 for d in vol.dims)
        assert len(vol.spacing) == 3 and all(math.isfinite(x) and x > 0 for x in vol.spacing)
        assert len(vol.origin) == 3 and all(math.isfinite(x) for x in vol.origin)

    def test_phantom_header_round_trip(self, tmp_path):
        spec = sc.PhantomSpec(dims=(48, 48, 48), spacing=(1.25, 1.25, 1.25), seed=5,
                              semi_axes_mm=(20.0, 18.0, 20.0))
        vol, _ = sc.make_phantom(spec)
        path = tmp_path / "ph.svol"
        sc.save_svol(vol, path)
        back = sc.load_svol(path)
        assert back.dims == spec.dims
        assert back.spacing == spec.spacing


class TestTrilinear:
    def test_voxel_center_identity(self):
        rng = np.random.default_rng(0)
        vol = small_volume(rng.random((4, 4, 4)).astype(np.float32))
        for idx in [(0, 0, 0), (1, 2, 3), (3, 3, 3)]:
            assert sc.trilinear_sample(vol, vol.voxel_center(idx)) == pytest.approx(
                float(vol.data[idx]), abs=1e-7)

    def test_midpoint_linearity(self):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        data[1, 1, 1] = 0.0
        data[2, 1, 1] = 2.0
        vol = small_volume(data)
        mid = (vol.voxel_center((1, 1, 1)) + vol.voxel_center((2, 1, 1))) / 2
        assert sc.trilinear_sample(vol, mid) == pytest.approx(1.0, abs=1e-12)

    def test_outside_clamps_to_border(self):
        rng = np.random.default_rng(1)
        vol = small_volume(rng.random((4, 4, 4)).astype(np.float32))
        far = np.asarray([100.0, -50.0, 100.0])
        assert sc.trilinear_sample(vol, far) == pytest.approx(
            float(vol.data[3, 0, 3]), abs=1e-7)

    def test_affine_field_exact(self):
        # trilinear reproduces affine intensity fields exactly inside the grid
        ii, jj, kk = np.meshgrid(*(np.arange(5),) * 3, indexing="ij")
        data = (2.0 * ii - 3.0 * jj + 0.5 * kk + 1.0).astype(np.float32)
        vol = sc.Volume((5, 5, 5), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), data)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 4, size=(50, 3))
        vals = sc.trilinear_sample(vol, pts)
        expect = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5 * pts[:, 2] + 1.0
        assert np.allclose(vals, expect, atol=1e-5)


class TestResample:
    def test_identity_resample(self):
        rng = np.random.default_rng(4)
        vol = small_volume(rng.random((6, 5, 4)).astype(np.float32), dims=(6, 5, 4))
        out = sc.resample_isotropic(vol, 1.0)
        assert out.dims == vol.dims
        assert np.allclose(out.data, vol.data, atol=1e-6)

    def test_constant_volume(self):
        vol = small_volume(np.full((5, 5, 5), 7.5, dtype=np.float32), dims=(5, 5, 5))
        out = sc.resample_isotropic(vol, 0.8)
        assert np.allclose(out.data, 7.5, atol=1e-6)

    def test_downsample_linear_ramp(self):
        # 2:1 downsample of a ramp along x doubles the step
        ii = np.arange(9, dtype=np.float32)
        data = np.broadcast_to(ii[:, None, None], (9, 4, 4)).copy()
        vol = sc.Volume((9, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), data)
        out = sc.resample_isotropic(vol, 2.0)
        assert out.dims[0] == 5
        assert np.allclose(out.data[:, 0, 0], [0, 2, 4, 6, 8], atol=1e-6)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            sc.resample_isotropic(small_volume(), 0.0)


class TestNormalize:
    def test_two_level(self):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        data[:2] = 0.0
        data[2:] = 2.0
        out = sc.normalize(small_volume(data))
        assert np.allclose(np.unique(out.data), [-1.0, 1.0], atol=1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        vol = small_volume(rng.normal(3, 2, (4, 4, 4)).astype(np.float32))
        once = sc.normalize(vol)
        twice = sc.normalize(once)
        assert np.allclose(once.data, twice.data, atol=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            sc.normalize(small_volume(np.full((4, 4, 4), 3.0, dtype=np.float32)))

    def test_phantom_moments(self):
        spec = sc.PhantomSpec(noise_sigma=0.2, blur_sigma_mm=1.0, seed=9)
        vol, _ = sc.make_phantom(spec)
        out = sc.normalize(vol)
        data = out.data.astype(np.float64)
        assert abs(data.mean()) <= 1e-5
        assert abs(data.var() - 1.0) <= 1e-4


class TestPhantom:
    def test_noiseless_matches_analytic_inside_test(self):
        spec = sc.PhantomSpec(kind="ellipsoid", noise_sigma=0.0, blur_sigma_mm=0.0, seed=0)
        vol, _ = sc.make_phantom(spec)
        labels = sc.phantom_label_volume(spec)
        rendered = vol.data == spec.inside_value
        assert np.array_equal(rendered, labels.data > 0.5)

    def test_seed_determinism(self):
        spec = sc.PhantomSpec(noise_sigma=0.4, blur_sigma_mm=1.0, seed=17)
        v1, m1 = sc.make_phantom(spec)
        v2, m2 = sc.make_phantom(spec)
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.faces, m2.faces)

    def test_mesh_is_closed_genus0(self):
        for kind in ("ellipsoid", "bumpy"):
            spec = sc.PhantomSpec(kind=kind, seed=2)
            _, mesh = sc.make_phantom(spec)
            report = sc.validate_closed_genus0(mesh)
            assert report.ok, report.problems

    def test_mesh_lies_on_analytic_surface(self):
        spec = sc.PhantomSpec(kind="ellipsoid", semi_axes_mm=(25.0, 22.0, 25.0), seed=0)
        _, mesh = sc.make_phantom(spec)
        center = (np.asarray(spec.dims) - 1) / 2.0
        p = mesh.vertices - center
        a, b, c = spec.semi_axes_mm
        implicit = (p[:, 0] / a) ** 2 + (p[:, 1] / b) ** 2 + (p[:, 2] / c) ** 2
        assert np.allclose(implicit, 1.0, atol=1e-12)

    def test_shape_must_fit(self):
        spec = sc.PhantomSpec(kind="ellipsoid", semi_axes_mm=(40.0, 22.0, 25.0))
        with pytest.raises(ValueError, match="4-voxel margin"):
            sc.make_phantom(spec)

    def test_spec_json_round_trip(self):
        spec = sc.PhantomSpec(kind="bumpy", seed=3, bump_freq=2.5)
        back = sc.PhantomSpec.from_json(spec.to_json())
        assert back == spec

    def test_spec_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            sc.PhantomSpec.from_json('{"kind": "ellipsoid", "bogus": 1}')


class TestResampleAffineExactness:
    def test_resample_then_sample_exact_for_affine(self):
        # trilinear resampling reproduces affine fields exactly, so sampling
        # the resampled volume at original voxel centers returns the original
        ii, jj, kk = np.meshgrid(*(np.arange(7),) * 3, indexing="ij")
        data = (1.5 * ii - 0.25 * jj + 3.0 * kk - 2.0).astype(np.float32)
        vol = sc.Volume((7, 7, 7), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), data)
        res = sc.resample_isotropic(vol, 0.75)
        centers = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3).astype(np.float64)
        inside = (centers <= (np.asarray(res.dims) - 1) * 0.75).all(axis=1)
        got = sc.trilinear_sample(res, centers[inside])
        expect = sc.trilinear_sample(vol, centers[inside])
        assert np.allclose(got, expect, atol=1e-5)
