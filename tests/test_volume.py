import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import surfcrf as sc
from surfcrf.volume import SvolError, _inside_mask

from conftest import traced_peak_mib

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

    def test_triples_stored_as_tuples_with_their_elements(self, tmp_path):
        # lists become tuples; the elements, and so the header bytes, stay
        vol = sc.Volume([4, 4, 4], [1, 0.5, 2.0], [0, -1.0, 3.5], np.zeros((4, 4, 4), np.float32))
        assert (vol.dims, vol.spacing, vol.origin) == ((4, 4, 4), (1, 0.5, 2.0), (0, -1.0, 3.5))
        assert all(type(t) is tuple for t in (vol.dims, vol.spacing, vol.origin))
        assert type(vol.spacing[0]) is int
        sc.save_svol(vol, tmp_path / "v.svol")
        header = (tmp_path / "v.svol").read_bytes().split(b"\n", 1)[0]
        assert header == b'{"dims": [4, 4, 4], "spacing": [1, 0.5, 2.0], ' \
                         b'"origin": [0, -1.0, 3.5], "dtype": "f32le"}'

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.svol"
        header = {"dims": [2, 2, 2], "spacing": [1, 1, 1], "origin": [0, 0, 0],
                  "dtype": "f32le"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            fh.write(np.zeros(7, dtype="<f4").tobytes())
        with pytest.raises(SvolError, match="length mismatch"):
            sc.load_svol(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_names_file(self, tmp_path, bad):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        data[1, 2, 3] = data[3, 0, 0] = bad
        path = tmp_path / "n.svol"
        sc.save_svol(small_volume(data), path)
        with pytest.raises(SvolError) as err:
            sc.load_svol(path)
        assert str(err.value) == f"{path}: data must be finite, found 2 non-finite values"

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
        vol, _, _ = sc.make_phantom(spec)
        path = tmp_path / "ph.svol"
        sc.save_svol(vol, path)
        back = sc.load_svol(path)
        assert back.dims == spec.dims
        assert back.spacing == spec.spacing


class TestPhantom:
    def test_noiseless_matches_analytic_inside_test(self):
        spec = sc.PhantomSpec(kind="ellipsoid", noise_sigma=0.0, blur_sigma_mm=0.0, seed=0)
        vol, labels, _ = sc.make_phantom(spec)
        rendered = vol.data == 1.0
        assert np.array_equal(rendered, labels.data > 0.5)

    @pytest.mark.parametrize("kind", ["ellipsoid", "bumpy"])
    def test_inside_mask_matches_scalar_loop(self, kind):
        # a small anisotropic grid: each voxel centre tested on its own
        spec = sc.PhantomSpec(kind=kind, dims=(20, 24, 18), spacing=(1.0, 0.8, 1.25),
                              semi_axes_mm=(5.0, 5.5, 5.2), radius_mm=4.0,
                              bump_amplitude_mm=1.0, bump_freq=2.5)
        spec.validate()
        a, b, c = spec.semi_axes_mm
        f = spec.bump_freq
        center = [(d - 1) / 2.0 * s for d, s in zip(spec.dims, spec.spacing)]
        expect = np.zeros(spec.dims, dtype=bool)
        for idx in np.ndindex(*spec.dims):
            x, y, z = (i * s - m for i, s, m in zip(idx, spec.spacing, center))
            if kind == "ellipsoid":
                expect[idx] = (x / a) ** 2 + (y / b) ** 2 + (z / c) ** 2 <= 1.0
                continue
            r = math.sqrt(x * x + y * y + z * z)
            ux, uy, uz = (x / r, y / r, z / r) if r > 0 else (x, y, z)
            bump = (math.sin(f * ux) * math.cos(f * uy) + math.sin(f * uy) * math.cos(f * uz)
                    + math.sin(f * uz) * math.cos(f * ux)) / 3.0
            expect[idx] = r <= spec.radius_mm + spec.bump_amplitude_mm * bump
        got = _inside_mask(spec)
        assert got.shape == spec.dims and got.dtype == bool
        assert 0 < got.sum() < got.size
        assert np.array_equal(got, expect)

    def test_labels_are_the_mask_the_volume_is_rendered_from(self):
        spec = sc.PhantomSpec(noise_sigma=0.3, blur_sigma_mm=1.0, seed=4,
                              dims=(40, 44, 36), spacing=(1.0, 0.9, 1.2),
                              semi_axes_mm=(12.0, 13.0, 11.0), mesh_subdivisions=1)
        vol, labels, _ = sc.make_phantom(spec)
        assert labels.data.dtype == np.float32
        assert (labels.dims, labels.spacing, labels.origin) == (vol.dims, vol.spacing, vol.origin)
        assert np.array_equal(labels.data, _inside_mask(spec).astype(np.float32))
        blurred = ndimage.gaussian_filter(labels.data.astype(np.float64),
                                          sigma=[1.0 / s for s in spec.spacing])
        noise = np.random.default_rng(4).normal(0.0, 0.3, size=spec.dims)
        assert np.array_equal(vol.data, (blurred + noise).astype(np.float32))

    def test_memory_bounded(self):
        # the default config's 64^3 phantom: one inside test on open per-axis
        # coordinates traces 5.0 MiB for the volume, labels and mesh; an index
        # meshgrid per render, once for the volume and once for the labels,
        # traced 19.2 MiB
        spec = sc.PhantomSpec(noise_sigma=0.3, blur_sigma_mm=1.0, mesh_subdivisions=3)
        (vol, labels, _), peak = traced_peak_mib(sc.make_phantom, spec)
        assert vol.dims == labels.dims == (64, 64, 64)
        assert peak <= 8.0

    def test_seed_determinism(self):
        spec = sc.PhantomSpec(noise_sigma=0.4, blur_sigma_mm=1.0, seed=17)
        v1, l1, m1 = sc.make_phantom(spec)
        v2, l2, m2 = sc.make_phantom(spec)
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(l1.data, l2.data)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.faces, m2.faces)

    def test_mesh_is_closed_genus0(self):
        for kind in ("ellipsoid", "bumpy"):
            spec = sc.PhantomSpec(kind=kind, seed=2)
            _, _, mesh = sc.make_phantom(spec)
            report = sc.validate_closed_genus0(mesh)
            assert report.ok, report.problems

    def test_mesh_lies_on_analytic_surface(self):
        spec = sc.PhantomSpec(kind="ellipsoid", semi_axes_mm=(25.0, 22.0, 25.0), seed=0)
        _, _, mesh = sc.make_phantom(spec)
        center = (np.asarray(spec.dims) - 1) / 2.0
        p = mesh.vertices - center
        a, b, c = spec.semi_axes_mm
        implicit = (p[:, 0] / a) ** 2 + (p[:, 1] / b) ** 2 + (p[:, 2] / c) ** 2
        assert np.allclose(implicit, 1.0, atol=1e-12)

    def test_shape_must_fit(self):
        spec = sc.PhantomSpec(kind="ellipsoid", semi_axes_mm=(40.0, 22.0, 25.0))
        with pytest.raises(ValueError, match="4-voxel margin"):
            sc.make_phantom(spec)

    @pytest.mark.parametrize("field, value", [("noise_sigma", -0.3), ("blur_sigma_mm", -1.0),
                                              ("mesh_subdivisions", -1),
                                              ("noise_sigma", float("nan"))])
    def test_out_of_range_spec_names_the_field(self, field, value):
        # a negative sigma used to mean no noise or no blur, silently
        spec = sc.PhantomSpec(**{field: value})
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            sc.make_phantom(spec)

    @pytest.mark.parametrize("kind", ["ellipsoid", "bumpy"])
    @pytest.mark.parametrize("field, value", [
        ("seed", -5), ("semi_axes_mm", (0.0, 22.0, 25.0)), ("radius_mm", -24.0),
        ("radius_mm", 1.5), ("bump_amplitude_mm", float("nan")), ("bump_freq", float("nan"))])
    def test_every_field_checked_whatever_the_kind(self, kind, field, value):
        # each of these used to render a collapsed or non-finite truth.mesh,
        # or fail later without naming the field
        spec = sc.PhantomSpec(kind=kind, **{field: value})
        with pytest.raises(ValueError, match=rf"^{field} must "):
            sc.make_phantom(spec)

    def test_spec_json_round_trip(self):
        spec = sc.PhantomSpec(kind="bumpy", seed=3, bump_freq=2.5)
        back = sc.PhantomSpec.from_json(spec.to_json())
        assert back == spec

    def test_spec_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            sc.PhantomSpec.from_json('{"kind": "ellipsoid", "bogus": 1}')
