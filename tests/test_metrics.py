import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

import surfcrf as sc
from surfcrf.metrics import _as_triangles, _bidirectional_distances

from conftest import cube_mesh, stretched_noisy_icosphere


def ref_sample_surface(vertices, faces, max_edge):
    """Reference sampler: the mesh vertices, then midpoint subdivision run
    as a loop until every edge is <= max_edge, then each leaf's centroid."""
    tris = _as_triangles(faces)
    verts = np.asarray(vertices, dtype=np.float64)
    corners = verts[tris]
    out = [verts]
    while True:
        e0 = np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
        e1 = np.linalg.norm(corners[:, 2] - corners[:, 1], axis=1)
        e2 = np.linalg.norm(corners[:, 0] - corners[:, 2], axis=1)
        big = np.maximum(np.maximum(e0, e1), e2) > max_edge
        done = corners[~big]
        if done.size:
            out.append(done.mean(axis=1))
        if not big.any():
            break
        a, b, c = corners[big, 0], corners[big, 1], corners[big, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        corners = np.concatenate([
            np.stack([a, ab, ca], axis=1),
            np.stack([b, bc, ab], axis=1),
            np.stack([c, ca, bc], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ])
    return np.concatenate(out)


def sorted_rows(points):
    """Rows in lexicographic order of their coordinates rounded to 1e-6, so
    that last-digit differences do not reorder rows."""
    return points[np.lexsort(np.round(points, 6).T[::-1])]


def template(dims=(32, 32, 32), spacing=(1.0, 1.0, 1.0)):
    return sc.Volume(dims=dims, spacing=spacing, origin=(0.0, 0.0, 0.0),
                     data=np.zeros(dims, dtype=np.float32))


def label_volume(mask):
    mask = np.asarray(mask, dtype=np.float32)
    return sc.Volume(mask.shape, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), mask)


class TestVoxelize:
    def test_cube_count(self):
        cube = cube_mesh(side=10.0, center=(15.5, 15.5, 15.5))
        lab = sc.voxelize(cube.vertices, cube.faces, template())
        count = lab.data.sum()
        assert abs(count - 1000) / 1000 < 0.05

    def test_sphere_count(self):
        r = 10.0
        ico = sc.icosphere(3, radius=r, center=(15.5, 15.5, 15.5))
        lab = sc.voxelize(ico.vertices, ico.faces, template())
        expect = 4.0 / 3.0 * np.pi * r ** 3
        assert abs(lab.data.sum() - expect) / expect < 0.05

    def test_mesh_outside_template_all_zero(self):
        ico = sc.icosphere(2, radius=5.0, center=(200.0, 0.0, 0.0))
        lab = sc.voxelize(ico.vertices, ico.faces, template())
        assert (lab.data == 0).all()

    def test_quad_faces_accepted(self):
        qs = sc.build_quadsphere(3)
        verts = qs.vertices * 10.0 + 15.5
        lab = sc.voxelize(verts, qs.faces, template())
        expect = 4.0 / 3.0 * np.pi * 1000.0
        assert abs(lab.data.sum() - expect) / expect < 0.05

    def test_axis_aligned_pole_vertices_robust(self):
        # icosphere poles align exactly with voxel-center columns; the fixed
        # jitter keeps the parity count consistent
        ico = sc.icosphere(3, radius=10.0, center=(16.0, 16.0, 16.0))
        lab = sc.voxelize(ico.vertices, ico.faces, template())
        from surfcrf.mesh import signed_volume
        poly = signed_volume(ico)
        assert abs(lab.data.sum() - poly) / poly < 0.01


class TestDsc:
    def test_identical(self):
        rng = np.random.default_rng(0)
        mask = rng.random((8, 8, 8)) > 0.5
        assert sc.dsc(label_volume(mask), label_volume(mask)) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        a[0] = 1
        b[3] = 1
        assert sc.dsc(label_volume(a), label_volume(b)) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        a[:2] = 1
        b[1:3] = 1
        assert sc.dsc(label_volume(a), label_volume(b)) == pytest.approx(0.5)

    def test_both_empty_is_one(self):
        assert sc.dsc(label_volume(np.zeros((4, 4, 4))),
                      label_volume(np.zeros((4, 4, 4)))) == 1.0

    def test_empty_vs_nonempty_is_zero(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        b[1] = 1
        assert sc.dsc(label_volume(a), label_volume(b)) == 0.0

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            sc.dsc(label_volume(np.zeros((4, 4, 4))), label_volume(np.zeros((5, 4, 4))))

    def test_non_binary_rejected(self):
        bad = label_volume(np.full((4, 4, 4), 0.5))
        with pytest.raises(ValueError, match="binary"):
            sc.dsc(bad, bad)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = label_volume(rng.random((6, 6, 6)) > 0.4)
        b = label_volume(rng.random((6, 6, 6)) > 0.6)
        assert sc.dsc(a, b) == sc.dsc(b, a)


class TestSurfaceDistances:
    def test_identical_surfaces_zero(self):
        ico = sc.icosphere(2, radius=10.0)
        s = sc.sample_surface(ico.vertices, ico.faces, 1.0)
        assert sc.hd(s, s) == 0.0
        assert sc.asd(s, s) == 0.0

    def test_concentric_spheres(self):
        s20 = sc.sample_surface(*_sphere(20.0), 0.5)
        s22 = sc.sample_surface(*_sphere(22.0), 0.5)
        assert sc.hd(s20, s22) == pytest.approx(2.0, abs=0.2)
        assert sc.asd(s20, s22) == pytest.approx(2.0, abs=0.2)

    def test_hd_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 3))
        b = rng.normal(size=(70, 3)) + 1.0
        assert sc.hd(a, b) == sc.hd(b, a)
        assert sc.asd(a, b) == sc.asd(b, a)

    def test_asd_never_exceeds_hd(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            a = rng.normal(size=(30, 3))
            b = rng.normal(size=(25, 3)) + rng.normal(size=3)
            assert sc.asd(a, b) <= sc.hd(a, b) + 1e-12

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sc.hd(np.zeros((0, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            sc.asd(np.zeros((2, 3)), np.zeros((0, 3)))


def _sphere(radius):
    ico = sc.icosphere(4, radius=radius)
    return ico.vertices, ico.faces


class TestSampleSurface:
    def test_includes_vertices(self):
        ico = sc.icosphere(1, radius=5.0)
        s = sc.sample_surface(ico.vertices, ico.faces, 100.0)
        assert np.allclose(s[:len(ico.vertices)], ico.vertices, atol=0)

    def test_density_respects_max_edge(self):
        ico = sc.icosphere(1, radius=5.0)
        coarse = sc.sample_surface(ico.vertices, ico.faces, 5.0)
        fine = sc.sample_surface(ico.vertices, ico.faces, 0.5)
        assert len(fine) > 10 * len(coarse)
        d, _ = cKDTree(fine).query(fine, k=2)
        assert d[:, 1].max() <= 1.0  # neighbors within the edge scale

    def test_non_positive_max_edge_rejected(self):
        ico = sc.icosphere(1)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="max_edge"):
                sc.sample_surface(ico.vertices, ico.faces, bad)

    def test_samples_lie_on_faces(self):
        cube = cube_mesh(side=4.0)
        s = sc.sample_surface(cube.vertices, cube.faces, 0.7)
        assert np.abs(s).max() <= 2.0 + 1e-12
        on_face = (np.abs(np.abs(s) - 2.0) < 1e-9).any(axis=1)
        assert on_face.all()


def _degenerate_mesh():
    # a repeated-vertex face and a collinear sliver beside a regular face
    verts = np.asarray([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 2.5, 0.0],
                        [1.5, 0.0, 0.0], [6.0, 0.0, 0.0]])
    return verts, np.asarray([[0, 1, 2], [0, 0, 1], [0, 3, 4]])


def _tie_tetrahedron():
    # dyadic corners: the longest edge (4) halves exactly onto max_edge
    verts = np.asarray([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    return verts, np.asarray([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


def _quad_sphere():
    qs = sc.build_quadsphere(3)
    return qs.vertices * 7.0 + 1.0, qs.faces


def _vf(mesh):
    return mesh.vertices, mesh.faces


SAMPLER_CASES = (
    [pytest.param(*_vf(sc.icosphere(n, radius=10.0)), me, id=f"icosphere{n}-{me}")
     for n in (1, 2, 3, 4) for me in (0.5, 1.3)]
    + [pytest.param(*_vf(stretched_noisy_icosphere()), me, id=f"stretched-{me}")
       for me in (0.7, 2.0)]
    + [pytest.param(*_quad_sphere(), 0.4, id="quad-sphere")]
    + [pytest.param(*_degenerate_mesh(), me, id=f"degenerate-{me}") for me in (0.3, 1.0)]
    + [pytest.param(*_vf(cube_mesh(side=4.0)), me, id=f"cube4-{me}") for me in (0.5, 1.0, 2.0)]
    + [pytest.param(*_tie_tetrahedron(), me, id=f"tie-tetra-{me}")
       for me in (0.5, 1.0, 2.0, 4.0)]
)


class TestSamplerOracle:
    @pytest.mark.parametrize("verts,faces,max_edge", SAMPLER_CASES)
    def test_matches_subdivision_loop(self, verts, faces, max_edge):
        got = sc.sample_surface(verts, faces, max_edge)
        want = ref_sample_surface(verts, faces, max_edge)
        assert got.shape == want.shape
        assert np.array_equal(got[:len(verts)], verts)
        assert np.abs(sorted_rows(got) - sorted_rows(want)).max() <= 1e-12


class TestBidirectionalDistances:
    @pytest.mark.parametrize("seed", range(12))
    def test_equal_to_plain_kd_queries(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = (1, 1) if seed == 0 else rng.integers(1, 400, size=2)
        s1 = rng.normal(size=(n1, 3)) * rng.uniform(0.1, 50.0)
        s2 = rng.normal(size=(n2, 3)) * rng.uniform(0.1, 50.0)
        if seed % 3 == 1:  # duplicated points and points shared by both sets
            s1 = np.concatenate([s1, s1[: n1 // 2 + 1], s2[:3]])
            s2 = np.concatenate([s2, s2[:2], s2[:2]])
        if seed % 3 == 2:  # integer lattice points: many exact distance ties
            s1 = np.round(s1)
            s2 = np.round(s2)
        d12, d21 = _bidirectional_distances(s1, s2)
        assert np.array_equal(d12, cKDTree(s2).query(s1)[0])
        assert np.array_equal(d21, cKDTree(s1).query(s2)[0])

    def test_hd_and_asd_use_the_same_distances(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(300, 3))
        b = rng.normal(size=(200, 3)) + 0.5
        d12, d21 = cKDTree(b).query(a)[0], cKDTree(a).query(b)[0]
        assert sc.hd(a, b) == max(d12.max(), d21.max())
        assert sc.asd(a, b) == pytest.approx((d12.sum() + d21.sum()) / 500, rel=1e-14)


def _rigid(points, quat, shift):
    return Rotation.from_quat(quat).apply(points) + np.asarray(shift)


_QUAT = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)
_SHIFT = st.tuples(*[st.floats(-100.0, 100.0)] * 3)


class TestRigidMotion:
    @settings(max_examples=25, deadline=None)
    @given(quat=_QUAT, shift=_SHIFT)
    def test_hd_asd_invariant(self, quat, shift):
        a = stretched_noisy_icosphere()
        b = sc.icosphere(2, radius=18.0)
        s_a = sc.sample_surface(a.vertices, a.faces, 2.0)
        s_b = sc.sample_surface(b.vertices, b.faces, 2.0)
        m_a = sc.sample_surface(_rigid(a.vertices, quat, shift), a.faces, 2.0)
        m_b = sc.sample_surface(_rigid(b.vertices, quat, shift), b.faces, 2.0)
        assert len(m_a) == len(s_a) and len(m_b) == len(s_b)
        assert sc.hd(m_a, m_b) == pytest.approx(sc.hd(s_a, s_b), rel=1e-9)
        assert sc.asd(m_a, m_b) == pytest.approx(sc.asd(s_a, s_b), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(steps=st.tuples(*[st.integers(-40, 40)] * 3))
    def test_dsc_invariant_under_whole_voxel_shift(self, steps):
        spacing = (0.8, 1.1, 1.3)
        truth = sc.icosphere(3, radius=8.0, center=(13.0, 14.0, 15.0))
        pred_verts = (truth.vertices - truth.vertices.mean(axis=0)) * (1.1, 0.9, 1.0) \
            + (13.5, 13.8, 15.2)
        base = template(dims=(32, 28, 24), spacing=spacing)
        rep = sc.compare_surfaces(pred_verts, truth.faces, truth.vertices, truth.faces, base)
        shift = np.asarray(steps) * spacing
        moved = sc.Volume(dims=base.dims, spacing=spacing, origin=tuple(shift),
                          data=base.data)
        got = sc.compare_surfaces(pred_verts + shift, truth.faces, truth.vertices + shift,
                                  truth.faces, moved)
        assert abs(got.dsc - rep.dsc) <= 1e-3
        assert got.hd_mm == pytest.approx(rep.hd_mm, rel=1e-9)


class TestPhantomAgreement:
    def test_voxelized_phantom_mesh_matches_labels(self):
        # A8 ingredient: discretization agreement at 64^3
        spec = sc.PhantomSpec(kind="ellipsoid", noise_sigma=0.0, blur_sigma_mm=0.0,
                              seed=0, dims=(64, 64, 64), mesh_subdivisions=4)
        _, mesh = sc.make_phantom(spec)
        labels = sc.phantom_label_volume(spec)
        vox = sc.voxelize(mesh.vertices, mesh.faces, labels)
        assert sc.dsc(labels, vox) >= 0.98

    def test_compare_surfaces_report(self):
        spec = sc.PhantomSpec(kind="ellipsoid", noise_sigma=0.0, blur_sigma_mm=0.0,
                              seed=0, mesh_subdivisions=3)
        _, mesh = sc.make_phantom(spec)
        labels = sc.phantom_label_volume(spec)
        rep = sc.compare_surfaces(mesh.vertices, mesh.faces, mesh.vertices, mesh.faces,
                                  labels, labels=labels)
        assert rep.dsc >= 0.98
        assert rep.hd_mm == 0.0
        assert rep.asd_mm == 0.0
        assert rep.voxels_pred == rep.voxels_overlap
        import json
        doc = json.loads(rep.to_json())
        assert set(doc) == {"dsc", "asd_mm", "hd_mm", "voxels_truth", "voxels_pred",
                            "voxels_overlap"}
