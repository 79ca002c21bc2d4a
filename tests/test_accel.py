"""Every surfcrf.accel kernel against a scalar-loop reference.

The reference loops below state each kernel one column, ray, point or
triangle at a time; the vectorized kernels must reproduce them exactly
(integer outputs, hit flags, face ids) or to 1e-12 (floats).
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

import surfcrf as sc
from surfcrf import accel
from surfcrf.crf import window_offsets
from surfcrf.metrics import _JITTER
from surfcrf.quadsphere import _location_tables

from conftest import traced_peak_mib


# ---------------------------------------------------------------------------
# scalar reference loops


def ref_trilinear_gather(data, origin, spacing, pts):
    X, Y, Z = data.shape
    ox, oy, oz = origin
    sx, sy, sz = spacing
    out = np.empty(pts.shape[0])
    for n in range(pts.shape[0]):
        u = min(max((pts[n, 0] - ox) / sx, 0.0), X - 1.0)
        v = min(max((pts[n, 1] - oy) / sy, 0.0), Y - 1.0)
        w = min(max((pts[n, 2] - oz) / sz, 0.0), Z - 1.0)
        i0 = min(int(u), max(X - 2, 0))
        j0 = min(int(v), max(Y - 2, 0))
        k0 = min(int(w), max(Z - 2, 0))
        i1 = min(i0 + 1, X - 1)
        j1 = min(j0 + 1, Y - 1)
        k1 = min(k0 + 1, Z - 1)
        fu = u - i0
        fv = v - j0
        fw = w - k0
        c00 = data[i0, j0, k0] * (1 - fu) + data[i1, j0, k0] * fu
        c10 = data[i0, j1, k0] * (1 - fu) + data[i1, j1, k0] * fu
        c01 = data[i0, j0, k1] * (1 - fu) + data[i1, j0, k1] * fu
        c11 = data[i0, j1, k1] * (1 - fu) + data[i1, j1, k1] * fu
        c0 = c00 * (1 - fv) + c10 * fv
        c1 = c01 * (1 - fv) + c11 * fv
        out[n] = c0 * (1 - fw) + c1 * fw
    return out


def ref_locate_points(inv_mats, centroids, cos_bound, pts, tol=1e-10, fallback_tol=1e-6):
    face_out = np.full(pts.shape[0], -1, dtype=np.int64)
    bary_out = np.zeros((pts.shape[0], 3))
    for n in range(pts.shape[0]):
        p = pts[n]
        hit = -1
        best = -1.0e300
        best_f = -1
        b = None
        for f in range(inv_mats.shape[0]):
            if centroids[f] @ p < cos_bound[f]:
                continue
            a0, a1, a2 = inv_mats[f] @ p
            s = a0 + a1 + a2
            if s <= 0.0:
                continue
            frac = min(a0, a1, a2) / s
            if frac >= -tol:
                hit = f
                b = (a0 / s, a1 / s, a2 / s)
                break
            if frac > best:
                best = frac
                best_f = f
                b = (a0 / s, a1 / s, a2 / s)
        if hit < 0 and best >= -fallback_tol:
            hit = best_f
        if hit >= 0:
            face_out[n] = hit
            bary_out[n] = np.asarray(b) / sum(b)
    return face_out, bary_out


def ref_raycast_min_abs_t(verts, faces, origins, dirs):
    tolb = 1e-10
    verts = verts.tolist()
    t_out = np.zeros(origins.shape[0])
    hit_out = np.zeros(origins.shape[0], dtype=bool)
    for n, ((ox, oy, oz), (dx, dy, dz)) in enumerate(zip(origins.tolist(), dirs.tolist())):
        best_t = 0.0
        best_key = (np.inf, True)
        for i0, i1, i2 in faces.tolist():
            ax, ay, az = verts[i0]
            e1x, e1y, e1z = (b - a for a, b in zip(verts[i0], verts[i1]))
            e2x, e2y, e2z = (b - a for a, b in zip(verts[i0], verts[i2]))
            px = dy * e2z - dz * e2y
            py = dz * e2x - dx * e2z
            pz = dx * e2y - dy * e2x
            det = e1x * px + e1y * py + e1z * pz
            if abs(det) <= 1e-12:
                continue
            tx, ty, tz = ox - ax, oy - ay, oz - az
            u = (tx * px + ty * py + tz * pz) / det
            if u < -tolb or u > 1.0 + tolb:
                continue
            qx = ty * e1z - tz * e1y
            qy = tz * e1x - tx * e1z
            qz = tx * e1y - ty * e1x
            v = (dx * qx + dy * qy + dz * qz) / det
            if v < -tolb or u + v > 1.0 + tolb:
                continue
            t = (e2x * qx + e2y * qy + e2z * qz) / det
            key = (abs(t), t > 0)  # least |t|; negative wins a |t| tie
            if key < best_key:
                best_key = key
                best_t = t
                hit_out[n] = True
        t_out[n] = best_t
    return t_out, hit_out


def _neighbors(shape, offsets):
    """(p, y, x, k, ny, nx) for every in-grid window neighbor."""
    P, H, W = shape
    for p in range(P):
        for y in range(H):
            for x in range(W):
                for k, (dy, dx) in enumerate(offsets):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < H and 0 <= nx < W:
                        yield p, y, x, k, ny, nx


def ref_window_sum(q, w, offsets):
    out = np.zeros_like(q)
    for p, y, x, k, ny, nx in _neighbors(q.shape[:3], offsets):
        out[p, y, x] += w[p, y, x, k] * q[p, ny, nx]
    return out


def ref_window_sum_adjoint(d_out, w, offsets):
    dq = np.zeros_like(d_out)
    for p, y, x, k, ny, nx in _neighbors(d_out.shape[:3], offsets):
        dq[p, ny, nx] += w[p, y, x, k] * d_out[p, y, x]
    return dq


def ref_window_weight_grad(d_out, q, offsets):
    dw = np.zeros(q.shape[:3] + (len(offsets),))
    for p, y, x, k, ny, nx in _neighbors(q.shape[:3], offsets):
        dw[p, y, x, k] = d_out[p, y, x] @ q[p, ny, nx]
    return dw


def ref_pairwise_weights(feat, valid, offsets, inv2t1, inv2t2, inv2t3, w1):
    w = np.zeros(feat.shape[:3] + (len(offsets),))
    for p, y, x, k, ny, nx in _neighbors(feat.shape[:3], offsets):
        dy, dx = offsets[k]
        if (dy == 0 and dx == 0) or not (valid[p, y, x] and valid[p, ny, nx]):
            continue
        dist = ((feat[p, y, x] - feat[p, ny, nx]) ** 2).sum()
        d2 = float(dy * dy + dx * dx)
        w[p, y, x, k] = np.exp(-d2 * inv2t1 - dist * inv2t2) + w1 * np.exp(-d2 * inv2t3)
    return w


def ref_parity_diff(tri_xyz, origin, spacing, dims):
    X, Y, Z = dims
    ox, oy, oz = origin
    sx, sy, sz = spacing
    diff = np.zeros((X, Y, Z), dtype=np.int32)
    for (ax, ay, az), (bx, by, bz), (cx, cy, cz) in tri_xyz:
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0.0:
            continue
        i0 = max(int(np.ceil((min(ax, bx, cx) - ox) / sx)), 0)
        i1 = min(int(np.floor((max(ax, bx, cx) - ox) / sx)), X - 1)
        j0 = max(int(np.ceil((min(ay, by, cy) - oy) / sy)), 0)
        j1 = min(int(np.floor((max(ay, by, cy) - oy) / sy)), Y - 1)
        for i in range(i0, i1 + 1):
            px = ox + sx * i
            for j in range(j0, j1 + 1):
                py = oy + sy * j
                ea = (cx - bx) * (py - by) - (cy - by) * (px - bx)
                eb = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
                ec = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
                pos = ea > 0 and eb > 0 and ec > 0
                neg = ea < 0 and eb < 0 and ec < 0
                if not (pos or neg):
                    continue
                zstar = (ea * az + eb * bz + ec * cz) / (ea + eb + ec)
                k = max(int(np.floor((zstar - oz) / sz)) + 1, 0)
                if k < Z:
                    diff[i, j, k] += 1
    return diff


# ---------------------------------------------------------------------------
# kernels vs references


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


class TestScalarOracles:
    def test_backend_is_numpy(self):
        assert accel.BACKEND == "numpy"

    def test_trilinear(self, rng):
        data = rng.random((12, 10, 9))
        pts = rng.uniform(-4, 14, size=(2000, 3))
        origin = np.asarray([0.5, -1.0, 2.0])
        spacing = np.asarray([1.0, 0.8, 1.2])
        a = accel.trilinear_gather(data, origin, spacing, pts)
        b = ref_trilinear_gather(data, origin, spacing, pts)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 50])
    def test_trilinear_across_blocks(self, monkeypatch, n):
        monkeypatch.setattr(accel, "_GATHER_CHUNK", 7)
        rng = np.random.default_rng(n)
        data = rng.random((12, 10, 9))
        pts = rng.uniform(-4, 14, size=(n, 3))
        origin = np.asarray([0.5, -1.0, 2.0])
        spacing = np.asarray([1.0, 0.8, 1.2])
        a = accel.trilinear_gather(data, origin, spacing, pts)
        assert np.array_equal(a, ref_trilinear_gather(data, origin, spacing, pts))

    def test_trilinear_memory_bounded(self):
        # the column points of the default r=5 case: 6146 vertices x 48
        # samples in a 64^3 volume; interpolating them all in one block
        # traces about 74 MiB
        rng = np.random.default_rng(0)
        data = rng.random((64, 64, 64), dtype=np.float32)
        pts = rng.uniform(-2.0, 66.0, size=(6146 * 48, 3))
        _, peak = traced_peak_mib(accel.trilinear_gather, data, np.zeros(3), np.ones(3), pts)
        assert peak < 20.0

    def test_locate(self, rng):
        smap = sc.harmonic_sphere_map(sc.icosphere(2))
        inv, cent, cosb = _location_tables(smap)
        pts = rng.normal(size=(400, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        f1, b1 = accel.locate_points(inv, cent, cosb, pts)
        f2, b2 = ref_locate_points(inv, cent, cosb, pts)
        assert np.array_equal(f1, f2)
        assert np.array_equal(b1, b2)

    def test_raycast(self, rng):
        ico = sc.icosphere(2, radius=3.0)
        origins = rng.normal(size=(300, 3)) * 0.5
        dirs = rng.normal(size=(300, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        t1, h1 = accel.raycast_min_abs_t(ico.vertices, ico.faces, origins, dirs)
        t2, h2 = ref_raycast_min_abs_t(ico.vertices, ico.faces, origins, dirs)
        assert np.array_equal(h1, h2)
        assert np.abs(t1 - t2).max() <= 1e-12

    @pytest.mark.parametrize("cast", [accel.raycast_min_abs_t, ref_raycast_min_abs_t])
    def test_raycast_least_abs_t_wins(self, cast):
        # faces in the planes x = +1.0 and x = -1.4 (then x = -1.0, an exact
        # |t| tie) on a ray from the origin along +x
        tri = np.asarray([[0.0, -1.0, -1.0], [0.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        faces = np.asarray([[0, 1, 2], [3, 4, 5]])
        origin, along_x = np.zeros((1, 3)), np.asarray([[1.0, 0.0, 0.0]])
        for back, want in ((-1.4, 1.0), (-1.0, -1.0)):
            verts = np.concatenate([tri + [1.0, 0.0, 0.0], tri + [back, 0.0, 0.0]])
            t, hit = cast(verts, faces, origin, along_x)
            assert hit[0] and t[0] == want

    @staticmethod
    def assert_window_ops_match(q, w, offs):
        assert np.abs(accel.window_sum(q, w, offs)
                      - ref_window_sum(q, w, offs)).max() <= 1e-12
        assert np.abs(accel.window_sum_adjoint(q, w, offs)
                      - ref_window_sum_adjoint(q, w, offs)).max() <= 1e-12

    def test_window_ops(self, rng):
        offs = window_offsets(2)
        q = rng.random((3, 9, 8, 6))
        w = rng.random((3, 9, 8, len(offs)))
        self.assert_window_ops_match(q, w, offs)
        assert np.abs(accel.window_weight_grad(q, 2 * q, offs)
                      - ref_window_weight_grad(q, 2 * q, offs)).max() <= 1e-12

    def test_window_ops_ignore_out_of_grid_weights(self, rng):
        # nonzero (and negative) weights on offsets that leave the grid must
        # not reach any slot
        offs = window_offsets(2)
        q = rng.random((2, 5, 6, 4))
        w = rng.normal(size=(2, 5, 6, len(offs)))
        self.assert_window_ops_match(q, w, offs)
        inside = np.zeros_like(w)
        for p, y, x, k, _, _ in _neighbors(q.shape[:3], offs):
            inside[p, y, x, k] = w[p, y, x, k]
        assert np.array_equal(accel.window_sum(q, w, offs), accel.window_sum(q, inside, offs))
        assert np.array_equal(accel.window_sum_adjoint(q, w, offs),
                              accel.window_sum_adjoint(q, inside, offs))

    def test_window_wider_than_grid(self, rng):
        offs = window_offsets(3)
        for shape in ((2, 1, 5), (1, 1, 1), (3, 2, 1)):
            q = rng.random(shape + (3,))
            w = rng.normal(size=shape + (len(offs),))
            self.assert_window_ops_match(q, w, offs)

    def test_window_ops_alternating_shapes(self, rng):
        # alternate grid shapes and radii, and reverse the offset order (the
        # only case here whose offsets are not in window_offsets order)
        cases = [((2, 4, 5), window_offsets(1)), ((2, 5, 4), window_offsets(1)),
                 ((2, 4, 5), window_offsets(2)), ((1, 4, 5), window_offsets(1)),
                 ((2, 4, 5), window_offsets(1)[::-1])]
        for _ in range(2):
            for shape, offs in cases:
                q = rng.random(shape + (3,))
                w = rng.normal(size=shape + (len(offs),))
                self.assert_window_ops_match(q, w, offs)

    def test_pairwise_weights(self, rng):
        offs = window_offsets(2)
        feat = rng.random((2, 7, 6, 5))
        valid = rng.random((2, 7, 6)) > 0.15
        got = accel.pairwise_weights(feat, valid, offs, 0.1, 3.0, 0.2, 1.7)
        want = ref_pairwise_weights(feat, valid, offs, 0.1, 3.0, 0.2, 1.7)
        assert np.abs(got - want).max() <= 1e-12

    def test_parity(self):
        ico = sc.icosphere(2, radius=7.0)
        tri = ico.vertices[ico.faces] + (12.3, 11.7, 12.9)
        d1 = accel.parity_diff(tri, np.zeros(3), np.ones(3), (26, 26, 26))
        d2 = ref_parity_diff(tri, np.zeros(3), np.ones(3), (26, 26, 26))
        assert np.array_equal(d1, d2)


# ---------------------------------------------------------------------------
# properties on a randomly placed convex surface


@pytest.fixture(scope="module")
def ico_map():
    return sc.harmonic_sphere_map(sc.icosphere(2))


def single_triangle_map():
    """A one-face spherical mesh near the north pole."""
    verts = np.asarray([[0.1, 0.0, 1.0], [0.0, 0.1, 1.0], [-0.1, -0.1, 1.0]])
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return sc.SphereMap(mesh=sc.TriMesh(vertices=verts, faces=np.asarray([[0, 1, 2]])),
                        positions=verts)


def assert_locate_matches_reference(smap, pts):
    tables = _location_tables(smap)
    f1, b1 = accel.locate_points(*tables, pts)
    f2, b2 = ref_locate_points(*tables, pts)
    assert f1.shape == (len(pts),) and b1.shape == (len(pts), 3)
    assert np.array_equal(f1, f2)
    assert np.array_equal(b1, b2)
    return f1, b1


class TestTrilinearGather:
    """Interpolation properties of trilinear_gather on an anisotropic grid
    with an offset origin."""
    origin = np.asarray([-1.5, 2.0, 0.5])
    spacing = np.asarray([0.8, 1.25, 2.0])

    def center(self, idx):
        return self.origin + np.asarray(idx, dtype=np.float64) * self.spacing

    def gather(self, data, pts):
        return accel.trilinear_gather(data, self.origin, self.spacing, np.atleast_2d(pts))

    def test_voxel_center_identity(self):
        data = np.random.default_rng(0).random((4, 5, 3)).astype(np.float32)
        idx = [(0, 0, 0), (1, 2, 1), (3, 4, 2)]
        got = self.gather(data, np.stack([self.center(i) for i in idx]))
        assert np.allclose(got, [data[i] for i in idx], atol=1e-7)

    def test_midpoint_linearity(self):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        data[2, 1, 1] = 2.0
        mid = (self.center((1, 1, 1)) + self.center((2, 1, 1))) / 2
        assert self.gather(data, mid)[0] == pytest.approx(1.0, abs=1e-12)

    def test_outside_clamps_to_border(self):
        data = np.random.default_rng(1).random((4, 4, 4)).astype(np.float32)
        far = np.asarray([100.0, -50.0, 100.0])
        assert self.gather(data, far)[0] == pytest.approx(float(data[3, 0, 3]), abs=1e-7)

    def test_affine_field_exact(self):
        # trilinear reproduces affine intensity fields exactly inside the grid
        ijk = np.stack(np.meshgrid(*(np.arange(5),) * 3, indexing="ij"), -1)
        world = self.origin + ijk * self.spacing
        coef = np.asarray([2.0, -3.0, 0.5])
        data = (world @ coef + 1.0).astype(np.float32)
        pts = self.origin + np.random.default_rng(2).uniform(0, 4, size=(50, 3)) * self.spacing
        assert np.allclose(self.gather(data, pts), pts @ coef + 1.0, atol=1e-5)


class TestLocate:
    """Edge cases of the one-pass point location, each against the loop."""

    def test_mapped_vertices_go_to_lowest_incident_face(self, ico_map):
        faces = ico_map.mesh.faces
        face, _ = assert_locate_matches_reference(ico_map, ico_map.positions)
        lowest = np.full(len(ico_map.positions), len(faces))
        np.minimum.at(lowest, faces.ravel(), np.repeat(np.arange(len(faces)), 3))
        assert np.array_equal(face, lowest)

    def test_shared_edge_points_go_to_lowest_face(self, ico_map):
        faces = ico_map.mesh.faces
        pos = ico_map.positions
        i, j = faces[:, 0], faces[:, 1]
        sharing = [min(f for f in range(len(faces)) if a in faces[f] and b in faces[f])
                   for a, b in zip(i, j)]
        for w in (0.5, 0.3):  # midpoints and off-center points of each edge
            pts = w * pos[i] + (1.0 - w) * pos[j]
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            face, _ = assert_locate_matches_reference(ico_map, pts)
            assert np.array_equal(face, sharing)

    def test_fallback_and_no_face(self):
        smap = single_triangle_map()
        a, b, c = smap.positions
        # just outside edge a-b: min-fraction about -1e-8, inside fallback_tol
        near = 0.5 * (a + b) - 1e-8 * c
        # well outside edge a-b but inside the prefilter disc: no fallback
        outside = 0.5 * (a + b) - 1e-3 * c
        pts = np.stack([near, outside, [0.0, 0.0, -1.0]])  # south pole: no candidate
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        face, bary = assert_locate_matches_reference(smap, pts)
        assert face.tolist() == [0, -1, -1]
        assert -1e-6 <= bary[0].min() < -1e-10
        assert np.array_equal(bary[1:], np.zeros((2, 3)))
        assert sc.locate_on_sphere(pts[0], smap)[0] == 0
        for p in pts[1:]:
            with pytest.raises(sc.LocateError, match="no containing triangle"):
                sc.locate_on_sphere(p, smap)

    @pytest.mark.parametrize("nq", [0, 1, accel._LOCATE_CHUNK, 2 * accel._LOCATE_CHUNK + 37])
    def test_chunk_boundaries(self, ico_map, nq):
        pts = np.random.default_rng(nq).normal(size=(nq, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        face, _ = assert_locate_matches_reference(ico_map, pts)
        assert (face >= 0).all()

    def test_level5_quad_sphere_vertices(self, ico_map):
        face, _ = assert_locate_matches_reference(ico_map, sc.build_quadsphere(5).vertices)
        assert (face >= 0).all()


def random_convex_icosphere(seed, subdivisions):
    """An icosphere under a random rotation, per-axis scale and translation
    (an affine image of a convex polytope, so still convex), centered in
    [2, 18]^3 mm so that it may stick out of a 20^3 grid at the origin."""
    rng = np.random.default_rng(seed)
    ico = sc.icosphere(subdivisions)
    rot = Rotation.random(random_state=rng).as_matrix()
    verts = (ico.vertices * rng.uniform(3.0, 9.0, size=3)) @ rot.T + rng.uniform(2.0, 18.0, 3)
    return verts, ico.faces, rng


def outward_planes(verts, faces):
    """Unit outward normal n and offset n.a of every face of a convex mesh."""
    a, b, c = (verts[faces[:, i]] for i in range(3))
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n, axis=1)[:, None]
    n *= np.sign(np.einsum("fk,fk->f", a - verts.mean(axis=0), n))[:, None]
    return n, np.einsum("fk,fk->f", n, a)


class TestConvexProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_voxelize_equals_halfspace_inside_test(self, seed):
        verts, faces, rng = random_convex_icosphere(seed, 1)
        template = sc.Volume(dims=(20, 20, 20), spacing=tuple(rng.uniform(0.8, 1.2, 3)),
                             origin=tuple(rng.uniform(-1.0, 1.0, 3)),
                             data=np.zeros((20, 20, 20), dtype=np.float32))
        got = sc.voxelize(verts, faces, template).data.astype(bool)
        # voxelize shifts the surface by a sub-micron jitter off the lattice
        n, off = outward_planes(verts + _JITTER * np.asarray(template.spacing), faces)
        ijk = np.stack(np.meshgrid(*(np.arange(d) for d in template.dims), indexing="ij"), -1)
        centers = np.asarray(template.origin) + ijk.reshape(-1, 3) * np.asarray(template.spacing)
        want = (centers @ n.T < off).all(axis=1).reshape(template.dims)
        assert want.any()
        assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_raycast_matches_reference(self, seed):
        verts, faces, rng = random_convex_icosphere(seed, 1)
        center = verts.mean(axis=0)
        origins = center + rng.normal(size=(40, 3)) * 6.0
        dirs = rng.normal(size=(40, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        t1, h1 = accel.raycast_min_abs_t(verts, faces, origins, dirs)
        t2, h2 = ref_raycast_min_abs_t(verts, faces, origins, dirs)
        assert np.array_equal(h1, h2)
        assert np.abs(t1 - t2).max() <= 1e-12
