import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import surfcrf as sc
from scipy import sparse

from surfcrf.crf import LOGIT_CLAMP, softmax, window_offsets
from surfcrf.patches import build_column_graph, make_toy_graph
from surfcrf.quadsphere import _CORNER_SIGNS, _FACE_CORNERS

from conftest import owned_mask, record_kernel, record_message_pass, traced_peak_mib


def toy_unary(height, width, z_len, seed=0, sigma=1.5, patches=1):
    rng = np.random.default_rng(seed)
    graph = make_toy_graph(height, width, patches)
    logits = rng.normal(0.0, sigma, size=(patches, height, width, z_len))
    return sc.unary_from_logits(graph, logits)


def brute_force_message_pass(q, kf):
    """Independent dense double loop over all slot pairs within the window."""
    P, H, W, Z = q.shape
    out = np.zeros_like(q)
    for p in range(P):
        for y in range(H):
            for x in range(W):
                for k in range(kf.offsets.shape[0]):
                    dy, dx = kf.offsets[k]
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < H and 0 <= nx < W:
                        out[p, y, x] += kf.weights[p, y, x, k] * q[p, ny, nx]
    return out


def ref_window_gids(graph, offsets):
    """Global id of each window neighbor of every slot, (P,H,W,K); -1 out of
    grid or invalid."""
    P, H, W = graph.shape
    K = offsets.shape[0]
    out = np.full((P, H, W, K), -1, dtype=np.int64)
    gid = np.where(graph.valid, graph.gid, -1)
    for k in range(K):
        dy, dx = int(offsets[k, 0]), int(offsets[k, 1])
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        if ys0 >= ys1 or xs0 >= xs1:
            continue
        out[:, ys0:ys1, xs0:xs1, k] = gid[:, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
    return out


def ref_full_pair_mask(graph, offsets):
    """The full-grid pair mask over every (P,H,W,K) window entry, owner or
    not: per-row gid dedup in (d2, k) order, then a record survives when its
    own entry and its mirror, at the same squared grid distance, are among
    the owner windows' records (sparse-matrix lookups)."""
    P, H, W = graph.shape
    K = offsets.shape[0]
    gwin = ref_window_gids(graph, offsets).reshape(-1, K)
    own = np.where(graph.valid, graph.gid, -2).reshape(-1)
    keep = (gwin >= 0) & (gwin != own[:, None]) & graph.valid.reshape(-1)[:, None]
    center = np.nonzero((offsets[:, 0] == 0) & (offsets[:, 1] == 0))[0]
    keep[:, center] = False

    d2 = offsets[:, 0] ** 2 + offsets[:, 1] ** 2
    order = np.lexsort((np.arange(K), d2))
    g_ord = np.where(keep, gwin, -1)[:, order]
    idx = np.argsort(g_ord, axis=1, kind="stable")
    g_sorted = np.take_along_axis(g_ord, idx, axis=1)
    dup_sorted = np.zeros_like(g_sorted, dtype=bool)
    dup_sorted[:, 1:] = (g_sorted[:, 1:] == g_sorted[:, :-1]) & (g_sorted[:, 1:] >= 0)
    dup_ord = np.zeros_like(dup_sorted)
    np.put_along_axis(dup_ord, idx, dup_sorted, axis=1)
    dup = np.zeros_like(dup_sorted)
    dup[:, order] = dup_ord
    keep &= ~dup

    rows, ks = np.nonzero(keep)
    if rows.size == 0:
        return keep.reshape(P, H, W, K)
    src, dst, d2p = own[rows], gwin[rows, ks], d2[ks] + 1
    orec = owned_mask(graph).reshape(-1)[rows]
    nv = graph.n_vertices
    a = sparse.csr_matrix((d2p[orec], (src[orec], dst[orec])), shape=(nv, nv))
    assert a.nnz == orec.sum(), "owner windows list a gid pair twice"
    fwd = np.asarray(a[src, dst]).ravel()
    mirror = np.asarray(a[dst, src]).ravel()
    keep[rows, ks] = (fwd == d2p) & (mirror == d2p)
    return keep.reshape(P, H, W, K)


def ref_pair_edges(graph, mask, offsets):
    """The owner-row records of a full-grid pair mask as CSR arrays over
    vertices, (cols, k, indptr), as crf.pair_edges returns them."""
    W = graph.shape[2]
    K = offsets.shape[0]
    itype = np.int32 if graph.n_vertices * K < 2 ** 31 else np.int64
    owner = graph.owner
    rows, ks = np.nonzero(mask.reshape(-1, K)[owner])
    src = owner[rows]
    cols = graph.gid.reshape(-1)[src + offsets[ks, 0] * W + offsets[ks, 1]].astype(itype)
    indptr = np.zeros(graph.n_vertices + 1, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=graph.n_vertices), out=indptr[1:])
    return cols, ks.astype(np.min_scalar_type(K - 1)), indptr


def at_owner_slots(graph, other, field):
    """The owner rows of a (P,H,W,...) slot field of ``other``, a graph of
    the same sphere at another pad, at the owning slots of ``graph``; 0
    elsewhere."""
    out = np.zeros((graph.gid.size, *field.shape[3:]), dtype=field.dtype)
    out[graph.owner] = field.reshape(-1, *field.shape[3:])[other.owner]
    return out.reshape(*graph.shape, *field.shape[3:])


def window_pad_graph(qs, pad, radius):
    """The graph of ``qs`` at a pad wide enough for every window of
    ``radius``, so a slot-grid reference reads no truncated seam: ``pad``
    itself where it is already that wide, else the radius (n at most)."""
    return build_column_graph(qs, min(max(pad, radius), qs.n))


@functools.lru_cache(maxsize=None)
def ref_window_records(graph, radius):
    """Scalar-loop reference of the neighbour records, one key set per
    vertex: row i walks the window of its owning slot in (d2, k) order and
    keeps the first sighting of each other vertex j as {j: k}; then (i, j)
    stays only where row j lists i at the same d2."""
    offsets = window_offsets(radius).tolist()
    d2 = [dy * dy + dx * dx for dy, dx in offsets]
    _, height, width = graph.shape
    gid = graph.gid.tolist()
    seen = []
    for i, (p, y, x) in enumerate(zip(*np.unravel_index(graph.owner, graph.shape))):
        row = {}
        for k in sorted(range(len(offsets)), key=lambda k: (d2[k], k)):
            ny, nx = y + offsets[k][0], x + offsets[k][1]
            j = gid[p][ny][nx] if 0 <= ny < height and 0 <= nx < width else -1
            if j >= 0 and j != i and j not in row:
                row[j] = k
        seen.append(row)
    return [{j: k for j, k in row.items() if i in seen[j] and d2[seen[j][i]] == d2[k]}
            for i, row in enumerate(seen)]


@functools.lru_cache(maxsize=None)
def ref_unfolded_pairs(level, radius):
    """Scalar-loop reference of the vertex pairs within Chebyshev distance
    ``radius`` on the cube lattice after unfolding across one cube edge, as
    {(i, j): d2}, d2 the least squared distance over the faces that hold i.
    A vertex's lattice point has coordinates 0..n (padded_gid_grids); a
    face is read in its two tangent axes, and a point past one of its edges
    by e <= n lies on the neighbouring face, e steps in from that edge."""
    qs = sc.build_quadsphere(level)
    n = qs.n
    vid = {}
    for f, (c00, cn0, c0n) in enumerate(_FACE_CORNERS):
        o = _CORNER_SIGNS[c00]
        du, dv = _CORNER_SIGNS[cn0] - o, _CORNER_SIGNS[c0n] - o
        for a in range(n + 1):
            for b in range(n + 1):
                vid[tuple(((n * o + a * du + b * dv + n) // 2).tolist())] = int(qs.grids[f, a, b])
    pairs = {}
    for point, i in vid.items():
        for axis in (axis for axis in range(3) if point[axis] in (0, n)):
            t0, t1 = (t for t in range(3) if t != axis)
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    q = list(point)
                    q[t0] += dy
                    q[t1] += dx
                    past = [t for t in (t0, t1) if not 0 <= q[t] <= n]
                    if past:
                        t = past[0]
                        e = max(-q[t], q[t] - n)
                        if len(past) == 2 or e > n:
                            continue
                        q[t] = min(max(q[t], 0), n)
                        q[axis] += e if point[axis] == 0 else -e
                    j = vid[tuple(q)]
                    if j != i:
                        d2 = dy * dy + dx * dx
                        pairs[i, j] = min(pairs.get((i, j), d2), d2)
    return pairs


def assert_matches_scalar_records(edges, graph, radius):
    """pair_edges' arrays hold the scalar reference's records: each row's
    entries in k order, upper the entries (i, j) with i < j in (i, j)
    order and mirror the entry (j, i) of each."""
    at = {}
    for i, row in enumerate(ref_window_records(graph, radius)):
        for k, j in sorted((k, j) for j, k in row.items()):
            at[i, j] = len(at), k
    rows = np.repeat(np.arange(graph.n_vertices), np.diff(edges.indptr))
    assert list(zip(rows.tolist(), edges.cols.tolist())) == list(at), radius
    assert edges.k.tolist() == [k for _, k in at.values()], radius
    pairs = [pair for pair in sorted(at) if pair[0] < pair[1]]
    assert edges.upper.tolist() == [at[i, j][0] for i, j in pairs], radius
    assert edges.mirror.tolist() == [at[j, i][0] for i, j in pairs], radius


def ref_record_mask(graph, radius):
    """The slot view of the scalar reference's records, (P,H,W,K) bool."""
    K = (2 * radius + 1) ** 2
    mask = np.zeros((graph.gid.size, K), dtype=bool)
    for i, row in enumerate(ref_window_records(graph, radius)):
        mask[graph.owner[i], list(row.values())] = True
    return mask.reshape(*graph.shape, K)


class TestChannelReduce:
    def test_subtraction(self):
        assert sc.channel_reduce(np.asarray([3.0]), np.asarray([1.0]))[0] == 2.0

    def test_equal_channels_uniform_softmax(self):
        z = np.zeros((4, 8))
        logits = sc.channel_reduce(z, z)
        probs = softmax(logits)
        assert np.allclose(probs, 1.0 / 8, atol=1e-12)

    def test_argmax_matches_two_class_softmax(self):
        rng = np.random.default_rng(3)
        surf = rng.normal(size=(10, 16))
        non = rng.normal(size=(10, 16))
        reduced = sc.channel_reduce(surf, non)
        p_surface = np.exp(surf) / (np.exp(surf) + np.exp(non))
        assert np.array_equal(np.argmax(reduced, axis=-1), np.argmax(p_surface, axis=-1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sc.channel_reduce(np.zeros(3), np.zeros(4))


class TestGradientUnary:
    def _patchset(self, data, z_len=16, delta=0.5):
        from test_patches import synthetic_quadmesh
        vol = sc.Volume(data.shape, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                        data.astype(np.float32))
        qm = synthetic_quadmesh(level=2, radius=8.0, center=(15.5, 15.5, 15.5))
        return sc.sample_columns(vol, qm, z_len=z_len, delta=delta, pad=1)

    def test_step_edge_peaks_at_edge(self):
        # bright inside a radius-8 sphere, dark outside: the signed step along
        # the outward column peaks at the center sample
        ii, jj, kk = np.meshgrid(*(np.arange(32),) * 3, indexing="ij")
        r = np.sqrt((ii - 15.5) ** 2 + (jj - 15.5) ** 2 + (kk - 15.5) ** 2)
        data = (r <= 8.0).astype(np.float64)
        ps = self._patchset(data)
        u = sc.gradient_unary(ps, polarity="bright_to_dark")
        labels = u.argmax_labels()
        c = ps.z_len // 2
        assert (np.abs(labels - c) <= 1).all()

    def test_constant_column_zero_logits(self):
        ps = self._patchset(np.full((32, 32, 32), 2.0))
        u = sc.gradient_unary(ps, polarity="dark_to_bright")
        assert (u.logits == 0).all()

    def test_polarity_flip_negates(self):
        rng = np.random.default_rng(5)
        ps = self._patchset(rng.random((32, 32, 32)))
        a = sc.gradient_unary(ps, polarity="dark_to_bright")
        b = sc.gradient_unary(ps, polarity="bright_to_dark")
        assert np.allclose(a.logits, -b.logits, atol=1e-12)

    def test_needs_three_samples(self):
        ps = self._patchset(np.zeros((32, 32, 32)), z_len=2)
        with pytest.raises(ValueError):
            sc.gradient_unary(ps, polarity="dark_to_bright")


class TestCompatibility:
    def test_zero_distance(self):
        assert sc.compatibility(0.0, 5.0) == -1.0

    def test_at_theta(self):
        assert sc.compatibility(5.0, 5.0) == pytest.approx(-math.exp(-1.0), abs=1e-12)

    def test_limit_to_zero(self):
        assert -1e-9 < sc.compatibility(1000.0, 5.0) <= 0.0

    def test_matrix_is_symmetric_toeplitz(self):
        m = sc.compat_matrix(6, 2.0)
        assert np.array_equal(m, m.T)
        for d in range(6):
            diag = np.diagonal(m, offset=d)
            assert np.allclose(diag, sc.compatibility(d, 2.0), atol=0)


class TestComputeKernel:
    def test_identical_features_distance_one(self):
        # k = exp(-1/50) + 3*exp(-1/50) for neighboring columns with equal
        # probabilities at theta1=theta3=5, w1=3
        graph = make_toy_graph(1, 2)
        logits = np.zeros((1, 1, 2, 4))
        u = sc.unary_from_logits(graph, logits)
        params = sc.CrfParams(w1=3.0, theta1=5.0, theta3=5.0, window_radius=1)
        kf = sc.compute_kernel(u, params)
        expect = math.exp(-1.0 / 50.0) + 3.0 * math.exp(-1.0 / 50.0)
        got = kf.W.data
        assert got.shape == (2,)
        assert np.allclose(got, expect, atol=1e-15)

    def test_orthogonal_onehot_features(self):
        # appearance term collapses to exp(-1/50 - 2/0.08); smoothness dominates
        graph = make_toy_graph(1, 2)
        logits = np.zeros((1, 1, 2, 4))
        logits[0, 0, 0, 0] = LOGIT_CLAMP
        logits[0, 0, 1, 1] = LOGIT_CLAMP
        u = sc.unary_from_logits(graph, logits)
        params = sc.CrfParams(w1=3.0, theta2=0.2, window_radius=1)
        kf = sc.compute_kernel(u, params)
        rec = record_kernel(u, params)
        assert rec.w.shape == (2,)
        assert np.array_equal(kf.W.data, rec.w)
        assert np.allclose(rec.fd, 2.0, atol=1e-10)
        assert np.allclose(rec.app, math.exp(-1.0 / 50.0 - 2.0 / 0.08), rtol=1e-6)
        assert (rec.w - rec.app > 1e3 * rec.app).all()

    def test_kernel_symmetry_random(self):
        rng = np.random.default_rng(7)
        graph = make_toy_graph(6, 5)
        u = sc.unary_from_logits(graph, rng.normal(size=(1, 6, 5, 8)))
        params = sc.CrfParams(window_radius=2)
        kf = sc.compute_kernel(u, params)
        rec = record_kernel(u, params)
        assert np.array_equal(kf.W.data, rec.w)
        table = dict(zip(zip(rec.rows.tolist(), rec.cols.tolist()), rec.w.tolist()))
        for (a, b), w in table.items():
            assert abs(table[(b, a)] - w) <= 1e-9

    def test_kernel_symmetry_on_quad_sphere(self):
        # raw random slot logits and samples: the pad slots differ from
        # their owners, as with an external unary; W reads owner features
        # only, so it stays exactly symmetric, which the reverse pass of the
        # fit relies on (it multiplies by W for W.T)
        graph = build_column_graph(sc.build_quadsphere(2), pad=2)
        rng = np.random.default_rng(8)
        u = sc.unary_from_logits(graph, rng.normal(size=(*graph.shape, 6)))
        ps = SimpleNamespace(samples=rng.normal(size=(*graph.shape, 6)))
        for radius in range(1, 5):
            for variant in ("probability", "intensity"):
                params = sc.CrfParams(window_radius=radius, kernel_variant=variant)
                kf = sc.compute_kernel(u, params, ps=ps)
                assert kf.W.nnz > 0
                assert (kf.W != kf.W.T).nnz == 0

    def test_intensity_variant_uses_samples(self):
        from test_patches import synthetic_quadmesh, constant_volume
        qm = synthetic_quadmesh()
        ps = sc.sample_columns(constant_volume(2.0), qm, z_len=8, delta=0.5, pad=1)
        u = sc.gradient_unary(ps, polarity="dark_to_bright")
        params = sc.CrfParams(kernel_variant="intensity", window_radius=1)
        kf = sc.compute_kernel(u, params, ps=ps)
        rec = record_kernel(u, params, ps=ps)
        # constant volume -> zero intensity distance everywhere
        assert np.allclose(rec.fd, 0.0, atol=1e-12)
        assert np.array_equal(kf.W.data, rec.w)


QUAD_GRAPHS = [(level, pad) for level in range(6) for pad in range(min(3, 2 ** level) + 1)]
MASK_GRAPHS = [(pad, level) for level in range(5) for pad in range(min(4, 2 ** level) + 1)]
TOY_SHAPES = [(1, 1, 1), (1, 1, 4), (1, 2, 3), (2, 5, 4), (1, 6, 5)]


class TestPairMask:
    """The records and their slot view against the scalar reference:
    levels 0-4 x pads 0..min(4, n) and five toy graphs, at radii 1-4 and a
    window wider than the grid (2n + 1 up to level 3; the full-grid
    reference covers levels 4 and 5 in TestPairEdges)."""

    @pytest.mark.parametrize("pad, level", MASK_GRAPHS)
    def test_matches_key_set_reference_on_quad_sphere(self, level, pad):
        # the records do not depend on the pad: a window wider than the pad
        # keeps the entries that the reference finds on a pad as wide as it
        qs = sc.build_quadsphere(level)
        graph = build_column_graph(qs, pad=pad)
        for radius in [1, 2, 3, 4] + [2 * qs.n + 1] * (level < 4):
            offs = window_offsets(radius)
            assert_matches_scalar_records(sc.crf.pair_edges(graph, offs), graph, radius)
            wide = window_pad_graph(qs, pad, radius)
            assert np.array_equal(sc.crf.window_pair_mask(graph, offs),
                                  at_owner_slots(graph, wide, ref_record_mask(wide, radius)))

    @pytest.mark.parametrize("shape", TOY_SHAPES)
    def test_matches_key_set_reference_on_toy_graphs(self, shape):
        patches, height, width = shape
        graph = make_toy_graph(height, width, patches)
        for radius in [1, 2, 3, 4, 2 * max(height, width) + 1]:
            offs = window_offsets(radius)
            assert_matches_scalar_records(sc.crf.pair_edges(graph, offs), graph, radius)
            mask = sc.crf.window_pair_mask(graph, offs)
            assert np.array_equal(mask, ref_record_mask(graph, radius))
            if shape == (1, 1, 1):
                assert not mask.any()  # a lone column keeps no record


class TestPairEdges:
    """The owner-window records against the owner rows of the full-grid
    mask: levels 0-5 x pads 0..min(3, n) and five toy graphs, radii 1-4."""

    @staticmethod
    def assert_matches_full_grid(graph):
        for radius in range(1, 5):
            offs = window_offsets(radius)
            got = sc.crf.pair_edges(graph, offs)
            want = ref_pair_edges(graph, ref_full_pair_mask(graph, offs), offs)
            for name, a, b in zip(("cols", "k", "indptr"), got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (radius, name)
                assert not a.flags.writeable

    @pytest.mark.parametrize("level, pad", QUAD_GRAPHS)
    def test_matches_full_grid_reference_on_quad_sphere(self, level, pad):
        self.assert_matches_full_grid(build_column_graph(sc.build_quadsphere(level), pad))

    @pytest.mark.parametrize("shape", TOY_SHAPES)
    def test_matches_full_grid_reference_on_toy_graphs(self, shape):
        patches, height, width = shape
        self.assert_matches_full_grid(make_toy_graph(height, width, patches))

    @pytest.mark.parametrize("level", range(1, 6))
    def test_records_equal_across_pads_at_least_the_radius(self, level):
        # a window of radius r reads r pad rings; a wider pad moves the slots
        # but changes no record
        qs = sc.build_quadsphere(level)
        for radius in range(1, 5):
            offs = window_offsets(radius)
            first = None
            for pad in range(radius, min(2 ** level, 6) + 1):
                e = sc.crf.pair_edges(build_column_graph(qs, pad), offs)
                got = (e.cols, e.indptr, e.upper, e.mirror, e.k)
                first = first or got
                for name, a, b in zip(("cols", "indptr", "upper", "mirror", "k"), got, first):
                    assert np.array_equal(a, b), (radius, pad, name)

    @pytest.mark.parametrize("level", range(1, 6))
    def test_cached_records_read_the_window_pad(self, level):
        # every pad of a sphere gets the records of its face grids padded
        # to the radius, or to n where the radius is wider
        qs = sc.build_quadsphere(level)
        for radius in range(1, 5):
            want = sc.crf.pair_edges(build_column_graph(qs, min(radius, qs.n)),
                                     window_offsets(radius))
            for pad in range(min(4, qs.n) + 1):
                got = sc.crf._cached_pair_edges(build_column_graph(qs, pad), radius)
                for name, a, b in zip(got._fields, got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (radius, pad, name)

    @pytest.mark.parametrize("level, radii", [(0, (3, 100)), (1, (5, 100)), (2, (9, 100)),
                                              (3, (17, 21))])
    def test_windows_wider_than_2n_reach_no_new_vertex(self, level, radii):
        # the face grids padded to n are 3n + 1 slots wide, so a window of
        # radius 2n covers them from every owning slot; a wider one (K =
        # 40,401 at radius 100) keeps the same (row, col, d2) records
        qs = sc.build_quadsphere(level)

        def records(pad, radius):
            e = sc.crf._cached_pair_edges(build_column_graph(qs, pad), radius)
            offs = window_offsets(radius)
            return (np.repeat(np.arange(len(qs.vertices)), np.diff(e.indptr)), e.cols,
                    (offs[:, 0] ** 2 + offs[:, 1] ** 2)[e.k])
        want = records(0, 2 * qs.n)
        for pad in (0, qs.n):
            for radius in radii:
                for name, a, b in zip(("rows", "cols", "d2"), records(pad, radius), want):
                    assert np.array_equal(a, b), (pad, radius, name)

    # the unfolded pairs the owner windows miss: radius -> count on levels >= 3
    MISSED = {2: 48, 3: 240, 4: 672}
    # where the window is wider than the face (radius > n), the entries that
    # the owner window reaches only by a longer route: (level, radius) -> count
    LONGER = {(1, 3): 16, (1, 4): 16, (1, 5): 16, (2, 9): 48, (3, 17): 112}

    @pytest.mark.parametrize("level", range(6))
    def test_records_within_unfolded_cube_lattice_pairs(self, level):
        # the owner windows read only one slot of a seam vertex, so near the
        # 8 corners they miss pairs within the radius; each pair they keep
        # is one of the unfolded pairs, at its least d2 unless the radius
        # exceeds n
        qs = sc.build_quadsphere(level)
        for radius in [*range(1, 5), *([2 * qs.n + 1] if level <= 3 else [])]:
            want = ref_unfolded_pairs(level, radius)
            e = sc.crf._cached_pair_edges(build_column_graph(qs, 0), radius)
            offs = window_offsets(radius)
            rows = np.repeat(np.arange(len(qs.vertices)), np.diff(e.indptr))
            got = dict(zip(zip(rows.tolist(), e.cols.tolist()),
                           (offs[:, 0] ** 2 + offs[:, 1] ** 2)[e.k].tolist()))
            assert got.keys() <= want.keys(), radius
            longer = [pair for pair, d2 in got.items() if d2 != want[pair]]
            assert all(got[pair] > want[pair] for pair in longer), radius
            assert len(longer) == self.LONGER.get((level, radius), 0), radius
            if radius == 1:
                assert got.keys() == want.keys()
            if level >= 3 and radius in self.MISSED:
                assert len(want) - len(got) == self.MISSED[radius], radius

    @staticmethod
    def assert_mirrors(graph):
        """upper lists the entries (i, j) with i < j and mirror their (j, i):
        together an involution of the entries that swaps rows and columns at
        equal d2; fd gathered on the upper entries and mirrored equals the
        gather over every entry bit for bit."""
        rng = np.random.default_rng(graph.n_vertices)
        u = sc.unary_from_logits(graph, rng.normal(size=(*graph.shape, 7)))
        ps = SimpleNamespace(samples=rng.normal(size=(*graph.shape, 7)))
        for radius in range(1, 5):
            offs = window_offsets(radius)
            edges = sc.crf.pair_edges(graph, offs)
            nnz = edges.cols.size
            rows = np.repeat(np.arange(graph.n_vertices), np.diff(edges.indptr))
            d2 = (offs[:, 0] ** 2 + offs[:, 1] ** 2)[edges.k]
            for a in (edges.upper, edges.mirror):
                assert a.dtype == edges.cols.dtype and not a.flags.writeable
            assert 2 * edges.upper.size == nnz
            assert (rows[edges.upper] < edges.cols[edges.upper]).all()
            swap = np.full(nnz, -1)
            swap[edges.upper] = edges.mirror
            swap[edges.mirror] = edges.upper
            assert (swap >= 0).all()
            assert np.array_equal(swap[swap], np.arange(nnz))
            assert np.array_equal(rows[swap], edges.cols)
            assert np.array_equal(edges.cols[swap], rows)
            assert np.array_equal(d2[swap], d2)
            for variant in ("probability", "intensity"):
                params = sc.CrfParams(window_radius=radius, kernel_variant=variant)
                fd, _ = sc.crf.edge_stats(u, params, ps)
                assert np.array_equal(fd, record_kernel(u, params, ps).fd), (radius, variant)

    def test_upper_in_row_col_order(self):
        # upper lists its entries (i, j) strictly increasing in (i, j), the
        # order edge_stats reads them in
        graphs = [build_column_graph(sc.build_quadsphere(level), pad) for level, pad in QUAD_GRAPHS]
        graphs += [make_toy_graph(height, width, patches) for patches, height, width in TOY_SHAPES]
        for graph in graphs:
            nv = graph.n_vertices
            for radius in range(1, 5):
                edges = sc.crf.pair_edges(graph, window_offsets(radius))
                rows = np.repeat(np.arange(nv), np.diff(edges.indptr))
                key = rows[edges.upper] * nv + edges.cols[edges.upper]
                assert (np.diff(key) > 0).all(), (graph.shape, radius)

    @pytest.mark.parametrize("level, pad", QUAD_GRAPHS)
    def test_mirrors_on_quad_sphere(self, level, pad):
        self.assert_mirrors(build_column_graph(sc.build_quadsphere(level), pad))

    @pytest.mark.parametrize("shape", TOY_SHAPES)
    def test_mirrors_on_toy_graphs(self, shape):
        patches, height, width = shape
        self.assert_mirrors(make_toy_graph(height, width, patches))

    def test_memory_bounded(self):
        # the default r=5 sphere at radius 4, whose records are read on its
        # face grids padded to 4: 490,112 window records, 489,168 kept; on
        # one (Nv, K) table it traces 9.3 MiB (13.8 MiB in blocks of sorted
        # int64 keys, 34.3 MiB sorting every record at once on the pad-3 grid)
        graph = build_column_graph(sc.build_quadsphere(5), 4)
        edges, peak = traced_peak_mib(sc.crf.pair_edges, graph, window_offsets(4))
        assert edges.cols.size > 480_000
        assert peak < 12.0

    @pytest.mark.parametrize("variant", ["probability", "intensity"])
    def test_kernel_memory_bounded(self, variant):
        # the r=5 sphere at radius 4, its 489,168 records cached first: d2,
        # the spatial exponent and w1 * sm come from per-offset tables and
        # mean field forms each update in place, so compute_kernel traces
        # 11.3 MiB and meanfield_infer 13.0 MiB (18.7 and 20.9 MiB with
        # per-entry d2 and sm arrays and an out-of-place update)
        graph = build_column_graph(sc.build_quadsphere(5), 3)
        rng = np.random.default_rng(5)
        u = sc.unary_from_logits(graph, rng.normal(size=(*graph.shape, 48)))
        ps = SimpleNamespace(samples=rng.normal(size=(*graph.shape, 48)).astype(np.float32))
        params = sc.CrfParams(window_radius=4, kernel_variant=variant)
        sc.crf._cached_pair_edges(graph, 4)
        kf, peak = traced_peak_mib(sc.compute_kernel, u, params, ps)
        assert kf.W.nnz > 480_000
        assert peak < 16.5
        _, peak = traced_peak_mib(sc.meanfield_infer, u, params, ps)
        assert peak < 17.0


class TestMessagePass:
    def test_isolated_column_zero(self):
        graph = make_toy_graph(1, 1)
        u = sc.unary_from_logits(graph, np.zeros((1, 1, 1, 4)))
        kf = sc.compute_kernel(u, sc.CrfParams(window_radius=2))
        q = softmax(u.logits)
        assert np.array_equal(sc.crf.message_pass(q, kf), np.zeros_like(q))

    def test_uniform_closed_form(self):
        # uniform Q and m neighbors of uniform weight w: Q~ = m*w/Z
        graph = make_toy_graph(3, 3)
        z = 5
        u = sc.unary_from_logits(graph, np.zeros((1, 3, 3, z)))
        params = sc.CrfParams(w1=0.0, theta1=1e6, window_radius=1)
        kf = sc.compute_kernel(u, params)
        q = np.full((1, 3, 3, z), 1.0 / z)
        out = sc.crf.message_pass(q, kf)
        m = kf.weights[0, 1, 1].astype(bool).sum()
        assert m == 8
        w = kf.weights[0, 1, 1].max()
        assert np.allclose(out[0, 1, 1], m * w / z, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        u = toy_unary(8, 8, 16, seed=seed)
        kf = sc.compute_kernel(u, sc.CrfParams(window_radius=2))
        q = rng.random((1, 8, 8, 16))
        got = sc.crf.message_pass(q, kf)
        expect = brute_force_message_pass(q, kf)
        denom = max(np.abs(expect).max(), 1e-12)
        assert np.abs(got - expect).max() / denom <= 1e-6


class TestRefreshDuplicates:
    """Every valid slot takes its owner's values, the corner slots 0, in the
    dtype of the input."""

    @staticmethod
    def assert_refresh(graph):
        rng = np.random.default_rng(graph.gid.size)
        valid = graph.valid
        owner_of_slot = graph.owner[graph.gid[valid]]
        for dtype in (np.float32, np.float64):
            q = rng.normal(size=graph.shape + (3,)).astype(dtype)
            r = sc.crf.refresh_duplicates(q, graph)
            assert r.dtype == dtype and r.shape == q.shape
            assert np.array_equal(r[valid], q.reshape(-1, 3)[owner_of_slot])
            assert (r[~valid] == 0).all()

    @pytest.mark.parametrize("level, pad", QUAD_GRAPHS)
    def test_owner_values_on_quad_sphere(self, level, pad):
        self.assert_refresh(build_column_graph(sc.build_quadsphere(level), pad))

    def test_owner_values_on_toy_graph(self):
        self.assert_refresh(make_toy_graph(4, 3, 2))


class TestVertexOperator:
    """W against the record reference: its entries are the records' weights
    from first principles, and its product sums them row by row in record
    order."""

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_matches_slot_message_pass_on_quad_sphere(self, level):
        # W of the pad-3 graph (the whole face grid where n is smaller,
        # level 1: n = 2) against the per-row sums over its records: record
        # order is W's CSR order, so the two are the same floats
        qs = sc.build_quadsphere(level)
        graph = build_column_graph(qs, pad=min(3, qs.n))
        rng = np.random.default_rng(level)
        u = sc.unary_from_logits(graph, graph.split(rng.normal(size=(graph.n_vertices, 5))))
        q = rng.random((graph.n_vertices, 5))
        for radius in range(1, 5):
            params = sc.CrfParams(window_radius=radius)
            kf = sc.compute_kernel(u, params)
            rec = record_kernel(u, params)
            assert np.array_equal(kf.W @ q, record_message_pass(rec, q))
            assert (kf.W != kf.W.T).nnz == 0

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_weights_match_slot_kernel_on_quad_sphere(self, level):
        # W of the pad-3 graph holds the owner-row records of the full-grid
        # reference on a pad as wide as the window, each at the weight the
        # record reference gives it, for raw random pad slots
        qs = sc.build_quadsphere(level)
        pad = min(3, qs.n)
        graph = build_column_graph(qs, pad=pad)
        rng = np.random.default_rng(level)
        u = sc.unary_from_logits(graph, rng.normal(size=(*graph.shape, 5)))
        ps = SimpleNamespace(samples=rng.random((*graph.shape, 5)))
        for radius in range(1, 5):
            offs = window_offsets(radius)
            wide = window_pad_graph(qs, pad, radius)
            cols, ks, indptr = ref_pair_edges(wide, ref_full_pair_mask(wide, offs), offs)
            assert np.array_equal(sc.crf._cached_pair_edges(graph, radius).k, ks)
            for variant in ("probability", "intensity"):
                params = sc.CrfParams(window_radius=radius, kernel_variant=variant)
                kf = sc.compute_kernel(u, params, ps=ps)
                assert np.array_equal(kf.W.indptr, indptr)
                assert np.array_equal(kf.W.indices, cols)
                assert np.array_equal(kf.W.data, record_kernel(u, params, ps=ps).w)


class TestCompatTransform:
    def test_small_theta_is_negative_identity(self):
        rng = np.random.default_rng(9)
        qt = rng.random((1, 2, 2, 8))
        out = sc.compat_transform(qt, 1e-3)
        assert np.allclose(out, -qt, atol=1e-12)

    def test_uniform_rows(self):
        z = 8
        qt = np.full((1, 1, 2, z), 0.25)
        out = sc.compat_transform(qt, 3.0)
        m = sc.compat_matrix(z, 3.0)
        assert np.allclose(out[0, 0, 0], 0.25 * m.sum(axis=1), atol=1e-12)

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(10)
        qt = rng.random((2, 3, 4, 8))
        out = sc.compat_transform(qt, 5.0)
        m = np.empty((8, 8))
        for l in range(8):
            for lp in range(8):
                m[l, lp] = -math.exp(-((l - lp) ** 2) / 25.0)
        expect = np.einsum("phwl,lm->phwm", qt, m)
        assert np.abs(out - expect).max() <= 1e-9


class TestMeanfield:
    def test_wp_zero_equals_argmax(self):
        for t in (1, 3, 8):
            u = toy_unary(5, 4, 12, seed=t)
            params = sc.CrfParams(w_p=0.0, iterations=t, window_radius=2)
            lab = sc.meanfield_infer(u, params)
            assert np.array_equal(lab.labels, u.argmax_labels())

    def test_q_rows_normalized(self):
        u = toy_unary(6, 6, 10, seed=2)
        lab = sc.meanfield_infer(u, sc.CrfParams(window_radius=2, iterations=4))
        assert np.abs(lab.q.sum(axis=1) - 1.0).max() <= 1e-6

    def test_uniform_logits_all_zero_labels_without_coupling(self):
        # with w_p = 0 ties resolve to the lowest index everywhere
        graph = make_toy_graph(4, 4)
        u = sc.unary_from_logits(graph, np.zeros((1, 4, 4, 6)))
        lab = sc.meanfield_infer(u, sc.CrfParams(w_p=0.0))
        assert (lab.labels == 0).all()

    def test_two_column_hand_unrolled(self):
        # independent scalar implementation of the update equations
        z = 3
        graph = make_toy_graph(1, 2)
        logits = np.asarray([[[[2.0, 0.0, -1.0], [-1.0, 0.0, 2.0]]]])
        u = sc.unary_from_logits(graph, logits)
        params = sc.CrfParams(w_p=2.0, w1=1.0, theta1=2.0, theta2=0.5,
                              theta3=2.0, theta_comp=1.5, window_radius=1,
                              iterations=2)
        lab = sc.meanfield_infer(u, params)

        def soft(v):
            e = [math.exp(x - max(v)) for x in v]
            s = sum(e)
            return [x / s for x in e]

        feats = [soft(logits[0, 0, 0]), soft(logits[0, 0, 1])]
        fdist = sum((a - b) ** 2 for a, b in zip(*feats))
        k = math.exp(-1.0 / (2 * 4.0) - fdist / (2 * 0.25)) + 1.0 * math.exp(-1.0 / (2 * 4.0))
        mu = [[-math.exp(-((l - m) ** 2) / 1.5 ** 2) for m in range(z)] for l in range(z)]
        q = [soft(logits[0, 0, 0]), soft(logits[0, 0, 1])]
        for _ in range(2):
            qt = [[k * q[1][l] for l in range(z)], [k * q[0][l] for l in range(z)]]
            qh = [[sum(mu[l][m] * qt[i][m] for m in range(z)) for l in range(z)]
                  for i in range(2)]
            q = [soft([logits[0, 0, i, l] - 2.0 * qh[i][l] for l in range(z)])
                 for i in range(2)]
        assert np.abs(lab.q - np.asarray(q)).max() <= 1e-9

    def test_strong_coupling_pulls_to_consensus(self):
        rng = np.random.default_rng(12)
        graph = make_toy_graph(5, 5)
        logits = rng.normal(0, 0.5, size=(1, 5, 5, 9))
        logits[..., 4] += 2.0  # weak consensus at label 4
        logits[0, 2, 2, :] = 0.0
        logits[0, 2, 2, 0] = 2.5  # one dissenting column
        u = sc.unary_from_logits(graph, logits)
        lab = sc.meanfield_infer(u, sc.CrfParams(w_p=1.0, window_radius=2, iterations=5))
        labels2d = lab.labels.reshape(5, 5)
        assert labels2d[2, 2] == 4

    def test_nonuniform_slots_refreshed_from_owner(self):
        # duplicate slots may carry garbage logits; inference output depends
        # only on the owning slots
        qs = sc.build_quadsphere(2)
        graph = build_column_graph(qs, pad=2)
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(*graph.shape, 5))
        clean = graph.split(graph.merge(logits))
        noisy = clean.copy()
        dup = ~owned_mask(graph)
        noisy[dup] += rng.normal(size=noisy.shape)[dup]
        params = sc.CrfParams(window_radius=2, iterations=3)
        lab1 = sc.meanfield_infer(sc.unary_from_logits(graph, clean), params)
        lab2 = sc.meanfield_infer(sc.unary_from_logits(graph, noisy), params)
        assert np.array_equal(lab1.labels, lab2.labels)
        assert np.array_equal(lab1.q, lab2.q)


@pytest.fixture(scope="module")
def r3_case():
    """An r=3 patch set (Z=16, pad 3) of a random volume, and random slot
    logits with some beyond the clamp."""
    from test_patches import synthetic_quadmesh
    rng = np.random.default_rng(31)
    vol = sc.Volume((32, 32, 32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                    rng.random((32, 32, 32)).astype(np.float32))
    qm = synthetic_quadmesh(level=3, radius=8.0, center=(15.5, 15.5, 15.5))
    ps = sc.sample_columns(vol, qm, z_len=16, delta=0.5, pad=3)
    logits = rng.normal(0.0, 3.0, size=(*ps.graph.shape, 16))
    logits.reshape(-1)[::97] = 1e3
    logits.reshape(-1)[::89] = -1e3
    return ps, sc.unary_from_logits(ps.graph, logits)


def full_loop(u, params, ps=None):
    """meanfield_unroll on the merged logits with the kernel built."""
    return sc.crf.meanfield_unroll(u.graph.merge(u.logits),
                                   sc.compute_kernel(u, params, ps=ps).W, params)


class TestMeanfieldWpZero:
    """At w_p = 0 meanfield_infer builds no kernel and runs no iteration,
    and returns the floats of the full loop."""

    @pytest.mark.parametrize("iterations", [1, 3, 9])
    @pytest.mark.parametrize("w_p", [0.0, -0.0])
    def test_equals_full_loop_on_patch_set(self, r3_case, iterations, w_p):
        ps, u = r3_case
        for variant in ("probability", "intensity"):
            params = sc.CrfParams(w_p=w_p, iterations=iterations, window_radius=2,
                                  kernel_variant=variant)
            lab = sc.meanfield_infer(u, params, ps=ps)
            want = full_loop(u, params, ps)
            assert lab.q.tobytes() == want.tobytes(), variant
            assert np.array_equal(lab.labels, np.argmax(want, axis=-1))

    @pytest.mark.parametrize("shape", TOY_SHAPES)
    def test_equals_full_loop_on_toy_graphs(self, shape):
        patches, height, width = shape
        u = toy_unary(height, width, 12, seed=height * width, sigma=20.0, patches=patches)
        # -0.0 - 0 * q_hat is +0.0 in the loop where q_hat < 0, and some rows
        # have their maximum there
        u.logits[..., ::4] = -0.0
        for iterations in (1, 3, 9):
            for w_p in (0.0, -0.0):
                params = sc.CrfParams(w_p=w_p, iterations=iterations, window_radius=2)
                want = full_loop(u, params)
                assert sc.meanfield_infer(u, params).q.tobytes() == want.tobytes()

    def test_builds_no_kernel(self, r3_case, monkeypatch):
        ps, u = r3_case

        def no_kernel(*args, **kwargs):
            raise AssertionError("compute_kernel called at w_p = 0")

        monkeypatch.setattr(sc.crf, "compute_kernel", no_kernel)
        for variant in ("probability", "intensity"):
            lab = sc.meanfield_infer(u, sc.CrfParams(w_p=0.0, kernel_variant=variant), ps=ps)
            assert np.array_equal(lab.labels, u.argmax_labels())

    def test_errors_stay(self, r3_case):
        ps, u = r3_case
        nan = u.logits.copy()
        nan.reshape(-1, u.z_len)[u.graph.owner[5], 3] = np.nan
        for variant in ("probability", "intensity"):
            params = sc.CrfParams(w_p=0.0, kernel_variant=variant)
            with pytest.raises(RuntimeError, match="^non-finite mean-field marginals$"):
                sc.meanfield_infer(sc.unary_from_logits(u.graph, nan), params, ps=ps)
        with pytest.raises(ValueError, match="PatchSet"):
            sc.meanfield_infer(u, sc.CrfParams(w_p=0.0, kernel_variant="intensity"))


class TestEdgeStatsBlocks:
    @pytest.mark.parametrize("variant", ["probability", "intensity"])
    def test_fd_independent_of_block_size(self, r3_case, monkeypatch, variant):
        # _EDGE_BLOCK counts elements: 1 and 7 give one pair per block at
        # Z=16, 3 Z + 1 gives three
        ps, u = r3_case
        for radius in (1, 2, 4):
            params = sc.CrfParams(window_radius=radius, kernel_variant=variant)
            want = record_kernel(u, params, ps).fd
            for block in (1, 7, 3 * u.z_len + 1):
                monkeypatch.setattr(sc.crf, "_EDGE_BLOCK", block)
                fd = sc.crf.edge_stats(u, params, ps)[0]
                assert np.array_equal(fd, want), (radius, block)


class TestSoftmax:
    def test_bits_equal_reference(self):
        c = LOGIT_CLAMP
        rows = np.asarray([
            [c, -c, 0.0, -0.0, 1.5],
            [-c, -c, -c, -c, -c],
            [c, c, -c, 0.0, c],
            [-0.0, -0.0, -0.0, -0.0, -0.0],
            [0.0, -0.0, 0.0, -0.0, 0.0],
            [-0.0, -c, -c, 2.0, 2.0],
            [1e-300, -1e-300, 0.0, -0.0, 5e-324],
        ])
        rng = np.random.default_rng(0)
        rows = np.concatenate([rows, np.clip(rng.normal(0.0, 20.0, size=(64, 5)), -c, c)])
        given = rows.copy()
        e = np.exp(rows - rows.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        for shape in (rows.shape, (1, 71, 1, 5), (71, 1, 1, 5)):
            got = softmax(rows.reshape(shape))
            assert got.shape == shape and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert rows.tobytes() == given.tobytes()  # the input is not written


class TestEnergy:
    def _toy_instance(self, logits, params):
        graph = make_toy_graph(1, 2)
        u = sc.unary_from_logits(graph, logits)
        kf = sc.compute_kernel(u, params)
        return u, kf

    def test_wp_zero_is_unary_sum(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(1, 1, 2, 4))
        params = sc.CrfParams(w_p=0.0, window_radius=1)
        u, kf = self._toy_instance(logits, params)
        labels = np.asarray([1, 3])
        lab = sc.SurfaceLabeling(labels=labels, q=np.eye(4)[labels])
        e = sc.energy(lab, u, kf, params)
        psi = u.potentials()
        assert e == pytest.approx(psi[0, 0, 0, 1] + psi[0, 0, 1, 3], abs=1e-12)

    def test_constant_labeling_pairwise(self):
        logits = np.zeros((1, 1, 2, 4))
        params = sc.CrfParams(w_p=1.5, window_radius=1)
        u, kf = self._toy_instance(logits, params)
        labels = np.asarray([2, 2])
        lab = sc.SurfaceLabeling(labels=labels, q=np.eye(4)[labels])
        e = sc.energy(lab, u, kf, params)
        k01 = record_kernel(u, params).w[0]
        psi = u.potentials()
        expect = psi[0, 0, 0, 2] + psi[0, 0, 1, 2] + 1.5 * (-1.0) * k01
        assert e == pytest.approx(expect, abs=1e-12)

    def test_two_column_exhaustive_enumeration(self):
        # all 4 labelings of a 2-column, Z=2 instance, against independent
        # scalar arithmetic
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(1, 1, 2, 2))
        params = sc.CrfParams(w_p=0.8, w1=2.0, theta1=3.0, theta2=0.4,
                              theta3=2.0, theta_comp=2.5, window_radius=1)
        u, kf = self._toy_instance(logits, params)

        def soft(v):
            m = max(v)
            e = [math.exp(x - m) for x in v]
            s = e[0] + e[1]
            return [x / s for x in e]

        p0 = soft(list(logits[0, 0, 0]))
        p1 = soft(list(logits[0, 0, 1]))
        fdist = (p0[0] - p1[0]) ** 2 + (p0[1] - p1[1]) ** 2
        it1 = 1.0 / (2.0 * 3.0 ** 2)
        it2 = 1.0 / (2.0 * 0.4 ** 2)
        it3 = 1.0 / (2.0 * 2.0 ** 2)
        k01 = np.exp(-1.0 * it1 - fdist * it2) + 2.0 * np.exp(-1.0 * it3)
        for n0 in range(2):
            for n1 in range(2):
                labels = np.asarray([n0, n1])
                lab = sc.SurfaceLabeling(labels=labels, q=np.eye(2)[labels])
                got = sc.energy(lab, u, kf, params)
                mu = -np.exp(-((n0 - n1) ** 2) / 2.5 ** 2)
                expect = (-math.log(p0[n0])) + (-math.log(p1[n1])) + 0.8 * mu * k01
                assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_seam_graph_against_pair_mask_records(self):
        # a padded quad-sphere graph (seams, duplicate pad slots, corner
        # blocks): the energy equals a scalar loop over the neighbour records
        # at the record reference's weights, each symmetric pair counted
        # twice and halved
        graph = build_column_graph(sc.build_quadsphere(2), 3)
        rng = np.random.default_rng(16)
        u = sc.unary_from_logits(graph, graph.split(rng.normal(size=(graph.n_vertices, 6))))
        params = sc.CrfParams(w_p=0.9, theta1=2.0, theta2=0.5, theta_comp=2.0, window_radius=3)
        kf = sc.compute_kernel(u, params)
        rec = record_kernel(u, params)
        owned = owned_mask(graph)
        psi = u.potentials()
        for seed in range(3):
            labels = np.random.default_rng(seed).integers(0, 6, graph.n_vertices)
            lab = sc.SurfaceLabeling(labels=labels, q=np.eye(6)[labels])
            unary = pair = 0.0
            for p, y, x in zip(*np.nonzero(owned)):
                unary += psi[p, y, x, labels[graph.gid[p, y, x]]]
            for i, j, w in zip(rec.rows.tolist(), rec.cols.tolist(), rec.w.tolist()):
                d = labels[i] - labels[j]
                pair += w * -math.exp(-d * d / params.theta_comp ** 2)
            expect = unary + params.w_p * pair / 2.0
            assert sc.energy(lab, u, kf, params) == pytest.approx(expect, rel=1e-12)

    def test_meanfield_not_worse_than_argmax_statistically(self):
        # no per-instance guarantee; >= 90% over 100 seeded random instances
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            h, w = rng.integers(1, 4), rng.integers(1, 3)
            z = rng.integers(2, 5)
            graph = make_toy_graph(int(h), int(w))
            logits = rng.normal(0, 1.2, size=(1, int(h), int(w), int(z)))
            u = sc.unary_from_logits(graph, logits)
            params = sc.CrfParams(w_p=0.7, w1=1.0, theta1=2.0, theta2=1.0,
                                  theta3=2.0, theta_comp=2.0, window_radius=1,
                                  iterations=5)
            kf = sc.compute_kernel(u, params)
            lab_mf = sc.meanfield_infer(u, params)
            base = u.argmax_labels()
            lab_bl = sc.SurfaceLabeling(labels=base, q=lab_mf.q)
            e_mf = sc.energy(lab_mf, u, kf, params)
            e_bl = sc.energy(lab_bl, u, kf, params)
            wins += e_mf <= e_bl + 1e-12
        assert wins >= 90

    def test_theta_comp_shrink_total_variation_regression(self):
        # regression, not a theorem: on these seeded instances, shrinking
        # theta_comp never moves Q1 further from Q0 than the baseline width does
        for seed in range(10):
            u = toy_unary(4, 4, 16, seed=seed, sigma=1.0)
            tvs = []
            for tc in (5.0, 1.0, 0.1):
                params = sc.CrfParams(theta_comp=tc, window_radius=2, iterations=1)
                lab = sc.meanfield_infer(u, params)
                q0 = u.graph.merge(softmax(u.logits))
                tvs.append(0.5 * np.abs(lab.q - q0).sum(axis=1).max())
            assert tvs[1] <= tvs[0] + 1e-12
            assert tvs[2] <= tvs[0] + 1e-12


class TestUnaryField:
    def test_logit_clamping(self):
        graph = make_toy_graph(1, 1)
        u = sc.unary_from_logits(graph, np.asarray([[[[1e4, -1e4, 0.0, 3.0]]]]))
        assert u.logits.max() == LOGIT_CLAMP
        assert u.logits.min() == -LOGIT_CLAMP
        assert np.isfinite(u.potentials()).all()

    def test_softmax_sums_to_one(self):
        u = toy_unary(3, 3, 20, seed=1, sigma=8.0)
        assert np.abs(u.probabilities().sum(axis=-1) - 1.0).max() <= 1e-6

    def test_params_validation(self):
        with pytest.raises(ValueError):
            sc.CrfParams(theta1=0.0)
        with pytest.raises(ValueError):
            sc.CrfParams(window_radius=0)
        with pytest.raises(ValueError):
            sc.CrfParams(kernel_variant="bogus")

    @pytest.mark.parametrize("field, value", [
        ("theta1", 0.0), ("theta2", -0.2), ("theta3", math.inf), ("theta_comp", math.nan),
        ("theta2", math.nan), ("w1", math.inf), ("w1", -math.inf), ("w_p", math.nan),
        ("window_radius", 0), ("iterations", 0), ("kernel_variant", "bogus"),
    ])
    def test_params_error_names_field(self, field, value):
        # the CLI puts the section before the message to name the dotted key
        with pytest.raises(ValueError, match=f"^{field} must"):
            sc.CrfParams(**{field: value})

    def test_counts_must_be_integers(self):
        # window_offsets(2.5) lists (-2, 0) twice, True was taken as 1, and
        # iterations=2.5 failed inside the mean-field loop with a TypeError
        for field in ("window_radius", "iterations"):
            for value in (2.5, 3.0, True, np.True_, "3"):
                with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                    sc.CrfParams(**{field: value})
        params = sc.CrfParams(window_radius=np.int64(2), iterations=np.uint8(3))
        u = toy_unary(4, 5, 6, seed=3)
        want = sc.meanfield_infer(u, sc.CrfParams(window_radius=2, iterations=3))
        assert sc.meanfield_infer(u, params).q.tobytes() == want.q.tobytes()

    def test_negative_w_p_rejected(self):
        # the fit bounds the weights >= 0; w_p = 0 is the w_p=0 identity (A5)
        for field in ("w_p", "w1"):
            with pytest.raises(ValueError, match=f"^{field} must be a finite weight >= 0"):
                sc.CrfParams(**{field: -4.4})
        assert sc.CrfParams(w_p=0.0, w1=0.0).w_p == 0.0

    def test_paper_presets(self):
        p = sc.prostate_params()
        assert (p.w_p, p.w1, p.theta1, p.theta2, p.theta3, p.theta_comp) == \
            (1.0, 3.0, 5.0, 0.2, 5.0, 5.0)
        s = sc.spleen_params()
        assert (s.w_p, s.w1, s.theta1, s.theta2, s.theta3, s.theta_comp) == \
            (0.3, 0.2, 5.0, 0.2, 5.0, 5.0)

    @pytest.mark.parametrize("preset", ["prostate_params", "spleen_params"])
    def test_preset_overrides_replace_its_values(self, preset):
        # an override of a preset value raised "got multiple values for
        # keyword argument"
        p = getattr(sc, preset)(w_p=0.0, w1=1.0, theta_comp=2.0, iterations=3)
        assert (p.w_p, p.w1, p.theta_comp, p.iterations) == (0.0, 1.0, 2.0, 3)
        assert (p.theta1, p.theta2, p.theta3) == (5.0, 0.2, 5.0)


class TestIntensityVariantInference:
    def test_meanfield_runs_with_intensity_kernel(self):
        from test_patches import synthetic_quadmesh
        rng = np.random.default_rng(30)
        vol = sc.Volume((32, 32, 32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                        rng.random((32, 32, 32)).astype(np.float32))
        qm = synthetic_quadmesh(level=2, radius=8.0, center=(15.5, 15.5, 15.5))
        ps = sc.sample_columns(vol, qm, z_len=8, delta=0.5, pad=2)
        u = sc.gradient_unary(ps, polarity="dark_to_bright")
        params = sc.CrfParams(kernel_variant="intensity", theta2=2.0,
                              window_radius=2, iterations=3)
        lab = sc.meanfield_infer(u, params, ps=ps)
        assert np.abs(lab.q.sum(axis=1) - 1.0).max() <= 1e-6
        with pytest.raises(ValueError, match="PatchSet"):
            sc.meanfield_infer(u, params)
