"""Hot numeric kernels of surfcrf, one vectorized numpy function each.

Geometry: trilinear volume sampling, point location on the mapped sphere,
ray casting against a triangle soup and the voxel parity fill.  CRF: the
Gaussian pairwise weights on (P,H,W,Z) patch grids, and the slot-grid window
message pass, its adjoint and its weight gradient (CSR products over a
stencil cached per grid shape and window).  Mean field runs on the vertex
operator of crf.compute_kernel; the window kernels remain as its slot-grid
reference in the tests and as benchmark probe targets.  Kernels
that would build a (rays x faces) or (points x faces) array at once work in
chunks of rays or points, so their transient memory stays bounded.  The
tests compare every kernel with a scalar-loop reference.
"""
from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

BACKEND = "numpy"

_LOCATE_CHUNK = 256  # query points per centroid prefilter block
_RAY_CHUNK = 64      # rays per (rays x faces) block


# ---------------------------------------------------------------------------
# trilinear gather


def trilinear_gather(data, origin, spacing, pts):
    """Trilinear interpolation of ``data`` (X,Y,Z grid) at world points (N,3).

    Continuous coordinates are clamped to the voxel-center lattice, so points
    outside the volume take the nearest border value.  The eight corners are
    read with flat takes at (i*Y + j)*Z + k.
    """
    data = np.asarray(data, dtype=np.float64)
    X, Y, Z = data.shape
    flat = data.ravel()
    u = (pts[:, 0] - origin[0]) / spacing[0]
    v = (pts[:, 1] - origin[1]) / spacing[1]
    w = (pts[:, 2] - origin[2]) / spacing[2]
    u = np.clip(u, 0.0, X - 1.0)
    v = np.clip(v, 0.0, Y - 1.0)
    w = np.clip(w, 0.0, Z - 1.0)
    i0 = np.minimum(u.astype(np.int64), max(X - 2, 0))
    j0 = np.minimum(v.astype(np.int64), max(Y - 2, 0))
    k0 = np.minimum(w.astype(np.int64), max(Z - 2, 0))
    i1 = np.minimum(i0 + 1, X - 1)
    j1 = np.minimum(j0 + 1, Y - 1)
    k1 = np.minimum(k0 + 1, Z - 1)
    fu = u - i0
    fv = v - j0
    fw = w - k0
    r00 = (i0 * Y + j0) * Z
    r10 = (i1 * Y + j0) * Z
    r01 = (i0 * Y + j1) * Z
    r11 = (i1 * Y + j1) * Z
    c000 = flat.take(r00 + k0)
    c100 = flat.take(r10 + k0)
    c010 = flat.take(r01 + k0)
    c110 = flat.take(r11 + k0)
    c001 = flat.take(r00 + k1)
    c101 = flat.take(r10 + k1)
    c011 = flat.take(r01 + k1)
    c111 = flat.take(r11 + k1)
    c00 = c000 * (1 - fu) + c100 * fu
    c10 = c010 * (1 - fu) + c110 * fu
    c01 = c001 * (1 - fu) + c101 * fu
    c11 = c011 * (1 - fu) + c111 * fu
    c0 = c00 * (1 - fv) + c10 * fv
    c1 = c01 * (1 - fv) + c11 * fv
    return c0 * (1 - fw) + c1 * fw


# ---------------------------------------------------------------------------
# point location on the mapped sphere (gnomonic ray-triangle containment)


def locate_points(inv_mats, centroids, cos_bound, pts, tol=1e-10, fallback_tol=1e-6):
    """Find, per unit query point, the spherical triangle containing it.

    inv_mats (F,3,3) are the inverses of the per-face vertex matrices; alpha =
    inv @ q gives the unnormalized barycentric weights of the ray hit.
    Candidates are prefiltered by centroid dot product (faces lie inside their
    circumscribing geodesic disc).  Each block of points is one pass over its
    (point, face) candidate pairs, ordered by point and then by face id: per
    point the first containing face wins, so exact-edge ties go to the lowest
    id; without one, the first face of largest min-fraction is taken if it is
    within ``fallback_tol``.  Points with neither get face -1.
    """
    nq = pts.shape[0]
    face_out = np.full(nq, -1, dtype=np.int64)
    bary_out = np.zeros((nq, 3), dtype=np.float64)
    for lo in range(0, nq, _LOCATE_CHUNK):
        block = pts[lo:lo + _LOCATE_CHUNK]
        dots = centroids @ block.T  # (F, m)
        qi, cand = np.nonzero(dots.T >= cos_bound)  # row-major: by point, then face
        if qi.size == 0:
            continue
        alphas = np.matmul(inv_mats[cand], block[qi, :, None])[:, :, 0]  # (C,3)
        sums = alphas.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            minfrac = np.where(sums > 0, alphas.min(axis=1) / sums, -np.inf)
        # a containing face outranks every fallback; the first maximum per
        # point is then its lowest containing face, or its best fallback
        score = np.where(minfrac >= -tol, np.inf, minfrac)
        starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
        best = np.full(block.shape[0], -np.inf)
        best[qi[starts]] = np.maximum.reduceat(score, starts)
        pair = np.arange(qi.size)
        first = np.minimum.reduceat(np.where(score == best[qi], pair, qi.size), starts)
        first = first[best[qi[first]] >= -fallback_tol]
        t = alphas[first] / sums[first, None]
        face_out[lo + qi[first]] = cand[first]
        bary_out[lo + qi[first]] = t / t.sum(axis=1)[:, None]
    return face_out, bary_out


# ---------------------------------------------------------------------------
# ray casting: intersection of minimum |t| against a triangle soup


def raycast_min_abs_t(verts, faces, origins, dirs):
    """Moller-Trumbore over all faces; per ray returns (t, hit) where t is the
    signed parameter with smallest |t| (ties broken toward negative t).

    Uses the scalar-triple-product form: with n = e1 x e2 and the per-face
    vectors a.n, e2 x a and a x e1 precomputed, det, u*det, v*det and t*det
    of every (ray, face) pair are matrix products of o x d, d and o.
    """
    a = verts[faces[:, 0]]
    e1 = verts[faces[:, 1]] - a
    e2 = verts[faces[:, 2]] - a
    n = np.cross(e1, e2)
    a_n = np.einsum("fk,fk->f", a, n)
    e2_a = np.cross(e2, a)
    a_e1 = np.cross(a, e1)
    nq = origins.shape[0]
    t_out = np.zeros(nq, dtype=np.float64)
    hit_out = np.zeros(nq, dtype=bool)
    tolb = 1e-10
    for lo in range(0, nq, _RAY_CHUNK):
        hi = min(lo + _RAY_CHUNK, nq)
        o = origins[lo:hi]
        d = dirs[lo:hi]
        od = np.cross(o, d)
        det = -(d @ n.T)  # (m,F)
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        u = (od @ e2.T - d @ e2_a.T) * inv
        v = -(od @ e1.T + d @ a_e1.T) * inv
        t = (o @ n.T - a_n) * inv
        ok &= (u >= -tolb) & (v >= -tolb) & (u + v <= 1.0 + tolb)
        abs_t = np.where(ok, np.abs(t), np.inf)
        tie = abs_t == abs_t.min(axis=1, keepdims=True)
        best = np.argmin(np.where(tie, t, np.inf), axis=1)  # negative wins a |t| tie
        rows = np.arange(hi - lo)
        hit_out[lo:hi] = ok[rows, best]
        t_out[lo:hi] = np.where(hit_out[lo:hi], t[rows, best], 0.0)
    return t_out, hit_out


# ---------------------------------------------------------------------------
# CRF window operations on (P,H,W,Z) patch grids


@functools.lru_cache(maxsize=16)
def _window_stencil(shape, offsets, transpose):
    """CSR pattern of the window message pass on a (P,H,W) slot grid.

    Row i lists the in-grid window entries of slot i in offset order: their
    column slots ``cols``, the position of each entry's weight in the
    flattened (P,H,W,K) weight array ``pos``, and the row pointer ``indptr``.
    Without ``transpose`` slot i receives from i + offset with the weight of
    i; with it, the adjoint, slot i receives from i - offset with the weight
    of that source.  ``offsets`` is a tuple of (dy, dx) pairs.  The arrays
    are int32 where the weights allow it (scipy would otherwise copy int64
    indices on every product) and read-only.
    """
    P, H, W = shape
    K = len(offsets)
    itype = np.int32 if P * H * W * K < 2 ** 31 else np.int64
    slots = np.arange(P * H * W, dtype=itype).reshape(P, H, W)
    src = np.full((P, H, W, K), -1, dtype=itype)
    sign = -1 if transpose else 1
    for k, (dy, dx) in enumerate(offsets):
        dy, dx = sign * dy, sign * dx
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        if ys0 < ys1 and xs0 < xs1:
            src[:, ys0:ys1, xs0:xs1, k] = slots[:, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
    src = src.reshape(-1, K)
    inside = src >= 0
    cols = src[inside]
    if transpose:
        pos = cols * itype(K) + np.nonzero(inside)[1].astype(itype)
    else:
        pos = np.flatnonzero(inside).astype(itype)
    indptr = np.zeros(src.shape[0] + 1, dtype=itype)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    for a in (cols, pos, indptr):
        a.flags.writeable = False
    return cols, pos, indptr


def _window_product(x, w, offsets, transpose):
    """The CSR product of a window stencil filled with ``w`` and ``x`` per slot."""
    P, H, W, Z = x.shape
    n = P * H * W
    key = tuple((int(dy), int(dx)) for dy, dx in offsets)
    cols, pos, indptr = _window_stencil((P, H, W), key, transpose)
    op = sparse.csr_matrix((np.ravel(w)[pos], cols, indptr), shape=(n, n))
    return (op @ x.reshape(n, Z)).reshape(x.shape)


def window_sum(q, w, offsets):
    """out[p,y,x,:] = sum_k w[p,y,x,k] * q[p, y+dy_k, x+dx_k, :].

    One sparse product; each row adds its in-grid terms in offset order."""
    return _window_product(q, w, offsets, transpose=False)


def window_sum_adjoint(d_out, w, offsets):
    """Adjoint of window_sum with respect to q (the transposed stencil)."""
    return _window_product(d_out, w, offsets, transpose=True)


def window_weight_grad(d_out, q, offsets):
    """dW[p,y,x,k] = sum_l d_out[p,y,x,l] * q[p, y+dy, x+dx, l]."""
    P, H, W, Z = q.shape
    K = offsets.shape[0]
    dw = np.zeros((P, H, W, K), dtype=q.dtype)
    for k in range(K):
        dy, dx = int(offsets[k, 0]), int(offsets[k, 1])
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        if ys0 >= ys1 or xs0 >= xs1:
            continue
        dw[:, ys0:ys1, xs0:xs1, k] = np.einsum(
            "pyxl,pyxl->pyx",
            d_out[:, ys0:ys1, xs0:xs1, :],
            q[:, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx, :],
        )
    return dw


def pairwise_weights(feat, valid, offsets, inv2t1, inv2t2, inv2t3, w1):
    """Gaussian pairwise weights per column and window offset.

    Returns (w, app, fdist): total weight, the masked appearance term and the
    squared feature distance (the latter two feed the analytic gradients).
    Entries are 0 for the self offset, out-of-grid neighbors and columns where
    either endpoint is invalid.
    """
    P, H, W, Z = feat.shape
    K = offsets.shape[0]
    w = np.zeros((P, H, W, K), dtype=np.float64)
    app = np.zeros((P, H, W, K), dtype=np.float64)
    fd = np.zeros((P, H, W, K), dtype=np.float64)
    for k in range(K):
        dy, dx = int(offsets[k, 0]), int(offsets[k, 1])
        if dy == 0 and dx == 0:
            continue
        d2 = float(dy * dy + dx * dx)
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        if ys0 >= ys1 or xs0 >= xs1:
            continue
        fc = feat[:, ys0:ys1, xs0:xs1, :]
        fn = feat[:, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx, :]
        dist = ((fc - fn) ** 2).sum(axis=-1)
        mask = valid[:, ys0:ys1, xs0:xs1] & valid[:, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
        a = np.where(mask, np.exp(-d2 * inv2t1 - dist * inv2t2), 0.0)
        s = np.where(mask, np.exp(-d2 * inv2t3), 0.0)
        w[:, ys0:ys1, xs0:xs1, k] = a + w1 * s
        app[:, ys0:ys1, xs0:xs1, k] = a
        fd[:, ys0:ys1, xs0:xs1, k] = np.where(mask, dist, 0.0)
    return w, app, fd


# ---------------------------------------------------------------------------
# voxel parity fill (z-axis ray crossing counts as a difference array)


def parity_diff(tri_xyz, origin, spacing, dims):
    """Accumulate +1 at the first voxel index above each z-crossing, per column.

    A column crosses a triangle when its (x,y) center lies strictly inside the
    triangle's projection; triangles with zero projected area are skipped.
    Every triangle's bounding-box columns are expanded into one flat batch.
    Caller turns the difference array into inside labels via cumsum % 2.
    """
    X, Y, Z = dims
    ox, oy, oz = origin
    sx, sy, sz = spacing
    diff = np.zeros((X, Y, Z), dtype=np.int32)
    tri_xyz = np.asarray(tri_xyz, dtype=np.float64)
    xs, ys = tri_xyz[:, :, 0], tri_xyz[:, :, 1]
    ax, bx, cx = xs.T
    ay, by, cy = ys.T
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    i0 = np.maximum(np.ceil((xs.min(axis=1) - ox) / sx), 0)
    i1 = np.minimum(np.floor((xs.max(axis=1) - ox) / sx), X - 1)
    j0 = np.maximum(np.ceil((ys.min(axis=1) - oy) / sy), 0)
    j1 = np.minimum(np.floor((ys.max(axis=1) - oy) / sy), Y - 1)
    sel = np.nonzero((area2 != 0.0) & (i0 <= i1) & (j0 <= j1))[0]
    i0 = i0[sel].astype(np.int64)
    j0 = j0[sel].astype(np.int64)
    nj = j1[sel].astype(np.int64) - j0 + 1
    count = (i1[sel].astype(np.int64) - i0 + 1) * nj
    # one row per (triangle, bounding-box column)
    f = np.repeat(np.arange(sel.size), count)
    local = np.arange(f.size) - np.repeat(np.cumsum(count) - count, count)
    ii = i0[f] + local // nj[f]
    jj = j0[f] + local % nj[f]
    f = sel[f]
    px = ox + sx * ii
    py = oy + sy * jj
    ea = (cx[f] - bx[f]) * (py - by[f]) - (cy[f] - by[f]) * (px - bx[f])
    eb = (ax[f] - cx[f]) * (py - cy[f]) - (ay[f] - cy[f]) * (px - cx[f])
    ec = (bx[f] - ax[f]) * (py - ay[f]) - (by[f] - ay[f]) * (px - ax[f])
    inside = ((ea > 0) & (eb > 0) & (ec > 0)) | ((ea < 0) & (eb < 0) & (ec < 0))
    ea, eb, ec, f = ea[inside], eb[inside], ec[inside], f[inside]
    az, bz, cz = tri_xyz[f, :, 2].T
    zstar = (ea * az + eb * bz + ec * cz) / (ea + eb + ec)
    kk = np.clip(np.floor((zstar - oz) / sz).astype(np.int64) + 1, 0, None)
    keep = kk < Z
    np.add.at(diff, (ii[inside][keep], jj[inside][keep], kk[keep]), 1)
    return diff
