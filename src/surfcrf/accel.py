"""Hot numeric kernels of surfcrf, one vectorized numpy function each.

Geometry: trilinear volume sampling, point location on the mapped sphere,
ray casting against a triangle soup and the voxel parity fill.  CRF: the
slot-grid Gaussian pairwise weights and window message pass, its adjoint
and its weight gradient, each a plain loop over the window offsets.
Inference and fitting run on the vertex operator of crf.compute_kernel
instead; the slot-grid CRF kernels remain only as benchmark probe targets.
The per-point geometry kernels work in blocks, so their transient memory
stays bounded whatever the input size: ray casting takes _RAY_CHUNK = 64
rays per (rays x faces) block, point location _LOCATE_CHUNK = 256 points per
(points x faces) prefilter block, and trilinear sampling _GATHER_CHUNK =
2**14 points per block, whose thirty or so temporaries then take about
4 MiB, written into one output array.  The tests compare every kernel with
a scalar-loop reference.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_LOCATE_CHUNK = 256      # query points per centroid prefilter block
_LOCATE_TOL = 1e-10      # least barycentric min-fraction of a containing face
_LOCATE_FALLBACK = 1e-6  # least min-fraction of a nearest-face fallback
_RAY_CHUNK = 64          # rays per (rays x faces) block
_GATHER_CHUNK = 2 ** 14  # points per trilinear interpolation block


# ---------------------------------------------------------------------------
# trilinear gather


def trilinear_gather(data, origin, spacing, pts):
    """Trilinear interpolation of ``data`` (X,Y,Z grid) at world points (N,3).

    Continuous coordinates are clamped to the voxel-center lattice, so points
    outside the volume take the nearest border value.  The eight corners are
    read with flat takes at (i*Y + j)*Z + k.  Points are interpolated in
    blocks of _GATHER_CHUNK into one output array, so the temporaries of a
    block stay small whatever the point count.
    """
    data = np.asarray(data, dtype=np.float64)
    X, Y, Z = data.shape
    flat = data.ravel()
    out = np.empty(pts.shape[0], dtype=np.float64)
    for lo in range(0, pts.shape[0], _GATHER_CHUNK):
        block = pts[lo:lo + _GATHER_CHUNK]
        u = np.clip((block[:, 0] - origin[0]) / spacing[0], 0.0, X - 1.0)
        v = np.clip((block[:, 1] - origin[1]) / spacing[1], 0.0, Y - 1.0)
        w = np.clip((block[:, 2] - origin[2]) / spacing[2], 0.0, Z - 1.0)
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
        c00 = flat.take(r00 + k0) * (1 - fu) + flat.take(r10 + k0) * fu
        c10 = flat.take(r01 + k0) * (1 - fu) + flat.take(r11 + k0) * fu
        c01 = flat.take(r00 + k1) * (1 - fu) + flat.take(r10 + k1) * fu
        c11 = flat.take(r01 + k1) * (1 - fu) + flat.take(r11 + k1) * fu
        c0 = c00 * (1 - fv) + c10 * fv
        c1 = c01 * (1 - fv) + c11 * fv
        out[lo:lo + _GATHER_CHUNK] = c0 * (1 - fw) + c1 * fw
    return out


# ---------------------------------------------------------------------------
# point location on the mapped sphere (gnomonic ray-triangle containment)


def locate_points(inv_mats, centroids, cos_bound, pts):
    """Find, per unit query point, the spherical triangle containing it.

    inv_mats (F,3,3) are the inverses of the per-face vertex matrices; alpha =
    inv @ q gives the unnormalized barycentric weights of the ray hit.
    Candidates are prefiltered by centroid dot product (faces lie inside their
    circumscribing geodesic disc).  Each block of points is one pass over its
    (point, face) candidate pairs, ordered by point and then by face id: per
    point the first containing face wins, so exact-edge ties go to the lowest
    id; without one, the first face of largest min-fraction is taken if it is
    within _LOCATE_FALLBACK.  Points with neither get face -1.
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
        score = np.where(minfrac >= -_LOCATE_TOL, np.inf, minfrac)
        starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
        best = np.full(block.shape[0], -np.inf)
        best[qi[starts]] = np.maximum.reduceat(score, starts)
        pair = np.arange(qi.size)
        first = np.minimum.reduceat(np.where(score == best[qi], pair, qi.size), starts)
        first = first[best[qi[first]] >= -_LOCATE_FALLBACK]
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


def _offset_slices(shape, offsets):
    """Per window offset k = (dy, dx) with an in-grid neighbour: (k, centre,
    neighbour), the index tuples of the slots (p, y, x) of a (P,H,W,...)
    grid whose neighbour (p, y+dy, x+dx) lies in the grid, and of those
    neighbours."""
    H, W = shape[1:3]
    for k, (dy, dx) in enumerate(np.asarray(offsets).tolist()):
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        if ys0 < ys1 and xs0 < xs1:
            yield (k, (slice(None), slice(ys0, ys1), slice(xs0, xs1)),
                   (slice(None), slice(ys0 + dy, ys1 + dy), slice(xs0 + dx, xs1 + dx)))


def window_sum(q, w, offsets):
    """out[p,y,x,:] = sum_k w[p,y,x,k] * q[p, y+dy_k, x+dx_k, :].

    Each slot adds its in-grid terms in offset order."""
    out = np.zeros(q.shape, dtype=np.result_type(q, w))
    for k, c, n in _offset_slices(q.shape, offsets):
        out[c] += w[c + (k, None)] * q[n]
    return out


def window_sum_adjoint(d_out, w, offsets):
    """Adjoint of window_sum with respect to q."""
    dq = np.zeros(d_out.shape, dtype=np.result_type(d_out, w))
    for k, c, n in _offset_slices(d_out.shape, offsets):
        dq[n] += w[c + (k, None)] * d_out[c]
    return dq


def window_weight_grad(d_out, q, offsets):
    """dW[p,y,x,k] = sum_l d_out[p,y,x,l] * q[p, y+dy, x+dx, l]."""
    dw = np.zeros(q.shape[:3] + (len(offsets),), dtype=q.dtype)
    for k, c, n in _offset_slices(q.shape, offsets):
        dw[c + (k,)] = np.einsum("pyxl,pyxl->pyx", d_out[c], q[n])
    return dw


def pairwise_weights(feat, valid, offsets, inv2t1, inv2t2, inv2t3, w1):
    """Gaussian pairwise weights per column and window offset: 0 for the
    self offset, out-of-grid neighbors and columns where either endpoint is
    invalid."""
    w = np.zeros(feat.shape[:3] + (len(offsets),), dtype=np.float64)
    for k, c, n in _offset_slices(feat.shape, offsets):
        d2 = float(offsets[k][0] ** 2 + offsets[k][1] ** 2)
        if d2 == 0.0:  # the self offset
            continue
        dist = ((feat[c] - feat[n]) ** 2).sum(axis=-1)
        mask = valid[c] & valid[n]
        a = np.where(mask, np.exp(-d2 * inv2t1 - dist * inv2t2), 0.0)
        s = np.where(mask, np.exp(-d2 * inv2t3), 0.0)
        w[c + (k,)] = a + w1 * s
    return w


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
