"""Segmentation metrics: Dice overlap, Hausdorff and average surface distance,
closed-surface voxelization, and surface point sampling."""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from . import accel
from .volume import Volume

# fixed sub-voxel-scale irrational shift so axis rays never hit mesh edges or
# vertices exactly (symmetric phantoms put icosphere poles on voxel columns)
_JITTER = np.array([1.2345678901e-7, 2.3456789012e-7, 0.0])
_KD_LEAFSIZE = 64          # points per KD leaf in the surface-distance trees
_KD_QUERY_CHUNK = 2 ** 16  # query points per surface-distance query block


@dataclass
class MetricsReport:
    dsc: float
    asd_mm: float
    hd_mm: float
    voxels_truth: int
    voxels_pred: int
    voxels_overlap: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _as_triangles(faces: np.ndarray) -> np.ndarray:
    faces = np.asarray(faces, dtype=np.int64)
    if faces.shape[1] == 3:
        return faces
    if faces.shape[1] == 4:
        return np.concatenate([faces[:, (0, 1, 2)], faces[:, (0, 2, 3)]])
    raise ValueError(f"faces must be triangles or quads, got width {faces.shape[1]}")


def voxelize(vertices: np.ndarray, faces: np.ndarray, template: Volume) -> Volume:
    """Binary volume whose voxels have centers inside the closed surface,
    by parity of z-axis ray crossings on the template grid."""
    tris = _as_triangles(faces)
    verts = np.asarray(vertices, dtype=np.float64) + _JITTER * np.asarray(template.spacing)
    tri_xyz = verts[tris]
    diff = accel.parity_diff(tri_xyz, np.asarray(template.origin, dtype=np.float64),
                             np.asarray(template.spacing, dtype=np.float64),
                             template.dims)
    inside = (np.cumsum(diff, axis=2) % 2).astype(np.float32)
    return Volume(dims=template.dims, spacing=template.spacing,
                  origin=template.origin, data=inside)


def _check_binary(vol: Volume, name: str) -> np.ndarray:
    data = vol.data
    if not np.isin(data, (0.0, 1.0)).all():
        raise ValueError(f"{name} is not a binary label volume")
    return data > 0.5


def _voxel_counts(a: Volume, b: Volume, name_a: str, name_b: str) -> tuple[int, int, int]:
    """(|A|, |B|, |A&B|) of two binary label volumes on one grid."""
    if a.dims != b.dims or a.spacing != b.spacing or a.origin != b.origin:
        raise ValueError("label volumes must share dims, spacing and origin")
    ma = _check_binary(a, name_a)
    mb = _check_binary(b, name_b)
    return int(ma.sum()), int(mb.sum()), int((ma & mb).sum())


def _dice(na: int, nb: int, nab: int) -> float:
    return 1.0 if na + nb == 0 else 2.0 * nab / (na + nb)


def dsc(a: Volume, b: Volume) -> float:
    """Dice similarity coefficient 2|A&B| / (|A|+|B|); both-empty -> 1."""
    return _dice(*_voxel_counts(a, b, "first volume", "second volume"))


@lru_cache(maxsize=None)
def _centroid_lattice(depth: int) -> np.ndarray:
    """Barycentric weights (n*n, 3), n = 2**depth, of the centroids of the
    n*n sub-triangles that `depth` rounds of midpoint subdivision cut a
    triangle into.  With (u, v) the weights of the second and third corner,
    up-triangles sit at ((i+1/3)/n, (j+1/3)/n) for i+j <= n-1 and
    down-triangles at ((i+2/3)/n, (j+2/3)/n) for i+j <= n-2."""
    n = 2 ** depth
    i, j = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) <= n - 1)
    up = np.stack([i + 1 / 3, j + 1 / 3], axis=1)
    down = np.stack([i + 2 / 3, j + 2 / 3], axis=1)[i + j <= n - 2]
    uv = np.concatenate([up, down]) / n
    w = np.column_stack([1.0 - uv.sum(axis=1), uv])
    w.flags.writeable = False
    return w


def sample_surface(vertices: np.ndarray, faces: np.ndarray, max_edge: float) -> np.ndarray:
    """Dense surface samples: all mesh vertices plus centroids of faces
    subdivided (midpoint scheme) until every edge is <= max_edge.

    Midpoint subdivision halves every edge of all four children, so every
    leaf of a face with longest edge L sits at the least depth k with
    L / 2**k <= max_edge, and the leaf centroids are a fixed lattice of 4**k
    barycentric points.  A face whose longest edge is not finite (a NaN
    vertex, or one far enough out to overflow it) is rejected."""
    if not max_edge > 0:
        raise ValueError(f"max_edge must be > 0, got {max_edge!r}")
    tris = _as_triangles(faces)
    verts = np.asarray(vertices, dtype=np.float64)
    corners = verts[tris]  # (F,3,3)
    with np.errstate(over="ignore"):
        longest = np.linalg.norm(corners - corners[:, (1, 2, 0)], axis=2).max(axis=1)
    bad = np.flatnonzero(~np.isfinite(longest))
    if bad.size:
        raise ValueError(f"face {bad[0]} has a non-finite edge length ({longest[bad[0]]})")
    depth = np.zeros(len(tris), dtype=np.int64)
    big = longest > max_edge
    while big.any():
        depth[big] += 1
        big &= np.ldexp(longest, -depth) > max_edge
    out = np.empty((len(verts) + int((4 ** depth).sum()), 3))
    out[:len(verts)] = verts
    at = len(verts)
    for k in np.unique(depth):
        lattice = _centroid_lattice(int(k))
        leaf = corners[depth == k]
        n = len(leaf) * len(lattice)
        np.einsum("sw,fwc->fsc", lattice, leaf, out=out[at:at + n].reshape(len(leaf), -1, 3))
        at += n
    return out


def _bidirectional_distances(s1: np.ndarray, s2: np.ndarray):
    """Exact nearest-neighbour distance from every point of s1 to s2 (d12)
    and from every point of s2 to s1 (d21).

    Each set is queried in the leaf order of its own tree, so consecutive
    queries are spatial neighbours and walk the other tree along the same
    paths; the distances are scattered back to the input order.  The leaf
    order is walked in blocks of _KD_QUERY_CHUNK points, so no copy of a
    whole set is made.  Leaves of _KD_LEAFSIZE points cut the tree depth,
    which the dense surface samples gain more from than they lose to longer
    leaf scans."""
    from scipy.spatial import cKDTree  # here, so that only the metrics step imports it

    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.size == 0 or s2.size == 0:
        raise ValueError("empty surface point set")
    t1 = cKDTree(s1, leafsize=_KD_LEAFSIZE, balanced_tree=False, compact_nodes=False)
    t2 = cKDTree(s2, leafsize=_KD_LEAFSIZE, balanced_tree=False, compact_nodes=False)
    d12 = np.empty(len(s1))
    d21 = np.empty(len(s2))
    for pts, own, other, dist in ((s1, t1, t2, d12), (s2, t2, t1, d21)):
        for lo in range(0, len(pts), _KD_QUERY_CHUNK):
            ids = own.indices[lo:lo + _KD_QUERY_CHUNK]
            dist[ids] = other.query(pts[ids], workers=-1)[0]
    return d12, d21


def _hd_asd(s1: np.ndarray, s2: np.ndarray) -> tuple[float, float]:
    """Hausdorff distance (max of the two directed maxima) and symmetric
    average surface distance (summed directed distances divided by the total
    sample count) of two sample sets."""
    d12, d21 = _bidirectional_distances(s1, s2)
    return (float(max(d12.max(), d21.max())),
            float((d12.sum() + d21.sum()) / (len(d12) + len(d21))))


def hd(s1: np.ndarray, s2: np.ndarray) -> float:
    """Hausdorff distance: max of the two directed maxima."""
    return _hd_asd(s1, s2)[0]


def asd(s1: np.ndarray, s2: np.ndarray) -> float:
    """Symmetric average surface distance: summed directed distances divided
    by the total sample count."""
    return _hd_asd(s1, s2)[1]


def compare_surfaces(pred_verts, pred_faces, truth_verts, truth_faces,
                     template: Volume, labels: Volume | None = None) -> MetricsReport:
    """Full report: DSC from voxelized prediction vs labels (or voxelized
    truth), HD/ASD from dense surface samples at half-voxel density."""
    pred_lab = voxelize(pred_verts, pred_faces, template)
    truth_lab = labels if labels is not None else voxelize(truth_verts, truth_faces, template)
    n_truth, n_pred, n_both = _voxel_counts(truth_lab, pred_lab, "truth", "prediction")
    max_edge = 0.5 * min(template.spacing)
    hd_mm, asd_mm = _hd_asd(sample_surface(pred_verts, pred_faces, max_edge),
                            sample_surface(truth_verts, truth_faces, max_edge))
    return MetricsReport(dsc=_dice(n_truth, n_pred, n_both), asd_mm=asd_mm, hd_mm=hd_mm,
                         voxels_truth=n_truth, voxels_pred=n_pred, voxels_overlap=n_both)
