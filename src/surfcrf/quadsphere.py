"""Quadrilateral parameterization of the unit sphere by recursive cube
subdivision, the padded face-grid ids across cube edges, spherical point
location, and barycentric transfer of the quad structure onto the
pre-segmentation surface."""
from __future__ import annotations

import functools
import zipfile
from dataclasses import dataclass

import numpy as np

from . import accel
from .mesh import MeshError, SphereMap, TriMesh, _edge_table, _sphere_midpoints, vertex_normals


class LocateError(ValueError):
    """No containing spherical triangle found (map not bijective)."""


# cube corner c: bit 0 -> +x, bit 1 -> +y, bit 2 -> +z
_CORNER_SIGNS = np.array([[(c >> a) & 1 for a in range(3)] for c in range(8)]) * 2 - 1
# per face: corner ids at grid (0,0), (n,0), (0,n); outward orientation
_FACE_CORNERS = (
    (1, 3, 5),  # +x: u->y, v->z
    (0, 4, 2),  # -x: u->z, v->y
    (2, 6, 3),  # +y: u->z, v->x
    (0, 1, 4),  # -y: u->x, v->z
    (4, 5, 6),  # +z: u->x, v->y
    (0, 2, 1),  # -z: u->y, v->x
)


@dataclass(eq=False)
class QuadSphere:
    """6 stitched (n+1)x(n+1) face grids of unit-sphere vertices, n = 2^r.

    Shared cube edges/corners are deduplicated at build time: the grids index
    one global vertex table, so V = 6n^2+2 and exactly 8 vertices (the cube
    corners) have degree 3.
    """
    level: int
    vertices: np.ndarray  # (V,3) float64 unit
    grids: np.ndarray     # (6, n+1, n+1) int64

    @property
    def n(self) -> int:
        return 2 ** self.level

    @property
    def faces(self) -> np.ndarray:
        """Quad faces (6n^2, 4), CCW from outside."""
        g = self.grids
        f = np.stack([g[:, :-1, :-1], g[:, 1:, :-1], g[:, 1:, 1:], g[:, :-1, 1:]], axis=-1)
        return f.reshape(-1, 4)

    def edge_count(self) -> int:
        return len(_edge_table(self.faces, len(self.vertices))[1])

    def vertex_degrees(self) -> np.ndarray:
        edges = _edge_table(self.faces, len(self.vertices))[1]
        return np.bincount(edges.ravel(), minlength=len(self.vertices))


def build_quadsphere(level: int) -> QuadSphere:
    """Inscribed cube projected to the sphere, then ``level`` recursions of
    quad subdivision with edge midpoints and face centers pushed outward.

    Cached per level: every caller shares one QuadSphere, whose arrays are
    read-only."""
    return _cached_quadsphere(level)  # positional, so a keyword call hits too


# the largest level whose 6 * 4**level + 2 vertices an int64 can index
MAX_LEVEL = 30


def vertex_count(level: int) -> int:
    """The vertices of the cube sphere at ``level``, 6 * 4**level + 2, without
    building it: load_quadmesh checks a file against it first, because the
    build time grows about 4x per level."""
    return 6 * 4 ** level + 2


@functools.lru_cache(maxsize=16)
def _cached_quadsphere(level: int) -> QuadSphere:
    if level < 0:
        raise ValueError("recursion level must be >= 0")
    verts = [v / np.linalg.norm(v) for v in _CORNER_SIGNS.astype(np.float64)]
    grids = []
    for c00, cn0, c0n in _FACE_CORNERS:
        cnn_signs = _CORNER_SIGNS[cn0] + _CORNER_SIGNS[c0n] - _CORNER_SIGNS[c00]
        cnn = int(((cnn_signs > 0) * [1, 2, 4]).sum())
        grids.append(np.asarray([[c00, c0n], [cn0, cnn]], dtype=np.int64))
    grids = np.stack(grids)

    for _ in range(level):
        midpoint = _sphere_midpoints(verts)
        old_n = grids.shape[1] - 1
        new = np.zeros((6, 2 * old_n + 1, 2 * old_n + 1), dtype=np.int64)
        for f, g in enumerate(grids):
            for i in range(old_n + 1):
                for j in range(old_n + 1):
                    new[f, 2 * i, 2 * j] = g[i, j]
                    if i < old_n:
                        new[f, 2 * i + 1, 2 * j] = midpoint(g[i, j], g[i + 1, j])
                    if j < old_n:
                        new[f, 2 * i, 2 * j + 1] = midpoint(g[i, j], g[i, j + 1])
                    if i < old_n and j < old_n:
                        m = verts[g[i, j]] + verts[g[i + 1, j]] + verts[g[i, j + 1]] + verts[g[i + 1, j + 1]]
                        m /= np.linalg.norm(m)
                        new[f, 2 * i + 1, 2 * j + 1] = len(verts)
                        verts.append(m)
        grids = new
    vertices = np.asarray(verts)
    vertices.flags.writeable = False
    grids.flags.writeable = False
    return QuadSphere(level=level, vertices=vertices, grids=grids)


def padded_gid_grids(qs: QuadSphere, pad: int) -> np.ndarray:
    """(6, n+1+2p, n+1+2p) global-id grids; -1 in the p x p corner blocks,
    which have no diagonal neighbor on the cube (the 8 degree-3 corners).

    Slot (i, j) of face f, i and j in [-p, n+p], sits at the cube-lattice
    point n*c00 + i*du + j*dv (corners at +-n, grid step 2).  A slot past one
    cube edge folds its excess off that tangent axis and inward along the
    face normal, which lands on the neighbor face's grid line at that depth."""
    n = qs.n
    if pad > n:
        raise ValueError(f"pad {pad} exceeds face grid size n={n}")
    c00, cn0, c0n = (_CORNER_SIGNS[list(c)] for c in zip(*_FACE_CORNERS))  # (6,3) each
    du, dv = cn0 - c00, c0n - c00
    normal = np.where((du == 0) & (dv == 0), c00, 0)
    k = np.arange(-pad, n + pad + 1)
    pts = (n * c00[:, None, None] + k[:, None, None] * du[:, None, None]
           + k[None, :, None] * dv[:, None, None])
    excess = np.maximum(np.abs(pts) - n, 0)
    folded = np.clip(pts, -n, n) - excess.sum(axis=-1, keepdims=True) * normal[:, None, None]
    lat = (folded + n) // 2  # 0..n per axis
    table = np.full((n + 1,) * 3, -1, dtype=np.int64)
    inner = lat[:, pad:pad + n + 1, pad:pad + n + 1]
    table[tuple(np.moveaxis(inner, -1, 0))] = qs.grids
    out = np.full(lat.shape[:-1], -1, dtype=np.int64)
    edge = (excess > 0).sum(axis=-1) < 2  # slots past two edges stay -1
    out[edge] = table[tuple(lat[edge].T)]
    return out


# ---------------------------------------------------------------------------
# point location


def _location_tables(smap: SphereMap):
    pos = smap.positions
    tris = smap.mesh.faces
    mats = pos[tris].transpose(0, 2, 1)  # columns are the three vertices
    inv = np.linalg.inv(mats)
    cent = pos[tris].mean(axis=1)
    cent /= np.linalg.norm(cent, axis=1)[:, None]
    cosang = np.einsum("fij,fj->fi", pos[tris], cent).min(axis=1)
    # geodesic disc bound with a small angular guard for roundoff
    cos_bound = np.cos(np.minimum(np.arccos(np.clip(cosang, -1, 1)) + 1e-7, np.pi))
    return inv, cent, cos_bound


def locate_on_sphere(points, smap: SphereMap):
    """Map unit points to (triangle id, t1, t2, t3) of the spherical mesh via
    gnomonic containment; exact-edge ties go to the lowest triangle id.

    points: (3,) or (N,3).  Raises LocateError when a point lands in no
    triangle (the map is not bijective there).
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    inv, cent, cos_bound = _location_tables(smap)
    face, bary = accel.locate_points(inv, cent, cos_bound, pts)
    if np.any(face < 0):
        bad = int(np.nonzero(face < 0)[0][0])
        raise LocateError(f"no containing triangle for point {pts[bad].tolist()}")
    if single:
        return int(face[0]), bary[0]
    return face, bary


# ---------------------------------------------------------------------------
# remeshing


@dataclass(eq=False)
class QuadMesh:
    """Quad-sphere topology carried onto the pre-segmentation surface."""
    sphere: QuadSphere
    positions: np.ndarray  # (V,3) float64 mm
    normals: np.ndarray    # (V,3) float64 unit


def remesh(mesh: TriMesh, smap: SphereMap, qs: QuadSphere) -> QuadMesh:
    """Locate every quad-sphere vertex in the mapped mesh and pull back its
    barycentric record onto the original surface (positions and normals)."""
    face, bary = locate_on_sphere(qs.vertices, smap)
    tri = mesh.faces[face]
    pos = np.einsum("vk,vkj->vj", bary, mesh.vertices[tri])
    vn = vertex_normals(mesh)
    nrm = np.einsum("vk,vkj->vj", bary, vn[tri])
    norms = np.linalg.norm(nrm, axis=1)
    if np.any(norms <= 0):
        raise MeshError("degenerate interpolated normal in remesh")
    return QuadMesh(sphere=qs, positions=pos, normals=nrm / norms[:, None])


def save_arrays(path, **arrays) -> None:
    """Write named arrays to the .npz sidecar at exactly ``path``."""
    with open(path, "wb") as fh:  # np.savez appends ".npz" to a path without it
        np.savez(fh, **arrays)


def load_arrays(path) -> dict:
    """Every array of the .npz sidecar at ``path``, by name."""
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with npz:
            return {name: npz[name] for name in npz.files}
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not an .npz archive of arrays ({exc})") from None


def checked_array(arrays: dict, path, name: str, shape: tuple, dtype) -> np.ndarray:
    """arrays[name], which must have exactly this shape and dtype and, if
    floating-point, hold finite values only."""
    if name not in arrays:
        raise ValueError(f"{path}: missing array {name!r}")
    arr = arrays[name]
    if arr.shape != shape or arr.dtype != np.dtype(dtype):
        raise ValueError(f"{path}: {name!r} has shape {arr.shape} and dtype {arr.dtype}, "
                         f"expected {shape} and {np.dtype(dtype)}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"{path}: {name!r} must be finite")
    return arr


def checked_unit_rows(arrays: dict, path, name: str, rows: int) -> np.ndarray:
    """checked_array's (rows, 3) float64 arrays[name], each row of unit length."""
    arr = checked_array(arrays, path, name, (rows, 3), np.float64)
    off = np.abs(np.linalg.norm(arr, axis=1) - 1.0).max()
    if off > 1e-9:
        raise ValueError(f"{path}: {name!r} rows must have unit length, one is off by {off:.3g}")
    return arr


def save_quadmesh(qm: QuadMesh, path) -> None:
    """The level and the per-vertex arrays to the .npz file at ``path``; the
    topology is rebuilt from the level."""
    save_arrays(path, level=np.int64(qm.sphere.level), positions=qm.positions,
                normals=qm.normals)


def load_quadmesh(path) -> QuadMesh:
    arrays = load_arrays(path)
    level = int(checked_array(arrays, path, "level", (), np.int64))
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"{path}: 'level' must be in 0..{MAX_LEVEL}, got {level}")
    V = vertex_count(level)
    positions = checked_array(arrays, path, "positions", (V, 3), np.float64)
    return QuadMesh(sphere=build_quadsphere(level), positions=positions,
                    normals=checked_unit_rows(arrays, path, "normals", V))
