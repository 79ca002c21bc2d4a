"""Terrain-like image patches: column sampling along quad-mesh normals,
per-column ground truth from a reference mesh, seam-aware padding between the
6 cube faces, and mapping predictions back to world space."""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import accel
from .quadsphere import QuadMesh, QuadSphere, load_quadmesh, padded_gid_grids, save_quadmesh
from .volume import Volume, load_svol, save_svol


@dataclass(eq=False)
class ColumnGraph:
    """Grid topology shared by patch-shaped arrays (P patches of H x W columns).

    gid holds the global vertex of each slot (-1 in the corner pad blocks,
    which have no geometry); owner holds, per global vertex, the flat index
    of the single slot that contributes to merged output; sphere is the
    cube-sphere whose face grids these are (None for a toy grid).
    """
    gid: np.ndarray    # (P,H,W) int64, -1 where invalid
    owner: np.ndarray  # (Nv,) int64 flat slot index
    sphere: QuadSphere | None = None

    @property
    def shape(self):
        return self.gid.shape

    @property
    def n_vertices(self) -> int:
        return len(self.owner)

    @property
    def valid(self) -> np.ndarray:
        """(P,H,W) bool: slots with real geometry."""
        return self.gid >= 0

    def merge(self, field: np.ndarray) -> np.ndarray:
        """Per-slot field (P,H,W,...) -> per-vertex field (Nv,...)."""
        return field.reshape(-1, *field.shape[3:])[self.owner]

    def split(self, field: np.ndarray) -> np.ndarray:
        """Per-vertex field (Nv,...) -> per-slot field (P,H,W,...); the
        corner slots are 0."""
        P, H, W = self.shape
        out = np.zeros((P * H * W, *field.shape[1:]), dtype=field.dtype)
        flat_gid = self.gid.ravel()
        ok = flat_gid >= 0
        out[ok] = field[flat_gid[ok]]
        return out.reshape(P, H, W, *field.shape[1:])


def make_toy_graph(height: int, width: int, patches: int = 1) -> ColumnGraph:
    """Single-owner grid with no pads; used by CRF unit tests and oracles."""
    P, H, W = patches, height, width
    owner = np.arange(P * H * W, dtype=np.int64)
    return ColumnGraph(gid=owner.reshape(P, H, W), owner=owner)


@dataclass(eq=False)
class PatchSet:
    """Six padded (W,W,Z) face grids of intensity columns and the quad mesh
    they were sampled on, stored as patch{0..5}.svol and quad.npz; graph is
    the sphere's column graph at the pad of W = n + 1 + 2*pad.

    Sample i of vertex v's column sits at
    quad.positions[v] + (i - z_len // 2)*delta*quad.normals[v], so the
    center sample lies on the pre-segmentation vertex.
    """
    quad: QuadMesh
    graph: ColumnGraph
    samples: np.ndarray    # (6,W,W,Z) float32
    delta: float

    @property
    def z_len(self) -> int:
        return self.samples.shape[-1]

    def sample_offsets(self) -> np.ndarray:
        """Signed distance (mm) of each sample along its column's normal, (Z,)."""
        return _sample_offsets(self.z_len, self.delta)

    def column_points(self) -> np.ndarray:
        """World sample points of every vertex column, (Nv,Z,3)."""
        return _column_points(self.quad, self.sample_offsets())


def _sample_offsets(z_len: int, delta: float) -> np.ndarray:
    return (np.arange(z_len) - z_len // 2) * delta


def _column_points(qm: QuadMesh, offs: np.ndarray) -> np.ndarray:
    return qm.positions[:, None, :] + offs[None, :, None] * qm.normals[:, None, :]


@dataclass
class GroundTruth:
    """Per global vertex: surface sample index and validity (ray hit)."""
    surface_index: np.ndarray  # (Nv,) int64
    valid: np.ndarray          # (Nv,) bool

    def to_json(self) -> str:
        return json.dumps({"surface_index": self.surface_index.tolist(),
                           "valid": self.valid.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        """The inverse of to_json: ``surface_index`` must be a flat list of
        integers and ``valid`` one of booleans; an error names the field."""
        doc = json.loads(text)
        fields = {}
        for name, typ, what, dtype in (("surface_index", int, "integers", np.int64),
                                       ("valid", bool, "booleans", bool)):
            vals = doc[name]
            bad = [v for v in vals if type(v) is not typ] if isinstance(vals, list) else [vals]
            if bad:
                raise ValueError(f"{name} must be a flat list of {what}, got {bad[0]!r}")
            fields[name] = np.asarray(vals, dtype=dtype)
        return cls(**fields)


# ---------------------------------------------------------------------------
# column graph


def build_column_graph(qs: QuadSphere, pad: int) -> ColumnGraph:
    """Column graph of the padded face grids of ``qs``.

    Cached per (sphere, pad): every caller shares one graph, whose arrays are
    read-only, so caches keyed on the graph hit across patch-set loads."""
    return _cached_column_graph(qs, pad)  # positional, so a keyword call hits too


@functools.lru_cache(maxsize=16)
def _cached_column_graph(qs: QuadSphere, pad: int) -> ColumnGraph:
    gid = padded_gid_grids(qs, pad)
    n = qs.n
    # each vertex is owned by its first interior slot in (face, row, column) order
    interior = np.zeros(gid.shape, dtype=bool)
    interior[:, pad:pad + n + 1, pad:pad + n + 1] = True
    slots = np.flatnonzero(interior)
    first = np.unique(gid.ravel()[slots], return_index=True)[1]
    if len(first) != len(qs.vertices):
        raise AssertionError("unclaimed quad vertex in ownership pass")
    graph = ColumnGraph(gid=gid, owner=slots[first], sphere=qs)
    for arr in (graph.gid, graph.owner):
        arr.flags.writeable = False
    return graph


# ---------------------------------------------------------------------------
# sampling, ground truth, reconstruction


def sample_columns(vol: Volume, qm: QuadMesh, z_len: int, delta: float, pad: int) -> PatchSet:
    """Trilinear column sampling along quad-vertex normals; each face grid is
    extended by ``pad`` rings of true neighbor columns so convolution windows
    at seams see real geometry.  Each vertex column is sampled once and
    copied into every slot that shows it; corner pad slots stay 0."""
    if z_len < 2:
        raise ValueError("z_len must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    graph = build_column_graph(qm.sphere, pad)
    vals = accel.trilinear_gather(
        vol.data, np.asarray(vol.origin), np.asarray(vol.spacing),
        _column_points(qm, _sample_offsets(z_len, float(delta))).reshape(-1, 3))
    samples = graph.split(vals.reshape(-1, z_len)).astype(np.float32)
    return PatchSet(quad=qm, graph=graph, samples=samples, delta=float(delta))


def ground_truth(qm: QuadMesh, ref, z_len: int, delta: float) -> GroundTruth:
    """Intersect each vertex normal line with the reference mesh; the hit with
    smallest |t| (ties toward negative t, i.e. inside) is rounded to the
    nearest sample index.  Misses and hits outside the column are invalid."""
    t, hit = accel.raycast_min_abs_t(ref.vertices, ref.faces, qm.positions, qm.normals)
    g = np.rint(t / delta).astype(np.int64) + z_len // 2
    valid = hit & (g >= 0) & (g < z_len)
    g[~valid] = 0
    return GroundTruth(surface_index=g, valid=valid)


def labeling_to_world(labels: np.ndarray, ps: PatchSet):
    """Per-vertex surface indices -> quad surface (vertices, quad faces)."""
    if len(labels) != ps.graph.n_vertices:
        raise ValueError("labeling does not cover all interior columns")
    if not 0 <= np.min(labels) <= np.max(labels) < ps.z_len:
        raise ValueError(f"labels must lie in [0, z_len) = [0, {ps.z_len})")
    offs = ps.sample_offsets()[labels]
    verts = ps.quad.positions + offs[:, None] * ps.quad.normals
    return verts, ps.quad.sphere.faces


# ---------------------------------------------------------------------------
# serialization: one .svol per face grid, dims [W, W, z_len] and spacing
# [1, 1, delta], and the quad mesh in quad.npz (quadsphere.save_quadmesh); the
# topology is rebuilt from its level and the pad of W = n + 1 + 2*pad


def save_face_grids(path_of, grids: np.ndarray, delta: float) -> None:
    """Write the six (W, W, Z) face grids, face f to ``path_of(f)``, as
    float32 .svol files with spacing (1, 1, delta)."""
    for f in range(6):
        save_svol(Volume(dims=grids[f].shape, spacing=(1.0, 1.0, delta), origin=(0.0, 0.0, 0.0),
                         data=grids[f].astype(np.float32, copy=False)), path_of(f))


def load_face_grids(path_of, check_first) -> tuple:
    """The six face grids written by save_face_grids, (6, W, W, Z) float32,
    and their spacing.  ``check_first(path, vol)`` vets the first file
    before the others are read; a file whose dims or spacing differ from
    the first file's is named in the error, with the field."""
    first_path = path_of(0)
    first = load_svol(first_path)
    check_first(first_path, first)
    grids = np.empty((6, *first.dims), dtype=np.float32)
    grids[0] = first.data
    for f in range(1, 6):
        path = path_of(f)
        vol = load_svol(path)
        for field in ("dims", "spacing"):
            got, want = getattr(vol, field), getattr(first, field)
            if got != want:
                raise ValueError(f"{path}: {field} {list(got)} differ from "
                                 f"{first_path}'s {list(want)}")
        grids[f] = vol.data
    return grids, first.spacing


def save_patchset(ps: PatchSet, dirpath) -> None:
    """The patch set in ``dirpath``: its face grids as patch{f}.svol
    (save_face_grids) and its quad mesh as quad.npz."""
    os.makedirs(dirpath, exist_ok=True)
    save_face_grids(lambda f: os.path.join(dirpath, f"patch{f}.svol"), ps.samples, ps.delta)
    save_quadmesh(ps.quad, os.path.join(dirpath, "quad.npz"))


def load_patchset(dirpath) -> PatchSet:
    """The patch set that save_patchset wrote in ``dirpath``: the six face
    grids share dims [W, W, z_len] and spacing [1, 1, delta], W fixing the
    pad; an error names the file and the field."""
    quad_path = os.path.join(dirpath, "quad.npz")
    qm = load_quadmesh(quad_path)
    n = qm.sphere.n

    def check_dims(path, vol):
        W, H, z_len = vol.dims
        pad, odd = divmod(W - n - 1, 2)
        if W != H or odd or not 0 <= pad <= n or z_len < 2:
            raise ValueError(f"{path}: dims {list(vol.dims)} must be [W, W, z_len] with "
                             f"z_len >= 2 and W = n + 1 + 2*pad for a pad in 0..n, n = {n} the "
                             f"face grid size of {quad_path}")
    samples, spacing = load_face_grids(lambda f: os.path.join(dirpath, f"patch{f}.svol"),
                                       check_dims)
    pad = (samples.shape[1] - n - 1) // 2
    return PatchSet(quad=qm, graph=build_column_graph(qm.sphere, pad), samples=samples,
                    delta=spacing[2])
