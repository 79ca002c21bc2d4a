"""Terrain-like image patches: column sampling along quad-mesh normals,
per-column ground truth from a reference mesh, seam-aware padding between the
6 cube faces, and mapping predictions back to world space."""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import accel
from .quadsphere import (QuadMesh, QuadSphere, build_quadsphere, checked_array, checked_unit_rows,
                         load_arrays, padded_gid_grids, save_arrays, vertex_count)
from .volume import Volume, load_svol, save_svol


@dataclass(eq=False)
class ColumnGraph:
    """Grid topology shared by patch-shaped arrays (P patches of H x W columns).

    gid holds the global vertex of each slot (-1 in the corner pad blocks,
    which have no geometry); owner holds, per global vertex, the flat index
    of the single slot that contributes to merged output.
    """
    gid: np.ndarray    # (P,H,W) int64, -1 where invalid
    owner: np.ndarray  # (Nv,) int64 flat slot index

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
    """6 padded (W,W,Z) intensity grids plus per-vertex column geometry.

    Sample i of vertex v's column sits at
    positions[v] + (i - center_index)*delta*normals[v], so the center sample
    lies on the pre-segmentation vertex.
    """
    sphere: QuadSphere
    graph: ColumnGraph
    samples: np.ndarray    # (6,W,W,Z) float32
    positions: np.ndarray  # (Nv,3) float64
    normals: np.ndarray    # (Nv,3) float64
    z_len: int
    delta: float
    pad: int

    @property
    def center_index(self) -> int:
        return self.z_len // 2

    def sample_offsets(self) -> np.ndarray:
        """Signed distance (mm) of each sample along its column's normal, (Z,)."""
        return (np.arange(self.z_len) - self.center_index) * self.delta

    def column_points(self) -> np.ndarray:
        """World sample points of every vertex column, (Nv,Z,3)."""
        offs = self.sample_offsets()
        return self.positions[:, None, :] + offs[None, :, None] * self.normals[:, None, :]


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
    graph = ColumnGraph(gid=gid, owner=slots[first])
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
    qs = qm.sphere
    graph = build_column_graph(qs, pad)
    ps = PatchSet(sphere=qs, graph=graph, samples=None, positions=qm.positions,
                  normals=qm.normals, z_len=z_len, delta=float(delta), pad=pad)
    vals = accel.trilinear_gather(vol.data, np.asarray(vol.origin), np.asarray(vol.spacing),
                                  ps.column_points().reshape(-1, 3))
    ps.samples = graph.split(vals.reshape(-1, z_len)).astype(np.float32)
    return ps


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
    offs = (np.asarray(labels, dtype=np.float64) - ps.center_index) * ps.delta
    verts = ps.positions + offs[:, None] * ps.normals
    return verts, ps.sphere.faces


# ---------------------------------------------------------------------------
# serialization: one .svol per face grid, scalars in patchset.json and the
# per-vertex geometry in an .npz sidecar; the topology is rebuilt from level
# and pad, never stored


def save_face_grids(path_of, grids: np.ndarray, delta: float) -> None:
    """Write the six (W, W, Z) face grids, face f to ``path_of(f)``, as
    float32 .svol files with spacing (1, 1, delta)."""
    for f in range(6):
        save_svol(Volume(dims=grids[f].shape, spacing=(1.0, 1.0, delta), origin=(0.0, 0.0, 0.0),
                         data=grids[f].astype(np.float32)), path_of(f))


def load_face_grids(path_of, dims) -> np.ndarray:
    """The six face grids written by save_face_grids, (6, *dims) float32; a
    file whose dims are not ``dims`` is named in the error."""
    grids = np.empty((6, *dims), dtype=np.float32)
    for f in range(6):
        path = path_of(f)
        vol = load_svol(path)
        if vol.dims != tuple(dims):
            raise ValueError(f"{path}: dims {list(vol.dims)} do not match the patch "
                             f"set's (W, W, z_len) = {list(dims)}")
        grids[f] = vol.data
    return grids


def save_patchset(ps: PatchSet, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    save_face_grids(lambda f: os.path.join(dirpath, f"patch{f}.svol"), ps.samples, ps.delta)
    doc = {
        "level": ps.sphere.level,
        "z_len": ps.z_len,
        "delta": ps.delta,
        "pad": ps.pad,
    }
    with open(os.path.join(dirpath, "patchset.json"), "w") as fh:
        json.dump(doc, fh)
    save_arrays(os.path.join(dirpath, "geometry.npz"), positions=ps.positions,
                normals=ps.normals)


def _load_patchset_doc(path) -> dict:
    """The scalars of patchset.json, each present and in range."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object, got {doc!r}")
    for key in ("level", "z_len", "delta", "pad"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    for key in ("level", "pad", "z_len"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise ValueError(f"{path}: {key!r} must be an integer >= 0, got {doc[key]!r}")
    delta = doc["delta"]
    if type(delta) not in (int, float) or not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"{path}: 'delta' must be finite and > 0, got {delta!r}")
    if doc["pad"] > 2 ** doc["level"]:
        raise ValueError(f"{path}: 'pad' {doc['pad']} exceeds the face grid size "
                         f"n = 2**level = {2 ** doc['level']}")
    if doc["z_len"] < 2:
        raise ValueError(f"{path}: 'z_len' must be >= 2, got {doc['z_len']}")
    return doc


def load_patchset(dirpath) -> PatchSet:
    doc = _load_patchset_doc(os.path.join(dirpath, "patchset.json"))
    sidecar = os.path.join(dirpath, "geometry.npz")
    arrays = load_arrays(sidecar)
    nv = vertex_count(doc["level"])
    positions = checked_array(arrays, sidecar, "positions", (nv, 3), np.float64)
    normals = checked_unit_rows(arrays, sidecar, "normals", nv)
    qs = build_quadsphere(doc["level"])
    pad = doc["pad"]
    graph = build_column_graph(qs, pad)
    z_len = doc["z_len"]
    samples = load_face_grids(lambda f: os.path.join(dirpath, f"patch{f}.svol"),
                              (*graph.shape[1:], z_len))
    return PatchSet(sphere=qs, graph=graph, samples=samples, positions=positions,
                    normals=normals, z_len=z_len, delta=float(doc["delta"]), pad=pad)
