"""Triangle meshes: text I/O, closed genus-0 validation, normals, Taubin
smoothing, and cotangent-Laplacian harmonic mapping to the unit sphere."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np


class MeshError(ValueError):
    """Malformed mesh file or invalid mesh operation input."""


@dataclass(eq=False)
class TriMesh:
    """Closed triangle surface; faces are CCW seen from outside."""
    vertices: np.ndarray  # (V,3) float64, mm
    faces: np.ndarray     # (F,3) int64

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")


@dataclass(eq=False)
class SphereMap:
    """Per-vertex unit-sphere image of a TriMesh."""
    mesh: TriMesh
    positions: np.ndarray  # (V,3) float64, unit norm
    iterations: int = 0
    converged: bool = False
    energy_trace: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    clamped_weights: int = 0


# ---------------------------------------------------------------------------
# I/O: "v x y z" / "f i j k" records, 1-based indices


def save_mesh(mesh: TriMesh, path) -> None:
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def _parse_mesh_records(path, allow_quads):
    verts, tris, quads = [], [], []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) != 4:
                    raise MeshError(f"{path}:{ln}: vertex record needs 3 coordinates")
                verts.append([float(x) for x in parts[1:]])
            elif parts[0] == "f":
                idx = [int(x) - 1 for x in parts[1:]]
                if len(idx) == 3:
                    tris.append(idx)
                elif len(idx) == 4 and allow_quads:
                    quads.append(idx)
                else:
                    raise MeshError(f"{path}:{ln}: face must have 3 vertices, got {len(idx)}")
            else:
                raise MeshError(f"{path}:{ln}: unknown record {parts[0]!r}")
    verts = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    for fc in tris + quads:
        for i in fc:
            if i < 0 or i >= len(verts):
                raise MeshError(f"{path}: face references vertex {i + 1} of {len(verts)}")
    return verts, tris, quads


def load_mesh(path) -> TriMesh:
    verts, tris, _ = _parse_mesh_records(path, allow_quads=False)
    return TriMesh(vertices=verts, faces=np.asarray(tris, dtype=np.int64).reshape(-1, 3))


def load_quad_mesh_records(path):
    """Loader variant for quad-face mesh files (used by the quadsphere module)."""
    verts, tris, quads = _parse_mesh_records(path, allow_quads=True)
    if tris:
        raise MeshError(f"{path}: expected quad faces only")
    return verts, np.asarray(quads, dtype=np.int64).reshape(-1, 4)


def save_quad_mesh_records(path, verts, quads) -> None:
    with open(path, "w") as fh:
        for v in verts:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in quads:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1} {f[3] + 1}\n")


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str]
    n_vertices: int = 0
    n_edges: int = 0
    n_faces: int = 0


def signed_volume(mesh: TriMesh) -> float:
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def validate_closed_genus0(mesh: TriMesh) -> ValidationReport:
    """Closed genus-0 check: 2-manifold edges, consistent orientation,
    connectivity, Euler characteristic 2.  Report lists each violation."""
    problems = []
    V = len(mesh.vertices)
    F = len(mesh.faces)
    if F == 0:
        return ValidationReport(False, ["mesh has no faces"], V, 0, 0)
    if mesh.faces.min() < 0 or mesh.faces.max() >= V:
        problems.append("face index out of range")
        return ValidationReport(False, problems, V, 0, F)

    directed = {}
    for fi, (i, j, k) in enumerate(mesh.faces):
        for a, b in ((i, j), (j, k), (k, i)):
            if a == b:
                problems.append(f"degenerate edge in face {fi}")
                continue
            if (a, b) in directed:
                problems.append(f"inconsistent orientation: directed edge ({a},{b}) repeated")
            directed[(a, b)] = fi
    undirected = {}
    for (a, b) in directed:
        key = (min(a, b), max(a, b))
        undirected[key] = undirected.get(key, 0) + 1
    boundary = [e for e, cnt in undirected.items() if cnt == 1]
    overfull = [e for e, cnt in undirected.items() if cnt > 2]
    if boundary:
        problems.append(f"boundary edge: {len(boundary)} edges with a single incident face")
    if overfull:
        problems.append(f"non-manifold edge: {len(overfull)} edges with >2 incident faces")

    # connectivity over the vertex graph
    adj = [[] for _ in range(V)]
    for a, b in undirected:
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(V, dtype=bool)
    stack = [int(mesh.faces[0, 0])]
    seen[stack[0]] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    used = np.zeros(V, dtype=bool)
    used[mesh.faces.ravel()] = True
    if not seen[used].all():
        problems.append("disconnected: multiple surface components")

    E = len(undirected)
    euler = V - E + F
    if euler != 2:
        problems.append(f"Euler characteristic V-E+F = {euler}, expected 2")
    if not problems and signed_volume(mesh) <= 0:
        problems.append("inward orientation: signed volume <= 0")
    return ValidationReport(not problems, problems, V, E, F)


# ---------------------------------------------------------------------------
# normals and smoothing


def face_normals_areas(mesh: TriMesh):
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    cr = np.cross(b - a, c - a)
    norm = np.linalg.norm(cr, axis=1)
    return cr, norm / 2.0


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Angle-weighted average of incident face normals, unit length, outward
    under the CCW orientation convention."""
    cr, areas = face_normals_areas(mesh)
    bad = np.nonzero(areas <= 0)[0]
    if bad.size:
        raise MeshError(f"degenerate face {int(bad[0])}: zero area")
    fn = cr / (2.0 * areas[:, None])
    out = np.zeros_like(mesh.vertices)
    verts = mesh.vertices
    for corner in range(3):
        i = mesh.faces[:, corner]
        j = mesh.faces[:, (corner + 1) % 3]
        k = mesh.faces[:, (corner + 2) % 3]
        e1 = verts[j] - verts[i]
        e2 = verts[k] - verts[i]
        cosang = np.einsum("ij,ij->i", e1, e2) / (
            np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1))
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        np.add.at(out, i, fn * ang[:, None])
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms <= 0):
        raise MeshError("vertex with vanishing normal")
    return out / norms[:, None]


def _vertex_adjacency(mesh: TriMesh):
    pairs = set()
    for i, j, k in mesh.faces:
        pairs.add((min(i, j), max(i, j)))
        pairs.add((min(j, k), max(j, k)))
        pairs.add((min(k, i), max(k, i)))
    pairs = np.asarray(sorted(pairs), dtype=np.int64)
    return pairs


def taubin_smooth(mesh: TriMesh, iterations: int, lam: float = 0.5,
                  mu_shrink: float = -0.53) -> TriMesh:
    """Alternating lambda/mu uniform-Laplacian smoothing; connectivity kept."""
    pairs = _vertex_adjacency(mesh)
    V = len(mesh.vertices)
    deg = np.zeros(V)
    np.add.at(deg, pairs[:, 0], 1)
    np.add.at(deg, pairs[:, 1], 1)
    deg = np.maximum(deg, 1)[:, None]
    verts = mesh.vertices.copy()
    for _ in range(iterations):
        for factor in (lam, mu_shrink):
            acc = np.zeros_like(verts)
            np.add.at(acc, pairs[:, 0], verts[pairs[:, 1]])
            np.add.at(acc, pairs[:, 1], verts[pairs[:, 0]])
            verts = verts + factor * (acc / deg - verts)
    return TriMesh(vertices=verts, faces=mesh.faces.copy())


# ---------------------------------------------------------------------------
# harmonic mapping to the unit sphere


def cotangent_edge_weights(mesh: TriMesh):
    """Per undirected edge: 0.5*(cot alpha + cot beta), negatives clamped to 0.
    Returns (edges (E,2), weights (E,), clamped_count)."""
    edge_w = {}
    verts = mesh.vertices
    for (i, j, k) in mesh.faces:
        for (a, b, opp) in ((i, j, k), (j, k, i), (k, i, j)):
            u = verts[a] - verts[opp]
            v = verts[b] - verts[opp]
            cross = np.linalg.norm(np.cross(u, v))
            cot = float(np.dot(u, v) / cross) if cross > 1e-300 else 0.0
            key = (min(a, b), max(a, b))
            edge_w[key] = edge_w.get(key, 0.0) + 0.5 * cot
    edges = np.asarray(sorted(edge_w), dtype=np.int64)
    weights = np.asarray([edge_w[tuple(e)] for e in edges])
    clamped = int((weights < 0).sum())
    weights = np.maximum(weights, 0.0)
    return edges, weights, clamped


def harmonic_energy(edges, weights, positions) -> float:
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    return float((weights * np.einsum("ij,ij->i", d, d)).sum())


def _sphere_flips(positions, faces) -> int:
    a = positions[faces[:, 0]]
    b = positions[faces[:, 1]]
    c = positions[faces[:, 2]]
    trip = np.einsum("ij,ij->i", a, np.cross(b, c))
    return int((trip <= 0).sum())


def _area_center(positions, faces):
    a = positions[faces[:, 0]]
    b = positions[faces[:, 1]]
    c = positions[faces[:, 2]]
    areas = np.linalg.norm(np.cross(b - a, c - a), axis=1) / 2.0
    centroid = (a + b + c) / 3.0
    total = areas.sum()
    return (areas[:, None] * centroid).sum(axis=0) / total


def harmonic_sphere_map(mesh: TriMesh, tol: float = 1e-6, max_iters: int = 5000,
                        damping: float = 0.5) -> SphereMap:
    """Iterative cotangent-Laplacian relaxation on the unit sphere.

    Starts from the centered radial projection; each step applies a damped
    tangential Laplacian displacement, re-projects, and re-centers (subtracts
    the area-weighted center of the map) to prevent Mobius collapse.  Steps
    that would raise the harmonic energy are retried with halved damping so
    the energy trace is non-increasing up to roundoff.
    """
    report = validate_closed_genus0(mesh)
    if not report.ok:
        raise MeshError(f"harmonic_sphere_map requires a closed genus-0 mesh: {report.problems}")
    edges, weights, clamped = cotangent_edge_weights(mesh)
    V = len(mesh.vertices)
    wsum = np.zeros(V)
    np.add.at(wsum, edges[:, 0], weights)
    np.add.at(wsum, edges[:, 1], weights)
    wsum = np.maximum(wsum, 1e-300)[:, None]

    phi = mesh.vertices - mesh.vertices.mean(axis=0)
    phi = phi / np.linalg.norm(phi, axis=1)[:, None]

    energies = [harmonic_energy(edges, weights, phi)]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        acc = np.zeros_like(phi)
        np.add.at(acc, edges[:, 0], weights[:, None] * phi[edges[:, 1]])
        np.add.at(acc, edges[:, 1], weights[:, None] * phi[edges[:, 0]])
        lap = acc / wsum - phi
        tang = lap - np.einsum("ij,ij->i", lap, phi)[:, None] * phi

        prev_e = energies[-1]
        step = damping
        accepted = False
        cand = phi
        for attempt in range(12):
            cand = phi + step * tang
            cand = cand / np.linalg.norm(cand, axis=1)[:, None]
            if attempt < 11:
                center = _area_center(cand, mesh.faces)
                cand = cand - center
                cand = cand / np.linalg.norm(cand, axis=1)[:, None]
            e = harmonic_energy(edges, weights, cand)
            if e <= prev_e * (1 + 1e-12) + 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:  # line search stalled: not converged
            break
        disp = np.linalg.norm(cand - phi, axis=1).max()
        phi = cand
        energies.append(e)
        if disp < tol:
            converged = True
            break

    flips = _sphere_flips(phi, mesh.faces)
    if flips:
        raise MeshError(f"harmonic map has {flips} flipped spherical triangles")
    return SphereMap(mesh=mesh, positions=phi, iterations=it, converged=converged,
                     energy_trace=np.asarray(energies), clamped_weights=clamped)


# ---------------------------------------------------------------------------
# icosphere construction


def icosphere(subdivisions: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Unit icosahedron subdivided ``subdivisions`` times, projected to the
    sphere; 10*4^k + 2 vertices."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.asarray([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        new_faces = []
        for (i, j, k) in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    v = np.asarray(verts) * radius + np.asarray(center)
    return TriMesh(vertices=v, faces=np.asarray(faces, dtype=np.int64))
