"""Triangle meshes: text I/O, closed genus-0 validation, normals, Taubin
smoothing, and cotangent-Laplacian harmonic mapping to the unit sphere."""
from __future__ import annotations

import math
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


def _write_mesh_records(path, verts, faces) -> None:
    """Write "v x y z" records (%.17g, exact round trip) then 1-based "f"
    records of any width, each block formatted by one % over all values."""
    verts = np.asarray(verts, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    face_fmt = "f" + " %d" * faces.shape[-1] + "\n"
    with open(path, "w") as fh:
        fh.write("v %.17g %.17g %.17g\n" * len(verts) % tuple(verts.ravel().tolist()))
        fh.write(face_fmt * len(faces) % tuple((faces + 1).ravel().tolist()))


def save_mesh(mesh: TriMesh, path) -> None:
    _write_mesh_records(path, mesh.vertices, mesh.faces)


def _parse_mesh_records(path, allow_quads):
    verts, tris, quads = [], [], []
    with open(path, errors="replace") as fh:  # bad bytes fail as bad records
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            where = f"{path}:{ln}"
            if parts[0] == "v":
                if len(parts) != 4:
                    raise MeshError(f"{where}: vertex record needs 3 coordinates")
                try:
                    xyz = [float(x) for x in parts[1:]]
                except ValueError:
                    raise MeshError(f"{where}: vertex coordinate is not a number") from None
                if not all(map(math.isfinite, xyz)):
                    raise MeshError(f"{where}: vertex coordinate is not finite")
                verts.append(xyz)
            elif parts[0] == "f":
                try:
                    idx = [int(x) - 1 for x in parts[1:]]
                except ValueError:
                    raise MeshError(f"{where}: face index is not an integer") from None
                if len(idx) == 3:
                    tris.append(idx)
                elif len(idx) == 4 and allow_quads:
                    quads.append(idx)
                else:
                    raise MeshError(f"{where}: face must have 3 vertices, got {len(idx)}")
            else:
                raise MeshError(f"{where}: unknown record {parts[0]!r}")
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
    """Loader variant for quad-face mesh files (the segmented surface pred.mesh)."""
    verts, tris, quads = _parse_mesh_records(path, allow_quads=True)
    if tris:
        raise MeshError(f"{path}: expected quad faces only")
    return verts, np.asarray(quads, dtype=np.int64).reshape(-1, 4)


def save_quad_mesh_records(path, verts, quads) -> None:
    _write_mesh_records(path, verts, quads)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str]
    n_vertices: int = 0
    n_edges: int = 0
    n_faces: int = 0


def _triple_products(positions, faces) -> np.ndarray:
    """a . (b x c) of each triangle (a, b, c): six times the signed volume
    of its tetrahedron with the origin."""
    a, b, c = (positions[faces[:, k]] for k in range(3))
    return np.einsum("ij,ij->i", a, np.cross(b, c))


def signed_volume(mesh: TriMesh) -> float:
    return float(_triple_products(mesh.vertices, mesh.faces).sum() / 6.0)


def _edge_table(faces, n_vertices):
    """Half-edges and undirected edges of a polygon list (F,k).

    Returns (half, edges, inverse): ``half`` (kF,3) holds ``(a, b, c)`` for
    the side a->b of each face corner, c the corner after b, face by face
    (for triangles c is opposite a->b); ``edges`` (E,2) are the sorted
    unique undirected edges ``(min, max)``; ``inverse`` (kF,) indexes each
    half-edge's undirected edge."""
    half = np.stack([faces, np.roll(faces, -1, axis=1), np.roll(faces, -2, axis=1)],
                    axis=-1).reshape(-1, 3)
    lo = np.minimum(half[:, 0], half[:, 1])
    hi = np.maximum(half[:, 0], half[:, 1])
    keys, inverse = np.unique(lo * n_vertices + hi, return_inverse=True)
    edges = np.stack([keys // n_vertices, keys % n_vertices], axis=1)
    return half, edges, inverse


def _edge_operator(edges, weights, n_vertices):
    """Symmetric (V,V) CSR matrix with ``weights[e]`` at (i,j) and (j,i) of
    each edge (i,j)."""
    from scipy import sparse  # here, so that steps without a mesh operator do not import it

    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sparse.csr_matrix((np.concatenate([weights, weights]), (rows, cols)),
                             shape=(n_vertices, n_vertices))


def validate_closed_genus0(mesh: TriMesh) -> ValidationReport:
    """Closed genus-0 check: 2-manifold edges, consistent orientation,
    connectivity, Euler characteristic 2.  Report lists each violation."""
    V = len(mesh.vertices)
    F = len(mesh.faces)
    if F == 0:
        return ValidationReport(False, ["mesh has no faces"], V, 0, 0)
    if mesh.faces.min() < 0 or mesh.faces.max() >= V:
        return ValidationReport(False, ["face index out of range"], V, 0, F)

    half, edges, inverse = _edge_table(mesh.faces, V)
    degenerate = half[:, 0] == half[:, 1]
    # a directed edge is its undirected edge plus the bit a > b; a repeat of
    # one means two faces traverse an edge the same way
    directed = np.where(degenerate, -1, 2 * inverse + (half[:, 0] > half[:, 1]))
    repeated = ~degenerate
    repeated[np.unique(directed, return_index=True)[1]] = False
    problems = [f"degenerate edge in face {h // 3}" if degenerate[h] else
                f"inconsistent orientation: directed edge ({half[h, 0]},{half[h, 1]}) repeated"
                for h in np.nonzero(degenerate | repeated)[0]]
    # distinct incident faces per edge; degenerate corners add only self-loops
    incident = np.unique((inverse * F + np.arange(3 * F) // 3)[~degenerate]) // F
    counts = np.bincount(incident, minlength=len(edges))[edges[:, 0] != edges[:, 1]]
    if (counts == 1).any():
        problems.append(f"boundary edge: {int((counts == 1).sum())} edges with a single incident face")
    if (counts > 2).any():
        problems.append(f"non-manifold edge: {int((counts > 2).sum())} edges with >2 incident faces")

    from scipy.sparse.csgraph import connected_components

    _, component = connected_components(
        _edge_operator(edges, np.ones(len(edges)), V), directed=False)
    if (component[mesh.faces] != component[mesh.faces[0, 0]]).any():
        problems.append("disconnected: multiple surface components")

    unused = V - len(np.unique(mesh.faces))
    if unused:
        problems.append(f"unreferenced vertex: {unused} vertices used by no face")

    E = len(counts)
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


def taubin_smooth(mesh: TriMesh, iterations: int, lam: float = 0.5,
                  mu_shrink: float = -0.53) -> TriMesh:
    """Alternating lambda/mu uniform-Laplacian smoothing; connectivity kept."""
    V = len(mesh.vertices)
    _, edges, _ = _edge_table(mesh.faces, V)
    adj = _edge_operator(edges, np.ones(len(edges)), V)
    deg = np.maximum(np.asarray(adj.sum(axis=1)), 1)
    verts = mesh.vertices.copy()
    for _ in range(iterations):
        for factor in (lam, mu_shrink):
            verts = verts + factor * (adj @ verts / deg - verts)
    return TriMesh(vertices=verts, faces=mesh.faces.copy())


# ---------------------------------------------------------------------------
# harmonic mapping to the unit sphere


def cotangent_edge_weights(mesh: TriMesh):
    """Per undirected edge: 0.5*(cot alpha + cot beta), negatives clamped to 0.
    Returns (edges (E,2), weights (E,), clamped_count)."""
    half, edges, inverse = _edge_table(mesh.faces, len(mesh.vertices))
    verts = mesh.vertices
    u = verts[half[:, 0]] - verts[half[:, 2]]
    v = verts[half[:, 1]] - verts[half[:, 2]]
    cross = np.linalg.norm(np.cross(u, v), axis=1)
    ok = cross > 1e-300
    cot = np.where(ok, np.einsum("ij,ij->i", u, v) / np.where(ok, cross, 1.0), 0.0)
    weights = np.bincount(inverse, weights=0.5 * cot, minlength=len(edges))
    clamped = int((weights < 0).sum())
    weights = np.maximum(weights, 0.0)
    return edges, weights, clamped


def harmonic_energy(edges, weights, positions) -> float:
    """Sum over the edges (i, j) of weight * |p_i - p_j|^2.

    ``positions`` is (V,3); each coordinate column is gathered with a 1-D
    take, so the transposed view of (3,V) coordinate rows is read in place."""
    i, j = edges.T
    dx, dy, dz = (x.take(i) - x.take(j) for x in np.asarray(positions).T)
    return float((weights * _dot3(dx, dy, dz, dx, dy, dz)).sum())


def _dot3(ax, ay, az, bx, by, bz):
    """Elementwise dot product of two vector fields given as coordinate rows.

    The products are added as (x + z) + y, the order in which numpy's SIMD
    einsum reduces a length-3 dot product, so the map is bit-identical to
    the same loop written with einsum on (V,3) arrays (the test reference)."""
    return (ax * bx + az * bz) + ay * by


def _sphere_flips(positions, faces) -> int:
    return int((_triple_products(positions, faces) <= 0).sum())


def _unit_rows(xyz):
    """(3,V) coordinate rows, each vertex scaled to unit length."""
    x, y, z = xyz
    return xyz / np.sqrt(x * x + y * y + z * z)


def _area_center(xyz, corners):
    """Area-weighted mean of the face centroids.

    ``xyz`` holds the (3,V) coordinate rows and ``corners`` the (3,F) corner
    index rows; the cross product is written out per coordinate.  The
    weighted centroids are added in face order (the last entry of a cumsum),
    as a sum over the rows of an (F,3) array adds them; a pairwise sum would
    move a converged map by up to 1e-14."""
    (ax, bx, cx), (ay, by, cy), (az, bz, cz) = xyz.take(corners, axis=1)
    ux, uy, uz = bx - ax, by - ay, bz - az
    vx, vy, vz = cx - ax, cy - ay, cz - az
    nx = uy * vz - uz * vy
    ny = uz * vx - ux * vz
    nz = ux * vy - uy * vx
    areas = np.sqrt(nx * nx + ny * ny + nz * nz) / 2.0
    centroid = np.stack([ax + bx + cx, ay + by + cy, az + bz + cz]) / 3.0
    return np.cumsum(areas * centroid, axis=1)[:, -1] / areas.sum()


def harmonic_sphere_map(mesh: TriMesh, tol: float = 1e-6, max_iters: int = 5000,
                        damping: float = 0.5) -> SphereMap:
    """Iterative cotangent-Laplacian relaxation on the unit sphere.

    Starts from the centered radial projection; each step applies a damped
    tangential Laplacian displacement, re-projects, and re-centers (subtracts
    the area-weighted center of the map) to prevent Mobius collapse.  Steps
    that would raise the harmonic energy are retried with halved damping so
    the energy trace is non-increasing up to roundoff.

    The loop holds the map as three contiguous (V,) coordinate rows: with a
    few hundred vertices, per-call overhead dominates, and 1-D takes and
    row arithmetic are far cheaper than (V,3) fancy gathers and reductions.
    """
    report = validate_closed_genus0(mesh)
    if not report.ok:
        raise MeshError(f"harmonic_sphere_map requires a closed genus-0 mesh: {report.problems}")
    edges, weights, clamped = cotangent_edge_weights(mesh)
    lap_w = _edge_operator(edges, weights, len(mesh.vertices))
    wsum = np.maximum(np.asarray(lap_w.sum(axis=1)).ravel(), 1e-300)
    corners = np.ascontiguousarray(mesh.faces.T)

    phi = _unit_rows(np.ascontiguousarray((mesh.vertices - mesh.vertices.mean(axis=0)).T))

    energies = [harmonic_energy(edges, weights, phi.T)]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        lap = (lap_w @ phi.T).T / wsum - phi
        tang = lap - _dot3(*lap, *phi) * phi

        prev_e = energies[-1]
        step = damping
        accepted = False
        cand = phi
        for attempt in range(12):
            cand = _unit_rows(phi + step * tang)
            if attempt < 11:
                cand = _unit_rows(cand - _area_center(cand, corners)[:, None])
            e = harmonic_energy(edges, weights, cand.T)
            if e <= prev_e * (1 + 1e-12) + 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:  # line search stalled: not converged
            break
        dx, dy, dz = cand - phi
        disp = np.sqrt(dx * dx + dy * dy + dz * dz).max()
        phi = cand
        energies.append(e)
        if disp < tol:
            converged = True
            break

    positions = np.ascontiguousarray(phi.T)
    flips = _sphere_flips(positions, mesh.faces)
    if flips:
        raise MeshError(f"harmonic map has {flips} flipped spherical triangles")
    return SphereMap(mesh=mesh, positions=positions, iterations=it, converged=converged,
                     energy_trace=np.asarray(energies), clamped_weights=clamped)


# ---------------------------------------------------------------------------
# icosphere construction


def _sphere_midpoints(verts: list):
    """midpoint(i, j) -> index of the unit midpoint of verts[i] and verts[j],
    appended to ``verts`` on the first call for the pair {i, j}."""
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            m /= np.linalg.norm(m)
            cache[key] = len(verts)
            verts.append(m)
        return cache[key]
    return midpoint


def icosphere(subdivisions: int, radius: float = 1.0) -> TriMesh:
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
        midpoint = _sphere_midpoints(verts)
        new_faces = []
        for (i, j, k) in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    return TriMesh(vertices=np.asarray(verts) * radius, faces=np.asarray(faces, dtype=np.int64))
