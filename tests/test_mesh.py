import math
import os
import re
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import surfcrf as sc
from surfcrf import mesh as mesh_mod
from surfcrf.cli import perturb_mesh_radially, presegment
from surfcrf.mesh import (MeshError, cotangent_edge_weights, load_quad_mesh_records,
                          signed_volume)

from conftest import cube_mesh, stretched_noisy_icosphere, tetrahedron


# ---------------------------------------------------------------------------
# scalar references: one face corner or one edge at a time


def ref_cotangent_edge_weights(mesh):
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
    return edges, np.maximum(weights, 0.0), clamped


def ref_taubin_smooth(mesh, iterations, lam=0.5, mu_shrink=-0.53):
    pairs = set()
    for i, j, k in mesh.faces:
        pairs.update({(min(i, j), max(i, j)), (min(j, k), max(j, k)), (min(k, i), max(k, i))})
    pairs = np.asarray(sorted(pairs), dtype=np.int64)
    deg = np.zeros(len(mesh.vertices))
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
    return verts


def ref_harmonic_sphere_map(mesh, tol=1e-6, max_iters=5000, damping=0.5):
    """The sphere-map loop on (V,3) positions, with a fancy-indexed energy and
    area-weighted recentering; returns (positions, iterations, converged,
    energy trace, clamped count)."""
    edges, weights, clamped = cotangent_edge_weights(mesh)
    lap_w = mesh_mod._edge_operator(edges, weights, len(mesh.vertices))
    wsum = np.maximum(np.asarray(lap_w.sum(axis=1)), 1e-300)

    def energy(pos):
        d = pos[edges[:, 0]] - pos[edges[:, 1]]
        return float((weights * np.einsum("ij,ij->i", d, d)).sum())

    def area_center(pos):
        a, b, c = (pos[mesh.faces[:, k]] for k in range(3))
        areas = np.linalg.norm(np.cross(b - a, c - a), axis=1) / 2.0
        return (areas[:, None] * ((a + b + c) / 3.0)).sum(axis=0) / areas.sum()

    phi = mesh.vertices - mesh.vertices.mean(axis=0)
    phi = phi / np.linalg.norm(phi, axis=1)[:, None]
    energies = [energy(phi)]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        lap = lap_w @ phi / wsum - phi
        tang = lap - np.einsum("ij,ij->i", lap, phi)[:, None] * phi
        step = damping
        accepted = False
        for attempt in range(12):
            cand = phi + step * tang
            cand = cand / np.linalg.norm(cand, axis=1)[:, None]
            if attempt < 11:
                cand = cand - area_center(cand)
                cand = cand / np.linalg.norm(cand, axis=1)[:, None]
            e = energy(cand)
            if e <= energies[-1] * (1 + 1e-12) + 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        disp = np.linalg.norm(cand - phi, axis=1).max()
        phi = cand
        energies.append(e)
        if disp < tol:
            converged = True
            break
    return phi, it, converged, np.asarray(energies), clamped


def ref_write_mesh_records(path, verts, faces):
    """The record writer as one f-string per vertex and face."""
    with open(path, "w") as fh:
        for v in verts:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in faces:
            fh.write("f " + " ".join(f"{i + 1}" for i in f) + "\n")


def torus(n=8, m=6, big=3.0, small=1.0):
    """Closed genus-1 surface: an n x m grid of quads, each split in two."""
    i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    u, v = 2 * np.pi * i / n, 2 * np.pi * j / m
    ring = big + small * np.cos(v)
    verts = np.stack([ring * np.cos(u), ring * np.sin(u), small * np.sin(v)], -1)
    a = (i * m + j).ravel()
    b = ((i + 1) % n * m + j).ravel()
    c = ((i + 1) % n * m + (j + 1) % m).ravel()
    d = (i * m + (j + 1) % m).ravel()
    faces = np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, d], 1)])
    return sc.TriMesh(vertices=verts.reshape(-1, 3), faces=faces)


REFERENCE_MESHES = [pytest.param(sc.icosphere(2), id="icosphere2"),
                    pytest.param(stretched_noisy_icosphere(), id="stretched")]

_ICO3 = sc.icosphere(3)
_ELLIPSOID = sc.TriMesh(vertices=_ICO3.vertices * np.array([25.0, 22.0, 25.0]), faces=_ICO3.faces)
SPHERE_MAP_MESHES = [pytest.param(_ICO3, id="icosphere3"),
                     pytest.param(_ELLIPSOID, id="ellipsoid"),
                     pytest.param(stretched_noisy_icosphere(), id="stretched"),
                     pytest.param(perturb_mesh_radially(_ELLIPSOID, 3.0, 1000), id="preseg")]

# loader fuzz: a well-formed file, then up to two inserted lines, each a bad
# number, a wrong count, an out-of-range index, a comment or free text
_INSERTS = st.sampled_from(["v 0 0 abc", "v nan 0 0", "v 1e999 0 0", "v -inf 1 2", "v 1 2",
                            "v 1 2 3 4", "f 1/1 2 3", "f 0 1 2", "f 1 2 99", "f -1 2 3",
                            "f 1 2", "f 1 2 3", "f 1 2 3 4", "f 1 2 3 4 5", "x 1 2 3",
                            "# comment", ""]) | st.text(string.printable, max_size=12)


@st.composite
def mesh_records(draw):
    quads = draw(st.booleans())
    n = draw(st.integers(0, 6))
    coords = st.floats(-1e3, 1e3).map(repr)
    lines = ["v " + " ".join(draw(st.lists(coords, min_size=3, max_size=3)))
             for _ in range(n)]
    if n:
        index = st.integers(1, n).map(str)
        lines += ["f " + " ".join(draw(st.lists(index, min_size=4 if quads else 3,
                                                max_size=4 if quads else 3)))
                  for _ in range(draw(st.integers(0, 4)))]
    for line in draw(st.lists(_INSERTS, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines, quads


class TestMeshIO:
    def test_tetrahedron_round_trip(self, tmp_path):
        tet = tetrahedron()
        path = tmp_path / "tet.mesh"
        sc.save_mesh(tet, path)
        back = sc.load_mesh(path)
        assert np.array_equal(back.faces, tet.faces)
        assert np.array_equal(back.vertices, tet.vertices)

    def test_icosphere_round_trip_precision(self, tmp_path):
        ico = sc.icosphere(3)
        path = tmp_path / "ico.mesh"
        sc.save_mesh(ico, path)
        back = sc.load_mesh(path)
        assert np.abs(back.vertices - ico.vertices).max() <= 1e-6

    def test_writer_matches_fstring_reference(self, tmp_path):
        # -0.0, tiny and huge coordinates must format as the reference does
        tet = tetrahedron()
        tet.vertices[0] = (-0.0, 1e-300, 1e300)
        tet.vertices[1, 0] = -1e-300
        sc.save_mesh(tet, tmp_path / "tri.mesh")
        ref_write_mesh_records(tmp_path / "tri.ref", tet.vertices, tet.faces)
        assert (tmp_path / "tri.mesh").read_bytes() == (tmp_path / "tri.ref").read_bytes()
        qs = sc.build_quadsphere(2)
        verts = qs.vertices * 12.3456789 - 1e-7
        verts[0] = (-0.0, 1e300, -1e-300)
        mesh_mod.save_quad_mesh_records(tmp_path / "quad.mesh", verts, qs.faces)
        ref_write_mesh_records(tmp_path / "quad.ref", verts, qs.faces)
        assert (tmp_path / "quad.mesh").read_bytes() == (tmp_path / "quad.ref").read_bytes()
        back, quads = load_quad_mesh_records(tmp_path / "quad.mesh")
        assert np.array_equal(back, verts) and np.array_equal(quads, qs.faces)

    def test_out_of_range_face_index(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 100\n")
        with pytest.raises(MeshError, match="vertex 100"):
            sc.load_mesh(path)

    def test_non_triangle_face_rejected(self, tmp_path):
        path = tmp_path / "quad.mesh"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshError, match="3 vertices"):
            sc.load_mesh(path)

    @pytest.mark.parametrize("record, why", [
        (b"v 0 0 abc", "vertex coordinate is not a number"),
        (b"f 1/1 2 3", "face index is not an integer"),
        (b"v nan 0 0", "vertex coordinate is not finite"),
        (b"v 1e999 0 0", "vertex coordinate is not finite"),
        (b"v 0 0 \xff", "vertex coordinate is not a number"),
    ])
    def test_bad_number_names_file_and_line(self, tmp_path, record, why):
        path = tmp_path / "bad.mesh"
        path.write_bytes(b"v 0 0 0\nv 1 0 0\nv 0 1 0\n" + record + b"\n")
        with pytest.raises(MeshError, match=re.escape(f"{path}:4: {why}")):
            sc.load_mesh(path)

    @settings(max_examples=300, deadline=None)
    @given(records=mesh_records())
    def test_fuzzed_records_load_or_raise_naming_file(self, records):
        lines, quads = records
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "f.mesh")
            with open(path, "w") as fh:
                fh.write("\n".join(lines))
            try:
                if quads:
                    verts, faces = load_quad_mesh_records(path)
                else:
                    tri = sc.load_mesh(path)
                    verts, faces = tri.vertices, tri.faces
            except MeshError as err:
                assert path in str(err)
                return
        assert verts.shape[1] == 3 and np.isfinite(verts).all()
        assert faces.shape[1] == (4 if quads else 3)
        assert faces.size == 0 or (faces.min() >= 0 and faces.max() < len(verts))


class TestValidate:
    def test_icosahedron_passes(self):
        ico = sc.icosphere(0)
        report = sc.validate_closed_genus0(ico)
        assert report.ok
        assert (report.n_vertices, report.n_edges, report.n_faces) == (12, 30, 20)

    def test_missing_face_is_boundary(self):
        ico = sc.icosphere(0)
        broken = sc.TriMesh(vertices=ico.vertices, faces=ico.faces[:-1])
        report = sc.validate_closed_genus0(broken)
        assert not report.ok
        assert any("boundary edge" in p for p in report.problems)

    def test_disjoint_components(self):
        a = tetrahedron()
        b = tetrahedron()
        verts = np.concatenate([a.vertices, b.vertices + 10.0])
        faces = np.concatenate([a.faces, b.faces + 4])
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=verts, faces=faces))
        assert not report.ok
        assert any("disconnected" in p for p in report.problems)

    def test_inconsistent_orientation(self):
        ico = sc.icosphere(0)
        faces = ico.faces.copy()
        faces[0] = faces[0][::-1]
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=ico.vertices, faces=faces))
        assert not report.ok
        assert any("orientation" in p for p in report.problems)

    def test_degenerate_edge(self):
        ico = sc.icosphere(0)
        faces = ico.faces.copy()
        faces[3, 2] = faces[3, 1]  # (0, 7, 7): its edge (0, 7) is also traversed as 7 -> 0
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=ico.vertices, faces=faces))
        assert report.problems == [
            "degenerate edge in face 3",
            "inconsistent orientation: directed edge (7,0) repeated",
            "boundary edge: 2 edges with a single incident face"]
        assert (report.n_vertices, report.n_edges, report.n_faces) == (12, 30, 20)

    def test_non_manifold_edge(self):
        # a fin face on the icosahedron edge (0, 11) gives it three incident faces
        ico = sc.icosphere(0)
        verts = np.concatenate([ico.vertices, [[-2.0, 2.0, 0.0]]])
        faces = np.concatenate([ico.faces, [[0, 11, 12]]])
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=verts, faces=faces))
        assert report.problems == [
            "inconsistent orientation: directed edge (0,11) repeated",
            "boundary edge: 2 edges with a single incident face",
            "non-manifold edge: 1 edges with >2 incident faces"]
        assert (report.n_vertices, report.n_edges, report.n_faces) == (13, 32, 21)

    def test_torus_euler_characteristic(self):
        report = sc.validate_closed_genus0(torus())
        assert report.problems == ["Euler characteristic V-E+F = 0, expected 2"]
        assert (report.n_vertices, report.n_edges, report.n_faces) == (48, 144, 96)

    def test_inward_orientation(self):
        ico = sc.icosphere(1)
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=ico.vertices,
                                                      faces=ico.faces[:, ::-1]))
        assert report.problems == ["inward orientation: signed volume <= 0"]
        assert (report.n_vertices, report.n_edges, report.n_faces) == (42, 120, 80)

    def test_unreferenced_vertex(self):
        ico = sc.icosphere(1)
        verts = np.concatenate([ico.vertices, [[5.0, 0.0, 0.0]]])
        report = sc.validate_closed_genus0(sc.TriMesh(vertices=verts, faces=ico.faces))
        assert report.problems == [
            "unreferenced vertex: 1 vertices used by no face",
            "Euler characteristic V-E+F = 3, expected 2"]
        assert (report.n_vertices, report.n_edges, report.n_faces) == (43, 120, 80)

    def test_invariant_under_vertex_permutation(self):
        rng = np.random.default_rng(0)
        ico = sc.icosphere(1)
        perm = rng.permutation(len(ico.vertices))
        inv = np.argsort(perm)
        permuted = sc.TriMesh(vertices=ico.vertices[perm], faces=inv[ico.faces])
        assert sc.validate_closed_genus0(permuted).ok


class TestVertexNormals:
    def test_icosphere_radial(self):
        # angle-weighted normals approach the radial direction as the mesh refines
        ico = sc.icosphere(6)
        n = sc.vertex_normals(ico)
        assert np.abs(n - ico.vertices).max() <= 1e-3
        coarse = sc.icosphere(3)
        nc = sc.vertex_normals(coarse)
        assert np.abs(nc - coarse.vertices).max() <= 5e-3

    def test_cube_corner(self):
        cube = cube_mesh()
        n = sc.vertex_normals(cube)
        expect = cube.vertices / np.linalg.norm(cube.vertices, axis=1)[:, None]
        assert np.allclose(np.abs(n), 1 / np.sqrt(3), atol=1e-12)
        assert np.allclose(n, expect, atol=1e-12)

    def test_flipped_orientation_negates(self):
        ico = sc.icosphere(2)
        n = sc.vertex_normals(ico)
        flipped = sc.TriMesh(vertices=ico.vertices, faces=ico.faces[:, ::-1])
        assert np.allclose(sc.vertex_normals(flipped), -n, atol=1e-12)

    def test_degenerate_face_error(self):
        verts = np.asarray([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]], float)
        faces = np.asarray([[0, 1, 2], [0, 1, 1]])
        with pytest.raises(MeshError, match="degenerate face 1"):
            sc.vertex_normals(sc.TriMesh(vertices=verts, faces=faces))


class TestTaubin:
    def test_zero_iterations_identity(self):
        ico = sc.icosphere(2)
        out = sc.taubin_smooth(ico, 0)
        assert np.array_equal(out.vertices, ico.vertices)

    def test_sphere_radius_stable(self):
        ico = sc.icosphere(3, radius=10.0)
        out = sc.taubin_smooth(ico, 10, lam=0.5, mu_shrink=-0.53)
        r0 = np.linalg.norm(ico.vertices, axis=1).mean()
        r1 = np.linalg.norm(out.vertices, axis=1).mean()
        assert abs(r1 - r0) / r0 < 0.01

    def test_noisy_sphere_variance_decreases(self):
        rng = np.random.default_rng(6)
        ico = sc.icosphere(3)
        r_noisy = 1.0 + 0.05 * rng.standard_normal(len(ico.vertices))
        noisy = sc.TriMesh(vertices=ico.vertices * r_noisy[:, None], faces=ico.faces)
        out = sc.taubin_smooth(noisy, 5)
        var0 = np.linalg.norm(noisy.vertices, axis=1).var()
        var1 = np.linalg.norm(out.vertices, axis=1).var()
        assert var1 < var0

    def test_connectivity_unchanged(self):
        ico = sc.icosphere(2)
        out = sc.taubin_smooth(ico, 3)
        assert np.array_equal(out.faces, ico.faces)

    @pytest.mark.parametrize("mesh", REFERENCE_MESHES)
    def test_matches_reference(self, mesh):
        out = sc.taubin_smooth(mesh, 5)
        assert np.abs(out.vertices - ref_taubin_smooth(mesh, 5)).max() <= 1e-12

    def test_presegment_without_perturbation_is_the_smoothed_mesh(self):
        # at amplitude 0 the field is +-0.0 and each vertex is rebuilt
        # exactly from its centre offset, radius and direction
        smooth = sc.taubin_smooth(_ELLIPSOID, 10).vertices
        c = smooth.mean(axis=0)
        r = np.linalg.norm(smooth - c, axis=1)[:, None]
        pre = presegment(_ELLIPSOID, 0.0, 0).vertices
        assert np.array_equal(pre, c + r * ((smooth - c) / r))
        assert np.abs(pre - smooth).max() <= 1e-12


class TestHarmonicMap:
    def test_icosphere_fixed_point(self):
        ico = sc.icosphere(3)
        smap = sc.harmonic_sphere_map(ico)
        assert np.abs(smap.positions - ico.vertices).max() <= 1e-3
        assert smap.converged

    def test_line_search_stall_is_not_converged(self, monkeypatch):
        # an energy that rises on every call rejects all 12 halvings of the
        # first step, so the map stalls at its start
        calls = iter(range(10 ** 6))
        monkeypatch.setattr(mesh_mod, "harmonic_energy",
                            lambda edges, weights, phi: float(next(calls)))
        smap = sc.harmonic_sphere_map(sc.icosphere(2))
        assert smap.iterations == 1
        assert len(smap.energy_trace) == 1
        assert not smap.converged

    def test_ellipsoid_invariants(self):
        ico = sc.icosphere(3)
        ell = sc.TriMesh(vertices=ico.vertices * np.array([25.0, 22.0, 25.0]),
                         faces=ico.faces)
        smap = sc.harmonic_sphere_map(ell)
        norms = np.linalg.norm(smap.positions, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6
        a = smap.positions[ell.faces[:, 0]]
        b = smap.positions[ell.faces[:, 1]]
        c = smap.positions[ell.faces[:, 2]]
        trip = np.einsum("ij,ij->i", a, np.cross(b, c))
        assert (trip > 0).all()

    def test_energy_non_increasing(self):
        ico = sc.icosphere(3)
        bumpy = sc.TriMesh(
            vertices=ico.vertices * (1.0 + 0.1 * np.sin(3 * ico.vertices[:, 0]))[:, None],
            faces=ico.faces)
        smap = sc.harmonic_sphere_map(bumpy)
        diffs = np.diff(smap.energy_trace)
        assert (diffs <= 1e-9).all()

    def test_rejects_open_mesh(self):
        ico = sc.icosphere(1)
        broken = sc.TriMesh(vertices=ico.vertices, faces=ico.faces[:-1])
        with pytest.raises(MeshError, match="genus-0"):
            sc.harmonic_sphere_map(broken)

    def test_damping_must_be_positive(self):
        # at damping 0 no step moves the map, so the max-displacement stop
        # claimed convergence after one iteration from the radial start
        ico = sc.icosphere(2)
        stretched = sc.TriMesh(vertices=ico.vertices * np.array([30.0, 20.0, 10.0]),
                               faces=ico.faces)
        for damping in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="^damping must be a finite number > 0"):
                sc.harmonic_sphere_map(stretched, damping=damping)

    def test_cotangent_weights_positive_on_sphere(self):
        ico = sc.icosphere(2)
        edges, weights, clamped = cotangent_edge_weights(ico)
        assert clamped == 0
        assert (weights > 0).all()
        assert len(edges) == 480  # E = 30 * 4^2 for subdivided icosahedron

    def test_energy_decreases_from_start(self):
        ico = sc.icosphere(2)
        ell = sc.TriMesh(vertices=ico.vertices * np.array([2.0, 1.0, 1.0]), faces=ico.faces)
        smap = sc.harmonic_sphere_map(ell)
        assert smap.energy_trace[-1] < smap.energy_trace[0]


@pytest.mark.parametrize("mesh", SPHERE_MAP_MESHES)
def test_sphere_map_matches_reference(mesh):
    smap = sc.harmonic_sphere_map(mesh)
    positions, iterations, converged, energies, clamped = ref_harmonic_sphere_map(mesh)
    assert (smap.iterations, smap.converged, smap.clamped_weights) == \
        (iterations, converged, clamped)
    assert smap.energy_trace.shape == energies.shape
    assert np.abs(smap.energy_trace - energies).max() <= 1e-13 * np.abs(energies).max()
    assert np.abs(smap.positions - positions).max() <= 1e-14


def test_signed_volume_cube():
    cube = cube_mesh(side=2.0)
    assert signed_volume(cube) == pytest.approx(8.0, rel=1e-12)


def test_cotangent_clamping_recorded():
    # negative cotangents are clamped and the count is reported on the map
    edges, weights, clamped = cotangent_edge_weights(stretched_noisy_icosphere())
    assert clamped > 0
    assert (weights >= 0).all()


@pytest.mark.parametrize("mesh", REFERENCE_MESHES)
def test_cotangent_weights_match_reference(mesh):
    edges, weights, clamped = cotangent_edge_weights(mesh)
    ref_edges, ref_weights, ref_clamped = ref_cotangent_edge_weights(mesh)
    assert np.array_equal(edges, ref_edges)
    assert clamped == ref_clamped
    assert np.abs(weights - ref_weights).max() <= 1e-14 * np.abs(ref_weights).max()
