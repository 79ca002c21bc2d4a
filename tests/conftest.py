import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import surfcrf as sc
from surfcrf import crf
from surfcrf.cli import presegment


def make_pipeline_inputs(seed=0, recursion=4, z_len=32, delta=1.0, pad=3,
                         noise=0.3, blur=1.0, perturb=3.0, subdivisions=3,
                         kind="ellipsoid"):
    """Phantom -> preseg -> sphere map -> quad remesh -> sampled patches."""
    spec = sc.PhantomSpec(kind=kind, semi_axes_mm=(25.0, 22.0, 25.0), radius_mm=24.0,
                          dims=(64, 64, 64), spacing=(1.0, 1.0, 1.0),
                          noise_sigma=noise, blur_sigma_mm=blur, seed=seed,
                          mesh_subdivisions=subdivisions)
    vol, labels, truth = sc.make_phantom(spec)
    pre = presegment(truth, perturb, seed)
    smap = sc.harmonic_sphere_map(pre)
    qm = sc.remesh(pre, smap, sc.build_quadsphere(recursion))
    ps = sc.sample_columns(vol, qm, z_len=z_len, delta=delta, pad=pad)
    gt = sc.ground_truth(qm, truth, z_len, delta)
    return dict(spec=spec, vol=vol, truth=truth, labels=labels, pre=pre,
                smap=smap, qm=qm, ps=ps, gt=gt)


def traced_peak_mib(fn, *args):
    """(fn(*args), the peak of the memory traced while it ran, in MiB).
    numpy reports its buffers to tracemalloc, so the peak counts every
    array fn allocates, its result included."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2 ** 20


def owned_mask(graph):
    """(P,H,W) bool: True at the owning slot of each vertex."""
    out = np.zeros(graph.gid.size, dtype=bool)
    out[graph.owner] = True
    return out.reshape(graph.shape)


def record_kernel(u, params, ps=None):
    """The reference kernel of u's CRF neighbour records, per record (i, j, k)
    in record order: d2 of window offset k, fd = sum_z (f_i - f_j)^2 on the
    merged features f, app = exp(-d2/(2 theta1^2) - fd/(2 theta2^2)),
    sm = exp(-d2/(2 theta3^2)) and w = app + w1 * sm, with np.exp taken over
    the record arrays so that w can equal W.data bit for bit."""
    graph = u.graph
    edges = crf._cached_pair_edges(graph, params.window_radius)
    rows = np.repeat(np.arange(graph.n_vertices), np.diff(edges.indptr))
    if params.kernel_variant == "probability":
        f = crf.softmax(graph.merge(u.logits))
    else:
        f = graph.merge(ps.samples).astype(np.float64)
    diff = f[rows] - f[edges.cols]
    fd = (diff * diff).sum(axis=-1)
    dy, dx = crf.window_offsets(params.window_radius)[edges.k].T
    d2 = (dy * dy + dx * dx).astype(np.float64)
    it1, it2, it3 = (1.0 / (2.0 * t ** 2) for t in (params.theta1, params.theta2, params.theta3))
    app = np.exp(-d2 * it1 - fd * it2)
    sm = np.exp(-d2 * it3)
    return SimpleNamespace(rows=rows, cols=edges.cols, indptr=edges.indptr,
                           d2=d2, fd=fd, app=app, sm=sm, w=app + params.w1 * sm)


def record_message_pass(rec, q):
    """out[i] = sum over row i's records (i, j), in record order, of
    w_e * q[j]: each row's terms added one at a time from 0, as a CSR
    product adds them, all rows at once per position in the row."""
    out = np.zeros_like(q)
    start, count = rec.indptr[:-1], np.diff(rec.indptr)
    for t in range(count.max(initial=0)):
        i = np.flatnonzero(count > t)
        e = start[i] + t
        out[i] += rec.w[e, None] * q[rec.cols[e]]
    return out


@pytest.fixture(scope="session")
def ellipsoid_run():
    """One shared mid-size pipeline run (seed 0, r=4)."""
    return make_pipeline_inputs()


def tetrahedron():
    verts = np.asarray([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    faces = np.asarray([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return sc.TriMesh(vertices=verts, faces=faces)


def cube_mesh(side=2.0, center=(0.0, 0.0, 0.0)):
    """Axis-aligned cube, each face split into two triangles, outward CCW."""
    s = side / 2.0
    corners = np.asarray([[x, y, z] for x in (-s, s) for y in (-s, s) for z in (-s, s)])
    corners = corners + np.asarray(center)
    quads = [
        (4, 6, 7, 5),  # +x
        (0, 1, 3, 2),  # -x
        (2, 3, 7, 6),  # +y
        (0, 4, 5, 1),  # -y
        (1, 5, 7, 3),  # +z
        (0, 2, 6, 4),  # -z
    ]
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return sc.TriMesh(vertices=corners, faces=np.asarray(faces))


def stretched_noisy_icosphere():
    """A badly stretched mesh: its obtuse triangles give negative cotangents."""
    rng = np.random.default_rng(7)
    ico = sc.icosphere(2)
    stretched = ico.vertices * np.array([30.0, 3.0, 30.0])
    stretched += rng.normal(0, 0.4, stretched.shape)
    return sc.TriMesh(vertices=stretched, faces=ico.faces)
