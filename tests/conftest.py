import tracemalloc

import numpy as np
import pytest

import surfcrf as sc
from surfcrf import accel, crf
from surfcrf.cli import presegment


def make_pipeline_inputs(seed=0, recursion=4, z_len=32, delta=1.0, pad=3,
                         noise=0.3, blur=1.0, perturb=3.0, subdivisions=3,
                         kind="ellipsoid"):
    """Phantom -> preseg -> sphere map -> quad remesh -> sampled patches."""
    spec = sc.PhantomSpec(kind=kind, semi_axes_mm=(25.0, 22.0, 25.0), radius_mm=24.0,
                          dims=(64, 64, 64), spacing=(1.0, 1.0, 1.0),
                          noise_sigma=noise, blur_sigma_mm=blur, seed=seed,
                          mesh_subdivisions=subdivisions)
    vol, truth = sc.make_phantom(spec)
    labels = sc.phantom_label_volume(spec)
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


def slot_kernel(u, params, ps=None):
    """The slot-grid reference of the pairwise kernel: accel.pairwise_weights
    over every window entry of the (P,H,W) grid, each slot reading its own
    features, kept where crf.window_pair_mask keeps it (the owner rows of
    the pair records).  Returns the masked weights, appearance terms and
    squared feature distances, and the mask."""
    offs = crf.window_offsets(params.window_radius)
    feats = np.ascontiguousarray(crf.kernel_features(u, ps, params), dtype=np.float64)
    mask = crf.window_pair_mask(u.graph, offs)
    terms = accel.pairwise_weights(feats, np.ascontiguousarray(u.graph.valid), offs,
                                   1.0 / (2.0 * params.theta1 ** 2),
                                   1.0 / (2.0 * params.theta2 ** 2),
                                   1.0 / (2.0 * params.theta3 ** 2), params.w1)
    return (*(np.where(mask, t, 0.0) for t in terms), mask)


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
