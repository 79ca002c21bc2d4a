"""Per-layer probes for the traced run.

Each probe calls one public surfcrf function on the inputs of an operation
that has just run, in a span of its own marked as a probe.  Functions that
the library only reaches from inside another public function (the pair mask
inside compute_kernel, point location inside remesh, the surface sampling
and KD queries inside compare_surfaces, every accel kernel) get a probe of
their own, so each layer is timed without instrumenting the library.
"""
from __future__ import annotations

import json
import os

import numpy as np

from surfcrf import accel, crf, train
from surfcrf.mesh import harmonic_sphere_map, load_mesh, load_quad_mesh_records
from surfcrf.metrics import _as_triangles, compare_surfaces, hd, sample_surface, voxelize
from surfcrf.patches import (GroundTruth, ground_truth, load_patchset, sample_columns,
                             save_patchset)
from surfcrf.quadsphere import _location_tables, build_quadsphere, locate_on_sphere, remesh
from surfcrf.volume import PhantomSpec, load_svol, make_phantom, save_svol


def tree_bytes(path) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def step_bytes(outdir, step) -> int:
    """Bytes a cli step wrote: its provenance record plus every output it lists."""
    prov = os.path.join(outdir, f"{step}.prov.json")
    with open(prov) as fh:
        outputs = json.load(fh)["outputs"]
    return tree_bytes(prov) + sum(tree_bytes(os.path.join(outdir, o)) for o in outputs)


def probe_case(tr, case_dir, cfg, scratch, case):
    """Every layer below cli, on the inputs and outputs of one finished
    `surfcrf pipeline` case directory."""
    def probe(name):
        return tr.span(name, case=case, probe=True)

    def path(name):
        return os.path.join(case_dir, name)

    with open(path("phantom.spec.json")) as fh:
        spec = PhantomSpec.from_json(fh.read())
    with probe("volume.make_phantom"):
        make_phantom(spec)
    with probe("volume.svol_io"):
        vol = load_svol(path("volume.svol"))
        save_svol(vol, os.path.join(scratch, "volume.svol"))
    pre = load_mesh(path("preseg.mesh"))
    truth = load_mesh(path("truth.mesh"))

    s = cfg["spheremap"]
    with probe("mesh.harmonic_sphere_map"):
        smap = harmonic_sphere_map(pre, tol=s["tol"], max_iters=s["max_iters"],
                                   damping=s["damping"])
    tr.count("mesh.spheremap_iters", smap.iterations, case)
    tr.count("mesh.spheremap_converged_frac", float(smap.converged), case)

    with probe("quadsphere.build_quadsphere"):
        qs = build_quadsphere(cfg["quad"]["recursion"])
    with probe("quadsphere.remesh"):
        qm = remesh(pre, smap, qs)
    with probe("quadsphere.locate_on_sphere"):
        locate_on_sphere(qs.vertices, smap)

    pc = cfg["patches"]
    with probe("patches.sample_columns"):
        ps = sample_columns(vol, qm, z_len=pc["column_len"], delta=pc["column_res_mm"],
                            pad=pc["pad"])
    with probe("patches.ground_truth"):
        gt = ground_truth(qm, truth, pc["column_len"], pc["column_res_mm"])
    tr.count("patches.gt_valid_frac", float(gt.valid.mean()), case)

    origin = np.asarray(vol.origin, dtype=np.float64)
    spacing = np.asarray(vol.spacing, dtype=np.float64)
    with probe("accel.trilinear_gather"):
        accel.trilinear_gather(vol.data, origin, spacing, ps.column_points().reshape(-1, 3))
    tables = _location_tables(smap)
    with probe("accel.locate_points"):
        accel.locate_points(*tables, qs.vertices)
    with probe("accel.raycast_min_abs_t"):
        accel.raycast_min_abs_t(truth.vertices, truth.faces, qm.positions, qm.normals)
    tr.count("accel.raycast_ray_face_pairs", len(qm.positions) * len(truth.faces), case,
             computed=True)

    probe_crf(tr, case_dir, cfg, scratch, case)
    probe_metrics(tr, case_dir, vol, truth, case)


def probe_crf(tr, case_dir, cfg, scratch, case):
    """Patch-set I/O, the unary, the kernel build, the pair mask, mean-field
    inference and each of its iterations, and the CRF's accel kernels, for
    the CRF settings in ``cfg``."""
    def probe(name):
        return tr.span(name, case=case, probe=True)

    patches = os.path.join(case_dir, "patches")
    with probe("patches.patchset_io"):
        ps = load_patchset(patches)
        save_patchset(ps, os.path.join(scratch, "patches"))
    tr.count("patches.patchset_bytes", tree_bytes(patches), case)

    un = cfg["unary"]
    params = crf.CrfParams(**cfg["crf"])
    with probe("crf.gradient_unary"):
        u0 = crf.gradient_unary(ps, polarity=un["polarity"])
    u = crf.unary_from_logits(ps.graph, un["scale"] * u0.logits)
    with probe("crf.compute_kernel"):
        kf = crf.compute_kernel(u, params, ps=ps)
    with probe("crf.window_pair_mask"):
        mask = crf.window_pair_mask(ps.graph, kf.offsets)
    tr.count("crf.pairs", int(mask.sum()), case)
    with probe("crf.meanfield_infer"):
        crf.meanfield_infer(u, params, ps=ps)
    # the iterations of meanfield_infer, one span each, from crf's public steps
    q = crf.softmax(u.logits)
    for _ in range(params.iterations):
        with probe("crf.meanfield_iter"):
            q_tilde = crf.message_pass(crf.refresh_duplicates(q, ps.graph), kf)
            q_hat = crf.compat_transform(q_tilde, params.theta_comp)
            q = crf.softmax(u.logits - params.w_p * q_hat)

    features = np.ascontiguousarray(crf.kernel_features(u, ps, params), dtype=np.float64)
    with probe("accel.pairwise_weights"):
        accel.pairwise_weights(features, np.ascontiguousarray(ps.graph.valid), kf.offsets,
                               1.0 / (2.0 * params.theta1 ** 2),
                               1.0 / (2.0 * params.theta2 ** 2),
                               1.0 / (2.0 * params.theta3 ** 2), params.w1)
    with probe("accel.window_sum"):
        accel.window_sum(q, kf.weights, kf.offsets)
    tr.count("accel.window_sum_pair_updates", q.size * len(kf.offsets), case, computed=True)
    with probe("accel.window_sum_adjoint"):
        accel.window_sum_adjoint(q, kf.weights, kf.offsets)
    with probe("accel.window_weight_grad"):
        accel.window_weight_grad(q, q, kf.offsets)


def probe_metrics(tr, case_dir, template, truth, case):
    """voxelize, surface sampling, the KD distance queries and the whole
    compare_surfaces, on the case's predicted surface."""
    def probe(name):
        return tr.span(name, case=case, probe=True)

    pred_verts, pred_faces = load_quad_mesh_records(os.path.join(case_dir, "pred.mesh"))
    labels = load_svol(os.path.join(case_dir, "labels.svol"))
    with probe("metrics.voxelize"):
        voxelize(pred_verts, pred_faces, template)
    max_edge = 0.5 * min(template.spacing)
    with probe("metrics.sample_surface"):
        s_pred = sample_surface(pred_verts, pred_faces, max_edge)
        s_truth = sample_surface(truth.vertices, truth.faces, max_edge)
    tr.count("metrics.surface_samples", len(s_pred) + len(s_truth), case)
    with probe("metrics.surface_distance"):
        hd(s_pred, s_truth)
    with probe("metrics.compare_surfaces"):
        rep = compare_surfaces(pred_verts, pred_faces, truth.vertices, truth.faces,
                               template, labels=labels)
    tr.count("metrics.dsc", rep.dsc, case)
    tr.count("metrics.asd_mm", rep.asd_mm, case)
    tr.count("metrics.hd_mm", rep.hd_mm, case)
    tri_xyz = np.asarray(pred_verts, dtype=np.float64)[_as_triangles(pred_faces)]
    with probe("accel.parity_diff"):
        accel.parity_diff(tri_xyz, np.asarray(template.origin, dtype=np.float64),
                          np.asarray(template.spacing, dtype=np.float64), template.dims)


def probe_fit(tr, manifest, cfg, case):
    """The stop-gradient kernel statistics and one reverse-mode mean-field
    gradient per instance of a fit manifest, at the config's scalars."""
    def probe(name):
        return tr.span(name, case=case, probe=True)

    with open(manifest) as fh:
        runs = json.load(fh)["runs"]
    params = crf.CrfParams(**cfg["crf"])
    scale = cfg["unary"]["scale"]
    for run_dir in runs:
        ps = load_patchset(os.path.join(run_dir, "patches"))
        u = crf.gradient_unary(ps, polarity=cfg["unary"]["polarity"])
        with open(os.path.join(run_dir, "ground_truth.json")) as fh:
            gt = GroundTruth.from_json(fh.read())
        with probe("train.frozen_kernel_stats"):
            train.frozen_kernel_stats(crf.UnaryField(graph=u.graph, logits=scale * u.logits),
                                      params, ps=ps)
        with probe("train.meanfield_grad"):
            train.meanfield_grad(u, params, gt, unary_scale=scale, ps=ps)
