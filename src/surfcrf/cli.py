"""Pipeline orchestration: phantom -> presegment -> spheremap -> remesh ->
patches -> unary -> segment -> metrics, plus fit; every command writes its
artifacts and a provenance record, and all randomness flows from one seed."""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import crf as crfmod
from . import train as trainmod
from .mesh import (MeshError, SphereMap, TriMesh, harmonic_sphere_map, load_mesh,
                   load_quad_mesh_records, save_mesh, save_quad_mesh_records, taubin_smooth)
from .metrics import compare_surfaces
from .patches import (GroundTruth, ground_truth, labeling_to_world, load_face_grids, load_patchset,
                      sample_columns, save_face_grids, save_patchset)
from .quadsphere import (build_quadsphere, checked_unit_rows, load_arrays, load_quadmesh, remesh,
                         save_arrays, save_quadmesh)
from .volume import PhantomSpec, load_svol, make_phantom, phantom_label_volume, save_svol


DEFAULT_CONFIG = {
    "seed": 0,
    "phantom": {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(PhantomSpec(noise_sigma=0.3, blur_sigma_mm=1.0,
                                               mesh_subdivisions=3)).items() if k != "seed"},
    "preseg": {
        "smooth_iterations": 10,
        "smooth_lambda": 0.5,
        "smooth_mu": -0.53,
        "perturb_amplitude_mm": 3.0,
        "perturb_components": 6,
    },
    "spheremap": {
        "tol": 1e-6,
        "max_iters": 5000,
        "damping": 0.5,
    },
    "quad": {
        "recursion": 5,
    },
    "patches": {
        "column_len": 48,
        "column_res_mm": 0.625,
        "pad": 3,
    },
    "unary": {
        "mode": "gradient",  # gradient | external
        "polarity": "bright_to_dark",
        "scale": 6.0,
        "external_dir": "",
    },
    "crf": asdict(crfmod.CrfParams()),
    "fit": {**asdict(trainmod.FitConfig()), "trainable": list(trainmod.FitConfig.trainable)},
}


class CliError(RuntimeError):
    pass


# the one list leaf whose length is free; every other list has its default's length
_ANY_LENGTH = ("fit.trainable",)


def _fits(val, default) -> bool:
    """val has default's JSON type; an int fits a float, a bool no number."""
    if isinstance(default, list):
        return isinstance(val, list) and all(_fits(v, default[0]) for v in val)
    return type(val) is type(default) or (type(default) is float and type(val) is int)


def _merge_config(cfg, override, source, defaults=DEFAULT_CONFIG, where=""):
    """Put the leaves of ``override`` into ``cfg`` in place.  The one check
    of config input: every key must be one of ``defaults``, every section a
    JSON object, every leaf of its default's JSON type and every list but
    those of _ANY_LENGTH of its default's length.  Errors name ``source``
    and the dotted key."""
    if not isinstance(override, dict):
        raise CliError(f"{source}: {where or 'the config'} must be a section (a JSON object), "
                       f"got {override!r}")
    for key, val in override.items():
        dotted = f"{where}.{key}" if where else key
        if key not in defaults:
            raise CliError(f"{source}: unknown config key {dotted}")
        default = defaults[key]
        if isinstance(default, dict):
            _merge_config(cfg[key], val, source, default, dotted)
        elif not _fits(val, default):
            raise CliError(f"{source}: {dotted} must have the JSON type of its default "
                           f"{default!r}, got {val!r}")
        elif isinstance(default, list) and dotted not in _ANY_LENGTH and len(val) != len(default):
            raise CliError(f"{source}: {dotted} must have {len(default)} entries like its "
                           f"default {default!r}, got {val!r}")
        else:
            cfg[key] = val


def _fit_config(cfg) -> trainmod.FitConfig:
    return trainmod.FitConfig(**{**cfg["fit"], "trainable": tuple(cfg["fit"]["trainable"])})


def _positive(v) -> bool:
    return math.isfinite(v) and v > 0


# (dotted key, test, what the value must be) of the config values that the
# steps would take out of range silently or reject only once they run
_RANGES = (
    ("preseg.smooth_iterations", lambda v: v >= 0, "an integer >= 0"),
    ("preseg.perturb_amplitude_mm", lambda v: math.isfinite(v) and v >= 0,
     "a finite number >= 0"),
    ("preseg.perturb_components", lambda v: v >= 0, "an integer >= 0"),
    ("spheremap.tol", _positive, "a finite number > 0"),
    ("spheremap.max_iters", lambda v: v >= 1, "an integer >= 1"),
    ("spheremap.damping", _positive, "a finite number > 0"),
    ("quad.recursion", lambda v: v >= 0, "an integer >= 0"),
    ("patches.column_len", lambda v: v >= 2, "an integer >= 2"),
    ("patches.column_res_mm", _positive, "a finite number > 0"),
    ("patches.pad", lambda v: v >= 0, "an integer >= 0"),
    ("unary.mode", lambda v: v in ("gradient", "external"), "'gradient' or 'external'"),
    ("unary.polarity", lambda v: v in ("dark_to_bright", "bright_to_dark", "magnitude"),
     "'dark_to_bright', 'bright_to_dark' or 'magnitude'"),
    ("unary.scale", _positive, "a finite number > 0"),
)


def _check_ranges(cfg, source) -> None:
    """Check the _RANGES keys, patches.column_len against the gradient
    unary's central differences, patches.pad against the face grid size, and
    build PhantomSpec (validated), CrfParams and FitConfig from ``cfg``, so a
    value out of range fails here, before any input is read.  Errors start
    with the field's name; the CliError names ``source`` and the dotted key."""
    for dotted, ok, what in _RANGES:
        section, key = dotted.split(".")
        val = cfg[section][key]
        if not ok(val):
            raise CliError(f"{source}: {dotted} must be {what}, got {val!r}")
    if cfg["unary"]["mode"] == "gradient" and cfg["patches"]["column_len"] < 3:
        raise CliError(f"{source}: patches.column_len must be an integer >= 3 in unary.mode "
                       f"'gradient', got {cfg['patches']['column_len']!r}")
    pad, n = cfg["patches"]["pad"], 2 ** cfg["quad"]["recursion"]
    if pad > n:
        raise CliError(f"{source}: patches.pad must be at most the face grid size "
                       f"n = 2**quad.recursion = {n}, got {pad}")
    for section, build in (("phantom", lambda: _phantom_spec(cfg).validate()),
                           ("crf", lambda: crfmod.CrfParams(**cfg["crf"])),
                           ("fit", lambda: _fit_config(cfg))):
        try:
            build()
        except ValueError as exc:
            raise CliError(f"{source}: {section}.{exc}") from None


def _read_json(path):
    """The JSON document in the file at ``path``; invalid JSON is named."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: not valid JSON: {exc}") from None


def load_config(path=None, overrides=None) -> dict:
    """DEFAULT_CONFIG with the config file at ``path`` and then the dotted
    ``overrides`` ({"crf.w_p": 0.0, ...}) put in, each checked for keys,
    types and list lengths; the value ranges are checked once, on the merged
    config, and an error names the sources merged."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    sources = []
    if path:
        _merge_config(cfg, _read_json(path), path)
        sources.append(str(path))
    nested = {}
    for dotted, value in (overrides or {}).items():
        *sections, key = dotted.split(".")
        node = nested
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    _merge_config(cfg, nested, "overrides")
    if overrides:
        sources.append("overrides")
    _check_ranges(cfg, " + ".join(sources))
    return cfg


def _config_hash(cfg) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _phantom_spec(cfg) -> PhantomSpec:
    return PhantomSpec.from_dict({**cfg["phantom"], "seed": cfg["seed"]})


class _Step:
    """Context manager: records the files the step reads (input) and writes
    (path) for the provenance record, and removes partial outputs when the
    step raises."""

    def __init__(self, name, outdir, cfg):
        self.name = name
        self.outdir = outdir
        self.cfg = cfg
        self.inputs = []
        self.written = []
        self.t0 = time.perf_counter()
        os.makedirs(outdir, exist_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._fail_cleanup()
            return False
        self._finish()
        return False

    def input(self, path):
        """``path``, recorded as read: relative to the run directory when it
        lies inside it, else as given."""
        rel = os.path.relpath(path, self.outdir)
        outside = rel == os.pardir or rel.startswith(os.pardir + os.sep)
        self.inputs.append(path if outside else rel)
        return path

    def path(self, rel):
        p = os.path.join(self.outdir, rel)
        self.written.append(p)
        return p

    def _fail_cleanup(self):
        import shutil
        for p in self.written:
            if os.path.isdir(p):
                shutil.rmtree(p, ignore_errors=True)
            elif os.path.exists(p):
                os.remove(p)

    def _finish(self):
        prov = {
            "command": self.name,
            "inputs": self.inputs,
            "config_hash": _config_hash(self.cfg),
            "seed": self.cfg["seed"],
            "wall_time_s": round(time.perf_counter() - self.t0, 3),
            "outputs": [os.path.relpath(p, self.outdir) for p in self.written],
        }
        with open(os.path.join(self.outdir, f"{self.name}.prov.json"), "w") as fh:
            json.dump(prov, fh, indent=1, sort_keys=True)


def _echo_config(cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.echo.json"), "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# steps


def cmd_phantom(cfg, outdir):
    with _Step("phantom", outdir, cfg) as step:
        spec = _phantom_spec(cfg)
        vol, truth = make_phantom(spec)
        labels = phantom_label_volume(spec)
        save_svol(vol, step.path("volume.svol"))
        save_svol(labels, step.path("labels.svol"))
        save_mesh(truth, step.path("truth.mesh"))
        with open(step.path("phantom.spec.json"), "w") as fh:
            fh.write(spec.to_json())


def perturb_mesh_radially(mesh: TriMesh, amplitude: float, components: int, seed: int) -> TriMesh:
    """Seeded smooth radial displacement field, standardized to the requested
    RMS amplitude (emulates an imperfect pre-segmentation)."""
    rng = np.random.default_rng(seed)
    c = mesh.vertices.mean(axis=0)
    d = mesh.vertices - c
    r = np.linalg.norm(d, axis=1)
    u = d / r[:, None]
    dirs = rng.normal(size=(components, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    freqs = rng.uniform(1.5, 3.0, components)
    phases = rng.uniform(0, 2 * np.pi, components)
    field = np.zeros(len(u))
    for k in range(components):
        field += np.sin(freqs[k] * (u @ dirs[k]) * np.pi + phases[k])
    if amplitude > 0:
        field = (field - field.mean()) / (field.std() + 1e-12) * amplitude
    else:
        field = np.zeros_like(field)
    return TriMesh(vertices=c + (r + field)[:, None] * u, faces=mesh.faces.copy())


def cmd_presegment(cfg, outdir):
    with _Step("presegment", outdir, cfg) as step:
        p = cfg["preseg"]
        truth = load_mesh(step.input(os.path.join(outdir, "truth.mesh")))
        smooth = taubin_smooth(truth, p["smooth_iterations"], p["smooth_lambda"], p["smooth_mu"])
        pre = perturb_mesh_radially(smooth, p["perturb_amplitude_mm"],
                                    p["perturb_components"], cfg["seed"] + 1000)
        save_mesh(pre, step.path("preseg.mesh"))


def cmd_spheremap(cfg, outdir):
    with _Step("spheremap", outdir, cfg) as step:
        s = cfg["spheremap"]
        pre_path = step.input(os.path.join(outdir, "preseg.mesh"))
        pre = load_mesh(pre_path)
        try:
            smap = harmonic_sphere_map(pre, tol=s["tol"], max_iters=s["max_iters"],
                                       damping=s["damping"])
        except MeshError as exc:
            raise CliError(f"{pre_path}: {exc}") from None
        save_arrays(step.path("sphere.npz"), positions=smap.positions)
        with open(step.path("spheremap.report.json"), "w") as fh:
            json.dump({"iterations": smap.iterations, "converged": smap.converged,
                       "clamped_weights": smap.clamped_weights,
                       "final_energy": float(smap.energy_trace[-1])}, fh)


def cmd_remesh(cfg, outdir):
    with _Step("remesh", outdir, cfg) as step:
        pre = load_mesh(step.input(os.path.join(outdir, "preseg.mesh")))
        sphere_path = step.input(os.path.join(outdir, "sphere.npz"))
        positions = checked_unit_rows(load_arrays(sphere_path), sphere_path, "positions",
                                      len(pre.vertices))
        smap = SphereMap(mesh=pre, positions=positions)
        qs = build_quadsphere(cfg["quad"]["recursion"])
        qm = remesh(pre, smap, qs)
        save_quadmesh(qm, step.path("quad.npz"))


def cmd_patches(cfg, outdir):
    with _Step("patches", outdir, cfg) as step:
        pc = cfg["patches"]
        vol = load_svol(step.input(os.path.join(outdir, "volume.svol")))
        qm = load_quadmesh(step.input(os.path.join(outdir, "quad.npz")))
        ps = sample_columns(vol, qm, z_len=pc["column_len"], delta=pc["column_res_mm"],
                            pad=pc["pad"])
        save_patchset(ps, step.path("patches"))
        truth_path = os.path.join(outdir, "truth.mesh")
        if os.path.exists(truth_path):
            truth = load_mesh(step.input(truth_path))
            gt = ground_truth(qm, truth, pc["column_len"], pc["column_res_mm"])
            with open(step.path("ground_truth.json"), "w") as fh:
                fh.write(gt.to_json())


def _load_unary(step, cfg, run_dir) -> tuple:
    """The patch set in ``run_dir`` and its (6,H,W,Z) unary logits before
    unary.scale: gradient_unary's, or the external channels
    patch{f}_surface.svol and patch{f}_nonsurface.svol (in the run
    directory's external_logits/ or in unary.external_dir) reduced by
    subtraction.  ``step`` records each file as it is opened."""
    ps = load_patchset(step.input(os.path.join(run_dir, "patches")))
    un = cfg["unary"]
    if un["mode"] == "gradient":
        return ps, crfmod.gradient_unary(ps, polarity=un["polarity"]).logits
    ext = un["external_dir"] or os.path.join(run_dir, "external_logits")
    dims = (*ps.graph.shape[1:], ps.z_len)
    surf, nons = (load_face_grids(lambda f: step.input(os.path.join(ext, f"patch{f}_{c}.svol")),
                                  dims) for c in ("surface", "nonsurface"))
    return ps, crfmod.channel_reduce(surf, nons)


def _scaled_unary(step, cfg) -> tuple:
    """The patch set in the step's directory and its unary at unary.scale;
    the logits before the scale are freed on return."""
    ps, logits = _load_unary(step, cfg, step.outdir)
    return ps, crfmod.unary_from_logits(ps.graph, cfg["unary"]["scale"] * logits)


def cmd_unary(cfg, outdir):
    with _Step("unary", outdir, cfg) as step:
        ps, u = _scaled_unary(step, cfg)
        save_face_grids(lambda f: step.path(f"unary{f}.svol"), u.logits, ps.delta)
        baseline = u.argmax_labels()
        with open(step.path("unary_argmax.json"), "w") as fh:
            json.dump({"labels": baseline.tolist()}, fh)


def cmd_segment(cfg, outdir):
    with _Step("segment", outdir, cfg) as step:
        ps, u = _scaled_unary(step, cfg)
        lab = crfmod.meanfield_infer(u, crfmod.CrfParams(**cfg["crf"]), ps=ps)
        save_face_grids(lambda f: step.path(f"q{f}.svol"), ps.graph.split(lab.q), ps.delta)
        with open(step.path("labeling.json"), "w") as fh:
            json.dump({"labels": lab.labels.tolist()}, fh)
        verts, faces = labeling_to_world(lab.labels, ps)
        save_quad_mesh_records(step.path("pred.mesh"), verts, faces)


def cmd_metrics(cfg, outdir):
    with _Step("metrics", outdir, cfg) as step:
        pred_verts, pred_faces = load_quad_mesh_records(
            step.input(os.path.join(outdir, "pred.mesh")))
        truth = load_mesh(step.input(os.path.join(outdir, "truth.mesh")))
        labels_path = step.input(os.path.join(outdir, "labels.svol"))
        labels = load_svol(labels_path)
        if not np.isin(labels.data, (0.0, 1.0)).all():
            raise CliError(f"{labels_path}: not a binary label volume")
        rep = compare_surfaces(pred_verts, pred_faces, truth.vertices, truth.faces,
                               labels, labels=labels)
        with open(step.path("metrics.json"), "w") as fh:
            fh.write(rep.to_json())


def _check_ground_truth(gt: GroundTruth, ps, path) -> None:
    """Ground truth must cover the patch set's vertices with valid indices
    inside its columns."""
    for field in ("surface_index", "valid"):
        n = len(getattr(gt, field))
        if n != ps.graph.n_vertices:
            raise CliError(f"{path}: {field} has {n} entries, the patch set has "
                           f"{ps.graph.n_vertices} vertices")
    idx = gt.surface_index[gt.valid]
    if np.any((idx < 0) | (idx >= ps.z_len)):
        raise CliError(f"{path}: surface_index of a valid vertex lies outside "
                       f"[0, z_len) = [0, {ps.z_len})")


def _manifest_runs(path) -> list:
    """The run directories of the fit manifest at ``path``: a JSON object
    whose ``runs`` is a non-empty list of strings."""
    doc = _read_json(path)
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if not (isinstance(runs, list) and runs and all(isinstance(r, str) for r in runs)):
        raise CliError(f"{path}: runs must be a non-empty list of run directories "
                       f"in a JSON object, got {runs!r}")
    return runs


def cmd_fit(cfg, outdir, manifest_path):
    if cfg["unary"]["mode"] != "gradient":
        raise CliError(f"fit supports unary.mode 'gradient' only, got {cfg['unary']['mode']!r}")
    runs = _manifest_runs(manifest_path)
    with _Step("fit", outdir, cfg) as step:
        step.input(manifest_path)
        dataset = []
        for run_dir in runs:
            ps, logits = _load_unary(step, cfg, run_dir)
            gt_path = os.path.join(run_dir, "ground_truth.json")
            with open(step.input(gt_path)) as fh:
                try:
                    gt = GroundTruth.from_json(fh.read())
                except KeyError as exc:
                    raise CliError(f"{gt_path}: missing field {exc.args[0]!r}") from None
                # JSONDecodeError is a ValueError; an index past int64 overflows
                except (TypeError, ValueError, OverflowError) as exc:
                    raise CliError(f"{gt_path}: not a ground-truth JSON object: {exc}") from None
            _check_ground_truth(gt, ps, gt_path)
            dataset.append((ps, crfmod.unary_from_logits(ps.graph, logits), gt))
        result = trainmod.fit(dataset, crfmod.CrfParams(**cfg["crf"]), _fit_config(cfg),
                              unary_scale=cfg["unary"]["scale"])
        with open(step.path("fit.json"), "w") as fh:
            fh.write(result.to_json())


def cmd_pipeline(cfg, outdir):
    cmd_phantom(cfg, outdir)
    cmd_presegment(cfg, outdir)
    cmd_spheremap(cfg, outdir)
    cmd_remesh(cfg, outdir)
    cmd_patches(cfg, outdir)
    cmd_unary(cfg, outdir)
    cmd_segment(cfg, outdir)
    cmd_metrics(cfg, outdir)


# ---------------------------------------------------------------------------
# argument parsing

# short aliases for the commonly overridden keys
_FLAG_MAP = {
    "seed": "seed",
    "kind": "phantom.kind",
    "noise-sigma": "phantom.noise_sigma",
    "blur-sigma-mm": "phantom.blur_sigma_mm",
    "perturb-amplitude-mm": "preseg.perturb_amplitude_mm",
    "recursion": "quad.recursion",
    "column-len": "patches.column_len",
    "column-res-mm": "patches.column_res_mm",
    "pad": "patches.pad",
    "unary-mode": "unary.mode",
    "polarity": "unary.polarity",
    "unary-scale": "unary.scale",
    "external-dir": "unary.external_dir",
    "w-p": "crf.w_p",
    "w1": "crf.w1",
    "theta1": "crf.theta1",
    "theta2": "crf.theta2",
    "theta3": "crf.theta3",
    "theta-comp": "crf.theta_comp",
    "window-radius": "crf.window_radius",
    "iterations": "crf.iterations",
    "kernel-variant": "crf.kernel_variant",
    "epochs": "fit.epochs",
}


def _scalar_leaves(node=DEFAULT_CONFIG, where=""):
    """(dotted key, default) of every config leaf that is not a list."""
    for key, val in node.items():
        dotted = f"{where}.{key}" if where else key
        if isinstance(val, dict):
            yield from _scalar_leaves(val, dotted)
        elif not isinstance(val, list):
            yield dotted, val


def _generated_flags():
    """flag -> (dotted key, type of its default), one flag per scalar config
    leaf: its _FLAG_MAP alias, else the long form --<section>-<key>."""
    alias = {dotted: flag for flag, dotted in _FLAG_MAP.items()}
    return {alias.get(dotted, dotted.replace(".", "-").replace("_", "-")): (dotted, type(default))
            for dotted, default in _scalar_leaves()}


def _build_parser():
    parser = argparse.ArgumentParser(prog="surfcrf",
                                     description="surface CRF segmentation pipeline")
    parser.add_argument("command", choices=("phantom", "presegment", "spheremap", "remesh",
                                            "patches", "unary", "segment", "fit", "metrics",
                                            "pipeline"))
    parser.add_argument("--config", default=None, help="RunConfig JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--manifest", default=None,
                        help="fit only: JSON manifest with a 'runs' list of pipeline dirs")
    for flag, (dotted, typ) in _generated_flags().items():
        parser.add_argument(f"--{flag}", dest=dotted, type=typ, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (args.command == "fit") != (args.manifest is not None):
        parser.error("--manifest is required by fit and taken by no other command")
    skip = {"command", "config", "out", "manifest"}
    overrides = {k: v for k, v in vars(args).items()
                 if k not in skip and v is not None}
    try:
        cfg = load_config(args.config, overrides)
        _echo_config(cfg, args.out)
        if args.command == "fit":
            cmd_fit(cfg, args.out, args.manifest)
        else:
            globals()[f"cmd_{args.command}"](cfg, args.out)
    except Exception as exc:  # single-line machine-parsable error
        print("error: " + json.dumps({"command": args.command, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
