"""The benchmark's three workloads: pipeline-r5, segment-sweep and fit-r3.

An operation is one `surfcrf` command.  Untraced, it is a call of
surfcrf.cli.main with a generated config, as a user runs it.  Traced, it is
the cli.cmd_* steps that command runs, one span each, followed by probe calls
of the library functions below cli (see probes.py).  Case i of a run gets the
config seed ``1000 * seed + i``.  Operations run one at a time (a closed
loop with one client) and are timed with perf_counter; correctness checks
run between operations, outside the timed calls.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from surfcrf import cli
from surfcrf.patches import GroundTruth, load_patchset
from surfcrf.volume import load_svol

import probes

PIPELINE_STEPS = ("phantom", "presegment", "spheremap", "remesh", "patches",
                  "unary", "segment", "metrics")
PREP_STEPS = PIPELINE_STEPS[:5]  # phantom through patches: what `fit` reads

# A9 fitting scale: r=3, Z=16, 1.25 mm
R3 = {"quad": {"recursion": 3}, "patches": {"column_len": 16, "column_res_mm": 1.25}}

# a small case that runs every pipeline step in about half a second
WARMUP = {"phantom": {"dims": [32, 32, 32], "semi_axes_mm": [11.0, 10.0, 11.0],
                      "mesh_subdivisions": 2},
          "spheremap": {"tol": 1e-4}, "quad": {"recursion": 2},
          "patches": {"column_len": 16, "column_res_mm": 1.25}}

# metrics.json of `surfcrf pipeline` on the default config with seed 0
SEED0_METRICS = {"dsc": 0.960543697420566, "asd_mm": 0.7102643235518107,
                 "hd_mm": 4.732583380731317}
SEED0_RTOL = 1e-9

# A7 thresholds on a default-size case: DSC >= 0.95, ASD <= 1 voxel
A7_MIN_DSC = 0.95
VOXEL_MM = min(cli.DEFAULT_CONFIG["phantom"]["spacing"])

# The CRF settings segment-sweep cycles through: every window_radius x
# iterations x kernel_variant, with w_p = 0 on half of them so that each
# level of each factor appears equally often (a half of the full product,
# which keeps a cycle near 17 s and the overshoot past --seconds short).
# Radii vary fastest so that any prefix (a short traced run) mixes them.
SWEEP = [{"w_p": 1.0 if (it == 5) == (kv == "probability") else 0.0,
          "window_radius": r, "iterations": it, "kernel_variant": kv}
         for it in (5, 10) for kv in ("probability", "intensity") for r in (2, 3, 4)]
DEFAULT_CRF = {k: cli.DEFAULT_CONFIG["crf"][k] for k in SWEEP[0]}


@dataclass(frozen=True)
class Size:
    pipeline_cases: int  # least cases per pipeline-r5 run; its quality panel
    sweep_cases: int     # r=5 cases prepared for segment-sweep (divides len(SWEEP))
    fit_cases: int       # instances in the fit-r3 manifest
    fit_epochs: int      # epochs per fit-r3 operation
    case: dict = field(default_factory=dict)  # overrides of the default case config


FULL = Size(pipeline_cases=5, sweep_cases=3, fit_cases=4, fit_epochs=10)
TOY = Size(pipeline_cases=1, sweep_cases=1, fit_cases=1, fit_epochs=1, case=R3)


class BenchError(RuntimeError):
    """Set-up or evaluation outside the timed operations failed."""


class GateError(RuntimeError):
    """An operation's output failed a correctness check."""


def _merge(doc, override):
    for key, val in override.items():
        if isinstance(val, dict):
            _merge(doc.setdefault(key, {}), val)
        else:
            doc[key] = val


def marginal_mce(case_dir) -> float:
    """Mean over valid columns of -log Q(ground-truth index), from the
    float32 q{f}.svol marginals that `surfcrf segment` wrote; a marginal
    that underflowed to 0 counts as the smallest normal float32."""
    graph = load_patchset(os.path.join(case_dir, "patches")).graph
    q = np.stack([load_svol(os.path.join(case_dir, f"q{f}.svol")).data for f in range(6)])
    merged = graph.merge(np.maximum(q, np.finfo(np.float32).tiny).astype(np.float64))
    with open(os.path.join(case_dir, "ground_truth.json")) as fh:
        gt = GroundTruth.from_json(fh.read())
    rows = np.nonzero(gt.valid)[0]
    return float(-np.log(merged[rows, gt.surface_index[rows]]).mean())


def case_quality(case_dir, seed, full) -> dict:
    """DSC/ASD/HD from metrics.json and the marginal MCE of a finished case,
    gated on finiteness, on A7 at the default size, and on the recorded
    seed-0 metrics."""
    with open(os.path.join(case_dir, "metrics.json")) as fh:
        m = json.load(fh)
    q = {"dsc": m["dsc"], "asd_mm": m["asd_mm"], "hd_mm": m["hd_mm"],
         "mce": marginal_mce(case_dir)}
    if not all(math.isfinite(v) for v in q.values()):
        raise GateError(f"{case_dir}: non-finite quality {q}")
    if full:
        if q["dsc"] < A7_MIN_DSC or q["asd_mm"] > VOXEL_MM:
            raise GateError(f"seed {seed}: DSC {q['dsc']:.4f} / ASD {q['asd_mm']:.4f} mm "
                            f"misses A7")
        if seed == 0:
            for key, want in SEED0_METRICS.items():
                if abs(q[key] - want) > SEED0_RTOL * abs(want):
                    raise GateError(f"seed 0: {key} {q[key]!r} != recorded {want!r}")
    return q


class Bench:
    """State of one benchmark run: generated configs and case directories
    under ``tmp``, the tracer (None when untraced), and the op records."""

    def __init__(self, seed, seconds, size, tmp, tracer):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.full = size == FULL
        self.tmp = tmp
        self.tracer = tracer
        self.op_s = []
        self.failed = 0
        self.setup_units = []
        self.setup_count = 1  # set-up units a run needs; setup_s counts their median
        self.overhead_s = None
        self.work_per_op = 1  # work units an operation counts for in ops_per_s
        self.quality = []     # quality of the cases the gates checked
        self.mce_final = None

    def case_seed(self, i):
        return 1000 * self.seed + i

    def path(self, name):
        return os.path.join(self.tmp, name)

    def config(self, name, seed, *overrides) -> str:
        doc = {"seed": seed}
        for o in overrides:
            _merge(doc, o)
        path = self.path(name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def command(self, command, cfg_path, out, traced, case=None, manifest=None) -> bool:
        """One `surfcrf <command>` call; traced, as its cli.cmd_* steps."""
        if not traced:
            argv = [command, "--config", cfg_path, "--out", out]
            if manifest:
                argv += ["--manifest", manifest]
            return cli.main(argv) == 0
        cfg = cli.load_config(cfg_path)
        try:
            for step in PIPELINE_STEPS if command == "pipeline" else (command,):
                with self.tracer.span("cli." + step, case=case):
                    if step == "fit":
                        cli.cmd_fit(cfg, out, manifest)
                    else:
                        getattr(cli, "cmd_" + step)(cfg, out)
        except Exception as exc:  # counted as a failed operation, like cli.main's rc 1
            print(f"surfbench: {command} on case {case} failed: {exc!r}", file=sys.stderr)
            return False
        return True

    def must(self, ok, what):
        if not ok:
            raise BenchError(f"set-up step failed: {what}")

    def timed_setup(self, fn):
        t0 = time.perf_counter()
        fn()
        self.setup_units.append(time.perf_counter() - t0)

    def loop(self, op, min_ops, cycle=1):
        """Closed loop: op(k, traced) -> (seconds, ok) runs one operation at a
        time until ``seconds`` are spent and at least ``min_ops`` ran,
        stopping at a whole number of cycles.  Untraced, the budget counts
        operation time only; traced, the loop's wall time, probes included.
        A traced run first runs operation 0 untraced and again traced: the
        difference is the tracing overhead."""
        traced = self.tracer is not None
        if traced:
            ref_s, _ = op(0, False, ref=True)
            min_ops, cycle = 1, 1
        start = time.perf_counter()
        spent = 0.0
        k = 0
        while k < min_ops or k % cycle or spent < self.seconds:
            secs, ok = op(k, traced)
            if traced and k == 0:
                self.overhead_s = secs - ref_s
            self.op_s.append(secs)
            self.failed += not ok
            k += 1
            spent = time.perf_counter() - start if traced else sum(self.op_s)

    def timed(self, call, traced, case):
        if traced:
            with self.tracer.span("op", case=case) as rec:
                ok = call()
            return rec["end"] - rec["start"], ok
        t0 = time.perf_counter()
        ok = call()
        return time.perf_counter() - t0, ok

    def gated(self, check):
        try:
            check()
        except (GateError, OSError, ValueError, KeyError) as exc:
            print(f"surfbench: check failed: {exc}", file=sys.stderr)
            return False
        return True

    def prepare_fit_probe(self):
        """A one-instance, one-epoch fit at A9 scale, so that every traced
        run measures the cli.fit and train layers."""
        d = self.path("cover-inst")
        cfg = self.config("cover-inst", self.case_seed(999), R3)
        for step in PREP_STEPS:
            self.must(self.command(step, cfg, d, traced=False), f"{step} {d}")
        manifest = self.path("cover-manifest.json")
        with open(manifest, "w") as fh:
            json.dump({"runs": [d]}, fh)
        return self.config("cover-fit", self.case_seed(999), R3, {"fit": {"epochs": 1}}), manifest

    def run_fit_probe(self, cover):
        cfg, manifest = cover
        out = self.path("cover-fit")
        self.must(self.command("fit", cfg, out, traced=True, case="cover", manifest=manifest),
                  "coverage fit")
        self.tracer.count("train.grad_evals", 1, "cover", computed=True)
        probes.probe_fit(self.tracer, manifest, cli.load_config(cfg), "cover")

    def probe_dir(self):
        d = self.path("probe")
        os.makedirs(d, exist_ok=True)
        return d


# ---------------------------------------------------------------------------
# pipeline-r5


def pipeline_r5(b: Bench):
    def warm_up():
        d = b.path("warmup")
        b.must(b.command("pipeline", b.config("warmup", b.case_seed(999), WARMUP), d,
                         traced=False), "warm-up pipeline")
        shutil.rmtree(d)

    # set-up: a small pipeline run warms every step's code paths; it runs
    # three times so that setup_s is a median
    for _ in range(3):
        b.timed_setup(warm_up)
    cover = b.prepare_fit_probe() if b.tracer else None

    quality = []

    def op(k, traced, ref=False):
        seed = b.case_seed(k)
        cfg = b.config(f"case{k}", seed, b.size.case)
        out = b.path(f"case{k}" + ("-ref" if ref else ""))
        secs, ok = b.timed(lambda: b.command("pipeline", cfg, out, traced, case=k), traced, k)
        if ok and not ref:
            ok = b.gated(lambda: quality.append(case_quality(out, seed, b.full)))
            if traced:
                b.tracer.count("cli.bytes_written",
                               sum(probes.step_bytes(out, s) for s in PIPELINE_STEPS), k)
                probes.probe_case(b.tracer, out, cli.load_config(cfg), b.probe_dir(), k)
        shutil.rmtree(out, ignore_errors=True)
        return secs, ok

    b.loop(op, min_ops=b.size.pipeline_cases)
    if cover:
        b.run_fit_probe(cover)
    b.work_per_op = 1
    b.quality = quality[:b.size.pipeline_cases]
    b.mce_final = statistics.fmean(q["mce"] for q in b.quality)


# ---------------------------------------------------------------------------
# segment-sweep


def segment_sweep(b: Bench):
    n = b.size.sweep_cases
    assert len(SWEEP) % n == 0, "each setting must always meet the same case"
    cases = [b.path(f"case{i}") for i in range(n)]

    def prepare(i):
        cfg = b.config(f"case{i}", b.case_seed(i), b.size.case)
        b.must(b.command("pipeline", cfg, cases[i], traced=b.tracer is not None,
                         case=f"setup{i}"), f"pipeline {cases[i]}")

    # set-up: the r=5 cases the sweep segments, each through the whole pipeline
    for i in range(n):
        b.timed_setup(lambda: prepare(i))
    b.setup_count = n
    cover = b.prepare_fit_probe() if b.tracer else None

    refs = []
    for i, d in enumerate(cases):
        with open(os.path.join(d, "labeling.json")) as fh:
            labeling = json.load(fh)["labels"]
        with open(os.path.join(d, "unary_argmax.json")) as fh:
            argmax = json.load(fh)["labels"]
        refs.append((labeling, argmax))
        try:
            b.quality.append(case_quality(d, b.case_seed(i), b.full))
        except GateError as exc:
            raise BenchError(f"prepared case {i}: {exc}") from exc
    if b.tracer:
        probes.probe_case(b.tracer, cases[0], cli.load_config(b.path("case0.json")),
                          b.probe_dir(), "setup0")
    z_len = cli.load_config(b.path("case0.json"))["patches"]["column_len"]

    def check(i, setting):
        labeling, argmax = refs[i]
        with open(os.path.join(cases[i], "labeling.json")) as fh:
            labels = json.load(fh)["labels"]
        if len(labels) != len(labeling) or not all(0 <= v < z_len for v in labels):
            raise GateError(f"case {i} {setting}: malformed labeling")
        if setting["w_p"] == 0 and labels != argmax:
            raise GateError(f"case {i} {setting}: w_p=0 labels differ from the unary argmax")
        if setting == DEFAULT_CRF and labels != labeling:
            raise GateError(f"case {i}: default setting differs from the prepared labeling")

    def op(k, traced, ref=False):
        setting = SWEEP[k % len(SWEEP)]
        i = k % n
        cfg = b.config(f"sweep{k % len(SWEEP)}", b.case_seed(i), b.size.case, {"crf": setting})
        secs, ok = b.timed(lambda: b.command("segment", cfg, cases[i], traced, case=k),
                           traced, k)
        if ok and not ref:
            ok = b.gated(lambda: check(i, setting))
            if traced:
                b.tracer.count("cli.bytes_written", probes.step_bytes(cases[i], "segment"), k)
                probes.probe_crf(b.tracer, cases[i], cli.load_config(cfg), b.probe_dir(), k)
        return secs, ok

    b.loop(op, min_ops=len(SWEEP), cycle=len(SWEEP))
    if cover:
        b.run_fit_probe(cover)
    b.work_per_op = 1
    b.mce_final = statistics.fmean(q["mce"] for q in b.quality)


# ---------------------------------------------------------------------------
# fit-r3


def fit_r3(b: Bench):
    n = b.size.fit_cases
    epochs = b.size.fit_epochs
    insts = [b.path(f"inst{i}") for i in range(n)]
    traced = b.tracer is not None

    def prepare(i):
        cfg = b.config(f"inst{i}", b.case_seed(i), R3)
        for step in PREP_STEPS:
            b.must(b.command(step, cfg, insts[i], traced, case=f"setup{i}"),
                   f"{step} {insts[i]}")

    # set-up: the A9-scale instances, each through the CLI steps phantom..patches
    for i in range(n):
        b.timed_setup(lambda: prepare(i))
    b.setup_count = n
    manifest = b.path("manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"runs": insts}, fh)
    fit_cfg = b.config("fit", b.case_seed(0), R3, {"fit": {"epochs": epochs}})

    results = []

    def check(out):
        with open(os.path.join(out, "fit.json")) as fh:
            res = json.load(fh)
        curve = res["curve"]
        if len(curve) != epochs + 1 or not all(math.isfinite(v) for v in curve):
            raise GateError(f"{out}: curve of {len(curve)} entries, finite: "
                            f"{all(math.isfinite(v) for v in curve)}")
        if results and res != results[0]:
            raise GateError(f"{out}: a second fit on the same seed returned another result")
        results.append(res)

    def op(k, traced, ref=False):
        out = b.path(f"fit{k}" + ("-ref" if ref else ""))
        secs, ok = b.timed(lambda: b.command("fit", fit_cfg, out, traced, case=k,
                                             manifest=manifest), traced, k)
        if ok and not ref:
            ok = b.gated(lambda: check(out))
            if traced:
                b.tracer.count("cli.bytes_written", probes.step_bytes(out, "fit"), k)
                b.tracer.count("train.grad_evals", n * epochs, k, computed=True)
                probes.probe_fit(b.tracer, manifest, cli.load_config(fit_cfg), k)
        shutil.rmtree(out, ignore_errors=True)
        return secs, ok

    # two fits at least: the second must repeat the first exactly
    b.loop(op, min_ops=2)
    if not results:
        raise BenchError("no fit succeeded")
    fitted = results[0]
    if traced:
        # segment one instance with the fitted scalars, so that the traced
        # run also measures the unary, segment and metrics layers
        cfg = b.config("inst0-fitted", b.case_seed(0), R3,
                       {"crf": fitted["params"], "unary": {"scale": fitted["unary_scale"]}})
        for step in ("unary", "segment", "metrics"):
            b.must(b.command(step, cfg, insts[0], traced, case="fitted0"), f"{step} {insts[0]}")
        probes.probe_case(b.tracer, insts[0], cli.load_config(cfg), b.probe_dir(), "fitted0")
    b.work_per_op = n * epochs
    b.mce_final = fitted["curve"][-1]


WORKLOADS = {"pipeline-r5": pipeline_r5, "segment-sweep": segment_sweep, "fit-r3": fit_r3}


def end_to_end(b: Bench, import_s: float, peak_rss_mb: float) -> dict:
    attempted = len(b.op_s)
    return {
        "setup_s": import_s + b.setup_count * statistics.median(b.setup_units),
        "ops_per_s": attempted * b.work_per_op / sum(b.op_s),
        "op_s.p50": statistics.median(b.op_s),
        "ok_frac": 1.0 - b.failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "mce_final": b.mce_final,
    }
