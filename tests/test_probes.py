"""The surfcrf entry points that the benchmark's per-layer probes call.

surfbench/probes.py calls crf and train functions directly, and its own
smoke test (surfbench/test_smoke.py) is outside this suite's test paths, so
a change to those functions could break the traced benchmark run unseen.
These tests run the case, CRF and fit probes on a small pipeline run.
"""
import json
import math
import os
import sys

import pytest

from surfcrf import cli

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "surfbench"))
import probes  # noqa: E402
import tracing  # noqa: E402
from workloads import WARMUP  # noqa: E402  (a 32^3 phantom, r=2, Z=16)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """(run directory, its config path, a manifest naming the run)."""
    root = tmp_path_factory.mktemp("probes")
    cfg_path = root / "small.json"
    cfg_path.write_text(json.dumps(dict(WARMUP, seed=0)))
    run = root / "run"
    assert cli.main(["pipeline", "--config", str(cfg_path), "--out", str(run)]) == 0
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"runs": [str(run)]}))
    return run, cfg_path, manifest


def assert_spans(tr, names):
    assert names <= {rec["name"] for rec in tr.spans}
    for rec in tr.spans:
        assert rec["probe"] and rec["end"] is not None and rec["end"] >= rec["start"]
    for name, value in tr.medians().items():
        assert math.isfinite(value), name


def test_probe_case(small_run, tmp_path):
    # every layer below cli, the CRF and metric probes included
    run, cfg_path, _ = small_run
    tr = tracing.Tracer()
    probes.probe_case(tr, str(run), cli.load_config(str(cfg_path)), str(tmp_path), "small")
    assert_spans(tr, {"patches.sample_columns", "accel.trilinear_gather",
                      "accel.locate_points", "metrics.surface_distance",
                      "crf.window_pair_mask", "crf.meanfield_iter"})


def test_probe_crf(small_run, tmp_path):
    run, cfg_path, _ = small_run
    tr = tracing.Tracer()
    probes.probe_crf(tr, str(run), cli.load_config(str(cfg_path)), str(tmp_path), "small")
    assert_spans(tr, {"crf.compute_kernel", "crf.window_pair_mask", "crf.meanfield_infer",
                      "crf.meanfield_iter", "accel.pairwise_weights", "accel.window_sum",
                      "accel.window_sum_adjoint", "accel.window_weight_grad"})


def test_probe_crf_window_wider_than_pad(small_run, tmp_path):
    # the run has n = 4 and pad 3: at radius 4 every slot-grid view the
    # probes call (the pair mask, kf.weights, the window kernels) reaches
    # past the pad
    run, cfg_path, _ = small_run
    cfg = cli.load_config(str(cfg_path))
    assert cfg["patches"]["pad"] == 3 and cfg["quad"]["recursion"] == 2
    cfg["crf"]["window_radius"] = 4
    tr = tracing.Tracer()
    probes.probe_crf(tr, str(run), cfg, str(tmp_path), "small")
    assert_spans(tr, {"crf.compute_kernel", "crf.window_pair_mask", "crf.meanfield_iter",
                      "accel.window_sum", "accel.window_sum_adjoint"})


def test_probe_fit(small_run):
    _, cfg_path, manifest = small_run
    tr = tracing.Tracer()
    probes.probe_fit(tr, str(manifest), cli.load_config(str(cfg_path)), "small")
    assert_spans(tr, {"train.frozen_kernel_stats", "train.meanfield_grad"})
