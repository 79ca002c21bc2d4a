import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import surfcrf as sc
from surfcrf import cli
from surfcrf import crf as crfmod

FAST = ["--recursion", "3", "--column-len", "16", "--column-res-mm", "1.25",
        "--pad", "2", "--window-radius", "2"]


def run_pipeline(outdir, extra=()):
    rc = cli.main(["pipeline", "--out", str(outdir)] + FAST + list(extra))
    assert rc == 0
    return outdir


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """One FAST pipeline run; tests that write into a run copy it first."""
    return run_pipeline(tmp_path_factory.mktemp("fast") / "run")


class TestPipeline:
    def test_emits_all_artifacts(self, tmp_path):
        out = run_pipeline(tmp_path / "run")
        for name in ("volume.svol", "labels.svol", "truth.mesh", "preseg.mesh",
                     "sphere.mesh", "quad.mesh", "quad.npz", "patches",
                     "pred.mesh", "labeling.json", "metrics.json",
                     "config.echo.json", "ground_truth.json"):
            assert (out / name).exists(), name
        for f in range(6):
            assert (out / f"unary{f}.svol").exists()
            assert (out / f"q{f}.svol").exists()
        rep = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= rep["dsc"] <= 1.0
        assert rep["hd_mm"] >= rep["asd_mm"] >= 0.0

    def test_every_artifact_listed_in_a_provenance_record(self, fast_run):
        # step failure cleanup and the benchmark's byte count both read the
        # outputs lists, so no file may escape them
        listed = set()
        for prov in fast_run.glob("*.prov.json"):
            listed.update(json.loads(prov.read_text())["outputs"])
        for path in fast_run.rglob("*"):
            rel = path.relative_to(fast_run)
            if path.is_dir() or rel.name == "config.echo.json" or rel.name.endswith(".prov.json"):
                continue
            assert any(str(p) in listed for p in (rel, *rel.parents)), rel

    def test_provenance_records(self, tmp_path):
        out = run_pipeline(tmp_path / "run")
        prov = json.loads((out / "segment.prov.json").read_text())
        assert prov["command"] == "segment"
        assert "config_hash" in prov and "wall_time_s" in prov

    def test_byte_identical_metrics_for_same_seed(self, tmp_path):
        a = run_pipeline(tmp_path / "a", ["--seed", "3"])
        b = run_pipeline(tmp_path / "b", ["--seed", "3"])
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "pred.mesh").read_bytes() == (b / "pred.mesh").read_bytes()

    def test_default_seed0_metrics_pinned(self, tmp_path):
        # the seed-0 metrics.json of the default config, as the benchmark's
        # pipeline-r5 gate records it
        assert cli.main(["pipeline", "--out", str(tmp_path / "run")]) == 0
        rep = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert rep["dsc"] == pytest.approx(0.960543697420566, rel=1e-9)
        assert rep["asd_mm"] == pytest.approx(0.7102643235518107, rel=1e-9)
        assert rep["hd_mm"] == pytest.approx(4.732583380731317, rel=1e-9)

    def test_default_seed0_spheremap_report_pinned(self, tmp_path):
        # the seed-0 default pre-segmentation maps in 1326 line-search steps
        out = str(tmp_path / "run")
        for step in ("phantom", "presegment", "spheremap"):
            assert cli.main([step, "--out", out]) == 0
        rep = json.loads((tmp_path / "run" / "spheremap.report.json").read_text())
        assert (rep["iterations"], rep["converged"], rep["clamped_weights"]) == (1326, True, 24)

    def test_different_seed_changes_volume(self, tmp_path):
        a = run_pipeline(tmp_path / "a", ["--seed", "1"])
        b = run_pipeline(tmp_path / "b", ["--seed", "2"])
        assert (a / "volume.svol").read_bytes() != (b / "volume.svol").read_bytes()

    def test_metrics_rerun_is_idempotent(self, tmp_path):
        out = run_pipeline(tmp_path / "run")
        first = (out / "metrics.json").read_bytes()
        rc = cli.main(["metrics", "--out", str(out)] + FAST)
        assert rc == 0
        assert (out / "metrics.json").read_bytes() == first


class TestSegmentIdentity:
    def test_wp_zero_matches_unary_argmax(self, tmp_path):
        out = run_pipeline(tmp_path / "run")
        for t in ("1", "7"):
            rc = cli.main(["segment", "--out", str(out), "--w-p", "0",
                           "--iterations", t] + FAST)
            assert rc == 0
            labeling = json.loads((out / "labeling.json").read_text())["labels"]
            baseline = json.loads((out / "unary_argmax.json").read_text())["labels"]
            assert labeling == baseline

    def test_segment_reload_reuses_pair_mask(self, fast_run, tmp_path, monkeypatch):
        out = shutil.copytree(fast_run, tmp_path / "run")
        calls = []
        build = crfmod.pair_edges
        monkeypatch.setattr(crfmod, "pair_edges",
                            lambda graph, offsets: calls.append(graph) or build(graph, offsets))
        crfmod._PAIR_EDGES.clear()
        for _ in range(2):
            assert cli.main(["segment", "--out", str(out)] + FAST) == 0
        assert len(calls) == 1


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"crf": {"bogus_knob": 1}}')
        rc = cli.main(["phantom", "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1
        message = json.loads(capsys.readouterr().err.split("error: ", 1)[1])["message"]
        assert message == f"{cfg}: unknown config key crf.bogus_knob"

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"not_a_section": {}}')
        rc = cli.main(["phantom", "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"phantom": {"noise_sigma": 0.05}, "seed": 9}')
        out = tmp_path / "run"
        rc = cli.main(["phantom", "--out", str(out), "--config", str(cfg),
                       "--noise-sigma", "0.0"])
        assert rc == 0
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["phantom"]["noise_sigma"] == 0.0
        assert echo["seed"] == 9

    def test_defaults_echoed(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["phantom", "--out", str(out)])
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["crf"]["w_p"] == 1.0
        assert echo["quad"]["recursion"] == 5

    def test_default_config_hash_pinned(self):
        # every default run records this config_hash in its provenance
        assert cli._config_hash(cli.load_config()) == "8282a5eb21658470"

    def test_one_flag_per_scalar_leaf(self):
        leaves = {}
        for section, body in cli.DEFAULT_CONFIG.items():
            items = body.items() if isinstance(body, dict) else [(None, body)]
            for key, default in items:
                if not isinstance(default, list):
                    leaves[f"{section}.{key}" if key else section] = default
        flags = cli._generated_flags()
        assert set(cli._FLAG_MAP) <= set(flags)
        named = [dotted for dotted, _ in flags.values()]
        assert sorted(named) == sorted(leaves)
        for dotted, typ in flags.values():
            assert typ is type(leaves[dotted]), dotted

    @pytest.mark.parametrize("command, doc, key", [
        ("segment", {"crf": {"window_radius": "3"}}, "crf.window_radius"),
        ("segment", {"crf": {"iterations": 2.5}}, "crf.iterations"),
        ("segment", {"crf": {"w_p": True}}, "crf.w_p"),
        ("fit", {"fit": {"trainable": "w_p"}}, "fit.trainable"),
    ])
    def test_wrong_type_names_file_and_key(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": []}))
        extra = ["--manifest", str(manifest)] if command == "fit" else []
        rc = cli.main([command, "--out", str(tmp_path / "o"), "--config", str(cfg)] + extra)
        assert rc == 1
        message = json.loads(capsys.readouterr().err.split("error: ", 1)[1])["message"]
        assert message.startswith(f"{cfg}: {key} must have the JSON type")

    @pytest.mark.parametrize("key, value", [("phantom.dims", [64, 64]),
                                            ("phantom.semi_axes_mm", [25.0, 22.0, 25.0, 1.0]),
                                            ("phantom.spacing", [])])
    def test_wrong_list_length_names_file_and_key(self, tmp_path, capsys, key, value):
        section, leaf = key.split(".")
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {leaf: value}}))
        rc = cli.main(["phantom", "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1
        message = json.loads(capsys.readouterr().err.split("error: ", 1)[1])["message"]
        assert message.startswith(f"{cfg}: {key} must have 3 entries")
        with pytest.raises(cli.CliError, match=re.escape(f"overrides: {key} must have 3")):
            cli.load_config(overrides={key: value})

    def test_trainable_of_any_length(self):
        for names in ([], ["w_p"], ["theta1", "theta2", "theta3", "w1", "w_p"]):
            assert cli.load_config(overrides={"fit.trainable": names})["fit"]["trainable"] == names

    @pytest.mark.parametrize("text, key", [
        ('{"crf": {"window_radius": 0}}', "crf.window_radius"),
        ('{"crf": {"iterations": 0}}', "crf.iterations"),
        ('{"crf": {"theta2": NaN}}', "crf.theta2"),
        ('{"crf": {"theta1": 0.0}}', "crf.theta1"),
        ('{"crf": {"w1": Infinity}}', "crf.w1"),
        ('{"crf": {"w_p": -Infinity}}', "crf.w_p"),
        ('{"crf": {"kernel_variant": "bogus"}}', "crf.kernel_variant"),
        ('{"fit": {"lr": NaN}}', "fit.lr"),
        ('{"fit": {"momentum": 1.5}}', "fit.momentum"),
        ('{"fit": {"epochs": -1}}', "fit.epochs"),
        ('{"fit": {"trainable": ["w_p", "bogus"]}}', "fit.trainable"),
    ])
    def test_out_of_range_named_before_inputs_are_read(self, tmp_path, capsys, text, key):
        # the case directory does not exist: the config error comes first
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        rc = cli.main(["segment", "--out", str(tmp_path / "missing"), "--config", str(cfg)])
        assert rc == 1
        message = json.loads(capsys.readouterr().err.split("error: ", 1)[1])["message"]
        assert message.startswith(f"{cfg}: {key} ")

    def test_out_of_range_override_named(self):
        with pytest.raises(cli.CliError, match=r"^overrides: fit\.momentum must"):
            cli.load_config(overrides={"fit.momentum": 1.0})
        with pytest.raises(cli.CliError, match=r"^overrides: crf\.theta3 must"):
            cli.load_config(overrides={"crf.theta3": -1.0})

    def test_negative_w_p_accepted(self):
        # a fit passes through w_p < 0, and its scalars go back into configs
        assert cli.load_config(overrides={"crf.w_p": -4.4})["crf"]["w_p"] == -4.4

    def test_int_accepted_for_float(self):
        assert cli.load_config(overrides={"crf.w_p": 2})["crf"]["w_p"] == 2

    @pytest.mark.parametrize("dotted", ["crf.bogus_knob", "bogus", "seed.x"])
    def test_unknown_override_key_named(self, dotted):
        with pytest.raises(cli.CliError, match=r"overrides: (unknown config key|seed must)"):
            cli.load_config(overrides={dotted: 1})

    def test_malformed_file_named(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"crf": ')
        with pytest.raises(cli.CliError, match=re.escape(f"{cfg}: not valid JSON")):
            cli.load_config(str(cfg))

    def test_section_given_a_scalar(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"crf": 3}')
        with pytest.raises(cli.CliError, match=re.escape(f"{cfg}: crf must be a section")):
            cli.load_config(str(cfg))
        with pytest.raises(cli.CliError, match="overrides: crf must be a section"):
            cli.load_config(overrides={"crf": 3})


class TestErrors:
    def test_single_line_machine_parsable_error(self, tmp_path):
        # the child imports the surfcrf this test imported, installed or not
        src = os.path.dirname(os.path.dirname(sc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "surfcrf.cli", "segment", "--out",
             str(tmp_path / "nothing")],
            capture_output=True, text=True, env=env)
        assert out.returncode == 1
        lines = [l for l in out.stderr.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        payload = json.loads(lines[0][len("error: "):])
        assert payload["command"] == "segment"

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        # a step that dies mid-way deletes whatever it already wrote
        from surfcrf.cli import _Step
        outdir = tmp_path / "run"
        with pytest.raises(RuntimeError):
            with _Step("demo", str(outdir), cli.DEFAULT_CONFIG, []) as step:
                with open(step.path("partial.bin"), "wb") as fh:
                    fh.write(b"half-done")
                raise RuntimeError("boom")
        assert not (outdir / "partial.bin").exists()
        assert not (outdir / "demo.prov.json").exists()

    def test_failing_subcommand_exits_nonzero(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(out)
        os.remove(out / "truth.mesh")
        rc = cli.main(["presegment", "--out", str(out)])
        assert rc == 1


class TestExternalUnary:
    def test_channel_reduce_path(self, tmp_path):
        out = run_pipeline(tmp_path / "run")
        ps = sc.load_patchset(out / "patches")
        ext = out / "external_logits"
        os.makedirs(ext)
        rng = np.random.default_rng(0)
        W = ps.graph.shape[1]
        surf = rng.normal(size=(6, W, W, ps.z_len)).astype(np.float32)
        nons = rng.normal(size=(6, W, W, ps.z_len)).astype(np.float32)
        for f in range(6):
            for name, arr in (("surface", surf), ("nonsurface", nons)):
                sc.save_svol(sc.Volume((W, W, ps.z_len), (1.0, 1.0, ps.delta),
                                       (0.0, 0.0, 0.0), arr[f]),
                             ext / f"patch{f}_{name}.svol")
        rc = cli.main(["unary", "--out", str(out), "--unary-mode", "external",
                       "--unary-scale", "1.0"] + FAST)
        assert rc == 0
        got = sc.load_svol(out / "unary0.svol").data
        expect = np.clip(surf[0].astype(np.float64) - nons[0], -30, 30)
        assert np.allclose(got, expect.astype(np.float32), atol=1e-6)

    def test_wrong_dims_name_file_and_field(self, fast_run, tmp_path):
        out = shutil.copytree(fast_run, tmp_path / "run")
        ps = sc.load_patchset(out / "patches")
        ext = out / "external_logits"
        os.makedirs(ext)
        dims = (ps.graph.shape[1] - 1, ps.graph.shape[1] - 1, ps.z_len)
        for f in range(6):
            for name in ("surface", "nonsurface"):
                sc.save_svol(sc.Volume(dims, (1.0, 1.0, ps.delta), (0.0, 0.0, 0.0),
                                       np.zeros(dims, dtype=np.float32)),
                             ext / f"patch{f}_{name}.svol")
        cfg = cli.load_config(overrides={"unary.mode": "external"})
        with pytest.raises(ValueError, match=r"patch0_surface\.svol: dims"):
            cli.cmd_unary(cfg, str(out))


def _truncate(doc):
    return {key: vals[:100] for key, vals in doc.items()}


def _short_valid(doc):
    return {**doc, "valid": doc["valid"][:100]}


def _index_out_of_column(doc):
    idx = list(doc["surface_index"])
    idx[doc["valid"].index(True)] = 999
    return {**doc, "surface_index": idx}


class TestFitCommand:
    @pytest.mark.parametrize("edit, field", [(_truncate, "surface_index"),
                                             (_short_valid, "valid"),
                                             (_index_out_of_column, "surface_index")])
    def test_ground_truth_checked_against_patch_set(self, fast_run, tmp_path, edit, field):
        run = shutil.copytree(fast_run, tmp_path / "run")
        gt_path = run / "ground_truth.json"
        gt_path.write_text(json.dumps(edit(json.loads(gt_path.read_text()))))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [str(run)]}))
        cfg = cli.load_config(overrides={"fit.epochs": 1, "crf.window_radius": 2})
        with pytest.raises(cli.CliError, match=re.escape(f"{gt_path}: {field}")):
            cli.cmd_fit(cfg, str(tmp_path / "fit"), str(manifest))

    @pytest.mark.parametrize("field", ["surface_index", "valid"])
    def test_missing_ground_truth_field_named(self, fast_run, tmp_path, capsys, field):
        run = shutil.copytree(fast_run, tmp_path / "run")
        gt_path = run / "ground_truth.json"
        doc = json.loads(gt_path.read_text())
        del doc[field]
        gt_path.write_text(json.dumps(doc))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [str(run)]}))
        rc = cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest", str(manifest),
                       "--epochs", "1"] + FAST)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"] == f"{gt_path}: missing field '{field}'"

    @pytest.mark.parametrize("text", ['{"cases": []}', '{"runs": "abc"}', '{"runs": []}',
                                      '{"runs": ["a", 1]}', '["a"]', "not json"])
    def test_bad_manifest_named(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        rc = cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest", str(manifest),
                       "--epochs", "1"] + FAST)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        what = "not valid JSON" if text == "not json" else "runs must be a non-empty list"
        assert err["message"].startswith(f"{manifest}: {what}")

    @pytest.mark.parametrize("text", ['{"surface_index": [', "[]",
                                      '{"surface_index": {}, "valid": []}'])
    def test_malformed_ground_truth_named(self, fast_run, tmp_path, capsys, text):
        run = shutil.copytree(fast_run, tmp_path / "run")
        gt_path = run / "ground_truth.json"
        gt_path.write_text(text)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [str(run)]}))
        rc = cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest", str(manifest),
                       "--epochs", "1"] + FAST)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"].startswith(f"{gt_path}: not a ground-truth JSON object")

    def test_fit_over_manifest(self, tmp_path):
        runs = []
        for seed in (0, 1):
            out = run_pipeline(tmp_path / f"run{seed}", ["--seed", str(seed)])
            runs.append(str(out))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": runs}))
        rc = cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest",
                       str(manifest), "--epochs", "3"] + FAST)
        assert rc == 0
        doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert len(doc["curve"]) == 4
        assert doc["params"]["theta1"] > 0

    def test_external_unary_mode_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": []}))
        rc = cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest",
                       str(manifest), "--unary-mode", "external"] + FAST)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["command"] == "fit"
        assert "unary.mode" in err["message"]
        with pytest.raises(cli.CliError, match=r"unary\.mode"):
            cli.cmd_fit(cli.load_config(overrides={"unary.mode": "external"}),
                        str(tmp_path / "fit"), str(manifest))
