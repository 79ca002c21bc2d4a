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
from surfcrf.quadsphere import save_arrays

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
                     "sphere.npz", "quad.npz", "patches",
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

    def test_provenance_inputs_name_what_each_step_reads(self, fast_run, tmp_path):
        # inputs inside the run directory are named relative to it, others
        # as given; segment recomputes the unary and reads nothing unary wrote
        out = shutil.copytree(fast_run, tmp_path / "run")

        def inputs(step, where=out):
            names = json.loads((where / f"{step}.prov.json").read_text())["inputs"]
            assert all(os.path.exists(os.path.join(where, n)) for n in names), names
            return names

        assert inputs("phantom") == []
        assert inputs("presegment") == ["truth.mesh"]
        assert inputs("spheremap") == ["preseg.mesh"]
        assert inputs("remesh") == ["preseg.mesh", "sphere.npz"]
        assert inputs("patches") == ["volume.svol", "quad.npz", "truth.mesh"]
        assert inputs("unary") == inputs("segment") == ["patches"]
        assert inputs("metrics") == ["pred.mesh", "truth.mesh", "labels.svol"]

        ps = sc.load_patchset(out / "patches")
        dims = (*ps.graph.shape[1:], ps.z_len)
        for ext in (out / "external_logits", tmp_path / "elsewhere"):
            os.makedirs(ext)
            for f in range(6):
                for name in ("surface", "nonsurface"):
                    sc.save_svol(sc.Volume(dims, (1.0, 1.0, ps.delta), (0.0, 0.0, 0.0),
                                           np.zeros(dims, dtype=np.float32)),
                                 ext / f"patch{f}_{name}.svol")
        for flags, ext in (([], "external_logits"),
                           (["--external-dir", str(tmp_path / "elsewhere")],
                            str(tmp_path / "elsewhere"))):
            files = [os.path.join(ext, f"patch{f}_{name}.svol")
                     for name in ("surface", "nonsurface") for f in range(6)]
            for step in ("unary", "segment"):
                assert cli.main([step, "--out", str(out), "--unary-mode", "external"]
                                + flags + FAST) == 0
                assert inputs(step) == ["patches"] + files

        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [str(out)]}))
        assert cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest", str(manifest),
                         "--epochs", "1"] + FAST) == 0
        assert inputs("fit", tmp_path / "fit") == [
            str(manifest), str(out / "patches"), str(out / "ground_truth.json")]

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

    def test_metrics_read_the_grid_of_labels_svol(self, fast_run, tmp_path):
        # metrics.json from labels.svol's grid equals the one from volume.svol's
        out = shutil.copytree(fast_run, tmp_path / "run")
        os.remove(out / "volume.svol")
        assert cli.main(["metrics", "--out", str(out)] + FAST) == 0
        assert (out / "metrics.json").read_bytes() == (fast_run / "metrics.json").read_bytes()

    def test_non_binary_labels_named(self, fast_run, tmp_path, capsys):
        out = shutil.copytree(fast_run, tmp_path / "run")
        labels = sc.load_svol(out / "labels.svol")
        labels.data[0, 0, 0] = 0.5
        sc.save_svol(labels, out / "labels.svol")
        assert cli.main(["metrics", "--out", str(out)] + FAST) == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"] == f"{out / 'labels.svol'}: not a binary label volume"

    def test_open_preseg_mesh_named(self, fast_run, tmp_path, capsys):
        out = shutil.copytree(fast_run, tmp_path / "run")
        pre = sc.load_mesh(out / "preseg.mesh")
        sc.save_mesh(sc.TriMesh(vertices=pre.vertices, faces=pre.faces[1:]), out / "preseg.mesh")
        assert cli.main(["spheremap", "--out", str(out)] + FAST) == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"].startswith(f"{out / 'preseg.mesh'}: harmonic_sphere_map requires "
                                         f"a closed genus-0 mesh")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda pos: sc.icosphere(2).vertices,
                     "'positions' has shape (162, 3) and dtype float64, expected (642, 3)",
                     id="icosphere2"),
        pytest.param(lambda pos: sc.icosphere(4).vertices,
                     "'positions' has shape (2562, 3) and dtype float64, expected (642, 3)",
                     id="icosphere4"),
        pytest.param(lambda pos: np.where(np.arange(len(pos))[:, None] == 7, np.nan, pos),
                     "'positions' must be finite", id="non-finite"),
        pytest.param(lambda pos: pos * np.random.default_rng(0).uniform(1, 2, (len(pos), 1)),
                     "'positions' rows must have unit length", id="scaled"),
    ])
    def test_remesh_rejects_sphere_map_of_another_mesh(self, fast_run, tmp_path, capsys, edit,
                                                       message):
        # remesh reads its topology from preseg.mesh and its positions from
        # sphere.npz: a sphere map of another mesh failed with an unnamed
        # IndexError or was remeshed from the wrong positions; NaN positions
        # would reach quad.npz
        out = shutil.copytree(fast_run, tmp_path / "run")
        np.savez(out / "sphere.npz", positions=edit(np.load(out / "sphere.npz")["positions"]))
        assert cli.main(["remesh", "--out", str(out)] + FAST) == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"].startswith(f"{out / 'sphere.npz'}: {message}")

    @pytest.mark.parametrize("name, command, edit, message", [
        pytest.param("quad.npz", "patches",
                     lambda a: np.where(np.arange(len(a))[:, None] == 40, np.nan, a),
                     "'normals' must be finite", id="quad-nan-normal"),
        pytest.param("quad.npz", "patches", lambda a: 2.0 * a,
                     "'normals' rows must have unit length", id="quad-doubled-normals"),
        pytest.param("patches/geometry.npz", "segment",
                     lambda a: np.where(np.arange(len(a))[:, None] == 40, np.nan, a),
                     "'normals' must be finite", id="geometry-nan-normal"),
    ])
    def test_bad_normals_named_by_the_step_that_reads_them(self, fast_run, tmp_path, capsys,
                                                           name, command, edit, message):
        # a NaN quad normal failed in patches with an unnamed IndexError, a
        # NaN geometry row reached pred.mesh, and doubled normals sampled the
        # columns at twice the spacing without an error
        out = shutil.copytree(fast_run, tmp_path / "run")
        arrays = dict(np.load(out / name))
        arrays["normals"] = edit(arrays["normals"])
        save_arrays(out / name, **arrays)
        assert cli.main([command, "--out", str(out)] + FAST) == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"].startswith(f"{out / name}: {message}")

    def test_non_finite_volume_named_by_patches(self, fast_run, tmp_path, capsys):
        # NaN voxels near the surface were sampled into the face grids and
        # blamed on patches/patch*.svol by the next step
        out = shutil.copytree(fast_run, tmp_path / "run")
        vol = sc.load_svol(out / "volume.svol")
        vol.data[54:58, 30:34, 30:34] = np.nan
        sc.save_svol(vol, out / "volume.svol")
        assert cli.main(["patches", "--out", str(out)] + FAST) == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"] == (f"{out / 'volume.svol'}: data must be finite, "
                                  f"found 64 non-finite values")

    @pytest.mark.parametrize("command", ["unary", "segment", "fit"])
    def test_invalid_patchset_json_named(self, fast_run, tmp_path, capsys, command):
        out = shutil.copytree(fast_run, tmp_path / "run")
        (out / "patches" / "patchset.json").write_text("{level: 3}")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [str(out)]}))
        extra = ["--manifest", str(manifest), "--epochs", "1"] if command == "fit" else []
        dest = tmp_path / "fit" if command == "fit" else out
        assert cli.main([command, "--out", str(dest)] + extra + FAST) == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"].startswith(f"{out / 'patches' / 'patchset.json'}: not valid JSON")


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
        crfmod._cached_pair_edges.cache_clear()
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
        # every default run records this config_hash in its provenance; it
        # changes with the default config's keys (8282a5eb21658470 while the
        # fit section held lr and momentum)
        assert cli._config_hash(cli.load_config()) == "10c6406f664472e4"

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
        ('{"crf": {"w_p": -4.4}}', "crf.w_p"),
        ('{"crf": {"w1": -0.1}}', "crf.w1"),
        ('{"unary": {"scale": NaN}}', "unary.scale"),
        ('{"unary": {"scale": Infinity}}', "unary.scale"),
        ('{"unary": {"scale": 0}}', "unary.scale"),
        ('{"unary": {"scale": -6.0}}', "unary.scale"),
        ('{"fit": {"epochs": -1}}', "fit.epochs"),
        ('{"fit": {"trainable": ["w_p", "bogus"]}}', "fit.trainable"),
        # the sections between phantom and patches: each of these ran to the
        # end silently or failed in a later step without naming the key
        ('{"phantom": {"noise_sigma": -0.3}}', "phantom.noise_sigma"),
        ('{"phantom": {"blur_sigma_mm": -1}}', "phantom.blur_sigma_mm"),
        ('{"phantom": {"mesh_subdivisions": -1}}', "phantom.mesh_subdivisions"),
        ('{"phantom": {"kind": "torus"}}', "phantom.kind"),
        ('{"phantom": {"dims": [0, 64, 64]}}', "phantom.dims"),
        ('{"phantom": {"spacing": [1.0, 0.0, 1.0]}}', "phantom.spacing"),
        ('{"phantom": {"semi_axes_mm": [40.0, 22.0, 25.0]}}', "phantom.semi_axes_mm"),
        ('{"phantom": {"kind": "bumpy", "radius_mm": 30.0}}', "phantom.radius_mm"),
        ('{"preseg": {"smooth_iterations": -3}}', "preseg.smooth_iterations"),
        ('{"preseg": {"perturb_amplitude_mm": -3.0}}', "preseg.perturb_amplitude_mm"),
        ('{"preseg": {"perturb_components": -2}}', "preseg.perturb_components"),
        ('{"spheremap": {"damping": 0}}', "spheremap.damping"),
        ('{"spheremap": {"max_iters": 0}}', "spheremap.max_iters"),
        ('{"spheremap": {"tol": -1}}', "spheremap.tol"),
        ('{"quad": {"recursion": -1}}', "quad.recursion"),
        ('{"patches": {"column_len": 1}}', "patches.column_len"),
        # the gradient unary's central differences need 3 samples a column
        ('{"patches": {"column_len": 2}}', "patches.column_len"),
        ('{"patches": {"column_res_mm": 0}}', "patches.column_res_mm"),
        ('{"patches": {"pad": -1}}', "patches.pad"),
        ('{"patches": {"pad": 99}}', "patches.pad"),
        ('{"quad": {"recursion": 2}, "patches": {"pad": 5}}', "patches.pad"),
        ('{"unary": {"mode": "cnn"}}', "unary.mode"),
        ('{"unary": {"polarity": "up"}}', "unary.polarity"),
    ])
    def test_out_of_range_named_before_inputs_are_read(self, tmp_path, capsys, text, key):
        # the case directory does not exist: the config error comes first
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        rc = cli.main(["segment", "--out", str(tmp_path / "missing"), "--config", str(cfg)])
        assert rc == 1
        message = json.loads(capsys.readouterr().err.split("error: ", 1)[1])["message"]
        assert message.startswith(f"{cfg}: {key} ")

    def test_two_sample_columns_load_in_external_mode(self):
        cfg = cli.load_config(overrides={"patches.column_len": 2, "unary.mode": "external"})
        assert cfg["patches"]["column_len"] == 2

    @pytest.mark.parametrize("doc, overrides", [
        ({"patches": {"column_len": 2}}, {"unary.mode": "external"}),
        ({"quad": {"recursion": 1}}, {"patches.pad": 1}),
    ])
    def test_ranges_checked_after_the_overrides(self, tmp_path, doc, overrides):
        # a file value that only the overrides make valid loads
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        loaded = cli.load_config(str(cfg), overrides)
        for dotted, value in overrides.items():
            section, key = dotted.split(".")
            assert loaded[section][key] == value

    def test_range_error_names_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"quad": {"recursion": 1}}')
        with pytest.raises(cli.CliError, match="^" + re.escape(f"{cfg} + overrides: patches.pad ")):
            cli.load_config(str(cfg), {"patches.pad": 3})

    def test_out_of_range_override_named(self):
        with pytest.raises(cli.CliError, match=r"^overrides: fit\.epochs must"):
            cli.load_config(overrides={"fit.epochs": -1})
        with pytest.raises(cli.CliError, match=r"^overrides: crf\.theta3 must"):
            cli.load_config(overrides={"crf.theta3": -1.0})
        with pytest.raises(cli.CliError, match=r"^overrides: unary\.scale must"):
            cli.load_config(overrides={"unary.scale": 0.0})

    def test_negative_w_p_rejected(self):
        # the fit bounds w_p >= 0, so no fitted scalars are negative; w_p = 0
        # switches the pairwise term off
        with pytest.raises(cli.CliError, match=r"^overrides: crf\.w_p must"):
            cli.load_config(overrides={"crf.w_p": -4.4})
        assert cli.load_config(overrides={"crf.w_p": 0.0})["crf"]["w_p"] == 0.0

    def test_unary_scale_flag_named(self, tmp_path, capsys):
        # before the range check, NaN reached the fit and failed there,
        # naming neither the flag's key nor its source
        rc = cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest",
                       str(tmp_path / "missing.json"), "--unary-scale", "nan"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"] == "overrides: unary.scale must be a finite number > 0, got nan"

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


class TestParser:
    @pytest.mark.parametrize("command", ["phantom", "presegment", "spheremap", "remesh",
                                         "patches", "unary", "segment", "fit", "metrics",
                                         "pipeline"])
    def test_every_command_parses(self, command):
        args = cli._build_parser().parse_args([command, "--out", "o", "--w-p", "0.5"])
        assert (args.command, args.out, getattr(args, "crf.w_p")) == (command, "o", 0.5)

    @pytest.mark.parametrize("argv", [["fit", "--out", "o"],
                                      ["segment", "--out", "o", "--manifest", "m.json"]])
    def test_manifest_with_fit_only(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--manifest" in capsys.readouterr().err


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
            with _Step("demo", str(outdir), cli.DEFAULT_CONFIG) as step:
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("grid", ["external_logits/patch2_surface.svol",
                                      "patches/patch2.svol"])
    def test_non_finite_face_grid_named(self, fast_run, tmp_path, capsys, grid, value):
        # a NaN at an owner slot gave NaN logits, one elsewhere was ignored,
        # and an inf was clamped to the logit bound, each without an error
        out = shutil.copytree(fast_run, tmp_path / "run")
        ps = sc.load_patchset(out / "patches")
        dims = (*ps.graph.shape[1:], ps.z_len)
        os.makedirs(out / "external_logits")
        for f in range(6):
            for name in ("surface", "nonsurface"):
                sc.save_svol(sc.Volume(dims, (1.0, 1.0, ps.delta), (0.0, 0.0, 0.0),
                                       np.zeros(dims, dtype=np.float32)),
                             out / "external_logits" / f"patch{f}_{name}.svol")
        vol = sc.load_svol(out / grid)
        slot = np.unravel_index(ps.graph.owner[100], ps.graph.shape)[1:]
        vol.data[(*slot, 3)] = value
        sc.save_svol(vol, out / grid)
        mode = "external" if grid.startswith("external") else "gradient"
        rc = cli.main(["unary", "--out", str(out), "--unary-mode", mode] + FAST)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"].startswith(f"{out / grid}: data must be finite")


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
                                      '{"surface_index": {}, "valid": []}',
                                      '{"surface_index": [%d], "valid": [false]}' % 2 ** 63])
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

    @pytest.mark.parametrize("field, edit", [
        pytest.param("surface_index", lambda g: g + 0.4, id="fractional-index"),
        pytest.param("surface_index", lambda g: g == 1, id="boolean-index"),
        pytest.param("surface_index", lambda g: [g, g], id="nested-index"),
        pytest.param("valid", lambda v: 2 * v, id="integer-valid"),
    ])
    def test_ground_truth_types_named(self, fast_run, tmp_path, capsys, edit, field):
        # fractional indices were truncated, booleans taken for indices and
        # integers for booleans, and nested lists failed without a name
        run = shutil.copytree(fast_run, tmp_path / "run")
        gt_path = run / "ground_truth.json"
        doc = json.loads(gt_path.read_text())
        gt_path.write_text(json.dumps({**doc, field: [edit(x) for x in doc[field]]}))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [str(run)]}))
        rc = cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest", str(manifest),
                       "--epochs", "1"] + FAST)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().split("error: ", 1)[1])
        assert err["message"].startswith(f"{gt_path}: not a ground-truth JSON object: "
                                         f"{field} must be a flat list of")

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
        assert doc["stop"] == "budget"
        assert doc["params"]["theta1"] > 0

    def test_fit_echoes_its_config(self, fast_run, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [str(fast_run)]}))
        assert cli.main(["fit", "--out", str(tmp_path / "fit"), "--manifest", str(manifest),
                         "--epochs", "1"] + FAST) == 0
        echo = json.loads((tmp_path / "fit" / "config.echo.json").read_text())
        assert echo == cli.load_config(overrides={
            "fit.epochs": 1, "quad.recursion": 3, "patches.column_len": 16,
            "patches.column_res_mm": 1.25, "patches.pad": 2, "crf.window_radius": 2})

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
