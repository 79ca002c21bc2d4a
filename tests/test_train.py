import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import surfcrf as sc
from surfcrf import crf, train
from surfcrf.crf import LOGIT_CLAMP, softmax
from surfcrf.patches import make_toy_graph
from surfcrf.train import _softmax_backward, central_difference, relative_error

from conftest import make_pipeline_inputs, record_kernel, record_message_pass


def toy_instance(h=4, w=4, z=8, seed=0, valid_frac=1.0):
    rng = np.random.default_rng(seed)
    graph = make_toy_graph(h, w)
    logits = rng.normal(size=(1, h, w, z))
    u = sc.unary_from_logits(graph, logits)
    valid = rng.random(graph.n_vertices) < valid_frac
    if not valid.any():
        valid[0] = True
    gt = sc.GroundTruth(surface_index=rng.integers(0, z, graph.n_vertices), valid=valid)
    return u, gt


def ref_meanfield_grad(u, params, gt, unary_scale=1.0, ps=None):
    """The vertex-graph reference of meanfield_grad: its own forward on the
    record reference's weights (conftest.record_kernel), then a per-entry
    reverse pass, in which each record e = (i, j) sends w_e dQ~[i] to j and
    takes the weight gradient dw_e = sum_t <dQ~_t[i], Q_in,t[j]>, and the
    kernel scalars' gradients are sums over the records.  Returns (loss,
    grads, dlogits) as meanfield_grad does."""
    graph = u.graph
    rec = record_kernel(sc.unary_from_logits(graph, unary_scale * u.logits), params, ps=ps)
    raw = graph.merge(u.logits)
    l = np.clip(unary_scale * raw, -LOGIT_CLAMP, LOGIT_CLAMP)
    m = sc.compat_matrix(u.z_len, params.theta_comp)
    q = softmax(l)
    tape = []
    for _ in range(params.iterations):
        q_in = q
        q_tilde = record_message_pass(rec, q_in)
        q_hat = q_tilde @ m
        q = softmax(l - params.w_p * q_hat)
        tape.append((q_in, q_tilde, q_hat, q))
    loss = sc.mce_loss(q, gt)

    rows = np.nonzero(gt.valid)[0]
    g_idx = gt.surface_index[rows]
    dq = np.zeros_like(q)
    dq[rows, g_idx] = -1.0 / (len(rows) * q[rows, g_idx])
    dl = np.zeros_like(l)
    dwp = 0.0
    dm = np.zeros_like(m)
    dw = np.zeros(rec.w.size)
    for q_in, q_tilde, q_hat, q in reversed(tape):
        ds = _softmax_backward(q, dq)
        dl += ds
        dq_hat = -params.w_p * ds
        dwp += float(-(ds * q_hat).sum())
        dq_tilde = dq_hat @ m.T
        dm += q_tilde.T @ dq_hat
        dw += np.einsum("ez,ez->e", dq_tilde[rec.rows], q_in[rec.cols])
        dq = np.zeros_like(dq_tilde)
        np.add.at(dq, rec.cols, rec.w[:, None] * dq_tilde[rec.rows])
    dl += _softmax_backward(softmax(l), dq)
    dl = np.where(np.abs(unary_scale * raw) <= LOGIT_CLAMP, dl, 0.0)

    idx = np.arange(u.z_len)
    delta2 = (idx[:, None] - idx[None, :]) ** 2
    dmu_dtc = -np.exp(-delta2 / params.theta_comp ** 2) * (2.0 * delta2 / params.theta_comp ** 3)
    grads = {"w_p": dwp,
             "w1": float((dw * rec.sm).sum()),
             "theta1": float((dw * rec.app * rec.d2).sum() / params.theta1 ** 3),
             "theta2": float((dw * rec.app * rec.fd).sum() / params.theta2 ** 3),
             "theta3": float((dw * params.w1 * rec.sm * rec.d2).sum() / params.theta3 ** 3),
             "theta_comp": float((dm * dmu_dtc).sum()),
             "unary_scale": float((dl * raw).sum())}
    return loss, grads, unary_scale * dl


class TestMce:
    def test_uniform_is_log_z(self):
        z = 64
        q = np.full((10, z), 1.0 / z)
        gt = sc.GroundTruth(surface_index=np.zeros(10, dtype=np.int64),
                            valid=np.ones(10, dtype=bool))
        assert sc.mce_loss(q, gt) == pytest.approx(math.log(z), abs=1e-12)

    def test_one_hot_at_truth_is_zero(self):
        g = np.asarray([2, 5, 1])
        q = np.eye(8)[g]
        gt = sc.GroundTruth(surface_index=g, valid=np.ones(3, dtype=bool))
        assert sc.mce_loss(q, gt) == 0.0

    def test_two_column_hand_case(self):
        q = np.asarray([[0.7, 0.3], [0.2, 0.8]])
        gt = sc.GroundTruth(surface_index=np.asarray([0, 1]),
                            valid=np.ones(2, dtype=bool))
        expect = -(math.log(0.7) + math.log(0.8)) / 2.0
        assert sc.mce_loss(q, gt) == pytest.approx(expect, abs=1e-12)

    def test_invalid_columns_excluded(self):
        q = np.asarray([[0.5, 0.5], [1e-9, 1.0 - 1e-9]])
        gt = sc.GroundTruth(surface_index=np.asarray([0, 0]),
                            valid=np.asarray([True, False]))
        assert sc.mce_loss(q, gt) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_no_valid_columns(self):
        gt = sc.GroundTruth(surface_index=np.zeros(2, dtype=np.int64),
                            valid=np.zeros(2, dtype=bool))
        with pytest.raises(ValueError):
            sc.mce_loss(np.full((2, 4), 0.25), gt)


class TestMeanfieldGrad:
    def test_wp_zero_is_softmax_ce_gradient(self):
        u, gt = toy_instance(seed=3)
        params = sc.CrfParams(w_p=0.0, iterations=4, window_radius=2)
        rep = sc.meanfield_grad(u, params, gt)
        q = u.graph.merge(softmax(u.logits))
        onehot = np.zeros_like(q)
        rows = np.nonzero(gt.valid)[0]
        onehot[rows, gt.surface_index[rows]] = 1.0
        expect = (q - onehot) / len(rows)
        assert rep.dlogits.shape == (u.graph.n_vertices, u.z_len)
        assert np.abs(rep.dlogits - expect).max() <= 1e-12

    def test_theta_comp_gradient_vanishes_at_infinity(self):
        u, gt = toy_instance(seed=4)
        params = sc.CrfParams(theta_comp=1e6, iterations=2, window_radius=1)
        rep = sc.meanfield_grad(u, params, gt)
        assert abs(rep.grads["theta_comp"]) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        u, gt = toy_instance(seed=seed)
        params = sc.CrfParams(window_radius=2, iterations=2, theta2=0.5)
        errs = sc.fd_check(u, params, gt, unary_scale=1.1, n_logits=40, seed=seed)
        assert errs["max"] <= 1e-3

    def test_partial_validity(self):
        u, gt = toy_instance(seed=9, valid_frac=0.6)
        params = sc.CrfParams(window_radius=1, iterations=3)
        errs = sc.fd_check(u, params, gt, n_logits=30)
        assert errs["max"] <= 1e-3

    def test_clamped_logits_have_zero_gradient(self):
        # at scale 20 some |scale * logit| exceed the clamp; the clamp's
        # derivative is zero there for the logits and for the unary scale
        u, gt = toy_instance(seed=0)
        params = sc.CrfParams(window_radius=2, iterations=2, theta2=0.5)
        rep = sc.meanfield_grad(u, params, gt, unary_scale=20.0)
        binds = np.abs(20.0 * u.graph.merge(u.logits)) > LOGIT_CLAMP
        assert binds.any()
        assert (rep.dlogits[binds] == 0.0).all()
        assert (rep.dlogits[~binds] != 0.0).any()
        errs = sc.fd_check(u, params, gt, unary_scale=20.0, n_logits=1)
        assert errs["unary_scale"] <= 1e-6

    def test_matches_slot_reference_on_phantom(self):
        # meanfield_grad against the record reference on a padded r=3
        # instance: the same marginals, so the same loss, and gradients that
        # differ only by summation order
        (ps, u, gt), = phantom_fit_dataset(seeds=[0])
        params = sc.prostate_params()
        for scale in (1.0, 3.0):
            rep = sc.meanfield_grad(u, params, gt, unary_scale=scale, ps=ps)
            loss, grads, dlogits = ref_meanfield_grad(u, params, gt, unary_scale=scale, ps=ps)
            assert rep.loss == loss
            for name, g in grads.items():
                assert abs(rep.grads[name] - g) <= 1e-13 * abs(g), name
            assert np.abs(rep.dlogits - dlogits).max() <= 1e-13 * np.abs(dlogits).max()

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    @pytest.mark.parametrize("variant", ["probability", "intensity"])
    def test_contracted_weight_gradients_match_per_edge(self, iterations, variant):
        # the four kernel-scalar gradients as sparse products against the
        # per-entry weight gradient, and the adjoint through W against the
        # per-entry scatter: the same sums in another order
        (ps, u, gt), = phantom_fit_dataset(seeds=[0])
        rng = np.random.default_rng(iterations)
        toys = [(SimpleNamespace(samples=rng.normal(size=t[0].logits.shape)), *t)
                for t in (toy_instance(5, 6, z=7, seed=iterations),
                          toy_instance(3, 4, z=5, seed=10 + iterations, valid_frac=0.5))]
        for ps_i, u_i, gt_i in [(ps, u, gt), *toys]:
            params = sc.prostate_params(iterations=iterations, kernel_variant=variant)
            for scale in (1.0, 6.0):
                rep = sc.meanfield_grad(u_i, params, gt_i, unary_scale=scale, ps=ps_i)
                loss, grads, dl = ref_meanfield_grad(u_i, params, gt_i, scale, ps_i)
                assert rep.loss == loss
                for name, g in grads.items():
                    assert abs(rep.grads[name] - g) <= 1e-13 * abs(g), (name, scale)
                assert np.abs(rep.dlogits - dl).max() <= 1e-13 * np.abs(dl).max()

    def test_fd_on_padded_graph(self):
        # seams, pad duplicates and corner blocks: the picks are (vertex,
        # label) logits, merged from the owner slots
        (ps, u, gt), = phantom_fit_dataset(seeds=[0])
        errs = sc.fd_check(u, sc.prostate_params(iterations=2), gt, n_logits=40, ps=ps)
        assert errs["max"] <= 1e-3

    def test_scale_below_one_rejected_where_the_clamp_binds(self):
        # the fit clamps the logits and then scales them, inference clamps
        # the scaled logits once: the same from scale 1 up; below it a logit
        # at the clamp gives the fit another loss (16.05 against 23.03 at
        # scale 0.5 here)
        rng = np.random.default_rng(0)
        graph = make_toy_graph(4, 4)
        raw = rng.normal(0.0, 30.0, size=(1, 4, 4, 8))
        gt = sc.GroundTruth(surface_index=rng.integers(0, 8, graph.n_vertices),
                            valid=np.ones(graph.n_vertices, dtype=bool))
        u = sc.unary_from_logits(graph, raw)
        params = sc.CrfParams()
        for scale in (1.0, 2.0):
            lab = sc.meanfield_infer(sc.unary_from_logits(graph, scale * raw), params)
            assert sc.meanfield_grad(u, params, gt, unary_scale=scale).loss == \
                sc.mce_loss(lab.q, gt)
        with pytest.raises(ValueError, match="^unary_scale must be >= 1 where a logit sits"):
            sc.meanfield_grad(u, params, gt, unary_scale=0.5)
        with pytest.raises(sc.FitDivergedError, match="unary_scale must be >= 1"):
            sc.fit([(None, u, gt)], params, sc.FitConfig(epochs=2), unary_scale=0.5)
        # below scale 1 without a logit at the clamp, the two still agree
        u, gt = toy_instance(seed=6)
        lab = sc.meanfield_infer(sc.unary_from_logits(u.graph, 0.5 * u.logits), params)
        assert sc.meanfield_grad(u, params, gt, unary_scale=0.5).loss == sc.mce_loss(lab.q, gt)

    def test_all_gradients_finite(self):
        u, gt = toy_instance(seed=5, z=12)
        rep = sc.meanfield_grad(u, sc.CrfParams(window_radius=2), gt, unary_scale=3.0)
        assert np.isfinite(rep.loss)
        assert np.isfinite(rep.dlogits).all()
        assert all(np.isfinite(v) for v in rep.grads.values())


class TestFdHarness:
    def test_quadratic_toy_is_exact(self):
        # central differences are exact for quadratics up to roundoff
        a, b = 3.0, 2.0
        fn = lambda x: a * x * x + b * x
        for x0 in (0.0, 1.7, -4.2):
            num = central_difference(fn, x0, 1e-3)
            assert relative_error(num, 2 * a * x0 + b) <= 1e-10

    def test_default_instance_within_tolerance(self):
        u, gt = toy_instance(seed=11)
        errs = sc.fd_check(u, sc.CrfParams(window_radius=2, iterations=2), gt,
                           n_logits=20)
        assert errs["max"] <= 1e-3

    def test_large_step_degrades(self):
        u, gt = toy_instance(seed=12)
        params = sc.CrfParams(window_radius=2, iterations=2)
        small = sc.fd_check(u, params, gt, scalar_step=1e-3, n_logits=10, seed=0)
        big = sc.fd_check(u, params, gt, scalar_step=0.5, n_logits=10, seed=0)
        assert big["max"] > small["max"]


def phantom_fit_dataset(n=3, seeds=None):
    dataset = []
    for seed in seeds or range(n):
        run = make_pipeline_inputs(seed=seed, recursion=3, z_len=16, delta=1.25,
                                   subdivisions=3)
        u = sc.gradient_unary(run["ps"], polarity="bright_to_dark")
        dataset.append((run["ps"], u, run["gt"]))
    return dataset


class TestFit:
    def test_zero_epochs_returns_init(self):
        u, gt = toy_instance(seed=20)
        init = sc.prostate_params(window_radius=1, iterations=2)
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=0), unary_scale=2.0)
        assert res.params == init
        assert res.unary_scale == 2.0
        assert len(res.curve) == 1
        assert res.stop == "budget"

    def test_loss_non_increasing_when_truth_matches_argmax(self):
        u, _ = toy_instance(seed=21)
        gt = sc.GroundTruth(surface_index=u.argmax_labels(),
                            valid=np.ones(u.graph.n_vertices, dtype=bool))
        init = sc.CrfParams(w_p=0.2, window_radius=1, iterations=2)
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=2))
        assert len(res.curve) == 3
        assert res.curve[1] <= res.curve[0] + 1e-12

    def test_widths_stay_positive(self):
        u, gt = toy_instance(seed=22)
        init = sc.CrfParams(theta2=0.05, window_radius=1, iterations=2)
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=25))
        for name in ("theta1", "theta2", "theta3", "theta_comp"):
            assert getattr(res.params, name) > 0

    def test_deterministic(self):
        u, gt = toy_instance(seed=23)
        init = sc.prostate_params(window_radius=1, iterations=2)
        cfg = sc.FitConfig(epochs=5)
        r1 = sc.fit([(None, u, gt)], init, cfg)
        r2 = sc.fit([(None, u, gt)], init, cfg)
        assert r1.to_json() == r2.to_json()

    def test_respects_trainable_flags(self):
        u, gt = toy_instance(seed=24)
        init = sc.prostate_params(window_radius=1, iterations=2)
        cfg = sc.FitConfig(epochs=5, trainable=("unary_scale",))
        res = sc.fit([(None, u, gt)], init, cfg)
        assert res.params == init
        assert res.unary_scale != 1.0

    def test_no_trainable_scalars_evaluates_once(self, monkeypatch):
        u, gt = toy_instance(seed=24)
        init = sc.prostate_params(window_radius=1, iterations=2)
        calls = []
        grad = train.meanfield_grad
        monkeypatch.setattr(train, "meanfield_grad",
                            lambda *a, **k: calls.append(1) or grad(*a, **k))
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=5, trainable=()),
                     unary_scale=2.0)
        assert len(calls) == 1
        assert (res.params, res.unary_scale) == (init, 2.0)
        assert res.curve.tolist() == [res.curve[0]] * 2
        assert res.stop == "no trainable scalars"

    def test_stops_on_budget(self):
        u, gt = toy_instance(seed=23)
        init = sc.prostate_params(window_radius=1, iterations=2)
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=4))
        assert res.stop == "budget"
        assert len(res.curve) == 5
        assert res.curve[-1] == res.curve[:-1].min()

    def test_stops_on_convergence(self):
        # the toy's labels are random, so the fit flattens the unary towards
        # the uniform column (MCE log 8) and converges well inside the budget
        u, gt = toy_instance(seed=23)
        init = sc.prostate_params(window_radius=1, iterations=2)
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=200))
        assert res.stop.startswith("CONVERGENCE")
        assert len(res.curve) < 201
        assert res.curve[-1] == res.curve[:-1].min()
        assert res.curve[-1] < res.curve[0]

    def test_nonpositive_unary_scale_rejected(self):
        u, gt = toy_instance(seed=23)
        for scale in (0.0, -6.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^unary_scale must"):
                sc.fit([(None, u, gt)], sc.CrfParams(), sc.FitConfig(epochs=1),
                       unary_scale=scale)

    def test_pair_mask_built_once_per_instance(self, monkeypatch):
        calls = []
        build = crf.pair_edges
        monkeypatch.setattr(crf, "pair_edges",
                            lambda graph, offsets: calls.append(graph) or build(graph, offsets))
        dataset = [(None, *toy_instance(seed=s)) for s in (25, 26)]
        init = sc.prostate_params(window_radius=1, iterations=2)
        sc.fit(dataset, init, sc.FitConfig(epochs=3))
        assert len(calls) == 2
        kf = crf.compute_kernel(dataset[0][1], init)
        assert len(calls) == 2
        hits = crf._cached_pair_edges.cache_info().hits
        edges = crf._cached_pair_edges(kf.graph, init.window_radius)
        assert crf._cached_pair_edges.cache_info().hits == hits + 1
        assert len(calls) == 2
        for name, arr in zip(edges._fields, edges):
            assert arr.dtype == (np.uint8 if name == "k" else np.int32), name
            assert not arr.flags.writeable

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            sc.fit([], sc.prostate_params(), sc.FitConfig())

    def test_pinned_r3_fit(self):
        # one r=3 instance, three L-BFGS-B evaluations at the CLI defaults
        # (unary scale 6): the scalars and curve of this fit, so that a
        # change of the gradient arithmetic or of the optimizer shows as a
        # number
        (ps, u, gt), = phantom_fit_dataset(seeds=[0])
        res = sc.fit([(ps, u, gt)], sc.CrfParams(), sc.FitConfig(epochs=3), unary_scale=6.0)
        want = {"w_p": 0.9600547801663522, "w1": 2.8759856871707083,
                "theta1": 4.993274987560955, "theta2": 0.1992135381137941,
                "theta3": 3.9190222675069126, "theta_comp": 14.251560700209337}
        for name, value in want.items():
            assert getattr(res.params, name) == pytest.approx(value, rel=1e-12, abs=0), name
        assert res.unary_scale == pytest.approx(6.309892083691611, rel=1e-12, abs=0)
        curve = [15.236673576299422, 3.588896860416268, 3.294933649542739, 3.294933649542739]
        assert res.curve == pytest.approx(curve, rel=1e-12, abs=0)
        assert res.stop == "budget"

    def test_small_phantom_set_reduces_mce(self):
        dataset = phantom_fit_dataset(3)
        init = sc.prostate_params()
        res = sc.fit(dataset, init, sc.FitConfig(epochs=30), unary_scale=1.0)
        assert res.curve[-1] <= 0.8 * res.curve[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sc.FitConfig(trainable=("nonsense",))
        # the CLI puts the section before the message to name the dotted key
        # a float epochs would reach scipy as a fractional evaluation limit
        for field, value in [("epochs", -1), ("epochs", 2.5), ("epochs", True), ("epochs", "3"),
                             ("trainable", ("w_p", "bogus"))]:
            with pytest.raises(ValueError, match=f"^{field} "):
                sc.FitConfig(**{field: value})
        assert sc.FitConfig(epochs=np.int64(2)).epochs == 2
        assert [f.name for f in dataclasses.fields(sc.FitConfig)] == ["epochs", "trainable"]


def _fail_on_call(monkeypatch, n, exc=RuntimeError("non-finite gradient for w_p")):
    """Make train.meanfield_grad raise ``exc`` on its n-th call; returns
    the list of calls made."""
    calls = []
    grad = train.meanfield_grad

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise exc
        return grad(*args, **kwargs)
    monkeypatch.setattr(train, "meanfield_grad", failing)
    return calls


class TestFitDivergence:
    def test_divergence_raises_with_epoch(self, monkeypatch):
        # only a failed first evaluation raises: there is no point to return
        u, gt = toy_instance(seed=30, z=4)
        _fail_on_call(monkeypatch, 1)
        with pytest.raises(sc.FitDivergedError, match="initial scalars: non-finite gradient"):
            sc.fit([(None, u, gt)], sc.CrfParams(window_radius=1, iterations=1),
                   sc.FitConfig(epochs=10), unary_scale=1.0)

    def test_failed_trial_ends_at_best_point(self, monkeypatch):
        u, gt = toy_instance(seed=30, z=4)
        init = sc.CrfParams(window_radius=1, iterations=1)
        want = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=2), unary_scale=1.0)
        calls = _fail_on_call(monkeypatch, 3)
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=10), unary_scale=1.0)
        assert len(calls) == 3
        assert res.stop == "failed trial"
        assert res.curve.tolist() == want.curve.tolist()
        assert len(res.curve) == 3 and np.isfinite(res.curve).all()
        assert res.to_json() == want.to_json().replace('"budget"', '"failed trial"')

    def test_rejected_trial_point_ends_fit(self, monkeypatch):
        # a trial point CrfParams rejects (a width whose exp under- or
        # overflows) ends the fit like a non-finite one
        u, gt = toy_instance(seed=30, z=4)
        init = sc.CrfParams(window_radius=1, iterations=1)
        want = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=2), unary_scale=1.0)
        built = []
        check = sc.CrfParams.__post_init__

        def rejecting(self):
            built.append(1)
            if len(built) == 2:  # the third point; the first is init itself
                raise ValueError("theta1 must be a finite width > 0, got 0.0")
            check(self)
        monkeypatch.setattr(sc.CrfParams, "__post_init__", rejecting)
        res = sc.fit([(None, u, gt)], init, sc.FitConfig(epochs=10), unary_scale=1.0)
        assert res.stop == "failed trial"
        assert res.curve.tolist() == want.curve.tolist()


class TestForwardConsistency:
    def test_training_forward_matches_inference_loss(self):
        # the taped, unrolled differentiable forward pass and the untaped,
        # in-place meanfield_infer are the same computation: the same final
        # q to the bit, so the same MCE loss, also where the scaled logits
        # exceed the clamp (scale 20)
        u, gt = toy_instance(h=3, w=5, z=6, seed=31)
        toy_ps = SimpleNamespace(samples=np.random.default_rng(31).normal(size=u.logits.shape))
        (ps3, u3, gt3), = phantom_fit_dataset(seeds=[0])
        for variant in ("probability", "intensity"):
            cases = [(toy_ps, u, gt, sc.CrfParams(window_radius=2, iterations=4, theta2=0.5,
                                                   kernel_variant=variant)),
                     (ps3, u3, gt3, sc.CrfParams(kernel_variant=variant))]
            for ps, unary, truth, params in cases:
                raw = unary.graph.merge(unary.logits)
                for scale in (1.0, 20.0):
                    scaled = sc.unary_from_logits(unary.graph, scale * unary.logits)
                    frozen = train.frozen_kernel_stats(scaled, params, ps=ps)
                    loss, c = train._forward(raw, scale, frozen, params, truth, tape=[])
                    lab = sc.meanfield_infer(scaled, params, ps=ps)
                    assert c["q"].tobytes() == lab.q.tobytes(), (variant, scale)
                    assert loss == sc.mce_loss(lab.q, truth)
                    rep = sc.meanfield_grad(unary, params, truth, unary_scale=scale, ps=ps)
                    assert rep.loss == loss
