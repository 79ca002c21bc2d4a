import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import surfcrf as sc
from surfcrf import accel, crf, train
from surfcrf.crf import LOGIT_CLAMP, softmax
from surfcrf.patches import make_toy_graph
from surfcrf.train import _softmax_backward, central_difference, relative_error

from conftest import make_pipeline_inputs, owned_mask, slot_kernel


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


def _ref_refresh_adjoint(dr, graph):
    flat = dr.reshape(-1, dr.shape[-1])
    gid = graph.gid.ravel()
    ok = gid >= 0
    out = np.zeros_like(flat)
    np.add.at(out, graph.owner[gid[ok]], flat[ok])
    return out.reshape(dr.shape)


def ref_meanfield_grad(u, params, gt, unary_scale=1.0, ps=None):
    """The slot-grid forward and reverse pass: mean field on the padded
    (P,H,W,Z) slots with seam refreshes, the window adjoint, and the refresh
    adjoint scattering every duplicate's gradient onto its owning slot.
    Returns (loss, grads, dlogits) as meanfield_grad does."""
    graph = u.graph
    logits_raw = u.logits
    _, _, fd, mask = slot_kernel(
        sc.unary_from_logits(graph, unary_scale * logits_raw), params, ps=ps)
    offs = crf.window_offsets(params.window_radius)
    d2 = (offs[:, 0] ** 2 + offs[:, 1] ** 2).astype(np.float64)
    it1 = 1.0 / (2.0 * params.theta1 ** 2)
    it2 = 1.0 / (2.0 * params.theta2 ** 2)
    it3 = 1.0 / (2.0 * params.theta3 ** 2)
    spatial = d2[None, None, None, :]
    app = np.where(mask, np.exp(-spatial * it1 - fd * it2), 0.0)
    sm = np.where(mask, np.exp(-spatial * it3), 0.0)
    w = app + params.w1 * sm
    l = np.clip(unary_scale * logits_raw, -LOGIT_CLAMP, LOGIT_CLAMP)
    q = softmax(l)
    tape = []
    for _ in range(params.iterations):
        r = crf.refresh_duplicates(q, graph)
        q_tilde = accel.window_sum(r, w, offs)
        q_hat = crf.compat_transform(q_tilde, params.theta_comp)
        q = softmax(l - params.w_p * q_hat)
        tape.append((r, q_tilde, q_hat, q))
    merged = graph.merge(q)
    loss = sc.mce_loss(merged, gt)

    rows = np.nonzero(gt.valid)[0]
    d_merged = np.zeros_like(merged)
    g_idx = gt.surface_index[rows]
    d_merged[rows, g_idx] = -1.0 / (len(rows) * merged[rows, g_idx])
    dq = np.zeros_like(l)
    dq.reshape(-1, dq.shape[-1])[graph.owner] = d_merged
    m = sc.compat_matrix(logits_raw.shape[-1], params.theta_comp)
    dl = np.zeros_like(l)
    dwp = 0.0
    dm = np.zeros_like(m)
    dw = np.zeros_like(w)
    for r, q_tilde, q_hat, q in reversed(tape):
        ds = _softmax_backward(q, dq)
        dl += ds
        dq_hat = -params.w_p * ds
        dwp += float(-(ds * q_hat).sum())
        dq_tilde = dq_hat @ m.T
        dm += np.einsum("pyxl,pyxm->lm", q_tilde, dq_hat)
        dr = accel.window_sum_adjoint(dq_tilde, w, offs)
        dw += accel.window_weight_grad(dq_tilde, r, offs)
        dq = _ref_refresh_adjoint(dr, graph)
    dl += _softmax_backward(softmax(l), dq)
    dl = np.where(np.abs(unary_scale * logits_raw) <= LOGIT_CLAMP, dl, 0.0)

    z = logits_raw.shape[-1]
    idx = np.arange(z)
    delta2 = (idx[:, None] - idx[None, :]) ** 2
    dmu_dtc = -np.exp(-delta2 / params.theta_comp ** 2) * (2.0 * delta2 / params.theta_comp ** 3)
    grads = {"w_p": dwp,
             "w1": float((dw * sm).sum()),
             "theta1": float((dw * app * spatial).sum() / params.theta1 ** 3),
             "theta2": float((dw * app * fd).sum() / params.theta2 ** 3),
             "theta3": float((dw * params.w1 * sm * spatial).sum() / params.theta3 ** 3),
             "theta_comp": float((dm * dmu_dtc).sum()),
             "unary_scale": float((dl * logits_raw).sum())}
    return loss, grads, unary_scale * dl


def ref_edge_grads(u, params, gt, unary_scale=1.0, ps=None):
    """The vertex-graph reverse pass with the adjoint taken through W.T and
    the weight gradient formed per stored entry e = (i, j) of W,
    dw_e = sum_t <dQ~_t[i], Q_in,t[j]>, gathered per entry; then the kernel
    scalars' gradients as sums over the entries.  Returns the scalar
    gradients and the logit gradient on the vertices."""
    graph = u.graph
    frozen = train.frozen_kernel_stats(
        sc.unary_from_logits(graph, unary_scale * u.logits), params, ps=ps)
    fd, d2, _ = frozen
    tape = []
    _, c = train._forward(u.logits, unary_scale, graph, frozen, params, gt, tape=tape)
    q_out = c["q"]
    rows = np.nonzero(gt.valid)[0]
    dq = np.zeros_like(q_out)
    dq[rows, gt.surface_index[rows]] = -1.0 / (len(rows) * q_out[rows, gt.surface_index[rows]])
    m = sc.compat_matrix(u.z_len, params.theta_comp)
    op = c["W"]
    e_rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    dl = np.zeros_like(c["l"])
    dwp = 0.0
    dm = np.zeros_like(m)
    dw = np.zeros(op.nnz)
    for q_in, q_tilde, q_hat, q in reversed(tape):
        ds = _softmax_backward(q, dq)
        dl += ds
        dq_hat = -params.w_p * ds
        dwp += float(-(ds * q_hat).sum())
        dq_tilde = dq_hat @ m.T
        dm += q_tilde.T @ dq_hat
        dw += np.einsum("ez,ez->e", dq_tilde[e_rows], q_in[op.indices])
        dq = op.T @ dq_tilde
    dl += _softmax_backward(softmax(c["l"]), dq)
    merged_raw = graph.merge(u.logits)
    dl = np.where(np.abs(unary_scale * merged_raw) <= LOGIT_CLAMP, dl, 0.0)
    app, sm = c["app"], c["sm"]
    idx = np.arange(u.z_len)
    delta2 = (idx[:, None] - idx[None, :]) ** 2
    dmu_dtc = -np.exp(-delta2 / params.theta_comp ** 2) * (2.0 * delta2 / params.theta_comp ** 3)
    grads = {"w_p": dwp,
             "w1": float((dw * sm).sum()),
             "theta1": float((dw * app * d2).sum() / params.theta1 ** 3),
             "theta2": float((dw * app * fd).sum() / params.theta2 ** 3),
             "theta3": float((dw * params.w1 * sm * d2).sum() / params.theta3 ** 3),
             "theta_comp": float((dm * dmu_dtc).sum()),
             "unary_scale": float((dl * merged_raw).sum())}
    return grads, unary_scale * dl


class TestWbce:
    def test_zero_logit_unit_weight(self):
        assert sc.wbce_loss(np.asarray([0.0]), np.asarray([1.0]), 1.0) == \
            pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_logits_vanish(self):
        logits = np.asarray([30.0, -30.0, 30.0])
        mask = np.asarray([1.0, 0.0, 1.0])
        assert sc.wbce_loss(logits, mask, 1.0) < 1e-10

    def test_column_length_weighting(self):
        # the paper-style weighting: w = column length (64)
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 64))
        mask = np.zeros((5, 64))
        mask[:, 10] = 1.0
        w = 64.0
        got = sc.wbce_loss(logits, mask, w)
        sig = 1.0 / (1.0 + np.exp(-logits))
        expect = -(w * mask * np.log(sig) + (1 - mask) * np.log(1 - sig)).mean()
        assert got == pytest.approx(expect, rel=1e-9)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            sc.wbce_loss(np.zeros(3), np.zeros(3), 0.0)


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

    def test_from_logits(self):
        logits = np.asarray([[2.0, 0.0]])
        gt = sc.GroundTruth(surface_index=np.asarray([0]), valid=np.asarray([True]))
        p = softmax(logits)
        assert sc.mce_loss(logits, gt, from_logits=True) == \
            pytest.approx(-math.log(p[0, 0]), abs=1e-12)

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
        q = softmax(u.logits).reshape(-1, u.z_len)
        onehot = np.zeros_like(q)
        rows = np.nonzero(gt.valid)[0]
        onehot[rows, gt.surface_index[rows]] = 1.0
        expect = ((q - onehot) / len(rows)).reshape(u.logits.shape)
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
        binds = np.abs(20.0 * u.logits) > LOGIT_CLAMP
        assert binds.any()
        assert (rep.dlogits[binds] == 0.0).all()
        assert (rep.dlogits[~binds] != 0.0).any()
        errs = sc.fd_check(u, params, gt, unary_scale=20.0, n_logits=1)
        assert errs["unary_scale"] <= 1e-6

    def test_matches_slot_reference_on_phantom(self):
        # the vertex-graph pass against the slot-grid one on a padded r=3
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
            assert (rep.dlogits[~owned_mask(u.graph)] == 0.0).all()

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    @pytest.mark.parametrize("variant", ["probability", "intensity"])
    def test_contracted_weight_gradients_match_per_edge(self, iterations, variant):
        # the four kernel-scalar gradients as sparse products against the
        # per-entry weight gradient, and the adjoint through W against W.T:
        # the same sums in another order
        (ps, u, gt), = phantom_fit_dataset(seeds=[0])
        rng = np.random.default_rng(iterations)
        toys = [(SimpleNamespace(samples=rng.normal(size=t[0].logits.shape)), *t)
                for t in (toy_instance(5, 6, z=7, seed=iterations),
                          toy_instance(3, 4, z=5, seed=10 + iterations, valid_frac=0.5))]
        for ps_i, u_i, gt_i in [(ps, u, gt), *toys]:
            params = sc.prostate_params(iterations=iterations, kernel_variant=variant)
            for scale in (1.0, 6.0):
                rep = sc.meanfield_grad(u_i, params, gt_i, unary_scale=scale, ps=ps_i)
                grads, dl = ref_edge_grads(u_i, params, gt_i, unary_scale=scale, ps=ps_i)
                for name, g in grads.items():
                    assert abs(rep.grads[name] - g) <= 1e-13 * abs(g), (name, scale)
                got = rep.dlogits.reshape(-1, u_i.z_len)[u_i.graph.owner]
                assert np.abs(got - dl).max() <= 1e-13 * np.abs(dl).max()

    def test_fd_on_padded_graph(self):
        # seams, pad duplicates and corner blocks: the picks are owner-slot
        # logits, the only ones the loss reads
        (ps, u, gt), = phantom_fit_dataset(seeds=[0])
        errs = sc.fd_check(u, sc.prostate_params(iterations=2), gt, n_logits=40, ps=ps)
        assert errs["max"] <= 1e-3

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
        cfg = sc.FitConfig(lr=0.1, epochs=0)
        res = sc.fit([(None, u, gt)], init, cfg, unary_scale=2.0)
        assert res.params == init
        assert res.unary_scale == 2.0
        assert len(res.curve) == 1

    def test_loss_non_increasing_when_truth_matches_argmax(self):
        u, _ = toy_instance(seed=21)
        gt = sc.GroundTruth(surface_index=u.argmax_labels(),
                            valid=np.ones(u.graph.n_vertices, dtype=bool))
        init = sc.CrfParams(w_p=0.2, window_radius=1, iterations=2)
        cfg = sc.FitConfig(lr=1e-3, epochs=1, momentum=0.0)
        res = sc.fit([(None, u, gt)], init, cfg)
        assert res.curve[1] <= res.curve[0] + 1e-12

    def test_widths_stay_positive(self):
        u, gt = toy_instance(seed=22)
        init = sc.CrfParams(theta2=0.05, window_radius=1, iterations=2)
        cfg = sc.FitConfig(lr=0.5, epochs=25, momentum=0.9)
        res = sc.fit([(None, u, gt)], init, cfg)
        for name in ("theta1", "theta2", "theta3", "theta_comp"):
            assert getattr(res.params, name) > 0

    def test_deterministic(self):
        u, gt = toy_instance(seed=23)
        init = sc.prostate_params(window_radius=1, iterations=2)
        cfg = sc.FitConfig(lr=0.05, epochs=5)
        r1 = sc.fit([(None, u, gt)], init, cfg)
        r2 = sc.fit([(None, u, gt)], init, cfg)
        assert np.array_equal(r1.curve, r2.curve)
        assert r1.params == r2.params

    def test_respects_trainable_flags(self):
        u, gt = toy_instance(seed=24)
        init = sc.prostate_params(window_radius=1, iterations=2)
        cfg = sc.FitConfig(lr=0.1, epochs=5, trainable=("unary_scale",))
        res = sc.fit([(None, u, gt)], init, cfg)
        assert res.params == init
        assert res.unary_scale != 1.0

    def test_pair_mask_built_once_per_instance(self, monkeypatch):
        calls = []
        build = crf.pair_edges
        monkeypatch.setattr(crf, "pair_edges",
                            lambda graph, offsets: calls.append(graph) or build(graph, offsets))
        dataset = [(None, *toy_instance(seed=s)) for s in (25, 26)]
        init = sc.prostate_params(window_radius=1, iterations=2)
        sc.fit(dataset, init, sc.FitConfig(lr=0.05, epochs=3))
        assert len(calls) == 2
        kf = crf.compute_kernel(dataset[0][1], init)
        assert len(calls) == 2
        edges = crf._cached_pair_edges(kf.graph, init.window_radius, kf.offsets)
        assert kf.edge_pos is edges[1]
        for arr in edges:
            assert arr.dtype == np.int32 and not arr.flags.writeable

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            sc.fit([], sc.prostate_params(), sc.FitConfig())

    def test_pinned_r3_fit(self):
        # one r=3 instance, three epochs at the CLI defaults (unary scale 6):
        # the scalars and curve of this fit, recorded before the weight
        # gradients became sparse products, so that a change of the gradient
        # arithmetic shows as a number
        (ps, u, gt), = phantom_fit_dataset(seeds=[0])
        res = sc.fit([(ps, u, gt)], sc.CrfParams(),
                     sc.FitConfig(lr=0.05, epochs=3, momentum=0.9), unary_scale=6.0)
        want = {"w_p": -1.3443754617710526, "w1": 2.194472700042994,
                "theta1": 4.977847959080746, "theta2": 0.19740633387647138,
                "theta3": 2.3056063879486692, "theta_comp": 148.7656113804342}
        for name, value in want.items():
            assert getattr(res.params, name) == pytest.approx(value, rel=1e-12, abs=0), name
        assert res.unary_scale == pytest.approx(6.000083351977018, rel=1e-12, abs=0)
        curve = [15.236673576299422, 3.0198011611432745, 3.220058449613835, 3.134388441627443]
        assert res.curve == pytest.approx(curve, rel=1e-12, abs=0)

    def test_small_phantom_set_reduces_mce(self):
        dataset = phantom_fit_dataset(3)
        init = sc.prostate_params()
        cfg = sc.FitConfig(lr=0.05, epochs=30, momentum=0.9)
        res = sc.fit(dataset, init, cfg, unary_scale=1.0)
        assert res.curve[-1] <= 0.8 * res.curve[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sc.FitConfig(lr=0.0)
        with pytest.raises(ValueError):
            sc.FitConfig(trainable=("nonsense",))
        # the CLI puts the section before the message to name the dotted key
        for field, value in [("lr", math.nan), ("lr", math.inf), ("lr", -1.0),
                             ("epochs", -1), ("momentum", 1.5), ("momentum", 1.0),
                             ("momentum", -0.1), ("momentum", math.nan),
                             ("trainable", ("w_p", "bogus"))]:
            with pytest.raises(ValueError, match=f"^{field} "):
                sc.FitConfig(**{field: value})
        assert sc.FitConfig(momentum=0.0).momentum == 0.0
        assert [f.name for f in dataclasses.fields(sc.FitConfig)] == \
            ["lr", "epochs", "momentum", "trainable"]


class TestFitDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        u, gt = toy_instance(seed=30, z=4)
        init = sc.CrfParams(window_radius=1, iterations=1)
        cfg = sc.FitConfig(lr=1e9, epochs=10, momentum=0.0, trainable=("w_p",))
        with pytest.raises(sc.FitDivergedError) as err:
            sc.fit([(None, u, gt)], init, cfg, unary_scale=1.0)
        assert err.value.epoch >= 1

    def test_width_underflow_raises(self):
        # a huge step drives theta1 = theta1 * exp(-lr * g) to exactly 0
        u, gt = toy_instance(seed=30, z=4)
        init = sc.CrfParams(window_radius=1, iterations=1)
        cfg = sc.FitConfig(lr=1e9, epochs=10, momentum=0.0, trainable=("theta1",))
        with pytest.raises(sc.FitDivergedError) as err:
            sc.fit([(None, u, gt)], init, cfg, unary_scale=1.0)
        assert err.value.epoch == 0


class TestForwardConsistency:
    def test_training_forward_matches_inference_loss(self):
        # the unrolled differentiable forward pass and meanfield_infer are the
        # same computation; their MCE losses agree exactly, also where the
        # scaled logits exceed the clamp (scale 20)
        u, gt = toy_instance(h=3, w=5, z=6, seed=31)
        params = sc.CrfParams(window_radius=2, iterations=4, theta2=0.5)
        for scale in (1.0, 20.0):
            rep = sc.meanfield_grad(u, params, gt, unary_scale=scale)
            lab = sc.meanfield_infer(sc.unary_from_logits(u.graph, scale * u.logits), params)
            assert rep.loss == pytest.approx(sc.mce_loss(lab.q, gt), abs=1e-12)
