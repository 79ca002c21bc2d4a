"""Losses, analytic reverse-mode gradients through the unrolled mean-field
iterations, finite-difference verification, and gradient-descent fitting of
the CRF scalars plus a global unary scale."""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace

import numpy as np

from .crf import (LOGIT_CLAMP, CrfParams, UnaryField, compat_matrix, edge_kernel,
                  edge_stats, meanfield_unroll, softmax)
from .patches import GroundTruth, PatchSet

SCALAR_NAMES = ("w_p", "w1", "theta1", "theta2", "theta3", "theta_comp", "unary_scale")
_WIDTHS = ("theta1", "theta2", "theta3", "theta_comp")


class FitDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"fit diverged (non-finite value or zero width) at epoch {epoch}")
        self.epoch = epoch


@dataclass
class LossReport:
    loss: float
    grads: dict[str, float]
    dlogits: np.ndarray


@dataclass
class FitConfig:
    lr: float = 0.05
    epochs: int = 100
    momentum: float = 0.9
    trainable: tuple[str, ...] = SCALAR_NAMES

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        unknown = set(self.trainable) - set(SCALAR_NAMES)
        if unknown:
            raise ValueError(f"unknown trainable parameters: {sorted(unknown)}")


@dataclass
class FitResult:
    params: CrfParams
    unary_scale: float
    curve: np.ndarray  # per-epoch mean MCE, plus a final post-update entry

    def to_json(self) -> str:
        return json.dumps({"params": asdict(self.params),
                           "unary_scale": self.unary_scale,
                           "curve": self.curve.tolist()}, sort_keys=True)


# ---------------------------------------------------------------------------
# losses


def wbce_loss(logits, mask, weight: float) -> float:
    """Mean over voxels of -[w*m*log sigma(l) + (1-m)*log(1-sigma(l))]."""
    if weight <= 0:
        raise ValueError("weight must be > 0")
    l = np.clip(np.asarray(logits, dtype=np.float64), -LOGIT_CLAMP, LOGIT_CLAMP)
    m = np.asarray(mask, dtype=np.float64)
    log_sig = -np.logaddexp(0.0, -l)
    log_one_minus = -np.logaddexp(0.0, l)
    return float(-(weight * m * log_sig + (1.0 - m) * log_one_minus).mean())


def mce_loss(q_or_logits: np.ndarray, gt: GroundTruth, from_logits: bool = False) -> float:
    """Mean over valid columns of -log Q_i(g_i)."""
    q = np.asarray(q_or_logits, dtype=np.float64)
    if from_logits:
        q = softmax(q)
    if not gt.valid.any():
        raise ValueError("no valid ground-truth columns")
    rows = np.nonzero(gt.valid)[0]
    return float(-np.log(q[rows, gt.surface_index[rows]]).mean())


# ---------------------------------------------------------------------------
# differentiable forward pass (kernel features frozen)


def _softmax_backward(q, dq):
    return q * (dq - (dq * q).sum(axis=-1, keepdims=True))


_EDGE_CHUNK = 1 << 15  # edges per gathered block of the weight gradient


def _edge_dots(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """<a[rows[e]], b[cols[e]]> per edge e, in blocks of edges so the
    gathered (edges, Z) arrays stay bounded."""
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _EDGE_CHUNK):
        sl = slice(lo, lo + _EDGE_CHUNK)
        out[sl] = np.einsum("ez,ez->e", a[rows[sl]], b[cols[sl]])
    return out


# the stop-gradient kernel inputs per stored entry of W: the squared feature
# distance, the squared grid distance and the entries' records; held constant
# by fd_check too
frozen_kernel_stats = edge_stats


def _forward(logits_raw, scale, graph, frozen, params, gt, T, tape=None):
    """MCE loss of T unrolled mean-field iterations (crf.meanfield_unroll) on
    the clamped, scaled vertex logits, with kernel weights built from the
    frozen statistics.  Returns the loss and the intermediates of the
    reverse pass."""
    op, app, sm = edge_kernel(*frozen, params)
    l = np.clip(scale * graph.merge(logits_raw), -LOGIT_CLAMP, LOGIT_CLAMP)
    q = meanfield_unroll(l, op, params, T, tape=tape)
    return mce_loss(q, gt), dict(l=l, W=op, app=app, sm=sm, q=q)


def meanfield_grad(u: UnaryField, params: CrfParams, gt: GroundTruth,
                   T: int | None = None, unary_scale: float = 1.0,
                   ps: PatchSet | None = None,
                   frozen=None) -> LossReport:
    """Exact reverse-mode derivatives of the MCE loss after T mean-field
    iterations w.r.t. all scalars and all input logits, with the kernel
    features treated as constants of the forward pass.  The logit clamp has
    zero derivative where it binds, for the logits and the unary scale.  The
    loss reads only the owning slot of each vertex, so every other slot of
    ``dlogits`` is 0."""
    T = params.iterations if T is None else T
    graph = u.graph
    logits_raw = u.logits
    if frozen is None:
        frozen = frozen_kernel_stats(
            UnaryField(graph=graph, logits=unary_scale * logits_raw), params, ps=ps)
    fd, d2, _ = frozen
    tape = []
    loss, c = _forward(logits_raw, unary_scale, graph, frozen, params, gt, T, tape=tape)

    q_out = c["q"]
    rows = np.nonzero(gt.valid)[0]
    dq = np.zeros_like(q_out)
    g_idx = gt.surface_index[rows]
    dq[rows, g_idx] = -1.0 / (len(rows) * q_out[rows, g_idx])

    m = compat_matrix(logits_raw.shape[-1], params.theta_comp)
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
        dw += _edge_dots(dq_tilde, q_in, e_rows, op.indices)
        dq = op.T @ dq_tilde
    dl += _softmax_backward(softmax(c["l"]), dq)
    merged_raw = graph.merge(logits_raw)
    dl = np.where(np.abs(unary_scale * merged_raw) <= LOGIT_CLAMP, dl, 0.0)

    app = c["app"]
    sm = c["sm"]
    d_theta1 = float((dw * app * d2).sum() / params.theta1 ** 3)
    d_theta2 = float((dw * app * fd).sum() / params.theta2 ** 3)
    d_w1 = float((dw * sm).sum())
    d_theta3 = float((dw * params.w1 * sm * d2).sum() / params.theta3 ** 3)

    z = logits_raw.shape[-1]
    idx = np.arange(z)
    delta2 = (idx[:, None] - idx[None, :]) ** 2
    dmu_dtc = -np.exp(-delta2 / params.theta_comp ** 2) * (2.0 * delta2 / params.theta_comp ** 3)
    d_theta_comp = float((dm * dmu_dtc).sum())

    d_scale = float((dl * merged_raw).sum())
    dlogits = np.zeros_like(logits_raw)
    dlogits.reshape(-1, z)[graph.owner_slots()] = unary_scale * dl
    grads = {"w_p": dwp, "w1": d_w1, "theta1": d_theta1, "theta2": d_theta2,
             "theta3": d_theta3, "theta_comp": d_theta_comp, "unary_scale": d_scale}
    for name, val in grads.items():
        if not np.isfinite(val):
            raise RuntimeError(f"non-finite gradient for {name}")
    if not np.isfinite(dlogits).all():
        raise RuntimeError("non-finite logit gradient")
    return LossReport(loss=loss, grads=grads, dlogits=dlogits)


# ---------------------------------------------------------------------------
# finite-difference verification


def central_difference(fn, x0: float, step: float) -> float:
    return (fn(x0 + step) - fn(x0 - step)) / (2.0 * step)


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    scale = max(abs(a), abs(b))
    if scale < 1e-12:
        return 0.0
    return abs(a - b) / max(scale, floor)


def fd_check(u: UnaryField, params: CrfParams, gt: GroundTruth, T: int | None = None,
             unary_scale: float = 1.0, scalar_step: float = 1e-3,
             logit_step: float = 1e-2, n_logits: int = 100, seed: int = 0,
             ps: PatchSet | None = None) -> dict:
    """Central-difference check of every trainable scalar plus a random subset
    of the owner slots' logits, against the analytic gradients; kernel
    features frozen on both sides.  Returns per-parameter relative errors and
    the worst case."""
    T = params.iterations if T is None else T
    graph = u.graph
    frozen = frozen_kernel_stats(
        UnaryField(graph=graph, logits=unary_scale * u.logits), params, ps=ps)
    report = meanfield_grad(u, params, gt, T=T, unary_scale=unary_scale, frozen=frozen)

    def loss_with(p: CrfParams, scale: float, logits: np.ndarray) -> float:
        return _forward(logits, scale, graph, frozen, p, gt, T)[0]

    errors = {}
    for name in SCALAR_NAMES:
        if name == "unary_scale":
            fn = lambda x: loss_with(params, x, u.logits)
            x0 = unary_scale
        else:
            fn = lambda x, _name=name: loss_with(replace(params, **{_name: x}),
                                                  unary_scale, u.logits)
            x0 = getattr(params, name)
        step = scalar_step
        if name in _WIDTHS:  # keep the probe positive
            step = min(step, 0.4 * x0)
        num = central_difference(fn, x0, step)
        errors[name] = relative_error(report.grads[name], num)

    # the loss reads only owner slots; every other slot's derivative is 0 on
    # both sides, so the picks are drawn from the owner slots' logits
    rng = np.random.default_rng(seed)
    flat = u.logits.reshape(-1)
    z = u.z_len
    owned = (graph.owner_slots()[:, None] * z + np.arange(z)).ravel()
    pick = rng.choice(owned, size=min(n_logits, owned.size), replace=False)
    worst_logit = 0.0
    for j in pick:
        step = logit_step * max(1.0, abs(flat[j]))

        def fn(x, _j=j):
            pert = flat.copy()
            pert[_j] = x
            return loss_with(params, unary_scale, pert.reshape(u.logits.shape))
        num = central_difference(fn, float(flat[j]), step)
        worst_logit = max(worst_logit, relative_error(float(report.dlogits.reshape(-1)[j]), num))
    errors["logits"] = worst_logit
    errors["max"] = max(errors.values())
    return errors


# ---------------------------------------------------------------------------
# fitting


def _pack(params: CrfParams, scale: float) -> np.ndarray:
    return np.asarray([scale if name == "unary_scale" else getattr(params, name)
                       for name in SCALAR_NAMES])


def _unpack(vec: np.ndarray, template: CrfParams):
    values = {name: float(v) for name, v in zip(SCALAR_NAMES, vec)}
    scale = values.pop("unary_scale")
    return replace(template, **values), scale


_IS_WIDTH = np.asarray([name in _WIDTHS for name in SCALAR_NAMES])


def fit(dataset, init: CrfParams, cfg: FitConfig, unary_scale: float = 1.0) -> FitResult:
    """Gradient descent with momentum on the trainable scalars over a dataset
    of (PatchSet, UnaryField, GroundTruth) instances.  Widths are optimized in
    log space so they stay positive; deterministic for a given dataset and
    order.  A non-finite loss, gradient or scalar, or a width that underflows
    to zero, raises FitDivergedError."""
    if not dataset:
        raise ValueError("dataset is empty")
    vec = _pack(init, unary_scale)
    velocity = np.zeros_like(vec)
    train_mask = np.asarray([name in cfg.trainable for name in SCALAR_NAMES])
    curve = []
    for epoch in range(cfg.epochs):
        params, scale = _unpack(vec, init)
        total_loss = 0.0
        total_grad = np.zeros_like(vec)
        for ps, u, gt in dataset:
            try:
                rep = meanfield_grad(u, params, gt, unary_scale=scale, ps=ps)
            except RuntimeError as exc:  # non-finite forward/backward
                raise FitDivergedError(epoch) from exc
            total_loss += rep.loss
            for i, name in enumerate(SCALAR_NAMES):
                g = rep.grads[name]
                if name in _WIDTHS:  # chain through log-space parameterization
                    g *= getattr(params, name)
                total_grad[i] += g
        mean_loss = total_loss / len(dataset)
        if not np.isfinite(mean_loss):
            raise FitDivergedError(epoch)
        curve.append(mean_loss)
        total_grad /= len(dataset)
        velocity = cfg.momentum * velocity - cfg.lr * total_grad
        # widths update multiplicatively (gradient descent on log theta), so
        # they stay positive and frozen parameters stay bit-exact
        with np.errstate(over="ignore"):
            stepped = np.where(_IS_WIDTH, vec * np.exp(velocity), vec + velocity)
        vec = np.where(train_mask, stepped, vec)
        if not np.isfinite(vec[train_mask]).all() or (vec[_IS_WIDTH] <= 0).any():
            raise FitDivergedError(epoch)
    params, scale = _unpack(vec, init)
    final_loss = 0.0
    for ps, u, gt in dataset:
        frozen = frozen_kernel_stats(
            UnaryField(graph=u.graph, logits=scale * u.logits), params, ps=ps)
        try:
            final_loss += _forward(u.logits, scale, u.graph, frozen, params, gt,
                                   params.iterations)[0]
        except RuntimeError as exc:
            raise FitDivergedError(cfg.epochs) from exc
    curve.append(final_loss / len(dataset))
    if not np.isfinite(curve[-1]):
        raise FitDivergedError(cfg.epochs)
    return FitResult(params=params, unary_scale=scale, curve=np.asarray(curve))
