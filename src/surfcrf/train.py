"""The MCE loss, its analytic reverse-mode gradients through the unrolled
mean-field iterations on (Nv,Z) vertex arrays, finite-difference
verification, and fitting of the CRF scalars plus a global unary scale by
bounded quasi-Newton steps (L-BFGS-B) on those gradients."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from .crf import (LOGIT_CLAMP, CrfParams, UnaryField, compat_matrix, edge_kernel,
                  edge_stats, meanfield_unroll, offset_tables, softmax)
from .patches import GroundTruth, PatchSet

SCALAR_NAMES = ("w_p", "w1", "theta1", "theta2", "theta3", "theta_comp", "unary_scale")
_WIDTHS = ("theta1", "theta2", "theta3", "theta_comp")


class FitDivergedError(RuntimeError):
    """The loss or a gradient at the initial scalars is not finite."""


@dataclass
class LossReport:
    loss: float
    grads: dict[str, float]
    dlogits: np.ndarray


@dataclass
class FitConfig:
    epochs: int = 100  # the most full-batch loss-and-gradient evaluations
    trainable: tuple[str, ...] = SCALAR_NAMES

    def __post_init__(self):
        """Each error message starts with the name of the field it rejects."""
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs!r}")
        unknown = set(self.trainable) - set(SCALAR_NAMES)
        if unknown:
            raise ValueError(f"trainable names unknown parameters {sorted(unknown)}")


@dataclass
class FitResult:
    params: CrfParams
    unary_scale: float
    curve: np.ndarray  # each evaluation's mean MCE, then the best point's
    stop: str  # "budget", "failed trial" or scipy's message

    def to_json(self) -> str:
        return json.dumps({"params": asdict(self.params),
                           "unary_scale": self.unary_scale,
                           "curve": self.curve.tolist(),
                           "stop": self.stop}, sort_keys=True)


# ---------------------------------------------------------------------------
# losses


def mce_loss(q: np.ndarray, gt: GroundTruth) -> float:
    """Mean over valid columns of -log Q_i(g_i)."""
    q = np.asarray(q, dtype=np.float64)
    if not gt.valid.any():
        raise ValueError("no valid ground-truth columns")
    rows = np.nonzero(gt.valid)[0]
    return float(-np.log(q[rows, gt.surface_index[rows]]).mean())


# ---------------------------------------------------------------------------
# differentiable forward pass (kernel features frozen)


def _softmax_backward(q, dq):
    return q * (dq - (dq * q).sum(axis=-1, keepdims=True))


# the stop-gradient kernel inputs per stored entry of W: the squared feature
# distance and the entries' records; held constant by fd_check too
frozen_kernel_stats = edge_stats


def _forward(raw, scale, frozen, params, gt, tape=None):
    """MCE loss of the params.iterations unrolled mean-field iterations
    (crf.meanfield_unroll) on the clamped, scaled (Nv,Z) vertex logits
    ``raw``, with kernel weights built from the frozen statistics.  Returns
    the loss and the intermediates of the reverse pass."""
    op, app = edge_kernel(*frozen, params)
    l = np.clip(scale * raw, -LOGIT_CLAMP, LOGIT_CLAMP)
    q = meanfield_unroll(l, op, params, tape=tape)
    return mce_loss(q, gt), dict(l=l, W=op, app=app, q=q)


def meanfield_grad(u: UnaryField, params: CrfParams, gt: GroundTruth,
                   unary_scale: float = 1.0, ps: PatchSet | None = None) -> LossReport:
    """Exact reverse-mode derivatives of the MCE loss after params.iterations
    mean-field iterations w.r.t. all scalars and the vertex logits, with the
    kernel features treated as constants of the forward pass.  The loss reads
    one logit per vertex and label, the merged (owner-slot) logits of ``u``,
    so ``dlogits`` is (Nv,Z) like them.  The logit clamp has zero derivative
    where it binds, for the logits and the unary scale.

    The reverse pass multiplies by W itself, which is exactly symmetric.
    The weight gradient of entry e = (i, j) would be
    dw_e = sum_t <dQ~_t[i], Q_in,t[j]>; the scalars need only the sums
    sum_e c_e dw_e with per-entry coefficients c (app d2, app fd, sm, sm d2),
    the offset terms gathered from crf.offset_tables by the entries' k, and
    each is the contraction <[dQ~_1 ... dQ~_T], C [Q_in,1 ... Q_in,T]> of
    (Nv, T Z) stacks with the sparse matrix C = csr((c, cols, indptr)), so no
    per-entry (edges, Z) array is gathered."""
    from scipy import sparse  # here, as in crf.edge_kernel

    raw = u.graph.merge(u.logits)
    frozen = frozen_kernel_stats(
        UnaryField(graph=u.graph, logits=unary_scale * u.logits), params, ps=ps)
    fd, edges = frozen
    tape = []
    loss, c = _forward(raw, unary_scale, frozen, params, gt, tape=tape)

    q_out = c["q"]
    rows = np.nonzero(gt.valid)[0]
    dq = np.zeros_like(q_out)
    g_idx = gt.surface_index[rows]
    dq[rows, g_idx] = -1.0 / (len(rows) * q_out[rows, g_idx])

    m = compat_matrix(raw.shape[-1], params.theta_comp)
    op = c["W"]
    dl = np.zeros_like(c["l"])
    dwp = 0.0
    dm = np.zeros_like(m)
    nv, z = dq.shape
    dq_tilde_stack = np.empty((nv, len(tape), z))  # vertex rows, iterations side by side
    for t in reversed(range(len(tape))):
        _, q_tilde, q_hat, q = tape[t]
        ds = _softmax_backward(q, dq)
        dl += ds
        dq_hat = -params.w_p * ds
        dwp += float(-(ds * q_hat).sum())
        dq_tilde = dq_hat @ m.T
        dm += q_tilde.T @ dq_hat
        dq_tilde_stack[:, t] = dq_tilde
        dq = op @ dq_tilde
    dl += _softmax_backward(softmax(c["l"]), dq)
    dl = np.where(np.abs(unary_scale * raw) <= LOGIT_CLAMP, dl, 0.0)

    dq_stack = dq_tilde_stack.reshape(nv, -1)
    q_in_stack = np.stack([step[0] for step in tape], axis=1).reshape(nv, -1)

    def weight_sum(coef):
        """sum_e coef_e dw_e."""
        cmat = sparse.csr_matrix((coef, op.indices, op.indptr), shape=op.shape)
        return float(np.einsum("ij,ij->", dq_stack, cmat @ q_in_stack))

    app = c["app"]
    # take converts k to intp at once (crf.edge_kernel's [k] gathers it in
    # buffered chunks): twice as fast, for an (nnz,) index beside the tape
    d2, sm = (table.take(edges.k) for table in offset_tables(params))
    d_theta1 = weight_sum(app * d2) / params.theta1 ** 3
    d_theta2 = weight_sum(app * fd) / params.theta2 ** 3
    d_w1 = weight_sum(sm)
    d_theta3 = params.w1 * weight_sum(sm * d2) / params.theta3 ** 3

    idx = np.arange(z)
    delta2 = (idx[:, None] - idx[None, :]) ** 2
    dmu_dtc = -np.exp(-delta2 / params.theta_comp ** 2) * (2.0 * delta2 / params.theta_comp ** 3)
    d_theta_comp = float((dm * dmu_dtc).sum())

    d_scale = float((dl * raw).sum())
    dlogits = unary_scale * dl
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


def fd_check(u: UnaryField, params: CrfParams, gt: GroundTruth, unary_scale: float = 1.0,
             scalar_step: float = 1e-3, logit_step: float = 1e-2, n_logits: int = 100,
             seed: int = 0, ps: PatchSet | None = None) -> dict:
    """Central-difference check of every trainable scalar plus a random subset
    of the (vertex, label) logits, against the analytic gradients; kernel
    features frozen on both sides.  Returns per-parameter relative errors and
    the worst case."""
    frozen = frozen_kernel_stats(
        UnaryField(graph=u.graph, logits=unary_scale * u.logits), params, ps=ps)
    report = meanfield_grad(u, params, gt, unary_scale=unary_scale, ps=ps)
    raw = u.graph.merge(u.logits)

    def loss_with(p: CrfParams, scale: float, logits: np.ndarray) -> float:
        return _forward(logits, scale, frozen, p, gt)[0]

    errors = {}
    for name in SCALAR_NAMES:
        if name == "unary_scale":
            fn = lambda x: loss_with(params, x, raw)
            x0 = unary_scale
        else:
            fn = lambda x, _name=name: loss_with(replace(params, **{_name: x}),
                                                  unary_scale, raw)
            x0 = getattr(params, name)
        step = scalar_step
        if name in _WIDTHS:  # keep the probe positive
            step = min(step, 0.4 * x0)
        num = central_difference(fn, x0, step)
        errors[name] = relative_error(report.grads[name], num)

    rng = np.random.default_rng(seed)
    flat = raw.reshape(-1)
    pick = rng.choice(raw.size, size=min(n_logits, raw.size), replace=False)
    worst_logit = 0.0
    for j in pick:
        step = logit_step * max(1.0, abs(flat[j]))

        def fn(x, _j=j):
            pert = flat.copy()
            pert[_j] = x
            return loss_with(params, unary_scale, pert.reshape(raw.shape))
        num = central_difference(fn, float(flat[j]), step)
        worst_logit = max(worst_logit, relative_error(float(report.dlogits.reshape(-1)[j]), num))
    errors["logits"] = worst_logit
    errors["max"] = max(errors.values())
    return errors


# ---------------------------------------------------------------------------
# fitting


class _Stop(Exception):
    """Ends the minimization; the message is fit.json's stop reason."""


def fit(dataset, init: CrfParams, cfg: FitConfig, unary_scale: float = 1.0) -> FitResult:
    """Deterministic L-BFGS-B (scipy) on the mean MCE of (PatchSet, UnaryField,
    GroundTruth) instances over the trainable scalars, with meanfield_grad's
    exact gradients; frozen scalars stay bit-exact.  Stops after cfg.epochs
    evaluations, when scipy converges (a shorter curve), or at a failed trial
    point (CrfParams rejects it, or its loss or gradient is not finite), and
    returns the best evaluated point; a failed first evaluation raises
    FitDivergedError."""
    if not dataset:
        raise ValueError("dataset is empty")
    if not (math.isfinite(unary_scale) and unary_scale > 0):
        raise ValueError(f"unary_scale must be a finite number > 0, got {unary_scale!r}")
    # imported here: at module level it would add about 0.15 s and 8 MB to
    # every surfcrf command, and only fit uses it
    from scipy.optimize import minimize

    names = [name for name in SCALAR_NAMES if name in cfg.trainable]
    # w_p and w1 bounded >= 0; the widths and unary_scale as logarithms
    in_log = np.asarray([name not in ("w_p", "w1") for name in names], dtype=bool)
    x0 = np.asarray([unary_scale if name == "unary_scale" else getattr(init, name)
                     for name in names], dtype=np.float64)
    x0[in_log] = np.log(x0[in_log])
    points = []  # (loss, params, scale, gradient in x) of each evaluation

    def evaluate(x):
        try:
            if np.array_equal(x, x0):  # init itself, not exp(log(init))
                params, scale = init, unary_scale
            else:
                with np.errstate(over="ignore"):  # exp(x) = inf is rejected below
                    values = dict(zip(names, np.where(in_log, np.exp(x), x).tolist()))
                scale = values.pop("unary_scale", unary_scale)
                params = replace(init, **values)  # ValueError: a width of 0 or inf
            reps = [meanfield_grad(u, params, gt, unary_scale=scale, ps=ps)
                    for ps, u, gt in dataset]
            loss = sum(rep.loss for rep in reps) / len(reps)
            if not math.isfinite(loss):
                raise RuntimeError("non-finite loss")
        except (ValueError, RuntimeError) as exc:
            if not points:
                raise FitDivergedError(f"fit failed at the initial scalars: {exc}") from exc
            raise _Stop("failed trial") from exc
        grad = np.asarray([sum(rep.grads[name] for rep in reps) for name in names]) / len(reps)
        return loss, params, scale, grad * np.exp(np.where(in_log, x, 0.0))  # chain factor

    def objective(x):
        if len(points) == cfg.epochs:
            raise _Stop("budget")
        points.append(evaluate(x))
        return points[-1][0], points[-1][3]

    try:
        if names:
            # scipy's own limits never bind: the objective stops first
            stop = minimize(objective, x0, jac=True, method="L-BFGS-B",
                            bounds=[(None, None) if log else (0.0, None) for log in in_log],
                            options={"maxiter": cfg.epochs, "maxfun": cfg.epochs}).message
        else:  # scipy rejects a problem without variables
            objective(x0)
            stop = "no trainable scalars"
    except _Stop as exc:
        stop = str(exc)
    best = min(points, key=lambda point: point[0]) if points else evaluate(x0)
    curve = [point[0] for point in points] + [best[0]]
    return FitResult(params=best[1], unary_scale=best[2], curve=np.asarray(curve), stop=stop)
