"""Surface CRF: unary providers, Gaussian pairwise kernels (probability and
intensity feature variants), parameterized label compatibility, convolutional
mean-field inference, energy evaluation, and MAP extraction."""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import accel
from .patches import ColumnGraph, PatchSet

LOGIT_CLAMP = 30.0


def softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    s = logits - m
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


@dataclass(eq=False)
class UnaryField:
    """Per-column surface logits over the Z sample positions.

    The unary potential is -log softmax of the logits; logits are clamped to
    +-LOGIT_CLAMP at construction so potentials stay finite.
    """
    graph: ColumnGraph
    logits: np.ndarray  # (P,H,W,Z) float64

    def __post_init__(self):
        self.logits = np.clip(np.asarray(self.logits, dtype=np.float64),
                              -LOGIT_CLAMP, LOGIT_CLAMP)

    @property
    def z_len(self) -> int:
        return self.logits.shape[-1]

    def probabilities(self) -> np.ndarray:
        return softmax(self.logits)

    def potentials(self) -> np.ndarray:
        return -log_softmax(self.logits)

    def argmax_labels(self) -> np.ndarray:
        """Per-vertex argmax of logits (the no-CRF baseline)."""
        return self.graph.merge(np.argmax(self.logits, axis=-1))


@dataclass
class CrfParams:
    """Kernel and compatibility parameters plus inference controls."""
    w_p: float = 1.0
    w1: float = 3.0
    theta1: float = 5.0
    theta2: float = 0.2
    theta3: float = 5.0
    theta_comp: float = 5.0
    window_radius: int = 3
    iterations: int = 5
    kernel_variant: str = "probability"  # probability | intensity

    def __post_init__(self):
        """Each error message starts with the name of the field it rejects.
        w_p = 0 is valid: it switches the pairwise term off."""
        for name in ("w_p", "w1"):
            weight = getattr(self, name)
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"{name} must be a finite weight >= 0, got {weight!r}")
        for name in ("theta1", "theta2", "theta3", "theta_comp"):
            width = getattr(self, name)
            if not (math.isfinite(width) and width > 0):
                raise ValueError(f"{name} must be a finite width > 0, got {width!r}")
        if self.window_radius < 1:
            raise ValueError(f"window_radius must be >= 1, got {self.window_radius!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations!r}")
        if self.kernel_variant not in ("probability", "intensity"):
            raise ValueError(f"kernel_variant must be 'probability' or 'intensity', "
                             f"got {self.kernel_variant!r}")


def prostate_params(**overrides) -> CrfParams:
    return CrfParams(w_p=1.0, w1=3.0, theta1=5.0, theta2=0.2, theta3=5.0,
                     theta_comp=5.0, **overrides)


def spleen_params(**overrides) -> CrfParams:
    return CrfParams(w_p=0.3, w1=0.2, theta1=5.0, theta2=0.2, theta3=5.0,
                     theta_comp=5.0, **overrides)


def window_offsets(radius: int) -> np.ndarray:
    """All (dy,dx) within Chebyshev radius, self included (weight 0 there)."""
    r = np.arange(-radius, radius + 1)
    dy, dx = np.meshgrid(r, r, indexing="ij")
    return np.stack([dy.ravel(), dx.ravel()], axis=1).astype(np.int64)


@dataclass(eq=False)
class KernelField:
    """The vertex operator W that mean field runs on: W[i, j] is the Gaussian
    weight of the pair (i, j), computed from the owner features of i and j
    (edge_kernel), so W is symmetric for every unary."""
    graph: ColumnGraph
    offsets: np.ndarray    # (K,2) int64
    W: sparse.csr_matrix   # (Nv,Nv) rows in the offset order of the owning slot
    edge_pos: np.ndarray   # (nnz,) flat (slot, k) position of each entry of W

    @property
    def weights(self) -> np.ndarray:
        """The slot-grid view of W, (P,H,W,K): each entry of W at its
        position in its row's owning-slot window, 0 elsewhere.  Built on
        access, for the slot-grid reference (message_pass)."""
        P, H, W = self.graph.shape
        out = np.zeros(P * H * W * len(self.offsets))
        out[self.edge_pos] = self.W.data
        return out.reshape(P, H, W, -1)


def _window_records(graph: ColumnGraph, offsets: np.ndarray):
    """(i, k, j) for every window entry k of vertex i's owning slot that
    shows another valid vertex j, in (i, k) order."""
    r = int(np.abs(offsets).max())  # pad by the radius: entries past the edge read -1
    gid = np.pad(graph.gid, ((0, 0), (r, r), (r, r)), constant_values=-1)
    p, y, x = np.unravel_index(graph.owner, graph.shape)
    slot = np.ravel_multi_index((p, y + r, x + r), gid.shape)
    gwin = gid.reshape(-1)[slot[:, None] + offsets @ [gid.shape[2], 1]]
    # drop self: the centre offset, and any pad that shows the vertex again
    rows, ks = np.nonzero((gwin >= 0) & (gwin != np.arange(len(slot))[:, None]))
    return rows, ks, gwin[rows, ks]


class PairEdges(NamedTuple):
    """The neighbour records of the owner windows as CSR arrays over
    vertices (pair_edges), read-only, int32 where the positions allow it."""
    cols: np.ndarray    # (nnz,) the neighbour's gid per entry
    pos: np.ndarray     # (nnz,) the entry's flat (slot, k) position in (P,H,W,K)
    indptr: np.ndarray  # (Nv+1,) row pointer
    upper: np.ndarray   # (nnz/2,) the entries (i, j) with i < j
    mirror: np.ndarray  # (nnz/2,) the entry (j, i) of each upper entry


def pair_edges(graph: ColumnGraph, offsets: np.ndarray) -> PairEdges:
    """The neighbour records of the owner windows as CSR arrays over vertices.

    Row i lists, in offset order, the window entries of vertex i's owning
    slot that show another valid vertex.  Grid windows fold around cube
    edges through the pad rings, and two artifacts appear near the 8
    degree-3 corners; they are repaired here so the records form a
    well-defined symmetric pairwise graph: a seam vertex can show up in two
    edge pads of one window (keep the record with the least (d2, k), d2 the
    squared grid distance of offset k), and a diagonal path around a
    270-degree corner can be visible from one endpoint only (keep a record
    only if its mirror exists at the same d2).  The mirror lookup also
    gives, for each entry (i, j) with i < j, the position of its transpose
    (j, i), so that symmetric per-entry values are computed once per pair.

    The arrays are int32 where the positions allow it, so scipy takes them
    without a copy, and read-only."""
    K = offsets.shape[0]
    nv = graph.n_vertices
    rows, ks, cols = _window_records(graph, offsets)
    d2 = offsets[:, 0] ** 2 + offsets[:, 1] ** 2
    stride = int(d2.max()) + 1
    pair = rows * nv + cols
    key = pair * stride + d2[ks]
    order = np.argsort(key * K + ks)  # by (i, j), then (d2, k)
    pair = pair[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    del pair  # drop each (records,) intermediate at its last use, to lower the peak
    kept = order[first]  # one record per (i, j), in (i, j) order
    del order, first
    kept_key = key[kept]
    del key
    mirror_key = (cols[kept] * nv + rows[kept]) * stride + d2[ks[kept]]
    loc = np.searchsorted(kept_key, mirror_key)
    found = loc < kept.size
    found[found] = kept_key[loc[found]] == mirror_key[found]
    del kept_key, mirror_key
    keep = np.zeros(rows.size, dtype=bool)
    keep[kept[found]] = True
    at = np.cumsum(keep) - 1  # CSR position of each kept record
    upper = found & (rows[kept] < cols[kept])

    itype = np.int32 if graph.gid.size * K < 2 ** 31 else np.int64
    out = PairEdges(cols=cols[keep].astype(itype),
                    pos=(graph.owner[rows[keep]] * K + ks[keep]).astype(itype),
                    indptr=np.zeros(nv + 1, dtype=itype),
                    upper=at[kept[upper]].astype(itype),
                    mirror=at[kept[loc[upper]]].astype(itype))
    np.cumsum(np.bincount(rows[keep], minlength=nv), out=out.indptr[1:])
    for a in out:
        a.flags.writeable = False
    return out


def window_pair_mask(graph: ColumnGraph, offsets: np.ndarray) -> np.ndarray:
    """The slot view of the pair_edges records, (P,H,W,K) bool: True at each
    record's (owning slot, k) position, so on owner rows only.  Built afresh
    on each call, records included, for the slot-grid test references and
    the benchmark's pair-record probe; inference does not use it."""
    mask = np.zeros(graph.gid.size * offsets.shape[0], dtype=bool)
    mask[pair_edges(graph, offsets).pos] = True
    return mask.reshape(*graph.shape, -1)


@functools.lru_cache(maxsize=16)
def _cached_pair_edges(graph: ColumnGraph, radius: int) -> PairEdges:
    """The pair_edges records of ``graph`` at window ``radius``; they depend
    on nothing else, and fit rebuilds the kernel of every instance on every
    evaluation.  build_column_graph returns one graph per (level, pad), so
    the cache hits across load_patchset calls."""
    return pair_edges(graph, window_offsets(radius))


@dataclass(eq=False)
class SurfaceLabeling:
    """Per-vertex surface index and mean-field marginals."""
    labels: np.ndarray  # (Nv,) int64
    q: np.ndarray       # (Nv,Z) float64, rows sum to 1


# ---------------------------------------------------------------------------
# unary providers


def channel_reduce(surface_logits: np.ndarray, non_surface_logits: np.ndarray) -> np.ndarray:
    """Collapse two-class voxel logits to one surface logit by subtraction."""
    a = np.asarray(surface_logits, dtype=np.float64)
    b = np.asarray(non_surface_logits, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"channel shape mismatch: {a.shape} vs {b.shape}")
    return a - b


def gradient_unary(ps: PatchSet, polarity: str = "dark_to_bright") -> UnaryField:
    """Hand-crafted unary: per-column central intensity difference (one-sided
    at the column ends), scaled to zero mean / unit variance per column
    (variance floor guards flats)."""
    if ps.z_len < 3:
        raise ValueError("gradient unary needs z_len >= 3")
    if polarity not in ("dark_to_bright", "bright_to_dark", "magnitude"):
        raise ValueError(f"unknown polarity {polarity!r}")
    d = np.gradient(ps.samples.astype(np.float64), axis=-1)
    if polarity == "bright_to_dark":
        d = -d
    elif polarity == "magnitude":
        d = np.abs(d)
    mean = d.mean(axis=-1, keepdims=True)
    std = d.std(axis=-1, keepdims=True)
    logits = np.where(std > 1e-9, (d - mean) / np.where(std > 1e-9, std, 1.0), 0.0)
    return UnaryField(graph=ps.graph, logits=logits)


def unary_from_logits(graph: ColumnGraph, logits: np.ndarray) -> UnaryField:
    return UnaryField(graph=graph, logits=logits)


# ---------------------------------------------------------------------------
# pairwise machinery


def compatibility(d, theta_comp: float):
    """Label-difference compatibility: -exp(-d^2/theta_comp^2)."""
    d = np.asarray(d, dtype=np.float64)
    out = -np.exp(-(d * d) / (theta_comp * theta_comp))
    return float(out) if out.ndim == 0 else out


def compat_matrix(z_len: int, theta_comp: float) -> np.ndarray:
    """Toeplitz matrix M[l,l'] = compatibility(|l-l'|)."""
    idx = np.arange(z_len)
    return compatibility(np.abs(idx[:, None] - idx[None, :]), theta_comp)


def kernel_features(u: UnaryField, ps: PatchSet | None, params: CrfParams) -> np.ndarray:
    """Visual features per column: the unary softmax (probability variant) or
    the raw sampled intensities (intensity variant)."""
    if params.kernel_variant == "probability":
        return u.probabilities()
    if ps is None:
        raise ValueError("intensity kernel variant needs a PatchSet")
    return ps.samples.astype(np.float64)


_EDGE_BLOCK = 1 << 14  # pairs per gathered block of the feature distance


def edge_stats(u: UnaryField, params: CrfParams, ps: PatchSet | None = None):
    """The kernel inputs per stored entry (i, j) of W, from the owner
    (merged) kernel features f: the squared feature distance
    fd = sum_z (f_i - f_j)^2, the squared grid distance d2 of the entry's
    window offset, and the entries' cached PairEdges records.  fd is
    gathered on the upper entries (i < j) only, in blocks of pairs so the
    (pairs, Z) arrays stay bounded, and copied to their mirrors (j, i):
    (f_i - f_j)^2 and (f_j - f_i)^2 are the same floats, so fd is exactly
    symmetric and equal to a gather over every entry."""
    offs = window_offsets(params.window_radius)
    edges = _cached_pair_edges(u.graph, params.window_radius)
    cols, upper, mirror = edges.cols, edges.upper, edges.mirror
    f = u.graph.merge(kernel_features(u, ps, params))
    fd = np.empty(cols.size)
    for lo in range(0, upper.size, _EDGE_BLOCK):
        up, mi = upper[lo:lo + _EDGE_BLOCK], mirror[lo:lo + _EDGE_BLOCK]
        diff = f.take(cols[mi], axis=0)  # the row i of (i, j) is the column of (j, i)
        diff -= f.take(cols[up], axis=0)
        diff *= diff
        fd[up] = fd[mi] = diff.sum(axis=-1)
    d2 = (offs[:, 0] ** 2 + offs[:, 1] ** 2).astype(np.float64)[edges.pos % len(offs)]
    return fd, d2, edges


def edge_kernel(fd: np.ndarray, d2: np.ndarray, edges: PairEdges, params: CrfParams):
    """The Gaussian edge weights w = app + w1 * sm as the vertex operator W
    over the ``edges`` records, with the appearance term
    app = exp(-d2/(2 theta1^2) - fd/(2 theta2^2)) and the smoothness term
    sm = exp(-d2/(2 theta3^2)) per entry.  Returns (W, app, sm)."""
    it1 = 1.0 / (2.0 * params.theta1 ** 2)
    it2 = 1.0 / (2.0 * params.theta2 ** 2)
    it3 = 1.0 / (2.0 * params.theta3 ** 2)
    app = np.exp(-d2 * it1 - fd * it2)
    sm = np.exp(-d2 * it3)
    nv = edges.indptr.size - 1
    op = sparse.csr_matrix((app + params.w1 * sm, edges.cols, edges.indptr), shape=(nv, nv))
    return op, app, sm


def compute_kernel(u: UnaryField, params: CrfParams, ps: PatchSet | None = None) -> KernelField:
    """The vertex operator W of the Gaussian pairwise kernel over the owner
    windows' pair_edges records.

    Features are FIXED for the whole inference (computed once, here)."""
    fd, d2, edges = edge_stats(u, params, ps)
    return KernelField(graph=u.graph, offsets=window_offsets(params.window_radius),
                       W=edge_kernel(fd, d2, edges, params)[0], edge_pos=edges.pos)


def refresh_duplicates(q: np.ndarray, graph: ColumnGraph) -> np.ndarray:
    """Copy every valid slot's values from its owning slot (pads and unowned
    seam slots become consistent with their owner); the corner slots become
    0.  The slot-grid reference of the vertex operator; inference does not
    use it."""
    return graph.split(graph.merge(q))


def message_pass(q: np.ndarray, kf: KernelField) -> np.ndarray:
    """Q~_i(l) = sum_{j in window(i), j != i} k_ij Q_j(l) on (P,H,W,Z) slots.

    Its owner rows, on refreshed slots, are ``kf.W @ Q`` on the vertices."""
    return accel.window_sum(np.ascontiguousarray(q, dtype=np.float64),
                            kf.weights, kf.offsets)


def compat_transform(q_tilde: np.ndarray, theta_comp: float) -> np.ndarray:
    """Correlate along the label axis with the Toeplitz compatibility kernel."""
    m = compat_matrix(q_tilde.shape[-1], theta_comp)
    return q_tilde @ m


def meanfield_unroll(logits: np.ndarray, W: sparse.csr_matrix, params: CrfParams,
                     tape: list | None = None) -> np.ndarray:
    """The unrolled mean-field loop shared by inference and fitting, on
    (Nv,Z) vertex arrays: params.iterations iterations.

    Q0 = softmax(logits); each iteration message-passes (W @ Q), applies the
    compatibility transform and renormalizes via softmax(logits - w_p * Qhat).
    When ``tape`` is a list, each iteration appends (q_in, q_tilde, q_hat, q)
    for the reverse pass.  Returns the final per-vertex marginals."""
    q = softmax(logits)
    for _ in range(params.iterations):
        q_in = q
        q_tilde = W @ q_in
        q_hat = compat_transform(q_tilde, params.theta_comp)
        q = softmax(logits - params.w_p * q_hat)
        if not np.isfinite(q).all():
            raise RuntimeError("non-finite mean-field marginals")
        if tape is not None:
            tape.append((q_in, q_tilde, q_hat, q))
    return q


def meanfield_infer(u: UnaryField, params: CrfParams,
                    ps: PatchSet | None = None) -> SurfaceLabeling:
    """params.iterations undamped mean-field updates (meanfield_unroll) on
    the per-vertex unary logits: the marginals and their argmax labels."""
    kf = compute_kernel(u, params, ps=ps)
    q = meanfield_unroll(u.graph.merge(u.logits), kf.W, params)
    return SurfaceLabeling(labels=np.argmax(q, axis=-1).astype(np.int64), q=q)


def energy(lab: SurfaceLabeling, u: UnaryField, kf: KernelField, params: CrfParams) -> float:
    """E = sum_i psi_u(n_i) + w_p * sum_{(i,j) pairs} mu(|n_i-n_j|) k_ij.

    Pairs are those of the operational message-passing graph: the stored
    entries of W, which list each symmetric pair twice, so their sum is
    halved.
    """
    op = kf.W
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    mu = compatibility(lab.labels[rows] - lab.labels[op.indices], params.theta_comp)
    pair = (op.data * mu).sum()
    verts = np.arange(u.graph.n_vertices)
    unary = u.graph.merge(u.potentials())[verts, lab.labels].sum()
    return float(unary) + params.w_p * float(pair) / 2.0
