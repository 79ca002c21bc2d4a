"""Surface CRF: unary providers, Gaussian pairwise kernels (probability and
intensity feature variants), parameterized label compatibility, convolutional
mean-field inference, energy evaluation, and MAP extraction."""
from __future__ import annotations

from dataclasses import dataclass, asdict
import json
import weakref

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
        if min(self.theta1, self.theta2, self.theta3, self.theta_comp) <= 0:
            raise ValueError("kernel widths must be > 0")
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.kernel_variant not in ("probability", "intensity"):
            raise ValueError(f"unknown kernel variant {self.kernel_variant!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CrfParams":
        raw = json.loads(text)
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown CrfParams keys: {sorted(unknown)}")
        return cls(**raw)


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


def window_gids(graph: ColumnGraph, offsets: np.ndarray) -> np.ndarray:
    """Global id of each window neighbor, (P,H,W,K); -1 out of grid/invalid."""
    P, H, W = graph.shape
    K = offsets.shape[0]
    out = np.full((P, H, W, K), -1, dtype=np.int64)
    gid = np.where(graph.valid, graph.gid, -1)
    for k in range(K):
        dy, dx = int(offsets[k, 0]), int(offsets[k, 1])
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        if ys0 >= ys1 or xs0 >= xs1:
            continue
        out[:, ys0:ys1, xs0:xs1, k] = gid[:, ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
    return out


def window_pair_mask(graph: ColumnGraph, offsets: np.ndarray) -> np.ndarray:
    """Valid neighbor mask with gid deduplication and corner symmetrization.

    Grid windows fold around cube edges through the pad rings.  Two artifacts
    appear near the 8 degree-3 corners and are repaired here so the
    operational neighbor graph is a well-defined symmetric pairwise graph:
    a seam vertex can show up in two edge pads of one window (keep only the
    minimal-distance occurrence), and a diagonal path around a 270-degree
    corner can be visible from one endpoint only (drop records whose mirror
    at the same grid distance does not exist in the owner windows).  Slots
    duplicating the source's own gid are dropped as self-pairs.
    """
    P, H, W = graph.shape
    K = offsets.shape[0]
    gwin = window_gids(graph, offsets).reshape(-1, K)
    own = np.where(graph.valid, graph.gid, -2).reshape(-1)
    keep = (gwin >= 0) & (gwin != own[:, None]) & graph.valid.reshape(-1)[:, None]
    center = np.nonzero((offsets[:, 0] == 0) & (offsets[:, 1] == 0))[0]
    keep[:, center] = False

    d2 = offsets[:, 0] ** 2 + offsets[:, 1] ** 2
    order = np.lexsort((np.arange(K), d2))
    g_ord = np.where(keep, gwin, -1)[:, order]
    idx = np.argsort(g_ord, axis=1, kind="stable")
    g_sorted = np.take_along_axis(g_ord, idx, axis=1)
    dup_sorted = np.zeros_like(g_sorted, dtype=bool)
    dup_sorted[:, 1:] = (g_sorted[:, 1:] == g_sorted[:, :-1]) & (g_sorted[:, 1:] >= 0)
    dup_ord = np.zeros_like(dup_sorted)
    np.put_along_axis(dup_ord, idx, dup_sorted, axis=1)
    dup = np.zeros_like(dup_sorted)
    dup[:, order] = dup_ord
    keep &= ~dup

    # symmetrize on (gid pair, squared grid distance) records of owner
    # windows: A[src, dst] = d2 + 1, one entry per pair after the dedup above
    rows, ks = np.nonzero(keep)
    if rows.size == 0:
        return keep.reshape(P, H, W, K)
    src, dst, d2p = own[rows], gwin[rows, ks], d2[ks] + 1
    orec = graph.owned.reshape(-1)[rows]
    nv = graph.n_vertices
    a = sparse.csr_matrix((d2p[orec], (src[orec], dst[orec])), shape=(nv, nv))
    if a.nnz != orec.sum():
        raise AssertionError("owner windows list a gid pair twice")
    fwd = np.asarray(a[src, dst]).ravel()
    mirror = np.asarray(a[dst, src]).ravel()
    keep[rows, ks] = (fwd == d2p) & (mirror == d2p)
    return keep.reshape(P, H, W, K)


def pair_edges(graph: ColumnGraph, mask: np.ndarray, offsets: np.ndarray):
    """The owner-row records of a pair mask as CSR arrays over vertices.

    Row i lists the kept window entries of vertex i's owning slot in offset
    order: ``cols`` holds each neighbour's gid, ``pos`` the entry's flat
    (slot, k) position in a (P,H,W,K) array, ``indptr`` the row pointer.
    The arrays are int32 where the positions allow it, so scipy takes them
    without a copy, and read-only."""
    W = graph.shape[2]
    K = offsets.shape[0]
    itype = np.int32 if mask.size < 2 ** 31 else np.int64
    owner = graph.owner_slots()
    rows, ks = np.nonzero(mask.reshape(-1, K)[owner])
    src = owner[rows]
    cols = graph.gid.reshape(-1)[src + offsets[ks, 0] * W + offsets[ks, 1]].astype(itype)
    pos = (src * K + ks).astype(itype)
    indptr = np.zeros(graph.n_vertices + 1, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=graph.n_vertices), out=indptr[1:])
    for a in (cols, pos, indptr):
        a.flags.writeable = False
    return cols, pos, indptr


# graph -> {window radius: (read-only pair mask, its edge records)}; both
# depend on nothing else, and fit rebuilds the kernel of every instance on
# every epoch.  build_column_graph returns one graph per (level, pad), so the
# cache is in effect keyed on (level, pad, radius) and hits across
# load_patchset calls
_PAIR_MASKS = weakref.WeakKeyDictionary()


def _cached_pair_mask(graph: ColumnGraph, radius: int, offsets: np.ndarray):
    """(pair mask, pair_edges records) of ``graph`` at window ``radius``."""
    masks = _PAIR_MASKS.setdefault(graph, {})
    if radius not in masks:
        mask = window_pair_mask(graph, offsets)
        mask.flags.writeable = False
        masks[radius] = mask, pair_edges(graph, mask, offsets)
    return masks[radius]


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
    """Hand-crafted unary: per-column central intensity difference, scaled to
    zero mean / unit variance per column (variance floor guards flats)."""
    if ps.z_len < 3:
        raise ValueError("gradient unary needs z_len >= 3")
    if polarity not in ("dark_to_bright", "bright_to_dark", "magnitude"):
        raise ValueError(f"unknown polarity {polarity!r}")
    v = ps.samples.astype(np.float64)
    d = np.empty_like(v)
    d[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / 2.0
    d[..., 0] = v[..., 1] - v[..., 0]
    d[..., -1] = v[..., -1] - v[..., -2]
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


_EDGE_BLOCK = 1 << 14  # edges per gathered block of the feature distance


def edge_stats(u: UnaryField, params: CrfParams, ps: PatchSet | None = None):
    """The kernel inputs per stored entry (i, j) of W, from the owner
    (merged) kernel features f: the squared feature distance
    fd = sum_z (f_i - f_j)^2, the squared grid distance d2 of the entry's
    window offset, and the entries' cached (cols, pos, indptr) records
    (pair_edges).  fd is gathered in blocks of edges, so the (edges, Z)
    arrays stay bounded."""
    offs = window_offsets(params.window_radius)
    _, edges = _cached_pair_mask(u.graph, params.window_radius, offs)
    cols, pos, indptr = edges
    f = u.graph.merge(kernel_features(u, ps, params))
    rows = np.repeat(np.arange(u.graph.n_vertices), np.diff(indptr))
    fd = np.empty(cols.size)
    for lo in range(0, cols.size, _EDGE_BLOCK):
        sl = slice(lo, lo + _EDGE_BLOCK)
        diff = f.take(rows[sl], axis=0)
        diff -= f.take(cols[sl], axis=0)
        diff *= diff
        fd[sl] = diff.sum(axis=-1)
    d2 = (offs[:, 0] ** 2 + offs[:, 1] ** 2).astype(np.float64)[pos % len(offs)]
    return fd, d2, edges


def edge_kernel(fd: np.ndarray, d2: np.ndarray, edges, params: CrfParams):
    """The Gaussian edge weights w = app + w1 * sm as the vertex operator W
    over the ``edges`` records, with the appearance term
    app = exp(-d2/(2 theta1^2) - fd/(2 theta2^2)) and the smoothness term
    sm = exp(-d2/(2 theta3^2)) per entry.  Returns (W, app, sm)."""
    cols, _, indptr = edges
    it1 = 1.0 / (2.0 * params.theta1 ** 2)
    it2 = 1.0 / (2.0 * params.theta2 ** 2)
    it3 = 1.0 / (2.0 * params.theta3 ** 2)
    app = np.exp(-d2 * it1 - fd * it2)
    sm = np.exp(-d2 * it3)
    nv = indptr.size - 1
    op = sparse.csr_matrix((app + params.w1 * sm, cols, indptr), shape=(nv, nv))
    return op, app, sm


def compute_kernel(u: UnaryField, params: CrfParams, ps: PatchSet | None = None) -> KernelField:
    """The vertex operator W of the Gaussian pairwise kernel over the owner
    windows' pair-mask records.

    Features are FIXED for the whole inference (computed once, here)."""
    fd, d2, edges = edge_stats(u, params, ps)
    return KernelField(graph=u.graph, offsets=window_offsets(params.window_radius),
                       W=edge_kernel(fd, d2, edges, params)[0], edge_pos=edges[1])


def refresh_duplicates(q: np.ndarray, graph: ColumnGraph) -> np.ndarray:
    """Copy every valid slot's values from its owning slot (pads and unowned
    seam slots become consistent with their owner).  The slot-grid reference
    of the vertex operator; inference does not use it."""
    flat = q.reshape(-1, q.shape[-1])
    src = graph.dup_src.ravel()
    ok = src >= 0
    out = np.zeros_like(flat)
    out[ok] = flat[src[ok]]
    return out.reshape(q.shape)


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
                     iterations: int | None = None, tape: list | None = None) -> np.ndarray:
    """The unrolled mean-field loop shared by inference and fitting, on
    (Nv,Z) vertex arrays.

    Q0 = softmax(logits); each iteration message-passes (W @ Q), applies the
    compatibility transform and renormalizes via softmax(logits - w_p * Qhat).
    When ``tape`` is a list, each iteration appends (q_in, q_tilde, q_hat, q)
    for the reverse pass.  Returns the final per-vertex marginals."""
    iterations = params.iterations if iterations is None else iterations
    q = softmax(logits)
    for _ in range(iterations):
        q_in = q
        q_tilde = W @ q_in
        q_hat = compat_transform(q_tilde, params.theta_comp)
        q = softmax(logits - params.w_p * q_hat)
        if not np.isfinite(q).all():
            raise RuntimeError("non-finite mean-field marginals")
        if tape is not None:
            tape.append((q_in, q_tilde, q_hat, q))
    return q


def meanfield_infer(u: UnaryField, params: CrfParams, ps: PatchSet | None = None,
                    kf: KernelField | None = None) -> SurfaceLabeling:
    """T damped-free mean-field updates (meanfield_unroll) on the per-vertex
    unary logits: the marginals and their argmax labels."""
    if kf is None:
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
