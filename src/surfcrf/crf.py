"""Surface CRF: unary providers, Gaussian pairwise kernels (probability and
intensity feature variants), parameterized label compatibility, convolutional
mean-field inference, energy evaluation, and MAP extraction."""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math
import numbers
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import accel
from .patches import ColumnGraph, PatchSet, build_column_graph

if TYPE_CHECKING:
    from scipy import sparse

LOGIT_CLAMP = 30.0


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(l - max) / sum along the last axis, in one full-size array:
    ``out`` if given, which may be ``logits`` itself."""
    e = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
        for name in ("window_radius", "iterations"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count!r}")
        if self.kernel_variant not in ("probability", "intensity"):
            raise ValueError(f"kernel_variant must be 'probability' or 'intensity', "
                             f"got {self.kernel_variant!r}")


def prostate_params(**overrides) -> CrfParams:
    return CrfParams(**{"w_p": 1.0, "w1": 3.0, "theta1": 5.0, "theta2": 0.2, "theta3": 5.0,
                        "theta_comp": 5.0, **overrides})


def spleen_params(**overrides) -> CrfParams:
    return CrfParams(**{"w_p": 0.3, "w1": 0.2, "theta1": 5.0, "theta2": 0.2, "theta3": 5.0,
                        "theta_comp": 5.0, **overrides})


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

    @property
    def weights(self) -> np.ndarray:
        """The slot-grid view of W, (P,H,W,K): each entry of W at its
        position in its row's owning-slot window, 0 elsewhere.  Built on
        access, only as a benchmark probe target."""
        edges = _cached_pair_edges(self.graph, int(np.abs(self.offsets).max()))
        out = np.zeros(self.graph.gid.size * len(self.offsets))
        out[_slot_positions(self.graph, edges, len(self.offsets))] = self.W.data
        return out.reshape(*self.graph.shape, -1)


class PairEdges(NamedTuple):
    """The neighbour records of the owner windows as CSR arrays over
    vertices: the kept cells (i, k) of pair_edges' (Nv, K) window table in
    row-major order, read-only; the index arrays are int32 where the
    positions allow it."""
    cols: np.ndarray    # (nnz,) the neighbour's gid per entry
    k: np.ndarray       # (nnz,) the entry's window offset index, the least uint type of K
    indptr: np.ndarray  # (Nv+1,) row pointer
    upper: np.ndarray   # (nnz/2,) the entries (i, j) with i < j, in (i, j) order
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

    Each rule is a row operation on one (Nv, K) table: J[i, k] is the
    vertex at offset k of vertex i's owning slot, read from gid padded with
    -1 by the radius, and -1 where it shows i itself.  The kept cells in
    row-major order are the entries in (i, k) order.  The arrays returned
    are int32 where the positions allow it, so scipy takes them without a
    copy, and read-only."""
    K = offsets.shape[0]
    nv = graph.n_vertices
    itype = np.int32 if nv * K < 2 ** 31 else np.int64
    ktype = np.min_scalar_type(K - 1)
    r = int(np.abs(offsets).max())  # pad by the radius: entries past the edge read -1
    gid = np.pad(graph.gid.astype(itype), ((0, 0), (r, r), (r, r)), constant_values=-1)
    p, y, x = np.unravel_index(graph.owner, graph.shape)
    slot = np.ravel_multi_index((p, y + r, x + r), gid.shape)
    J = gid.reshape(-1)[slot[:, None] + offsets @ [gid.shape[2], 1]]
    rows = np.arange(nv, dtype=itype)[:, None]
    J[J == rows] = -1

    # duplicates: ks lists each row's offsets in (j, d2, k) order; keep the
    # first offset of each j
    d2 = offsets[:, 0] ** 2 + offsets[:, 1] ** 2
    by_d2 = np.argsort(d2, kind="stable")
    ks = by_d2.astype(ktype)[np.argsort(J[:, by_d2], axis=1, kind="stable")]
    js = np.take_along_axis(J, ks, axis=1)
    js[:, 1:][js[:, 1:] == js[:, :-1]] = -1
    np.put_along_axis(J, ks, js, axis=1)
    del js

    # mirrors: m[i, k] is the offset of the same d2 at which row j = J[i, k]
    # lists i; row j lists i at most once, so there is one such offset or
    # none.  Pass c tries the c-th offset of each d2 group (the group's last
    # past its end); a -1 cell reads a wrapped index, dropped after the loop
    first = np.searchsorted(d2[by_d2], d2)
    size = np.searchsorted(d2[by_d2], d2, side="right") - first
    m = np.zeros(J.shape, dtype=ktype)
    keep = np.zeros(J.shape, dtype=bool)
    for c in range(size.max()):
        mk = by_d2[first + np.minimum(c, size - 1)].astype(ktype)
        hit = J.reshape(-1)[J * K + mk] == rows
        np.copyto(m, mk, where=hit)
        keep |= hit
        del hit
    keep &= J >= 0

    # CSR: a kept cell's position is its rank in row-major order; the kept
    # i < j cells taken in ks order are the upper entries in (i, j) order
    pos = np.cumsum(keep, dtype=itype) - 1
    cell = (rows * K + ks)[np.take_along_axis(keep & (J > rows), ks, axis=1)]
    upper = pos[cell]
    mirror = pos[J.reshape(-1)[cell] * K + m.reshape(-1)[cell]]
    del pos, m, cell
    indptr = np.zeros(nv + 1, dtype=itype)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    out = PairEdges(cols=J[keep], k=np.broadcast_to(np.arange(K, dtype=ktype), J.shape)[keep],
                    indptr=indptr, upper=upper, mirror=mirror)
    for arr in out:
        arr.flags.writeable = False
    return out


def _window_graph(graph: ColumnGraph, radius: int) -> ColumnGraph:
    """The graph whose windows of ``radius`` give the CRF neighbours of
    ``graph``'s vertices: for a cube-sphere graph its face grids padded to
    min(radius, n), so that each window reads every seam entry it reaches,
    whatever the pad of ``graph``; a toy graph itself."""
    qs = graph.sphere
    return graph if qs is None else build_column_graph(qs, min(radius, qs.n))


def _slot_positions(graph: ColumnGraph, edges: PairEdges, K: int) -> np.ndarray:
    """The flat (P,H,W,K) position in ``graph`` of each record: its row's
    owning slot and its window offset k."""
    return np.repeat(graph.owner * K, np.diff(edges.indptr)) + edges.k


def window_pair_mask(graph: ColumnGraph, offsets: np.ndarray) -> np.ndarray:
    """The slot view of the CRF neighbour records, (P,H,W,K) bool: True at
    each record's (owning slot, k) position, so on owner rows only.  Built
    afresh on each call, records included, only as a benchmark probe
    target."""
    edges = pair_edges(_window_graph(graph, int(np.abs(offsets).max())), offsets)
    mask = np.zeros(graph.gid.size * offsets.shape[0], dtype=bool)
    mask[_slot_positions(graph, edges, offsets.shape[0])] = True
    return mask.reshape(*graph.shape, -1)


@functools.lru_cache(maxsize=16)
def _cached_pair_edges(graph: ColumnGraph, radius: int) -> PairEdges:
    """The CRF neighbour records of ``graph``'s vertices at window
    ``radius``: pair_edges on _window_graph.  They depend on nothing else,
    and fit rebuilds the kernel of every instance on every evaluation.
    build_column_graph returns one graph per (level, pad), so the cache
    hits across load_patchset calls."""
    return pair_edges(_window_graph(graph, radius), window_offsets(radius))


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


def gradient_unary(ps: PatchSet, polarity: str) -> UnaryField:
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


_EDGE_BLOCK = 1 << 16  # elements (pairs x Z) per gathered block of the feature distance


def edge_stats(u: UnaryField, params: CrfParams, ps: PatchSet | None = None):
    """The kernel inputs per stored entry (i, j) of W, from the owner
    (merged) kernel features f: the squared feature distance
    fd = sum_z (f_i - f_j)^2, and the entries' cached PairEdges records.
    Returns (fd, edges).  The probability features are the softmax of the
    merged logits: softmax works row by row, so they are the merged
    kernel_features, from fewer rows.  fd is gathered on the upper entries
    (i < j) only, in blocks of _EDGE_BLOCK elements so the (pairs, Z)
    arrays stay bounded, and copied to their mirrors (j, i):
    (f_i - f_j)^2 and (f_j - f_i)^2 are the same floats, so fd is exactly
    symmetric and equal to a gather over every entry."""
    edges = _cached_pair_edges(u.graph, params.window_radius)
    cols, upper, mirror = edges.cols, edges.upper, edges.mirror
    if params.kernel_variant == "probability":
        f = softmax(u.graph.merge(u.logits))
    else:
        f = u.graph.merge(kernel_features(u, ps, params))
    fd = np.empty(cols.size)
    block = max(1, _EDGE_BLOCK // f.shape[-1])
    for lo in range(0, upper.size, block):
        up, mi = upper[lo:lo + block], mirror[lo:lo + block]
        diff = f.take(cols[mi], axis=0)  # the row i of (i, j) is the column of (j, i)
        diff -= f.take(cols[up], axis=0)
        diff *= diff
        fd[up] = fd[mi] = diff.sum(axis=-1)
    return fd, edges


def offset_tables(params: CrfParams):
    """(d2, sm), one entry per window offset k: the squared grid distance
    d2 = dy^2 + dx^2 of offset k and the smoothness term
    sm = exp(-d2/(2 theta3^2)).  An entry of W takes both from its offset,
    so they are gathered by the records' k, never stored per entry."""
    offs = window_offsets(params.window_radius)
    d2 = (offs[:, 0] ** 2 + offs[:, 1] ** 2).astype(np.float64)
    return d2, np.exp(-d2 * (1.0 / (2.0 * params.theta3 ** 2)))


def edge_kernel(fd: np.ndarray, edges: PairEdges, params: CrfParams):
    """The Gaussian edge weights w = app + w1 * sm as the vertex operator W
    over the ``edges`` records, with the appearance term
    app = exp(-d2/(2 theta1^2) - fd/(2 theta2^2)) per entry; d2, its
    spatial exponent and w1 * sm are offset_tables gathered by the entries'
    k.  Returns (W, app)."""
    from scipy import sparse  # here, so that steps without a CRF do not import it

    d2, sm = offset_tables(params)
    it1 = 1.0 / (2.0 * params.theta1 ** 2)
    it2 = 1.0 / (2.0 * params.theta2 ** 2)
    app = (-d2 * it1)[edges.k]
    app -= fd * it2
    np.exp(app, out=app)
    data = (params.w1 * sm)[edges.k]
    data += app  # app + w1 * sm: the sum of two floats does not depend on their order
    nv = edges.indptr.size - 1
    return sparse.csr_matrix((data, edges.cols, edges.indptr), shape=(nv, nv)), app


def compute_kernel(u: UnaryField, params: CrfParams, ps: PatchSet | None = None) -> KernelField:
    """The vertex operator W of the Gaussian pairwise kernel over the owner
    windows' pair_edges records.

    Features are FIXED for the whole inference (computed once, here)."""
    return KernelField(graph=u.graph, offsets=window_offsets(params.window_radius),
                       W=edge_kernel(*edge_stats(u, params, ps), params)[0])


def refresh_duplicates(q: np.ndarray, graph: ColumnGraph) -> np.ndarray:
    """Copy every valid slot's values from its owning slot (pads and unowned
    seam slots become consistent with their owner); the corner slots become
    0.  Only a benchmark probe target."""
    return graph.split(graph.merge(q))


def message_pass(q: np.ndarray, kf: KernelField) -> np.ndarray:
    """Q~_i(l) = sum_{j in window(i), j != i} k_ij Q_j(l) on (P,H,W,Z) slots.

    Its owner rows, on refreshed slots, are ``kf.W @ Q`` on the vertices;
    only a benchmark probe target."""
    return accel.window_sum(np.ascontiguousarray(q, dtype=np.float64),
                            kf.weights, kf.offsets)


def compat_transform(q_tilde: np.ndarray, theta_comp: float) -> np.ndarray:
    """Correlate along the label axis with the Toeplitz compatibility kernel."""
    m = compat_matrix(q_tilde.shape[-1], theta_comp)
    return q_tilde @ m


def _finite(q: np.ndarray) -> np.ndarray:
    if not np.isfinite(q).all():
        raise RuntimeError("non-finite mean-field marginals")
    return q


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
        if tape is None:
            del q_tilde  # before the next (Nv,Z) array is allocated
        # softmax(logits - w_p * q_hat) in place in one new array: -(w_p x)
        # is (-w_p) x and a - b is a + (-b), so these are the same floats
        q = np.multiply(q_hat, -params.w_p)
        q += logits
        q = _finite(softmax(q, out=q))
        if tape is not None:
            tape.append((q_in, q_tilde, q_hat, q))
        del q_hat  # before the next iteration's arrays are allocated
    return q


def meanfield_infer(u: UnaryField, params: CrfParams,
                    ps: PatchSet | None = None) -> SurfaceLabeling:
    """params.iterations undamped mean-field updates (meanfield_unroll) on
    the per-vertex unary logits: the marginals and their argmax labels.

    At w_p = 0 every iteration returns softmax(l - 0 * q_hat), the same
    floats as softmax(l) (a signed zero moves no bit of a softmax), so no
    kernel is built and no iteration runs.  The intensity variant without
    a PatchSet still goes to compute_kernel, which rejects it.  The logits
    are merged after W is built, so the kernel's temporaries and the
    merged logits are not held at once."""
    if params.w_p == 0 and (params.kernel_variant == "probability" or ps is not None):
        q = _finite(softmax(u.graph.merge(u.logits)))
    else:
        W = compute_kernel(u, params, ps=ps).W
        q = meanfield_unroll(u.graph.merge(u.logits), W, params)
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
