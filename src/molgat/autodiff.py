"""Reverse-mode automatic differentiation over matrices and edge lists.

Every differentiable quantity is a ``Value``: a 2-D float64 numpy array plus
an accumulated gradient. Operations are methods on a ``Tape``; each call
computes the result eagerly. When some input requires a gradient, the result
is a node that keeps its parents and its local gradient rule, and the tape
appends it; ``Tape.backward`` replays the nodes in reverse to populate
gradients for every reachable leaf. A result computed from constants only is
a plain ``Value``: no parents, no rule, not on the tape, so it is freed as
soon as nothing references it. A forward pass on constant weights
(``ModelParams.constants``) therefore holds about one layer's values at a
time. A tape is built fresh for each forward pass (define-by-run) and is
single-threaded.

Every operation checks its result for non-finite values and pays for a
``Value`` and a closure, whether or not it records. So a chain that runs
every pass is one node with a hand-written backward rule: ``Tape.affine``
for a dense layer, and ``Tape.record`` for a chain computed by its caller
(an attention layer in ``gat``, the contact weights in ``model``), which
checks each intermediate itself. The numpy kernels such chains share with
the elementary operations (edge products and sums, segment softmax,
sigmoid, the finiteness check) are module functions here, so each exists
once.

Scalars are represented as 1x1 matrices so the whole engine has one shape
discipline. Graph operations take a sorted symmetric edge list
(``graphs.Edges``: ``src``/``dst`` sorted by ``(src, dst)``, each row's first
edge in ``starts``, each edge's reverse in ``rev``, the node count of each
graph in ``sizes``) and hold per-edge values as E x 1 columns. A batch of
graphs is one block-diagonal edge list (``Edges.merge``), so every operation
runs once per batch. Sums over the edges into a node go through ``rev``,
which turns them into sums over a row's edges. The edge products and sums
run one of two ways, chosen once per edge list. Small graphs take one dense
n x n product per graph (``Edges.blocks``). Larger ones take the rows grouped
by degree (``Edges.buckets``): the edges of the n_d rows of degree d are
n_d runs of length d, so their sums are one batched (n_d,1,d) @ (n_d,d,F)
product and their dots one (n_d,d,F) @ (n_d,F,1) product. The dense kernel
runs when the blocks hold at most ``_DENSE_ENTRIES_PER_EDGE`` entries per
edge in all (sum of n_g^2 <= 40 E), so a one-graph edge list is judged by
its own n^2.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

_LOG_FLOOR = 1e-12


# An edge list whose graphs' n x n blocks hold at most this many entries per
# edge in all gets its edge products from one dense n x n product per graph
# instead of the degree buckets. Per call of one edge sum and one edge dot at
# F = 140 (2-core VM, one BLAS thread), dense takes 0.7x the buckets' time at
# 30-35 entries per edge, 0.86x at 35-40, about 1.0x at 40-50, 1.25x at 50-55
# and 1.5x past 60. A 32-graph training batch (about 4.5 entries per edge)
# takes 1.3 ms dense against 2.4 ms bucketed; a 600-atom pocket (about 145)
# 4.9 ms dense against 1.3 ms bucketed. The n x n temporaries stay within a
# constant factor of the edge list's size.
_DENSE_ENTRIES_PER_EDGE = 40


def _dense(edges) -> bool:
    return int(edges.sizes @ edges.sizes) <= _DENSE_ENTRIES_PER_EDGE * len(edges.src)


def _edge_dots(a: np.ndarray, b: np.ndarray, edges) -> np.ndarray:
    """E x 1 column of a[src_e] . b[dst_e]."""
    if not _dense(edges):
        out = np.empty((len(edges.src), 1))
        for rows, index in edges.buckets:
            out[index] = b[edges.dst[index]] @ a[rows][:, :, None]
        return out
    bounds, index, total = edges.blocks
    flat = np.empty(total)
    for lo, n, at in bounds:
        np.matmul(a[lo:lo + n], b[lo:lo + n].T, out=flat[at:at + n * n].reshape(n, n))
    return flat[index][:, None]


def _edge_sums(w: np.ndarray, x: np.ndarray, edges) -> np.ndarray:
    """N x F rows out_i = sum over node i's edges e of w_e * x[dst_e]."""
    out = np.empty((len(edges.starts), x.shape[1]))
    if not _dense(edges):
        for rows, index in edges.buckets:
            out[rows] = (w[index].transpose(0, 2, 1) @ x[edges.dst[index]])[:, 0]
        return out
    bounds, index, total = edges.blocks
    flat = np.zeros(total)
    flat[index] = w[:, 0]
    for lo, n, at in bounds:
        np.matmul(flat[at:at + n * n].reshape(n, n), x[lo:lo + n], out=out[lo:lo + n])
    return out


def _segment_softmax(s: np.ndarray, edges, keep: np.ndarray) -> np.ndarray:
    """Softmax of the length-E vector ``s`` over each source node's edges
    where ``keep`` is true, zero elsewhere; rows are stabilized by their max
    over the kept edges."""
    src = edges.src
    row_max = np.maximum.reduceat(np.where(keep, s, -np.inf), edges.starts)
    if np.isneginf(row_max).any():
        raise ShapeError("segment_softmax: a row has no masked-in edge")
    ex = np.exp(np.where(keep, s - row_max[src], -np.inf))
    return ex / np.add.reduceat(ex, edges.starts)[src]


def _segment_softmax_grad(g: np.ndarray, out: np.ndarray, edges) -> np.ndarray:
    """Gradient of a segment softmax's scores, given ``out`` and the
    gradient ``g`` of out (length-E vectors)."""
    dot = np.add.reduceat(g * out, edges.starts)
    return out * (g - dot[edges.src])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), through exp(x) / (1 + exp(x)) for negative x, so
    no exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _checked(data: np.ndarray) -> np.ndarray:
    """``data`` itself, once every value is known to be finite."""
    if not np.isfinite(data).all():
        raise NumericError("operation produced non-finite values")
    return data


def _check_edges(op: str, edges, *per_edge) -> None:
    for v in per_edge:
        if v.shape != (len(edges.src), 1):
            raise ShapeError(f"{op}: expected one value per edge ({len(edges.src)}x1), got {v.shape}")


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected a scalar, vector, or matrix, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


class Value:
    """A matrix on (or feeding) a tape.

    Leaves are created directly (``Value(data, requires_grad=True)`` for
    trainable parameters, ``requires_grad=False`` for constants). A tape
    operation with an input that requires a gradient creates an interior
    node, which carries a closure that routes the incoming gradient to its
    parents; one on constants only returns a constant.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Value, ...] = ()

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 value, got {self.data.shape}")
        return float(self.data[0, 0])

    def accumulate(self, g: np.ndarray, copy: bool = False) -> None:
        # The first gradient is kept as handed over: a backward rule hands
        # over an array it has just built, which nothing else holds. A rule
        # that passes on its incoming gradient, which may reach several
        # parents (``add``, ``sub``), or a view of it (``transpose``,
        # ``concat_cols``) asks for a copy.
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64) if copy else g
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Value:
    """A trainable leaf: accumulates gradient across backward passes."""
    return Value(data, requires_grad=True)


def constant(data) -> Value:
    """A non-trainable leaf; gradients never flow into it."""
    return Value(data, requires_grad=False)


class Tape:
    """Ordered record of the operations of one forward pass that can carry
    a gradient: those with an input that requires one."""

    def __init__(self):
        self._nodes: list[Value] = []

    def __len__(self) -> int:
        return len(self._nodes)

    # -- recording ---------------------------------------------------------

    def record(self, data: np.ndarray, parents: tuple[Value, ...], backward) -> Value:
        """The result ``data`` of an operation on ``parents``, checked for
        non-finite values; a node on the tape when some parent requires a
        gradient, a constant otherwise.

        ``backward(g)`` hands each parent that requires a gradient its share
        of ``g`` through ``accumulate``, each share an array it has just
        built (or a copy). Every operation below records through here; so do
        the chains that run as one node with a hand-written rule (an
        attention layer in ``gat``, the contact weights in ``model``), which
        check their own intermediates."""
        out = Value(_checked(data))
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            self._nodes.append(out)
        return out

    # -- core operations ----------------------------------------------------

    def matmul(self, a: Value, b: Value) -> Value:
        if a.cols != b.rows:
            raise ShapeError(f"matmul: inner dimensions differ ({a.shape} x {b.shape})")

        def backward(g):
            if a.requires_grad:
                a.accumulate(g @ b.data.T)
            if b.requires_grad:
                b.accumulate(a.data.T @ g)

        return self.record(a.data @ b.data, (a, b), backward)

    def affine(self, x: Value, w: Value, b: Value) -> Value:
        """x @ w + b, where b is a 1 x cols row added to every row: one node
        for a dense layer, the product and the bias each checked for
        non-finite values, as a product, broadcast and sum would be."""
        if x.cols != w.rows or b.shape != (1, w.cols):
            raise ShapeError(f"affine: {x.shape} x {w.shape} + {b.shape}")

        def backward(g):
            if x.requires_grad:
                x.accumulate(g @ w.data.T)
            if w.requires_grad:
                w.accumulate(x.data.T @ g)
            if b.requires_grad:
                b.accumulate(g.sum(axis=0, keepdims=True))

        return self.record(_checked(x.data @ w.data) + _checked(b.data), (x, w, b), backward)

    def add(self, a: Value, b: Value) -> Value:
        self._require_same_shape("add", a, b)

        def backward(g):
            if a.requires_grad:
                a.accumulate(g, copy=True)
            if b.requires_grad:
                b.accumulate(g, copy=True)

        return self.record(a.data + b.data, (a, b), backward)

    def sub(self, a: Value, b: Value) -> Value:
        self._require_same_shape("sub", a, b)

        def backward(g):
            if a.requires_grad:
                a.accumulate(g, copy=True)
            if b.requires_grad:
                b.accumulate(-g)

        return self.record(a.data - b.data, (a, b), backward)

    def mul(self, a: Value, b: Value) -> Value:
        self._require_same_shape("mul", a, b)

        def backward(g):
            if a.requires_grad:
                a.accumulate(g * b.data)
            if b.requires_grad:
                b.accumulate(g * a.data)

        return self.record(a.data * b.data, (a, b), backward)

    def scale(self, a: Value, c: float) -> Value:
        c = float(c)

        def backward(g):
            a.accumulate(c * g)

        return self.record(c * a.data, (a,), backward)

    def exp(self, a: Value) -> Value:
        out_data = np.exp(a.data)

        def backward(g):
            a.accumulate(g * out_data)

        return self.record(out_data, (a,), backward)

    def log(self, a: Value) -> Value:
        # Argument clamped below at 1e-12; the clamped region has zero gradient.
        clamped = np.maximum(a.data, _LOG_FLOOR)

        def backward(g):
            a.accumulate(np.where(a.data > _LOG_FLOOR, g / clamped, 0.0))

        return self.record(np.log(clamped), (a,), backward)

    def sigmoid(self, a: Value) -> Value:
        out_data = _sigmoid(a.data)

        def backward(g):
            a.accumulate(g * out_data * (1.0 - out_data))

        return self.record(out_data, (a,), backward)

    def relu(self, a: Value) -> Value:
        def backward(g):
            a.accumulate(g * (a.data > 0))

        return self.record(np.maximum(a.data, 0.0), (a,), backward)

    def softplus(self, a: Value) -> Value:
        out_data = np.logaddexp(0.0, a.data)

        def backward(g):
            a.accumulate(g / (1.0 + np.exp(-a.data)))

        return self.record(out_data, (a,), backward)

    def reciprocal(self, a: Value) -> Value:
        out_data = 1.0 / a.data

        def backward(g):
            a.accumulate(-g * out_data * out_data)

        return self.record(out_data, (a,), backward)

    def transpose(self, a: Value) -> Value:
        def backward(g):
            a.accumulate(g.T, copy=True)

        return self.record(a.data.T.copy(), (a,), backward)

    def concat_cols(self, a: Value, b: Value) -> Value:
        if a.rows != b.rows:
            raise ShapeError(f"concat_cols: row counts differ ({a.shape} vs {b.shape})")
        split = a.cols

        def backward(g):
            if a.requires_grad:
                a.accumulate(g[:, :split], copy=True)
            if b.requires_grad:
                b.accumulate(g[:, split:], copy=True)

        return self.record(np.concatenate([a.data, b.data], axis=1), (a, b), backward)

    def rowscale(self, col: Value, m: Value) -> Value:
        """out_ij = col_i * m_ij, where col is Nx1."""
        if col.cols != 1 or col.rows != m.rows:
            raise ShapeError(f"rowscale: expected ({m.rows}x1) column, got {col.shape}")

        def backward(g):
            if col.requires_grad:
                col.accumulate((g * m.data).sum(axis=1, keepdims=True))
            if m.requires_grad:
                m.accumulate(g * col.data)

        return self.record(col.data * m.data, (col, m), backward)

    def broadcast(self, s: Value, rows: int, cols: int) -> Value:
        """Spread a 1x1 value, or a 1 x cols row, to a rows x cols matrix."""
        if s.shape not in ((1, 1), (1, cols)):
            raise ShapeError(f"broadcast: expected a 1x1 or 1x{cols} value, got {s.shape}")

        def backward(g):
            if s.cols == 1:
                s.accumulate(np.array([[g.sum()]]))
            else:
                s.accumulate(g.sum(axis=0, keepdims=True))

        return self.record(np.broadcast_to(s.data, (rows, cols)).copy(), (s,), backward)

    def sum_all(self, a: Value) -> Value:
        def backward(g):
            a.accumulate(np.full_like(a.data, g[0, 0]))

        return self.record(np.array([[a.data.sum()]]), (a,), backward)

    def sum_rows(self, a: Value, sizes=None) -> Value:
        """Sum over the row index: out is 1 x cols. With ``sizes`` (G
        positive counts adding up to a's rows), sum each run of rows
        separately: out is G x cols, row g the sum of run g."""
        sizes = np.array([a.rows] if sizes is None else sizes)
        if (sizes < 1).any() or sizes.sum() != a.rows:
            raise ShapeError(f"sum_rows: runs of {sizes.tolist()} rows do not split {a.rows} rows")

        def backward(g):
            a.accumulate(np.repeat(g, sizes, axis=0))

        return self.record(np.add.reduceat(a.data, np.cumsum(sizes) - sizes, axis=0), (a,), backward)

    def masked_softmax(self, scores: Value, mask: np.ndarray) -> Value:
        """Row-wise softmax over masked-in entries; zeros elsewhere.

        ``mask`` is a constant {0,1} array of the same shape. Rows are
        stabilized by subtracting the row max over masked-in entries. A row
        with no masked-in entry is an error (self-loops are expected to make
        every row non-empty).
        """
        mask = np.asarray(mask)
        if mask.shape != scores.shape:
            raise ShapeError(
                f"masked_softmax: mask shape {mask.shape} != scores shape {scores.shape}"
            )
        inmask = mask != 0
        if not inmask.any(axis=1).all():
            raise ShapeError("masked_softmax: a row has an all-zero mask")
        neg_inf = np.where(inmask, scores.data, -np.inf)
        row_max = neg_inf.max(axis=1, keepdims=True)
        ex = np.exp(np.where(inmask, scores.data - row_max, -np.inf))
        denom = ex.sum(axis=1, keepdims=True)
        out_data = ex / denom

        def backward(g):
            # Softmax Jacobian per row, restricted to masked-in entries.
            dot = (g * out_data).sum(axis=1, keepdims=True)
            scores.accumulate(out_data * (g - dot))

        return self.record(out_data, (scores,), backward)

    def dropout(self, a: Value, keep: np.ndarray) -> Value:
        """Inverted dropout by a constant mask of 0 and 1 / (1 - rate)."""
        if keep.shape != a.shape:
            raise ShapeError(f"dropout: mask {keep.shape} must match {a.shape}")

        def backward(g):
            a.accumulate(g * keep)

        return self.record(a.data * keep, (a,), backward)

    # -- edge-list operations ---------------------------------------------------

    def edge_dot(self, a: Value, b: Value, edges) -> Value:
        """out_e = a[src_e] . b[dst_e] for every edge, as an E x 1 column."""
        if a.shape != b.shape or a.rows != len(edges.starts):
            raise ShapeError(f"edge_dot: {a.shape} and {b.shape} must be {len(edges.starts)} x F")

        def backward(g):
            if a.requires_grad:
                a.accumulate(_edge_sums(g, b.data, edges))
            if b.requires_grad:
                b.accumulate(_edge_sums(g[edges.rev], a.data, edges))

        return self.record(_edge_dots(a.data, b.data, edges), (a, b), backward)

    def take_rows(self, a: Value, index: np.ndarray) -> Value:
        """out = a[index], where ``index`` holds distinct row indices of a:
        a permutation of its rows (an edge list's ``rev``) or some of them."""
        if len(index) > a.rows:
            raise ShapeError(f"take_rows: {len(index)} indices for {a.rows} rows")

        def backward(g):
            grad = np.zeros_like(a.data)
            grad[index] = g
            a.accumulate(grad)

        return self.record(a.data[index], (a,), backward)

    def segment_softmax(self, scores: Value, edges, mask: np.ndarray) -> Value:
        """Softmax of E x 1 ``scores`` over each source node's edges.

        Only edges where the constant boolean ``mask`` (length E) is true take
        part; the others get zero. Rows are stabilized by subtracting their
        max over masked-in edges; a row with no masked-in edge is an error.
        """
        _check_edges("segment_softmax", edges, scores)
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != (len(edges.src),):
            raise ShapeError(f"segment_softmax: mask shape {keep.shape} != ({len(edges.src)},)")
        out = _segment_softmax(scores.data[:, 0], edges, keep)

        def backward(g):
            scores.accumulate(_segment_softmax_grad(g[:, 0], out, edges)[:, None])

        return self.record(out[:, None], (scores,), backward)

    def segment_sum(self, w: Value, x: Value, edges) -> Value:
        """out_i = sum over node i's edges e of w_e * x[dst_e] (N x F)."""
        _check_edges("segment_sum", edges, w)
        if x.rows != len(edges.starts):
            raise ShapeError(f"segment_sum: {x.rows} rows for {len(edges.starts)} nodes")

        def backward(g):
            if w.requires_grad:
                w.accumulate(_edge_dots(g, x.data, edges))
            if x.requires_grad:
                x.accumulate(_edge_sums(w.data[edges.rev], g, edges))

        return self.record(_edge_sums(w.data, x.data, edges), (w, x), backward)

    # -- backward ------------------------------------------------------------

    def backward(self, loss: Value) -> None:
        """Populate gradients of ``loss`` w.r.t. every reachable leaf.

        ``loss`` must be a 1x1 value recorded on this tape, or a value with
        no parents: a leaf, or a value made from constants only, which the
        tape never records. Such a bare value gets gradient 1 w.r.t. itself
        and no other value changes, so every parameter's ``grad`` stays as
        it was. A node's gradient is dropped once passed on to its parents,
        so only leaf gradients remain; they accumulate until ``zero_grad``.
        """
        if loss.data.shape != (1, 1):
            raise ShapeError(f"backward: loss must be 1x1, got {loss.data.shape}")
        if loss._backward is None:
            # A bare value: its gradient w.r.t. itself is 1.
            loss.accumulate(np.ones((1, 1)))
            return
        loss.grad = np.ones((1, 1))
        for node in reversed(self._nodes):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)
            node.grad = None

    def _require_same_shape(self, op: str, a: Value, b: Value) -> None:
        if a.shape != b.shape:
            raise ShapeError(f"{op}: shapes differ ({a.shape} vs {b.shape})")
