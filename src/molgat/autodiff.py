"""Reverse-mode automatic differentiation over matrices.

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
used by one thread: a training step runs two passes at once on two threads,
each on its own tape and its own parameter views (``ModelParams.views``).

Every operation checks its result for non-finite values and pays for a
``Value`` and a closure, whether or not it records. So a chain that runs
every pass is one node with a hand-written backward rule: ``Tape.affine``
for a dense layer, and ``Tape.record`` for a chain computed by its caller
(an attention layer in ``gat``, the contact weights in ``model``), which
checks each intermediate itself. The tape holds the operations molgat
records; the sigmoid and the finiteness check of its chains are module
functions here, and the edge-list kernels are the edge list's own methods
(``graphs.Edges``), so each exists once. The composed reference the tests
keep builds its edge-list operations from the same kernels on
``Tape.record``.

Scalars are represented as 1x1 matrices so the whole engine has one shape
discipline.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

_LOG_FLOOR = 1e-12


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

    def dropout(self, a: Value, kept: np.ndarray, scale: float) -> Value:
        """Inverted dropout: ``(a * kept) * scale`` for a constant boolean
        mask ``kept`` and ``scale`` = 1 / (1 - rate). Bit for bit, this is
        ``a`` times a float mask of 0 and ``scale``, signed zeros included."""
        if kept.shape != a.shape or kept.dtype != bool:
            raise ShapeError(f"dropout: mask of {kept.dtype} {kept.shape} must be bool {a.shape}")

        def backward(g):
            a.accumulate((g * kept) * scale)

        return self.record((a.data * kept) * scale, (a,), backward)

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
