"""Gate-augmented, distance-aware graph attention layer over two adjacencies.

One layer maps node features x (N x F) to updated features over a sorted
symmetric edge list (``graphs.Edges``) that carries both adjacencies: the
covalent adjacency A1 is 1 on the self-loop and bond edges, and the contact
adjacency A2 has one weight per edge (``a2``, E x 1; the model sets it to 1
on self-loops and bonds and to a Gaussian of the distance on contact edges).
Both branches share the weights, the scores and the gate; for every edge
(i, j):

    x'    = x W                                  feature transform
    e_ij  = x'_i E x'_j + x'_j E x'_i            symmetric attention score
    a_k   = softmax of e_ij over i's edges with Ak_ij > 0, times Ak_ij
    z     = sigmoid([x | x'] u + b)              per-node gate in (0,1)
    out_i = (1 - z_i) * sum_j (a_2 - a_1)_ij x'_j

This is the contact branch minus the covalent branch of the gated layer
``z * x' + (1 - z) * a_k x'``: the ``z * x'`` terms cancel. With ``u``
split into its top and bottom F rows, the gate logit is computed as
``x (u_top + W u_bottom) + b``, which equals ``[x | x'] u + b`` because
x' = x W: the F x 1 vector costs O(F^2) per layer, and no N x 2F (or
F x 2F) concatenation, nor its gradient, is built. ``u`` keeps its 2F x 1
shape. Each layer costs O(N F^2 + E F) for its N rows and E edges; the
model runs it on the R rows a contact can reach and the E_R edges among
them, O(R F^2 + E_R F). A row with no contact edge (a2 is 1 on its
self-loop and bonds) has both softmaxes over the same edges, so its
``a_2 - a_1`` is exactly zero and so is its output; with no contact edge
at all, the whole output is zero. ``e_ij`` is computed once per edge as
``half + half[rev]``, so it is bit-for-bit symmetric. The
``internals`` keys are scores (e), gate (z), softmax1/softmax2 (before the
weighting) and attention1/attention2 (a_1, a_2), each E x 1 in edge order
except the N x 1 gate; they are constants, off the tape.

A layer is one tape node (``Tape.record``). Its forward runs the steps above
as numpy calls in a fixed order and checks each step's result for
non-finite values; its backward rule, written out below the forward,
returns the gradients of x, W, E, u, b and the A2 edge weights (which is
how the learnable distance profile behind the contact adjacency receives
its gradient). A pass that records nothing drops x'E, which only the
backward reads, once the scores are made. ``tests/composed.py`` keeps the
same layer as one tape operation per step, the reference the node must
match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tape, Value, _checked, _edge_dots, _edge_sums, _segment_softmax,
                       _segment_softmax_grad, _sigmoid, constant, parameter)
from .errors import ShapeError
from .graphs import Edges


@dataclass
class GatParams:
    w: Value  # F x F feature transform
    e: Value  # F x F attention bilinear form
    u: Value  # 2F x 1 gate weights
    b: Value  # 1 x 1 gate bias


def glorot(rows: int, cols: int, rng: np.random.Generator) -> Value:
    """Trainable rows x cols matrix drawn uniformly from the Glorot range."""
    bound = np.sqrt(6.0 / (rows + cols))
    return parameter(rng.uniform(-bound, bound, size=(rows, cols)))


def init_gat_params(dim: int, rng: np.random.Generator) -> GatParams:
    return GatParams(
        w=glorot(dim, dim, rng),
        e=glorot(dim, dim, rng),
        u=glorot(2 * dim, 1, rng),
        b=parameter(np.zeros((1, 1))),
    )


def gat_forward(
    tape: Tape,
    x: Value,
    edges: Edges,
    a2: Value,
    params: GatParams,
    internals: dict | None = None,
) -> Value:
    """Run one dual-adjacency gated attention layer; returns N x F features.

    Every node's self-loop must be in both adjacencies: not a contact edge,
    and a positive ``a2`` weight. Pass ``internals`` to capture the
    intermediate values listed above.
    """
    n, f = x.shape
    if len(edges.starts) != n:
        raise ShapeError(f"edge list of {len(edges.starts)} nodes does not match {n} nodes")
    if a2.shape != (len(edges.src), 1):
        raise ShapeError(f"a2 has shape {a2.shape}, expected one weight per edge ({len(edges.src)}x1)")
    covalent = ~edges.contact
    loops = edges.src == edges.dst
    if not (covalent[loops].all() and (a2.data[loops, 0] > 0).all()):
        raise ShapeError("adjacency has a zero diagonal entry (missing self-loop)")
    if params.w.shape != (f, f):
        raise ShapeError(f"layer width {params.w.shape} does not match feature dim {f}")

    w, e, u = params.w.data, params.e.data, params.u.data
    parents = (x, params.w, params.e, params.u, params.b, a2)
    # A pass that records nothing drops the backward-only x'E once the
    # scores are made, so it holds no more than the forward needs.
    records = any(p.requires_grad for p in parents)

    xp = _checked(x.data @ w)
    xpe = _checked(xp @ e)
    half = _checked(_edge_dots(xpe, xp, edges))
    if not records:
        xpe = None
    scores = _checked(half + half[edges.rev])

    # A1 is 1 on every covalent edge, so its weighting leaves softmax1 as is.
    softmax1 = _checked(_segment_softmax(scores[:, 0], edges, covalent))[:, None]
    softmax2 = _checked(_segment_softmax(scores[:, 0], edges, a2.data[:, 0] > 0))[:, None]
    attention2 = _checked(softmax2 * a2.data)
    diff = _checked(attention2 - softmax1)
    xpp = _checked(_edge_sums(diff, xp, edges))

    # x (u_top + W u_bottom) = [x | x'] u, without an N x 2F concatenation.
    u_bottom = _checked(u)[f:]
    v = _checked(u[:f] + _checked(w @ u_bottom))
    z = _checked(_sigmoid(_checked(_checked(x.data @ v) + _checked(params.b.data))))
    keep = 1.0 - z  # in [0, 1], as z is

    def backward(g):
        # out = keep * x'': the gate's logit, then the gate's weights.
        d_xpp = g * keep
        d_logit = -(g * xpp).sum(axis=1, keepdims=True) * z * keep
        d_v = x.data.T @ d_logit
        d_x = d_logit @ v.T
        d_w = d_v @ u_bottom.T
        d_u = np.concatenate([d_v, w.T @ d_v])
        # x'' = sum over i's edges of (a_2 - a_1) x'_j, then both softmaxes.
        d_diff = _edge_dots(d_xpp, xp, edges)
        d_xp = _edge_sums(diff[edges.rev], d_xpp, edges)
        d_scores = _segment_softmax_grad((d_diff * a2.data)[:, 0], softmax2[:, 0], edges)
        d_scores += _segment_softmax_grad(-d_diff[:, 0], softmax1[:, 0], edges)
        # e = half + half[rev], half_e = x'E_src . x'_dst, x'E, then x' = x W.
        d_half = (d_scores + d_scores[edges.rev])[:, None]
        d_xpe = _edge_sums(d_half, xp, edges)
        d_xp += _edge_sums(d_half[edges.rev], xpe, edges)
        d_xp += d_xpe @ e.T
        d_w += x.data.T @ d_xp
        d_x += d_xp @ w.T
        grads = (d_x, d_w, xp.T @ d_xpe, d_u, np.array([[d_logit.sum()]]), d_diff * softmax2)
        for p, grad in zip(parents, grads):
            if p.requires_grad:
                p.accumulate(grad)

    out = tape.record(keep * xpp, parents, backward)
    if internals is not None:
        attention1 = constant(softmax1)
        internals.update(scores=constant(scores), gate=constant(z), softmax1=attention1,
                         softmax2=constant(softmax2), attention1=attention1,
                         attention2=constant(attention2))
    return out
