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
except the N x 1 gate.

Everything runs on the differentiation tape, so gradients reach W, E, u, b
and the A2 edge weights (which is how the learnable distance profile behind
the contact adjacency receives its gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Value, constant, parameter
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
    intermediate tape values listed above.
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

    xp = tape.matmul(x, params.w)
    half = tape.edge_dot(tape.matmul(xp, params.e), xp, edges)
    scores = tape.add(half, tape.take_rows(half, edges.rev))

    # A1 is 1 on every covalent edge, so its weighting leaves softmax1 as is.
    attention1 = softmax1 = tape.segment_softmax(scores, edges, covalent)
    softmax2 = tape.segment_softmax(scores, edges, a2.data[:, 0] > 0)
    attention2 = tape.mul(softmax2, a2)
    xpp = tape.segment_sum(tape.sub(attention2, attention1), xp, edges)

    # x (u_top + W u_bottom) = [x | x'] u, without an N x 2F concatenation.
    u_top = tape.take_rows(params.u, np.arange(f))
    u_bottom = tape.take_rows(params.u, np.arange(f, 2 * f))
    v = tape.add(u_top, tape.matmul(params.w, u_bottom))
    gate_logit = tape.add(tape.matmul(x, v), tape.broadcast(params.b, n, 1))
    z = tape.sigmoid(gate_logit)
    out = tape.rowscale(tape.sub(constant(np.ones((n, 1))), z), xpp)

    if internals is not None:
        internals.update(scores=scores, gate=z, softmax1=softmax1, softmax2=softmax2,
                         attention1=attention1, attention2=attention2)
    return out
