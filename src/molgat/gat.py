"""Gate-augmented, distance-aware graph attention layer over two adjacencies.

One layer maps node features x (N x F), the covalent adjacency A1 and the
contact adjacency A2 (both N x N with a positive diagonal) to updated
features. Both branches share the weights, the scores and the gate:

    x'  = x W                                  feature transform
    e   = x' E x'^T + (x' E x'^T)^T            symmetric attention scores
    a_k = softmax over {j : Ak_ij > 0} of e, then scaled entrywise by Ak
    z   = sigmoid([x | x'] u + b)              per-node gate in (0,1)
    out = (1 - z) * ((a_2 - a_1) x')

This is the contact branch minus the covalent branch of the gated layer
``z * x' + (1 - z) * a_k x'``: the ``z * x'`` terms cancel. When A2 equals A1
bit for bit, ``a_2 - a_1`` is exactly zero and so is the output. The
``internals`` keys are scores (e), gate (z), softmax1/softmax2 (before the
entrywise scaling) and attention1/attention2 (a_1, a_2).

Everything runs on the differentiation tape, so gradients reach W, E, u, b
and the entries of both adjacencies (which is how the learnable distance
profile behind the contact adjacency receives its gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Value, constant, parameter
from .errors import ShapeError


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
    a1: Value,
    a2: Value,
    params: GatParams,
    internals: dict | None = None,
) -> Value:
    """Run one dual-adjacency gated attention layer; returns N x F features.

    ``a1`` and ``a2`` must be square with a strictly positive diagonal
    (self-loops); neighborhoods are read from their sparsity patterns. Pass
    ``internals`` to capture the intermediate tape values listed above.
    """
    n, f = x.shape
    for adj in (a1, a2):
        if adj.shape != (n, n):
            raise ShapeError(f"adjacency {adj.shape} does not match {n} nodes")
        if not (np.diagonal(adj.data) > 0).all():
            raise ShapeError("adjacency has a zero diagonal entry (missing self-loop)")
    if params.w.shape != (f, f):
        raise ShapeError(f"layer width {params.w.shape} does not match feature dim {f}")

    xp = tape.matmul(x, params.w)
    half = tape.matmul(tape.matmul(xp, params.e), tape.transpose(xp))
    scores = tape.add(half, tape.transpose(half))

    softmax1 = tape.masked_softmax(scores, a1.data > 0)
    softmax2 = tape.masked_softmax(scores, a2.data > 0)
    attention1 = tape.mul(softmax1, a1)
    attention2 = tape.mul(softmax2, a2)
    xpp = tape.matmul(tape.sub(attention2, attention1), xp)

    gate_logit = tape.add(
        tape.matmul(tape.concat_cols(x, xp), params.u),
        tape.broadcast(params.b, n, 1),
    )
    z = tape.sigmoid(gate_logit)
    out = tape.rowscale(tape.sub(constant(np.ones((n, 1))), z), xpp)

    if internals is not None:
        internals.update(scores=scores, gate=z, softmax1=softmax1, softmax2=softmax2,
                         attention1=attention1, attention2=attention2)
    return out
