"""Dense N x N reference for the model's contact adjacency and attention layer.

The model runs on edge lists. This module keeps the dense form on the tape,
with N x N adjacencies, N x N scores and one masked softmax per adjacency,
so tests can compare scores and gradients against it. It also keeps the
edge kernels' first form, one E x F gather per call, as the reference for
``autodiff``'s degree-bucketed kernel. Nothing under ``src/`` uses it.
"""

import numpy as np

from molgat.autodiff import Tape, constant
from molgat.errors import ShapeError


def gather_edge_dots(a, b, edges):
    """E x 1 column of a[src_e] . b[dst_e], from the two gathered E x F arrays."""
    return np.einsum("ij,ij->i", a[edges.src], b[edges.dst])[:, None]


def gather_edge_sums(w, x, edges):
    """N x F rows out_i = sum over node i's edges e of w_e * x[dst_e], summed
    over each row's run of E x F gathered rows."""
    rows = x[edges.dst]
    rows *= w
    return np.add.reduceat(rows, edges.starts, axis=0)


def dense_a2(tape, dist, inter_mask, a1, mu, sigma):
    """A2 = A1 + exp(-(d - mu)^2 / sigma) on the contact mask, N x N."""
    n = dist.shape[0]
    diff = tape.sub(constant(dist), tape.broadcast(mu, n, n))
    sq = tape.mul(diff, diff)
    scaled = tape.mul(tape.scale(sq, -1.0), tape.broadcast(tape.reciprocal(sigma), n, n))
    gauss = tape.exp(scaled)
    return tape.add(a1, tape.mul(gauss, constant(inter_mask)))


def dense_gat_forward(tape, x, a1, a2, params, internals=None):
    """One dual-adjacency layer on N x N adjacencies: (1 - z) * ((att2 - att1) x W)."""
    n, _ = x.shape
    for adj in (a1, a2):
        if adj.shape != (n, n):
            raise ShapeError(f"adjacency {adj.shape} does not match {n} nodes")
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
    if internals is not None:
        internals.update(scores=scores, gate=z, softmax1=softmax1, softmax2=softmax2,
                         attention1=attention1, attention2=attention2)
    return tape.rowscale(tape.sub(constant(np.ones((n, 1))), z), xpp)


def dense_predict(tape, sample, params, config):
    """Inference forward pass (dropout off) with dense adjacencies; 1x1 probability."""
    a1 = constant(sample.a1)
    a2 = dense_a2(tape, sample.dist, sample.inter_mask, a1, params.mu, params.sigma_on(tape))
    h = tape.matmul(constant(sample.features), params.embed)
    for layer in params.layers:
        h = dense_gat_forward(tape, h, a1, a2, layer)
    y = tape.sum_rows(h)
    last = len(params.fc) - 1
    for k, (w, b) in enumerate(params.fc):
        y = tape.add(tape.matmul(y, w), b)
        if k < last:
            y = tape.relu(y)
    return tape.sigmoid(y)


def dense_score(sample, params, config):
    return dense_predict(Tape(), sample, params, config).item()
