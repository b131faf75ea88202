"""The model's chains as one tape operation per step: the exact reference for
the fused nodes of ``molgat.gat`` and ``molgat.model``.

``gat_forward`` records one node for a whole attention layer,
``materialize_a2`` one for the contact-weight column and ``Tape.affine``
one for each dense layer of the head, each with a hand-written backward
rule. The functions here compute the same arithmetic in the same order
through the tape's elementary operations, so their forward values must equal
the fused ones bit for bit, and their gradients, which the tape derives step
by step, must agree to rounding. ``composed_predict`` is the whole forward
pass in that form, the batch's reach taken from the merged edge list as it
was before each sample's reach was reused. Nothing under ``src/`` uses it.
"""

import numpy as np

from molgat.autodiff import Tape, constant
from molgat.errors import NumericError, ShapeError
from molgat.graphs import Edges
from molgat.model import _dropout_masks


def composed_gat_forward(tape, x, edges, a2, params, internals=None):
    """One dual-adjacency layer as about 20 tape operations."""
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

    attention1 = softmax1 = tape.segment_softmax(scores, edges, covalent)
    softmax2 = tape.segment_softmax(scores, edges, a2.data[:, 0] > 0)
    attention2 = tape.mul(softmax2, a2)
    xpp = tape.segment_sum(tape.sub(attention2, attention1), xp, edges)

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


def composed_materialize_a2(tape, edges, mu, sigma):
    """The contact-weight column as ten tape operations."""
    if sigma.item() <= 0:
        raise NumericError(f"sigma must be positive, got {sigma.item()}")
    e = len(edges.src)
    diff = tape.sub(constant(edges.dist[:, None]), tape.broadcast(mu, e, 1))
    sq = tape.mul(diff, diff)
    scaled = tape.mul(tape.scale(sq, -1.0), tape.broadcast(tape.reciprocal(sigma), e, 1))
    gauss = tape.exp(scaled)
    contact = edges.contact[:, None].astype(np.float64)
    return tape.add(constant(1.0 - contact), tape.mul(gauss, constant(contact)))


def composed_predict(tape, samples, params, config, rng=None):
    """``model.predict`` with every chain composed: A2 on the merged edge
    list, then the reached edges' rows of it, and each dense layer of the
    head as a product, a broadcast and a sum."""
    masks = None
    if rng is not None and config.dropout_rate > 0:
        masks = iter(_dropout_masks(samples, config, rng))
    graph = Edges.merge([s.edges for s in samples])
    a2 = composed_materialize_a2(tape, graph, params.mu, params.sigma_on(tape))
    rows, reached, kept = graph.reach
    features = np.concatenate([s.features for s in samples])[rows]
    h = tape.matmul(constant(features), params.embed)
    reached_a2 = tape.take_rows(a2, kept)
    for layer in params.layers:
        h = composed_gat_forward(tape, h, reached, reached_a2, layer)
        if masks is not None:
            h = tape.dropout(h, next(masks)[rows])
    y = tape.sum_rows(h, reached.sizes)
    last = len(params.fc) - 1
    for k, (w, b) in enumerate(params.fc):
        y = tape.add(tape.matmul(y, w), tape.broadcast(b, len(samples), b.cols))
        if k < last:
            y = tape.relu(y)
            if masks is not None:
                y = tape.dropout(y, next(masks))
    return tape.sigmoid(y)


def composed_score(sample, params, config):
    return composed_predict(Tape(), [sample], params.constants(), config).item()
