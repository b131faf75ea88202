"""The model's chains as one tape operation per step: the exact reference for
the fused nodes of ``molgat.gat`` and ``molgat.model``.

``gat_forward`` records one node for a whole attention layer,
``materialize_a2`` one for the contact-weight column and ``Tape.affine``
one for each dense layer of the head, each with a hand-written backward
rule. The functions here compute the same arithmetic in the same order
through the tape's elementary operations, so their forward values must equal
the fused ones bit for bit, and their gradients, which the tape derives step
by step, must agree to rounding. ``composed_predict`` is the whole forward
pass in that form, the batch's reach taken from the merged full edge lists
(``full_edges``, ``merged_reach``) instead of from each sample's
``GraphSample.reach``.
The edge-list steps are ``ComposedTape``'s operations, built on
``Tape.record`` and the edge list's kernels (``Edges.dots``, ``Edges.sums``,
``Edges.softmax``, ``Edges.softmax_grad``) that the fused layer calls. Nothing under ``src/`` uses this module.
"""

import numpy as np

from molgat.autodiff import Tape, constant
from molgat.chem import pairs_within
from molgat.errors import NumericError, ShapeError
from molgat.graphs import CONTACT_CUTOFF, Edges


def _check_edges(op, edges, *per_edge):
    for v in per_edge:
        if v.shape != (len(edges.src), 1):
            raise ShapeError(f"{op}: expected one value per edge ({len(edges.src)}x1), got {v.shape}")


class ComposedTape(Tape):
    """A ``Tape`` with the edge-list operations the composed layer takes
    one step at a time; each records one node through ``Tape.record``."""

    def edge_dot(self, a, b, edges):
        """out_e = a[src_e] . b[dst_e] for every edge, as an E x 1 column."""
        if a.shape != b.shape or a.rows != len(edges.starts):
            raise ShapeError(f"edge_dot: {a.shape} and {b.shape} must be {len(edges.starts)} x F")

        def backward(g):
            if a.requires_grad:
                a.accumulate(edges.sums(g, b.data))
            if b.requires_grad:
                b.accumulate(edges.sums(g[edges.rev], a.data))

        return self.record(edges.dots(a.data, b.data), (a, b), backward)

    def take_rows(self, a, index):
        """out = a[index], where ``index`` holds distinct row indices of a:
        a permutation of its rows (an edge list's ``rev``) or some of them."""
        if len(index) > a.rows:
            raise ShapeError(f"take_rows: {len(index)} indices for {a.rows} rows")

        def backward(g):
            grad = np.zeros_like(a.data)
            grad[index] = g
            a.accumulate(grad)

        return self.record(a.data[index], (a,), backward)

    def segment_softmax(self, scores, edges, mask):
        """Softmax of E x 1 ``scores`` over each source node's edges.

        Only edges where the constant boolean ``mask`` (length E) is true take
        part; the others get zero. Rows are stabilized by subtracting their
        max over masked-in edges; a row with no masked-in edge is an error.
        """
        _check_edges("segment_softmax", edges, scores)
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != (len(edges.src),):
            raise ShapeError(f"segment_softmax: mask shape {keep.shape} != ({len(edges.src)},)")
        out = edges.softmax(scores.data[:, 0], keep)

        def backward(g):
            scores.accumulate(edges.softmax_grad(g[:, 0], out)[:, None])

        return self.record(out[:, None], (scores,), backward)

    def segment_sum(self, w, x, edges):
        """out_i = sum over node i's edges e of w_e * x[dst_e] (N x F)."""
        _check_edges("segment_sum", edges, w)
        if x.rows != len(edges.starts):
            raise ShapeError(f"segment_sum: {x.rows} rows for {len(edges.starts)} nodes")

        def backward(g):
            if w.requires_grad:
                w.accumulate(edges.dots(g, x.data))
            if x.requires_grad:
                x.accumulate(edges.sums(w.data[edges.rev], g))

        return self.record(edges.sums(w.data, x.data), (w, x), backward)


def composed_gat_forward(tape, x, edges, a2, params, internals=None):
    """One dual-adjacency layer as about 20 operations of a ``ComposedTape``."""
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


def full_edges(s):
    """Self-loops, bonds and intermolecular contacts (d < 5 A) of all N atoms
    of sample ``s``, as a sorted symmetric edge list: the graph whose
    contact-reachable part is ``s.reach``, from its own ligand x protein
    search and the ``Edges.build`` call ``reach`` makes."""
    lig = np.flatnonzero(s.is_ligand)
    prot = np.flatnonzero(~s.is_ligand)
    li, pj, d = pairs_within(s.coords[lig], s.coords[prot], CONTACT_CUTOFF)
    close = d < CONTACT_CUTOFF
    contacts = np.stack([lig[li[close]], prot[pj[close]]], axis=1)
    return Edges.build(s.num_atoms, s.bonds, contacts, d[close])


def merged_reach(edges):
    """The rows a contact can reach in a merged edge list, and the edges
    among them: ``(rows, subgraph, kept)``. ``rows`` holds, in increasing
    order, every end of a contact edge, their neighbours, and each graph's
    first row; ``kept`` the indices of the edges with both ends in ``rows``;
    ``subgraph`` those edges with each row renumbered to its position in
    ``rows``, which keeps them sorted, symmetric and self-looped."""
    ends = np.zeros(len(edges.starts), dtype=bool)
    ends[edges.src[edges.contact]] = True
    reached = np.zeros_like(ends)
    reached[edges.dst[ends[edges.src]]] = True
    first = np.cumsum(edges.sizes) - edges.sizes
    reached[first] = True
    rows = np.flatnonzero(reached)
    kept = np.flatnonzero(reached[edges.src] & reached[edges.dst])
    renumber = np.cumsum(reached) - 1
    subgraph = Edges(
        src=renumber[edges.src[kept]],
        dst=renumber[edges.dst[kept]],
        starts=np.searchsorted(kept, edges.starts[rows]),
        rev=np.searchsorted(kept, edges.rev[kept]),
        contact=edges.contact[kept],
        dist=edges.dist[kept],
        sizes=np.add.reduceat(reached, first, dtype=np.int64),
    )
    return rows, subgraph, kept


def composed_predict(tape, samples, params, config, masks=None):
    """``model.predict`` with every chain composed, on a ``ComposedTape``:
    A2 on the merged full edge list, then the reached edges' rows of it, and
    each dense layer of the head as a product, a broadcast and a sum. The
    dropout ``masks`` are ``model.dropout_masks``'s, which keep each
    sample's reached rows; every site, an attention layer's too, is its own
    ``Tape.dropout`` node."""
    if masks is not None:
        scale = 1.0 / (1.0 - config.dropout_rate)
        masks = iter(masks)
    graph = Edges.merge([full_edges(s) for s in samples])
    a2 = composed_materialize_a2(tape, graph, params.mu, params.sigma_on(tape))
    rows, reached, kept = merged_reach(graph)
    features = np.concatenate([s.features for s in samples])[rows]
    h = tape.matmul(constant(features), params.embed)
    reached_a2 = tape.take_rows(a2, kept)
    for layer in params.layers:
        h = composed_gat_forward(tape, h, reached, reached_a2, layer)
        if masks is not None:
            h = tape.dropout(h, next(masks), scale)
    y = tape.sum_rows(h, reached.sizes)
    last = len(params.fc) - 1
    for k, (w, b) in enumerate(params.fc):
        y = tape.add(tape.matmul(y, w), tape.broadcast(b, len(samples), b.cols))
        if k < last:
            y = tape.relu(y)
            if masks is not None:
                y = tape.dropout(y, next(masks), scale)
    return tape.sigmoid(y)


def composed_score(sample, params, config):
    return composed_predict(ComposedTape(), [sample], params.constants(), config).item()
