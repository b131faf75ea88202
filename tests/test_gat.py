import dataclasses

import numpy as np
import pytest

from molgat.autodiff import Tape, constant, parameter
from molgat.errors import NumericError, ShapeError
from molgat.gat import GatParams, gat_forward
from molgat.graphs import Edges, build_sample, prune_protein
from molgat.synthetic import generate_corpus

from composed import ComposedTape, composed_gat_forward, full_edges
from helpers import check_gradients, dense_of, init_gat_params, pocket_sample, record_gradient_shapes


def gat_oracle(x, adj, w, e, u, b):
    """Straight numpy rendition of one gated branch's five steps (no tape)."""
    n = x.shape[0]
    xp = x @ w
    s = xp @ e @ xp.T
    scores = s + s.T
    attn = np.zeros_like(adj)
    for i in range(n):
        nbrs = np.nonzero(adj[i] > 0)[0]
        ex = np.exp(scores[i, nbrs])
        attn[i, nbrs] = (ex / ex.sum()) * adj[i, nbrs]
    xpp = attn @ xp
    z = 1.0 / (1.0 + np.exp(-(np.concatenate([x, xp], axis=1) @ u + b)))
    return z * xp + (1.0 - z) * xpp


def dual_oracle(x, a1, a2, params):
    """The contact branch minus the covalent branch, each run separately."""
    weights = (params.w.data, params.e.data, params.u.data, params.b.item())
    return gat_oracle(x, a2, *weights) - gat_oracle(x, a1, *weights)


def edges_from_dense(a1, a2):
    """Edge list and E x 1 A2 weights for dense adjacencies: the support of
    A1 + A2, with the edges outside A1's support flagged as contacts."""
    n = a1.shape[0]
    support = (a1 > 0) | (a2 > 0)
    np.fill_diagonal(support, True)
    i, j = np.nonzero(np.triu(support, k=1))
    covalent = a1[i, j] > 0
    pairs = np.stack([i, j], axis=1)
    edges = Edges.build(n, pairs[covalent], pairs[~covalent])
    return edges, a2[edges.src, edges.dst][:, None].copy()


def dense_views(edges, a2):
    """The dense A1 (1 on non-contact edges) and A2 (the edge weights)."""
    return dense_of(edges, ~edges.contact), dense_of(edges, a2)


def make_params(w, e, u, b):
    return GatParams(w=parameter(w), e=parameter(e), u=parameter(u), b=parameter([[b]]))


def random_case(rng, n=5, f=3, dense_positive=False):
    """Features, an edge list, its A2 edge weights and layer parameters.

    Sparse cases give A2 the pattern of A1 plus extra weighted contact
    entries, the way the model materializes the contact adjacency. Dense
    cases connect every pair and give every edge a random positive A2 weight.
    """
    x = parameter(rng.uniform(-1, 1, size=(n, f)))
    pattern = rng.random((n, n)) < 0.5
    pattern |= pattern.T
    a1_data = pattern.astype(float)
    np.fill_diagonal(a1_data, 1.0)
    if dense_positive:
        data = rng.uniform(0.2, 1.0, size=(n, n))
        a2_data = (data + data.T) / 2
    else:
        contacts = np.triu((rng.random((n, n)) < 0.3) & (a1_data == 0.0), k=1)
        weights = np.triu(rng.uniform(0.2, 1.0, size=(n, n)), k=1) * contacts
        a2_data = a1_data + weights + weights.T
    edges, a2 = edges_from_dense(a1_data, a2_data)
    params = init_gat_params(f, rng)
    return x, edges, parameter(a2), params


# Frozen step-by-step hand evaluation of one gated branch on a 3-node path
# graph with hand-set 2x2 parameters (gat_oracle above reproduces it).
FIXTURE_X = np.array([[1.0, 0.5], [-0.25, 0.75], [0.0, -1.0]])
FIXTURE_ADJ = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
FIXTURE_W = np.array([[0.2, -0.3], [0.4, 0.1]])
FIXTURE_E = np.array([[0.5, -0.1], [0.25, 0.3]])
FIXTURE_U = np.array([[0.3], [-0.2], [0.1], [0.4]])
FIXTURE_B = -0.15
FIXTURE_EXPECTED = np.array(
    [
        [0.3640143472171383, -0.15403825924570216],
        [0.17262950216431705, 0.0277283102895115],
        [-0.2595992202895543, -0.04599970011136705],
    ]
)


class TestForward:
    def test_path_graph_matches_hand_fixture(self):
        # With A1 = I the covalent branch returns x W exactly, so the layer
        # output is the frozen single-branch fixture minus x W.
        params = make_params(FIXTURE_W, FIXTURE_E, FIXTURE_U, FIXTURE_B)
        edges, a2 = edges_from_dense(np.eye(3), FIXTURE_ADJ)
        out = gat_forward(Tape(), constant(FIXTURE_X), edges, constant(a2), params)
        np.testing.assert_allclose(out.data, FIXTURE_EXPECTED - FIXTURE_X @ FIXTURE_W, atol=1e-10)
        oracle = dual_oracle(FIXTURE_X, np.eye(3), FIXTURE_ADJ, params)
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            n = int(rng.integers(2, 7))
            x, edges, a2, params = random_case(rng, n=n, f=4, dense_positive=k % 2 == 1)
            out = gat_forward(Tape(), x, edges, a2, params)
            oracle = dual_oracle(x.data, *dense_views(edges, a2.data), params)
            np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_identical_adjacencies_give_exact_zero(self):
        # No contact edges and unit A2 weights: both softmaxes run over the
        # same edges, on a sparse pattern and on a complete graph.
        rng = np.random.default_rng(12)
        for dense in (False, True):
            x, edges, _, params = random_case(rng, n=6, f=4)
            pattern = np.ones((6, 6)) if dense else dense_views(edges, np.ones((len(edges.src), 1)))[0]
            edges, a2 = edges_from_dense(pattern, pattern)
            assert not edges.contact.any()
            out = gat_forward(Tape(), x, edges, constant(a2), params)
            assert np.array_equal(out.data, np.zeros((6, 4)))

    def test_zero_features_give_zero_output(self):
        rng = np.random.default_rng(1)
        _, edges, a2, params = random_case(rng, n=4, f=3)
        out = gat_forward(Tape(), constant(np.zeros((4, 3))), edges, a2, params)
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_single_node_returns_transformed_features(self):
        # One node: each branch attends only to itself with weight A_k, so
        # the output is (A2 - A1) (1 - z) x W.
        rng = np.random.default_rng(2)
        params = init_gat_params(3, rng)
        x = constant(rng.uniform(-1, 1, size=(1, 3)))
        internals = {}
        out = gat_forward(Tape(), x, Edges.build(1, []), constant([[2.5]]), params, internals)
        z = internals["gate"].data
        np.testing.assert_allclose(out.data, 1.5 * (1.0 - z) * (x.data @ params.w.data), atol=1e-14)

    def test_zero_diagonal_rejected(self):
        # A self-loop missing from A1 (flagged as a contact) or from A2 (zero weight).
        rng = np.random.default_rng(3)
        for which in (0, 1):
            x, edges, a2, params = random_case(rng)
            loop = np.flatnonzero((edges.src == 2) & (edges.dst == 2))
            if which == 0:
                contact = edges.contact.copy()
                contact[loop] = True
                edges = dataclasses.replace(edges, contact=contact)
            else:
                a2.data[loop] = 0.0
            with pytest.raises(ShapeError, match="diagonal"):
                gat_forward(Tape(), x, edges, a2, params)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        x, edges, a2, params = random_case(rng, n=5, f=3)
        four = Edges.build(4, [])
        with pytest.raises(ShapeError):
            gat_forward(Tape(), x, four, constant(np.ones((4, 1))), params)
        with pytest.raises(ShapeError):
            gat_forward(Tape(), x, edges, constant(np.ones((len(edges.src) - 1, 1))), params)
        with pytest.raises(ShapeError):
            gat_forward(Tape(), constant(np.zeros((5, 7))), edges, a2, params)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x, edges, a2, params = random_case(rng)
        out1 = gat_forward(Tape(), x, edges, a2, params)
        out2 = gat_forward(Tape(), x, edges, a2, params)
        assert np.array_equal(out1.data, out2.data)


class TestInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(3, 8))
            x, edges, a2, params = random_case(rng, n=n, f=4)
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            out = gat_forward(Tape(), x, edges, a2, params).data
            a1_dense, a2_dense = dense_views(edges, a2.data)
            edges_perm, a2_perm = edges_from_dense(p @ a1_dense @ p.T, p @ a2_dense @ p.T)
            out_perm = gat_forward(
                Tape(), constant(p @ x.data), edges_perm, constant(a2_perm), params
            ).data
            np.testing.assert_allclose(out_perm, p @ out, atol=1e-10)

    def test_score_symmetry_exact(self):
        rng = np.random.default_rng(7)
        x, edges, a2, params = random_case(rng, n=6, f=4)
        internals = {}
        gat_forward(Tape(), x, edges, a2, params, internals=internals)
        scores = internals["scores"].data
        assert np.array_equal(edges.src[edges.rev], edges.dst)
        assert np.array_equal(scores, scores[edges.rev])

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, edges, a2, params = random_case(rng)
            internals = {}
            gat_forward(Tape(), x, edges, a2, params, internals=internals)
            z = internals["gate"].data
            assert np.all(z > 0.0) and np.all(z < 1.0)

    def test_prescale_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            x, edges, a2, params = random_case(rng)
            internals = {}
            gat_forward(Tape(), x, edges, a2, params, internals=internals)
            for key in ("softmax1", "softmax2"):
                sums = np.add.reduceat(internals[key].data[:, 0], edges.starts)
                np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert np.all(internals["softmax1"].data[edges.contact] == 0.0)

    def test_attention_scaled_by_adjacency(self):
        rng = np.random.default_rng(10)
        x, edges, a2, params = random_case(rng, dense_positive=True)
        internals = {}
        gat_forward(Tape(), x, edges, a2, params, internals=internals)
        a1 = (~edges.contact)[:, None].astype(float)
        for k, adj in (("1", a1), ("2", a2.data)):
            np.testing.assert_allclose(
                internals[f"attention{k}"].data, internals[f"softmax{k}"].data * adj, atol=1e-15
            )


class TestGradients:
    def test_all_parameters_and_adjacency(self):
        rng = np.random.default_rng(11)
        x, edges, a2, params = random_case(rng, n=5, f=3, dense_positive=True)
        weights = constant(rng.uniform(-1, 1, size=(5, 3)))
        leaves = [params.w, params.e, params.u, params.b, a2, x]

        def forward():
            t = Tape()
            return t.sum_all(t.mul(gat_forward(t, x, edges, a2, params), weights)).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(gat_forward(t, x, edges, a2, params), weights)))
        check_gradients(forward, leaves, tol=1e-4)


def fused_cases():
    """(name, build) pairs; build(rng) gives x, edges, a2 and layer parameters,
    every one a parameter."""

    def random(rng):
        return random_case(rng, n=7, f=4)

    def complete(rng):
        return random_case(rng, n=6, f=3, dense_positive=True)

    def contact_free(rng):
        x, edges, _, params = random_case(rng, n=6, f=4)
        edges = dataclasses.replace(edges, contact=np.zeros_like(edges.contact))
        return x, edges, parameter(np.ones((len(edges.src), 1))), params

    def one_node(rng):
        return parameter(rng.uniform(-1, 1, size=(1, 3))), Edges.build(1, []), parameter([[2.5]]), init_gat_params(3, rng)

    def pocket(rng):
        # the reached subgraph of a pocket, the rows the model runs the layer on
        _, edges = pocket_sample(300, seed=3).reach
        a2 = np.where(edges.contact, rng.uniform(0.05, 1.0, size=len(edges.src)), 1.0)[:, None]
        params = init_gat_params(16, rng)
        params.b.data[...] = 0.3
        return parameter(rng.uniform(-0.5, 0.5, size=(len(edges.starts), 16))), edges, parameter(a2), params

    return [("random", random), ("complete", complete), ("contact_free", contact_free),
            ("one_node", one_node), ("pocket", pocket)]


def run_layer(forward, x, edges, a2, params, weights):
    """Output, internals and the gradients of x, W, E, u, b and a2 of one
    layer under the loss sum(out * weights)."""
    leaves = [x, params.w, params.e, params.u, params.b, a2]
    for leaf in leaves:
        leaf.zero_grad()
    t, internals = (ComposedTape() if forward is composed_gat_forward else Tape()), {}
    out = forward(t, x, edges, a2, params, internals)
    t.backward(t.sum_all(t.mul(out, constant(weights))))
    return out.data, {k: v.data for k, v in internals.items()}, [leaf.grad for leaf in leaves], len(t)


@pytest.mark.usefixtures("edge_kernel")
class TestFusedLayer:
    """One tape node per layer, against the composed reference in tests/composed.py."""

    @pytest.mark.parametrize("name, build", [pytest.param(n, b, id=n) for n, b in fused_cases()])
    def test_equals_the_composed_layer(self, name, build):
        rng = np.random.default_rng(70)
        x, edges, a2, params = build(rng)
        weights = rng.uniform(-1, 1, size=x.shape)
        out, internals, grads, nodes = run_layer(gat_forward, x, edges, a2, params, weights)
        ref_out, ref_internals, ref_grads, ref_nodes = run_layer(composed_gat_forward, x, edges, a2, params, weights)
        assert nodes == 3 and ref_nodes == 22  # the layer, then mul and sum_all for the loss
        assert np.array_equal(out, ref_out)
        assert internals.keys() == ref_internals.keys()
        for key in internals:
            assert np.array_equal(internals[key], ref_internals[key]), key
        for label, g, ref in zip(("x", "w", "e", "u", "b", "a2"), grads, ref_grads):
            assert g.shape == ref.shape, label
            err = np.abs(g - ref).max()
            assert err <= 1e-12 * np.abs(ref).max(), f"{label}: {err:g}"
        if name == "contact_free":
            assert not out.any() and not grads[0].any()

    @pytest.mark.parametrize("name, build", [pytest.param(n, b, id=n) for n, b in fused_cases()])
    def test_fused_dropout_equals_a_dropout_node(self, name, build):
        # the layer's output and every gradient bit for bit, against the
        # layer followed by its own Tape.dropout node
        rng = np.random.default_rng(72)
        x, edges, a2, params = build(rng)
        weights = rng.uniform(-1, 1, size=x.shape)
        kept = rng.random(x.shape) >= 0.3
        fused = run_layer(lambda t, *a: gat_forward(t, *a, dropout=(kept, 1.0 / 0.7)), x, edges, a2, params, weights)
        apart = run_layer(lambda t, *a: t.dropout(gat_forward(t, *a), kept, 1.0 / 0.7), x, edges, a2, params, weights)
        assert fused[3] == 3 and apart[3] == 4  # the dropout adds no node of its own
        assert np.array_equal(fused[0], apart[0]) and np.array_equal(np.signbit(fused[0]), np.signbit(apart[0]))
        assert not fused[0][~kept].any()
        for label, g, ref in zip(("x", "w", "e", "u", "b", "a2"), fused[2], apart[2]):
            assert np.array_equal(g, ref), label

    def test_fused_dropout_mask_must_be_bool_and_match(self):
        x, edges, a2, params = random_case(np.random.default_rng(73))
        for kept in (np.ones(x.shape), np.ones((x.rows + 1, x.cols), dtype=bool)):
            with pytest.raises(ShapeError, match="dropout mask"):
                gat_forward(Tape(), x, edges, a2, params, dropout=(kept, 1.0))

    def test_records_nothing_on_constants(self):
        rng = np.random.default_rng(71)
        x, edges, a2, params = random_case(rng)
        weights = [constant(p.data) for p in (params.w, params.e, params.u, params.b)]
        t = Tape()
        out = gat_forward(t, constant(x.data), edges, constant(a2.data), GatParams(*weights))
        assert len(t) == 0 and not out.requires_grad and out._backward is None
        assert np.array_equal(out.data, gat_forward(Tape(), x, edges, a2, params).data)


@pytest.mark.parametrize("target", ["x", "w", "e", "u", "b", "a2"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_input_raises_from_the_layer(target, bad):
    # Each input of the layer, poisoned in one entry, raises NumericError
    # before anything is recorded; the composed layer raises too.
    for forward, tape in ((gat_forward, Tape), (composed_gat_forward, ComposedTape)):
        rng = np.random.default_rng(73)
        x, edges, a2, params = random_case(rng, n=6, f=3)
        value = {"x": x, "w": params.w, "e": params.e, "u": params.u, "b": params.b, "a2": a2}[target]
        # for a2 an edge between two atoms: a self-loop must stay positive,
        # or the layer reports a missing self-loop instead
        entry = int(np.flatnonzero(edges.src != edges.dst)[0]) if target == "a2" else 0
        value.data.flat[entry] = bad
        t = tape()
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            forward(t, x, edges, a2, params)
        if forward is gat_forward:
            assert len(t) == 0


def test_non_finite_x_w_raises_when_the_gate_saturates():
    # With the gate at exactly 1 the output is 0 * x'': an infinite x W
    # still raises, and before anything is recorded.
    rng = np.random.default_rng(74)
    x, edges, a2, params = random_case(rng, n=6, f=3)
    params.b.data[...] = 60.0
    internals = {}
    gat_forward(Tape(), x, edges, a2, params, internals)
    assert np.all(internals["gate"].data == 1.0)
    x.data[2] = [np.inf, 0.0, 0.0]
    t = Tape()
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        gat_forward(t, x, edges, a2, params)
    assert len(t) == 0


def test_gate_holds_no_value_wider_than_the_layer(monkeypatch):
    # The gate logit [x | x W] u is computed as x ([I | W] u): on a merged
    # 32-sample batch, neither the forward pass nor the backward pass holds
    # an array with the batch's N rows and more than F columns.
    passed = record_gradient_shapes(monkeypatch)
    batch = [build_sample(prune_protein(r)) for r in generate_corpus(32, seed=53)]
    graph = Edges.merge([full_edges(s) for s in batch])
    n, f = len(graph.starts), 140
    rng = np.random.default_rng(54)
    x = parameter(rng.uniform(-1, 1, size=(n, f)))
    a2 = parameter(np.where(graph.contact, rng.uniform(0.2, 1.0, size=len(graph.src)), 1.0)[:, None])
    params = init_gat_params(f, rng)
    t = Tape()
    t.backward(t.sum_all(gat_forward(t, x, graph, a2, params)))
    assert graph.contact.any() and x.grad is not None and params.u.grad is not None
    for node in t._nodes:
        assert not (node.rows == n and node.cols > f), f"tape value of shape {node.shape}"
    for shape in passed:
        assert not (shape[0] == n and shape[1] > f), f"gradient of shape {shape}"


@pytest.mark.parametrize("n_atoms, seed", [(300, 1), (600, 2)])
def test_row_without_a_contact_edge_outputs_exact_zero_at_every_layer(edge_kernel, n_atoms, seed):
    # The premise of running the model on the reached rows only: a row whose
    # edges are all covalent has att2 == att1, so its output is exactly 0.
    s = pocket_sample(n_atoms, seed)
    edges = full_edges(s)
    rng = np.random.default_rng(seed)
    f = 16
    a2 = np.ones((len(edges.src), 1))
    a2[edges.contact, 0] = rng.uniform(0.05, 1.0, size=int(edges.contact.sum()))
    ends = np.zeros(n_atoms, dtype=bool)
    ends[edges.src[edges.contact]] = True
    assert ends.any() and not ends.all()
    t = Tape()
    h = constant(s.features @ rng.uniform(-0.5, 0.5, size=(56, f)))
    for _ in range(4):
        layer = init_gat_params(f, rng)
        layer.b.data[...] = rng.normal()
        h = gat_forward(t, h, edges, constant(a2), layer)
        assert np.all(h.data[~ends] == 0.0)
        assert np.all(np.abs(h.data[ends]).max(axis=1) > 0)
