import zlib

import numpy as np
import pytest

from molgat.autodiff import Tape, Value, constant, parameter
from molgat.errors import NumericError, ShapeError
from molgat.graphs import Edges
from molgat.model import ModelConfig, ModelParams, predict

from helpers import (
    check_gradients,
    dense_of,
    dropout_mask,
    finite_difference_grads,
    max_relative_error,
    pocket_sample,
    random_edges,
)

OP_TOL = 1e-5  # op-level gradient agreement with central differences at h=1e-5


def rand(rng, rows, cols, low=-1.0, high=1.0):
    return parameter(rng.uniform(low, high, size=(rows, cols)))


class TestForwardExamples:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(-1, 1, size=(3, 3))
        out = Tape().matmul(constant(np.eye(3)), constant(m))
        np.testing.assert_array_equal(out.data, m)

    def test_matmul_hand_case(self):
        out = Tape().matmul(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tape().matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))

    def test_sigmoid_at_zero(self):
        t = Tape()
        x = parameter([[0.0]])
        out = t.sigmoid(x)
        assert out.item() == 0.5
        t.backward(t.sum_all(out))
        assert x.grad[0, 0] == 0.25

    def test_relu_negative(self):
        t = Tape()
        x = parameter([[-3.0]])
        out = t.relu(x)
        assert out.item() == 0.0
        t.backward(t.sum_all(out))
        assert x.grad[0, 0] == 0.0

    def test_binary_shape_mismatch(self):
        for op in ("add", "sub", "mul"):
            with pytest.raises(ShapeError):
                getattr(Tape(), op)(constant(np.ones((2, 2))), constant(np.ones((2, 3))))

    def test_non_finite_rejected(self):
        t = Tape()
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            t.exp(constant([[1000.0]]))


class TestMaskedSoftmax:
    def test_uniform_row(self):
        scores = constant(np.full((1, 4), 0.7))
        out = Tape().masked_softmax(scores, np.ones((1, 4)))
        np.testing.assert_allclose(out.data, 0.25)

    def test_single_neighbor(self):
        scores = constant([[5.0, -2.0, 9.9]])
        out = Tape().masked_softmax(scores, np.array([[0.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 0.0]])

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(-2, 2, size=(5, 5))
        mask = (rng.random((5, 5)) < 0.6).astype(float)
        mask[np.arange(5), np.arange(5)] = 1.0
        out = Tape().masked_softmax(constant(scores), mask)
        # direct unstabilized exp/sum per row
        expected = np.zeros_like(scores)
        for i in range(5):
            idx = mask[i] != 0
            ex = np.exp(scores[i, idx])
            expected[i, idx] = ex / ex.sum()
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            scores = rng.uniform(-50, 50, size=(n, n))
            mask = (rng.random((n, n)) < 0.5).astype(float)
            mask[np.arange(n), np.arange(n)] = 1.0
            out = Tape().masked_softmax(constant(scores), mask)
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_all_zero_row_rejected(self):
        with pytest.raises(ShapeError):
            Tape().masked_softmax(constant(np.zeros((2, 2))), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tape().masked_softmax(constant(np.zeros((2, 2))), np.ones((2, 3)))


@pytest.mark.usefixtures("edge_kernel")
class TestEdgeOps:
    def test_edge_dot_matches_dense_product(self):
        rng = np.random.default_rng(20)
        edges = random_edges(rng, 7)
        a, b = rng.uniform(-1, 1, size=(7, 4)), rng.uniform(-1, 1, size=(7, 4))
        out = Tape().edge_dot(constant(a), constant(b), edges)
        np.testing.assert_allclose(out.data[:, 0], (a @ b.T)[edges.src, edges.dst], atol=1e-14)

    @pytest.mark.usefixtures("edge_kernel")
    def test_permute_rows(self):
        rng = np.random.default_rng(21)
        edges = random_edges(rng, 6)
        a = rng.uniform(-1, 1, size=(len(edges.src), 1))
        out = Tape().take_rows(constant(a), edges.rev)
        np.testing.assert_array_equal(dense_of(edges, out.data[:, 0]), dense_of(edges, a[:, 0]).T)

    def test_segment_softmax_matches_masked_softmax(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            edges = random_edges(rng, n)
            scores = rng.uniform(-50, 50, size=(len(edges.src), 1))
            mask = (rng.random(len(edges.src)) < 0.6) | (edges.src == edges.dst)
            out = Tape().segment_softmax(constant(scores), edges, mask).data[:, 0]
            dense = Tape().masked_softmax(constant(dense_of(edges, scores[:, 0])), dense_of(edges, mask))
            np.testing.assert_allclose(dense_of(edges, out), dense.data, atol=1e-14)
            np.testing.assert_allclose(np.add.reduceat(out, edges.starts), 1.0, atol=1e-12)
            assert np.all(out[~mask] == 0.0)

    def test_segment_softmax_row_without_masked_in_edge_rejected(self):
        edges = Edges.build(3, [(0, 1)])
        mask = np.ones(len(edges.src), dtype=bool)
        mask[edges.src == 2] = False
        with pytest.raises(ShapeError, match="no masked-in edge"):
            Tape().segment_softmax(constant(np.zeros((len(edges.src), 1))), edges, mask)

    def test_segment_sum_matches_dense_product(self):
        rng = np.random.default_rng(23)
        edges = random_edges(rng, 8)
        w = rng.uniform(-1, 1, size=(len(edges.src), 1))
        x = rng.uniform(-1, 1, size=(8, 3))
        out = Tape().segment_sum(constant(w), constant(x), edges)
        np.testing.assert_allclose(out.data, dense_of(edges, w[:, 0]) @ x, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(24)
        edges = random_edges(rng, 5)
        e = len(edges.src)
        t = Tape()
        with pytest.raises(ShapeError):
            t.edge_dot(constant(np.ones((4, 2))), constant(np.ones((4, 2))), edges)
        with pytest.raises(ShapeError):
            t.edge_dot(constant(np.ones((5, 2))), constant(np.ones((5, 3))), edges)
        with pytest.raises(ShapeError):
            t.segment_softmax(constant(np.ones((e - 1, 1))), edges, np.ones(e - 1, bool))
        with pytest.raises(ShapeError):
            t.segment_softmax(constant(np.ones((e, 1))), edges, np.ones(e + 1, bool))
        with pytest.raises(ShapeError):
            t.segment_sum(constant(np.ones((e, 1))), constant(np.ones((4, 2))), edges)
        with pytest.raises(ShapeError):
            t.segment_sum(constant(np.ones((e, 2))), constant(np.ones((5, 2))), edges)
        with pytest.raises(ShapeError):
            t.take_rows(constant(np.ones((e, 1))), np.append(edges.rev, 0))


class TestBackwardExamples:
    def test_sum_gradient_is_ones(self):
        t = Tape()
        w = parameter(np.arange(6.0).reshape(2, 3))
        t.backward(t.sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_half_square_gradient_is_w(self):
        t = Tape()
        w = parameter(np.arange(6.0).reshape(2, 3) - 2.5)
        loss = t.scale(t.sum_all(t.mul(w, w)), 0.5)
        t.backward(loss)
        np.testing.assert_allclose(w.grad, w.data, atol=1e-15)

    def test_non_scalar_rejected(self):
        t = Tape()
        w = parameter(np.ones((2, 2)))
        out = t.add(w, w)
        with pytest.raises(ShapeError):
            t.backward(out)

    def test_deterministic_gradients(self):
        def run():
            rng = np.random.default_rng(3)
            t = Tape()
            a = parameter(rng.uniform(-1, 1, size=(4, 4)))
            b = parameter(rng.uniform(-1, 1, size=(4, 4)))
            loss = t.sum_all(t.sigmoid(t.matmul(a, t.exp(b))))
            t.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_first_gradient_is_copied_not_aliased(self):
        # add's backward hands one array to both parents; a kept reference
        # would let a's later accumulation leak into s and from there into b
        a, b = parameter([[1.0, 2.0]]), parameter([[3.0, 4.0]])
        t = Tape()
        s = t.add(a, b)
        t.backward(t.sum_all(t.add(s, a)))
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])


def _recorded_product(t, x, y):
    """x * y elementwise as one node with its own backward rule."""

    def backward(g):
        for p, other in ((x, y), (y, x)):
            if p.requires_grad:
                p.accumulate(g * other.data)

    return t.record(x.data * y.data, (x, y), backward)


def _op_cases():
    """Every tape operation, as (call, inputs): ``call(tape, *values)`` runs
    the operation on values holding ``inputs``."""
    rng = np.random.default_rng(60)
    edges = random_edges(rng, 5)
    a, b = rng.uniform(0.5, 1.5, size=(5, 3)), rng.uniform(0.5, 1.5, size=(5, 3))
    w, col = rng.uniform(-1, 1, size=(len(edges.src), 1)), rng.uniform(-1, 1, size=(5, 1))
    keep, mask = dropout_mask((5, 3), 0.3, rng), edges.src == edges.dst
    return {
        "matmul": (lambda t, x, y: t.matmul(x, y), (a, b.T)),
        "affine": (lambda t, x, y, c: t.affine(x, y, c), (a, b.T, col.T)),
        "record": (_recorded_product, (a, b)),
        "add": (lambda t, x, y: t.add(x, y), (a, b)),
        "sub": (lambda t, x, y: t.sub(x, y), (a, b)),
        "mul": (lambda t, x, y: t.mul(x, y), (a, b)),
        "scale": (lambda t, x: t.scale(x, -2.0), (a,)),
        "exp": (lambda t, x: t.exp(x), (a,)),
        "log": (lambda t, x: t.log(x), (a,)),
        "sigmoid": (lambda t, x: t.sigmoid(x), (a,)),
        "relu": (lambda t, x: t.relu(x), (a - 1.0,)),
        "softplus": (lambda t, x: t.softplus(x), (a,)),
        "reciprocal": (lambda t, x: t.reciprocal(x), (a,)),
        "transpose": (lambda t, x: t.transpose(x), (a,)),
        "concat_cols": (lambda t, x, y: t.concat_cols(x, y), (a, b)),
        "rowscale": (lambda t, c, x: t.rowscale(c, x), (col, a)),
        "broadcast": (lambda t, x: t.broadcast(x, 5, 3), (np.array([[0.7]]),)),
        "sum_all": (lambda t, x: t.sum_all(x), (a,)),
        "sum_rows": (lambda t, x: t.sum_rows(x, [2, 3]), (a,)),
        "masked_softmax": (lambda t, x: t.masked_softmax(x, np.eye(5)), (a @ b.T,)),
        "dropout": (lambda t, x: t.dropout(x, keep), (a,)),
        "edge_dot": (lambda t, x, y: t.edge_dot(x, y, edges), (a, b)),
        "take_rows": (lambda t, x: t.take_rows(x, edges.rev), (w,)),
        "segment_softmax": (lambda t, x: t.segment_softmax(x, edges, mask), (w,)),
        "segment_sum": (lambda t, x, y: t.segment_sum(x, y, edges), (w, a)),
    }


OP_CASES = _op_cases()


class TestRecording:
    """The tape records a node, with its parents and backward rule, exactly
    when some input requires a gradient."""

    def test_every_operation_is_covered(self):
        public = {name for name in vars(Tape) if not name.startswith("_")}
        assert set(OP_CASES) == public - {"backward"}

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_operation_on_constants_records_nothing(self, op):
        call, inputs = OP_CASES[op]
        t = Tape()
        out = call(t, *map(constant, inputs))
        assert len(t) == 0
        assert not out.requires_grad and out._parents == () and out._backward is None

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_operation_on_a_parameter_records_one_node(self, op):
        call, inputs = OP_CASES[op]
        values = [parameter(inputs[0])] + [constant(x) for x in inputs[1:]]
        t = Tape()
        out = call(t, *values)
        assert t._nodes == [out] and out.requires_grad
        assert out._parents == tuple(values) and out._backward is not None
        with_constants = call(Tape(), *map(constant, inputs))
        np.testing.assert_array_equal(out.data, with_constants.data)

    def test_mixed_graph_records_exactly_the_nodes_downstream_of_a_parameter(self):
        rng = np.random.default_rng(61)
        c1, c2 = constant(rng.uniform(-1, 1, size=(3, 3))), constant(rng.uniform(-1, 1, size=(3, 3)))
        p = parameter(rng.uniform(-1, 1, size=(3, 3)))
        t = Tape()
        a = t.mul(c1, c2)
        b = t.add(a, p)
        c = t.exp(a)
        d = t.matmul(b, c)
        e = t.sigmoid(c)
        de = t.mul(d, e)
        loss = t.sum_all(de)
        assert t._nodes == [b, d, de, loss]
        for v in (a, c, e):
            assert not v.requires_grad and v._parents == () and v._backward is None
        assert b._parents == (a, p) and d._parents == (b, c) and de._parents == (d, e)
        t.backward(loss)
        assert p.grad is not None and c1.grad is None and a.grad is None

    def test_backward_of_a_constant_loss_leaves_parameters_without_gradient(self):
        rng = np.random.default_rng(62)
        c = constant(rng.uniform(-1, 1, size=(2, 2)))
        p = parameter(rng.uniform(-1, 1, size=(2, 2)))
        t = Tape()
        t.add(p, c)  # on the tape, but not part of the loss
        loss = t.sum_all(t.exp(t.mul(c, c)))
        assert len(t) == 1 and loss._parents == ()
        t.backward(loss)
        assert p.grad is None and c.grad is None
        np.testing.assert_array_equal(loss.grad, [[1.0]])


def check_ownership(monkeypatch, watched):
    """From now on, each ``Value.accumulate`` asserts that the receiver's
    ``grad`` shares no memory with any other value's ``grad`` in the list
    ``watched`` or with the data of any of them. Returns the receivers."""
    receivers = []
    accumulate = Value.accumulate

    def checked(self, g, copy=False):
        accumulate(self, g, copy=copy)
        receivers.append(self)
        for other in watched:
            assert not np.shares_memory(self.grad, other.data)
            if other is not self and other.grad is not None:
                assert not np.shares_memory(self.grad, other.grad)

    monkeypatch.setattr(Value, "accumulate", checked)
    return receivers


class TestGradientOwnership:
    """``Value.accumulate`` keeps a first gradient as handed over, so a
    backward rule hands over only an array it has just built. The incoming
    gradient that ``add`` and ``sub`` pass on to a parent, and its views in
    ``transpose`` and ``concat_cols``, are copied."""

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_no_gradient_shares_memory(self, op, monkeypatch):
        call, inputs = OP_CASES[op]
        values = [parameter(x) for x in inputs]
        t = Tape()
        out = call(t, *values)
        weights = constant(np.random.default_rng(63).uniform(-1, 1, size=out.shape))
        watched = values + [weights] + t._nodes
        receivers = check_ownership(monkeypatch, watched)
        t.backward(t.sum_all(t.mul(out, weights)))
        assert {id(v) for v in values} <= {id(v) for v in receivers}

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_operation_on_one_value_twice(self, op, monkeypatch):
        rng = np.random.default_rng(64)
        x, weights = parameter(rng.uniform(-1, 1, size=(4, 3))), constant(rng.uniform(-1, 1, size=(4, 3)))
        t = Tape()
        y = getattr(t, op)(x, x)
        loss = t.sum_all(t.mul(y, weights))
        check_ownership(monkeypatch, [x, weights] + t._nodes)
        t.backward(loss)
        expected = {"add": 2.0 * weights.data, "sub": np.zeros((4, 3)), "mul": 2.0 * x.data * weights.data}[op]
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15, atol=0)

    def test_a_parameter_gathers_gradient_over_two_passes(self, monkeypatch):
        rng = np.random.default_rng(65)
        p = parameter(rng.uniform(-1, 1, size=(3, 3)))
        passes = [tuple(constant(rng.uniform(-1, 1, size=(3, 3))) for _ in range(2)) for _ in range(2)]
        kept = [(c.data.copy(), w.data.copy()) for c, w in passes]
        watched = [p] + [v for pair in passes for v in pair]

        def run(c, w):
            t = Tape()
            y = t.add(t.matmul(c, p), t.transpose(p))
            loss = t.sum_all(t.mul(y, w))
            watched.extend(t._nodes)
            t.backward(loss)

        alone = []
        for c, w in passes:
            p.zero_grad()
            run(c, w)
            alone.append(p.grad)
        np.testing.assert_allclose(alone[0], kept[0][0].T @ kept[0][1] + kept[0][1].T, rtol=1e-14)
        p.zero_grad()
        check_ownership(monkeypatch, watched)
        for c, w in passes:
            run(c, w)
        np.testing.assert_allclose(p.grad, alone[0] + alone[1], rtol=1e-14)
        for (c, w), (c0, w0) in zip(passes, kept):
            np.testing.assert_array_equal(c.data, c0)
            np.testing.assert_array_equal(w.data, w0)

    def test_model_backward_shares_no_gradient(self, monkeypatch):
        config = ModelConfig(num_gat_layers=2, gat_dim=6, fc_dims=(5, 1), dropout_rate=0.3)
        rng = np.random.default_rng(66)
        params = ModelParams.initialize(config, rng)
        samples = [pocket_sample(45, seed=67, n_ligand=12), pocket_sample(130, seed=68, n_ligand=20)]
        t = Tape()
        out = predict(t, samples, params, config, rng=rng)
        loss = t.sum_all(t.log(out))
        receivers = check_ownership(monkeypatch, params.values() + t._nodes)
        t.backward(loss)
        assert {id(v) for v in params.values()} <= {id(v) for v in receivers}


class TestGradientChecks:
    """Every operation against the central finite-difference oracle."""

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)

        def forward():
            t = Tape()
            return t.sum_all(t.matmul(a, b)).item()

        t = Tape()
        t.backward(t.sum_all(t.matmul(a, b)))
        # bilinear op: finite differences are near-exact, so hold it to 1e-6
        check_gradients(forward, [a, b], tol=1e-6)

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_elementwise_binary(self, op):
        rng = np.random.default_rng(2)
        a, b = rand(rng, 3, 3), rand(rng, 3, 3)
        weights = constant(rng.uniform(-1, 1, size=(3, 3)))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(getattr(t, op)(a, b), weights)).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(getattr(t, op)(a, b), weights)))
        check_gradients(forward, [a, b], tol=OP_TOL)

    @pytest.mark.parametrize(
        "op,low,high",
        [
            ("exp", -1.0, 1.0),
            ("sigmoid", -1.0, 1.0),
            ("softplus", -1.0, 1.0),
            ("relu", 0.05, 1.0),  # bounded away from the kink at 0
            ("log", 0.3, 1.5),
            ("reciprocal", 0.3, 1.5),
            ("transpose", -1.0, 1.0),
            ("sum_rows", -1.0, 1.0),
        ],
    )
    def test_unary_ops(self, op, low, high):
        rng = np.random.default_rng(zlib.crc32(op.encode()))  # stable across processes
        x = rand(rng, 4, 3, low, high)
        out_shape = {"transpose": (3, 4), "sum_rows": (1, 3)}.get(op, (4, 3))
        weights = constant(rng.uniform(-1, 1, size=out_shape))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(getattr(t, op)(x), weights)).item()

        # exp is smooth enough to hold at 1e-6; the rest at the general 1e-5
        tol = 1e-6 if op == "exp" else OP_TOL
        t = Tape()
        t.backward(t.sum_all(t.mul(getattr(t, op)(x), weights)))
        check_gradients(forward, [x], tol=tol)

    def test_relu_negative_side_gradient(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 3, 3, -1.0, -0.05)
        t = Tape()
        t.backward(t.sum_all(t.relu(x)))
        np.testing.assert_array_equal(x.grad, np.zeros((3, 3)))

    def test_scale(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 3, 3)

        def forward():
            t = Tape()
            return t.sum_all(t.scale(x, -2.5)).item()

        t = Tape()
        t.backward(t.sum_all(t.scale(x, -2.5)))
        check_gradients(forward, [x], tol=OP_TOL)

    def test_concat_cols(self):
        rng = np.random.default_rng(5)
        a, b = rand(rng, 3, 2), rand(rng, 3, 4)
        weights = rng.uniform(-1, 1, size=(3, 6))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.concat_cols(a, b), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.concat_cols(a, b), constant(weights))))
        check_gradients(forward, [a, b], tol=OP_TOL)

    def test_rowscale(self):
        rng = np.random.default_rng(6)
        col, m = rand(rng, 4, 1), rand(rng, 4, 3)
        weights = rng.uniform(-1, 1, size=(4, 3))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.rowscale(col, m), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.rowscale(col, m), constant(weights))))
        check_gradients(forward, [col, m], tol=OP_TOL)

    def test_broadcast(self):
        rng = np.random.default_rng(8)
        s = rand(rng, 1, 1)
        weights = rng.uniform(-1, 1, size=(3, 5))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.broadcast(s, 3, 5), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.broadcast(s, 3, 5), constant(weights))))
        check_gradients(forward, [s], tol=OP_TOL)

    def test_affine(self):
        rng = np.random.default_rng(16)
        x, w, b = rand(rng, 3, 4), rand(rng, 4, 2), rand(rng, 1, 2)
        weights = rng.uniform(-1, 1, size=(3, 2))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.affine(x, w, b), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.affine(x, w, b), constant(weights))))
        check_gradients(forward, [x, w, b], tol=1e-6)
        composed = t.add(t.matmul(x, w), t.broadcast(b, 3, 2))
        assert np.array_equal(t.affine(x, w, b).data, composed.data)
        for bad in ((x, w, rand(rng, 1, 3)), (x, rand(rng, 3, 2), b), (x, w, rand(rng, 3, 2))):
            with pytest.raises(ShapeError):
                t.affine(*bad)

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_affine_rejects_a_non_finite_input(self, where, bad):
        values = [parameter([[1.0, 2.0]]), parameter([[1.0], [-1.0]]), parameter([[0.5]])]
        values[where].data[0, 0] = bad
        t = Tape()
        with pytest.raises(NumericError):
            t.affine(*values)
        assert len(t) == 0

    def test_broadcast_row(self):
        rng = np.random.default_rng(15)
        s = rand(rng, 1, 5)
        weights = rng.uniform(-1, 1, size=(3, 5))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.broadcast(s, 3, 5), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.broadcast(s, 3, 5), constant(weights))))
        check_gradients(forward, [s], tol=OP_TOL)
        with pytest.raises(ShapeError):
            Tape().broadcast(s, 3, 4)

    def test_sum_rows_per_run(self):
        rng = np.random.default_rng(16)
        x = rand(rng, 9, 3)
        sizes = np.array([2, 4, 3])
        weights = rng.uniform(-1, 1, size=(3, 3))
        out = Tape().sum_rows(x, sizes)
        np.testing.assert_allclose(out.data, [x.data[:2].sum(0), x.data[2:6].sum(0), x.data[6:].sum(0)],
                                   atol=1e-15)

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.sum_rows(x, sizes), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.sum_rows(x, sizes), constant(weights))))
        check_gradients(forward, [x], tol=OP_TOL)
        for bad in ([2, 4, 2], [0, 6, 3]):
            with pytest.raises(ShapeError):
                Tape().sum_rows(x, bad)

    def test_masked_softmax_gradient(self):
        rng = np.random.default_rng(10)
        scores = rand(rng, 4, 4)
        mask = (rng.random((4, 4)) < 0.7).astype(float)
        mask[np.arange(4), np.arange(4)] = 1.0
        weights = rng.uniform(-1, 1, size=(4, 4))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.masked_softmax(scores, mask), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.masked_softmax(scores, mask), constant(weights))))
        check_gradients(forward, [scores], tol=OP_TOL)

    @pytest.mark.usefixtures("edge_kernel")
    def test_edge_dot(self):
        rng = np.random.default_rng(30)
        edges = random_edges(rng, 5)
        a, b = rand(rng, 5, 3), rand(rng, 5, 3)
        weights = rng.uniform(-1, 1, size=(len(edges.src), 1))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.edge_dot(a, b, edges), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.edge_dot(a, b, edges), constant(weights))))
        check_gradients(forward, [a, b], tol=OP_TOL)

    @pytest.mark.usefixtures("edge_kernel")
    def test_permute_rows(self):
        rng = np.random.default_rng(31)
        edges = random_edges(rng, 5)
        a = rand(rng, len(edges.src), 2)
        weights = rng.uniform(-1, 1, size=a.shape)
        for perm in (edges.rev, rng.permutation(len(edges.src))):  # involution, general

            def forward():
                t = Tape()
                return t.sum_all(t.mul(t.take_rows(a, perm), constant(weights))).item()

            a.zero_grad()
            t = Tape()
            t.backward(t.sum_all(t.mul(t.take_rows(a, perm), constant(weights))))
            check_gradients(forward, [a], tol=OP_TOL)

    def test_take_rows_of_some_rows(self):
        # Rows left out get zero gradient; two takes of one value accumulate,
        # as the gate's top and bottom halves of u do.
        rng = np.random.default_rng(35)
        a = rand(rng, 6, 2)
        top, bottom = np.array([0, 1, 2]), np.array([5, 3])
        w_top, w_bottom = rng.uniform(-1, 1, size=(3, 2)), rng.uniform(-1, 1, size=(2, 2))

        def loss(t):
            picked = t.sum_all(t.mul(t.take_rows(a, top), constant(w_top)))
            return t.add(picked, t.sum_all(t.mul(t.take_rows(a, bottom), constant(w_bottom))))

        np.testing.assert_array_equal(Tape().take_rows(a, bottom).data, a.data[[5, 3]])
        t = Tape()
        t.backward(loss(t))
        assert np.all(a.grad[4] == 0.0)
        check_gradients(lambda: loss(Tape()).item(), [a], tol=OP_TOL)

    @pytest.mark.usefixtures("edge_kernel")
    def test_segment_softmax_gradient(self):
        rng = np.random.default_rng(32)
        edges = random_edges(rng, 5, density=0.7)
        scores = rand(rng, len(edges.src), 1)
        mask = (rng.random(len(edges.src)) < 0.7) | (edges.src == edges.dst)
        weights = rng.uniform(-1, 1, size=scores.shape)

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.segment_softmax(scores, edges, mask), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.segment_softmax(scores, edges, mask), constant(weights))))
        check_gradients(forward, [scores], tol=OP_TOL)

    @pytest.mark.usefixtures("edge_kernel")
    def test_segment_sum(self):
        rng = np.random.default_rng(33)
        edges = random_edges(rng, 5)
        w, x = rand(rng, len(edges.src), 1), rand(rng, 5, 3)
        weights = rng.uniform(-1, 1, size=(5, 3))

        def forward():
            t = Tape()
            return t.sum_all(t.mul(t.segment_sum(w, x, edges), constant(weights))).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(t.segment_sum(w, x, edges), constant(weights))))
        check_gradients(forward, [w, x], tol=OP_TOL)

    def test_dropout_gradient(self):
        rng = np.random.default_rng(12)
        x = rand(rng, 4, 4)
        keep = dropout_mask((4, 4), 0.4, np.random.default_rng(99))

        def forward():
            t = Tape()
            return t.sum_all(t.dropout(x, keep)).item()

        t = Tape()
        t.backward(t.sum_all(t.dropout(x, keep)))
        check_gradients(forward, [x], tol=OP_TOL)

    def test_composite_expression(self):
        rng = np.random.default_rng(13)
        a, b, c = rand(rng, 3, 3), rand(rng, 3, 3), rand(rng, 3, 1)

        def forward():
            t = Tape()
            h = t.sigmoid(t.matmul(t.add(a, t.mul(b, b)), c))
            return t.sum_all(t.exp(t.scale(h, 0.5))).item()

        t = Tape()
        h = t.sigmoid(t.matmul(t.add(a, t.mul(b, b)), c))
        t.backward(t.sum_all(t.exp(t.scale(h, 0.5))))
        check_gradients(forward, [a, b, c], tol=OP_TOL)

    def test_leaf_reused_twice_accumulates(self):
        rng = np.random.default_rng(14)
        a = rand(rng, 2, 2)

        def forward():
            t = Tape()
            return t.sum_all(t.add(t.mul(a, a), a)).item()

        t = Tape()
        t.backward(t.sum_all(t.add(t.mul(a, a), a)))
        check_gradients(forward, [a], tol=OP_TOL)


class TestValueBasics:
    def test_row_major_contract(self):
        v = Value([[1.0, 2.0], [3.0, 4.0]])
        assert v.rows == 2 and v.cols == 2
        assert v.data.flags["C_CONTIGUOUS"]
        assert v.data.dtype == np.float64

    def test_scalar_and_vector_promotion(self):
        assert Value(3.0).shape == (1, 1)
        assert Value([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_ndim_3_rejected(self):
        with pytest.raises(ShapeError):
            Value(np.zeros((2, 2, 2)))


@pytest.mark.usefixtures("edge_kernel")
class TestBatchedEdgeOps:
    """Edge operations on three graphs merged into one block-diagonal edge
    list (``Edges.merge``), as a training batch runs them."""

    SIZES = (4, 6, 5)

    def batch(self, rng):
        parts = [random_edges(rng, n) for n in self.SIZES]
        return parts, Edges.merge(parts)

    def test_each_graph_gets_its_own_result(self):
        rng = np.random.default_rng(40)
        parts, edges = self.batch(rng)
        n = sum(self.SIZES)
        a, b = rng.uniform(-1, 1, size=(n, 3)), rng.uniform(-1, 1, size=(n, 3))
        w = rng.uniform(-1, 1, size=(len(edges.src), 1))
        mask = (rng.random(len(edges.src)) < 0.7) | (edges.src == edges.dst)
        t = Tape()
        batched = {
            "dot": t.edge_dot(constant(a), constant(b), edges).data,
            "sum": t.segment_sum(constant(w), constant(a), edges).data,
            "softmax": t.segment_softmax(constant(w), edges, mask).data,
            "reverse": t.take_rows(constant(w), edges.rev).data,
        }
        node, edge = 0, 0
        for p in parts:
            rows, span = slice(node, node + len(p.starts)), slice(edge, edge + len(p.src))
            t = Tape()
            alone = {
                "dot": t.edge_dot(constant(a[rows]), constant(b[rows]), p).data,
                "sum": t.segment_sum(constant(w[span]), constant(a[rows]), p).data,
                "softmax": t.segment_softmax(constant(w[span]), p, mask[span]).data,
                "reverse": t.take_rows(constant(w[span]), p.rev).data,
            }
            for key, value in alone.items():
                part = batched[key][rows if key == "sum" else span]
                np.testing.assert_allclose(part, value, rtol=0, atol=1e-15, err_msg=key)
            node, edge = rows.stop, span.stop

    def test_gradients(self):
        rng = np.random.default_rng(41)
        _, edges = self.batch(rng)
        n = sum(self.SIZES)
        a, b = rand(rng, n, 3), rand(rng, n, 3)
        mask = (rng.random(len(edges.src)) < 0.7) | (edges.src == edges.dst)
        weights = rng.uniform(-1, 1, size=(n, 3))

        def loss(t):
            half = t.edge_dot(a, b, edges)
            scores = t.add(half, t.take_rows(half, edges.rev))
            attention = t.segment_softmax(scores, edges, mask)
            return t.sum_all(t.mul(t.segment_sum(attention, b, edges), constant(weights)))

        t = Tape()
        t.backward(loss(t))
        check_gradients(lambda: loss(Tape()).item(), [a, b], tol=OP_TOL)
