"""The edge-list model against the dense N x N reference in ``dense_oracle``:
scores, parameter gradients (mu and sigma_raw included), one pocket layer
against the reference's concatenated gate input, and the size of every tape
node."""

import numpy as np
import pytest

from molgat.autodiff import Tape, constant, parameter
from molgat.gat import gat_forward, init_gat_params
from molgat.graphs import build_sample, prune_protein
from molgat.model import ModelConfig, ModelParams, dropout_masks, predict, score
from molgat.synthetic import generate_corpus

from composed import full_edges
from dense_oracle import dense_gat_forward, dense_predict, dense_score
from helpers import bce_loss, dense_of, pocket_sample, record_gradient_shapes

PAPER = ModelConfig()
A4_SMALL = ModelConfig(num_gat_layers=2, gat_dim=12, fc_dims=(8, 1), dropout_rate=0.3)


def corpus(count, seed):
    return [build_sample(prune_protein(r)) for r in generate_corpus(count, seed=seed)]


def gradients(forward, sample, params, config):
    params.zero_grad()
    t = Tape()
    t.backward(bce_loss(t, forward(t, sample, params, config), sample.label or 0))
    return {name: np.zeros_like(v.data) if v.grad is None else v.grad.copy()
            for name, v in params.named_values()}


def assert_parity(samples, config, seed, grad_every):
    params = ModelParams.initialize(config, np.random.default_rng(seed))
    for k, s in enumerate(samples):
        assert abs(score(s, params, config) - dense_score(s, params, config)) <= 1e-10
        if k % grad_every:
            continue
        sparse = gradients(lambda t, s, p, c: predict(t, [s], p, c), s, params, config)
        dense = gradients(dense_predict, s, params, config)
        for name in sparse:
            scale = np.abs(dense[name]).max()
            err = np.abs(sparse[name] - dense[name]).max()
            assert err <= 1e-9 * scale or err == 0.0, f"{s.complex_id} {name}: {err:g} vs {scale:g}"
        assert np.abs(sparse["mu"]).max() > 0 or not full_edges(s).contact.any()


@pytest.mark.usefixtures("edge_kernel")
class TestDenseParity:
    def test_a4_corpus(self):
        assert_parity(corpus(6, 300), A4_SMALL, seed=4, grad_every=1)
        assert_parity(corpus(6, 300), PAPER, seed=5, grad_every=2)

    def test_a6_corpus(self):
        assert_parity(corpus(80, 400), PAPER, seed=6, grad_every=8)

    @pytest.mark.parametrize("n_atoms", [300, 600])
    def test_pocket_samples(self, n_atoms):
        assert_parity([pocket_sample(n_atoms, seed=n_atoms)], PAPER, seed=7, grad_every=1)


@pytest.mark.usefixtures("edge_kernel")
def test_pocket_layer_matches_the_concat_gate():
    # The layer computes the gate logit as x ([I | W] u); the oracle builds
    # [x | x W] and multiplies it by u. Output, gate and the gradients of u,
    # W and x agree on a 600-atom pocket.
    s = pocket_sample(600, seed=600)
    edges = full_edges(s)
    rng = np.random.default_rng(13)
    gauss = np.exp(-((edges.dist - 3.0) ** 2) / 2.0)
    a2 = np.where(edges.contact, gauss, 1.0)[:, None]
    x0 = s.features @ rng.uniform(-0.3, 0.3, size=(s.features.shape[1], PAPER.gat_dim))
    weights = constant(rng.uniform(-1, 1, size=x0.shape))
    layer = init_gat_params(PAPER.gat_dim, rng)
    dense_a1, dense_a2 = constant(dense_of(edges, ~edges.contact)), constant(dense_of(edges, a2))
    runs = {}
    for name, forward in (
        ("edges", lambda t, x, internals: gat_forward(t, x, edges, constant(a2), layer, internals)),
        ("dense", lambda t, x, internals: dense_gat_forward(t, x, dense_a1, dense_a2, layer, internals)),
    ):
        for v in (layer.u, layer.w):
            v.zero_grad()
        x, internals, t = parameter(x0), {}, Tape()
        out = forward(t, x, internals)
        t.backward(t.sum_all(t.mul(out, weights)))
        runs[name] = [out.data, internals["gate"].data, layer.u.grad, layer.w.grad, x.grad]
    assert np.abs(runs["edges"][0]).max() > 0.1
    for sparse, dense, what in zip(runs["edges"], runs["dense"], ("output", "gate", "u", "W", "x")):
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12, err_msg=what)


def test_no_tape_node_is_n_squared(monkeypatch):
    passed = record_gradient_shapes(monkeypatch)
    s = pocket_sample(600, seed=11)
    params = ModelParams.initialize(PAPER, np.random.default_rng(8))
    t = Tape()
    loss = bce_loss(t, predict(t, [s], params, PAPER, masks=dropout_masks([s], PAPER, np.random.default_rng(9))), 1)
    t.backward(loss)
    n2 = s.num_atoms**2
    assert len(t) > 0 and len(passed) >= len(t)
    for node in t._nodes:
        assert node.data.size < n2, f"tape node of shape {node.data.shape}"
    for shape in passed:
        assert np.prod(shape) < n2, f"gradient of shape {shape}"
