import dataclasses
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from molgat.autodiff import Tape, constant, parameter
from molgat.chem import Atom, Bond, ComplexRecord
from molgat.errors import CheckpointError, NumericError
from molgat.graphs import GraphSample, build_sample, prune_protein, read_cache, write_cache
from molgat.model import (
    CHECKPOINT_MAGIC,
    SIGMA_FLOOR,
    ModelConfig,
    ModelParams,
    _dropout_masks,
    load_params,
    materialize_a2,
    predict,
    save_params,
    score,
)
from molgat.synthetic import generate_corpus
from molgat.training import mean_bce

from composed import composed_materialize_a2, composed_predict, composed_score
from helpers import bce_loss, check_gradients, dense_of, dropout_mask, ligand_in_a_shell, num_parameters, pocket_sample

SMALL = ModelConfig(num_gat_layers=2, gat_dim=8, fc_dims=(6, 1), dropout_rate=0.3)


def atom(element, pos, is_ligand):
    return Atom(element, tuple(float(c) for c in pos), is_ligand, 1, 0, 0, False)


def sample_with_contact(distance, extra_protein=()):
    """Two-atom ligand plus one protein atom at a controlled distance from L0."""
    atoms = [
        atom("C", (0, 0, 0), True),
        atom("N", (1.4, 0, 0), True),
        atom("O", (0, 0, distance), False),
    ]
    atoms += [atom("C", pos, False) for pos in extra_protein]
    return build_sample(ComplexRecord("c", "p", atoms, [Bond(0, 1)]))


def no_contact_sample(seed=0):
    rng = np.random.default_rng(seed)
    atoms = [atom("C", rng.normal(size=3) * 0.5, True) for _ in range(3)]
    atoms += [atom("O", (6.0 + k * 0.6, 0, 0), False) for k in range(3)]
    rec = ComplexRecord("c", "p", atoms, [Bond(0, 1), Bond(1, 2), Bond(3, 4)])
    s = build_sample(rec)
    assert s.inter_mask.sum() == 0
    return s


def fresh_params(config=SMALL, seed=0):
    return ModelParams.initialize(config, np.random.default_rng(seed))


def edge_weight(edges, a2, i, j):
    """The A2 weight of edge (i, j)."""
    (e,) = np.flatnonzero((edges.src == i) & (edges.dst == j))
    return a2.data[e, 0]


class TestMaterializeA2:
    def test_distance_at_mu_gives_one(self):
        s = sample_with_contact(3.0)
        params = fresh_params()
        params.mu.data[0, 0] = 3.0
        t = Tape()
        a2 = materialize_a2(t, s.edges, params.mu, params.sigma_on(t))
        assert edge_weight(s.edges, a2, 0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_no_contacts_reproduces_a1_exactly(self):
        s = no_contact_sample()
        params = fresh_params()
        t = Tape()
        edges = s.edges
        a2 = materialize_a2(t, edges, params.mu, params.sigma_on(t))
        assert np.array_equal(dense_of(edges, a2.data), s.a1)

    def test_gaussian_value(self):
        # d=3, mu=2, sigma=4 -> exp(-0.25); exactly 1 on self-loops and bonds
        s = sample_with_contact(3.0)
        t = Tape()
        mu = parameter([[2.0]])
        sigma = constant([[4.0]])
        edges = s.edges
        a2 = materialize_a2(t, edges, mu, sigma)
        assert edge_weight(edges, a2, 0, 2) == pytest.approx(np.exp(-0.25), abs=1e-12)
        assert edge_weight(edges, a2, 2, 0) == pytest.approx(np.exp(-0.25), abs=1e-12)
        assert np.all(a2.data[~edges.contact] == 1.0)

    def test_nonpositive_sigma_rejected(self):
        s = sample_with_contact(3.0)
        with pytest.raises(NumericError):
            materialize_a2(Tape(), s.edges, parameter([[2.0]]), constant([[0.0]]))

    def test_sigma_value_is_the_softplus_plus_floor_of_its_raw_value(self):
        params = fresh_params()
        for raw in (-40.0, -3.0, -1e-9, 0.0, 0.5, 2.0, 36.0, 800.0):
            params.sigma_raw.data[0, 0] = raw
            expected = float(np.logaddexp(0.0, raw) + SIGMA_FLOOR)
            assert params.sigma_value().hex() == expected.hex()
            assert params.sigma_value() == params.sigma_on(Tape()).item()

    def test_equals_the_composed_column_and_its_gradients(self):
        s = sample_with_contact(3.4, extra_protein=[(0, 2.8, 2.8), (4.0, 0.5, 1.0)])
        weights = constant(np.random.default_rng(3).uniform(-1, 1, size=(len(s.edges.src), 1)))
        runs = []
        for build in (materialize_a2, composed_materialize_a2):
            mu, sigma = parameter([[2.5]]), parameter([[1.7]])
            t = Tape()
            a2 = build(t, s.edges, mu, sigma)
            t.backward(t.sum_all(t.mul(a2, weights)))
            runs.append((a2.data, mu.grad, sigma.grad, len(t)))
        (a2, mu_grad, sigma_grad, nodes), (ref, ref_mu, ref_sigma, ref_nodes) = runs
        assert nodes == 3 and ref_nodes == 12  # the column, then mul and sum_all
        assert np.array_equal(a2, ref)
        np.testing.assert_allclose(mu_grad, ref_mu, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sigma_grad, ref_sigma, rtol=1e-12, atol=0)

    def test_gradients_match_finite_differences(self):
        s = sample_with_contact(3.4, extra_protein=[(0, 2.8, 2.8), (4.0, 0.5, 1.0)])
        weights = constant(np.random.default_rng(4).uniform(-1, 1, size=(len(s.edges.src), 1)))
        mu, sigma = parameter([[2.5]]), parameter([[1.7]])

        def forward():
            t = Tape()
            return t.sum_all(t.mul(materialize_a2(t, s.edges, mu, sigma), weights)).item()

        t = Tape()
        t.backward(t.sum_all(t.mul(materialize_a2(t, s.edges, mu, sigma), weights)))
        check_gradients(forward, [mu, sigma], tol=1e-6)

    # An infinite sigma gives weights of exactly 1, in both forms.
    @pytest.mark.parametrize("which, bad", [("mu", np.inf), ("mu", -np.inf), ("mu", np.nan), ("sigma", np.nan)])
    def test_non_finite_mu_or_sigma_raises(self, which, bad):
        s = sample_with_contact(3.4)
        for build in (materialize_a2, composed_materialize_a2):
            mu, sigma = parameter([[2.5]]), parameter([[1.7]])
            (mu if which == "mu" else sigma).data[0, 0] = bad
            t = Tape()
            with np.errstate(all="ignore"), pytest.raises(NumericError):
                build(t, s.edges, mu, sigma)

    def test_distance_at_mu_maximizes_weight(self):
        params = fresh_params()
        mu = params.mu_value()
        weights = []
        for d in np.linspace(0.5, 4.9, 23):
            s = sample_with_contact(d)
            t = Tape()
            a2 = materialize_a2(t, s.edges, params.mu, params.sigma_on(t))
            weights.append((abs(d - mu), edge_weight(s.edges, a2, 0, 2)))
        best = min(weights, key=lambda p: p[0])
        assert max(weights, key=lambda p: p[1]) == best


class TestPredict:
    def test_probability_in_open_interval(self):
        s = sample_with_contact(3.2)
        p = score(s, fresh_params(), SMALL)
        assert 0.0 < p < 1.0

    def test_no_contact_output_is_constant_sigmoid_mlp_zero(self):
        params = fresh_params(seed=3)
        # nonzero biases so the constant is not trivially 0.5
        for _, b in params.fc:
            b.data[:] = np.random.default_rng(4).uniform(-0.5, 0.5, size=b.data.shape)
        internals = {}
        p1 = predict(Tape(), [no_contact_sample(0)], params, SMALL, internals=internals).item()
        p2 = predict(Tape(), [no_contact_sample(99)], params, SMALL).item()
        assert p1 == p2  # independent of the complex
        assert np.array_equal(internals["pooled"].data, np.zeros((1, SMALL.gat_dim)))
        # hand-computed sigmoid(MLP(0))
        y = np.zeros((1, SMALL.gat_dim))
        for k, (w, b) in enumerate(params.fc):
            y = y @ w.data + b.data
            if k < len(params.fc) - 1:
                y = np.maximum(y, 0.0)
        expected = 1.0 / (1.0 + np.exp(-y[0, 0]))
        assert p1 == pytest.approx(expected, abs=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        s = sample_with_contact(3.0, extra_protein=[(0, 3.0, 3.0), (1.5, 0, 4.0)])
        params = fresh_params()
        base = score(s, params, SMALL)
        perm = rng.permutation(s.num_atoms)
        inverse = np.argsort(perm)  # new row of each old atom
        permuted = GraphSample(
            features=s.features[perm],
            coords=s.coords[perm],
            is_ligand=s.is_ligand[perm],
            bonds=np.sort(inverse[s.bonds], axis=1),
            complex_id=s.complex_id,
            protein_id=s.protein_id,
        )
        np.testing.assert_array_equal(permuted.a1, s.a1[np.ix_(perm, perm)])
        np.testing.assert_array_equal(permuted.inter_mask, s.inter_mask[np.ix_(perm, perm)])
        assert abs(score(permuted, params, SMALL) - base) <= 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(scale=5.0, size=3)
        atoms = [
            atom("C", (0, 0, 0), True),
            atom("N", (1.4, 0, 0), True),
            atom("O", (0, 0, 3.2), False),
            atom("C", (2.5, 2.5, 0), False),
        ]
        bonds = [Bond(0, 1)]
        base = build_sample(ComplexRecord("c", "p", atoms, bonds))
        moved_atoms = [
            Atom(a.element, tuple(rotation @ np.asarray(a.position) + shift), a.is_ligand,
                 a.degree, a.num_hydrogens, a.implicit_valence, a.aromatic)
            for a in atoms
        ]
        moved = build_sample(ComplexRecord("c", "p", moved_atoms, bonds))
        params = fresh_params()
        assert abs(score(base, params, SMALL) - score(moved, params, SMALL)) < 1e-9

    def test_inference_deterministic(self):
        s = sample_with_contact(2.8)
        params = fresh_params()
        assert score(s, params, SMALL) == score(s, params, SMALL)

    def test_training_dropout_reproducible_with_seed(self):
        s = sample_with_contact(2.8)
        params = fresh_params()
        p1 = predict(Tape(), [s], params, SMALL, rng=np.random.default_rng(7)).item()
        p2 = predict(Tape(), [s], params, SMALL, rng=np.random.default_rng(7)).item()
        assert p1 == p2

    def test_parameter_count_layer_sharing(self):
        cfg = SMALL
        params = fresh_params(cfg)
        f = cfg.gat_dim
        per_layer = 2 * f * f + 2 * f + 1  # one shared GatParams per layer, not two
        fc = 0
        prev = f
        for d in cfg.fc_dims:
            fc += prev * d + d
            prev = d
        expected = 56 * f + cfg.num_gat_layers * per_layer + 2 + fc
        assert num_parameters(params) == expected

    def test_branches_read_identical_parameter_objects(self):
        params = fresh_params()
        names = [name for name, _ in params.named_values()]
        assert sum(1 for n in names if n.startswith("gat")) == 4 * SMALL.num_gat_layers


def mixed_batch():
    """Graphs of 5 to 60 atoms; the third has no contacts."""
    batch = [sample_with_contact(3.0, extra_protein=[(0, 3.0, 3.0), (1.5, 0, 4.0)])]
    batch += [build_sample(prune_protein(r)) for r in generate_corpus(3, seed=500)]
    batch.insert(2, no_contact_sample(4))
    batch.append(pocket_sample(60, seed=5, n_ligand=20))
    assert min(s.num_atoms for s in batch) == 5 and max(s.num_atoms for s in batch) == 60
    return batch


@pytest.mark.usefixtures("edge_kernel")
class TestBatch:
    def test_each_row_is_the_samples_score_alone(self):
        batch = mixed_batch()
        params = fresh_params(seed=11)
        out = predict(Tape(), batch, params, SMALL)
        assert out.shape == (len(batch), 1)
        for s, p in zip(batch, out.data[:, 0]):
            assert abs(p - score(s, params, SMALL)) <= 1e-10

    def test_permuting_the_batch_permutes_the_rows(self):
        batch = mixed_batch()
        params = fresh_params(seed=12)
        base = predict(Tape(), batch, params, SMALL).data[:, 0]
        perm = np.random.default_rng(12).permutation(len(batch))
        out = predict(Tape(), [batch[k] for k in perm], params, SMALL).data[:, 0]
        np.testing.assert_allclose(out, base[perm], rtol=0, atol=1e-12)

    def test_dropout_masks_drawn_sample_by_sample(self):
        config = ModelConfig(num_gat_layers=2, gat_dim=8, fc_dims=(6, 5, 1), dropout_rate=0.3)
        batch = mixed_batch()
        params = fresh_params(config, seed=13)
        out = predict(Tape(), batch, params, config, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        alone = [predict(Tape(), [s], params, config, rng=rng).item() for s in batch]
        np.testing.assert_allclose(out.data[:, 0], alone, rtol=0, atol=1e-12)

    def test_paper_batch_loss_and_gradients_equal_the_per_sample_sum(self):
        config = ModelConfig()
        batch = [build_sample(prune_protein(r)) for r in generate_corpus(32, seed=501)]
        labels = [s.label for s in batch]
        params = fresh_params(config, seed=14)

        params.zero_grad()
        t = Tape()
        loss = mean_bce(t, predict(t, batch, params, config), labels)
        t.backward(loss)
        assert len(t) < 120  # one op per stage for the whole batch, not per sample
        batched = {name: v.grad.copy() for name, v in params.named_values()}

        params.zero_grad()
        total = 0.0
        for s in batch:
            t = Tape()
            term = t.scale(bce_loss(t, predict(t, [s], params, config), s.label), 1.0 / len(batch))
            t.backward(term)
            total += term.item()
        assert abs(loss.item() - total) <= 1e-12 * total
        for name, v in params.named_values():
            err = np.abs(batched[name] - v.grad).max()
            assert err <= 1e-12 * np.abs(v.grad).max(), f"{name}: {err:g}"

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            predict(Tape(), [], fresh_params(), SMALL)

    @pytest.mark.parametrize("dropout", [False, True], ids=["inference", "dropout"])
    def test_equals_the_composed_pass(self, dropout):
        # Probabilities bit for bit, every parameter gradient to rounding:
        # only the order of some sums differs (mu and sigma sum over the
        # reached edges, not over all of them).
        config = ModelConfig(num_gat_layers=3, gat_dim=12, fc_dims=(10, 7, 1), dropout_rate=0.3)
        batch = mixed_batch() + [pocket_sample(300, seed=15)]
        labels = [k % 2 for k in range(len(batch))]
        params = fresh_params(config, seed=15)
        runs = []
        for forward in (predict, composed_predict):
            params.zero_grad()
            t = Tape()
            out = forward(t, batch, params, config, rng=np.random.default_rng(16) if dropout else None)
            t.backward(mean_bce(t, out, labels))
            runs.append((out.data, {name: v.grad for name, v in params.named_values()}))
        (out, grads), (ref_out, ref_grads) = runs
        assert np.array_equal(out, ref_out)
        for name, ref in ref_grads.items():
            err = np.abs(grads[name] - ref).max()
            assert err <= 1e-12 * np.abs(ref).max(), f"{name}: {err:g}"


def test_paper_pass_of_sixteen_train_samples_records_26_nodes():
    # 2 for sigma, 1 for A2, 1 embedding, 4 layers and 4 dropouts, 1 pooling,
    # 3 dense layers with 2 ReLUs and 2 dropouts, 1 sigmoid, 5 for the loss.
    batch = [build_sample(prune_protein(r)) for r in generate_corpus(16, seed=502)]
    params = fresh_params(ModelConfig(), seed=17)
    t = Tape()
    loss = mean_bce(t, predict(t, batch, params, ModelConfig(), rng=np.random.default_rng(18)),
                    [s.label for s in batch])
    assert len(t) == 26
    t.backward(loss)


class TestScore:
    """``score`` runs ``predict`` on constant views of the weights, so its
    tape records nothing and it holds about one layer's values at a time."""

    @pytest.mark.parametrize("make", [lambda: pocket_sample(300, seed=31), lambda: pocket_sample(600, seed=32),
                                      lambda: build_sample(prune_protein(generate_corpus(1, seed=33)[0]))],
                             ids=["pocket300", "pocket600", "train_size"])
    def test_equals_predict_on_the_parameters_bit_for_bit(self, make):
        s = make()
        params = fresh_params(ModelConfig(), seed=34)
        assert score(s, params, ModelConfig()) == predict(Tape(), [s], params, ModelConfig()).item()

    def test_pocket_peak_memory_is_about_one_layer(self):
        # 347 of 481 atoms reached, about a pruned pocket's reach: a score
        # peaks at about 1.8 MB, the same pass recorded on a tape at 6.9 MB
        s = ligand_in_a_shell(60, seed=35)
        assert 300 <= len(s.reach[0]) <= 400
        params = fresh_params(ModelConfig(), seed=36)
        score(s, params, ModelConfig())  # builds and caches the sample's reach
        tracemalloc.start()
        try:
            score(s, params, ModelConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_pocket_peak_memory_is_no_higher_than_the_composed_pass(self):
        # A score records nothing, so the fused layer drops x'E, which only
        # its backward rule reads, as soon as the scores are made.
        s = pocket_sample(600, seed=35)
        params = fresh_params(ModelConfig(), seed=36)
        peaks = {}
        for name, run in (("fused", score), ("composed", composed_score)):
            run(s, params, ModelConfig())  # builds and caches the sample's edge list and reach
            tracemalloc.start()
            try:
                run(s, params, ModelConfig())
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["fused"] <= peaks["composed"], peaks
        assert score(s, params, ModelConfig()) == composed_score(s, params, ModelConfig())

    def test_uint8_features_score_bit_identical_to_float64(self, tmp_path):
        samples = [pocket_sample(300, seed=38), pocket_sample(600, seed=39)]
        samples += [build_sample(prune_protein(r)) for r in generate_corpus(4, seed=40)]
        write_cache(samples, tmp_path / "graphs.cache")
        narrow = read_cache(tmp_path / "graphs.cache")
        wide = [dataclasses.replace(s, features=s.features.astype(np.float64)) for s in narrow]
        params = fresh_params(ModelConfig(), seed=41)
        for s, w in zip(narrow, wide):
            assert s.features.dtype == np.uint8
            assert score(s, params, ModelConfig()) == score(w, params, ModelConfig())
        batch = predict(Tape(), narrow[2:], params, ModelConfig()).data
        assert np.array_equal(batch, predict(Tape(), wide[2:], params, ModelConfig()).data)

    def test_constants_share_the_parameters_arrays(self):
        params = fresh_params(ModelConfig(), seed=37)
        views = params.constants()
        assert [n for n, _ in views.named_values()] == [n for n, _ in params.named_values()]
        for (name, p), (_, c) in zip(params.named_values(), views.named_values()):
            assert c is not p and np.shares_memory(c.data, p.data), name
            assert p.requires_grad and not c.requires_grad, name

    def test_records_no_tape_node(self):
        s = sample_with_contact(2.8)
        t = Tape()
        out = predict(t, [s], fresh_params().constants(), SMALL)
        assert len(t) == 0 and not out.requires_grad and out._parents == ()


def test_dropout_masks_equal_per_site_draws():
    config = ModelConfig(num_gat_layers=3, gat_dim=8, fc_dims=(6, 5, 1), dropout_rate=0.3)
    batch = mixed_batch() + [pocket_sample(300, seed=19)]
    # reference: one draw per site, sample by sample, in predict's order,
    # each attention layer's mask cut to the sample's reached rows
    rng = np.random.default_rng(15)
    per_sample = [
        [dropout_mask((s.num_atoms, 8), 0.3, rng)[s.reach[0]] for _ in range(3)]
        + [dropout_mask((1, d), 0.3, rng) for d in (6, 5)]
        for s in batch
    ]
    expected = [np.concatenate(site) for site in zip(*per_sample)]
    rng = np.random.default_rng(15)
    masks = _dropout_masks(batch, config, rng)
    reached = sum(len(s.reach[0]) for s in batch)
    assert reached < sum(s.num_atoms for s in batch)
    assert [m.shape for m in masks] == [(reached, 8)] * 3 + [(len(batch), 6), (len(batch), 5)]
    for got, want in zip(masks, expected, strict=True):
        np.testing.assert_array_equal(got, want)
    drawn = sum(3 * s.num_atoms * 8 + 6 + 5 for s in batch)  # every row drawn, reached or not
    assert rng.random() == np.random.default_rng(15).random(drawn + 1)[-1]


def test_training_and_scoring_build_no_full_edge_list():
    # The layers run on each sample's reach; only internals read the full edge list.
    config = ModelConfig(num_gat_layers=2, gat_dim=8, fc_dims=(6, 1), dropout_rate=0.3)
    batch = mixed_batch() + [pocket_sample(300, seed=20)]
    params = fresh_params(config, seed=21)
    t = Tape()
    t.backward(mean_bce(t, predict(t, batch, params, config, rng=np.random.default_rng(22)),
                        [k % 2 for k in range(len(batch))]))
    score(batch[-1], params, config)
    assert not any("edges" in vars(s) for s in batch)
    internals = {}
    predict(Tape(), batch[:2], params, config, internals=internals)
    assert internals["a2"].shape == (sum(len(s.edges.src) for s in batch[:2]), 1)


class TestGradientsThroughModel:
    def test_mu_sigma_end_to_end(self):
        s = sample_with_contact(3.4, extra_protein=[(0, 2.8, 2.8)])
        params = fresh_params(seed=8)
        cfg = SMALL

        def forward():
            t = Tape()
            return bce_loss(t, predict(t, [s], params, cfg), 1).item()

        t = Tape()
        loss = bce_loss(t, predict(t, [s], params, cfg), 1)
        params.zero_grad()
        t.backward(loss)
        check_gradients(forward, [params.mu, params.sigma_raw], tol=1e-4)
        assert abs(params.mu.grad[0, 0]) > 0  # contacts exist, so mu must matter

    def test_mu_gradient_zero_without_contacts(self):
        s = no_contact_sample()
        params = fresh_params()
        t = Tape()
        loss = bce_loss(t, predict(t, [s], params, SMALL), 0)
        params.zero_grad()
        t.backward(loss)
        assert params.mu.grad is None or np.all(params.mu.grad == 0.0)


class TestCheckpoint:
    def roundtrip(self, tmp_path):
        params = fresh_params()
        path = tmp_path / "model.ckpt"
        save_params(path, params, SMALL, iteration=1234)
        return params, path

    def test_bitwise_round_trip(self, tmp_path):
        params, path = self.roundtrip(tmp_path)
        loaded, config, iteration = load_params(path)
        assert iteration == 1234
        assert config == SMALL
        for (name_a, a), (name_b, b) in zip(params.named_values(), loaded.named_values()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data), name_a

    def test_save_is_deterministic(self, tmp_path):
        params = fresh_params()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_params(p1, params, SMALL, 7)
        save_params(p2, params, SMALL, 7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_equal_the_layout_built_field_by_field(self, tmp_path):
        config = ModelConfig()
        params = fresh_params(config, seed=3)
        path = tmp_path / "paper.ckpt"
        save_params(path, params, config, iteration=150_000)
        body = struct.pack("<IIII", 1, config.num_gat_layers, config.gat_dim, 56)
        body += struct.pack("<d", config.dropout_rate)
        body += struct.pack("<I", len(config.fc_dims))
        body += struct.pack(f"<{len(config.fc_dims)}I", *config.fc_dims)
        body += struct.pack("<Q", 150_000)
        tensors = params.values()
        body += struct.pack("<I", len(tensors))
        for v in tensors:
            body += struct.pack("<II", v.rows, v.cols)
            body += v.data.astype("<f8").tobytes()
        assert path.read_bytes() == CHECKPOINT_MAGIC + body + struct.pack("<I", zlib.crc32(body))

    def test_corruption_detected(self, tmp_path):
        _, path = self.roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_params(path)

    def test_version_mismatch_detected(self, tmp_path):
        import struct
        import zlib

        _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes()
        body = bytearray(blob[len(CHECKPOINT_MAGIC) : -4])
        body[0:4] = struct.pack("<I", 99)
        path.write_bytes(CHECKPOINT_MAGIC + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(CheckpointError, match="version"):
            load_params(path)

    def test_non_finite_tensor_rejected_on_load(self, tmp_path):
        import struct
        import zlib

        _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes()
        body = bytearray(blob[len(CHECKPOINT_MAGIC) : -4])
        body[-8:] = struct.pack("<d", np.nan)  # last value of the last tensor
        path.write_bytes(CHECKPOINT_MAGIC + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_params(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda body: body[:-1], "checkpoint truncated"),
            (lambda body: body + b"\0", "checkpoint has trailing bytes"),
            # the input width field, after version, num_gat_layers and gat_dim
            (lambda body: body[:12] + struct.pack("<I", 40) + body[16:],
             "invalid stored config (input_dim must be 56, got 40)"),
            # the embedding's stored shape (56, 8) written as (8, 56), after the
            # 48-byte header of SMALL (two fc widths)
            (lambda body: body[:48] + struct.pack("<II", 8, 56) + body[56:],
             "tensor shape (8,56) does not match config shape (56, 8)"),
        ],
    )
    def test_checksummed_body_fault_rejected(self, tmp_path, edit, message):
        _, path = self.roundtrip(tmp_path)
        body = path.read_bytes()[len(CHECKPOINT_MAGIC):-4]
        path.write_bytes(CHECKPOINT_MAGIC + edit(body) + struct.pack("<I", zlib.crc32(edit(body))))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
            load_params(path)

    def test_non_finite_tensor_refused_on_save(self, tmp_path):
        params, path = self.roundtrip(tmp_path)
        before = path.read_bytes()
        params.mu.data[0, 0] = np.inf
        with pytest.raises(NumericError, match="mu"):
            save_params(path, params, SMALL, iteration=1235)
        assert path.read_bytes() == before

    def test_empty_fc_dims_rejected(self):
        with pytest.raises(ValueError, match="single unit"):
            ModelConfig(fc_dims=())

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"garbage bytes here")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_params(path)

    @pytest.mark.parametrize("num_layers, n_tensors", [(200_000, 0), (10**9, 4 * 10**9 + 7)])
    def test_huge_layer_count_refused_before_shapes_are_built(self, tmp_path, monkeypatch, num_layers, n_tensors):
        # a CRC-valid header-only checkpoint storing an enormous num_gat_layers
        import struct

        from molgat import model
        from molgat.fileio import write_checked

        def no_shapes(config):
            raise AssertionError("per-layer shapes built for an unreadable checkpoint")

        monkeypatch.setattr(model, "_expected_shapes", no_shapes)
        body = struct.pack("<IIII", 1, num_layers, 8, 56) + struct.pack("<d", 0.3)
        body += struct.pack("<III", 2, 6, 1) + struct.pack("<Q", 0) + struct.pack("<I", n_tensors)
        path = tmp_path / "huge.ckpt"
        write_checked(path, CHECKPOINT_MAGIC, body)
        assert path.stat().st_size == 60
        with pytest.raises(CheckpointError, match="huge.ckpt"):
            load_params(path)

    def test_loaded_params_produce_identical_scores(self, tmp_path):
        params, path = self.roundtrip(tmp_path)
        loaded, config, _ = load_params(path)
        s = sample_with_contact(3.1)
        assert score(s, params, SMALL) == score(s, loaded, config)
