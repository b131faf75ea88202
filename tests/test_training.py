import dataclasses
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from molgat import training
from molgat.autodiff import Tape, constant, parameter
from molgat.errors import DataError, NumericError
from molgat.graphs import build_sample, prune_protein
from molgat.metrics import auroc
from molgat.model import ModelConfig, ModelParams, load_params, predict, save_params, score
from molgat.synthetic import generate_corpus
from molgat.training import (
    Adam,
    TrainConfig,
    balanced_batches,
    mean_bce,
    split_by_protein,
    train,
)

from helpers import bce_loss, log_rows, num_parameters, pocket_sample

TINY_MODEL = ModelConfig(num_gat_layers=2, gat_dim=8, fc_dims=(8, 1), dropout_rate=0.2)


@pytest.fixture(scope="module")
def pools():
    records = generate_corpus(80, seed=21)
    samples = [build_sample(prune_protein(r)) for r in records]
    out = {}
    for s in samples:
        out.setdefault(s.category, []).append(s)
    assert set(out) == {"dude_active", "dude_inactive", "pdbbind_positive", "pdbbind_negative"}
    return out


class TestBceLoss:
    def test_half_probability_gives_ln2(self):
        t = Tape()
        loss = bce_loss(t, constant([[0.5]]), 1)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct_prediction_near_zero(self):
        t = Tape()
        assert bce_loss(t, constant([[1.0 - 1e-9]]), 1).item() == pytest.approx(0.0, abs=1e-8)
        assert bce_loss(t, constant([[1e-9]]), 0).item() == pytest.approx(0.0, abs=1e-8)

    def test_batch_mean_matches_hand_sum(self):
        preds = [0.9, 0.2, 0.6, 0.35]
        labels = [1, 0, 0, 1]
        t = Tape()
        loss = mean_bce(t, constant(np.array(preds)[:, None]), labels)
        expected = -np.mean(
            [y * np.log(p) + (1 - y) * np.log(1 - p) for p, y in zip(preds, labels)]
        )
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_column_mean_equals_the_mean_of_per_row_losses(self):
        probs = np.array([[0.9], [0.2], [0.6], [0.35], [1e-13]])  # the last is clamped
        labels = [1, 0, 0, 1, 1]
        column = constant(probs)
        column.requires_grad = True
        t = Tape()
        loss = mean_bce(t, column, labels)
        t.backward(loss)
        rows, grads = [], []
        for p, y in zip(probs[:, 0], labels):
            leaf = constant([[p]])
            leaf.requires_grad = True
            t = Tape()
            row = bce_loss(t, leaf, y)
            t.backward(row)
            rows.append(row.item())
            grads.append(leaf.grad[0, 0] / len(labels))
        assert loss.item() == pytest.approx(sum(rows) / len(rows), rel=1e-15)
        np.testing.assert_allclose(column.grad[:, 0], grads, rtol=1e-15, atol=0)

    def test_column_and_labels_must_agree(self):
        with pytest.raises(DataError):
            mean_bce(Tape(), constant(np.full((3, 1), 0.5)), [1, 0])
        with pytest.raises(DataError):
            mean_bce(Tape(), constant(np.full((2, 1), 0.5)), [1, 2])

    @pytest.mark.parametrize("label, nodes", [(1, 2), (0, 3)])
    def test_records_only_the_labelled_branch(self, label, nodes):
        t = Tape()
        loss = bce_loss(t, parameter([[0.3]]), label)
        assert len(t) == nodes  # log, scale; for label 0 also 1 - p
        assert loss.item() == -np.log(0.3 if label else 1.0 - 0.3)

    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            bce_loss(Tape(), constant([[0.5]]), 2)

    def test_gradient_direction(self):
        t = Tape()
        p = constant([[0.3]])
        p.requires_grad = True
        loss = bce_loss(t, p, 1)
        t.backward(loss)
        assert p.grad[0, 0] < 0  # raising the probability lowers the loss


class TestBalancedBatches:
    def test_batch_composition(self, pools):
        cfg = TrainConfig(batch_size=32, iterations=10, checkpoint_every=5)
        batch = next(balanced_batches(pools, cfg, np.random.default_rng(0)))
        assert len(batch) == 32
        counts = {}
        for s in batch:
            counts[s.category] = counts.get(s.category, 0) + 1
        assert counts == {c: 8 for c in pools}

    def test_same_seed_same_sequence(self, pools):
        cfg = TrainConfig(batch_size=8, iterations=10, checkpoint_every=5)
        a = balanced_batches(pools, cfg, np.random.default_rng(42))
        b = balanced_batches(pools, cfg, np.random.default_rng(42))
        for _ in range(20):
            assert [s.complex_id for s in next(a)] == [s.complex_id for s in next(b)]

    def test_draws_uniform_within_pool(self, pools):
        cfg = TrainConfig(batch_size=32, iterations=10, checkpoint_every=5)
        stream = balanced_batches(pools, cfg, np.random.default_rng(7))
        counts = {name: {} for name in pools}
        for _ in range(1000):
            for s in next(stream):
                counts[s.category][s.complex_id] = counts[s.category].get(s.complex_id, 0) + 1
        for name, pool in pools.items():
            observed = np.array([counts[name].get(s.complex_id, 0) for s in pool], dtype=float)
            expected = observed.sum() / len(pool)
            chi2 = ((observed - expected) ** 2 / expected).sum()
            p_value = stats.chi2.sf(chi2, df=len(pool) - 1)
            assert p_value > 0.01, f"{name}: draws not uniform (p={p_value:g})"

    def test_empty_pool_error_names_category(self, pools):
        broken = dict(pools)
        broken["pdbbind_positive"] = []
        cfg = TrainConfig(batch_size=8, iterations=1, checkpoint_every=1)
        with pytest.raises(DataError, match="pdbbind_positive"):
            next(balanced_batches(broken, cfg, np.random.default_rng(0)))

    def test_batch_size_not_divisible_by_pool_count_rejected(self, pools):
        cfg = TrainConfig(batch_size=30, iterations=1, checkpoint_every=1)
        with pytest.raises(DataError, match="batch_size 30 .* 4 category pools"):
            next(balanced_batches(pools, cfg, np.random.default_rng(0)))


class TestAdamAndSteps:
    def test_single_step_decreases_loss(self, pools):
        sample = pools["dude_active"][0]
        params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(0))
        adam = Adam(learning_rate=1e-5)

        def loss_value():
            t = Tape()
            return bce_loss(t, predict(t, [sample], params, TINY_MODEL), sample.label)

        before = loss_value().item()
        t = Tape()
        loss = bce_loss(t, predict(t, [sample], params, TINY_MODEL), sample.label)
        params.zero_grad()
        t.backward(loss)
        adam.step(params.values())
        assert loss_value().item() < before

    def test_sigma_positive_after_steps(self, pools):
        params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(1))
        adam = Adam(learning_rate=0.5)  # aggressive on purpose
        sample = pools["dude_inactive"][0]
        for _ in range(25):
            t = Tape()
            loss = bce_loss(t, predict(t, [sample], params, TINY_MODEL), sample.label)
            params.zero_grad()
            t.backward(loss)
            adam.step(params.values())
            assert params.sigma_value() > 0

    def test_mu_updates_only_with_contacts(self, pools, tmp_path):
        # every synthetic complex here has contacts; move the protein 100 A
        # away to fake a contact-free batch
        import dataclasses

        def far_protein(s):
            coords = s.coords.copy()
            coords[~s.is_ligand] += 100.0
            return dataclasses.replace(s, coords=coords)

        contact_free = {name: [far_protein(s) for s in pool[:2]] for name, pool in pools.items()}
        assert all(s.inter_mask.sum() == 0 for pool in contact_free.values() for s in pool)
        with_contacts = {name: pool[:2] for name, pool in pools.items()}
        cfg = TrainConfig(batch_size=4, iterations=1, learning_rate=1e-3, seed=3, checkpoint_every=1)

        def run(p, tag):
            params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(9))
            mu_before = params.mu_value()
            train(p, [], TINY_MODEL, cfg, tmp_path / tag, params=params)
            return mu_before, params.mu_value()

        before, after = run(contact_free, "nocontact")
        assert before == after
        before, after = run(with_contacts, "contact")
        assert before != after


class TestSplitByProtein:
    def test_no_protein_straddles_split(self, pools):
        samples = [s for pool in pools.values() for s in pool]
        train_part, val_part = split_by_protein(samples, 0.25, seed=0)
        assert len(train_part) + len(val_part) == len(samples)
        assert {s.protein_id for s in train_part}.isdisjoint({s.protein_id for s in val_part})
        assert val_part  # 25% of proteins held out

    def test_zero_fraction_keeps_everything(self, pools):
        samples = [s for pool in pools.values() for s in pool]
        train_part, val_part = split_by_protein(samples, 0.0, seed=0)
        assert train_part == samples and val_part == []

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -0.1, 1.0])
    def test_fraction_outside_unit_interval_rejected(self, pools, fraction):
        samples = [s for pool in pools.values() for s in pool]
        with pytest.raises(ValueError, match="val_fraction"):
            split_by_protein(samples, fraction, seed=0)


class _AdamById:
    """Adam with its moments keyed by ``id()`` of each value: the reference
    for ``Adam``, which keeps them as lists in the order of the values."""

    def __init__(self, learning_rate):
        self.lr = learning_rate
        self.t = 0
        self._m = {}
        self._v = {}

    def step(self, values):
        self.t += 1
        bc1 = 1.0 - training.ADAM_BETA1**self.t
        bc2 = 1.0 - training.ADAM_BETA2**self.t
        for val in values:
            g = val.grad if val.grad is not None else np.zeros_like(val.data)
            m = self._m.setdefault(id(val), np.zeros_like(val.data))
            v = self._v.setdefault(id(val), np.zeros_like(val.data))
            m *= training.ADAM_BETA1
            m += (1.0 - training.ADAM_BETA1) * g
            v *= training.ADAM_BETA2
            v += (1.0 - training.ADAM_BETA2) * g * g
            val.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + training.ADAM_EPS)


class TestTrainLoop:
    def test_thirty_steps_equal_the_id_keyed_adam(self, pools, tmp_path, monkeypatch):
        cfg = TrainConfig(batch_size=8, iterations=30, learning_rate=1e-3, seed=17, checkpoint_every=5)
        _, val = split_by_protein([s for pool in pools.values() for s in pool], 0.2, seed=17)
        train(pools, val, TINY_MODEL, cfg, tmp_path / "lists")
        monkeypatch.setattr(training, "Adam", _AdamById)
        train(pools, val, TINY_MODEL, cfg, tmp_path / "by_id")
        for name in ("latest.ckpt", "best.ckpt"):
            assert (tmp_path / "lists" / name).read_bytes() == (tmp_path / "by_id" / name).read_bytes()

        def log(tag):
            text = (tmp_path / tag / "train_log.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in text]  # wall_time is the last column

        assert log("lists") == log("by_id") and len(log("lists")) == 7

    def test_smoke_run_writes_artifacts(self, pools, tmp_path):
        cfg = TrainConfig(batch_size=8, iterations=20, learning_rate=1e-3, seed=5, checkpoint_every=10)
        samples = [s for pool in pools.values() for s in pool]
        _, val = split_by_protein(samples, 0.2, seed=5)
        result = train(pools, val, TINY_MODEL, cfg, tmp_path / "run")
        assert (tmp_path / "run" / "latest.ckpt").exists()
        assert (tmp_path / "run" / "train_log.csv").exists()
        params, config, iteration = load_params(result.latest_path)
        assert iteration == 20 and config == TINY_MODEL
        assert len(log_rows(result)) == 2
        header = (tmp_path / "run" / "train_log.csv").read_text().splitlines()[0]
        assert header == "iteration,train_loss,val_auroc,mu,sigma,wall_time"

    def test_seed_reproduces_loss_curve_bitwise(self, pools, tmp_path):
        cfg = TrainConfig(batch_size=8, iterations=12, learning_rate=1e-3, seed=11, checkpoint_every=3)

        def run(tag):
            return train(pools, [], TINY_MODEL, cfg, tmp_path / tag)

        r1, r2 = run("a"), run("b")
        assert [row["train_loss"] for row in log_rows(r1)] == [
            row["train_loss"] for row in log_rows(r2)
        ]
        ck1 = (tmp_path / "a" / "latest.ckpt").read_bytes()
        ck2 = (tmp_path / "b" / "latest.ckpt").read_bytes()
        assert ck1 == ck2

    def test_losses_match_values_recorded_before_batching(self, pools, tmp_path):
        # Recorded from the same run when each step scored its samples with one
        # forward pass per sample, drawing their dropout masks as they went.
        model = ModelConfig(num_gat_layers=4, gat_dim=12, fc_dims=(10, 6, 1), dropout_rate=0.3)
        cfg = TrainConfig(batch_size=8, iterations=3, learning_rate=1e-3, seed=13, checkpoint_every=1)
        result = train(pools, [], model, cfg, tmp_path / "run")
        losses = [float(row["train_loss"]) for row in log_rows(result)]
        expected = [0.708748586046627, 0.6746310450356722, 0.6994955194162986]
        np.testing.assert_allclose(losses, expected, rtol=1e-9, atol=0)

    def test_edges_built_once_per_sample_with_identical_trajectory(self, pools, tmp_path, monkeypatch):
        import dataclasses

        from molgat.graphs import GraphSample

        # fresh samples: the module's pools may already hold edges built by other tests
        pools = {name: [dataclasses.replace(s) for s in pool] for name, pool in pools.items()}
        cfg = TrainConfig(batch_size=8, iterations=12, learning_rate=1e-3, seed=11, checkpoint_every=3)
        _, val = split_by_protein([s for pool in pools.values() for s in pool], 0.2, seed=11)
        builds = []
        build = GraphSample.edges.func

        def counted_edges(sample):
            builds.append(id(sample))
            return build(sample)

        monkeypatch.setattr(GraphSample.edges, "func", counted_edges)
        kept = train(pools, val, TINY_MODEL, cfg, tmp_path / "kept")
        assert len(builds) == len(set(builds))  # each sample at most once
        assert {id(s) for s in val} <= set(builds)
        built_once = set(builds)

        # the same run with every draw and every validation score rebuilding its edges
        monkeypatch.setattr(GraphSample, "edges", property(counted_edges))
        builds.clear()
        rebuilt = train(pools, val, TINY_MODEL, cfg, tmp_path / "rebuilt")
        assert set(builds) == built_once and len(builds) > 12 * 8
        for key in ("train_loss", "val_auroc", "mu", "sigma"):
            assert [r[key] for r in log_rows(kept)] == [r[key] for r in log_rows(rebuilt)]
        ck_kept = (tmp_path / "kept" / "latest.ckpt").read_bytes()
        assert ck_kept == (tmp_path / "rebuilt" / "latest.ckpt").read_bytes()

    def test_unlabeled_sample_rejected(self, pools, tmp_path):
        import dataclasses

        bad = {name: list(pool) for name, pool in pools.items()}
        bad["dude_active"] = [dataclasses.replace(bad["dude_active"][0], label=None)]
        cfg = TrainConfig(batch_size=4, iterations=1, checkpoint_every=1)
        with pytest.raises(DataError, match="no label"):
            train(bad, [], TINY_MODEL, cfg, tmp_path / "run")

    def test_numeric_failure_aborts_and_keeps_checkpoint(self, pools, tmp_path):
        import dataclasses

        cfg = TrainConfig(batch_size=4, iterations=5, learning_rate=1e-3, seed=2, checkpoint_every=1)
        good = {name: pool[:2] for name, pool in pools.items()}
        train(good, [], TINY_MODEL, cfg, tmp_path / "run")

        poisoned = {
            name: [dataclasses.replace(pool[0], features=np.full(pool[0].features.shape, np.nan))]
            for name, pool in pools.items()
        }
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            train(poisoned, [], TINY_MODEL, cfg, tmp_path / "run")
        # the checkpoint from the good run is intact and loadable
        params, _, iteration = load_params(tmp_path / "run" / "latest.ckpt")
        assert iteration == 5
        assert all(np.isfinite(v.data).all() for v in params.values())

    @pytest.mark.parametrize("poison_from", [1, 2])
    def test_nan_gradient_aborts_before_adam(self, pools, tmp_path, monkeypatch, poison_from):
        cfg = TrainConfig(batch_size=4, iterations=3, learning_rate=1e-3, seed=2, checkpoint_every=1)
        params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(0))
        calls = []
        real_backward = Tape.backward

        def poisoned_backward(tape, loss):
            real_backward(tape, loss)
            calls.append(1)
            if len(calls) >= poison_from:
                params.mu.grad[0, 0] = np.nan

        monkeypatch.setattr(Tape, "backward", poisoned_backward)
        latest = tmp_path / "run" / "latest.ckpt"
        with pytest.raises(NumericError, match="gradient of mu at iteration"):
            train({n: p[:2] for n, p in pools.items()}, [], TINY_MODEL, cfg, tmp_path / "run", params=params)
        assert np.isfinite(params.mu.data).all()  # Adam never saw the NaN
        if poison_from == 1:
            assert not latest.exists()
        else:
            saved, _, iteration = load_params(latest)
            assert iteration == 1
            assert all(np.isfinite(v.data).all() for v in saved.values())

    def test_parameter_count_constant(self, pools, tmp_path):
        cfg = TrainConfig(batch_size=4, iterations=5, learning_rate=1e-3, seed=0, checkpoint_every=5)
        params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(0))
        n_before = num_parameters(params)
        train(pools, [], TINY_MODEL, cfg, tmp_path / "run", params=params)
        assert num_parameters(params) == n_before

    def test_best_checkpoint_written_with_validation(self, pools, tmp_path):
        cfg = TrainConfig(batch_size=8, iterations=10, learning_rate=1e-3, seed=6, checkpoint_every=5)
        samples = [s for pool in pools.values() for s in pool]
        _, val = split_by_protein(samples, 0.3, seed=6)
        result = train(pools, val, TINY_MODEL, cfg, tmp_path / "run")
        assert result.best_path is not None
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert result.best_val_auroc is not None


class TestValidation:
    """``_validation_auroc`` scores the labelled samples in chunks of at most
    ``PASS_ATOMS`` atoms, one forward pass on the constant weights per chunk."""

    @staticmethod
    def scores_seen(monkeypatch):
        seen = []

        def recording_auroc(scores, labels):
            seen.append(np.asarray(scores))
            return auroc(scores, labels)

        monkeypatch.setattr(training, "auroc", recording_auroc)
        return seen

    def test_train_size_scores_equal_per_sample_scores(self, pools, monkeypatch):
        samples = [s for pool in pools.values() for s in pool][:23]
        params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(3))
        seen = self.scores_seen(monkeypatch)
        training._validation_auroc(samples, params, TINY_MODEL)
        alone = [score(s, params, TINY_MODEL) for s in samples]
        np.testing.assert_allclose(seen[0], alone, rtol=0, atol=1e-12)

    def test_pocket_scores_equal_per_sample_scores(self, monkeypatch):
        config = ModelConfig()
        # chunks [300, 300] and [600]: one merged pair and one pocket alone
        pockets = [pocket_sample(300, seed=71), pocket_sample(300, seed=73), pocket_sample(600, seed=72)]
        samples = [dataclasses.replace(s, label=k % 2) for k, s in enumerate(pockets)]
        params = ModelParams.initialize(config, np.random.default_rng(4))
        seen = self.scores_seen(monkeypatch)
        training._validation_auroc(samples, params, config)
        alone = [score(s, params, config) for s in samples]
        np.testing.assert_allclose(seen[0], alone, rtol=0, atol=1e-12)

    def test_chunks_follow_the_atom_rule(self, pools, tmp_path, monkeypatch):
        samples = [s for pool in pools.values() for s in pool]
        val = samples[:70]
        assert len({s.label for s in val}) == 2
        chunks = []

        def recording_predict(tape, batch, params, config, rng=None, internals=None):
            if rng is None:
                chunks.append(list(batch))
            return predict(tape, batch, params, config, rng=rng, internals=internals)

        monkeypatch.setattr(training, "predict", recording_predict)
        cfg = TrainConfig(batch_size=8, iterations=1, learning_rate=1e-3, seed=0, checkpoint_every=1)
        train(pools, val, TINY_MODEL, cfg, tmp_path / "run")
        # the samples in order, each chunk within the bound and full: the next
        # chunk's first sample would not have fitted
        assert [s for chunk in chunks for s in chunk] == val
        atoms = [sum(s.num_atoms for s in chunk) for chunk in chunks]
        assert max(atoms) <= training.PASS_ATOMS
        assert all(a + nxt[0].num_atoms > training.PASS_ATOMS for a, nxt in zip(atoms, chunks[1:]))
        assert len(chunks) == 5  # 70 samples of 26-52 atoms; batch_size plays no part

    def test_leaves_gradients_and_adam_state_untouched(self, pools):
        samples = [s for pool in pools.values() for s in pool]
        params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(5))
        adam = Adam(1e-3)
        t = Tape()
        batch = samples[:8]
        t.backward(mean_bce(t, predict(t, batch, params, TINY_MODEL), [s.label for s in batch]))
        adam.step(params.values())

        def state():
            return (
                [(v.data.copy(), v.grad.copy()) for v in params.values()],
                adam.t,
                [m.copy() for m in adam._m],
                [v.copy() for v in adam._v],
            )

        before = state()
        assert np.isfinite(training._validation_auroc(samples[8:40], params, TINY_MODEL))
        after = state()
        for (data0, grad0), (data1, grad1) in zip(before[0], after[0]):
            np.testing.assert_array_equal(data0, data1)
            np.testing.assert_array_equal(grad0, grad1)
        assert before[1] == after[1]
        for moments0, moments1 in zip(before[2:], after[2:]):
            assert len(moments0) == len(moments1) == len(params.values())
            for m0, m1 in zip(moments0, moments1):
                np.testing.assert_array_equal(m0, m1)

    def test_one_class_or_empty_set_is_nan(self, pools):
        params = ModelParams.initialize(TINY_MODEL, np.random.default_rng(6))
        unlabeled = [dataclasses.replace(s, label=None) for s in pools["dude_inactive"][:3]]
        for val in ([], pools["dude_active"][:5], pools["dude_inactive"][:5] + unlabeled, unlabeled):
            assert np.isnan(training._validation_auroc(val, params, TINY_MODEL))


class TestPasses:
    """A step runs its batch in consecutive passes of at most ``PASS_ATOMS``
    atoms, each pass's mean BCE scaled by its share of the batch, and Adam
    steps once on the accumulated gradients."""

    @staticmethod
    def one_step(pools, tmp_path, monkeypatch, tag, model=TINY_MODEL, batch_size=32):
        """One training step: its logged loss, the gradients Adam stepped on,
        each dropout site's mask over the whole batch, the generator state
        after the step, and the samples of each training pass."""
        seen = {"grads": [], "keeps": [], "passes": [], "rng": []}
        real_step, real_dropout, real_predict = Adam.step, Tape.dropout, training.predict

        def step(adam, values):
            seen["grads"] = [None if v.grad is None else v.grad.copy() for v in values]
            seen["state"] = seen["rng"][0].bit_generator.state
            real_step(adam, values)

        def dropout(tape, a, keep):
            seen["keeps"].append(keep)
            return real_dropout(tape, a, keep)

        def recording_predict(tape, batch, params, config, rng=None, internals=None):
            if rng is not None:
                seen["passes"].append(list(batch))
                seen["rng"][:] = [rng]
            return real_predict(tape, batch, params, config, rng=rng, internals=internals)

        with monkeypatch.context() as m:
            m.setattr(Adam, "step", step)
            m.setattr(Tape, "dropout", dropout)
            m.setattr(training, "predict", recording_predict)
            cfg = TrainConfig(batch_size=batch_size, iterations=1, learning_rate=1e-3, seed=17)
            result = train(pools, [], model, cfg, tmp_path / tag)
        sites = model.num_gat_layers + len(model.fc_dims) - 1
        keeps = [np.concatenate(seen["keeps"][k::sites]) for k in range(sites)]
        return result.final_loss, seen["grads"], keeps, seen["state"], seen["passes"]

    def test_multi_pass_step_matches_one_pass_step(self, pools, tmp_path, monkeypatch):
        model = ModelConfig(num_gat_layers=3, gat_dim=12, fc_dims=(10, 6, 1), dropout_rate=0.3)
        loss, grads, keeps, state, passes = self.one_step(pools, tmp_path, monkeypatch, "passes", model)
        assert len(passes) > 1
        assert all(sum(s.num_atoms for s in p) <= training.PASS_ATOMS for p in passes)
        monkeypatch.setattr(training, "PASS_ATOMS", 10**9)
        loss1, grads1, keeps1, state1, passes1 = self.one_step(pools, tmp_path, monkeypatch, "one", model)
        assert len(passes1) == 1 and [id(s) for s in passes1[0]] == [id(s) for p in passes for s in p]
        assert loss == pytest.approx(loss1, rel=1e-15, abs=0)
        for g, g1 in zip(grads, grads1, strict=True):
            np.testing.assert_allclose(g, g1, rtol=1e-12, atol=1e-12 * np.abs(g1).max())
        for k, k1 in zip(keeps, keeps1, strict=True):
            np.testing.assert_array_equal(k, k1)
        assert state == state1

    def test_one_pass_batch_checkpoint_equals_the_one_pass_step(self, pools, tmp_path):
        # the step as it ran before passes: one forward and one backward pass
        # of the whole batch's mean BCE
        cfg = TrainConfig(batch_size=8, iterations=4, learning_rate=1e-3, seed=19, checkpoint_every=4)
        rng = np.random.default_rng(cfg.seed)
        params = ModelParams.initialize(TINY_MODEL, rng)
        batches, adam = balanced_batches(pools, cfg, rng), Adam(cfg.learning_rate)
        for _ in range(cfg.iterations):
            batch = next(batches)
            assert sum(s.num_atoms for s in batch) <= training.PASS_ATOMS
            tape = Tape()
            loss = mean_bce(tape, predict(tape, batch, params, TINY_MODEL, rng=rng), [s.label for s in batch])
            params.zero_grad()
            tape.backward(loss)
            adam.step(params.values())
        save_params(tmp_path / "reference.ckpt", params, TINY_MODEL, cfg.iterations)

        result = train(pools, [], TINY_MODEL, cfg, tmp_path / "run")
        assert result.final_loss == loss.item()
        assert (tmp_path / "run" / "latest.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()

    def test_atom_passes(self):
        samples = [SimpleNamespace(num_atoms=n) for n in (300, 300, 700, 40, 600, 41, 640, 1)]
        passes = training.atom_passes(samples)
        assert [[s.num_atoms for s in p] for p in passes] == [[300, 300], [700], [40, 600], [41], [640], [1]]
        assert [s for p in passes for s in p] == samples
        assert training.atom_passes([]) == []

    def test_sample_larger_than_the_bound_gets_a_pass_of_its_own(self, pools, tmp_path, monkeypatch):
        big = pocket_sample(training.PASS_ATOMS + 60, seed=81)
        big = dataclasses.replace(big, label=1, category="dude_active")
        mixed = {name: pool[:3] for name, pool in pools.items()}
        mixed["dude_active"] = [big]
        *_, passes = self.one_step(mixed, tmp_path, monkeypatch, "big", batch_size=8)
        ids = [[id(s) for s in p] for p in passes]
        assert sum(i.count(id(big)) for i in ids) == 2  # two draws from its pool of one
        assert all(i == [id(big)] for i in ids if id(big) in i)

    def test_no_tape_value_outgrows_the_bound(self, pools, tmp_path, monkeypatch):
        # per-atom values (more than one column) of every pass of a 32-sample
        # batch; E x 1 edge columns belong to the same bounded passes
        rows = []
        real_record = Tape.record

        def record(tape, data, parents, backward):
            out = real_record(tape, data, parents, backward)
            if out.requires_grad and out.cols > 1:
                rows.append(out.rows)
            return out

        monkeypatch.setattr(Tape, "record", record)
        *_, passes = self.one_step(pools, tmp_path, monkeypatch, "rows")
        largest = max(s.num_atoms for p in passes for s in p)
        assert sum(s.num_atoms for p in passes for s in p) > training.PASS_ATOMS
        assert max(rows) <= max(training.PASS_ATOMS, largest)

    def test_no_tape_node_outlives_its_step(self, pools, tmp_path, monkeypatch):
        # every recorded node's data, weakly: once a pass's backward is done
        # nothing holds its graph, not through Adam nor into the next step
        refs, passes = [], []
        real_record, real_step, real_predict = Tape.record, Adam.step, training.predict

        def record(tape, data, parents, backward):
            out = real_record(tape, data, parents, backward)
            if out.requires_grad:
                refs.append(weakref.ref(out.data))
            return out

        def step(adam, values):
            assert refs and all(r() is None for r in refs)
            real_step(adam, values)

        def counting_predict(tape, batch, *args, rng=None, **kwargs):
            passes.append(rng is not None)
            return real_predict(tape, batch, *args, rng=rng, **kwargs)

        monkeypatch.setattr(Tape, "record", record)
        monkeypatch.setattr(Adam, "step", step)
        monkeypatch.setattr(training, "predict", counting_predict)
        samples = [s for pool in pools.values() for s in pool]
        _, val = split_by_protein(samples, 0.2, seed=3)
        cfg = TrainConfig(batch_size=32, iterations=3, learning_rate=1e-3, seed=3, checkpoint_every=1)
        train(pools, val, TINY_MODEL, cfg, tmp_path / "run")
        assert passes.count(True) > 3  # more than one pass per step
        assert all(r() is None for r in refs)
