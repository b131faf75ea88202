"""Acceptance criteria, one test per criterion (A1-A7).

Each test prints a single PASS/FAIL line (visible with ``pytest -s``). The
learnability run (A2) dominates the runtime at a few minutes; everything else
finishes in seconds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from molgat.autodiff import Tape, constant, parameter
from molgat.chem import Atom, Bond, ComplexRecord
from molgat.gat import GatParams, gat_forward, init_gat_params
from molgat.graphs import Edges, build_sample, label_pose, prune_protein
from molgat.metrics import adjusted_logauc, auroc, re_score, topn_success, ScoredItem
from molgat.model import ModelConfig, ModelParams, load_params, materialize_a2, predict, score
from molgat.synthetic import generate_corpus
from molgat.training import TrainConfig, mean_bce, split_by_protein, train
from molgat.cli import main as cli_main

from composed import ComposedTape, full_edges
from helpers import (
    bce_loss,
    check_gradients,
    dense_of,
    dropout_mask,
    finite_difference_grads,
    max_relative_error,
)

GRAD_TOL = 1e-4
FD_H = 1e-5


@contextmanager
def criterion(name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL ({time.monotonic() - started:.1f}s)", flush=True)
        raise
    print(f"{name}: PASS ({time.monotonic() - started:.1f}s)", flush=True)


def small_complex(n_protein=5, seed=0):
    """A <=8-atom complex with real contacts for gradient work."""
    rng = np.random.default_rng(seed)
    atoms = [
        Atom("C", (0.0, 0.0, 0.0), True, 2, 0, 2, False),
        Atom("N", (1.4, 0.0, 0.0), True, 1, 0, 2, False),
        Atom("O", (0.0, 1.4, 0.0), True, 1, 0, 1, False),
    ]
    for k in range(n_protein):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pos = tuple(np.asarray(atoms[k % 3].position) + direction * rng.uniform(2.6, 4.6))
        atoms.append(Atom(("O", "N", "C", "S", "C")[k % 5], pos, False, 1, 0, 1, False))
    rec = ComplexRecord("accept", "prot", atoms, [Bond(0, 1), Bond(0, 2)])
    return build_sample(rec)


def make_pools(samples):
    pools = {}
    for s in samples:
        pools.setdefault(s.category, []).append(s)
    return pools


class TestA1GradientSuite:
    def test_a1(self):
        with criterion("A1 gradient suite"):
            started = time.monotonic()
            self.check_every_operation()
            self.check_full_model()
            assert time.monotonic() - started < 60.0

    def check_every_operation(self):
        rng = np.random.default_rng(1)

        def leaf(rows, cols, low=-1.0, high=1.0):
            return parameter(rng.uniform(low, high, size=(rows, cols)))

        mask = (rng.random((4, 4)) < 0.7).astype(float)
        np.fill_diagonal(mask, 1.0)
        edges = Edges.build(4, np.argwhere(np.triu(mask, k=1)))
        n_edges = len(edges.src)
        edge_mask = edges.dst != 3  # row 3 keeps only its self-loop
        edge_mask |= edges.src == edges.dst
        drop_keep = dropout_mask((4, 4), 0.3, np.random.default_rng(17))
        # bonds 0-1 and 2-3, contacts 0-2 and 1-3: both branches differ on every row
        layer_edges = Edges.build(4, [[0, 1], [2, 3]], [[0, 2], [1, 3]], [3.1, 4.2])

        def fused_layer(t, x, w, e, u, b, a2):
            return gat_forward(t, x, layer_edges, a2, GatParams(w=w, e=e, u=u, b=b), dropout=(drop_keep, 1.0 / 0.7))

        cases = {
            "matmul": (lambda t, a, b: t.matmul(a, b), [leaf(3, 4), leaf(4, 2)]),
            "add": (lambda t, a, b: t.add(a, b), [leaf(3, 3), leaf(3, 3)]),
            "sub": (lambda t, a, b: t.sub(a, b), [leaf(3, 3), leaf(3, 3)]),
            "mul": (lambda t, a, b: t.mul(a, b), [leaf(3, 3), leaf(3, 3)]),
            "scale": (lambda t, a: t.scale(a, -1.7), [leaf(3, 3)]),
            "exp": (lambda t, a: t.exp(a), [leaf(3, 3)]),
            "log": (lambda t, a: t.log(a), [leaf(3, 3, 0.3, 1.5)]),
            "sigmoid": (lambda t, a: t.sigmoid(a), [leaf(3, 3)]),
            "relu": (lambda t, a: t.relu(a), [leaf(3, 3, 0.05, 1.0)]),
            "softplus": (lambda t, a: t.softplus(a), [leaf(3, 3)]),
            "reciprocal": (lambda t, a: t.reciprocal(a), [leaf(3, 3, 0.3, 1.5)]),
            "transpose": (lambda t, a: t.transpose(a), [leaf(3, 4)]),
            "concat_cols": (lambda t, a, b: t.concat_cols(a, b), [leaf(3, 2), leaf(3, 3)]),
            "rowscale": (lambda t, c, m: t.rowscale(c, m), [leaf(4, 1), leaf(4, 3)]),
            "broadcast": (lambda t, s: t.broadcast(s, 3, 4), [leaf(1, 1)]),
            "sum_rows": (lambda t, a: t.sum_rows(a), [leaf(4, 3)]),
            "masked_softmax": (lambda t, a: t.masked_softmax(a, mask), [leaf(4, 4)]),
            "dropout": (lambda t, a: t.dropout(a, drop_keep, 1.0 / 0.7), [leaf(4, 4)]),
            "gat_forward with fused dropout": (
                fused_layer,
                [leaf(4, 4), leaf(4, 4), leaf(4, 4), leaf(8, 1), leaf(1, 1), leaf(len(layer_edges.src), 1, 0.2, 1.0)],
            ),
            "edge_dot": (lambda t, a, b: t.edge_dot(a, b, edges), [leaf(4, 3), leaf(4, 3)]),
            "take_rows": (lambda t, a: t.take_rows(a, edges.rev), [leaf(n_edges, 2)]),
            "take_rows (some rows)": (lambda t, a: t.take_rows(a, np.array([4, 0, 2])), [leaf(6, 2)]),
            "segment_softmax": (
                lambda t, a: t.segment_softmax(a, edges, edge_mask), [leaf(n_edges, 1)]
            ),
            "segment_sum": (
                lambda t, w, x: t.segment_sum(w, x, edges), [leaf(n_edges, 1), leaf(4, 3)]
            ),
        }
        for name, (build, leaves) in cases.items():

            def forward():
                t = ComposedTape()
                return t.sum_all(t.mul(build(t, *leaves), weights)).item()

            t = ComposedTape()
            probe = build(t, *leaves)
            weights = constant(np.random.default_rng(5).uniform(-1, 1, size=probe.shape))
            for l in leaves:
                l.zero_grad()
            t2 = ComposedTape()
            t2.backward(t2.sum_all(t2.mul(build(t2, *leaves), weights)))
            numeric = finite_difference_grads(forward, leaves, h=FD_H)
            for l, num in zip(leaves, numeric):
                err = max_relative_error(l.grad, num)
                assert err <= GRAD_TOL, f"{name}: gradient error {err:g}"

    def check_full_model(self):
        sample = small_complex()
        assert sample.num_atoms <= 8
        config = ModelConfig(num_gat_layers=2, gat_dim=6, fc_dims=(5, 1), dropout_rate=0.0)
        params = ModelParams.initialize(config, np.random.default_rng(2))
        leaves = [v for _, v in params.named_values()]

        def forward():
            t = Tape()
            return bce_loss(t, predict(t, [sample], params, config), 1).item()

        params.zero_grad()
        t = Tape()
        t.backward(bce_loss(t, predict(t, [sample], params, config), 1))
        numeric = finite_difference_grads(forward, leaves, h=FD_H)
        for (name, leaf), num in zip(params.named_values(), numeric):
            err = max_relative_error(leaf.grad if leaf.grad is not None else 0.0, num)
            assert err <= GRAD_TOL, f"full model {name}: gradient error {err:g}"
        # mu and sigma specifically must carry real gradient signal
        assert np.abs(params.mu.grad).max() > 0
        assert np.abs(params.sigma_raw.grad).max() > 0


class TestA2Learnability:
    def test_a2(self, tmp_path):
        with criterion("A2 learnability"):
            started = time.monotonic()
            train_records = generate_corpus(2000, seed=100, id_prefix="tr")
            test_records = generate_corpus(500, seed=101, id_prefix="te")
            train_samples = [build_sample(prune_protein(r)) for r in train_records]
            test_samples = [build_sample(prune_protein(r)) for r in test_records]
            assert len(train_samples) == 2000 and len(test_samples) == 500

            model_cfg = ModelConfig(
                num_gat_layers=2, gat_dim=24, fc_dims=(24, 1), dropout_rate=0.1
            )
            train_cfg = TrainConfig(
                batch_size=32,
                iterations=1200,
                learning_rate=1e-3,
                seed=7,
                checkpoint_every=1200,
            )
            result = train(make_pools(train_samples), [], model_cfg, train_cfg, tmp_path / "a2")
            params, config, _ = load_params(result.latest_path)
            scores = [score(s, params, config) for s in test_samples]
            labels = [s.label for s in test_samples]
            test_auroc = auroc(scores, labels)
            elapsed = time.monotonic() - started
            print(f"  test AUROC {test_auroc:.4f} in {elapsed:.0f}s", flush=True)
            assert test_auroc >= 0.90
            assert elapsed < 900.0


class TestA3OverfitSanity:
    def test_a3(self, tmp_path):
        with criterion("A3 overfit sanity"):
            records = generate_corpus(32, seed=200, id_prefix="of")
            samples = [build_sample(prune_protein(r)) for r in records]
            pools = make_pools(samples)
            assert len(pools) == 4
            model_cfg = ModelConfig(num_gat_layers=2, gat_dim=24, fc_dims=(24, 1), dropout_rate=0.0)
            train_cfg = TrainConfig(
                batch_size=32, iterations=400, learning_rate=1e-3, seed=3, checkpoint_every=400
            )
            params = ModelParams.initialize(model_cfg, np.random.default_rng(3))
            train(pools, [], model_cfg, train_cfg, tmp_path / "a3", params=params)
            t = Tape()
            final = mean_bce(t, predict(t, samples, params, model_cfg), [s.label for s in samples]).item()
            print(f"  mean BCE over the 32 fixed samples: {final:.5f}", flush=True)
            assert final < 0.05  # within 400 of the allowed 2000 iterations


class TestA4InvarianceSuite:
    def test_a4(self):
        with criterion("A4 invariance suite"):
            started = time.monotonic()
            config = ModelConfig(num_gat_layers=2, gat_dim=12, fc_dims=(8, 1), dropout_rate=0.3)
            params = ModelParams.initialize(config, np.random.default_rng(4))
            records = generate_corpus(6, seed=300, id_prefix="inv")
            samples = [build_sample(prune_protein(r)) for r in records]

            for s in samples:
                self.check_structural(s)
                self.check_permutation(s, params, config)
                self.check_gat_internals(s, params, config)
            self.check_rigid_motion(records[0], params, config)
            self.check_no_contact_identity(params, config)
            assert time.monotonic() - started < 60.0

    def check_structural(self, s):
        assert np.array_equal(s.a1, s.a1.T)
        assert np.all(np.diagonal(s.a1) == 1.0)
        assert np.array_equal(s.inter_mask, s.inter_mask.T)
        assert np.all(s.inter_mask * s.a1 == 0.0)
        assert np.all(s.dist[s.inter_mask == 1.0] < 5.0)
        assert np.isfinite(s.dist).all()

    def check_permutation(self, s, params, config):
        import dataclasses

        rng = np.random.default_rng(s.num_atoms)
        perm = rng.permutation(s.num_atoms)
        permuted = dataclasses.replace(
            s,
            features=s.features[perm],
            coords=s.coords[perm],
            is_ligand=s.is_ligand[perm],
            bonds=np.sort(np.argsort(perm)[s.bonds], axis=1),
        )
        assert abs(score(s, params, config) - score(permuted, params, config)) <= 1e-10

    def check_gat_internals(self, s, params, config):
        t = Tape()
        h = t.matmul(constant(s.features), params.embed)
        edges = full_edges(s)
        a2 = materialize_a2(t, edges, params.mu, params.sigma_on(t))
        internals = {}
        gat_forward(t, h, edges, a2, params.layers[0], internals=internals)
        z = internals["gate"].data
        assert np.all(z > 0.0) and np.all(z < 1.0)
        for key in ("softmax1", "softmax2"):
            row_sums = np.add.reduceat(internals[key].data[:, 0], edges.starts)
            np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)

    def check_rigid_motion(self, record, params, config):
        rng = np.random.default_rng(5)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(scale=8.0, size=3)
        moved = ComplexRecord(
            record.complex_id,
            record.protein_id,
            [
                Atom(
                    a.element,
                    tuple(rotation @ np.asarray(a.position) + shift),
                    a.is_ligand,
                    a.degree,
                    a.num_hydrogens,
                    a.implicit_valence,
                    a.aromatic,
                )
                for a in record.atoms
            ],
            record.bonds,
            category=record.category,
            label=record.label,
        )
        base = score(build_sample(prune_protein(record)), params, config)
        rotated = score(build_sample(prune_protein(moved)), params, config)
        assert abs(base - rotated) <= 1e-9

    def check_no_contact_identity(self, params, config):
        atoms = [
            Atom("C", (0, 0, 0), True, 1, 0, 3, False),
            Atom("N", (1.4, 0, 0), True, 1, 0, 2, False),
            Atom("O", (7.2, 0, 0), False, 0, 0, 2, False),
        ]
        s = build_sample(ComplexRecord("nc", "p", atoms, [Bond(0, 1)]))
        assert s.inter_mask.sum() == 0
        internals = {}
        t = Tape()
        p = predict(t, [s], params, config, internals=internals).item()
        assert np.array_equal(internals["pooled"].data, np.zeros((1, config.gat_dim)))
        edges = full_edges(s)
        a2 = materialize_a2(t, edges, params.mu, params.sigma_on(t))
        np.testing.assert_array_equal(dense_of(edges, a2.data), s.a1)
        # constant: any other no-contact complex scores identically
        atoms2 = [
            Atom("S", (0, 0, 0), True, 2, 1, 0, True),
            Atom("C", (1.5, 0.4, 0), True, 2, 2, 0, False),
            Atom("C", (6.8, 0, 0), False, 1, 0, 3, False),
            Atom("N", (7.9, 0.5, 0), False, 1, 1, 1, False),
        ]
        s2 = build_sample(ComplexRecord("nc2", "p", atoms2, [Bond(0, 1), Bond(2, 3)]))
        assert predict(Tape(), [s2], params, config).item() == p


class TestA5MetricOracles:
    def test_a5(self):
        with criterion("A5 metric oracles"):
            self.check_auroc_pair_oracle()
            self.check_logauc_constants()
            self.check_re_definition()
            self.check_topn_brute_force()

    def check_auroc_pair_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            scores = np.round(rng.uniform(0, 1, size=200), 2)
            labels = (rng.random(200) < 0.35).astype(int)
            if labels.sum() in (0, 200):
                continue
            wins = 0.0
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            for p in pos:
                for n in neg:
                    wins += 1.0 if p > n else 0.5 if p == n else 0.0
            assert auroc(scores, labels) == wins / (len(pos) * len(neg))

    def check_logauc_constants(self):
        rng = np.random.default_rng(7)
        n = 20000
        scores = rng.uniform(size=n)
        labels = (rng.random(n) < 0.5).astype(int)
        assert abs(adjusted_logauc(scores, labels)) <= 0.01
        n_pos, n_neg = 300, 3000
        perfect_scores = np.concatenate([np.linspace(2, 3, n_pos), np.linspace(0, 1, n_neg)])
        perfect_labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        assert abs(adjusted_logauc(perfect_scores, perfect_labels) - 0.85538) <= 0.005

    def check_re_definition(self):
        scores = [20.0, 19.0, 18.0, 17.0, 16.0, 15.0]
        labels = [1, 1, 1, 1, 0, 1]
        scores += [float(10 - 0.01 * k) for k in range(104)]
        labels += [0] * 99 + [1] * 5
        assert re_score(scores, labels, 0.01) == 50.0

    def check_topn_brute_force(self):
        rng = np.random.default_rng(8)
        items = [
            ScoredItem(
                score=float(rng.uniform()),
                label=1,
                protein_id=f"p{c % 4}",
                complex_id=f"c{c}",
                rmsd=float(rng.uniform(0, 8)),
            )
            for c in range(20)
            for _ in range(6)
        ]
        for n in (1, 2, 5):
            groups = {}
            for item in items:
                groups.setdefault(item.complex_id, []).append(item)
            brute = sum(
                1
                for poses in groups.values()
                if any(p.rmsd < 2.0 for p in sorted(poses, key=lambda x: -x.score)[:n])
            ) / len(groups)
            assert topn_success(items, n) == brute


class TestA6PipelineDeterminism:
    def test_a6(self, tmp_path):
        with criterion("A6 pipeline determinism"):
            from molgat import chem

            corpus = generate_corpus(80, seed=400, id_prefix="det")
            jsonl = tmp_path / "corpus.jsonl"
            chem.write_jsonl(corpus, jsonl)

            outputs = []
            for tag in ("run1", "run2"):
                base = tmp_path / tag
                base.mkdir()
                cache = base / "graphs.cache"
                assert cli_main(["featurize", str(jsonl), "--out", str(cache)]) == 0
                assert (
                    cli_main(
                        [
                            "train", "--cache", str(cache), "--out", str(base / "train"),
                            "--iterations", "100", "--batch-size", "8", "--seed", "13",
                            "--learning-rate", "1e-3", "--checkpoint-every", "25",
                            "--val-fraction", "0.2", "--num-gat-layers", "2",
                            "--gat-dim", "8", "--fc-dims", "8,1",
                        ]
                    )
                    == 0
                )
                assert (
                    cli_main(
                        [
                            "evaluate", "--cache", str(cache),
                            "--checkpoint", str(base / "train" / "latest.ckpt"),
                            "--out", str(base / "eval"),
                        ]
                    )
                    == 0
                )
                log_rows = (base / "train" / "train_log.csv").read_text().splitlines()
                # wall_time is the one legitimately varying column
                log_without_time = [",".join(r.split(",")[:-1]) for r in log_rows]
                outputs.append(
                    {
                        "cache": cache.read_bytes(),
                        "checkpoint": (base / "train" / "latest.ckpt").read_bytes(),
                        "report": (base / "eval" / "report.json").read_bytes(),
                        "roc": (base / "eval" / "roc_curve.csv").read_bytes(),
                        "log": log_without_time,
                    }
                )
            for key in outputs[0]:
                assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"


class TestA7PreprocessingRules:
    def test_a7(self):
        with criterion("A7 preprocessing rules"):
            self.check_prune_rule()
            self.check_contact_rule()
            self.check_rmsd_labels()

    def check_prune_rule(self):
        def rec_with_protein(offsets):
            atoms = [Atom("C", (0.0, 0.0, 0.0), True, 0, 0, 4, False)]
            atoms += [Atom("O", (d, 0.0, 0.0), False, 0, 0, 2, False) for d in offsets]
            return ComplexRecord("pr", "p", atoms, [])

        pruned = prune_protein(rec_with_protein([7.9, 8.0, 8.1]))
        kept = sorted(a.position[0] for a in pruned.atoms if not a.is_ligand)
        assert kept == [7.9, 8.0]  # strictly-greater-than-8 removed

        rng = np.random.default_rng(9)
        lig = [Atom("C", tuple(rng.normal(scale=2, size=3)), True, 0, 0, 4, False) for _ in range(4)]
        prot = [Atom("O", tuple(rng.normal(scale=7, size=3)), False, 0, 0, 2, False) for _ in range(40)]
        rec = ComplexRecord("pr2", "p", lig + prot, [])
        pruned = prune_protein(rec)
        expected = [
            p.position
            for p in prot
            if min(np.linalg.norm(np.subtract(p.position, l.position)) for l in lig) <= 8.0
        ]
        assert [a.position for a in pruned.atoms if not a.is_ligand] == expected

    def check_contact_rule(self):
        atoms = [
            Atom("C", (0.0, 0.0, 0.0), True, 1, 0, 3, False),
            Atom("N", (1.4, 0.0, 0.0), True, 1, 0, 2, False),
            Atom("O", (0.0, 0.0, 4.999), False, 0, 0, 2, False),
            Atom("O", (0.0, 0.0, 5.0), False, 0, 0, 2, False),
            Atom("O", (0.0, 0.0, 5.001), False, 0, 0, 2, False),
        ]
        s = build_sample(ComplexRecord("ct", "p", atoms, [Bond(0, 1)]))
        assert s.inter_mask[0, 2] == 1.0
        assert s.inter_mask[0, 3] == 0.0
        assert s.inter_mask[0, 4] == 0.0

        rng = np.random.default_rng(10)
        lig = [Atom("C", tuple(rng.normal(scale=2, size=3)), True, 0, 0, 4, False) for _ in range(4)]
        prot = [Atom("O", tuple(rng.normal(scale=4, size=3)), False, 0, 0, 2, False) for _ in range(20)]
        s = build_sample(ComplexRecord("ct2", "p", lig + prot, []))
        coords = np.array([a.position for a in lig + prot])
        for i in range(24):
            for j in range(24):
                expected = float(i < 4 <= j or j < 4 <= i) and float(
                    np.linalg.norm(coords[i] - coords[j]) < 5.0
                )
                assert s.inter_mask[i, j] == expected

    def check_rmsd_labels(self):
        assert label_pose(1.999) == 1
        assert label_pose(2.0) is None
        assert label_pose(3.0) is None
        assert label_pose(4.0) is None
        assert label_pose(4.001) == 0
        assert label_pose(0.0) == 1
        with pytest.raises(Exception):
            label_pose(-1.0)
