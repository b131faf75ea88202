import csv
import itertools
import math

import numpy as np
import pytest

from molgat import fileio
from molgat.errors import DataError
from molgat.metrics import (
    METRICS,
    EvalReport,
    ScoredItem,
    adjusted_logauc,
    auroc,
    evaluate_scored,
    per_protein_average,
    pr_points,
    prauc,
    re_score,
    roc_points,
    topn_success,
    write_curve_csv,
)

RANDOM_AREA = (1.0 - 0.001) / (math.log(10.0) * 3.0)  # ~0.144621


def auroc_pair_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def auroc_average_rank_oracle(scores, labels):
    """The Mann-Whitney U from average ranks, the formula AUROC used before it
    was summed over the tied-score blocks of the ROC."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    ranks = cum[inverse] - (counts[inverse] - 1) / 2.0
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision_oracle(scores, labels):
    """Block-stepped average precision computed with explicit loops."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    n_pos = sum(labels)
    ap = 0.0
    tp = fp = 0
    recall_prev = 0.0
    k = 0
    while k < len(order):
        j = k
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[k]]:
            j += 1
        for idx in order[k : j + 1]:
            if labels[idx] == 1:
                tp += 1
            else:
                fp += 1
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - recall_prev) * precision
        recall_prev = recall
        k = j + 1
    return ap


class TestAuroc:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        labels = [1, 1, 1, 0, 0]
        assert auroc(scores, labels) == 1.0

    def test_all_tied_scores_give_half(self):
        scores = [0.5] * 10
        labels = [1, 0] * 5
        assert auroc(scores, labels) == 0.5

    def test_matches_pair_count_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = 200
            # quantized scores so ties actually occur
            scores = np.round(rng.uniform(0, 1, size=n), 2)
            labels = (rng.random(n) < 0.3).astype(int)
            if labels.sum() in (0, n):
                continue
            assert auroc(scores, labels) == auroc_pair_oracle(scores.tolist(), labels.tolist())

    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_the_average_rank_formula_bit_for_bit(self, ties):
        rng = np.random.default_rng(3 + ties)
        for n in np.unique(np.geomspace(2, 4000, 120).astype(int)):
            scores = rng.normal(size=n)
            if ties:  # a few distinct values, so most items share a block
                scores = np.round(scores * rng.integers(1, 5))
            labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
            labels[:2] = (0, 1)
            rng.shuffle(labels)
            assert auroc(scores, labels) == auroc_average_rank_oracle(scores, labels), n

    def test_label_flip_complement(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=100)  # continuous: no ties
        labels = (rng.random(100) < 0.5).astype(int)
        assert auroc(scores, 1 - labels) == pytest.approx(1.0 - auroc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=150)
        labels = (rng.random(150) < 0.4).astype(int)
        transformed = np.exp(2.0 * scores + 1.0)
        assert auroc(scores, labels) == auroc(transformed, labels)
        assert adjusted_logauc(scores, labels) == adjusted_logauc(transformed, labels)
        assert prauc(scores, labels) == prauc(transformed, labels)


class TestAdjustedLogauc:
    def test_random_classifier_near_zero(self):
        rng = np.random.default_rng(3)
        n = 20000
        scores = rng.uniform(size=n)
        labels = (rng.random(n) < 0.5).astype(int)
        assert abs(adjusted_logauc(scores, labels)) <= 0.01

    def test_perfect_classifier(self):
        n_pos, n_neg = 200, 2000  # positives fraction well above lambda
        scores = np.concatenate([np.linspace(2, 3, n_pos), np.linspace(0, 1, n_neg)])
        labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        expected = 1.0 - RANDOM_AREA
        assert adjusted_logauc(scores, labels) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.85538, abs=5e-6)

    def test_all_positives_ranked_last(self):
        scores = np.concatenate([np.linspace(2, 3, 500), np.linspace(0, 1, 50)])
        labels = np.concatenate([np.zeros(500, int), np.ones(50, int)])
        assert adjusted_logauc(scores, labels) == pytest.approx(-RANDOM_AREA, abs=1e-12)
        assert -RANDOM_AREA == pytest.approx(-0.14462, abs=5e-6)

    def test_range_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 500
            scores = rng.normal(size=n)
            labels = (rng.random(n) < 0.3).astype(int)
            value = adjusted_logauc(scores, labels)
            assert -RANDOM_AREA - 1e-12 <= value <= 1.0 - RANDOM_AREA + 1e-12


class TestPrauc:
    def test_perfect_ranking(self):
        assert prauc([3, 2, 1, 0.5], [1, 1, 0, 0]) == 1.0

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(5)
        n, p = 20000, 0.2
        scores = rng.uniform(size=n)
        labels = (rng.random(n) < p).astype(int)
        prevalence = labels.mean()
        # 3 sigma of the average-precision estimator, generous envelope
        sigma = 3.0 * math.sqrt(prevalence * (1 - prevalence) / n) * 5
        assert abs(prauc(scores, labels) - prevalence) < max(sigma, 0.02)

    def test_fifty_point_fixture_matches_hand_oracle(self):
        rng = np.random.default_rng(6)
        scores = np.round(rng.uniform(0, 1, size=50), 1)  # heavy ties
        labels = (rng.random(50) < 0.4).astype(int)
        expected = average_precision_oracle(scores.tolist(), labels.tolist())
        assert prauc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_zero_positives_rejected(self):
        with pytest.raises(DataError):
            prauc([0.3, 0.2], [0, 0])


class TestReScore:
    def fixture_tpr_half_at_one_percent(self):
        # 10 positives, 100 negatives; ranking: 4 pos, 1 neg, 1 pos, then the rest
        scores, labels = [], []
        top = [(20, 1), (19, 1), (18, 1), (17, 1), (16, 0), (15, 1)]
        for s, l in top:
            scores.append(float(s))
            labels.append(l)
        scores += [float(10 - 0.01 * k) for k in range(104)]
        labels += [0] * 99 + [1] * 5
        assert sum(labels) == 10 and len(labels) - sum(labels) == 100
        return scores, labels

    def test_definition_arithmetic(self):
        scores, labels = self.fixture_tpr_half_at_one_percent()
        assert re_score(scores, labels, 0.01) == 50.0

    def test_perfect_classifier_thousand_negatives(self):
        scores = np.concatenate([np.linspace(2, 3, 50), np.linspace(0, 1, 1000)])
        labels = np.concatenate([np.ones(50, int), np.zeros(1000, int)])
        assert re_score(scores, labels, 0.01) == pytest.approx(100.0, abs=1e-12)

    def test_unrealizable_level_rejected(self):
        scores = list(range(60))
        labels = [1] * 10 + [0] * 50
        with pytest.raises(DataError, match="negatives"):
            re_score(scores, labels, 0.01)  # needs >= 100 negatives

    def test_level_bounds(self):
        with pytest.raises(DataError):
            re_score([1, 0], [1, 0], 0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=400)
        labels = (rng.random(400) < 0.25).astype(int)
        for level in (0.005, 0.01, 0.02, 0.05):
            assert re_score(scores, labels, level) >= 0.0


class TestPerProteinAverage:
    def test_single_value_identity(self):
        assert per_protein_average([0.73]) == 0.73

    def test_unweighted_regardless_of_counts(self):
        assert per_protein_average([1.0, 0.5]) == 0.75

    def test_twenty_five_protein_fixture(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, size=25).tolist()
        assert per_protein_average(values) == pytest.approx(sum(values) / 25, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            per_protein_average([])


class TestTopN:
    def make_poses(self, rng, n_complexes=20, poses_each=8):
        items = []
        for c in range(n_complexes):
            for p in range(poses_each):
                items.append(
                    ScoredItem(
                        score=float(rng.uniform()),
                        label=1,
                        protein_id=f"prot{c % 5}",
                        complex_id=f"cplx{c}",
                        rmsd=float(rng.uniform(0, 8)),
                    )
                )
        return items

    def brute_force(self, items, n):
        groups = {}
        for item in items:
            groups.setdefault(item.complex_id, []).append(item)
        hits = 0
        for poses in groups.values():
            top = sorted(poses, key=lambda x: -x.score)[:n]
            if any(p.rmsd < 2.0 for p in top):
                hits += 1
        return hits / len(groups)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        items = self.make_poses(rng)
        for n in (1, 2, 3, 5, 10):
            assert topn_success(items, n) == self.brute_force(items, n)

    def test_n_at_least_pose_count_gives_any_near_native_fraction(self):
        rng = np.random.default_rng(10)
        items = self.make_poses(rng, n_complexes=12, poses_each=4)
        groups = {}
        for item in items:
            groups.setdefault(item.complex_id, []).append(item)
        expected = sum(
            1 for poses in groups.values() if any(p.rmsd < 2.0 for p in poses)
        ) / len(groups)
        assert topn_success(items, 100) == expected

    def test_best_scored_near_native_counts_at_one(self):
        items = [
            ScoredItem(0.9, 1, "p", "c", rmsd=1.0),
            ScoredItem(0.5, 1, "p", "c", rmsd=7.0),
        ]
        assert topn_success(items, 1) == 1.0

    def test_tie_at_cutoff_counts_expected_success(self):
        # One near-native and one decoy tied for the single top slot: 1/2,
        # whichever comes first in the input.
        near, decoy = ScoredItem(0.5, 1, "p", "c", rmsd=1.0), ScoredItem(0.5, 1, "p", "c", rmsd=7.0)
        assert topn_success([decoy, near], 1) == 0.5
        assert topn_success([near, decoy], 1) == 0.5

    def test_ties_match_random_order_oracle(self):
        # Expected success over every input order of each complex's poses,
        # ranked by a stable sort: ties then fall in every order equally often.
        import itertools

        rng = np.random.default_rng(15)
        items = [
            ScoredItem(float(rng.integers(0, 3)), 1, "p", f"c{c}", rmsd=float(rng.uniform(0, 5)))
            for c in range(12)
            for _ in range(5)
        ]
        groups = {}
        for item in items:
            groups.setdefault(item.complex_id, []).append(item)
        for n in (1, 2, 3, 5, 6):
            expected = 0.0
            for poses in groups.values():
                orders = list(itertools.permutations(poses))
                expected += sum(
                    any(p.rmsd < 2.0 for p in sorted(order, key=lambda x: -x.score)[:n])
                    for order in orders
                ) / len(orders)
            assert topn_success(items, n) == pytest.approx(expected / len(groups), abs=1e-12)

    def test_missing_rmsd_rejected(self):
        with pytest.raises(DataError, match="rmsd"):
            topn_success([ScoredItem(0.5, 1, "p", "c", rmsd=None)], 1)


class TestEvaluateScored:
    def make_items(self, rng, proteins=4, n_each=60, skew=0.0):
        items = []
        for p in range(proteins):
            for k in range(n_each):
                label = int(rng.random() < 0.3)
                items.append(
                    ScoredItem(
                        score=float(rng.normal() + skew * label),
                        label=label,
                        protein_id=f"prot{p}",
                        complex_id=f"c{p}_{k}",
                    )
                )
        return items

    def test_per_protein_rows_and_aggregate(self):
        rng = np.random.default_rng(11)
        items = self.make_items(rng, skew=2.0)
        report = evaluate_scored(items)
        assert len(report.per_protein) == 4
        aurocs = [row["auroc"] for row in report.per_protein]
        assert report.aggregate["auroc"] == pytest.approx(np.mean(aurocs), abs=1e-12)
        assert report.aggregate["n_proteins"] == 4

    def test_single_class_protein_skipped_and_reported(self):
        rng = np.random.default_rng(12)
        items = self.make_items(rng, proteins=3)
        items += [
            ScoredItem(0.5, 1, "prot_only_pos", f"x{k}", None) for k in range(5)
        ]
        report = evaluate_scored(items)
        assert report.skipped_proteins == ["prot_only_pos"]
        assert report.aggregate["n_skipped"] == 1

    def test_unrealizable_re_levels_blank(self):
        rng = np.random.default_rng(13)
        items = self.make_items(rng, proteins=1, n_each=40)
        report = evaluate_scored(items)
        assert report.per_protein[0]["re_0.5pct"] is None

    @pytest.mark.parametrize("n_neg, realized", [(19, False), (20, True)])
    def test_re_level_realized_from_exactly_its_negative_count(self, n_neg, realized):
        # 5 % FPR needs 20 negatives
        items = [ScoredItem(1.0, 1, "p", "pos")]
        items += [ScoredItem(0.1 * k, 0, "p", f"neg{k}") for k in range(n_neg)]
        row = evaluate_scored(items).per_protein[0]
        assert (row["re_5pct"] is not None) == realized
        assert row["re_2pct"] is None

    def test_json_and_csv_outputs(self, tmp_path):
        rng = np.random.default_rng(14)
        report = evaluate_scored(self.make_items(rng, skew=1.0))
        text = report.to_json()
        assert '"aggregate"' in text and '"per_protein"' in text
        csv_path = tmp_path / "report.csv"
        report.write_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("protein_id,")
        assert lines[-1].startswith("AGGREGATE")
        assert len(lines) == 1 + 4 + 1

    def test_all_single_class_rejected(self):
        items = [ScoredItem(0.5, 1, "p", "c1"), ScoredItem(0.4, 1, "p", "c2")]
        with pytest.raises(DataError):
            evaluate_scored(items)


def trimmed_to(report, wanted):
    """``report`` keeping, besides the count columns, each key that is a
    wanted name or starts with one followed by ``_`` (``re`` keeps the four
    ``re_*`` levels): the rule by which metrics were once dropped from a full
    report after computing it."""
    keep = {"n_proteins", "n_skipped", "protein_id", "n_samples", "n_positive", "n_negative"}

    def trim(row):
        return {k: v for k, v in row.items()
                if k in keep or any(k == m or k.startswith(f"{m}_") for m in wanted)}

    return EvalReport(per_protein=[trim(r) for r in report.per_protein],
                      aggregate=trim(report.aggregate),
                      skipped_proteins=report.skipped_proteins)


@pytest.mark.parametrize("wanted", [subset for k in range(1, len(METRICS) + 1)
                                    for subset in itertools.combinations(METRICS, k)])
def test_selected_metrics_equal_the_trimmed_full_report(wanted):
    # a protein with a single class, and proteins too small for some RE levels
    rng = np.random.default_rng(16)
    items = [ScoredItem(float(np.round(rng.normal() + label, 1)), int(label), protein, f"{protein}_{k}")
             for protein, n in (("big", 400), ("mid", 120), ("small", 30))
             for k, label in enumerate(rng.random(n) < 0.3)]
    items += [ScoredItem(0.5, 0, "only_neg", f"x{k}") for k in range(4)]
    expected = trimmed_to(evaluate_scored(items), wanted)
    for order in (wanted, wanted[::-1]):
        report = evaluate_scored(items, order)
        assert report == expected
        assert report.to_json() == expected.to_json()


class TestCurveDumps:
    def test_roc_and_pr_files(self, tmp_path):
        rng = np.random.default_rng(15)
        scores = rng.normal(size=50)
        labels = (rng.random(50) < 0.5).astype(int)
        roc_path = tmp_path / "roc.csv"
        pr_path = tmp_path / "pr.csv"
        write_curve_csv(roc_path, scores, labels, "roc")
        write_curve_csv(pr_path, scores, labels, "pr")
        roc_lines = roc_path.read_text().splitlines()
        assert roc_lines[0] == "fpr,tpr"
        fpr, tpr = roc_points(scores, labels)
        assert len(roc_lines) == 1 + len(fpr)
        last = roc_lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0
        pr_rows = list(csv.reader(pr_path.read_text().splitlines()))
        assert pr_rows[0] == ["recall", "precision"]
        recall, precision = pr_points(scores, labels)
        assert [[float(r), float(p)] for r, p in pr_rows[1:]] == [
            [r, p] for r, p in zip(recall.tolist(), precision.tolist())
        ]

    def test_pr_points_merge_tied_blocks(self):
        recall, precision = pr_points([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0])
        np.testing.assert_array_equal(recall, [0.5, 1.0, 1.0])
        np.testing.assert_array_equal(precision, [1.0, 2.0 / 3.0, 0.5])
        with pytest.raises(DataError, match="pr curve needs at least one positive"):
            pr_points([0.2, 0.1], [0, 0])

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            write_curve_csv(tmp_path / "x.csv", [1, 0], [1, 0], "lift")


class _FailingFile:
    """File stand-in that fails after ``budget`` writes, like a disk filling up."""

    def __init__(self, fh, budget):
        self.fh = fh
        self.budget = budget

    def write(self, text):
        if self.budget == 0:
            raise OSError("simulated write failure")
        self.budget -= 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


class TestAtomicWrites:
    @pytest.mark.parametrize("target", ["report", "roc", "pr"])
    def test_failure_part_way_leaves_no_partial_file(self, tmp_path, monkeypatch, target):
        rng = np.random.default_rng(16)
        items = [
            ScoredItem(float(rng.normal()), int(k % 3 == 0), f"p{k % 4}", f"c{k}") for k in range(80)
        ]
        scores = [i.score for i in items]
        labels = [i.label for i in items]
        path = tmp_path / f"{target}.csv"

        def write():
            if target == "report":
                evaluate_scored(items).write_csv(path)
            else:
                write_curve_csv(path, scores, labels, target)

        write()
        complete = path.read_bytes()
        real_open = open
        monkeypatch.setattr(
            fileio, "open", lambda *a, **k: _FailingFile(real_open(*a, **k), budget=2), raising=False
        )
        with pytest.raises(OSError, match="simulated"):
            write()
        assert path.read_bytes() == complete
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
