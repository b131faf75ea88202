"""Virtual-screening and pose-ranking metrics.

Ranking metrics treat higher scores as more likely active. Every one of them
reads a single ranking: the tied-score blocks of ``_ranked_blocks``, highest
score first. The ROC/PR curves advance through each block as a unit, so
every reported operating point is realizable by an actual score threshold,
and ties get Mann-Whitney half credit everywhere. AUROC is the trapezoid area
under that ROC, summed in exact counts: the Mann-Whitney U statistic divided
by the number of positive-negative pairs. Top-N pose success counts a tied
block that straddles the top-N cutoff by its expected success under a
uniformly random order inside the block.

Per-target report values are unweighted means over proteins (each protein
counts once regardless of how many compounds were screened against it).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import atomic_open

METRICS = ("auroc", "adjusted_logauc", "prauc", "re")  # "re" is every RE_LEVELS level
RE_LEVELS = (0.005, 0.01, 0.02, 0.05)
_RE_KEYS = {level: f"re_{level * 100:g}pct" for level in RE_LEVELS}
LOGAUC_LAMBDA = 0.001


@dataclass
class ScoredItem:
    score: float
    label: int
    protein_id: str
    complex_id: str
    rmsd: float | None = None


def _split_arrays(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be matched 1-D sequences")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def _ranked_blocks(scores, labels):
    """Positives and items ranked at or above each tied-score block (highest
    score first), plus the numbers of positives and negatives."""
    scores, labels = _split_arrays(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    tp = np.cumsum(labels[order] == 1)
    block_ends = np.flatnonzero(np.diff(scores[order], append=np.inf))
    n_pos = int((labels == 1).sum())
    return tp[block_ends], block_ends + 1, n_pos, len(labels) - n_pos


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative (ties half).

    A tied block holding ``dfp`` negatives, which takes the positives ranked
    so far from ``tp_before`` to ``tp_after``, adds ``dfp * (tp_before +
    tp_after) / 2`` to the Mann-Whitney U: each of its negatives is outranked
    by every positive above the block and ties each positive inside it.
    """
    tp, ranked, n_pos, n_neg = _ranked_blocks(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise DataError("auroc needs at least one positive and one negative")
    tp_before = np.concatenate([[0], tp[:-1]])
    twice_u = (np.diff(ranked - tp, prepend=0) * (tp_before + tp)).sum()
    return float(twice_u / 2.0 / (n_pos * n_neg))


def roc_points(scores, labels):
    """Vertices of the empirical ROC: (fpr, tpr) arrays starting at (0, 0).

    Tied scores advance as one block, so every vertex corresponds to a
    realizable threshold.
    """
    tp, ranked, n_pos, n_neg = _ranked_blocks(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc needs at least one positive and one negative")
    fpr = np.concatenate([[0.0], (ranked - tp) / n_neg])
    return fpr, np.concatenate([[0.0], tp / n_pos])


def adjusted_logauc(scores, labels) -> float:
    """Early-enrichment AUC on a log10 FPR axis, minus the random-classifier area.

    The empirical ROC is integrated by trapezoid from lambda =
    ``LOGAUC_LAMBDA`` (0.001, the paper's value) to 1 with FPR clamped below
    at lambda, normalized by log10(1/lambda). A random classifier scores 0; a
    perfect one scores 1 minus the random area (~0.85538); all-positives-last
    scores minus the random area.
    """
    fpr, tpr = roc_points(scores, labels)
    log_fpr = np.log10(np.maximum(fpr, LOGAUC_LAMBDA))
    widths = np.diff(log_fpr)
    heights = (tpr[1:] + tpr[:-1]) / 2.0
    span = math.log10(1.0 / LOGAUC_LAMBDA)
    logauc = float((widths * heights).sum() / span)
    random_area = (1.0 - LOGAUC_LAMBDA) / (math.log(10.0) * span)
    return logauc - random_area


def pr_points(scores, labels):
    """Vertices of the empirical precision-recall curve: (recall, precision)
    arrays, one per tied-score block."""
    tp, ranked, n_pos, _ = _ranked_blocks(scores, labels)
    if n_pos == 0:
        raise DataError("pr curve needs at least one positive")
    return tp / n_pos, tp / ranked


def prauc(scores, labels) -> float:
    """Area under precision-recall in the average-precision (step) form."""
    recall, precision = pr_points(scores, labels)
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - recall_prev) * precision).sum())


def re_score(scores, labels, fpr_level: float) -> float:
    """TPR over FPR at the smallest realizable FPR at or above the level."""
    if not 0.0 < fpr_level < 1.0:
        raise DataError(f"fpr level must be in (0,1), got {fpr_level}")
    scores, labels = _split_arrays(scores, labels)
    n_neg = int((labels == 0).sum())
    if n_neg < 1.0 / fpr_level:
        raise DataError(
            f"re@{fpr_level}: needs at least {math.ceil(1.0 / fpr_level)} negatives, have {n_neg}"
        )
    fpr, tpr = roc_points(scores, labels)
    eligible = fpr >= fpr_level
    achieved = fpr[eligible].min()
    best_tpr = tpr[fpr == achieved].max()
    return float(best_tpr / achieved)


def per_protein_average(values) -> float:
    """Unweighted mean over proteins; callers skip non-computable proteins."""
    values = [v for v in values]
    if not values:
        raise DataError("no per-protein values to average")
    return float(np.mean(values))


def topn_success(items: list[ScoredItem], n: int) -> float:
    """Fraction of complexes with a pose under 2 A RMSD among the n top-scored.

    Poses tied at the n-th highest score count as ranked in a uniformly random
    order. When no near-native pose scores above that block of m tied poses,
    q of which are near-native and k of which fit in the top n, the complex
    counts its expected success ``1 - C(m - q, k) / C(m, k)``.
    """
    if n < 1:
        raise DataError(f"n must be positive, got {n}")
    by_complex: dict[str, list[ScoredItem]] = {}
    for item in items:
        if item.rmsd is None:
            raise DataError(f"pose {item.complex_id} is missing an rmsd annotation")
        by_complex.setdefault(item.complex_id, []).append(item)
    if not by_complex:
        raise DataError("no poses given")
    total = 0.0
    for poses in by_complex.values():
        top = min(n, len(poses))
        cutoff = sorted((p.score for p in poses), reverse=True)[top - 1]
        above = [p for p in poses if p.score > cutoff]
        if any(p.rmsd < 2.0 for p in above):
            total += 1.0
            continue
        tied = [p for p in poses if p.score == cutoff]
        near = sum(p.rmsd < 2.0 for p in tied)
        k = top - len(above)
        total += 1.0 - math.comb(len(tied) - near, k) / math.comb(len(tied), k)
    return total / len(by_complex)


# ---------------------------------------------------------------------------
# Per-protein evaluation report
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    per_protein: list[dict]
    aggregate: dict
    skipped_proteins: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "aggregate": self.aggregate,
                "per_protein": self.per_protein,
                "skipped_proteins": self.skipped_proteins,
            },
            indent=2,
            sort_keys=True,
        )

    def write_csv(self, path) -> None:
        columns = ["protein_id", "n_samples", "n_positive", "n_negative"]
        metric_cols = [k for k in self.aggregate if k not in ("n_proteins", "n_skipped")]
        columns += sorted(metric_cols)
        with atomic_open(path) as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            for row in self.per_protein:
                writer.writerow({k: _csv_cell(row.get(k)) for k in columns})
            agg = dict(self.aggregate)
            agg["protein_id"] = "AGGREGATE"
            writer.writerow({k: _csv_cell(agg.get(k)) for k in columns})


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def evaluate_scored(items: list[ScoredItem], wanted=METRICS) -> EvalReport:
    """Compute the ``wanted`` screening metrics per protein and their
    unweighted means; ``wanted`` names metrics of ``METRICS``.

    Proteins whose score set contains a single class are skipped for the
    threshold metrics and listed in the report. RE (``"re"``) is reported at
    each FPR level of ``RE_LEVELS`` (0.5, 1, 2 and 5 %). RE levels that are
    not realizable for a protein (too few negatives) are left blank for that
    protein and excluded from that level's aggregate.
    """
    ranking = {name: metric for name, metric in
               {"auroc": auroc, "adjusted_logauc": adjusted_logauc, "prauc": prauc}.items()
               if name in wanted}
    re_keys = {level: key for level, key in _RE_KEYS.items() if "re" in wanted}
    by_protein: dict[str, list[ScoredItem]] = {}
    for item in items:
        by_protein.setdefault(item.protein_id, []).append(item)

    per_protein = []
    skipped = []
    for protein_id in sorted(by_protein):
        group = by_protein[protein_id]
        scores = [g.score for g in group]
        labels = [g.label for g in group]
        n_pos = sum(1 for l in labels if l == 1)
        n_neg = len(labels) - n_pos
        row = {
            "protein_id": protein_id,
            "n_samples": len(group),
            "n_positive": n_pos,
            "n_negative": n_neg,
        }
        if n_pos == 0 or n_neg == 0:
            skipped.append(protein_id)
            continue
        for name, metric in ranking.items():
            row[name] = metric(scores, labels)
        for level, key in re_keys.items():
            row[key] = re_score(scores, labels, level) if n_neg >= 1.0 / level else None
        per_protein.append(row)

    if not per_protein:
        raise DataError("no protein had both classes; nothing to evaluate")

    aggregate = {"n_proteins": len(per_protein), "n_skipped": len(skipped)}
    for key in [*ranking, *re_keys.values()]:
        values = [row[key] for row in per_protein if row[key] is not None]
        aggregate[key] = per_protein_average(values) if values else None
    return EvalReport(per_protein=per_protein, aggregate=aggregate, skipped_proteins=skipped)


def write_curve_csv(path, scores, labels, kind: str) -> None:
    """Dump pooled ROC ('roc') or PR ('pr') curve vertices for plotting."""
    if kind == "roc":
        header, columns = ("fpr", "tpr"), roc_points(scores, labels)
    elif kind == "pr":
        header, columns = ("recall", "precision"), pr_points(scores, labels)
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(c)) for c in row])
