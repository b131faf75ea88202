"""Loss, balanced sampling, Adam, and the training loop.

Batches draw an equal number of samples from each category pool (with
replacement; the pools are wildly unequal in practice), every parameter is
updated by Adam, and checkpoints plus a CSV progress log are written
periodically. A step splits its batch, in order, into passes of at most
``PASS_ATOMS`` atoms (a larger sample runs alone). Each pass is one batched
forward pass (``model.predict``) and one backward pass of its mean BCE scaled
by its share of the batch, so the parameters' gradients add up to those of
the batch's mean BCE; Adam steps once per batch. A pass's graph is freed
once its backward pass is done, so a step holds one pass's values at a time.
Each checkpoint scores the labelled validation samples without dropout, in
chunks of the same atom bound, each chunk one ``predict`` on the constant
weights (``ModelParams.constants``), which records no tape node. All
randomness flows from one seeded generator, in a fixed order per step: the
batch draw, then each sample's dropout masks, sample by sample (its
attention layers' masks in layer order, then its hidden fully connected
layers' masks). A fixed seed reproduces the run bit-for-bit on one machine.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Value, constant
from .errors import DataError, NumericError
from .metrics import auroc
from .model import ModelConfig, ModelParams, predict, save_params
from .model import score  # noqa: F401 - unused here, but perfbench/spans.py wraps training.score

TRAIN_CATEGORIES = ("dude_active", "dude_inactive", "pdbbind_positive", "pdbbind_negative")
SCREEN_CATEGORIES = ("dude_active", "dude_inactive")

LOG_COLUMNS = ("iteration", "train_loss", "val_auroc", "mu", "sigma", "wall_time")

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Atoms per training pass and per validation chunk. A pass's tape keeps every
# layer's N x F values, so the bound, or one larger sample, caps a step's
# memory whatever the batch size. Paper defaults, 2-core VM, one BLAS thread:
# a step of 32 pockets (24 x 300 + 8 x 600 atoms, 20 passes) took 0.41-0.59 s
# at 64 MB peak RSS, against 0.50-0.67 s at 234 MB as one whole-batch pass (on
# a day perfbench's calibration read the VM 1.4-1.7x slower than its
# reference). At train size (32 x ~40 atoms) peak RSS fell from 150 to 100 MB
# at about the same samples/s; 320 and 512 atoms cut it further but cost 5-14%
# of samples/s.
PASS_ATOMS = 640


@dataclass
class TrainConfig:
    """Optimization settings; ``batch_size`` must divide evenly among the
    category pools, as ``balanced_batches`` draws equally from each."""

    batch_size: int = 32
    iterations: int = 150_000
    learning_rate: float = 1e-4
    seed: int = 0
    checkpoint_every: int = 100

    def __post_init__(self):
        if self.batch_size < 1 or self.iterations < 1 or self.checkpoint_every < 1:
            raise ValueError("batch_size, iterations, and checkpoint_every must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def mean_bce(tape: Tape, probs: Value, labels: list[int]) -> Value:
    """Mean binary cross entropy of a G x 1 column of probabilities, recording
    only each row's labelled branch: ``p`` is kept for label 1 and ``1 - p``
    taken for label 0 before one log over the column."""
    if probs.shape != (len(labels), 1):
        raise DataError(f"{len(labels)} labels for probabilities of shape {probs.shape}")
    if any(label not in (0, 1) for label in labels):
        raise DataError(f"labels must be 0 or 1, got {labels!r}")
    positive = np.array(labels, dtype=np.float64)[:, None]
    picked = tape.add(tape.mul(probs, constant(2.0 * positive - 1.0)), constant(1.0 - positive))
    return tape.scale(tape.sum_all(tape.log(picked)), -1.0 / len(labels))


def atom_passes(samples: list) -> list[list]:
    """The samples, in order, as consecutive runs of at most ``PASS_ATOMS``
    atoms in all; a sample larger than the bound runs alone."""
    passes = []
    for s in samples:
        if passes and atoms + s.num_atoms <= PASS_ATOMS:
            passes[-1].append(s)
            atoms += s.num_atoms
        else:
            passes.append([s])
            atoms = s.num_atoms
    return passes


def draws_per_pool(batch_size: int, n_pools: int) -> int:
    """Samples per pool in a batch; ``DataError`` unless ``batch_size`` divides evenly among the pools."""
    if n_pools == 0 or batch_size % n_pools != 0:
        raise DataError(f"batch_size {batch_size} does not divide evenly among {n_pools} category pools")
    return batch_size // n_pools


def balanced_batches(pools: dict[str, list], cfg: TrainConfig, rng: np.random.Generator):
    """Endless stream of batches drawing ``cfg.batch_size // len(pools)``
    samples from every category pool.

    Draws are uniform with replacement within each category. Deterministic
    given the generator state; categories are visited in sorted-key order.
    A batch size that does not divide evenly among the pools, or an empty
    pool, raises ``DataError``.
    """
    names = sorted(pools)
    per_pool = draws_per_pool(cfg.batch_size, len(names))
    for name in names:
        if not pools[name]:
            raise DataError(f"category pool '{name}' is empty")
    while True:
        batch = []
        for name in names:
            pool = pools[name]
            idx = rng.integers(0, len(pool), size=per_pool)
            batch.extend(pool[int(i)] for i in idx)
        yield batch


class Adam:
    """Adam over one list of values, passed to every ``step`` in the same
    order (``ModelParams.values()``, the checkpoint order). The first and
    second moments ``_m`` and ``_v`` are lists in that order."""

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self._m: list[np.ndarray] = []
        self._v: list[np.ndarray] = []

    def step(self, values: list[Value]) -> None:
        if not self.t:
            self._m = [np.zeros_like(val.data) for val in values]
            self._v = [np.zeros_like(val.data) for val in values]
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for val, m, v in zip(values, self._m, self._v, strict=True):
            g = val.grad if val.grad is not None else np.zeros_like(val.data)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            val.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def split_by_protein(samples, val_fraction: float = 0.1, seed: int = 0):
    """Hold out a fraction of proteins (never individual samples) for validation;
    ``ValueError`` unless ``0 <= val_fraction < 1``."""
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    proteins = sorted({s.protein_id for s in samples})
    if len(proteins) < 2 or val_fraction == 0:
        return list(samples), []
    rng = np.random.default_rng(seed)
    shuffled = list(proteins)
    rng.shuffle(shuffled)
    n_val = max(1, int(round(val_fraction * len(proteins))))
    if n_val >= len(proteins):
        n_val = len(proteins) - 1
    held_out = set(shuffled[:n_val])
    train = [s for s in samples if s.protein_id not in held_out]
    val = [s for s in samples if s.protein_id in held_out]
    return train, val


@dataclass
class TrainResult:
    latest_path: str
    best_path: str | None
    log_path: str
    best_val_auroc: float | None = None
    final_loss: float | None = None


def _validation_auroc(val_samples, params, model_cfg) -> float:
    """AUROC of the labelled validation samples, ``nan`` unless both labels
    occur. They are scored without dropout in chunks of ``atom_passes``,
    each one ``predict`` on ``params.constants()``: a chunk records no tape
    node and holds about one layer's values of at most ``PASS_ATOMS`` atoms
    (or of one larger sample)."""
    labeled = [s for s in val_samples if s.label is not None]
    labels = [s.label for s in labeled]
    if not labeled or len(set(labels)) < 2:
        return float("nan")
    weights = params.constants()
    scores = np.concatenate([
        predict(Tape(), chunk, weights, model_cfg).data[:, 0] for chunk in atom_passes(labeled)
    ])
    return auroc(scores, labels)


def _backward_pass(part, share: float, params, model_cfg, rng) -> float:
    """Forward and backward pass over the samples ``part``: adds the gradient
    of ``share`` times their mean BCE to every parameter's ``grad`` and
    returns that scaled loss. The pass's tape and graph are freed on return.
    A non-finite value in the forward pass raises ``NumericError`` (``Tape``
    checks each operation)."""
    tape = Tape()
    probs = predict(tape, part, params, model_cfg, rng=rng)
    loss = tape.scale(mean_bce(tape, probs, [s.label for s in part]), share)
    tape.backward(loss)
    return loss.item()


def train(
    train_pools: dict[str, list],
    val_samples: list,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    out_dir,
    params: ModelParams | None = None,
) -> TrainResult:
    """Run the optimization loop and write checkpoints plus a CSV log.

    ``train_pools`` maps category name to a list of labeled GraphSamples.
    Each sample builds its reached subgraph on its first draw or on the first
    validation pass that scores it, and keeps it (``GraphSample.reach``), so
    neither a later draw nor a later validation pass rebuilds one.
    Each step runs its batch in passes of at most ``PASS_ATOMS`` atoms
    (``atom_passes``) and accumulates their gradients before one Adam step;
    the logged ``train_loss`` is the batch's mean BCE, the sum of the passes'
    shares. ``val_samples`` are scored at each checkpoint in chunks of the
    same atom bound; their AUROC picks ``best.ckpt``.
    A non-finite value in a pass's forward pass, or a non-finite parameter
    gradient, aborts before the Adam step with a ``NumericError`` naming the
    iteration; the last written checkpoint stays on disk untouched.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(train_cfg.seed)
    if params is None:
        params = ModelParams.initialize(model_cfg, rng)

    for name, pool in train_pools.items():
        for s in pool:
            if s.label is None:
                raise DataError(f"sample {s.complex_id} in pool '{name}' has no label")

    batches = balanced_batches(train_pools, train_cfg, rng)
    adam = Adam(train_cfg.learning_rate)

    latest_path = os.path.join(out_dir, "latest.ckpt")
    best_path = os.path.join(out_dir, "best.ckpt")
    log_path = os.path.join(out_dir, "train_log.csv")

    result = TrainResult(latest_path=latest_path, best_path=None, log_path=log_path)
    start = time.monotonic()

    with open(log_path, "w", newline="", encoding="utf-8") as log_fh:
        writer = csv.DictWriter(log_fh, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        for iteration in range(1, train_cfg.iterations + 1):
            batch = next(batches)
            params.zero_grad()
            try:
                loss_value = sum(
                    _backward_pass(part, len(part) / len(batch), params, model_cfg, rng)
                    for part in atom_passes(batch)
                )
            except NumericError as exc:
                raise NumericError(f"{exc} at iteration {iteration}; last checkpoint retained") from exc
            for name, value in params.named_values():
                if value.grad is not None and not np.isfinite(value.grad).all():
                    raise NumericError(
                        f"non-finite gradient of {name} at iteration {iteration}; "
                        "last checkpoint retained"
                    )
            adam.step(params.values())

            if iteration % train_cfg.checkpoint_every == 0 or iteration == train_cfg.iterations:
                val_auroc = _validation_auroc(val_samples, params, model_cfg)
                row = {
                    "iteration": iteration,
                    "train_loss": repr(loss_value),
                    "val_auroc": repr(val_auroc),
                    "mu": repr(params.mu_value()),
                    "sigma": repr(params.sigma_value()),
                    "wall_time": repr(time.monotonic() - start),
                }
                writer.writerow(row)
                log_fh.flush()
                save_params(latest_path, params, model_cfg, iteration)
                if np.isfinite(val_auroc) and (
                    result.best_val_auroc is None or val_auroc > result.best_val_auroc
                ):
                    result.best_val_auroc = val_auroc
                    save_params(best_path, params, model_cfg, iteration)
                    result.best_path = best_path
            result.final_loss = loss_value

    return result
