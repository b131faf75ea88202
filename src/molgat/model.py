"""The dual-adjacency classifier: gated attention over covalent and contact
graphs, sum pooling, and an MLP head.

Both adjacencies live on one edge list per sample (``GraphSample.edges``):
self-loops, both directions of every bond and of every intermolecular contact
(opposite sides, d < 5 A). For every pass the contact adjacency's edge
weights are materialized on the tape, on the edges the layers run on, as

    A2_e = 1                               on self-loop and bond edges
    A2_e = exp(-(d_e - mu)^2 / sigma)      on contact edges

with a single global learnable (mu, sigma) pair; sigma is stored as an
unconstrained scalar and passed through softplus plus a small floor so it
stays positive. Each attention layer (``gat.gat_forward``) runs its shared
weights over A1 and A2 and returns the contact branch minus the covalent
branch, ``(1 - z) * ((att2 - att1) x W)``. An atom with no contact edge has
att2 == att1, so its output is exactly zero at every layer; the layers run
only on the rows a contact can reach (``Edges.reach``: the contact ends,
their neighbours and each graph's first row), and a complex with no contacts
keeps one row and pools to an exactly-zero vector. A layer costs
O(R F^2 + E_R F) time and O(R F + E_R) memory for the R reached rows and
the E_R edges among them (``autodiff`` takes the edge products of small
graphs through a dense product bounded by a constant per edge). A training
pass keeps every layer's values on the tape for the backward pass; ``score``
runs on constant views of the weights (``ModelParams.constants``), records
nothing, and so holds about one layer's values at a time. Node features are
summed into one graph vector, and a small MLP with ReLU hidden activations
and a final sigmoid produces the activity probability.

The contact weights, each attention layer and each dense layer of the head
are one tape node each, with a hand-written backward rule (the first two
here and in ``gat``, the last ``Tape.affine``), so a paper-default training
pass records 26 nodes, its loss included; ``tests/composed.py`` keeps the
one-operation-per-step form they must match bit for bit.

``predict`` runs a whole batch as one block-diagonal graph (``Edges.merge``
of each sample's reached subgraph, which the sample's edge list keeps):
every tape operation runs once per batch, pooling sums each graph's reached
rows, and the output is a G x 1 column. Given an ``rng`` (training), it draws
all dropout masks before the forward pass, sample by sample: each attention
layer's N_s x F mask in layer order, then each hidden fully connected layer's
1 x d mask. A layer's mask is drawn for all N_s rows and applied to the
reached ones, so the draws do not depend on the reach.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Value, _checked, constant, parameter
from .chem import N_FEATURES
from .errors import CheckpointError, NumericError
from .fileio import open_checked, write_checked
from .gat import GatParams, gat_forward, glorot, init_gat_params
from .graphs import Edges, GraphSample

SIGMA_FLOOR = 1e-3

CHECKPOINT_MAGIC = b"MOLGATCK"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    num_gat_layers: int = 4
    gat_dim: int = 140
    fc_dims: tuple[int, ...] = (128, 128, 1)
    dropout_rate: float = 0.3

    def __post_init__(self):
        self.fc_dims = tuple(int(d) for d in self.fc_dims)
        if self.num_gat_layers < 1 or self.gat_dim < 1:
            raise ValueError("all model dimensions must be positive")
        if any(d < 1 for d in self.fc_dims):
            raise ValueError("all fully connected dimensions must be positive")
        if not self.fc_dims or self.fc_dims[-1] != 1:
            raise ValueError("the last fully connected layer must output a single unit")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


class ModelParams:
    """Every learnable quantity, in the fixed checkpoint order."""

    def __init__(self, embed: Value, layers: list[GatParams], mu: Value, sigma_raw: Value, fc):
        self.embed = embed
        self.layers = layers
        self.mu = mu
        self.sigma_raw = sigma_raw
        self.fc = fc  # list of (weight, bias) pairs

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator) -> "ModelParams":
        embed = glorot(N_FEATURES, config.gat_dim, rng)
        layers = [init_gat_params(config.gat_dim, rng) for _ in range(config.num_gat_layers)]
        mu = parameter(np.array([[3.0]]))
        # softplus(raw) + floor == 2.0 at initialization
        sigma_raw = parameter(np.array([[np.log(np.expm1(2.0 - SIGMA_FLOOR))]]))
        fc = []
        prev = config.gat_dim
        for dim in config.fc_dims:
            fc.append((glorot(prev, dim, rng), parameter(np.zeros((1, dim)))))
            prev = dim
        return cls(embed, layers, mu, sigma_raw, fc)

    @classmethod
    def from_values(cls, values: list[Value], num_layers: int, num_fc: int) -> "ModelParams":
        """The parameters from their values in checkpoint order."""
        it = iter(values)
        embed = next(it)
        layers = [GatParams(w=next(it), e=next(it), u=next(it), b=next(it)) for _ in range(num_layers)]
        mu, sigma_raw = next(it), next(it)
        fc = [(next(it), next(it)) for _ in range(num_fc)]
        return cls(embed, layers, mu, sigma_raw, fc)

    def named_values(self) -> list[tuple[str, Value]]:
        named = [("embed", self.embed)]
        for k, layer in enumerate(self.layers):
            named += [
                (f"gat{k}.w", layer.w),
                (f"gat{k}.e", layer.e),
                (f"gat{k}.u", layer.u),
                (f"gat{k}.b", layer.b),
            ]
        named += [("mu", self.mu), ("sigma_raw", self.sigma_raw)]
        for k, (w, b) in enumerate(self.fc):
            named += [(f"fc{k}.w", w), (f"fc{k}.b", b)]
        return named

    def values(self) -> list[Value]:
        return [v for _, v in self.named_values()]

    def zero_grad(self) -> None:
        for v in self.values():
            v.zero_grad()

    def constants(self) -> "ModelParams":
        """The same weights as constants. Each shares its parameter's array,
        and a forward pass on them records nothing on its tape."""
        values = [constant(v.data) for v in self.values()]
        return ModelParams.from_values(values, len(self.layers), len(self.fc))

    def sigma_on(self, tape: Tape) -> Value:
        """Positive sigma on the tape: softplus(raw) + floor."""
        return tape.add(tape.softplus(self.sigma_raw), constant([[SIGMA_FLOOR]]))

    def mu_value(self) -> float:
        return self.mu.item()

    def sigma_value(self) -> float:
        return self.sigma_on(Tape()).item()


def materialize_a2(tape: Tape, edges: Edges, mu: Value, sigma: Value) -> Value:
    """Contact adjacency weights on the tape, E x 1 in edge order; gradients
    flow into mu and sigma.

    Exactly 1.0 on self-loop and bond edges, and the Gaussian of the contact
    distance on contact edges. One tape node: the Gaussian is computed on
    every edge, each step checked for non-finite values, and kept on the
    contact edges.
    """
    if sigma.item() <= 0:
        raise NumericError(f"sigma must be positive, got {sigma.item()}")
    contact = edges.contact[:, None].astype(np.float64)
    diff = _checked(edges.dist[:, None] - _checked(mu.data))
    neg_sq = _checked(-1.0 * _checked(diff * diff))
    r = _checked(1.0 / sigma.data)
    gauss = _checked(np.exp(_checked(neg_sq * r)))

    def backward(g):
        # a2 = (1 - c) + c * exp(-(d - mu)^2 * r), r = 1 / sigma, each step
        # differentiated in the order the step-by-step chain takes
        d_scaled = g * contact * gauss
        if mu.requires_grad:
            d_sq = -1.0 * (d_scaled * r)
            mu.accumulate(np.array([[(-(d_sq * diff + d_sq * diff)).sum()]]))
        if sigma.requires_grad:
            sigma.accumulate(-np.array([[(d_scaled * neg_sq).sum()]]) * r * r)

    return tape.record((1.0 - contact) + _checked(gauss * contact), (mu, sigma), backward)


def _dropout_masks(samples, config: ModelConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Every dropout mask of a batch, drawn in the order ``predict`` states;
    one mask per dropout site, the samples' rows stacked in batch order.

    A site's mask is 0 where a unit drops (``rng.random() < rate``) and
    1 / (1 - rate) where it is kept. The masks equal those drawn with one
    ``rng.random`` call per site, with fewer calls and passes:
    ``rng.random(a)`` followed by ``rng.random(b)`` yields the same numbers
    as ``rng.random(a + b)``, so each sample's sites come from one draw, and
    each site's kept flags are stacked before they are scaled. One draw per
    sample, not per batch, keeps each draw below the size of a site's mask:
    freeing one batch-wide draw (about 6 MB at the paper defaults) raises
    glibc's mmap threshold, and with it peak RSS."""
    rate = config.dropout_rate
    hidden = [(1, d) for d in config.fc_dims[:-1]]
    per_sample = []
    for s in samples:
        sites = [(s.num_atoms, config.gat_dim)] * config.num_gat_layers + hidden
        sizes = [r * c for r, c in sites]
        kept = np.split(rng.random(sum(sizes)) >= rate, np.cumsum(sizes)[:-1])
        per_sample.append([k.reshape(shape) for k, shape in zip(kept, sites)])
    return [np.concatenate(site) / (1.0 - rate) for site in zip(*per_sample)]


def predict(
    tape: Tape,
    samples: list[GraphSample],
    params: ModelParams,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
    internals: dict | None = None,
) -> Value:
    """Forward pass for a batch; returns the G x 1 probabilities on the tape,
    one row per sample in order.

    The batch runs as one block-diagonal graph of the samples' reached
    subgraphs (``Edges.reach``, merged by ``Edges.merge``), so each tape
    operation runs once per batch and each sample's row equals its score
    alone. A2 is materialized on the reached edges only; ``internals``, if
    given, receives A2 over all of the batch's edges (``a2``, in the order
    of the merged ``edges``) and the pooled G x F vectors (``pooled``).
    Dropout runs exactly when ``rng`` is given (training): every mask is
    drawn from it before the forward pass, sample by sample: the attention
    layers' N_s x F masks in layer order, then the hidden fully connected
    layers' 1 x d masks, the order in which one-sample forward passes would
    draw them. An attention layer's mask is then restricted to the reached
    rows."""
    if not samples:
        raise ValueError("predict needs at least one sample")

    masks = None
    if rng is not None and config.dropout_rate > 0:
        masks = iter(_dropout_masks(samples, config, rng))
    sigma = params.sigma_on(tape)

    # The layers run on the rows a contact can reach; every other row's
    # output is exactly zero, so it adds nothing to the pooled sum. Each
    # sample's reach is kept with its edge list, and the batch's is their
    # block-diagonal merge, its rows offset by the atoms before them.
    reach = [s.edges.reach for s in samples]
    reached = Edges.merge([sub for _, sub, _ in reach])
    first = np.cumsum([0] + [s.num_atoms for s in samples[:-1]])
    rows = np.concatenate([r + k for (r, _, _), k in zip(reach, first)])
    features = np.concatenate([s.features[r] for s, (r, _, _) in zip(samples, reach)])
    a2 = materialize_a2(tape, reached, params.mu, sigma)
    h = tape.matmul(constant(features), params.embed)  # widened to float64 by constant
    for layer in params.layers:
        h = gat_forward(tape, h, reached, a2, layer)
        if masks is not None:
            h = tape.dropout(h, next(masks)[rows])

    pooled = tape.sum_rows(h, reached.sizes)
    y = pooled
    last = len(params.fc) - 1
    for k, (w, b) in enumerate(params.fc):
        y = tape.affine(y, w, b)
        if k < last:
            y = tape.relu(y)
            if masks is not None:
                y = tape.dropout(y, next(masks))
    out = tape.sigmoid(y)
    if internals is not None:
        graph = Edges.merge([s.edges for s in samples])
        internals.update(a2=materialize_a2(tape, graph, params.mu, sigma), pooled=pooled)
    return out


def score(sample: GraphSample, params: ModelParams, config: ModelConfig) -> float:
    """Deterministic inference probability (dropout off).

    The forward pass runs on ``params.constants()``, so its tape records no
    node and each value is freed once the pass has moved past it: a score
    holds about one layer's values at a time. The result equals
    ``predict(Tape(), [sample], params, config).item()`` bit for bit."""
    return predict(Tape(), [sample], params.constants(), config).item()


# ---------------------------------------------------------------------------
# Checkpoints
#
# Layout (little-endian):
#   magic             8 bytes b"MOLGATCK"
#   body:
#     version         u32
#     num_gat_layers  u32
#     gat_dim         u32
#     input_dim       u32 (always chem.N_FEATURES, 56)
#     dropout_rate    f64
#     n_fc            u32
#     fc_dims         u32 * n_fc
#     iteration       u64
#     n_tensors       u32
#     per tensor:     u32 rows, u32 cols, rows*cols f64 (row-major)
#   crc32             u32 over the body
# ---------------------------------------------------------------------------

def _expected_shapes(config: ModelConfig) -> list[tuple[int, int]]:
    shapes = [(N_FEATURES, config.gat_dim)]
    f = config.gat_dim
    for _ in range(config.num_gat_layers):
        shapes += [(f, f), (f, f), (2 * f, 1), (1, 1)]
    shapes += [(1, 1), (1, 1)]
    prev = f
    for dim in config.fc_dims:
        shapes += [(prev, dim), (1, dim)]
        prev = dim
    return shapes


def save_params(path, params: ModelParams, config: ModelConfig, iteration: int = 0) -> None:
    """Write a checkpoint atomically; non-finite tensors are refused before
    anything is written."""
    for name, v in params.named_values():
        if not np.isfinite(v.data).all():
            raise NumericError(f"{path}: refusing to save non-finite tensor {name}")
    tensors = params.values()
    parts = [
        struct.pack("<IIII", CHECKPOINT_VERSION, config.num_gat_layers, config.gat_dim, N_FEATURES),
        struct.pack("<d", config.dropout_rate),
        struct.pack("<I", len(config.fc_dims)),
        struct.pack(f"<{len(config.fc_dims)}I", *config.fc_dims),
        struct.pack("<Q", iteration),
        struct.pack("<I", len(tensors)),
    ]
    for v in tensors:
        parts += [struct.pack("<II", v.rows, v.cols), v.data.astype("<f8").tobytes()]
    write_checked(path, CHECKPOINT_MAGIC, b"".join(parts))


def load_params(path):
    """Load a checkpoint; returns ``(params, config, iteration)``.

    Verifies magic, version, checksum, the stored input width (56), every
    tensor shape against the stored config, and that every value is finite;
    nothing is returned on failure (no partial loads).
    """
    with open_checked(path, CHECKPOINT_MAGIC, "checkpoint") as r:
        (version,) = r.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        num_layers, gat_dim, input_dim = r.unpack("<III")
        (dropout_rate,) = r.unpack("<d")
        (n_fc,) = r.unpack("<I")
        fc_dims = r.unpack(f"<{n_fc}I")
        try:
            if input_dim != N_FEATURES:
                raise ValueError(f"input_dim must be {N_FEATURES}, got {input_dim}")
            config = ModelConfig(num_layers, gat_dim, fc_dims, dropout_rate)
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid stored config ({exc})") from None
        (iteration,) = r.unpack("<Q")
        (n_tensors,) = r.unpack("<I")
        count = 4 * num_layers + 3 + 2 * n_fc  # the length of _expected_shapes(config)
        if n_tensors != count:
            raise CheckpointError(f"{path}: expected {count} tensors, found {n_tensors}")
        if 16 * count > r.remaining:  # each tensor holds a shape and at least one value
            raise CheckpointError(f"{path}: checkpoint truncated")
        shapes = _expected_shapes(config)
        tensors = []
        for expected in shapes:
            rows, cols = r.unpack("<II")
            if (rows, cols) != expected:
                raise CheckpointError(
                    f"{path}: tensor shape ({rows},{cols}) does not match config shape {expected}"
                )
            data = np.frombuffer(r.take(8 * rows * cols), dtype="<f8").reshape(rows, cols)
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {len(tensors)} has non-finite values")
            tensors.append(parameter(data.copy()))
        r.finish()
    return ModelParams.from_values(tensors, num_layers, n_fc), config, int(iteration)
