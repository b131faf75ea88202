"""Shared test utilities: the finite-difference gradient oracle, pocket-size
graph samples and a long ligand in a contact shell, random edge lists, the
dense view of per-edge values, a recorder of gradient shapes, the one-sample
loss, one-site dropout mask and parameter count the tests check the model
against, one atom's feature row, a record's ligand atom count, the rows of a
training log, a whole-file decode of a graph cache, one attention layer's
initial weights, the ligand heavy-atom RMSD of two records, and every record
of a JSON-lines file.

The oracle only ever calls the forward pass, so it stays independent of the
analytic backward rules it is used to check.
"""

import csv
import struct
import zlib

import numpy as np

from molgat import chem
from molgat.autodiff import Value, constant, parameter
from molgat.errors import DataError
from molgat.fileio import write_checked
from molgat.gat import GatParams
from molgat.graphs import (CACHE_MAGIC, CACHE_VERSION, Edges, GraphSample, _encode_sample, compute_rmsd,
                           pairwise_distances)
from molgat.model import glorot


def finite_difference_grads(fn, leaves, h=1e-5):
    """Central-difference gradient of the scalar ``fn()`` w.r.t. each leaf.

    ``fn`` must re-run the forward computation from the leaves' current
    ``data`` and return a float. Entries are perturbed in place.
    """
    grads = []
    for leaf in leaves:
        grad = np.zeros_like(leaf.data)
        flat = leaf.data.ravel()
        grad_flat = grad.ravel()
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + h
            f_plus = fn()
            flat[k] = original - h
            f_minus = fn()
            flat[k] = original
            grad_flat[k] = (f_plus - f_minus) / (2.0 * h)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric, floor=1e-4):
    """max |a - n| / max(|a|, |n|, floor); the floor keeps near-zero
    gradients from amplifying finite-difference noise."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(fn, leaves, tol, h=1e-5, floor=1e-4):
    """Assert every leaf's accumulated gradient matches the FD oracle."""
    numeric = finite_difference_grads(fn, leaves, h=h)
    for leaf, num in zip(leaves, numeric):
        assert leaf.grad is not None, "leaf received no gradient"
        err = max_relative_error(leaf.grad, num, floor=floor)
        assert err <= tol, f"gradient mismatch: max relative error {err:g} > {tol:g}"


def pocket_sample(n_atoms, seed, n_ligand=30):
    """A binding-pocket-size sample: a bonded ligand chain inside a shell of
    protein atoms at about heavy-atom protein density, with random sparse
    binary features. Atoms closer than 1.6 A on the protein side are bonded.
    """
    rng = np.random.default_rng(seed)
    lig = np.zeros((n_ligand, 3))
    for k in range(1, n_ligand):
        step = rng.normal(size=3)
        lig[k] = lig[k - 1] + 1.5 * step / np.linalg.norm(step)
        lig[k] *= min(1.0, 5.0 / np.linalg.norm(lig[k]))
    n_prot = n_atoms - n_ligand
    inner, outer = 3.0, (n_prot / 0.05 / (4.0 / 3.0 * np.pi) + 8.0**3) ** (1 / 3)
    dirs = rng.normal(size=(n_prot, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(inner**3, outer**3, size=(n_prot, 1)) ** (1 / 3)
    prot = lig.mean(axis=0) + dirs * radii
    close = np.triu(pairwise_distances(prot, prot) < 1.6, k=1)
    prot_bonds = np.argwhere(close) + n_ligand
    lig_bonds = np.stack([np.arange(n_ligand - 1), np.arange(1, n_ligand)], axis=1)
    return GraphSample(
        features=(rng.random((n_atoms, 56)) < 0.1).astype(np.float64),
        coords=np.concatenate([lig, prot]),
        is_ligand=np.arange(n_atoms) < n_ligand,
        bonds=np.concatenate([lig_bonds, prot_bonds]).astype(np.int64),
        complex_id=f"pocket{n_atoms}-{seed}",
        protein_id="pocket",
    )


def ligand_in_a_shell(n_ligand, seed):
    """A long bonded ligand chain (1.5 A steps along x, jittered) in a shell
    of protein atoms 3-6 A from it at about heavy-atom protein density, with
    random sparse binary features. Protein atoms closer than 1.6 A are
    bonded. Each ligand atom touches only its part of the shell, so the
    reached subgraph is large and sparse."""
    rng = np.random.default_rng(seed)
    lig = np.cumsum([1.5, 0.0, 0.0] + rng.normal(scale=0.2, size=(n_ligand, 3)), axis=0)
    lo, hi = lig.min(axis=0) - 6.0, lig.max(axis=0) + 6.0
    candidates = rng.uniform(lo, hi, size=(int(0.05 * np.prod(hi - lo)), 3))
    gap = pairwise_distances(candidates, lig).min(axis=1)
    prot = candidates[(gap > 3.0) & (gap < 6.0)]
    close = np.triu(pairwise_distances(prot, prot) < 1.6, k=1)
    lig_bonds = np.stack([np.arange(n_ligand - 1), np.arange(1, n_ligand)], axis=1)
    n_atoms = n_ligand + len(prot)
    return GraphSample(
        features=(rng.random((n_atoms, 56)) < 0.1).astype(np.float64),
        coords=np.concatenate([lig, prot]),
        is_ligand=np.arange(n_atoms) < n_ligand,
        bonds=np.concatenate([lig_bonds, np.argwhere(close) + n_ligand]).astype(np.int64),
        complex_id=f"shell{n_ligand}-{seed}",
        protein_id="shell",
    )


def record_gradient_shapes(monkeypatch):
    """A list that collects the shape of every gradient a backward rule hands
    to ``Value.accumulate`` from now on. ``Tape.backward`` drops each node's
    gradient once passed on, so this is the only place to see them all."""
    passed = []
    accumulate = Value.accumulate

    def record(self, g, copy=False):
        passed.append(np.shape(g))
        accumulate(self, g, copy=copy)

    monkeypatch.setattr(Value, "accumulate", record)
    return passed


def random_edges(rng, n, density=0.4):
    """A random symmetric edge list on n nodes (self-loops always present),
    with about a third of the non-loop pairs flagged as contacts."""
    i, j = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    pairs = np.stack([i, j], axis=1)
    is_contact = rng.random(len(pairs)) < 0.3
    return Edges.build(n, pairs[~is_contact], pairs[is_contact])


def dense_of(edges, values):
    """N x N matrix holding each edge's value at (src, dst), zero elsewhere."""
    n = len(edges.starts)
    m = np.zeros((n, n))
    m[edges.src, edges.dst] = np.asarray(values).reshape(-1)
    return m


def bce_loss(tape, pred, label):
    """Binary cross entropy of one prediction, recording only the labelled branch:
    ``-log(p)`` for label 1, ``-log(1 - p)`` for label 0; logs clamped at 1e-12."""
    if label not in (0, 1):
        raise DataError(f"label must be 0 or 1, got {label!r}")
    p = pred if label == 1 else tape.sub(constant([[1.0]]), pred)
    return tape.scale(tape.log(p), -1.0)


def dropout_mask(shape, rate, rng):
    """Inverted-dropout mask drawn from ``rng``: False where a unit drops
    (with probability ``rate``), True where it is kept; ``Tape.dropout``
    scales the kept units by 1 / (1 - rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    return rng.random(shape) >= rate


def num_parameters(params):
    """Number of learnable scalars in a ``ModelParams``."""
    return sum(v.data.size for v in params.values())


def atom_feature_row(atom, stats=None):
    """56-wide binary feature row for one atom (see ``chem.featurize``)."""
    return chem._feature_rows([atom], stats)[0]


def num_ligand_atoms(rec):
    """Number of ligand atoms in a ``ComplexRecord``."""
    return sum(1 for a in rec.atoms if a.is_ligand)


def ligand_rmsd(pose, reference) -> float:
    """RMSD over the ligand heavy atoms of two records of the same molecule:
    the reference the pose generator's RMSD is checked against."""

    def heavy_coords(rec):
        return np.array(
            [a.position for a in rec.atoms if a.is_ligand and a.element != "H"],
            dtype=np.float64,
        )

    return compute_rmsd(heavy_coords(pose), heavy_coords(reference))


def read_jsonl(path) -> list[chem.ComplexRecord]:
    """Every record of a JSON-lines file, in file order; the first bad line
    raises ``ParseError``."""
    return [chem.record_from_json_line(line, path=path, lineno=lineno) for lineno, line in chem.jsonl_lines(path)]


def init_gat_params(dim: int, rng: np.random.Generator) -> GatParams:
    """One attention layer's weights, drawn as ``ModelParams.initialize``
    draws a layer's."""
    return GatParams(
        w=glorot(dim, dim, rng),
        e=glorot(dim, dim, rng),
        u=glorot(2 * dim, 1, rng),
        b=parameter(np.zeros((1, 1))),
    )


def write_unchecked(samples, path) -> None:
    """The graph cache ``write_cache`` writes, without its record check: a
    cache whose samples may break the rules the reader refuses."""
    body = struct.pack("<IQ", CACHE_VERSION, len(samples)) + b"".join(_encode_sample(s) for s in samples)
    write_checked(path, CACHE_MAGIC, body)


def log_rows(result):
    """The rows of a training run's ``train_log.csv``, each a dict of strings."""
    with open(result.log_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def whole_file_samples(path) -> list[dict]:
    """The samples of a graph cache as dicts of their fields, decoded from the
    whole file at once straight from the layout in docs/formats.md, with no
    validation beyond the magic, checksum and length: the oracle the streamed
    reader is compared with."""
    with open(path, "rb") as fh:
        blob = fh.read()
    body = blob[len(CACHE_MAGIC):-4]
    assert blob[:len(CACHE_MAGIC)] == CACHE_MAGIC and struct.unpack("<I", blob[-4:]) == (zlib.crc32(body),)
    _, count = struct.unpack_from("<IQ", body)
    off = 12
    samples = []

    def array(dtype, count, shape):
        nonlocal off
        out = np.frombuffer(body, dtype, count, off).reshape(shape)
        off += out.nbytes
        return out

    for _ in range(count):
        fields = {}
        for name in ("complex_id", "protein_id"):
            (length,) = struct.unpack_from("<I", body, off)
            fields[name] = body[off + 4:off + 4 + length].decode("utf-8")
            off += 4 + length
        category, label, rmsd, n = struct.unpack_from("<BbdI", body, off)
        off += 14
        fields.update(category=chem.CATEGORIES[category], label=None if label < 0 else label,
                      rmsd=None if np.isnan(rmsd) else rmsd)
        fields["features"] = array(np.uint8, n * chem.N_FEATURES, (n, chem.N_FEATURES))
        fields["is_ligand"] = array(np.uint8, n, n).astype(bool)
        fields["coords"] = array("<f8", 3 * n, (n, 3)).astype(np.float64)
        (n_bonds,) = struct.unpack_from("<I", body, off)
        off += 4
        fields["bonds"] = array("<u4", 2 * n_bonds, (n_bonds, 2)).astype(np.int64)
        samples.append(fields)
    assert off == len(body)
    return samples
