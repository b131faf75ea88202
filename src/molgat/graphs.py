"""Model-ready graph samples: pruning, adjacency, distances, pose labels, cache.

A ``GraphSample`` holds everything the network consumes for one complex:
binary node features, the covalent adjacency (with self-loops), the dense
interatomic distance matrix, and the intermolecular contact mask marking
ligand-protein pairs closer than the contact cutoff. Gaussian contact weights
are deliberately NOT materialized here; the model computes them on the tape
so gradients reach the distance-profile parameters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .chem import CATEGORIES, ComplexRecord, featurize, ligand_first, select_atoms
from .errors import CheckpointError, DataError
from .fileio import Reader, read_checked, write_checked

PRUNE_CUTOFF = 8.0  # protein atoms farther than this from every ligand atom are removed
CONTACT_CUTOFF = 5.0  # intermolecular pairs closer than this enter the contact mask

CACHE_MAGIC = b"MOLGATGC"
CACHE_VERSION = 1


@dataclass
class GraphSample:
    features: np.ndarray  # N x 56 binary
    a1: np.ndarray  # N x N covalent adjacency, unit diagonal
    dist: np.ndarray  # N x N distances in angstroms
    inter_mask: np.ndarray  # N x N {0,1}, intermolecular contacts only
    complex_id: str
    protein_id: str
    category: str = "unlabeled"
    label: int | None = None
    rmsd: float | None = None

    @property
    def num_atoms(self) -> int:
        return self.features.shape[0]


def prune_protein(rec: ComplexRecord, cutoff: float = PRUNE_CUTOFF) -> ComplexRecord:
    """Drop protein atoms farther than ``cutoff`` from every ligand atom.

    Bonds touching removed atoms are dropped; per-atom annotations are kept
    as-is (they describe the unpruned molecule). Idempotent.
    """
    coords = rec.coordinates()
    is_lig = np.array([a.is_ligand for a in rec.atoms])
    lig = coords[is_lig]
    diff = coords[:, None, :] - lig[None, :, :]
    min_dist = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
    keep = is_lig | (min_dist <= cutoff)
    if keep.all():
        return rec
    if not (keep & ~is_lig).any():
        raise DataError(f"{rec.complex_id}: no protein atoms within {cutoff} A of the ligand")
    atoms, bonds = select_atoms(rec.atoms, rec.bonds, keep)
    return replace(rec, atoms=atoms, bonds=bonds)


def build_sample(rec: ComplexRecord, stats: dict | None = None) -> GraphSample:
    """Assemble a GraphSample from a (pruned) record.

    Atoms are reordered ligand-first so rows align with the feature matrix.
    The covalent adjacency gets a unit diagonal; the contact mask marks
    opposite-side pairs strictly closer than ``CONTACT_CUTOFF``.
    """
    ordered = ligand_first(rec)
    coords = ordered.coordinates()
    if not np.isfinite(coords).all():
        raise DataError(f"{rec.complex_id}: non-finite coordinates")
    n = len(ordered.atoms)
    feats = featurize(ordered, stats)

    a1 = np.eye(n, dtype=np.float64)
    for b in ordered.bonds:
        a1[b.i, b.j] = 1.0
        a1[b.j, b.i] = 1.0

    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

    is_lig = np.array([a.is_ligand for a in ordered.atoms])
    opposite = is_lig[:, None] != is_lig[None, :]
    inter_mask = (opposite & (dist < CONTACT_CUTOFF)).astype(np.float64)

    return GraphSample(
        features=feats,
        a1=a1,
        dist=dist,
        inter_mask=inter_mask,
        complex_id=ordered.complex_id,
        protein_id=ordered.protein_id,
        category=ordered.category,
        label=ordered.effective_label(),
        rmsd=ordered.rmsd,
    )


def compute_rmsd(pose: np.ndarray, reference: np.ndarray) -> float:
    """Root mean square deviation between matched coordinate sets.

    No superposition is performed (poses share the protein frame) and no
    graph-symmetry correction is applied. Callers are responsible for
    restricting to heavy atoms; see ``ligand_rmsd``.
    """
    pose = np.asarray(pose, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if pose.shape != reference.shape:
        raise DataError(f"rmsd: atom count mismatch ({pose.shape} vs {reference.shape})")
    if pose.ndim != 2 or pose.shape[1] != 3 or pose.shape[0] == 0:
        raise DataError(f"rmsd: expected an Nx3 coordinate array, got {pose.shape}")
    disp = pose - reference
    return float(np.sqrt((disp * disp).sum(axis=1).mean()))


def ligand_rmsd(pose: ComplexRecord, reference: ComplexRecord) -> float:
    """RMSD over the ligand heavy atoms of two records of the same molecule."""

    def heavy_coords(rec):
        return np.array(
            [a.position for a in rec.atoms if a.is_ligand and a.element != "H"],
            dtype=np.float64,
        )

    return compute_rmsd(heavy_coords(pose), heavy_coords(reference))


def label_pose(rmsd: float) -> int | None:
    """Pose label from RMSD: <2 A positive, >4 A negative, otherwise omitted (None)."""
    if rmsd < 0:
        raise DataError(f"rmsd must be non-negative, got {rmsd}")
    if rmsd < 2.0:
        return 1
    if rmsd > 4.0:
        return 0
    return None


# ---------------------------------------------------------------------------
# Binary cache
#
# Layout (all integers little-endian):
#   magic               8 bytes  b"MOLGATGC"
#   version             u32
#   sample count        u64
#   per sample:
#     complex_id        u32 length + utf-8 bytes
#     protein_id        u32 length + utf-8 bytes
#     category          u8 (index into chem.CATEGORIES)
#     label             i8 (-1 = absent)
#     rmsd              f64 (NaN = absent)
#     n_atoms           u32
#     features          n*56 bytes (uint8)
#     a1                n*n bytes (uint8)
#     inter_mask        n*n bytes (uint8)
#     dist              n*n f64
#   crc32               u32 over everything after the magic
# ---------------------------------------------------------------------------

def _encode_sample(s: GraphSample) -> bytes:
    parts = []
    for text in (s.complex_id, s.protein_id):
        raw = text.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(struct.pack("<Bb", CATEGORIES.index(s.category), -1 if s.label is None else s.label))
    parts.append(struct.pack("<d", np.nan if s.rmsd is None else s.rmsd))
    n = s.num_atoms
    parts.append(struct.pack("<I", n))
    parts.append(s.features.astype(np.uint8).tobytes())
    parts.append(s.a1.astype(np.uint8).tobytes())
    parts.append(s.inter_mask.astype(np.uint8).tobytes())
    parts.append(s.dist.astype("<f8").tobytes())
    return b"".join(parts)


def _decode_sample(r: Reader) -> GraphSample:
    texts = []
    for _ in range(2):
        (length,) = r.unpack("<I")
        texts.append(r.take(length).decode("utf-8"))
    cat_idx, label = r.unpack("<Bb")
    (rmsd,) = r.unpack("<d")
    (n,) = r.unpack("<I")
    feats = np.frombuffer(r.take(n * 56), dtype=np.uint8).reshape(n, 56).astype(np.float64)
    a1 = np.frombuffer(r.take(n * n), dtype=np.uint8).reshape(n, n).astype(np.float64)
    inter = np.frombuffer(r.take(n * n), dtype=np.uint8).reshape(n, n).astype(np.float64)
    dist = np.frombuffer(r.take(n * n * 8), dtype="<f8").reshape(n, n).astype(np.float64)
    return GraphSample(
        features=feats,
        a1=a1,
        dist=dist,
        inter_mask=inter,
        complex_id=texts[0],
        protein_id=texts[1],
        category=CATEGORIES[cat_idx],
        label=None if label < 0 else int(label),
        rmsd=None if np.isnan(rmsd) else float(rmsd),
    )


def write_cache(samples, path) -> None:
    body = struct.pack("<I", CACHE_VERSION) + struct.pack("<Q", len(samples))
    body += b"".join(_encode_sample(s) for s in samples)
    write_checked(path, CACHE_MAGIC, body)


def read_cache(path) -> list[GraphSample]:
    r = read_checked(path, CACHE_MAGIC, "graph cache")
    (version,) = r.unpack("<I")
    if version != CACHE_VERSION:
        raise CheckpointError(f"{path}: unsupported cache version {version}")
    (count,) = r.unpack("<Q")
    samples = [_decode_sample(r) for _ in range(count)]
    r.finish()
    return samples
