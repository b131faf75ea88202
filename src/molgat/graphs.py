"""Model-ready graph samples: pruning, pose labels, cache.

A ``GraphSample`` stores only O(N) data for one complex: binary node
features, coordinates (ligand rows first), the ligand/protein flag of each
atom and the covalent bond list. The network consumes its ``reach``: the
rows an intermolecular contact (a ligand-protein pair closer than the contact
cutoff) can reach, with their self-loops and both directions of the bonds
among them and of every contact, built on first access from one contact
search and kept with the sample. Pruning goes through
``chem.protein_within``, the rule ``chem.parse_complex`` also prunes a file
pair by, and the contact search through ``chem.pairs_within``; both compare
protein atoms with ligand atoms only, so no N x N array is built. The dense views
``a1`` (covalent adjacency with self-loops), ``dist`` (interatomic distances)
and ``inter_mask`` (contact mask) are derived on access for inspection and
tests. Gaussian contact weights are deliberately NOT materialized here; the
model computes them on the tape so gradients reach the distance-profile
parameters.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chem import CATEGORIES, CATEGORY_LABELS, N_FEATURES, ComplexRecord, _feature_rows, _with_atoms
from .chem import featurize  # noqa: F401 - unused here; perfbench/spans.py patches graphs.featurize
from .chem import ligand_first, pairs_within, pairwise_distances, protein_within, repeats, select_atoms
from .errors import CheckpointError, DataError
from .fileio import Reader, open_checked, write_checked

PRUNE_CUTOFF = 8.0  # protein atoms farther than this from every ligand atom are removed
CONTACT_CUTOFF = 5.0  # intermolecular pairs closer than this enter the contact mask

CACHE_MAGIC = b"MOLGATGC"
CACHE_VERSION = 2


@dataclass(frozen=True)
class Edges:
    """Directed edge list of one graph, or of a batch of graphs laid out
    block-diagonally, sorted by ``(src, dst)``.

    The edge set is symmetric (every ``(i, j)`` has its ``(j, i)``), holds
    each pair once and a self-loop for every node, so every row is a
    non-empty segment. ``starts[i]`` is the index of row i's first edge,
    ``rev[e]`` the index of the edge reversing ``e``, ``contact`` flags the
    intermolecular contact edges, and ``dist`` holds each contact edge's
    distance (0 on self-loops and bonds). ``sizes`` holds the node count of
    each graph: graph g owns the ``sizes[g]`` nodes after those of graphs
    0..g-1, and no edge joins two graphs.

    Two views are derived on first access and kept with the edge list, for
    the edge kernels of ``autodiff``: ``blocks`` places every edge in its
    graph's dense n x n block and ``buckets`` groups the rows by degree.
    """

    src: np.ndarray  # E int
    dst: np.ndarray  # E int
    starts: np.ndarray  # N int
    rev: np.ndarray  # E int
    contact: np.ndarray  # E bool
    dist: np.ndarray  # E float
    sizes: np.ndarray  # G int

    @classmethod
    def build(cls, n: int, pairs: np.ndarray, contacts: np.ndarray | None = None,
              contact_dist: np.ndarray | None = None) -> "Edges":
        """Edges of n nodes from undirected ``pairs`` (Kx2, bonds) and
        ``contacts`` (Cx2, with distances ``contact_dist``); self-loops and
        both directions are added, repeated pairs are kept once."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        contacts = np.empty((0, 2), np.int64) if contacts is None else np.asarray(contacts, np.int64)
        if contact_dist is None:
            contact_dist = np.zeros(len(contacts))
        loops = np.arange(n, dtype=np.int64)
        src = np.concatenate([loops, pairs[:, 0], pairs[:, 1], contacts[:, 0], contacts[:, 1]])
        dst = np.concatenate([loops, pairs[:, 1], pairs[:, 0], contacts[:, 1], contacts[:, 0]])
        covalent = n + 2 * len(pairs)
        is_contact = np.arange(len(src)) >= covalent
        dist = np.concatenate([np.zeros(covalent), contact_dist, contact_dist])
        keys, first = np.unique(src * n + dst, return_index=True)
        src, dst = np.divmod(keys, n)
        return cls(
            src=src,
            dst=dst,
            starts=np.searchsorted(src, loops),
            rev=np.searchsorted(keys, dst * n + src),
            contact=is_contact[first],
            dist=dist[first],
            sizes=np.array([n]),
        )

    @classmethod
    def merge(cls, parts: list["Edges"]) -> "Edges":
        """One block-diagonal edge list of ``parts``, in order: the nodes and
        edges of each part follow those of the parts before it. A single
        part is returned as is."""
        if len(parts) == 1:
            return parts[0]
        nodes = np.cumsum([0] + [len(p.starts) for p in parts[:-1]])
        edges = np.cumsum([0] + [len(p.src) for p in parts[:-1]])
        return cls(
            src=np.concatenate([p.src + k for p, k in zip(parts, nodes)]),
            dst=np.concatenate([p.dst + k for p, k in zip(parts, nodes)]),
            starts=np.concatenate([p.starts + k for p, k in zip(parts, edges)]),
            rev=np.concatenate([p.rev + k for p, k in zip(parts, edges)]),
            contact=np.concatenate([p.contact for p in parts]),
            dist=np.concatenate([p.dist for p in parts]),
            sizes=np.concatenate([p.sizes for p in parts]),
        )

    @cached_property
    def blocks(self) -> tuple[list[tuple[int, int, int]], np.ndarray, int]:
        """Each graph's dense n x n adjacency block, the blocks laid end to end
        in one flat buffer: ``(first node, n, first entry)`` per graph, the
        flat position of every edge (row-major within its block) and the
        buffer length, the sum of n^2."""
        n = self.sizes
        first_node = np.cumsum(n) - n
        first_entry = np.cumsum(n * n) - n * n
        g = np.repeat(np.arange(len(n)), n)[self.src]
        index = first_entry[g] + (self.src - first_node[g]) * n[g] + self.dst - first_node[g]
        bounds = list(zip(first_node.tolist(), n.tolist(), first_entry.tolist()))
        return bounds, index, int(n @ n)

    @cached_property
    def buckets(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The rows grouped by degree (the sliced-ELLPACK layout): for each
        degree d present, in increasing order, the n_d rows of degree d and
        the n_d x d matrix of their edges, row r's edges being the run
        ``starts[r]`` .. ``starts[r] + d - 1``."""
        degree = np.diff(self.starts, append=len(self.src))
        order = np.argsort(degree, kind="stable")
        d, first = np.unique(degree[order], return_index=True)
        return [(rows, self.starts[rows][:, None] + np.arange(k))
                for k, rows in zip(d.tolist(), np.split(order, first[1:]))]


@dataclass
class GraphSample:
    features: np.ndarray  # N x 56 binary, uint8 as featurized or read
    coords: np.ndarray  # N x 3 angstroms, ligand rows first
    is_ligand: np.ndarray  # N bool
    bonds: np.ndarray  # K x 2 int, i < j, covalent bonds within one side
    complex_id: str
    protein_id: str
    category: str = "unlabeled"
    label: int | None = None
    rmsd: float | None = None

    @property
    def num_atoms(self) -> int:
        return self.features.shape[0]

    @cached_property
    def reach(self) -> tuple[np.ndarray, Edges]:
        """The graph the model runs on: ``(rows, subgraph)``. ``rows`` holds,
        in increasing order, every end of a contact (a ligand-protein pair
        closer than ``CONTACT_CUTOFF``, from one ligand x protein search),
        the atoms bonded to them, and row 0 (so a sample without contacts
        keeps a row); ``subgraph`` their self-loops, the bonds among them and
        every contact with its distance, each row renumbered to its position
        in ``rows``. A contact end keeps all its edges. Kept after the first
        access: a sample's arrays must not change in place."""
        lig = np.flatnonzero(self.is_ligand)
        prot = np.flatnonzero(~self.is_ligand)
        li, pj, d = pairs_within(self.coords[lig], self.coords[prot], CONTACT_CUTOFF)
        close = d < CONTACT_CUTOFF
        contacts = np.stack([lig[li[close]], prot[pj[close]]], axis=1)
        reached = np.zeros(self.num_atoms, dtype=bool)
        reached[contacts] = True
        reached[self.bonds[reached[self.bonds[:, ::-1]]]] = True  # the bond partners of the contact ends
        reached[0] = True
        rows = np.flatnonzero(reached)
        renumber = np.cumsum(reached) - 1
        bonds = self.bonds[reached[self.bonds].all(axis=1)]
        return rows, Edges.build(len(rows), renumber[bonds], renumber[contacts], d[close])

    @property
    def a1(self) -> np.ndarray:
        """N x N covalent adjacency with a unit diagonal."""
        a1 = np.eye(self.num_atoms, dtype=np.float64)
        a1[self.bonds[:, 0], self.bonds[:, 1]] = 1.0
        a1[self.bonds[:, 1], self.bonds[:, 0]] = 1.0
        return a1

    @property
    def dist(self) -> np.ndarray:
        """N x N interatomic distances in angstroms."""
        return pairwise_distances(self.coords, self.coords)

    @property
    def inter_mask(self) -> np.ndarray:
        """N x N {0,1} intermolecular contacts (opposite sides, d < 5 A)."""
        mask = self.dist < CONTACT_CUTOFF
        mask &= self.is_ligand[:, None] != self.is_ligand[None, :]
        return mask.astype(np.float64)


def prune_protein(rec: ComplexRecord, cutoff: float = PRUNE_CUTOFF) -> ComplexRecord:
    """Drop protein atoms farther than ``cutoff`` from every ligand atom.

    Bonds touching removed atoms are dropped; per-atom annotations are kept
    as-is (they describe the unpruned molecule). Idempotent.
    ``chem.parse_complex(..., cutoff=cutoff)`` returns the same record from
    a file pair without assembling the whole one first.
    """
    coords = rec.coordinates()
    is_lig = np.array([a.is_ligand for a in rec.atoms], dtype=bool)
    keep = is_lig.copy()
    keep[~is_lig] = protein_within(rec.complex_id, coords[~is_lig], coords[is_lig], cutoff)
    if keep.all():
        return rec
    return _with_atoms(rec, *select_atoms(rec.atoms, rec.bonds, keep))


def build_sample(rec: ComplexRecord, stats: dict | None = None) -> GraphSample:
    """Assemble a GraphSample from a (pruned) record.

    Atoms are reordered ligand-first so rows align with the feature matrix,
    and each bond is stored as ``(i, j)`` with ``i < j``.
    """
    ordered = ligand_first(rec)
    coords = ordered.coordinates()
    if not np.isfinite(coords).all():
        raise DataError(f"{rec.complex_id}: non-finite coordinates")
    bonds = np.array([(b.i, b.j) for b in ordered.bonds], dtype=np.int64).reshape(-1, 2)
    return GraphSample(
        features=_feature_rows(ordered.atoms, stats),
        coords=coords,
        is_ligand=np.array([a.is_ligand for a in ordered.atoms], dtype=bool),
        bonds=np.sort(bonds, axis=1),
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
#   version             u32      2
#   sample count        u64
#   per sample:
#     complex_id        u32 length + utf-8 bytes
#     protein_id        u32 length + utf-8 bytes
#     category          u8 (index into chem.CATEGORIES)
#     label             i8 (-1 = absent)
#     rmsd              f64 (NaN = absent)
#     n_atoms           u32
#     features          n*56 bytes (uint8)
#     is_ligand         n bytes (uint8, 0 or 1)
#     coords            n*3 f64
#     n_bonds           u32
#     bonds             n_bonds*2 u32, each pair i < j < n, no pair twice
#   crc32               u32 over everything after the magic
# ---------------------------------------------------------------------------

def _record_fault(category_index, label, rmsd, flags, feats, coords, bonds) -> str | None:
    """The first record rule a cached sample breaks, given its fields as the
    cache stores them (``bonds`` as read back, int64), or ``None``. The
    reader checks every sample it decodes, and the writer every sample
    before anything is written, so a cache that ``write_cache`` writes reads
    back."""
    n = len(flags)
    if category_index >= len(CATEGORIES) or label not in (-1, 0, 1):
        return f"category index {category_index} or label {label} out of range"
    category = CATEGORIES[category_index]
    if label >= 0 and CATEGORY_LABELS.get(category, label) != label:
        return f"label {label} contradicts category {category}"
    if rmsd < 0 or rmsd == np.inf:  # NaN, the absent rmsd, fails both
        return f"rmsd must be a finite non-negative number, got {rmsd}"
    if (flags > 1).any():
        return "is_ligand byte other than 0/1"
    if flags.all() or not flags.any():
        return "sample needs at least one ligand and one protein atom"
    if (feats > 1).any():
        return "feature byte other than 0/1"
    if not np.isfinite(coords).all():
        return "non-finite coordinates"
    if ((bonds[:, 0] >= bonds[:, 1]) | (bonds[:, 1] >= n)).any():
        return "bond index out of range or not i < j < n_atoms"
    is_ligand = flags.astype(bool)
    if (is_ligand[bonds[:, 0]] != is_ligand[bonds[:, 1]]).any():
        return "covalent bond crosses the ligand/protein boundary"
    repeated = repeats(bonds[:, 0] * n + bonds[:, 1])
    if repeated.any():
        i, j = bonds[np.argmax(repeated)].tolist()
        return f"bond ({i},{j}) is repeated"
    return None


def _encode_sample(s: GraphSample) -> bytes:
    parts = []
    for text in (s.complex_id, s.protein_id):
        raw = text.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(struct.pack("<Bb", CATEGORIES.index(s.category), -1 if s.label is None else s.label))
    parts.append(struct.pack("<d", np.nan if s.rmsd is None else s.rmsd))
    parts.append(struct.pack("<I", s.num_atoms))
    parts.append(s.features.astype(np.uint8).tobytes())
    parts.append(s.is_ligand.astype(np.uint8).tobytes())
    parts.append(s.coords.astype("<f8").tobytes())
    parts.append(struct.pack("<I", len(s.bonds)))
    parts.append(s.bonds.astype("<u4").tobytes())
    return b"".join(parts)


def _checked_sample(s: GraphSample, path) -> bytes:
    """``s`` encoded, once its fields as stored break no record rule;
    ``DataError`` naming ``path`` and the sample otherwise."""
    where = f"{path}: sample {s.complex_id!r}"
    n = s.num_atoms
    if s.features.shape != (n, N_FEATURES) or s.is_ligand.shape != (n,) or s.coords.shape != (n, 3) \
            or s.bonds.ndim != 2 or s.bonds.shape[1] != 2:
        raise DataError(f"{where}: array shapes do not match {n} atoms")
    category_index = CATEGORIES.index(s.category) if s.category in CATEGORIES else len(CATEGORIES)
    fault = _record_fault(
        category_index, -1 if s.label is None else s.label, np.nan if s.rmsd is None else s.rmsd,
        s.is_ligand.astype(np.uint8), s.features.astype(np.uint8), s.coords.astype("<f8"),
        s.bonds.astype("<u4").astype(np.int64),
    )
    if fault:
        raise DataError(f"{where}: {fault}")
    return _encode_sample(s)


def _decode_sample(r: Reader, index: int) -> GraphSample:
    texts = []
    for field in ("complex_id", "protein_id"):
        (length,) = r.unpack("<I")
        try:
            texts.append(r.take(length).decode("utf-8"))
        except UnicodeDecodeError:  # the id may be the bad bytes, so the sample is named by index
            raise CheckpointError(f"{r.where} sample {index}: {field} is not UTF-8") from None
    cat_idx, label = r.unpack("<Bb")
    (rmsd,) = r.unpack("<d")
    (n,) = r.unpack("<I")
    feats = np.frombuffer(r.take(n * N_FEATURES), dtype=np.uint8).reshape(n, N_FEATURES)
    flags = np.frombuffer(r.take(n), dtype=np.uint8)
    coords = np.frombuffer(r.take(n * 24), dtype="<f8").reshape(n, 3).astype(np.float64)
    (n_bonds,) = r.unpack("<I")
    bonds = np.frombuffer(r.take(n_bonds * 8), dtype="<u4").reshape(n_bonds, 2).astype(np.int64)
    fault = _record_fault(cat_idx, label, rmsd, flags, feats, coords, bonds)
    if fault:
        raise CheckpointError(f"{r.where} sample {texts[0]!r}: {fault}")
    return GraphSample(
        features=feats.copy(),  # writable, like the features of a built sample
        coords=coords,
        is_ligand=flags.astype(bool),
        bonds=bonds,
        complex_id=texts[0],
        protein_id=texts[1],
        category=CATEGORIES[cat_idx],
        label=None if label < 0 else int(label),
        rmsd=None if np.isnan(rmsd) else float(rmsd),
    )


def write_cache(samples, path) -> None:
    """Write ``samples`` as a graph cache, atomically. A sample that breaks
    a record rule the reader checks (``_record_fault``) raises ``DataError``
    before anything is written."""
    body = struct.pack("<I", CACHE_VERSION) + struct.pack("<Q", len(samples))
    body += b"".join(_checked_sample(s, path) for s in samples)
    write_checked(path, CACHE_MAGIC, body)


def iter_cache(path) -> Iterator[GraphSample]:
    """The samples of the cache at ``path``, decoded and validated one at a
    time from one open file. Its magic, checksum and version are checked
    before this returns; its exact length after the last sample. The file is
    closed when the iterator is exhausted, closed or collected."""
    samples = _decode_cache(path)
    next(samples)  # runs the checks up to the first sample
    return samples


def _decode_cache(path):
    with open_checked(path, CACHE_MAGIC, "graph cache") as r:
        (version,) = r.unpack("<I")
        if version != CACHE_VERSION:
            raise CheckpointError(f"{path}: unsupported cache version {version}")
        (count,) = r.unpack("<Q")
        yield  # suspended inside the block, so dropping the iterator closes the file
        for k in range(count):
            yield _decode_sample(r, k)
        r.finish()


def read_cache(path) -> list[GraphSample]:
    return list(iter_cache(path))
