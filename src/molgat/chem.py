"""Structure ingestion: canonical JSON-lines records, SDF/PDB readers, atom features.

The canonical on-disk format is JSON lines, one complex per line, with every
per-atom annotation explicit (see ``record_to_json_line``). SDF V2000 plus PDB
input is supported as a convenience path that derives the same annotations
from the file contents; chemistry perception beyond that (protonation,
aromaticity detection, sanitization) is out of scope.

Feature encoding, per atom, is a 56-wide binary row: columns 0-27 are the
ligand block, 28-55 the protein block, and only the block matching the atom's
side is populated. Each 28-block is [element one-hot (10) | degree 0-5 (6) |
attached hydrogens 0-4 (5) | implicit valence 0-5 (6) | aromatic flag (1)].

The distance helpers live here, below their users: ``pairs_within`` is the one
neighbour search behind every distance cutoff (covalent-radius bonds here,
pruning and contacts in ``graphs``, the label rule in ``synthetic``). It takes
a cell list, O(N + pairs) in time and memory, when both point sets have more
than ``_PAIR_BLOCK`` rows (bond inference over a whole PDB entry), and
blocked dense distances otherwise (pruning against the ligand's rows, the
ligand x protein contact search, small graphs), where the grid is the slower
one; both paths return the same bits. Its inputs must be finite: the PDB
reader rejects a non-finite coordinate at its line before any search runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ParseError
from .fileio import atomic_open

SCHEMA_VERSION = 1

ELEMENTS = ("C", "N", "O", "S", "F", "P", "Cl", "Br", "B", "H")
_ELEMENT_INDEX = {e: i for i, e in enumerate(ELEMENTS)}

BOND_ORDERS = ("single", "double", "triple", "aromatic")
_ORDER_VALENCE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}

CATEGORIES = (
    "dude_active",
    "dude_inactive",
    "pdbbind_positive",
    "pdbbind_negative",
    "unlabeled",
)
CATEGORY_LABELS = {
    "dude_active": 1,
    "dude_inactive": 0,
    "pdbbind_positive": 1,
    "pdbbind_negative": 0,
}

# Single-bond covalent radii in angstroms, used for inferring protein bonds.
COVALENT_RADII = {
    "H": 0.31,
    "B": 0.84,
    "C": 0.76,
    "N": 0.71,
    "O": 0.66,
    "F": 0.57,
    "P": 1.07,
    "S": 1.05,
    "Cl": 1.02,
    "Br": 1.20,
}
BOND_INFERENCE_FACTOR = 1.3
_PAIR_BLOCK = 256  # rows of ``a`` per block of ``pairs_within``; the grid needs both sides longer

# Cell list of ``pairs_within``. Cells are wider than the cutoff by a relative
# 1e-12, far above the few ulps of rounding in a distance, and at least 1e-150
# wide, where a distance that passes the test cannot come from underflowed
# squares (``featurize --cutoff`` passes any positive float). Floor division
# into cells is exact below 2**50 cells from the origin; rows farther out are
# compared densely.
_GRID_MARGIN = 1.0 + 1e-12
_GRID_MIN_WIDTH = 1e-150
_GRID_CLIP = 2.0**50
_NEIGHBOUR_STEPS = np.array([-1.0, 0.0, 1.0])

# Typical valence used when deriving implicit valence from explicit bonds.
STANDARD_VALENCE = {
    "C": 4,
    "N": 3,
    "O": 2,
    "S": 2,
    "F": 1,
    "P": 3,
    "Cl": 1,
    "Br": 1,
    "B": 3,
    "H": 1,
}

# Feature block layout (widths of the one-hot groups inside a 28-block).
N_FEATURES = 56
_BLOCK = 28
_DEGREE_MAX = 5
_NUM_H_MAX = 4
_VALENCE_MAX = 5


@dataclass
class Atom:
    element: str
    position: tuple[float, float, float]
    is_ligand: bool
    degree: int
    num_hydrogens: int
    implicit_valence: int
    aromatic: bool


@dataclass
class Bond:
    i: int
    j: int
    order: str = "single"


@dataclass
class ComplexRecord:
    """A validated, annotated protein-ligand complex."""

    complex_id: str
    protein_id: str
    atoms: list[Atom]
    bonds: list[Bond]
    category: str = "unlabeled"
    label: int | None = None
    rmsd: float | None = None

    def __post_init__(self):
        validate_record(self)

    @property
    def num_ligand_atoms(self) -> int:
        return sum(1 for a in self.atoms if a.is_ligand)

    @property
    def num_protein_atoms(self) -> int:
        return len(self.atoms) - self.num_ligand_atoms

    def coordinates(self) -> np.ndarray:
        return np.array([a.position for a in self.atoms], dtype=np.float64)

    def effective_label(self) -> int | None:
        if self.label is not None:
            return self.label
        return CATEGORY_LABELS.get(self.category)


def validate_record(rec: ComplexRecord) -> None:
    n = len(rec.atoms)
    n_lig = sum(1 for a in rec.atoms if a.is_ligand)
    if n_lig == 0:
        raise DataError(f"{rec.complex_id}: complex has no ligand atoms")
    if n_lig == n:
        raise DataError(f"{rec.complex_id}: complex has no protein atoms")
    for idx, atom in enumerate(rec.atoms):
        if atom.element not in _ELEMENT_INDEX:
            raise DataError(f"{rec.complex_id}: atom {idx} has unsupported element {atom.element!r}")
        if len(atom.position) != 3 or not all(math.isfinite(c) for c in atom.position):
            raise DataError(f"{rec.complex_id}: atom {idx} has a non-finite position")
        if min(atom.degree, atom.num_hydrogens, atom.implicit_valence) < 0:
            raise DataError(f"{rec.complex_id}: atom {idx} has a negative annotation")
    for bond in rec.bonds:
        if bond.i == bond.j:
            raise DataError(f"{rec.complex_id}: bond joins atom {bond.i} to itself")
        if not (0 <= bond.i < n and 0 <= bond.j < n):
            raise DataError(f"{rec.complex_id}: bond ({bond.i},{bond.j}) out of range")
        if rec.atoms[bond.i].is_ligand != rec.atoms[bond.j].is_ligand:
            raise DataError(
                f"{rec.complex_id}: covalent bond ({bond.i},{bond.j}) crosses the "
                "ligand/protein boundary"
            )
        if bond.order not in _ORDER_VALENCE:
            raise DataError(f"{rec.complex_id}: unknown bond order {bond.order!r}")
    if rec.category not in CATEGORIES:
        raise DataError(f"{rec.complex_id}: unknown category {rec.category!r}")
    if rec.label is not None and rec.label not in (0, 1):
        raise DataError(f"{rec.complex_id}: label must be 0 or 1, got {rec.label!r}")
    expected = CATEGORY_LABELS.get(rec.category)
    if rec.label is not None and expected is not None and rec.label != expected:
        raise DataError(
            f"{rec.complex_id}: label {rec.label} contradicts category {rec.category}"
        )
    if rec.rmsd is not None and (not math.isfinite(rec.rmsd) or rec.rmsd < 0):
        raise DataError(f"{rec.complex_id}: rmsd must be a finite non-negative number")


def select_atoms(atoms, bonds: list[Bond], keep):
    """The atoms whose ``keep`` flag is set, and the bonds among them renumbered."""
    index = {}
    for old, flag in enumerate(keep):
        if flag:
            index[old] = len(index)
    kept = [atoms[old] for old in index]
    bonds = [Bond(index[b.i], index[b.j], b.order) for b in bonds if b.i in index and b.j in index]
    return kept, bonds


def ligand_first(rec: ComplexRecord) -> ComplexRecord:
    """Reorder atoms so every ligand atom precedes every protein atom.

    Relative order within each side is preserved; bonds are remapped. Already
    ordered records are returned unchanged (idempotent).
    """
    order = [i for i, a in enumerate(rec.atoms) if a.is_ligand]
    order += [i for i, a in enumerate(rec.atoms) if not a.is_ligand]
    if order == list(range(len(rec.atoms))):
        return rec
    remap = {old: new for new, old in enumerate(order)}
    atoms = [rec.atoms[i] for i in order]
    bonds = [Bond(remap[b.i], remap[b.j], b.order) for b in rec.bonds]
    return replace(rec, atoms=atoms, bonds=bonds)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between every row of ``a`` (Mx3) and every row of ``b`` (Kx3).

    The squared coordinate differences are summed one coordinate at a time,
    in place. That gives the same bits as ``sqrt((d * d).sum(axis=2))`` with
    ``d = a[:, None, :] - b[None, :, :]``, without the MxKx3 intermediate.
    """
    sq = np.subtract.outer(a[:, 0], b[:, 0])
    sq *= sq
    for k in (1, 2):
        d = np.subtract.outer(a[:, k], b[:, k])
        d *= d
        sq += d
    return np.sqrt(sq, out=sq)


def pairs_within(a: np.ndarray, b: np.ndarray, cutoff: float) -> tuple[np.ndarray, ...]:
    """Every row pair of ``a`` (Mx3) and ``b`` (Kx3) with ``d <= cutoff``, as
    ``(i, j, d)`` arrays in ``(i, j)`` order; ``d`` holds the same bits as
    ``pairwise_distances(a, b)[i, j]``. Every coordinate must be finite
    (``ValueError`` otherwise).

    This is the one neighbour search behind bond inference, pruning, contacts
    and the synthetic label rule. It has two paths with the same output:

    - a cell list (``_grid_pairs``) when both sides have more than
      ``_PAIR_BLOCK`` rows: O(M + K + pairs) time and memory. Rows more than
      2**50 cells from the origin (about 3.5e15 A at the bond cutoff) are
      compared densely with the other side instead;
    - otherwise blocked dense distances (``_dense_pairs``): O(M K) time,
      memory linear in K. This serves the short side of pruning (ligand rows)
      and of the contact search, where the dense path is the faster one.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("pairs_within: non-finite coordinates")
    if min(len(a), len(b)) <= _PAIR_BLOCK:
        return _dense_pairs(a, b, cutoff)
    width = max(cutoff, _GRID_MIN_WIDTH) * _GRID_MARGIN
    near_a, near_b = ((np.abs(x) < _GRID_CLIP * width).all(axis=1) for x in (a, b))
    if near_a.all() and near_b.all():
        return _grid_pairs(a, b, cutoff, width)
    ia, ib = np.flatnonzero(near_a), np.flatnonzero(near_b)
    fa, fb = np.flatnonzero(~near_a), np.flatnonzero(~near_b)
    parts = []
    for rows_a, rows_b, search in [(ia, ib, pairs_within), (fa, np.arange(len(b)), _dense_pairs),
                                   (ia, fb, _dense_pairs)]:
        i, j, d = search(a[rows_a], b[rows_b], cutoff)
        parts.append((rows_a[i], rows_b[j], d))
    i, j, d = (np.concatenate(p) for p in zip(*parts))
    s = np.lexsort((j, i))
    return i[s], j[s], d[s]


def _dense_pairs(a: np.ndarray, b: np.ndarray, cutoff: float) -> tuple[np.ndarray, ...]:
    """``pairs_within`` from dense distances, ``_PAIR_BLOCK`` rows of ``a`` at a time."""
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for s in range(0, len(a), _PAIR_BLOCK):
        d = pairwise_distances(a[s:s + _PAIR_BLOCK], b)
        i, j = np.nonzero(d <= cutoff)
        found.append((i + s, j, d[i, j]))
        del d  # freed before the next block's distances are allocated
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _grid_pairs(a: np.ndarray, b: np.ndarray, cutoff: float, width: float):
    """``pairs_within`` through a cell list (Allen & Tildesley 1987, 5.3.2),
    for rows less than ``_GRID_CLIP`` cells of ``width`` from the origin.

    Space is cut into cubes ``width`` wide, slightly wider than ``cutoff``, so
    every pair the distance test accepts lies in the same or an adjacent cell,
    even after the rounding of its distance. Only the occupied cells of ``b``
    exist, numbered axis by axis: a row's rank over the axes so far, times the
    count of distinct cell indices on the next axis, plus its place among
    them, is ranked again among the occupied values, so every key stays below
    K**2 whatever the bounding box. The ranks of the 27 cells around each row
    of ``a`` are found the same way (-1 when ``b`` has no row there).
    """
    qa, qb = np.floor_divide(a, width), np.floor_divide(b, width)
    cell_b = np.zeros(len(b), np.int64)
    cell_a = np.zeros((len(a), 1), np.int64)
    for k in range(3):
        index = np.unique(qb[:, k])
        step = _rank(index, qa[:, k, None] + _NEIGHBOUR_STEPS)[:, None, :]
        key_b = cell_b * len(index) + np.searchsorted(index, qb[:, k])
        key_a = np.where(step < 0, -1, cell_a[:, :, None] * len(index) + step)
        cells = np.unique(key_b)
        cell_b = np.searchsorted(cells, key_b)
        cell_a = _rank(cells, key_a.reshape(len(a), -1))
    order = np.argsort(cell_b, kind="stable")
    count_b = np.bincount(cell_b, minlength=len(cells))
    first = (np.cumsum(count_b) - count_b)[cell_a.ravel()]
    count = np.where(cell_a.ravel() < 0, 0, count_b[cell_a.ravel()])
    end = np.cumsum(count)
    i = np.repeat(np.arange(len(a)), count.reshape(len(a), -1).sum(axis=1))
    j = order[np.arange(end[-1]) + np.repeat(first + count - end, count)]
    d = a[i, 0] - b[j, 0]
    d *= d
    for k in (1, 2):
        t = a[i, k] - b[j, k]
        t *= t
        d += t
    np.sqrt(d, out=d)
    keep = d <= cutoff
    i, j, d = i[keep], j[keep], d[keep]
    s = np.lexsort((j, i))
    return i[s], j[s], d[s]


def _rank(sorted_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of every entry of ``x`` in the sorted, unique ``sorted_values``; -1 where absent."""
    r = np.searchsorted(sorted_values, x)
    hit = sorted_values[np.minimum(r, len(sorted_values) - 1)] == x
    return np.where(hit, r, -1)


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------

def atom_feature_row(atom: Atom, stats: dict | None = None) -> np.ndarray:
    """56-wide binary feature row for one atom.

    Out-of-range degree/hydrogen/valence annotations clamp to the last one-hot
    slot; clamps are tallied in ``stats['clamped_annotations']`` when given.
    """
    row = np.zeros(N_FEATURES, dtype=np.float64)
    offset = 0 if atom.is_ligand else _BLOCK

    def clamp(value, limit):
        if value > limit:
            if stats is not None:
                stats["clamped_annotations"] = stats.get("clamped_annotations", 0) + 1
            return limit
        return value

    row[offset + _ELEMENT_INDEX[atom.element]] = 1.0
    row[offset + 10 + clamp(atom.degree, _DEGREE_MAX)] = 1.0
    row[offset + 16 + clamp(atom.num_hydrogens, _NUM_H_MAX)] = 1.0
    row[offset + 21 + clamp(atom.implicit_valence, _VALENCE_MAX)] = 1.0
    if atom.aromatic:
        row[offset + 27] = 1.0
    return row


def featurize(rec: ComplexRecord, stats: dict | None = None) -> np.ndarray:
    """N x 56 feature matrix, ligand atoms first then protein atoms."""
    ordered = ligand_first(rec)
    return np.stack([atom_feature_row(a, stats) for a in ordered.atoms])


# ---------------------------------------------------------------------------
# Canonical JSON lines
# ---------------------------------------------------------------------------

def record_to_json_line(rec: ComplexRecord) -> str:
    """Serialize one record to its canonical single-line JSON form."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "complex_id": rec.complex_id,
        "protein_id": rec.protein_id,
        "category": rec.category,
        "label": rec.label,
        "rmsd": rec.rmsd,
        "atoms": [
            {
                "element": a.element,
                "position": list(a.position),
                "is_ligand": a.is_ligand,
                "degree": a.degree,
                "num_hydrogens": a.num_hydrogens,
                "implicit_valence": a.implicit_valence,
                "aromatic": a.aromatic,
            }
            for a in rec.atoms
        ],
        "bonds": [{"i": b.i, "j": b.j, "order": b.order} for b in rec.bonds],
    }
    return json.dumps(doc, separators=(",", ":"))


_JSON_NUMBER = (int, float)


def _typed(value, kind, name: str):
    """``value`` when it has the JSON type ``kind`` (a JSON boolean is neither
    an integer nor a number); ``TypeError`` otherwise."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise TypeError(f"{name} has the wrong JSON type ({value!r})")
    return value


def _position(value) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise TypeError(f"position must be a list of three numbers, got {value!r}")
    return tuple(float(_typed(c, _JSON_NUMBER, "position")) for c in value)


def record_from_json_line(line: str, path=None, lineno: int | None = None) -> ComplexRecord:
    """Parse one canonical line. Nothing is coerced: a field of the wrong JSON type
    (docs/formats.md), or a line holding bytes that are not UTF-8 (``jsonl_lines``),
    raises ``ParseError`` naming ``path`` and ``lineno``."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError("line is not valid UTF-8", path=path, line=lineno) from None
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", path=path, line=lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("malformed record (not a JSON object)", path=path, line=lineno)
    try:
        version = doc.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ParseError(f"unsupported schema_version {version!r}", path=path, line=lineno)
        atoms = [
            Atom(
                element=_typed(a["element"], str, "element"),
                position=_position(a["position"]),
                is_ligand=_typed(a["is_ligand"], bool, "is_ligand"),
                degree=_typed(a["degree"], int, "degree"),
                num_hydrogens=_typed(a["num_hydrogens"], int, "num_hydrogens"),
                implicit_valence=_typed(a["implicit_valence"], int, "implicit_valence"),
                aromatic=_typed(a["aromatic"], bool, "aromatic"),
            )
            for a in doc["atoms"]
        ]
        bonds = [Bond(_typed(b["i"], int, "bond i"), _typed(b["j"], int, "bond j"),
                      _typed(b["order"], str, "bond order")) for b in doc["bonds"]]
        label, rmsd = doc.get("label"), doc.get("rmsd")
        return ComplexRecord(
            complex_id=_typed(doc["complex_id"], str, "complex_id"),
            protein_id=_typed(doc["protein_id"], str, "protein_id"),
            atoms=atoms,
            bonds=bonds,
            category=_typed(doc.get("category", "unlabeled"), str, "category"),
            label=None if label is None else _typed(label, int, "label"),
            rmsd=None if rmsd is None else float(_typed(rmsd, _JSON_NUMBER, "rmsd")),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed record ({exc})", path=path, line=lineno) from exc


def jsonl_lines(path):
    """``(line number, text)`` of each non-blank line of a JSON-lines file, read
    as UTF-8. Bytes that are not UTF-8 come through as lone surrogates, so
    ``record_from_json_line`` rejects just their line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def read_jsonl(path) -> list[ComplexRecord]:
    return [record_from_json_line(line, path=path, lineno=lineno) for lineno, line in jsonl_lines(path)]


def write_jsonl(records, path) -> None:
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(record_to_json_line(rec))
            fh.write("\n")


# ---------------------------------------------------------------------------
# SDF V2000 (ligand)
# ---------------------------------------------------------------------------

def parse_sdf_ligand(path, stats: dict | None = None):
    """Read the first molecule of a V2000 molfile.

    Columns consumed: counts line [0:3]=natoms [3:6]=nbonds; atom block
    [0:10]=x [10:20]=y [20:30]=z [31:34]=symbol; bond block [0:3]=i [3:6]=j
    [6:9]=type (1/2/3 and 4 for aromatic). Atoms with elements outside the
    supported set are dropped (counted in ``stats['dropped_atoms']``) along
    with their bonds; annotations are derived from the surviving graph.

    Returns ``(atoms, bonds)`` with atoms marked ``is_ligand=True``.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4:
        raise ParseError("molfile too short for a V2000 header", path=path, line=len(lines))
    counts_line = lines[3]
    try:
        n_atoms = int(counts_line[0:3])
        n_bonds = int(counts_line[3:6])
    except ValueError as exc:
        raise ParseError("bad counts line", path=path, line=4) from exc
    if len(lines) < 4 + n_atoms + n_bonds:
        raise ParseError(
            f"molfile truncated: expected {n_atoms} atoms and {n_bonds} bonds",
            path=path,
            line=len(lines),
        )

    raw_atoms = []
    for k in range(n_atoms):
        lineno = 5 + k
        line = lines[4 + k]
        try:
            x = float(line[0:10])
            y = float(line[10:20])
            z = float(line[20:30])
            symbol = line[31:34].strip()
        except (ValueError, IndexError) as exc:
            raise ParseError("bad atom line", path=path, line=lineno) from exc
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ParseError("non-finite coordinates", path=path, line=lineno)
        raw_atoms.append((symbol, (x, y, z)))

    raw_bonds = []
    for k in range(n_bonds):
        lineno = 5 + n_atoms + k
        line = lines[4 + n_atoms + k]
        try:
            i = int(line[0:3]) - 1
            j = int(line[3:6]) - 1
            btype = int(line[6:9])
        except (ValueError, IndexError) as exc:
            raise ParseError("bad bond line", path=path, line=lineno) from exc
        if not (0 <= i < n_atoms and 0 <= j < n_atoms) or i == j:
            raise ParseError(f"bond endpoints out of range ({i + 1},{j + 1})", path=path, line=lineno)
        order = {1: "single", 2: "double", 3: "triple", 4: "aromatic"}.get(btype)
        if order is None:
            raise ParseError(f"unsupported bond type {btype}", path=path, line=lineno)
        raw_bonds.append((i, j, order))

    return _assemble_side(raw_atoms, raw_bonds, is_ligand=True, stats=stats)


# ---------------------------------------------------------------------------
# PDB (protein)
# ---------------------------------------------------------------------------

def parse_pdb_protein(path, stats: dict | None = None):
    """Read protein atoms from PDB ATOM/HETATM records.

    Columns consumed (0-indexed): [0:6]=record name, [12:16]=atom name,
    [16]=altLoc, [30:38]/[38:46]/[46:54]=x/y/z, [76:78]=element symbol.
    When the element columns are blank the first alphabetic character of the
    atom name is used. Alternate locations other than '' or 'A' are skipped.

    A coordinate that parses as NaN or infinity raises ``ParseError`` at its
    line. Covalent bonds are inferred between atom pairs closer than
    ``1.3 x (sum of single-bond covalent radii)``, through the cell list of
    ``pairs_within`` on proteins of more than ``_PAIR_BLOCK`` atoms; all
    inferred bonds are single order and aromatic flags stay false.
    """
    raw_atoms = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = line[0:6].strip()
            if record not in ("ATOM", "HETATM"):
                continue
            if len(line) < 54:
                raise ParseError("truncated coordinate record", path=path, line=lineno)
            altloc = line[16:17]
            if altloc not in (" ", "", "A"):
                continue
            try:
                x = float(line[30:38])
                y = float(line[38:46])
                z = float(line[46:54])
            except ValueError as exc:
                raise ParseError("bad coordinates", path=path, line=lineno) from exc
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ParseError("non-finite coordinates", path=path, line=lineno)
            element = line[76:78].strip() if len(line) >= 78 else ""
            if not element:
                name = line[12:16].strip()
                letters = [c for c in name if c.isalpha()]
                element = letters[0] if letters else ""
            element = element.capitalize()
            raw_atoms.append((element, (x, y, z)))

    kept, _ = select_atoms(raw_atoms, [], _supported(raw_atoms, stats))
    return _annotate(kept, _infer_bonds(kept), is_ligand=False)


def _infer_bonds(atoms) -> list[Bond]:
    """Single bonds between supported atoms closer than the radius cutoff,
    ordered by ``(i, j)`` with ``i < j``."""
    coords = np.array([pos for _, pos in atoms], dtype=np.float64).reshape(-1, 3)
    radii = np.array([COVALENT_RADII[sym] for sym, _ in atoms])
    widest = max(COVALENT_RADII.values())
    i, j, d = pairs_within(coords, coords, BOND_INFERENCE_FACTOR * (widest + widest))
    keep = (j > i) & (d < BOND_INFERENCE_FACTOR * (radii[i] + radii[j]))
    return [Bond(int(p), int(q), "single") for p, q in zip(i[keep], j[keep])]


def _supported(raw_atoms, stats: dict | None) -> list[bool]:
    """Flags for atoms of supported elements; the others count in ``stats``."""
    keep = [symbol in _ELEMENT_INDEX for symbol, _ in raw_atoms]
    if stats is not None and not all(keep):
        stats["dropped_atoms"] = stats.get("dropped_atoms", 0) + keep.count(False)
    return keep


def _assemble_side(raw_atoms, raw_bonds, is_ligand: bool, stats: dict | None):
    """Drop unsupported elements, remap bonds, derive per-atom annotations."""
    bonds = [Bond(i, j, order) for i, j, order in raw_bonds]
    kept, bonds = select_atoms(raw_atoms, bonds, _supported(raw_atoms, stats))
    return _annotate(kept, bonds, is_ligand)


def _annotate(kept, bonds, is_ligand: bool):
    """Atoms with degree, hydrogen, valence and aromatic annotations from ``bonds``."""
    degree = [0] * len(kept)
    num_h = [0] * len(kept)
    valence_used = [0.0] * len(kept)
    aromatic = [False] * len(kept)
    for b in bonds:
        for end, other in ((b.i, b.j), (b.j, b.i)):
            degree[end] += 1
            valence_used[end] += _ORDER_VALENCE[b.order]
            if kept[other][0] == "H":
                num_h[end] += 1
            if b.order == "aromatic":
                aromatic[end] = True

    atoms = []
    for idx, (symbol, pos) in enumerate(kept):
        implicit = max(0, math.floor(STANDARD_VALENCE[symbol] - valence_used[idx]))
        atoms.append(
            Atom(
                element=symbol,
                position=tuple(float(c) for c in pos),
                is_ligand=is_ligand,
                degree=degree[idx],
                num_hydrogens=num_h[idx],
                implicit_valence=implicit,
                aromatic=aromatic[idx],
            )
        )
    return atoms, bonds


# ---------------------------------------------------------------------------
# Combined entry point
# ---------------------------------------------------------------------------

def parse_complex(
    ligand_path, protein_path, category: str = "unlabeled", stats: dict | None = None
) -> ComplexRecord:
    """One complex from an SDF V2000 ligand file and a PDB protein file.

    The complex and protein ids are the two file stems; the record carries
    ``category`` and no explicit label or rmsd, so its label is the
    category's. Dropped atoms are counted in ``stats`` when given.
    """
    lig_atoms, lig_bonds = parse_sdf_ligand(ligand_path, stats=stats)
    prot_atoms, prot_bonds = parse_pdb_protein(protein_path, stats=stats)
    if not lig_atoms:
        raise DataError(f"{ligand_path}: no supported ligand atoms after filtering")
    if not prot_atoms:
        raise DataError(f"{protein_path}: no supported protein atoms after filtering")
    offset = len(lig_atoms)
    bonds = list(lig_bonds) + [Bond(b.i + offset, b.j + offset, b.order) for b in prot_bonds]
    return ComplexRecord(
        complex_id=os.path.splitext(os.path.basename(str(ligand_path)))[0],
        protein_id=os.path.splitext(os.path.basename(str(protein_path)))[0],
        atoms=lig_atoms + prot_atoms,
        bonds=bonds,
        category=category,
    )
