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

The distance helpers live here, below their users, as two searches. The
cross search ``pairs_within(a, b, cutoff)`` is behind pruning here and
contacts in ``graphs``, whose ``b`` is a ligand (``synthetic``'s label rule
takes its distances' bits on float triples): blocked dense distances,
``_PAIR_BLOCK`` rows of ``a`` at a time. The
self-search ``_pairs_above(a, cutoff)`` is behind bond inference over a whole
PDB entry and returns each unordered pair once. It takes a cell list when
the entry has more than ``_PAIR_BLOCK`` atoms, all less than 2**17 cells
from the origin: it sorts the rows by cell key once and reads each row's
half shell as five contiguous runs of the sorted rows, ``_PAIR_BLOCK``
sorted rows at a time, O(N log N + pairs) in time, O(N) in memory beyond
the pairs. A small entry, or one with an atom beyond that clip (a PDB x
field reading ``1e300``), takes the cross search of the entry against
itself, kept where ``j > i``. Both paths return the same bits.
Inputs must be finite: the PDB reader rejects a non-finite coordinate at its
line before any search runs.

A whole PDB entry is read in array passes over its lines (``_read_pdb_atoms``):
per-line Python runs only for the few lines its masks cannot decide. The rest
is array work over all atoms and bonds at once. Annotations are counts over
both ends of every bond (``_annotate``), atoms and bonds are selected by
masks (``select_atoms``), and ``validate_record`` runs each rule as one array
check, reporting the same first fault a check of one atom or bond at a time
would. What stays per item is building the ``Atom`` and ``Bond`` objects a
record holds, and reading their fields back into arrays.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .fileio import atomic_open

SCHEMA_VERSION = 1

ELEMENTS = ("C", "N", "O", "S", "F", "P", "Cl", "Br", "B", "H")
_ELEMENT_INDEX = {e: i for i, e in enumerate(ELEMENTS)}
_SYMBOLS = np.array(ELEMENTS, dtype=object)

BOND_ORDERS = ("single", "double", "triple", "aromatic")
_ORDER_VALENCE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}
_BOND_VALENCE = np.array([_ORDER_VALENCE[order] for order in BOND_ORDERS])
_ORDER_CODE = {order: k for k, order in enumerate(BOND_ORDERS)}
_ORDER_NAMES = np.array(BOND_ORDERS, dtype=object)

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
_COVALENT_RADII = np.array([COVALENT_RADII[symbol] for symbol in ELEMENTS])
BOND_INFERENCE_FACTOR = 1.3
_PAIR_BLOCK = 256  # rows of ``a`` per block of either search path; the grid needs a longer set

# Cell list of ``_pairs_above``. Cells are wider than the cutoff by a relative
# 1e-12, far above the few ulps of rounding in a distance, and at least 1e-150
# wide, where a distance that passes the test cannot come from underflowed
# squares (``featurize --cutoff`` passes any positive float). Rows less than
# 2**17 cells from the origin on every axis (1.1e5 A at the narrowest bond search)
# are numbered by one exact int64 key below 2**55 whose last digit is z, so a
# sort by key lays out each (x, y) column's cells in z order; a set with a row
# farther out, which an 8-column PDB field reading ``1e300`` gives, is
# compared densely.
_GRID_MARGIN = 1.0 + 1e-12
_GRID_MIN_WIDTH = 1e-150
_GRID_CLIP = 2**17
# The (dx, dy) columns of the half shell other than (0, 0): the 13 cell offsets
# after (0, 0, 0) in lexicographic order are (0, 0, 1) and these four columns
# at dz = -1, 0 and +1; the other 13 neighbours are their reverses.
_GRID_COLUMNS = np.array([(0, 1), (1, -1), (1, 0), (1, 1)], dtype=np.int64)

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
_STANDARD_VALENCE = np.array([STANDARD_VALENCE[symbol] for symbol in ELEMENTS])

# Feature block layout (widths of the one-hot groups inside a 28-block).
N_FEATURES = 56
_BLOCK = 28
# Degree 0-5, attached hydrogens 0-4 and implicit valence 0-5: the first
# column of each one-hot in a 28-block, and its last slot.
_ONE_HOT_STARTS = np.array([[10], [16], [21]])
_CLAMP_LIMITS = np.array([[5], [4], [5]])


@dataclass(slots=True)
class Atom:
    element: str
    position: tuple[float, float, float]
    is_ligand: bool
    degree: int
    num_hydrogens: int
    implicit_valence: int
    aromatic: bool


@dataclass(slots=True)
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

    def coordinates(self) -> np.ndarray:
        return _coordinates([a.position for a in self.atoms])

    def effective_label(self) -> int | None:
        if self.label is not None:
            return self.label
        return CATEGORY_LABELS.get(self.category)


def validate_record(rec: ComplexRecord) -> None:
    """Raise ``DataError`` naming the first fault of ``rec``, in this order:
    identifiers that UTF-8 cannot encode; a side without atoms; the first
    faulty atom (its element, then its position, then its annotations); the
    first faulty bond (a self-bond, then an index out of range, then a bond
    across the ligand/protein boundary, then an unknown order, then an
    unordered pair an earlier bond already joins); category, label and rmsd.
    The atom and bond rules run as whole-record checks on the fields read
    into lists and arrays; only when one fails are per-item masks built to
    find the first faulty item."""
    for name in ("complex_id", "protein_id"):
        text = str(getattr(rec, name))
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"{name} {text!r} cannot be encoded as UTF-8") from None
    atoms, bonds = rec.atoms, rec.bonds
    n = len(atoms)
    is_ligand = np.array([a.is_ligand for a in atoms], dtype=bool)
    n_lig = int(is_ligand.sum())
    if n_lig == 0:
        raise DataError(f"{rec.complex_id}: complex has no ligand atoms")
    if n_lig == n:
        raise DataError(f"{rec.complex_id}: complex has no protein atoms")

    positions = [a.position for a in atoms]
    lengths = [len(p) for p in positions]
    values = np.fromiter(itertools.chain.from_iterable(positions), np.float64, sum(lengths))
    unknown = [a.element not in _ELEMENT_INDEX for a in atoms]
    annotations = ([a.degree for a in atoms] + [a.num_hydrogens for a in atoms]
                   + [a.implicit_valence for a in atoms])
    if any(unknown) or lengths.count(3) < n or not np.isfinite(values).all() or min(annotations) < 0:
        bad_position = np.array(lengths) != 3
        bad_position[np.repeat(np.arange(n), lengths)[~np.isfinite(values)]] = True
        negative = (np.array(annotations).reshape(3, n) < 0).any(axis=0)
        idx, kind = _first_fault([unknown, bad_position, negative])
        raise DataError(f"{rec.complex_id}: atom {idx} " + [
            f"has unsupported element {atoms[idx].element!r}",
            "has a non-finite position",
            "has a negative annotation",
        ][kind])

    ends = np.array([b.i for b in bonds] + [b.j for b in bonds]).reshape(2, -1)
    unknown = [b.order not in _ORDER_VALENCE for b in bonds]
    fault = any(unknown) or (len(bonds) > 0 and (ends.min() < 0 or ends.max() >= n))
    if not fault:
        low, high = np.sort(ends.astype(np.intp), axis=0)
        fault = ((low == high).any() or (is_ligand[low] != is_ligand[high]).any()
                 or repeats(low * n + high).any())
    if fault:
        inside = ((ends >= 0) & (ends < n)).all(axis=0)
        i, j = np.where(inside, ends, 0).astype(np.intp)
        pair = np.where(inside, np.minimum(i, j) * n + np.maximum(i, j), -1 - np.arange(len(bonds)))
        idx, kind = _first_fault([ends[0] == ends[1], ~inside, is_ligand[i] != is_ligand[j], unknown,
                                  repeats(pair)])
        bond = bonds[idx]
        raise DataError(f"{rec.complex_id}: " + [
            f"bond joins atom {bond.i} to itself",
            f"bond ({bond.i},{bond.j}) out of range",
            f"covalent bond ({bond.i},{bond.j}) crosses the ligand/protein boundary",
            f"unknown bond order {bond.order!r}",
            f"bond ({bond.i},{bond.j}) repeats an earlier bond",
        ][kind])
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


def repeats(keys: np.ndarray) -> np.ndarray:
    """Flags for the entries of ``keys`` equal to an earlier entry."""
    order = np.argsort(keys, kind="stable")
    flags = np.zeros(len(keys), dtype=bool)
    flags[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    return flags


def _first_fault(faults) -> tuple[int, int]:
    """``(item, rule)`` of the first item any of the per-item ``faults`` masks
    flags, and the first rule that flags it."""
    faults = np.array(faults, dtype=bool)
    item = int(np.argmax(faults.any(axis=0)))
    return item, int(np.argmax(faults[:, item]))


def select_atoms(atoms, bonds: list[Bond], keep):
    """The atoms whose ``keep`` flag is set, and the bonds among them renumbered."""
    return _take(atoms, bonds, np.flatnonzero(keep))


def protein_within(complex_id: str, protein: np.ndarray, ligand: np.ndarray, cutoff: float) -> np.ndarray:
    """The prune rule: flags for the rows of ``protein`` within ``cutoff`` of
    some row of ``ligand``. ``DataError`` when no row is. ``parse_complex``
    and ``graphs.prune_protein`` both prune by it."""
    keep = np.zeros(len(protein), dtype=bool)
    keep[pairs_within(protein, ligand, cutoff)[0]] = True
    if not keep.any():
        raise DataError(f"{complex_id}: no protein atoms within {cutoff} A of the ligand")
    return keep


def join_sides(complex_id: str, protein_id: str, ligand, protein, **fields) -> ComplexRecord:
    """The record of a ligand side and a protein side, each an ``(atoms,
    bonds)`` pair numbered within its side: the ligand atoms first, the
    protein bonds offset by the ligand's atom count. ``fields`` are the
    record's other fields."""
    (lig_atoms, lig_bonds), (prot_atoms, prot_bonds) = ligand, protein
    offset = len(lig_atoms)
    bonds = list(lig_bonds) + [Bond(b.i + offset, b.j + offset, b.order) for b in prot_bonds]
    return ComplexRecord(complex_id=complex_id, protein_id=protein_id, atoms=lig_atoms + prot_atoms,
                         bonds=bonds, **fields)


def ligand_first(rec: ComplexRecord) -> ComplexRecord:
    """Reorder atoms so every ligand atom precedes every protein atom.

    Relative order within each side is preserved; bonds are remapped. Already
    ordered records are returned unchanged (idempotent).
    """
    is_protein = [not a.is_ligand for a in rec.atoms]
    if False not in is_protein[is_protein.count(False):]:
        return rec
    return _with_atoms(rec, *_take(rec.atoms, rec.bonds, np.argsort(is_protein, kind="stable")))


def _with_atoms(rec: ComplexRecord, atoms, bonds: list[Bond]) -> ComplexRecord:
    """A copy of the validated ``rec`` holding ``atoms`` and ``bonds``, built
    without ``validate_record``: the caller passes a reordering or a subset
    of ``rec``'s atoms, each side kept non-empty, and the bonds among them
    renumbered, which leaves every rule satisfied."""
    out = copy.copy(rec)  # copies the fields without calling ``__init__``
    out.atoms, out.bonds = atoms, bonds
    return out


def _take(atoms, bonds: list[Bond], order: np.ndarray):
    """The atoms at the indices ``order``, and the bonds between two of them,
    in their own order, with each end renumbered to its atom's place in ``order``."""
    place = np.full(len(atoms), -1, dtype=np.intp)
    place[order] = np.arange(len(order))
    ends = place[np.array([b.i for b in bonds] + [b.j for b in bonds], dtype=np.intp).reshape(2, -1)]
    inside = np.flatnonzero((ends >= 0).all(axis=0))
    i, j = ends[:, inside].tolist()
    return [atoms[k] for k in order.tolist()], list(map(Bond, i, j, [bonds[k].order for k in inside.tolist()]))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between every row of ``a`` (Mx3) and every row of ``b`` (Kx3).

    The squared coordinate differences are summed one coordinate at a time,
    in place. That gives the same bits as ``sqrt((d * d).sum(axis=2))`` with
    ``d = a[:, None, :] - b[None, :, :]``, without the MxKx3 intermediate.
    A difference or square beyond the float range is silently infinite.
    """
    with np.errstate(over="ignore"):
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

    This is the cross search behind pruning and contacts, whose ``b`` is a
    ligand: dense distances, ``_PAIR_BLOCK`` rows of ``a`` at a time,
    O(M K) time and memory linear in K. When ``a`` spans
    several blocks (pruning a whole entry against its ligand), rows outside
    the bounding box of ``b`` widened by a grid cell are skipped first: on
    some axis they lie farther from every row of ``b`` than any distance the
    test accepts, even after rounding (see ``_GRID_MARGIN``). One array given
    as both sides is searched the same way, each ordered pair and each row
    against itself; bond inference searches a set against itself through
    ``_pairs_above`` instead, which takes each unordered pair once.
    """
    _check_finite(a, b)
    rows = np.arange(len(a))
    if len(a) > _PAIR_BLOCK and len(b):
        reach = max(cutoff, _GRID_MIN_WIDTH) * _GRID_MARGIN
        with np.errstate(over="ignore"):  # a gap beyond the float range is infinite, and beyond reach
            rows = np.flatnonzero(((a - b.max(axis=0) <= reach) & (b.min(axis=0) - a <= reach)).all(axis=1))
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for s in range(0, len(rows), _PAIR_BLOCK):
        block = rows[s:s + _PAIR_BLOCK]
        d = pairwise_distances(a[block], b)
        i, j = np.nonzero(d <= cutoff)
        found.append((block[i], j, d[i, j]))
        del d  # freed before the next block's distances are allocated
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _pairs_above(a: np.ndarray, cutoff: float) -> tuple[np.ndarray, ...]:
    """The row pairs ``i < j`` of ``a`` (Nx3) with ``d <= cutoff``, as
    ``(i, j, d)`` arrays in ``(i, j)`` order, ``d`` as in ``pairs_within``:
    the one search of a set against itself, which bond inference runs over a
    whole PDB entry.

    - A cell list (``_grid_pairs``) for more than ``_PAIR_BLOCK`` rows, all
      less than ``_GRID_CLIP`` cells from the origin on every axis (at least
      1.1e5 A for any bond search): the rows sorted by cell, and each row's
      half shell five runs of them; O(N log N + pairs) time, O(N + pairs)
      memory.
    - Otherwise ``pairs_within(a, a, cutoff)`` kept where ``j > i``: small
      sets, and an entry with a row beyond the clip (a PDB field can read
      ``1e300``), compared one block of ``_PAIR_BLOCK`` rows at a time.
    """
    _check_finite(a)
    width = max(cutoff, _GRID_MIN_WIDTH) * _GRID_MARGIN
    if len(a) > _PAIR_BLOCK and (np.abs(a) < _GRID_CLIP * width).all():
        return _grid_pairs(a, cutoff, width)
    i, j, d = pairs_within(a, a, cutoff)
    above = j > i
    return i[above], j[above], d[above]


def _check_finite(*sets: np.ndarray) -> None:
    if not all(np.isfinite(s).all() for s in sets):
        raise ValueError("pairs_within: non-finite coordinates")


def _grid_pairs(a: np.ndarray, cutoff: float, width: float):
    """``_pairs_above(a, cutoff)`` through a cell list (Allen & Tildesley
    1987, 5.3.2), for rows less than ``_GRID_CLIP`` cells of ``width`` from
    the origin.

    Space is cut into cubes ``width`` wide, slightly wider than ``cutoff``, so
    every pair the distance test accepts lies in the same or an adjacent cell,
    even after the rounding of its distance. Cell coordinates shifted by
    ``_GRID_CLIP + 1`` lie in 1..span-2, so the key ``(qx * span + qy) * span
    + qz`` numbers a row's cell and its 26 neighbours exactly, and the three
    cells at dz = -1, 0 and +1 of any (x, y) column hold the consecutive keys
    ``k + c - 1 .. k + c + 1``, where ``k`` is the row's key and ``c`` the
    column's offset. With the rows sorted by key, a row's half shell is five
    contiguous runs of the sorted rows, each bounded by ``searchsorted``: its
    own column from the next sorted row up to key ``k + 1``, and the columns
    of ``_GRID_COLUMNS``. So every unordered pair of distinct rows is a
    candidate once, whatever the order of the rows of one cell. The
    candidates are built and compared ``_PAIR_BLOCK`` sorted rows at a time
    (about 3,500 at bond-search density), so the arrays in flight stay small
    whatever the size of ``a``. Built for all rows at once, the candidate
    arrays of a 4,000-atom entry (55,000 entries) are freshly mapped memory
    on every call, and their page faults cost about a quarter of the
    search. Each pair accepted is named by its lower original row first,
    and the pairs are sorted back into ``(i, j)`` order. No mirror and no
    row against itself is built here.
    """
    n, span = len(a), 2 * _GRID_CLIP + 2
    q = np.floor_divide(a, width).astype(np.int64) + (_GRID_CLIP + 1)
    key = (q[:, 0] * span + q[:, 1]) * span + q[:, 2]
    order = np.argsort(key)
    key = key[order]
    # candidates as positions in the key-sorted rows: five ranges per row
    columns = _GRID_COLUMNS @ [span * span, span]
    start = np.stack([np.arange(1, n + 1)] + [np.searchsorted(key, key + (c - 1)) for c in columns])
    count = np.stack([np.searchsorted(key, key + (c + 1), side="right") for c in (0, *columns)]) - start
    x, y, z = a[order].T.copy()  # contiguous axes gather fastest
    rows = np.arange(n)
    found = [(rows[:0], rows[:0], np.empty(0))]
    for s in range(0, n, _PAIR_BLOCK):
        runs = count[:, s:s + _PAIR_BLOCK].ravel()
        i = np.repeat(np.tile(rows[s:s + _PAIR_BLOCK], len(start)), runs)
        j = _ranges(start[:, s:s + _PAIR_BLOCK].ravel(), runs)
        d = x[i] - x[j]  # summed as in ``pairwise_distances``
        d *= d
        for axis in (y, z):
            t = axis[i] - axis[j]
            t *= t
            d += t
        np.sqrt(d, out=d)
        keep = np.flatnonzero(d <= cutoff)
        found.append((i[keep], j[keep], d[keep]))
    i, j, d = (np.concatenate(parts) for parts in zip(*found))
    i, j = order[i], order[j]
    i, j = np.minimum(i, j), np.maximum(i, j)
    s = np.argsort(i * n + j)
    return i[s], j[s], d[s]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------

def featurize(rec: ComplexRecord, stats: dict | None = None) -> np.ndarray:
    """N x 56 feature matrix, ligand atoms first then protein atoms.

    Out-of-range degree/hydrogen/valence annotations clamp to the last one-hot
    slot; clamps are tallied in ``stats['clamped_annotations']`` when given.
    """
    return _feature_rows(ligand_first(rec).atoms, stats)


def _feature_rows(atoms, stats: dict | None) -> np.ndarray:
    """The feature rows of ``atoms``, each one-hot group set for all rows at once."""
    n = len(atoms)
    offset = np.array([0 if a.is_ligand else _BLOCK for a in atoms], dtype=np.intp)
    values = np.array([a.degree for a in atoms] + [a.num_hydrogens for a in atoms]
                      + [a.implicit_valence for a in atoms]).reshape(3, n)
    clamped = values > _CLAMP_LIMITS
    if stats is not None and clamped.any():
        stats["clamped_annotations"] = stats.get("clamped_annotations", 0) + int(clamped.sum())
    element = offset + np.array([_ELEMENT_INDEX[a.element] for a in atoms], dtype=np.intp)
    aromatic = np.where([a.aromatic for a in atoms], offset + 27, element)  # the element slot is set anyway
    columns = np.concatenate([[element], offset + _ONE_HOT_STARTS + np.where(clamped, _CLAMP_LIMITS, values),
                              [aromatic]]).astype(np.intp)
    rows = np.zeros((n, N_FEATURES), dtype=np.uint8)
    rows[np.arange(n), columns] = 1
    return rows


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
    line. The file holds one structure: a second ``MODEL`` record (an NMR
    ensemble, say) raises ``ParseError`` at its line, since merged models
    would bond every atom to its own copy; a single ``MODEL``/``ENDMDL``
    block is read like a file without one. Covalent bonds are inferred
    between atom pairs closer than
    ``1.3 x (sum of single-bond covalent radii)``, through the cell list of
    ``_pairs_above`` on proteins of more than ``_PAIR_BLOCK`` atoms (by dense
    blocks when an atom lies beyond its clip); all inferred bonds are single
    order and aromatic flags stay false.

    The lines are read by ``_read_pdb_atoms`` in array passes; the bond
    search (``_infer_bonds``), sized by the elements present, and the
    annotations are array work too. On a 4,000-atom entry (9 ms with the
    cyclic collector running, on a 2-core Xeon VM) the reader takes about
    1.3 ms, the bond search about 3.0 ms, and the rest splits into the
    annotations and the per-atom objects, about 3.3 ms, and the collector's
    passes those objects set off, about 1.5 ms, which free nothing.
    ``parse_complex`` pauses the collector around its call.
    """
    elements, coords, _ = _read_pdb_atoms(path)
    element = _element_codes(elements, stats)
    kept = element >= 0
    element, coords = element[kept], coords[kept]
    ends = _infer_bonds(element, coords)
    single = np.zeros(len(ends), dtype=np.intp)
    return _annotate(element, list(zip(*coords.T.tolist())), ends, single, is_ligand=False)


_STRIP = np.frombuffer(b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f", np.uint8)  # the ASCII characters ``str.strip`` removes
# Weights of the eight columns of a "%8.3f" field; column 4 is the point.
_FIELD_WEIGHTS = np.array([1e6, 1e5, 1e4, 1e3, 0.0, 100.0, 10.0, 1.0])


def _read_pdb_atoms(path):
    """``(elements, coords, linenos)`` of the ATOM/HETATM lines a PDB file
    keeps (see ``parse_pdb_protein``), in file order: the element symbols,
    capitalized, supported or not; an N x 3 coordinate array; line numbers.

    The file is read as bytes, newlines translated as text mode translates
    them, and every rule runs as a mask over its lines. Per-line Python
    (``_read_line``) runs only for the lines the masks cannot decide: one
    holding a byte that is not ASCII, a record field other than exactly
    ``ATOM  `` or ``HETATM`` that may strip to ``ATOM``, ``HETATM`` or
    ``MODEL`` (it starts with whitespace or a prefix of those names), or an
    atom record whose element columns are blank or missing, truncated
    records among them. A coordinate field of the ``%8.3f`` form (spaces,
    an optional ``-``, digits, ``.``, three digits) is its digit integer
    divided by 1000.0, which has the bits ``float()`` gives, since both
    round the same decimal correctly; any other field goes through
    ``float()``.

    Faults raise ``ParseError`` at the first faulty line: a truncated atom
    record, a coordinate field ``float()`` rejects, or a second ``MODEL``.
    A non-finite coordinate on an earlier line is reported instead, and
    nothing after the first faulty line counts.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf = np.frombuffer(raw + bytes(80), np.uint8)  # zero padding keeps every column below 80 in range
    starts = np.concatenate([[0], np.flatnonzero(buf[:len(raw)] == 10) + 1])
    if starts[-1] == len(raw):
        starts = starts[:-1]
    length = np.diff(np.append(starts, len(raw)))  # with the newline, as ``len(line)`` counts it
    lineno = np.arange(1, len(starts) + 1)

    ascii_line = np.ones(len(starts), dtype=bool)
    ascii_line[np.searchsorted(starts, np.flatnonzero(buf[:len(raw)] >= 128), side="right") - 1] = False
    field, column = buf[starts + np.arange(6)[:, None]], buf[starts + np.array([[16], [76], [77]])]
    # A line ends in a newline or the zero padding, so a name matched here lies inside its line.
    atom_like, hetatm, model_like = (np.logical_and.reduce([field[k] == c for k, c in enumerate(name)])
                                     for name in (b"ATOM", b"HETATM", b"MODEL"))
    atom = ascii_line & ((atom_like & (field[4] == 32) & (field[5] == 32)) | hetatm)
    other = ascii_line & ~(atom_like | hetatm | model_like | np.isin(field[0], _STRIP))
    blank = (length < 78) | (np.isin(column[1], _STRIP) & np.isin(column[2], _STRIP))
    slow = ~(atom | other) | (atom & blank)  # MODEL records among them; a truncated record is short, so blank
    kept = atom & ~slow & ((column[0] == 32) | (column[0] == 65))

    first, found, models = (len(starts) + 1, None), [], 0  # found: (line, element, position) of slow atoms
    for k in np.flatnonzero(slow).tolist():
        out = _read_line(raw[starts[k]:starts[k] + length[k]].decode("utf-8", errors="replace"))
        if out == "MODEL":
            models += 1
            out = "more than one MODEL (a multi-model file such as an NMR ensemble)" if models > 1 else None
        if isinstance(out, str):
            first = k + 1, out
            break
        if out is not None:
            found.append((k + 1, *out))

    rows = np.flatnonzero(kept[:first[0] - 1])
    values, exact = _decimal_fields(buf[starts[rows] + np.arange(30, 54).reshape(3, 8, 1)].transpose(1, 0, 2))
    for f in np.flatnonzero(~exact.T).tolist():
        row, axis = divmod(f, 3)
        at = starts[rows[row]] + 30 + 8 * axis
        try:
            values[axis, row] = float(raw[at:at + 8].decode("ascii"))
        except ValueError:
            first = min(first, (int(lineno[rows[row]]), "bad coordinates"))
            break
    rows = rows[lineno[rows] < first[0]]
    coords = values[:, :len(rows)].T.copy()
    spelled, which = np.unique(column[1:, rows].astype(np.intp).T @ [256, 1], return_inverse=True)
    symbols = [bytes(divmod(key, 256)).decode("ascii").strip().capitalize() for key in spelled.tolist()]
    elements = np.array(symbols, dtype=object)[which.reshape(-1)].tolist()
    linenos = lineno[rows]
    found = [item for item in found if item[0] < first[0]]
    if found:
        lines, more, positions = zip(*found)
        linenos = np.concatenate([linenos, lines])
        order = np.argsort(linenos, kind="stable")
        linenos, coords = linenos[order], np.concatenate([coords, positions])[order]
        elements = np.array(elements + list(more), dtype=object)[order].tolist()

    if not np.isfinite(coords).all():
        finite = np.isfinite(coords).all(axis=1)
        raise ParseError("non-finite coordinates", path=path, line=int(linenos[np.argmin(finite)]))
    if first[1] is not None:
        raise ParseError(first[1], path=path, line=first[0])
    return elements, coords, linenos


def _decimal_fields(chars: np.ndarray):
    """``(values, exact)`` of 8-column fields, given column by column:
    ``chars[k]`` holds column k of every field (8 x ... bytes). ``exact``
    flags the fields of the ``%8.3f`` form, blanks, an optional ``-``,
    digits, ``.`` and three digits, and ``values`` holds their digit
    integers divided by 1000.0, negated after a ``-``. That division rounds
    the field's decimal correctly, as ``float()`` does, so the two give the
    same bits. The other entries of ``values`` are undefined."""
    digits = chars - np.uint8(48)
    digit = digits <= 9
    minus = chars[:4] == 45
    exact = digit[3] & (chars[4] == 46) & digit[5] & digit[6] & digit[7]
    for k in range(3):  # a blank, or a '-' or digit before a digit
        exact &= (chars[k] == 32) | ((minus[k] | digit[k]) & digit[k + 1])
    values = np.tensordot(_FIELD_WEIGHTS, digits * digit, axes=1) / 1000.0
    return np.where(minus.any(axis=0), -values, values), exact


def _read_line(line: str):
    """One line of a PDB file read on its own, by the rules the masks of
    ``_read_pdb_atoms`` apply: ``None`` for a line that keeps no atom,
    ``"MODEL"``, a fault message, or ``(element, (x, y, z))``."""
    record = line[0:6].strip()
    if record not in ("ATOM", "HETATM"):
        return "MODEL" if record == "MODEL" else None
    if len(line) < 54:
        return "truncated coordinate record"
    if line[16:17] not in (" ", "", "A"):
        return None
    try:
        position = (float(line[30:38]), float(line[38:46]), float(line[46:54]))
    except ValueError:
        return "bad coordinates"
    element = line[76:78].strip() if len(line) >= 78 else ""
    if not element:
        letters = [c for c in line[12:16] if c.isalpha()]
        element = letters[0] if letters else ""
    return element.capitalize(), position


def _infer_bonds(element: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Single bonds between atoms closer than the radius cutoff, as a K x 2
    array ordered by ``(i, j)`` with ``i < j``; ``element`` holds each atom's
    index in ``ELEMENTS``.

    The search reaches ``1.3 x 2 x`` the widest radius among the elements
    present (2.73 A with sulfur, 1.98 A for C, N, O and H), which no bonded
    pair exceeds: ``1.3 (r_i + r_j)`` rounds to at most that in floats."""
    radii = _COVALENT_RADII[element]
    widest = radii.max(initial=0.0)
    i, j, d = _pairs_above(coords, BOND_INFERENCE_FACTOR * (widest + widest))
    bonded = d < BOND_INFERENCE_FACTOR * (radii[i] + radii[j])
    return np.stack([i[bonded], j[bonded]], axis=1)


def _element_codes(symbols, stats: dict | None) -> np.ndarray:
    """The index of each symbol in ``ELEMENTS``, the one lookup per atom of a
    side; -1 for an unsupported element, and those count in ``stats``."""
    element = np.array([_ELEMENT_INDEX.get(symbol, -1) for symbol in symbols], dtype=np.intp)
    dropped = int((element < 0).sum())
    if stats is not None and dropped:
        stats["dropped_atoms"] = stats.get("dropped_atoms", 0) + dropped
    return element


def _coordinates(positions) -> np.ndarray:
    """N x 3 array of N three-number positions."""
    flat = np.fromiter(itertools.chain.from_iterable(positions), np.float64, 3 * len(positions))
    return flat.reshape(-1, 3)


def _assemble_side(raw_atoms, raw_bonds, is_ligand: bool, stats: dict | None):
    """Drop unsupported elements with their bonds, renumber the rest, derive
    per-atom annotations: ``(atoms, bonds)``."""
    element = _element_codes([symbol for symbol, _ in raw_atoms], stats)
    keep = element >= 0
    rows = np.flatnonzero(keep).tolist()
    ends = np.array([(i, j) for i, j, _ in raw_bonds], dtype=np.intp).reshape(-1, 2)
    inside = np.flatnonzero(keep[ends].all(axis=1))
    return _annotate(
        element[keep],
        [tuple(map(float, raw_atoms[k][1])) for k in rows],
        (np.cumsum(keep) - 1)[ends[inside]],
        np.array([_ORDER_CODE[raw_bonds[k][2]] for k in inside.tolist()], dtype=np.intp),
        is_ligand,
    )


def _annotate(element: np.ndarray, positions, ends: np.ndarray, orders: np.ndarray, is_ligand: bool):
    """Atoms with degree, hydrogen, valence and aromatic annotations, and their
    bonds: ``element`` holds each atom's index in ``ELEMENTS``, and ``ends``
    (K x 2) and ``orders`` (K, each bond's index in ``BOND_ORDERS``) describe
    one bond per row.

    Each annotation is one count over both ends of every bond. The valence a
    bond uses is a multiple of 0.5, so its sums are exact in any order."""
    n = len(element)
    end, other = np.concatenate([ends, ends[:, ::-1]]).T
    order = np.tile(orders, 2)
    used = np.bincount(end, weights=_BOND_VALENCE[order], minlength=n)
    standard = _STANDARD_VALENCE[element]
    hydrogen = element == _ELEMENT_INDEX["H"]
    aromatic_bond = order == BOND_ORDERS.index("aromatic")
    atoms = list(map(
        Atom, _SYMBOLS[element].tolist(), positions, itertools.repeat(is_ligand, n),
        np.bincount(end, minlength=n).tolist(),
        np.bincount(end[hydrogen[other]], minlength=n).tolist(),
        np.maximum(np.floor(standard - used), 0).astype(np.int64).tolist(),
        (np.bincount(end[aromatic_bond], minlength=n) > 0).tolist(),
    ))
    return atoms, list(map(Bond, ends[:, 0].tolist(), ends[:, 1].tolist(), _ORDER_NAMES[orders].tolist()))


# ---------------------------------------------------------------------------
# Combined entry point
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the ``with`` block and turn it
    back on when the block ends, by a return or an exception, only if it was
    on at the start. Around a parse that builds a whole entry's ``Atom``,
    position tuple and ``Bond`` objects, none of them in a reference cycle:
    refcounting frees them, and the collections their allocations would set
    off free nothing. Parsing runs on one thread, and nothing else runs
    meanwhile (a training pair runs its two passes on two threads, each
    pass on its own tape, but training parses nothing), so no other
    thread's allocations go unchecked."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def parse_complex(
    ligand_path,
    protein_path,
    category: str = "unlabeled",
    stats: dict | None = None,
    cutoff: float | None = None,
) -> ComplexRecord:
    """One complex from an SDF V2000 ligand file and a PDB protein file.

    The complex and protein ids are the two file stems; the record carries
    ``category`` and no explicit label or rmsd, so its label is the
    category's. Dropped atoms are counted in ``stats`` when given.

    With a ``cutoff``, the record keeps only the protein atoms within
    ``cutoff`` of some ligand atom (``protein_within``), the record
    ``graphs.prune_protein`` would cut from the whole one. The prune runs on
    the parsed protein side, so the bond renumbering and ``validate_record``
    see the kept atoms only: ≈300 of a 4,000-atom entry at 8 A. That side
    is valid by construction and the ligand rows come first, so every fault
    is still found at the same index. When no protein atom is in range, the
    whole record is validated before the prune's ``DataError`` is raised,
    so a fault of the record wins.

    The cyclic garbage collector is paused for the whole call (parse,
    prune, assembly and checks) by ``collector_paused``, and re-enabled on
    the way out, by a return or an exception, only if it was enabled on
    entry. The whole entry's ``Atom``s, position tuples and ``Bond``s, about
    12,000 objects at 4,000 atoms, live until the prune, and their
    allocations alone would set off about 14 collections, a full one now
    and then: 1.2-2.5 ms of a 10 ms complex that free nothing. They are
    freed inside the pause, so the one young collection that follows it
    sees only the pruned record. The pause is safe: none of these objects
    is in a reference cycle, so refcounting frees each of them and no
    garbage waits for the collector. It goes when the record holds arrays
    instead of per-atom objects (ROADMAP item 11).
    """
    with collector_paused():
        lig_atoms, lig_bonds = parse_sdf_ligand(ligand_path, stats=stats)
        prot_atoms, prot_bonds = parse_pdb_protein(protein_path, stats=stats)
        if not lig_atoms:
            raise DataError(f"{ligand_path}: no supported ligand atoms after filtering")
        if not prot_atoms:
            raise DataError(f"{protein_path}: no supported protein atoms after filtering")
        complex_id, protein_id = (os.path.splitext(os.path.basename(str(p)))[0]
                                  for p in (ligand_path, protein_path))

        def record(prot_atoms, prot_bonds):
            return join_sides(complex_id, protein_id, (lig_atoms, lig_bonds), (prot_atoms, prot_bonds),
                              category=category)

        if cutoff is not None:
            try:
                keep = protein_within(complex_id, _coordinates([a.position for a in prot_atoms]),
                                      _coordinates([a.position for a in lig_atoms]), cutoff)
            except DataError:
                record(prot_atoms, prot_bonds)  # raises first if the whole record has a fault
                raise
            # rebound, so the whole entry's objects are freed while the collector is still paused
            prot_atoms, prot_bonds = select_atoms(prot_atoms, prot_bonds, keep)
        return record(prot_atoms, prot_bonds)
