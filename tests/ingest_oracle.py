"""Per-atom and per-bond reference for structure ingestion.

``molgat.chem`` annotates atoms, selects and reorders atoms, validates
records, builds feature rows and finds neighbour pairs with array operations.
It reads PDB entries with array passes over the lines. This module keeps the
same steps written one line, one atom and one bond at a time, and the cell
list that ranks the 27 neighbour cells of every row, so tests can compare the
two bit for bit. Nothing under ``src/`` uses it.
"""

import dataclasses
import math

import numpy as np

from molgat.chem import (
    CATEGORIES,
    CATEGORY_LABELS,
    STANDARD_VALENCE,
    Atom,
    Bond,
    _ELEMENT_INDEX,
    _ORDER_VALENCE,
)
from molgat.errors import DataError, ParseError

_NEIGHBOUR_STEPS = np.array([-1.0, 0.0, 1.0])


def read_pdb_atoms(path):
    """``(elements, coords, linenos)`` of the kept ATOM/HETATM lines of a PDB
    file, read one line at a time; ``ParseError`` at the first faulty line,
    unless a non-finite coordinate on an earlier line comes first."""
    elements, positions, linenos = [], [], []
    models, fault = 0, None
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = line[0:6].strip()
            if record not in ("ATOM", "HETATM"):
                if record == "MODEL":
                    models += 1
                    if models > 1:
                        fault = "more than one MODEL (a multi-model file such as an NMR ensemble)", lineno
                        break
                continue
            if len(line) < 54:
                fault = "truncated coordinate record", lineno
                break
            if line[16:17] not in (" ", "", "A"):
                continue
            try:
                positions.append((float(line[30:38]), float(line[38:46]), float(line[46:54])))
            except ValueError:
                fault = "bad coordinates", lineno
                break
            linenos.append(lineno)
            element = line[76:78].strip() if len(line) >= 78 else ""
            if not element:
                letters = [c for c in line[12:16] if c.isalpha()]
                element = letters[0] if letters else ""
            elements.append(element.capitalize())

    coords = np.array(positions, dtype=np.float64).reshape(-1, 3)
    for lineno, xyz in zip(linenos, positions):
        if not all(math.isfinite(c) for c in xyz):
            raise ParseError("non-finite coordinates", path=path, line=lineno)
    if fault:
        raise ParseError(fault[0], path=path, line=fault[1])
    return elements, coords, np.array(linenos, dtype=np.intp)


def annotate(kept, bonds, is_ligand):
    """Atoms with degree, hydrogen, valence and aromatic annotations from
    ``bonds``; ``kept`` holds ``(symbol, position)`` per atom."""
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


def atom_feature_row(atom, stats=None):
    """56-wide binary feature row for one atom, clamps tallied in ``stats``."""
    row = np.zeros(56, dtype=np.float64)
    offset = 0 if atom.is_ligand else 28

    def clamp(value, limit):
        if value > limit:
            if stats is not None:
                stats["clamped_annotations"] = stats.get("clamped_annotations", 0) + 1
            return limit
        return value

    row[offset + _ELEMENT_INDEX[atom.element]] = 1.0
    row[offset + 10 + clamp(atom.degree, 5)] = 1.0
    row[offset + 16 + clamp(atom.num_hydrogens, 4)] = 1.0
    row[offset + 21 + clamp(atom.implicit_valence, 5)] = 1.0
    if atom.aromatic:
        row[offset + 27] = 1.0
    return row


def featurize(rec, stats=None):
    """N x 56 feature matrix, one row at a time, ligand atoms first."""
    return np.stack([atom_feature_row(a, stats) for a in ligand_first(rec).atoms])


def ligand_first(rec):
    """``rec`` with every ligand atom before every protein atom, each side in
    its own order and the bonds renumbered; ``rec`` itself when already so."""
    order = [i for i, a in enumerate(rec.atoms) if a.is_ligand]
    order += [i for i, a in enumerate(rec.atoms) if not a.is_ligand]
    if order == list(range(len(rec.atoms))):
        return rec
    remap = {old: new for new, old in enumerate(order)}
    atoms = [rec.atoms[i] for i in order]
    bonds = [Bond(remap[b.i], remap[b.j], b.order) for b in rec.bonds]
    return dataclasses.replace(rec, atoms=atoms, bonds=bonds)


def select_atoms(atoms, bonds, keep):
    """The atoms whose ``keep`` flag is set, and the bonds among them renumbered."""
    index = {}
    for old, flag in enumerate(keep):
        if flag:
            index[old] = len(index)
    kept = [atoms[old] for old in index]
    bonds = [Bond(index[b.i], index[b.j], b.order) for b in bonds if b.i in index and b.j in index]
    return kept, bonds


def validate_record(rec):
    """The record rules checked one atom and one bond at a time, raising at
    the first fault in the documented order."""
    for name in ("complex_id", "protein_id"):
        text = str(getattr(rec, name))
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"{name} {text!r} cannot be encoded as UTF-8") from None
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
    seen = set()
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
        pair = (min(bond.i, bond.j), max(bond.i, bond.j))
        if pair in seen:
            raise DataError(f"{rec.complex_id}: bond ({bond.i},{bond.j}) repeats an earlier bond")
        seen.add(pair)
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


def grid_pairs(a, b, cutoff, width):
    """Cell-list pairs with the 27 neighbour cells of every row of ``a``
    ranked among the occupied cells of ``b``, axis by axis."""
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


def pairs_above(a, cutoff, width):
    """The half-shell form of ``grid_pairs(a, a, cutoff, width)``: its pairs
    with ``i < j``, in the same order."""
    i, j, d = grid_pairs(a, a, cutoff, width)
    above = j > i
    return i[above], j[above], d[above]


def _rank(sorted_values, x):
    r = np.searchsorted(sorted_values, x)
    hit = sorted_values[np.minimum(r, len(sorted_values) - 1)] == x
    return np.where(hit, r, -1)
