"""Synthetic complex generator for tests, demos, and the learnability suite.

Complexes are geometric toys, not chemistry: the ligand is a random bonded
blob of 5-15 atoms, the protein is a few random-walk chain segments of 20-40
atoms arranged around it, and the activity label is a planted geometric rule:

    active  <=>  some ligand/protein atom pair with elements {N, O}
                 sits closer than 3.5 A

Positives get such a pair planted at 2.5-3.3 A. Negatives are scrubbed of any
qualifying pair; half of them get a near-miss {N, O} pair planted at
3.8-4.9 A so a model cannot succeed without using distances. A pair's
distance has the bits ``chem.pairs_within``, the search the graph cutoffs
use, gives it.

The geometry runs on plain float triples, one Python float operation at a
time, with no numpy call per atom beyond the generator's: a step is
``x / sqrt(v.dot(v)) * length`` per axis, a position its parent plus the
step, and a distance the squared differences summed in x, y, z order, then
``sqrt``, the arithmetic of ``_unit`` and ``chem.pairwise_distances``. The
generator calls and their order are those of the array code this replaced,
so every corpus and pose set keeps its bytes; ``tests/test_synthetic.py``
pins them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .chem import ComplexRecord, _assemble_side, join_sides
from .graphs import compute_rmsd, label_pose

POSITIVE_PAIR_RANGE = (2.5, 3.3)
NEAR_MISS_RANGE = (3.8, 4.9)
LABEL_CUTOFF = 3.5
POSITIVE_FRACTION = 0.5  # chance that a corpus record is active
NEAR_MISS_FRACTION = 0.5  # chance that an inactive corpus record gets a near-miss pair

_LIGAND_ELEMENTS = ("C", "N", "O", "S", "F", "P", "Cl", "Br", "B", "H")
_LIGAND_WEIGHTS = (0.50, 0.13, 0.13, 0.05, 0.04, 0.03, 0.03, 0.02, 0.02, 0.05)
_PROTEIN_ELEMENTS = ("C", "N", "O", "S", "H")
_PROTEIN_WEIGHTS = (0.50, 0.16, 0.16, 0.03, 0.15)
_PARTNER = {"N": "O", "O": "N"}  # the element each half of a qualifying pair needs across the interface


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _moved(origin, rng, low, high):
    """``origin + _unit(rng) * rng.uniform(low, high)`` on float triples: the
    same draws in the same order, and per axis the same bits,
    ``o + x / sqrt(v.dot(v)) * length`` (``np.linalg.norm`` of a vector is
    ``sqrt(v.dot(v))``)."""
    v = rng.normal(size=3)
    norm = math.sqrt(v.dot(v))
    length = rng.uniform(low, high)
    x, y, z = v.tolist()
    return (origin[0] + x / norm * length, origin[1] + y / norm * length, origin[2] + z / norm * length)


def _distances(point, atoms):
    """The distances from a float triple to each of ``atoms``, with the bits
    of ``chem.pairwise_distances``: the squared differences summed in x, y, z
    order, then ``sqrt``."""
    x, y, z = point
    return [math.sqrt((x - p) * (x - p) + (y - q) * (y - q) + (z - r) * (z - r)) for p, q, r in atoms]


def _random_ligand(rng):
    n = int(rng.integers(5, 16))
    coords = [(0.0, 0.0, 0.0)]
    bonds = []
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        coords.append(_moved(coords[parent], rng, 1.4, 1.6))
        bonds.append((parent, k, "single"))
    elements = rng.choice(_LIGAND_ELEMENTS, size=n, p=_LIGAND_WEIGHTS).tolist()
    return elements, coords, bonds


def _random_protein(rng, ligand_coords, n_atoms):
    coords = []
    bonds = []
    while len(coords) < n_atoms:
        seg_len = min(int(rng.integers(4, 9)), n_atoms - len(coords))
        anchor = ligand_coords[int(rng.integers(0, len(ligand_coords)))]
        pos = _moved(anchor, rng, 3.0, 6.5)
        start = len(coords)
        for k in range(seg_len):
            if k > 0:
                for _ in range(8):  # avoid burrowing into the ligand; else keep the eighth step
                    pos = _moved(coords[-1], rng, 1.4, 1.6)
                    if min(_distances(pos, ligand_coords)) > 2.0:
                        break
            coords.append(pos)
            if k > 0:
                bonds.append((start + k - 1, start + k, "single"))
    elements = rng.choice(_PROTEIN_ELEMENTS, size=n_atoms, p=_PROTEIN_WEIGHTS).tolist()
    return elements, coords, bonds


def _qualifying_pairs(lig_el, lig_xyz, prot_el, prot_xyz, cutoff):
    """Ligand/protein index pairs closer than ``cutoff`` with elements {N, O},
    in ``(ligand, protein)`` order, as ``chem.pairs_within`` finds them."""
    pairs = []
    for p, a in enumerate(lig_el):
        if a in _PARTNER:
            d = _distances(lig_xyz[p], prot_xyz)
            pairs += [(p, q) for q, b in enumerate(prot_el) if b == _PARTNER[a] and d[q] < cutoff]
    return pairs


def generate_record(
    rng: np.random.Generator,
    complex_id: str,
    protein_id: str,
    label: int,
    plant_near_miss: bool = False,
) -> ComplexRecord:
    lig_el, lig_xyz, lig_bonds = _random_ligand(rng)
    n_prot = int(rng.integers(20, 41))
    prot_el, prot_xyz, prot_bonds = _random_protein(rng, lig_xyz, n_prot)

    # Plant the decisive pair: N<->O across the interface at a controlled distance.
    plant_range = POSITIVE_PAIR_RANGE if label == 1 else NEAR_MISS_RANGE
    if label == 1 or plant_near_miss:
        li = int(rng.integers(0, len(lig_el)))
        pj = int(rng.integers(0, len(prot_el)))
        if rng.random() < 0.5:
            lig_el[li], prot_el[pj] = "N", "O"
        else:
            lig_el[li], prot_el[pj] = "O", "N"
        prot_xyz[pj] = _moved(lig_xyz[li], rng, *plant_range)

    if label == 0:
        # Scrub accidental qualifying pairs by carbonizing the ligand side.
        while True:
            bad = _qualifying_pairs(lig_el, lig_xyz, prot_el, prot_xyz, LABEL_CUTOFF)
            if not bad:
                break
            lig_el[bad[0][0]] = "C"

    assert bool(_qualifying_pairs(lig_el, lig_xyz, prot_el, prot_xyz, LABEL_CUTOFF)) == bool(label)

    ligand = _assemble_side(list(zip(lig_el, lig_xyz)), lig_bonds, True, None)
    protein = _assemble_side(list(zip(prot_el, prot_xyz)), prot_bonds, False, None)

    if label == 1:
        category = "dude_active" if rng.random() < 0.5 else "pdbbind_positive"
    else:
        category = "dude_inactive" if rng.random() < 0.5 else "pdbbind_negative"
    return join_sides(complex_id, protein_id, ligand, protein, category=category, label=label)


def generate_corpus(
    n: int,
    seed: int,
    n_proteins: int = 40,
    id_prefix: str = "synth",
) -> list[ComplexRecord]:
    """A labeled corpus with a planted, distance-sensitive activity rule: a record
    is active with probability ``POSITIVE_FRACTION``, an inactive one gets a near-miss
    pair with probability ``NEAR_MISS_FRACTION``, and every id starts with ``id_prefix``."""
    rng = np.random.default_rng(seed)
    records = []
    for k in range(n):
        label = 1 if rng.random() < POSITIVE_FRACTION else 0
        near_miss = label == 0 and rng.random() < NEAR_MISS_FRACTION
        records.append(
            generate_record(
                rng,
                complex_id=f"{id_prefix}{k:05d}",
                protein_id=f"{id_prefix}-prot{int(rng.integers(0, n_proteins)):03d}",
                label=label,
                plant_near_miss=near_miss,
            )
        )
    return records


def generate_pose_set(n_complexes: int, poses_per_complex: int, seed: int) -> list[ComplexRecord]:
    """Docked-pose stand-ins: rigid perturbations of a reference ligand.

    Each pose carries its ligand heavy-atom RMSD to the reference, computed
    from the shifted positions before any record is built; poses in the
    2-4 A dead zone are omitted, the rest are labeled near-native/decoy.
    Complex ids are ``pose0000``, ``pose0001``, ...
    """
    rng = np.random.default_rng(seed)
    records = []
    for c in range(n_complexes):
        reference = generate_record(
            rng,
            complex_id=f"pose{c:04d}-ref",
            protein_id=f"pose-prot{c % max(1, n_complexes // 3):03d}",
            label=int(rng.random() < 0.5),
        )
        xyz = reference.coordinates()
        ligand = [k for k, a in enumerate(reference.atoms) if a.is_ligand]
        heavy = [k for k in ligand if reference.atoms[k].element != "H"]
        for _ in range(poses_per_complex):
            shift = _unit(rng) * rng.uniform(0.0, 6.0)
            jitter = rng.normal(scale=0.15, size=3)
            moved = xyz + shift + jitter
            rmsd = compute_rmsd(moved[heavy], xyz[heavy])
            pose_label = label_pose(rmsd)
            if pose_label is None:
                continue
            atoms = list(reference.atoms)
            for k in ligand:
                atoms[k] = replace(atoms[k], position=tuple(moved[k]))
            records.append(
                ComplexRecord(
                    complex_id=f"pose{c:04d}",
                    protein_id=reference.protein_id,
                    atoms=atoms,
                    bonds=list(reference.bonds),
                    category="pdbbind_positive" if pose_label == 1 else "pdbbind_negative",
                    label=pose_label,
                    rmsd=rmsd,
                )
            )
    return records
