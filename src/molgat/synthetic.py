"""Synthetic complex generator for tests, demos, and the learnability suite.

Complexes are geometric toys, not chemistry: the ligand is a random bonded
blob of 5-15 atoms, the protein is a few random-walk chain segments of 20-40
atoms arranged around it, and the activity label is a planted geometric rule:

    active  <=>  some ligand/protein atom pair with elements {N, O}
                 sits closer than 3.5 A

Positives get such a pair planted at 2.5-3.3 A. Negatives are scrubbed of any
qualifying pair; half of them get a near-miss {N, O} pair planted at
3.8-4.9 A so a model cannot succeed without using distances. Qualifying pairs
are found with ``chem.pairs_within``, the search the graph cutoffs use.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .chem import Bond, ComplexRecord, _assemble_side, pairs_within, pairwise_distances
from .graphs import label_pose, ligand_rmsd

POSITIVE_PAIR_RANGE = (2.5, 3.3)
NEAR_MISS_RANGE = (3.8, 4.9)
LABEL_CUTOFF = 3.5
POSITIVE_FRACTION = 0.5  # chance that a corpus record is active
NEAR_MISS_FRACTION = 0.5  # chance that an inactive corpus record gets a near-miss pair

_LIGAND_ELEMENTS = ("C", "N", "O", "S", "F", "P", "Cl", "Br", "B", "H")
_LIGAND_WEIGHTS = (0.50, 0.13, 0.13, 0.05, 0.04, 0.03, 0.03, 0.02, 0.02, 0.05)
_PROTEIN_ELEMENTS = ("C", "N", "O", "S", "H")
_PROTEIN_WEIGHTS = (0.50, 0.16, 0.16, 0.03, 0.15)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_ligand(rng):
    n = int(rng.integers(5, 16))
    coords = [np.zeros(3)]
    bonds = []
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        coords.append(coords[parent] + _unit(rng) * rng.uniform(1.4, 1.6))
        bonds.append((parent, k, "single"))
    elements = list(rng.choice(_LIGAND_ELEMENTS, size=n, p=_LIGAND_WEIGHTS))
    return elements, coords, bonds


def _random_protein(rng, ligand_coords, n_atoms):
    ligand = np.array(ligand_coords)
    coords = []
    bonds = []
    while len(coords) < n_atoms:
        seg_len = min(int(rng.integers(4, 9)), n_atoms - len(coords))
        anchor = ligand_coords[int(rng.integers(0, len(ligand_coords)))]
        pos = anchor + _unit(rng) * rng.uniform(3.0, 6.5)
        start = len(coords)
        for k in range(seg_len):
            if k > 0:
                for _ in range(8):  # avoid burrowing into the ligand
                    step = _unit(rng) * rng.uniform(1.4, 1.6)
                    candidate = coords[-1] + step
                    if pairwise_distances(candidate[None], ligand).min() > 2.0:
                        break
                else:
                    candidate = coords[-1] + step
                pos = candidate
            coords.append(pos.copy())
            if k > 0:
                bonds.append((start + k - 1, start + k, "single"))
    elements = list(rng.choice(_PROTEIN_ELEMENTS, size=n_atoms, p=_PROTEIN_WEIGHTS))
    return elements, coords, bonds


def _qualifying_pairs(lig_el, lig_xyz, prot_el, prot_xyz, cutoff):
    """Ligand/protein index pairs closer than ``cutoff`` with elements {N, O}."""
    i, j, d = pairs_within(np.array(lig_xyz), np.array(prot_xyz), cutoff)
    close = zip(i[d < cutoff].tolist(), j[d < cutoff].tolist())
    return [(p, q) for p, q in close if {lig_el[p], prot_el[q]} == {"N", "O"}]


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
        prot_xyz[pj] = lig_xyz[li] + _unit(rng) * rng.uniform(*plant_range)

    if label == 0:
        # Scrub accidental qualifying pairs by carbonizing the ligand side.
        while True:
            bad = _qualifying_pairs(lig_el, lig_xyz, prot_el, prot_xyz, LABEL_CUTOFF)
            if not bad:
                break
            lig_el[bad[0][0]] = "C"

    assert bool(_qualifying_pairs(lig_el, lig_xyz, prot_el, prot_xyz, LABEL_CUTOFF)) == bool(label)

    lig_atoms, lb = _assemble_side(list(zip(lig_el, map(tuple, lig_xyz))), lig_bonds, True, None)
    prot_atoms, pb = _assemble_side(list(zip(prot_el, map(tuple, prot_xyz))), prot_bonds, False, None)
    offset = len(lig_atoms)
    bonds = lb + [Bond(b.i + offset, b.j + offset, b.order) for b in pb]

    if label == 1:
        category = "dude_active" if rng.random() < 0.5 else "pdbbind_positive"
    else:
        category = "dude_inactive" if rng.random() < 0.5 else "pdbbind_negative"
    return ComplexRecord(
        complex_id=complex_id,
        protein_id=protein_id,
        atoms=lig_atoms + prot_atoms,
        bonds=bonds,
        category=category,
        label=label,
    )


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

    Each pose carries its heavy-atom RMSD to the reference; poses in the
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
        for p in range(poses_per_complex):
            shift = _unit(rng) * rng.uniform(0.0, 6.0)
            jitter = rng.normal(scale=0.15, size=3)
            atoms = []
            for atom in reference.atoms:
                if atom.is_ligand:
                    pos = tuple(np.asarray(atom.position) + shift + jitter)
                    atoms.append(replace(atom, position=pos))
                else:
                    atoms.append(atom)
            pose = ComplexRecord(
                complex_id=f"pose{c:04d}",
                protein_id=reference.protein_id,
                atoms=atoms,
                bonds=list(reference.bonds),
                category="unlabeled",
            )
            rmsd = ligand_rmsd(pose, reference)
            pose_label = label_pose(rmsd)
            if pose_label is None:
                continue
            records.append(
                ComplexRecord(
                    complex_id=pose.complex_id,
                    protein_id=pose.protein_id,
                    atoms=pose.atoms,
                    bonds=pose.bonds,
                    category="pdbbind_positive" if pose_label == 1 else "pdbbind_negative",
                    label=pose_label,
                    rmsd=rmsd,
                )
            )
    return records
