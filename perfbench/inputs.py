"""Seeded input generation for the benchmark workloads.

Everything a workload consumes is generated here from the workload seed and
written to files, so the program only ever sees generated inputs:

* ``train_small``: a labelled graph cache featurized from
  ``molgat.synthetic.generate_corpus`` (N ~ 25-55 atoms, mean ~40).
* ``screen_pocket``: a labelled graph cache of pocket complexes (3/4 at
  N = 300, 1/4 at N = 600, ~30 ligand atoms, protein atoms 2.8-8 A from the
  ligand at protein-like packing) plus a randomly initialised paper-default
  checkpoint.
* ``ingest_pdb``: SDF ligands paired with whole-entry PDB proteins of
  3k-5k heavy atoms; each ligand sits in a cavity near the protein centre,
  so 8 A pruning leaves pocket-size graphs.

Fixed-seed probe inputs for the output checks are generated here too; they
do not depend on the workload seed, so their reference values in
``reference.json`` hold for every run.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np

from calibrate import Calibrator
from molgat import chem, graphs, synthetic
from molgat.model import ModelConfig, ModelParams, save_params

PROBE_SEED = 20190418
CHECKPOINT_SEED_OFFSET = 1

# Sizes per mode. "full" is what a benchmark run measures; "tiny" only exercises
# every code path for the self-check.
SIZES = {
    "full": {
        "train_records": 160,
        "train_proteins": 40,
        "screen_mix": ((300, 18), (600, 6)),
        "screen_proteins": 4,
        "ingest_sizes": (3000, 4000, 5000),
    },
    "tiny": {
        "train_records": 40,
        "train_proteins": 10,
        "screen_mix": ((60, 3), (90, 1)),
        "screen_proteins": 2,
        "ingest_sizes": (300, 400),
    },
}

LIGAND_ATOMS = (28, 33)  # ligand size range, inclusive-exclusive
LIGAND_RADIUS = 5.0
POCKET_INNER = 2.8  # closest protein atom to any ligand atom (A)
POCKET_OUTER = 7.9  # farthest, inside the 8 A prune cutoff
BOND_LENGTH = 1.5
LATTICE_ALONG = 1.5  # PDB proteins: chain spacing along a lattice line
LATTICE_ACROSS = 3.4  # and between lines
CAVITY = 3.0  # PDB proteins: no protein atom closer than this to the ligand

_LIGAND_ELEMENTS = ("C", "N", "O", "S", "F", "Cl")
_LIGAND_WEIGHTS = (0.60, 0.15, 0.15, 0.04, 0.03, 0.03)
_POCKET_ELEMENTS = ("C", "N", "O", "S", "H")
_POCKET_WEIGHTS = (0.50, 0.16, 0.16, 0.03, 0.15)
_PDB_ELEMENTS = ("C", "N", "O", "S")
_PDB_WEIGHTS = (0.63, 0.17, 0.19, 0.01)


def _units(rng, k):
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _min_dist(points, ref):
    if len(ref) == 0:
        return np.full(len(points), np.inf)
    diff = points[:, None, :] - ref[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).min(axis=1)


def ligand_blob(rng, n_atoms):
    """A compact bonded tree: bonds of BOND_LENGTH, non-bonded atoms >= 2.2 A apart,
    every atom within LIGAND_RADIUS of the first (so pocket sizes vary little)."""
    coords = np.zeros((n_atoms, 3))
    bonds = []
    for k in range(1, n_atoms):
        for _ in range(1000):
            parent = int(rng.integers(0, k))
            cand = coords[parent] + _units(rng, 1)[0] * BOND_LENGTH
            others = np.delete(coords[:k], parent, axis=0)
            if np.linalg.norm(cand) <= LIGAND_RADIUS and _min_dist(cand[None], others)[0] >= 2.2:
                break
        else:
            raise RuntimeError("could not place a ligand atom")
        coords[k] = cand
        bonds.append((parent, k))
    elements = list(rng.choice(_LIGAND_ELEMENTS, size=n_atoms, p=_LIGAND_WEIGHTS))
    return elements, coords, bonds


def _lattice(rng, radius, across):
    """Jittered, randomly rotated lattice lines inside a ball around the origin.

    Points are LATTICE_ALONG apart along a line and ``across`` apart between
    lines. Returns the points and, per point, its line id and slot on the line.
    """
    along = np.arange(-radius, radius + 1e-9, LATTICE_ALONG)
    lines = np.arange(-radius, radius + 1e-9, across)
    x, y, z = np.meshgrid(along, lines, lines, indexing="ij")
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    slot = np.broadcast_to(np.arange(len(along))[:, None, None], x.shape).ravel()
    line = np.broadcast_to(np.arange(len(lines) ** 2).reshape(1, len(lines), len(lines)), x.shape).ravel()
    inside = np.linalg.norm(pts, axis=1) <= radius
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    pts = pts[inside] @ rot.T
    return pts + rng.normal(scale=0.08, size=pts.shape), line[inside], slot[inside]


def _chain_bonds(line, slot):
    """Bonds between kept points that are neighbours on the same lattice line."""
    order = np.lexsort((slot, line))
    same = (line[order][1:] == line[order][:-1]) & (slot[order][1:] == slot[order][:-1] + 1)
    return [(int(i), int(j)) for i, j in zip(order[:-1][same], order[1:][same])]


def pocket_atoms(rng, ligand, n_prot):
    """``n_prot`` protein atoms drawn uniformly from the POCKET_INNER..POCKET_OUTER shell.

    The shell is filled from a dense lattice (~0.14 points/A^3) and thinned at
    random, so the packing is n_prot / shell volume: about heavy-atom protein
    density at N = 300 and all-atom density at N = 600.
    """
    centre = ligand.mean(axis=0)
    radius = np.linalg.norm(ligand - centre, axis=1).max() + POCKET_OUTER + 1.0
    pts, line, slot = _lattice(rng, radius, 2.2)
    pts = pts + centre
    d_lig = _min_dist(pts, ligand)
    shell = np.flatnonzero((d_lig >= POCKET_INNER) & (d_lig <= POCKET_OUTER))
    if len(shell) < n_prot:
        raise RuntimeError(f"pocket shell holds {len(shell)} points, need {n_prot}")
    keep = np.sort(rng.choice(shell, size=n_prot, replace=False))
    elements = list(rng.choice(_POCKET_ELEMENTS, size=n_prot, p=_POCKET_WEIGHTS))
    return elements, pts[keep], _chain_bonds(line[keep], slot[keep])


def pocket_record(rng, n_total, complex_id, protein_id, label):
    n_lig = int(rng.integers(*LIGAND_ATOMS))
    lig_el, lig_xyz, lig_bonds = ligand_blob(rng, n_lig)
    prot_el, prot_xyz, prot_bonds = pocket_atoms(rng, lig_xyz, n_total - n_lig)
    return _record(
        lig_el, lig_xyz, lig_bonds, prot_el, prot_xyz, prot_bonds,
        complex_id, protein_id, "dude_active" if label else "dude_inactive",
    )


def _record(lig_el, lig_xyz, lig_bonds, prot_el, prot_xyz, prot_bonds, cid, pid, category):
    """A ComplexRecord with annotations derived the way the SDF/PDB readers derive them."""
    def side(elements, xyz, bonds, is_ligand):
        raw_bonds = [(i, j, "single") for i, j in bonds]
        return chem._assemble_side(list(zip(elements, map(tuple, xyz))), raw_bonds, is_ligand, None)

    lig_atoms, lb = side(lig_el, lig_xyz, lig_bonds, True)
    prot_atoms, pb = side(prot_el, prot_xyz, prot_bonds, False)
    off = len(lig_atoms)
    bonds = lb + [chem.Bond(b.i + off, b.j + off, b.order) for b in pb]
    return chem.ComplexRecord(
        complex_id=cid, protein_id=pid, atoms=lig_atoms + prot_atoms, bonds=bonds, category=category
    )


def pdb_protein(rng, ligand, n_atoms):
    """Heavy-atom protein of exactly ``n_atoms`` atoms around a ligand at the origin.

    Atoms sit on jittered, randomly rotated lattice lines (1.5 A along a
    line, 3.4 A between lines: ~0.054 atoms/A^3, heavy-atom protein density),
    with a cavity of CAVITY A around the ligand.
    """
    radius = (n_atoms * LATTICE_ALONG * LATTICE_ACROSS**2 / (4.0 / 3.0 * np.pi) * 1.4) ** (1 / 3) + 4.0
    pts, _, _ = _lattice(rng, radius, LATTICE_ACROSS)
    pts = pts[_min_dist(pts, ligand) >= CAVITY]
    pts = pts[np.argsort(np.linalg.norm(pts, axis=1), kind="stable")[:n_atoms]]
    if len(pts) < n_atoms:
        raise RuntimeError("lattice too small")
    elements = list(rng.choice(_PDB_ELEMENTS, size=n_atoms, p=_PDB_WEIGHTS))
    return elements, pts


def write_sdf(path, elements, coords, bonds) -> None:
    lines = ["ligand", "  perfbench", "", f"{len(elements):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000"]
    for el, (x, y, z) in zip(elements, coords):
        lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {el:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for i, j in bonds:
        lines.append(f"{i + 1:3d}{j + 1:3d}  1  0  0  0  0")
    lines += ["M  END", "$$$$"]
    _write_text(path, "\n".join(lines) + "\n")


def write_pdb(path, elements, coords) -> None:
    lines = []
    for k, (el, (x, y, z)) in enumerate(zip(elements, coords)):
        lines.append(
            f"ATOM  {k + 1:5d}  {el:<3s} ALA A{k // 8 + 1:4d}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00          {el:>2s}"
        )
    lines.append("END")
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def oracle_bonds(pdb_path) -> np.ndarray:
    """Brute-force bond set of a PDB file as written (3-decimal coordinates):
    every pair with d < 1.3 * (r_i + r_j), computed in row blocks."""
    elements, coords = [], []
    with open(pdb_path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("ATOM"):
                coords.append((float(line[30:38]), float(line[38:46]), float(line[46:54])))
                elements.append(line[76:78].strip())
    coords = np.array(coords)
    radii = np.array([chem.COVALENT_RADII[e] for e in elements])
    pairs = []
    for start in range(0, len(coords), 256):
        block = coords[start : start + 256]
        d = np.sqrt(((block[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        cut = chem.BOND_INFERENCE_FACTOR * (radii[start : start + 256, None] + radii[None, :])
        ii, jj = np.nonzero(d < cut)
        ii = ii + start
        keep = ii < jj
        pairs.append(np.stack([ii[keep], jj[keep]], axis=1))
    return np.concatenate(pairs).astype(np.int64)


def paper_config() -> ModelConfig:
    return ModelConfig(num_gat_layers=4, gat_dim=140, fc_dims=(128, 128, 1), dropout_rate=0.3)


def _featurize(records):
    return [graphs.build_sample(graphs.prune_protein(r)) for r in records]


def shape_stats(samples) -> dict:
    """N distribution and intermolecular contacts (< 5 A) per ligand atom."""
    sizes = np.array([s.num_atoms for s in samples], dtype=float)
    contacts = []
    for s in samples:
        n_lig = int(s.features[:, :28].any(axis=1).sum())
        contacts.append(float(s.inter_mask[:n_lig].sum()) / n_lig)
    q = np.percentile(sizes, [0, 25, 50, 75, 100])
    return {
        "samples": len(samples),
        "n_min": q[0], "n_p25": q[1], "n_median": q[2], "n_p75": q[3], "n_max": q[4],
        "n_mean": float(sizes.mean()),
        "contacts_per_ligand_atom_mean": float(np.mean(contacts)),
    }


# ---------------------------------------------------------------------------
# Workload set-up: the timed part. Each returns the manifest of input files.
# ---------------------------------------------------------------------------

def setup_train(seed, size, out):
    records = synthetic.generate_corpus(
        size["train_records"], seed=seed, n_proteins=size["train_proteins"], id_prefix="train"
    )
    path = os.path.join(out, "train.cache")
    graphs.write_cache(_featurize(records), path)
    return {"cache": path}


def screen_records(seed, mix, n_proteins):
    rng = np.random.default_rng(seed)
    records = []
    k = 0
    for n_total, count in mix:
        for _ in range(count):
            # Labels alternate and proteins rotate so every protein holds both classes.
            records.append(
                pocket_record(rng, n_total, f"scr{k:04d}", f"scr-prot{k % n_proteins}", k // n_proteins % 2)
            )
            k += 1
    return records


def setup_screen(seed, size, out):
    path = os.path.join(out, "screen.cache")
    graphs.write_cache(_featurize(screen_records(seed, size["screen_mix"], size["screen_proteins"])), path)
    ckpt = os.path.join(out, "screen.ckpt")
    cfg = paper_config()
    save_params(ckpt, ModelParams.initialize(cfg, np.random.default_rng(seed + CHECKPOINT_SEED_OFFSET)), cfg)
    return {"cache": path, "checkpoint": ckpt}


def ingest_pair(rng, n_atoms):
    lig_el, lig_xyz, lig_bonds = ligand_blob(rng, int(rng.integers(*LIGAND_ATOMS)))
    lig_xyz = lig_xyz - lig_xyz.mean(axis=0)
    prot_el, prot_xyz = pdb_protein(rng, lig_xyz, n_atoms)
    return (lig_el, lig_xyz, lig_bonds), (prot_el, prot_xyz)


def setup_ingest(seed, size, out):
    rng = np.random.default_rng(seed)
    pairs = []
    for k, n_atoms in enumerate(size["ingest_sizes"]):
        (lig_el, lig_xyz, lig_bonds), (prot_el, prot_xyz) = ingest_pair(rng, n_atoms)
        sdf = os.path.join(out, f"lig{k}.sdf")
        pdb = os.path.join(out, f"prot{k}.pdb")
        write_sdf(sdf, lig_el, lig_xyz, lig_bonds)
        write_pdb(pdb, prot_el, prot_xyz)
        pairs.append(f"{sdf}:{pdb}")
    return {"pairs": pairs}


SETUP = {"train_small": setup_train, "screen_pocket": setup_screen, "ingest_pdb": setup_ingest}


# ---------------------------------------------------------------------------
# Check inputs: untimed, prepared once per run.
# ---------------------------------------------------------------------------

def probe_train_cache(out):
    """Fixed corpus for the reference loss trajectory and checkpoint round trip."""
    path = os.path.join(out, "probe_train.cache")
    graphs.write_cache(_featurize(synthetic.generate_corpus(48, seed=PROBE_SEED, n_proteins=8, id_prefix="probe")), path)
    return path


def no_contact_record(rng):
    """A complex whose protein atoms all lie 5.5-7.5 A from the ligand."""
    lig_el, lig_xyz, lig_bonds = ligand_blob(rng, 12)
    prot = []
    while len(prot) < 20:
        c = lig_xyz[int(rng.integers(0, 12))] + _units(rng, 1)[0] * rng.uniform(5.5, 7.5)
        d = _min_dist(c[None], lig_xyz)[0]
        if 5.5 <= d <= 7.5 and (not prot or _min_dist(c[None], np.array(prot))[0] >= 1.6):
            prot.append(c)
    prot_el = ["C"] * 10 + ["N"] * 5 + ["O"] * 5
    return _record(lig_el, lig_xyz, lig_bonds, prot_el, np.array(prot), [], "probe-nocontact", "probe-prot0", "dude_inactive")


def permuted(rec, rng):
    order = rng.permutation(len(rec.atoms))
    inverse = np.argsort(order)
    atoms = [rec.atoms[i] for i in order]
    bonds = [chem.Bond(int(inverse[b.i]), int(inverse[b.j]), b.order) for b in rec.bonds]
    return chem.ComplexRecord(
        complex_id=rec.complex_id + "-perm", protein_id=rec.protein_id, atoms=atoms,
        bonds=bonds, category=rec.category,
    )


def probe_screen(out):
    """Probe cache: pockets at N = 60/150/300, a permuted copy of the first, a no-contact complex."""
    rng = np.random.default_rng(PROBE_SEED)
    recs = [pocket_record(rng, n, f"probe{k}", f"probe-prot{k % 2}", k % 2) for k, n in enumerate((60, 150, 300))]
    recs.append(permuted(recs[0], rng))
    recs.append(no_contact_record(rng))
    cache = os.path.join(out, "probe_screen.cache")
    graphs.write_cache(_featurize(recs), cache)
    ckpt = os.path.join(out, "probe.ckpt")
    cfg = paper_config()
    save_params(ckpt, ModelParams.initialize(cfg, np.random.default_rng(PROBE_SEED)), cfg)
    return {"cache": cache, "checkpoint": ckpt}


def prepare_checks(workload, seed, size, out, manifest) -> dict:
    checks = {}
    if workload == "train_small":
        checks["probe_cache"] = probe_train_cache(out)
        checks["shape"] = shape_stats(graphs.read_cache(manifest["cache"]))
    elif workload == "screen_pocket":
        checks["probe"] = probe_screen(out)
        checks["shape"] = shape_stats(graphs.read_cache(manifest["cache"]))
    else:
        rng = np.random.default_rng(seed)
        sizes, contacts = [], []
        for k, (n_atoms, pair) in enumerate(zip(size["ingest_sizes"], manifest["pairs"])):
            (lig_el, lig_xyz, lig_bonds), (prot_el, prot_xyz) = ingest_pair(rng, n_atoms)
            if k == 0:
                path = os.path.join(out, "oracle_bonds.npy")
                pdb = pair.split(":", 1)[1]
                np.save(path, oracle_bonds(pdb))
                checks["oracle"] = {"pdb": pdb, "bonds": path}
            d = np.sqrt(((prot_xyz[:, None, :] - lig_xyz[None, :, :]) ** 2).sum(axis=2))
            sizes.append(len(lig_xyz) + int((d.min(axis=1) <= graphs.PRUNE_CUTOFF).sum()))
            contacts.append(float((d < graphs.CONTACT_CUTOFF).sum()) / len(lig_xyz))
        q = np.percentile(sizes, [0, 25, 50, 75, 100])
        checks["shape"] = {
            "samples": len(sizes), "pdb_atoms": list(size["ingest_sizes"]),
            "n_min": q[0], "n_p25": q[1], "n_median": q[2], "n_p75": q[3], "n_max": q[4],
            "n_mean": float(np.mean(sizes)),
            "contacts_per_ligand_atom_mean": float(np.mean(contacts)),
        }
    return checks


def run_setup(workload, seed, size_name, out, reps) -> dict:
    """Set the workload up ``reps`` times; returns the manifest, check inputs and
    timings. Each repetition is bracketed by calibration units (see calibrate.py)
    and also reported at reference speed."""
    size = SIZES[size_name]
    cal = Calibrator()
    times, normalized = [], []
    manifest = None
    for _ in range(reps):
        gc.collect()  # every repetition starts from the same collector state
        before = cal.sample()
        start = time.perf_counter_ns()
        manifest = SETUP[workload](seed, size, out)
        elapsed = time.perf_counter_ns() - start
        after = cal.sample()
        slowness = float(np.mean(before + after))
        times.append(elapsed / 1e9)
        normalized.append(elapsed / 1e9 / slowness)
    checks = prepare_checks(workload, seed, size, out, manifest)
    result = {"manifest": manifest, "checks": checks, "setup_times_s": times, "setup_normalized_s": normalized}
    with open(os.path.join(out, "setup.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result
