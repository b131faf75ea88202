"""Array-based ingestion against the per-atom reference in ``ingest_oracle``:
seeded SDF/PDB pairs of 250, 700 and 3,000 protein atoms give the same atoms
(values and Python types), the same bonds in the same order, the same
``stats`` counts and byte-identical caches, whether the record is pruned
after ``parse_complex`` or by it; feature rows and their clamp counts match;
and faulty records fail with the same message."""

import dataclasses
import gc

import numpy as np
import pytest

from molgat import chem, cli, graphs
from molgat.chem import Bond, parse_complex, parse_pdb_protein, parse_sdf_ligand
from molgat.errors import DataError
from molgat.graphs import PRUNE_CUTOFF, build_sample, prune_protein, write_cache
from molgat.model import ModelConfig, ModelParams, save_params
from molgat.synthetic import generate_corpus

import ingest_oracle
from helpers import atom_feature_row
from test_chem import pdb_line, sdf_text

PROTEIN_ELEMENTS = ["C", "N", "O", "S", "H", "Fe", "Zn"]
PROTEIN_WEIGHTS = [0.45, 0.15, 0.15, 0.05, 0.15, 0.03, 0.02]
LIGAND_ELEMENTS = ["C", "N", "O", "F", "Cl", "Br", "P", "B", "H", "Si"]


def write_pair(tmp_path, n, rng):
    """An SDF ligand and a PDB protein of ``n`` ATOM/HETATM lines in a box around it.

    The protein has unsupported elements, hydrogens, HETATM records, blank
    element columns (the element comes from the atom name), altLoc A and B
    records (B is skipped) and atoms on the faces of the bond search's
    cells; the ligand has aromatic, double and single bonds, hydrogens and
    an unsupported element."""
    side = (n / 0.09) ** (1 / 3)
    xyz = np.round(rng.uniform(-side / 2, side / 2, size=(n, 3)), 3)
    on_face = rng.random((n, 3)) < 0.1
    xyz[on_face] = np.round(np.round(xyz[on_face] / 3.12) * 3.12, 3)
    elements = rng.choice(PROTEIN_ELEMENTS, size=n, p=PROTEIN_WEIGHTS)
    lines = []
    for k, (el, pos) in enumerate(zip(elements, xyz)):
        record = "HETATM" if rng.random() < 0.05 else "ATOM"
        altloc = rng.choice([" ", "A", "B"], p=[0.9, 0.05, 0.05])
        name, column = (f"{el.upper()}{k % 9 + 1}", "") if rng.random() < 0.1 else (el.upper(), el)
        lines.append(pdb_line(k + 1, name, "UNK", "A", k // 10 + 1, *pos, column, record, altloc))
    pdb = tmp_path / f"prot{n}.pdb"
    pdb.write_text("REMARK random protein\n" + "\n".join(lines) + "\nEND\n")

    m = 24
    steps = rng.normal(size=(m, 3))
    lig = np.cumsum(1.45 * steps / np.linalg.norm(steps, axis=1, keepdims=True), axis=0)
    lig = np.round(lig - lig.mean(axis=0), 4)
    symbols = rng.choice(LIGAND_ELEMENTS, size=m, p=[0.45, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05])
    bonds = [(k, k + 1, int(rng.choice([1, 1, 2, 4]))) for k in range(1, m)]
    bonds += [(k, k + 3, 4) for k in range(1, m - 3, 5)]
    sdf = tmp_path / f"lig{n}.sdf"
    sdf.write_text(sdf_text([(*p, s) for p, s in zip(lig, symbols)], bonds))
    return sdf, pdb


@pytest.fixture
def reference(monkeypatch):
    """Swaps the per-atom reference in for the array-based steps."""

    def annotate(element, positions, ends, orders, is_ligand):
        bonds = [Bond(i, j, chem.BOND_ORDERS[order]) for (i, j), order in zip(ends.tolist(), orders.tolist())]
        symbols = [chem.ELEMENTS[k] for k in element.tolist()]
        return ingest_oracle.annotate(list(zip(symbols, positions)), bonds, is_ligand)

    def feature_rows(atoms, stats):
        return np.array([ingest_oracle.atom_feature_row(a, stats) for a in atoms], dtype=np.uint8)

    def use():
        monkeypatch.setattr(chem, "_annotate", annotate)
        monkeypatch.setattr(chem, "_grid_pairs", lambda a, *args: ingest_oracle.pairs_above(a, *args))
        monkeypatch.setattr(chem, "validate_record", ingest_oracle.validate_record)
        monkeypatch.setattr(chem, "select_atoms", ingest_oracle.select_atoms)
        monkeypatch.setattr(graphs, "select_atoms", ingest_oracle.select_atoms)
        monkeypatch.setattr(graphs, "ligand_first", ingest_oracle.ligand_first)
        monkeypatch.setattr(graphs, "_feature_rows", feature_rows)

    return use


def ingest(sdf, pdb, cache, pruned_by_parse=False):
    """Parse, prune and cache one pair: pruned after ``parse_complex``, or by
    it as ``featurize`` does."""
    stats = {}
    parts = (parse_sdf_ligand(sdf, dict(stats)), parse_pdb_protein(pdb, dict(stats)))
    if pruned_by_parse:
        rec = pruned = parse_complex(sdf, pdb, "dude_active", stats, cutoff=PRUNE_CUTOFF)
    else:
        rec = parse_complex(sdf, pdb, "dude_active", stats)
        pruned = prune_protein(rec)
    write_cache([build_sample(pruned, stats)], cache)
    return parts, rec, pruned, stats, cache.read_bytes()


def check_pair(tmp_path, reference, n, pruned_by_parse):
    rng = np.random.default_rng(n)
    sdf, pdb = write_pair(tmp_path, n, rng)
    got = ingest(sdf, pdb, tmp_path / "array.cache", pruned_by_parse)
    reference()
    want = ingest(sdf, pdb, tmp_path / "oracle.cache", pruned_by_parse)

    (lig, prot), rec, pruned, stats, cache = got
    assert stats == want[3] and stats["dropped_atoms"] > 0
    assert all(type(v) is int for v in stats.values())
    assert cache == want[4]
    # repr shows each value's type: 1 and True, 1.0 and np.float64(1.0) differ
    for side, expected in zip((lig, prot), want[0]):
        assert repr(side) == repr(expected)
    assert repr(rec) == repr(want[1]) and repr(pruned) == repr(want[2])
    assert any(b.order == "aromatic" for b in lig[1]) and any(a.element == "H" for a in prot[0])
    assert len(prot[1]) > len(prot[0]) // 3
    assert all(type(c) is float for a in rec.atoms for c in a.position)


@pytest.mark.parametrize("n", [250, 700, 3000])
def test_pairs_match_the_per_atom_reference(tmp_path, reference, n):
    check_pair(tmp_path, reference, n, pruned_by_parse=False)


@pytest.mark.parametrize("n", [250, 700, 3000])
def test_pairs_pruned_by_parse_complex_match_the_per_atom_reference(tmp_path, reference, n):
    check_pair(tmp_path, reference, n, pruned_by_parse=True)


@pytest.mark.parametrize("cutoff", [4.5, 8.0, 12.0])
@pytest.mark.parametrize("n", [250, 700, 3000])
def test_parse_complex_prunes_like_prune_protein(tmp_path, n, cutoff):
    sdf, pdb = write_pair(tmp_path, n, np.random.default_rng(n))
    counts = {}, {}
    whole = parse_complex(sdf, pdb, "dude_active", counts[0])
    after = prune_protein(whole, cutoff)
    pruned = parse_complex(sdf, pdb, "dude_active", counts[1], cutoff=cutoff)
    assert repr(pruned) == repr(after) and counts[0] == counts[1]
    if (n, cutoff) != (250, 12.0):  # that box lies wholly within 12 A of the ligand
        assert len(pruned.atoms) < len(whole.atoms)
    caches = []
    for name, rec in (("after", after), ("in_parse", pruned)):
        write_cache([build_sample(rec, {})], tmp_path / f"{name}.cache")
        caches.append((tmp_path / f"{name}.cache").read_bytes())
    assert caches[0] == caches[1]


def test_parse_complex_pauses_the_collector(tmp_path):
    # the 3,000-atom entry keeps 2,709 atoms and infers 2,594 bonds: about
    # 8,000 tracked objects (atoms, position tuples, bonds) that live until
    # the prune. With the collector running, their allocations start 15
    # collections during the parse. None of them is in a cycle, so pausing
    # the collector leaves no garbage behind.
    sdf, pdb = write_pair(tmp_path, 3000, np.random.default_rng(3000))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        parse_complex(sdf, pdb, "dude_active", {}, cutoff=PRUNE_CUTOFF)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 1
    for _ in range(3):
        parse_complex(sdf, pdb, "dude_active", {}, cutoff=PRUNE_CUTOFF)
    assert gc.collect() == 0


def test_jsonl_featurize_pauses_the_collector_per_record(tmp_path):
    # the whole 3,000-atom record as one canonical line: its JSON objects,
    # atoms, position tuples and bonds live until the prune, and with the
    # collector running their allocations start about 24 collections per
    # command; paused, one young collection follows the record
    sdf, pdb = write_pair(tmp_path, 3000, np.random.default_rng(3000))
    chem.write_jsonl([parse_complex(sdf, pdb, "dude_active", {})], tmp_path / "whole.jsonl")
    argv = ["featurize", str(tmp_path / "whole.jsonl"), "--out", str(tmp_path / "whole.cache")]
    assert cli.main(argv) == 0  # builds the parser on a first call in the process
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    for _ in range(3):
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert cli.main(argv) == 0
        finally:
            gc.callbacks.remove(count)
    assert len(starts) <= 3


def test_jsonl_predict_pauses_the_collector_per_record(tmp_path):
    # predict on a JSON-lines input parses and prunes each record as
    # featurize does: the 3,000-atom record costs at most one collection
    sdf, pdb = write_pair(tmp_path, 3000, np.random.default_rng(3000))
    chem.write_jsonl([parse_complex(sdf, pdb, "dude_active", {})], tmp_path / "whole.jsonl")
    config = ModelConfig(num_gat_layers=1, gat_dim=8, fc_dims=(8, 1))
    save_params(tmp_path / "tiny.ckpt", ModelParams.initialize(config, np.random.default_rng(7)), config)
    argv = ["predict", "--input", str(tmp_path / "whole.jsonl"), "--checkpoint", str(tmp_path / "tiny.ckpt"),
            "--out", str(tmp_path / "pred")]
    assert cli.main(argv) == 0  # builds the parser on a first call in the process
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    for _ in range(3):
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert cli.main(argv) == 0
        finally:
            gc.callbacks.remove(count)
    assert len(starts) <= 3


def test_feature_rows_match_the_per_atom_reference():
    rng = np.random.default_rng(43)
    atoms = [chem.Atom(str(rng.choice(chem.ELEMENTS)), (0.0, 0.0, 0.0), bool(rng.random() < 0.4),
                       *(int(v) for v in rng.integers(0, 8, size=3)), bool(rng.random() < 0.3))
             for _ in range(300)]
    atoms[7] = dataclasses.replace(atoms[7], degree=10**30)
    rec = chem.ComplexRecord("c", "p", atoms, [])
    got, want = {}, {}
    assert np.array_equal(chem.featurize(rec, got), ingest_oracle.featurize(rec, want))
    assert got == want and got["clamped_annotations"] > 100
    for a in atoms[:20]:
        assert np.array_equal(atom_feature_row(a), ingest_oracle.atom_feature_row(a))
    untouched = {}
    chem.featurize(dataclasses.replace(rec, atoms=[a for a in atoms if max(a.degree, a.implicit_valence) <= 5
                                                   and a.num_hydrogens <= 4]), untouched)
    assert untouched == {}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ligand_first_matches_the_per_atom_reference(seed):
    rng = np.random.default_rng(seed)
    for rec in generate_corpus(4, seed=seed):
        assert chem.ligand_first(rec) is rec and ingest_oracle.ligand_first(rec) is rec
        n, n_lig = len(rec.atoms), sum(a.is_ligand for a in rec.atoms)
        swapped = np.r_[:n_lig - 1, n_lig, n_lig - 1, n_lig + 1:n]  # the last ligand atom one place late
        for order in (rng.permutation(n), np.arange(n)[::-1], swapped):
            place = np.argsort(order).tolist()
            bonds = [Bond(place[b.i], place[b.j], b.order) for b in rec.bonds]
            bonds = [Bond(b.j, b.i, b.order) if rng.random() < 0.5 else b for b in bonds[::-1]]
            shuffled = dataclasses.replace(rec, atoms=[rec.atoms[k] for k in order.tolist()], bonds=bonds)
            got = chem.ligand_first(shuffled)
            assert repr(got) == repr(ingest_oracle.ligand_first(shuffled))
            assert chem.ligand_first(got) is got


FAULTS = ["identifier", "side", "element", "position", "annotation", "self", "range", "cross", "order",
          "repeat"]


def inject(rec, fault, rng):
    """``rec`` with one more fault at a random atom or bond, built without validation."""
    atoms, bonds = list(rec.atoms), list(rec.bonds)
    k = int(rng.integers(len(atoms)))
    b = int(rng.integers(len(bonds)))
    changes = {}
    if fault == "identifier":
        changes[str(rng.choice(["complex_id", "protein_id"]))] = "x\udcff"
    elif fault == "side":
        flag = bool(rng.random() < 0.5)
        atoms = [dataclasses.replace(a, is_ligand=flag) for a in atoms]
    elif fault == "element":
        atoms[k] = dataclasses.replace(atoms[k], element=str(rng.choice(["Si", "Fe", "c", ""])))
    elif fault == "position":
        bad = list(atoms[k].position)
        bad[int(rng.integers(3))] = float(rng.choice([np.nan, np.inf, -np.inf]))
        atoms[k] = dataclasses.replace(atoms[k], position=tuple(bad) if rng.random() < 0.8 else (0.0, 1.0))
    elif fault == "annotation":
        field = str(rng.choice(["degree", "num_hydrogens", "implicit_valence"]))
        atoms[k] = dataclasses.replace(atoms[k], **{field: -1})
    elif fault == "self":
        bonds[b] = Bond(bonds[b].i, bonds[b].i, bonds[b].order)
    elif fault == "range":
        bonds[b] = Bond(bonds[b].i, int(rng.choice([-1, len(atoms), 10**30])), bonds[b].order)
    elif fault == "cross":
        sides = [[i for i, a in enumerate(atoms) if a.is_ligand == flag] for flag in (True, False)]
        if all(sides):
            bonds[b] = Bond(int(rng.choice(sides[0])), int(rng.choice(sides[1])), bonds[b].order)
    elif fault == "order":
        bonds[b] = Bond(bonds[b].i, bonds[b].j, "quadruple")
    else:
        bonds.insert(b + 1 + int(rng.integers(len(bonds) - b)), Bond(bonds[b].j, bonds[b].i))
    out = object.__new__(type(rec))
    out.__dict__.update(vars(rec), atoms=atoms, bonds=bonds, **changes)
    return out


def message(validate, rec):
    with pytest.raises(DataError) as err:
        validate(rec)
    return str(err.value)


def test_faulty_records_fail_with_the_reference_message():
    rng = np.random.default_rng(41)
    records = [prune_protein(r) for r in generate_corpus(20, seed=41)]
    for trial in range(400):
        rec = records[trial % len(records)]
        for fault in rng.choice(FAULTS, size=int(rng.integers(1, 4))):
            rec = inject(rec, fault, rng)
        assert message(chem.validate_record, rec) == message(ingest_oracle.validate_record, rec)
