import ast
import contextlib
import copy
import dataclasses
import gc
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from molgat import chem
from molgat.chem import (
    Atom,
    Bond,
    COVALENT_RADII,
    BOND_INFERENCE_FACTOR,
    ComplexRecord,
    featurize,
    ligand_first,
    pairs_within,
    pairwise_distances,
    parse_complex,
    parse_pdb_protein,
    parse_sdf_ligand,
    read_jsonl,
    record_from_json_line,
    record_to_json_line,
    write_jsonl,
)
from molgat.errors import DataError, ParseError

import ingest_oracle
from helpers import atom_feature_row, num_ligand_atoms


def make_atom(element="C", pos=(0.0, 0.0, 0.0), is_ligand=True, degree=1,
              num_h=0, valence=0, aromatic=False):
    return Atom(element, tuple(float(c) for c in pos), is_ligand, degree, num_h, valence, aromatic)


def tiny_record(**kwargs):
    atoms = [
        make_atom("C", (0, 0, 0), True, degree=1),
        make_atom("N", (1.4, 0, 0), True, degree=1),
        make_atom("O", (4.0, 0, 0), False, degree=0),
    ]
    bonds = [Bond(0, 1, "single")]
    defaults = dict(complex_id="c1", protein_id="p1", atoms=atoms, bonds=bonds)
    defaults.update(kwargs)
    return ComplexRecord(**defaults)


# ---------------------------------------------------------------------------
# Canonical JSON lines
# ---------------------------------------------------------------------------

class TestCanonicalJson:
    def test_round_trip_identity(self):
        rec = tiny_record(category="dude_active", label=1, rmsd=None)
        line = record_to_json_line(rec)
        assert record_to_json_line(record_from_json_line(line)) == line

    def test_file_round_trip(self, tmp_path):
        records = [tiny_record(complex_id=f"c{i}") for i in range(3)]
        path = tmp_path / "data.jsonl"
        write_jsonl(records, path)
        loaded = read_jsonl(path)
        assert [r.complex_id for r in loaded] == ["c0", "c1", "c2"]
        assert loaded[0] == records[0]

    def test_parse_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(record_to_json_line(tiny_record()) + "\n{not json}\n")
        with pytest.raises(ParseError) as err:
            read_jsonl(path)
        assert ":2:" in str(err.value)

    def test_wrong_schema_version_rejected(self):
        line = record_to_json_line(tiny_record()).replace('"schema_version":1', '"schema_version":99')
        with pytest.raises(ParseError):
            record_from_json_line(line)

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"text"', "null"])
    def test_non_object_line_rejected(self, line):
        with pytest.raises(ParseError, match="malformed record"):
            record_from_json_line(line)

    @pytest.mark.parametrize(
        "field, wrong",
        [
            ('"is_ligand":true', '"is_ligand":"yes"'),
            ('"is_ligand":true', '"is_ligand":1'),
            ('"aromatic":false', '"aromatic":null'),
            ('"degree":1', '"degree":2.7'),
            ('"degree":1', '"degree":true'),
            ('"num_hydrogens":0', '"num_hydrogens":"0"'),
            ('"implicit_valence":0', '"implicit_valence":0.0'),
            ('"i":0', '"i":0.9'),
            ('"j":1', '"j":"1"'),
            ('"position":[0.0,0.0,0.0]', '"position":["1.5",2,3]'),
            ('"position":[0.0,0.0,0.0]', '"position":[true,0,0]'),
            ('"position":[0.0,0.0,0.0]', '"position":[0.0,0.0]'),
            ('"position":[0.0,0.0,0.0]', '"position":[1' + "0" * 400 + ',0,0]'),
            ('"element":"C"', '"element":6'),
            ('"order":"single"', '"order":1'),
            ('"complex_id":"c1"', '"complex_id":12'),
            ('"protein_id":"p1"', '"protein_id":null'),
            ('"category":"dude_active"', '"category":["dude_active"]'),
            ('"label":1', '"label":true'),
            ('"label":1', '"label":1.0'),
            ('"rmsd":0.5', '"rmsd":"0.5"'),
            ('"rmsd":0.5', '"rmsd":false'),
            ('"rmsd":0.5', '"rmsd":1' + "0" * 400),
            ('"schema_version":1', '"schema_version":true'),
            ('"schema_version":1', '"schema_version":1.0'),
        ],
    )
    def test_wrongly_typed_field_rejected_at_its_line(self, tmp_path, field, wrong):
        line = record_to_json_line(tiny_record(category="dude_active", label=1, rmsd=0.5))
        assert field in line
        path = tmp_path / "typed.jsonl"
        path.write_text(line + "\n" + line.replace(field, wrong, 1) + "\n")
        with pytest.raises(ParseError) as err:
            read_jsonl(path)
        assert str(err.value).startswith(f"{path}:2: ")

    def test_integer_positions_and_rmsd_load_as_floats(self):
        line = record_to_json_line(tiny_record(label=None, rmsd=2.0))
        loaded = record_from_json_line(
            line.replace('"position":[0.0,0.0,0.0]', '"position":[0,0,0]', 1).replace('"rmsd":2.0', '"rmsd":2')
        )
        assert all(type(c) is float for c in loaded.atoms[0].position) and type(loaded.rmsd) is float
        assert record_to_json_line(loaded) == line

    def test_parse_is_deterministic(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl([tiny_record()], path)
        assert read_jsonl(path) == read_jsonl(path)


class TestSlottedRecords:
    def test_atom_and_bond_have_no_instance_dict(self):
        # each whole PDB entry builds an Atom per atom and a Bond per bond;
        # slots keep them small and quick to build
        for obj in (make_atom(), Bond(0, 1)):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                obj.note = "extra"

    def test_replace_copy_and_equality_as_before(self):
        atom = make_atom("N", (1.0, 2.0, 3.0), False, degree=2, num_h=1, valence=1, aromatic=True)
        moved = dataclasses.replace(atom, position=(4.0, 5.0, 6.0))  # as synthetic moves pose atoms
        assert moved == Atom("N", (4.0, 5.0, 6.0), False, 2, 1, 1, True) and atom.position == (1.0, 2.0, 3.0)
        assert moved != atom and dataclasses.replace(moved, position=atom.position) == atom
        bond = Bond(3, 4, "double")
        assert dataclasses.replace(bond, order="single") == Bond(3, 4)
        for obj in (atom, bond):
            twin = copy.copy(obj)
            assert twin == obj and twin is not obj
            assert dataclasses.astuple(twin) == dataclasses.astuple(obj)
        assert atom != bond and Bond(3, 4) != Bond(4, 3)

    def test_json_lines_round_trip_as_before(self, tmp_path):
        rec = tiny_record(category="dude_active", label=1, rmsd=0.25)
        path = tmp_path / "round.jsonl"
        write_jsonl([rec, rec], path)
        loaded = read_jsonl(path)
        assert loaded == [rec, rec] and loaded[0].atoms[0] is not rec.atoms[0]
        assert [record_to_json_line(r) for r in loaded] == [record_to_json_line(rec)] * 2


class TestRecordValidation:
    def test_no_ligand_atoms_rejected(self):
        with pytest.raises(DataError, match="no ligand"):
            ComplexRecord("c", "p", [make_atom(is_ligand=False)], [])

    def test_no_protein_atoms_rejected(self):
        with pytest.raises(DataError, match="no protein"):
            ComplexRecord("c", "p", [make_atom(is_ligand=True)], [])

    def test_cross_side_bond_rejected(self):
        atoms = [make_atom("C", (0, 0, 0), True), make_atom("O", (1.2, 0, 0), False)]
        with pytest.raises(DataError, match="crosses"):
            ComplexRecord("c", "p", atoms, [Bond(0, 1)])

    def test_self_bond_rejected(self):
        with pytest.raises(DataError, match="itself"):
            tiny_record(bonds=[Bond(1, 1)])

    def test_unsupported_element_rejected(self):
        with pytest.raises(DataError, match="unsupported element"):
            tiny_record(atoms=[make_atom("Si"), make_atom("O", (3, 0, 0), False)], bonds=[])

    def test_non_finite_position_rejected(self):
        atoms = [make_atom("C", (float("nan"), 0, 0)), make_atom("O", (3, 0, 0), False)]
        with pytest.raises(DataError, match="non-finite"):
            ComplexRecord("c", "p", atoms, [])

    @pytest.mark.parametrize("repeat", [Bond(0, 1), Bond(1, 0), Bond(0, 1, "double")])
    def test_repeated_bond_rejected(self, repeat):
        atoms = [make_atom("C", (0, 0, 0)), make_atom("O", (1.2, 0, 0)), make_atom("N", (4, 0, 0), False)]
        with pytest.raises(DataError, match=re.escape(f"bond ({repeat.i},{repeat.j}) repeats an earlier bond")):
            ComplexRecord("c", "p", atoms, [Bond(0, 1), repeat])

    def test_repeated_bond_in_json_line_rejected(self):
        doc = json.loads(record_to_json_line(tiny_record()))
        doc["bonds"].append({"i": 1, "j": 0, "order": "single"})
        with pytest.raises(DataError, match=re.escape("c1: bond (1,0) repeats an earlier bond")):
            record_from_json_line(json.dumps(doc))

    @pytest.mark.parametrize("field", ["complex_id", "protein_id"])
    def test_identifier_utf8_cannot_encode_rejected(self, field):
        doc = json.loads(record_to_json_line(tiny_record()))
        doc[field] = "lig\udcff"
        line = json.dumps(doc)
        assert line.isascii()  # valid JSON: the lone surrogate is an escape
        with pytest.raises(DataError, match=f"{field} 'lig\\\\udcff' cannot be encoded as UTF-8"):
            record_from_json_line(line)

    def test_first_faulty_atom_named(self):
        atoms = [make_atom("C"), make_atom("O", (1.2, 0, 0), degree=-1),
                 make_atom("Si", (3, 0, 0), False), make_atom("N", (4, 0, 0), False)]
        with pytest.raises(DataError, match="c: atom 1 has a negative annotation"):
            ComplexRecord("c", "p", atoms, [])

    @pytest.mark.parametrize(
        "element, position, degree, expected",
        [
            ("Si", (float("nan"), 0, 0), -1, "atom 1 has unsupported element 'Si'"),
            ("O", (float("inf"), 0, 0), -1, "atom 1 has a non-finite position"),
            ("O", (0.0, 0.0), -1, "atom 1 has a non-finite position"),
            ("O", (1.2, 0, 0), -1, "atom 1 has a negative annotation"),
        ],
    )
    def test_atom_faults_in_order(self, element, position, degree, expected):
        # element before position before annotations, and every atom before any bond
        bad = Atom(element, position, True, degree, 0, 0, False)
        atoms = [make_atom("C"), bad, make_atom("N", (4, 0, 0), False)]
        with pytest.raises(DataError, match=re.escape(expected)):
            ComplexRecord("c", "p", atoms, [Bond(0, 0), Bond(0, 7)])

    @pytest.mark.parametrize(
        "bonds, expected",
        [
            ([Bond(0, 1), Bond(5, 5), Bond(0, 9)], "bond joins atom 5 to itself"),
            ([Bond(0, 1), Bond(2, 9, "bogus"), Bond(1, 1)], "bond (2,9) out of range"),
            ([Bond(0, 1), Bond(1, 2, "bogus"), Bond(2, 2)], "covalent bond (1,2) crosses"),
            ([Bond(0, 1), Bond(1, 0, "bogus"), Bond(0, 9)], "unknown bond order 'bogus'"),
            ([Bond(0, 1), Bond(1, 0), Bond(0, 9)], "bond (1,0) repeats an earlier bond"),
        ],
    )
    def test_bond_faults_in_order(self, bonds, expected):
        # the first faulty bond wins; for one bond: itself, range, side, order, repeat
        with pytest.raises(DataError, match=re.escape(f"c1: {expected}")):
            tiny_record(bonds=bonds)

    @pytest.mark.parametrize(
        "fields, expected",
        [
            ({"category": "dude"}, "unknown category 'dude'"),
            ({"label": 2}, "label must be 0 or 1, got 2"),
            ({"label": -1}, "label must be 0 or 1, got -1"),
            ({"rmsd": -0.5}, "rmsd must be a finite non-negative number"),
            ({"rmsd": float("nan")}, "rmsd must be a finite non-negative number"),
            ({"rmsd": float("inf")}, "rmsd must be a finite non-negative number"),
        ],
    )
    def test_annotation_fault_rejected(self, fields, expected):
        with pytest.raises(DataError, match=re.escape(f"c1: {expected}")):
            tiny_record(**fields)

    def test_label_category_contradiction_rejected(self):
        with pytest.raises(DataError, match="contradicts"):
            tiny_record(category="dude_active", label=0)

    def test_effective_label_from_category(self):
        assert tiny_record(category="pdbbind_negative").effective_label() == 0
        assert tiny_record(category="unlabeled").effective_label() is None


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------

class TestFeaturize:
    def test_aromatic_ring_carbon_slots(self):
        atom = make_atom("C", is_ligand=True, degree=2, num_h=1, valence=0, aromatic=True)
        row = atom_feature_row(atom)
        assert row[0] == 1.0  # carbon slot of the ligand block
        assert row[10 + 2] == 1.0  # degree 2
        assert row[16 + 1] == 1.0  # one hydrogen
        assert row[21 + 0] == 1.0  # implicit valence 0
        assert row[27] == 1.0  # aromatic flag, 28th entry of the block
        assert row[28:].sum() == 0.0  # protein half all zero

    def test_protein_block_exclusive(self):
        atom = make_atom("O", is_ligand=False, degree=1)
        row = atom_feature_row(atom)
        assert row[:28].sum() == 0.0
        assert row[28 + 2] == 1.0  # oxygen slot of the protein block

    def test_identical_atoms_identical_rows(self):
        a = make_atom("N", (0, 0, 0), True, 3, 1, 0, False)
        b = make_atom("N", (9, 9, 9), True, 3, 1, 0, False)  # position is not a feature
        assert np.array_equal(atom_feature_row(a), atom_feature_row(b))

    def test_row_sums_and_group_structure(self):
        rng = np.random.default_rng(0)
        atoms = []
        for k in range(20):
            atoms.append(
                make_atom(
                    element=("C", "N", "O", "S", "H")[k % 5],
                    pos=rng.normal(size=3),
                    is_ligand=k < 10,
                    degree=int(rng.integers(0, 6)),
                    num_h=int(rng.integers(0, 5)),
                    valence=int(rng.integers(0, 6)),
                    aromatic=bool(rng.random() < 0.5),
                )
            )
        rec = ComplexRecord("c", "p", atoms, [])
        feats = featurize(rec)
        assert feats.shape == (20, 56)
        assert set(np.unique(feats)) <= {0.0, 1.0}
        row_sums = feats.sum(axis=1)
        assert set(row_sums) <= {4.0, 5.0}
        # exactly one nonzero in each one-hot group
        for row, atom in zip(feats, rec.atoms[:10] + rec.atoms[10:]):
            block = row[:28] if row[:28].any() else row[28:]
            for start, width in ((0, 10), (10, 6), (16, 5), (21, 6)):
                assert block[start : start + width].sum() == 1.0

    def test_ligand_first_ordering(self):
        atoms = [
            make_atom("O", (5, 0, 0), False),
            make_atom("C", (0, 0, 0), True),
            make_atom("N", (1.4, 0, 0), True),
        ]
        rec = ComplexRecord("c", "p", atoms, [Bond(1, 2)])
        ordered = ligand_first(rec)
        assert [a.is_ligand for a in ordered.atoms] == [True, True, False]
        assert ordered.bonds[0].i == 0 and ordered.bonds[0].j == 1
        feats = featurize(rec)
        assert feats[0, :28].any() and not feats[2, :28].any()

    def test_out_of_range_clamped_and_counted(self):
        atom = make_atom("C", degree=7, num_h=9, valence=8)
        stats = {}
        row = atom_feature_row(atom, stats)
        assert row[10 + 5] == 1.0 and row[16 + 4] == 1.0 and row[21 + 5] == 1.0
        assert stats["clamped_annotations"] == 3


# ---------------------------------------------------------------------------
# SDF
# ---------------------------------------------------------------------------

def sdf_text(atoms, bonds, title="mol"):
    """atoms: list of (x, y, z, symbol); bonds: list of (i, j, type) 1-based."""
    lines = [title, "  generated", ""]
    lines.append(f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for x, y, z, sym in atoms:
        lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {sym:<3} 0  0  0  0  0  0  0  0  0  0  0  0")
    for i, j, t in bonds:
        lines.append(f"{i:3d}{j:3d}{t:3d}  0")
    lines.append("M  END")
    lines.append("$$$$")
    return "\n".join(lines) + "\n"


METHANE_ATOMS = [
    (0.0, 0.0, 0.0, "C"),
    (0.6291, 0.6291, 0.6291, "H"),
    (-0.6291, -0.6291, 0.6291, "H"),
    (-0.6291, 0.6291, -0.6291, "H"),
    (0.6291, -0.6291, -0.6291, "H"),
]
METHANE_BONDS = [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)]


def methane_with_line(lineno, line):
    """The methane molfile with its 1-based line ``lineno`` replaced."""
    lines = sdf_text(METHANE_ATOMS, METHANE_BONDS).splitlines()
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


class TestSdf:
    def test_methane_annotations(self, tmp_path):
        path = tmp_path / "methane.sdf"
        path.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        atoms, bonds = parse_sdf_ligand(path)
        carbon = atoms[0]
        assert carbon.element == "C"
        assert carbon.degree == 4
        assert carbon.num_hydrogens == 4
        assert carbon.implicit_valence == 0
        assert not carbon.aromatic
        assert len(bonds) == 4
        row = atom_feature_row(carbon)
        assert row[0] == 1.0 and row[10 + 4] == 1.0 and row[16 + 4] == 1.0 and row[21] == 1.0

    def test_aromatic_bond_marks_atoms(self, tmp_path):
        path = tmp_path / "arom.sdf"
        path.write_text(
            sdf_text([(0, 0, 0, "C"), (1.4, 0, 0, "C"), (2.8, 0, 0, "O")], [(1, 2, 4), (2, 3, 1)])
        )
        atoms, _ = parse_sdf_ligand(path)
        assert atoms[0].aromatic and atoms[1].aromatic and not atoms[2].aromatic
        # benzene-like carbon: valence 4 - (1.5 aromatic) floored
        assert atoms[0].implicit_valence == 2

    def test_unsupported_element_dropped_with_count(self, tmp_path):
        path = tmp_path / "si.sdf"
        path.write_text(
            sdf_text([(0, 0, 0, "C"), (1.8, 0, 0, "Si"), (3.2, 0, 0, "N")], [(1, 2, 1), (2, 3, 1)])
        )
        stats = {}
        atoms, bonds = parse_sdf_ligand(path, stats)
        assert [a.element for a in atoms] == ["C", "N"]
        assert stats["dropped_atoms"] == 1
        assert bonds == []  # both bonds touched the dropped atom
        assert atoms[0].degree == 0

    def test_truncated_file_reports_line(self, tmp_path):
        path = tmp_path / "trunc.sdf"
        text = sdf_text(METHANE_ATOMS, METHANE_BONDS)
        path.write_text("\n".join(text.splitlines()[:6]))
        with pytest.raises(ParseError):
            parse_sdf_ligand(path)

    def test_bad_counts_line(self, tmp_path):
        path = tmp_path / "bad.sdf"
        path.write_text("t\n\n\nxxxyyy\n")
        with pytest.raises(ParseError) as err:
            parse_sdf_ligand(path)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("mol\n  generated\n", 2, "molfile too short for a V2000 header"),
            (methane_with_line(6, "    x.xxxx    0.6291    0.6291 H"), 6, "bad atom line"),
            (methane_with_line(10, "  1  a  1  0"), 10, "bad bond line"),
            (sdf_text(METHANE_ATOMS, [(1, 2, 1), (1, 6, 1)]), 11, "bond endpoints out of range (1,6)"),
            (sdf_text(METHANE_ATOMS, [(2, 2, 1)]), 10, "bond endpoints out of range (2,2)"),
            (sdf_text(METHANE_ATOMS, [(1, 2, 5)]), 10, "unsupported bond type 5"),
            (sdf_text(METHANE_ATOMS, [(1, 2, 0)]), 10, "unsupported bond type 0"),
        ],
    )
    def test_malformed_molfile_rejected_at_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.sdf"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: {message}")) as err:
            parse_sdf_ligand(path)
        assert err.value.line == line

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_coordinate_rejected_at_its_line(self, tmp_path, field):
        lines = sdf_text(METHANE_ATOMS, METHANE_BONDS).splitlines()
        lines[6] = lines[6][:20] + f"{field:>10}" + lines[6][30:]  # the z field of atom 3
        path = tmp_path / "nan.sdf"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite coordinates") as err:
            parse_sdf_ligand(path)
        assert err.value.line == 7 and err.value.path == path


# ---------------------------------------------------------------------------
# PDB
# ---------------------------------------------------------------------------

def pdb_line(serial, name, res, chain, res_seq, x, y, z, element, record="ATOM", altloc=" "):
    return (
        f"{record:<6}{serial:>5} {name:<4}{altloc}{res:<3} {chain}{res_seq:>4}    "
        f"{x:8.3f}{y:8.3f}{z:8.3f}{1.0:6.2f}{0.0:6.2f}          {element:>2}"
    )


def triglycine_lines():
    """Extended backbone fragment: three N-CA-C-O units, 11 covalent bonds."""
    lines = []
    serial = 1
    for k in range(3):
        x0 = 3.6 * k
        for name, element, (dx, dy, dz) in (
            ("N", "N", (0.0, 0.0, 0.0)),
            ("CA", "C", (1.46, 0.0, 0.0)),
            ("C", "C", (2.56, 1.05, 0.0)),
            ("O", "O", (2.96, 2.21, 0.0)),
        ):
            lines.append(pdb_line(serial, name, "GLY", "A", k + 1, x0 + dx, dy, dz, element))
            serial += 1
    return lines


class TestPdb:
    def test_backbone_bond_count_matches_hand_count(self, tmp_path):
        path = tmp_path / "tri.pdb"
        path.write_text("\n".join(triglycine_lines()) + "\nEND\n")
        atoms, bonds = parse_pdb_protein(path)
        assert len(atoms) == 12
        # brute-force oracle: every pair under the covalent-radius rule
        coords = np.array([a.position for a in atoms])
        expected = 0
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                cutoff = BOND_INFERENCE_FACTOR * (
                    COVALENT_RADII[atoms[i].element] + COVALENT_RADII[atoms[j].element]
                )
                if np.linalg.norm(coords[i] - coords[j]) < cutoff:
                    expected += 1
        assert len(bonds) == expected == 11  # 3x(N-CA, CA-C, C=O) + 2 peptide bonds

    def test_blocked_bond_search_matches_dense_oracle(self, tmp_path, grid_calls):
        # at one density (0.0875 atoms/A^3): 250 atoms take the dense path of
        # the bond search, 700 and 1,200 atoms the cell list
        rng = np.random.default_rng(17)
        for n in [250, 700, 1200]:
            side = 20.0 * (n / 700) ** (1 / 3)
            elements = rng.choice(["C", "N", "O", "S", "H"], size=n)
            xyz = np.round(rng.uniform(0.0, side, size=(n, 3)), 3)
            lines = [
                pdb_line(k + 1, el, "UNK", "A", k // 10 + 1, *pos, el)
                for k, (el, pos) in enumerate(zip(elements, xyz))
            ]
            path = tmp_path / "random.pdb"
            path.write_text("\n".join(lines) + "\nEND\n")
            grid_calls.clear()
            atoms, bonds = parse_pdb_protein(path)
            assert len(atoms) == n
            assert grid_calls == ([] if n <= chem._PAIR_BLOCK else [n])

            coords = np.array([a.position for a in atoms])
            radii = np.array([COVALENT_RADII[a.element] for a in atoms])
            diff = coords[:, None, :] - coords[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            cutoff = BOND_INFERENCE_FACTOR * (radii[:, None] + radii[None, :])
            ii, jj = np.nonzero(np.triu(dist < cutoff, k=1))
            del diff, dist, cutoff
            assert len(ii) > n // 2
            assert [(b.i, b.j) for b in bonds] == list(zip(ii.tolist(), jj.tolist()))

    def test_far_x_field_in_a_large_entry_gives_the_oracle_bonds(self, tmp_path, grid_calls):
        # 400 atoms, one x field reading 1e300: the entry lies beyond the
        # grid's clip, so its bonds come from dense blocks, without a warning
        rng = np.random.default_rng(19)
        n = 400
        elements = rng.choice(["C", "N", "O", "S", "H"], size=n)
        xyz = np.round(rng.uniform(0.0, 20.0 * (n / 700) ** (1 / 3), size=(n, 3)), 3)
        lines = [pdb_line(k + 1, el, "UNK", "A", k // 10 + 1, *pos, el)
                 for k, (el, pos) in enumerate(zip(elements, xyz))]
        lines[123] = lines[123][:30] + f"{'1e300':>8}" + lines[123][38:]
        path = tmp_path / "far.pdb"
        path.write_text("\n".join(lines) + "\nEND\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            atoms, bonds = parse_pdb_protein(path)
        assert atoms[123].position[0] == 1e300 and atoms[123].degree == 0
        assert grid_calls == []

        coords = np.array([a.position for a in atoms])
        radii = np.array([COVALENT_RADII[a.element] for a in atoms])
        with np.errstate(over="ignore"):  # the oracle's own squares overflow
            diff = coords[:, None, :] - coords[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
        ii, jj = np.nonzero(np.triu(dist < BOND_INFERENCE_FACTOR * (radii[:, None] + radii[None, :]), k=1))
        assert len(ii) > n // 2
        assert [(b.i, b.j) for b in bonds] == list(zip(ii.tolist(), jj.tolist()))

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_coordinate_rejected_at_its_line(self, tmp_path, field):
        lines = triglycine_lines()
        lines[4] = lines[4][:38] + f"{field:>8}" + lines[4][46:]  # the y field of atom 5
        path = tmp_path / "nan.pdb"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite coordinates") as err:
            parse_pdb_protein(path)
        assert err.value.line == 5 and err.value.path == path

    @pytest.mark.parametrize(
        "first, later, message",
        [
            ("nan", "truncated", "non-finite coordinates"),
            ("nan", "bad", "non-finite coordinates"),
            ("truncated", "nan", "truncated coordinate record"),
            ("bad", "nan", "bad coordinates"),
        ],
    )
    def test_first_faulty_line_named(self, tmp_path, first, later, message):
        # the reader checks finiteness on arrays after its line loop; a fault
        # on an earlier line still wins over one on a later line
        lines = triglycine_lines()
        for index, fault in ((4, first), (8, later)):
            if fault == "truncated":
                lines[index] = lines[index][:50]
            else:
                field = "nan" if fault == "nan" else "1.2.3"
                lines[index] = lines[index][:38] + f"{field:>8}" + lines[index][46:]
        path = tmp_path / "faults.pdb"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as err:
            parse_pdb_protein(path)
        assert err.value.line == 5

    def test_second_model_rejected_at_its_line(self, tmp_path):
        # an NMR-style ensemble: merged, each atom would bond to its own
        # coincident copy in the other model (6 atoms, 11 bonds)
        model = triglycine_lines()[:3]
        lines = ["MODEL        1", *model, "ENDMDL", "MODEL        2", *model, "ENDMDL", "END"]
        path = tmp_path / "ensemble.pdb"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="more than one MODEL") as err:
            parse_pdb_protein(path)
        assert err.value.line == 6 and err.value.path == path

    def test_earlier_faulty_line_named_before_second_model(self, tmp_path):
        model = triglycine_lines()[:3]
        lines = ["MODEL        1", *model, "ENDMDL", "MODEL        2", *model, "ENDMDL"]
        lines[2] = lines[2][:38] + f"{'nan':>8}" + lines[2][46:]
        path = tmp_path / "ensemble.pdb"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite coordinates") as err:
            parse_pdb_protein(path)
        assert err.value.line == 3

    def test_single_model_accepted(self, tmp_path):
        model = triglycine_lines()[:3]
        bare = tmp_path / "bare.pdb"
        bare.write_text("\n".join(model) + "\n")
        path = tmp_path / "one_model.pdb"
        path.write_text("\n".join(["MODEL        1", *model, "ENDMDL", "END"]) + "\n")
        atoms, bonds = parse_pdb_protein(path)
        assert len(atoms) == 3 and len(bonds) == 2
        assert (atoms, bonds) == parse_pdb_protein(bare)

    def test_annotations_from_inferred_bonds(self, tmp_path):
        path = tmp_path / "tri.pdb"
        path.write_text("\n".join(triglycine_lines()) + "\n")
        atoms, _ = parse_pdb_protein(path)
        ca_first = atoms[1]
        assert ca_first.degree == 2  # N and C neighbors
        assert ca_first.implicit_valence == 2  # standard valence 4 minus two bonds
        assert not ca_first.aromatic

    def test_element_fallback_from_atom_name(self, tmp_path):
        line = pdb_line(1, "CA", "GLY", "A", 1, 0, 0, 0, "")
        path = tmp_path / "noelem.pdb"
        path.write_text(line[:76].rstrip() + "\n")
        atoms, _ = parse_pdb_protein(path)
        assert atoms[0].element == "C"

    def test_altloc_b_skipped(self, tmp_path):
        lines = [
            pdb_line(1, "N", "GLY", "A", 1, 0, 0, 0, "N", altloc="A"),
            pdb_line(2, "N", "GLY", "A", 1, 0.2, 0, 0, "N", altloc="B"),
        ]
        path = tmp_path / "alt.pdb"
        path.write_text("\n".join(lines) + "\n")
        atoms, _ = parse_pdb_protein(path)
        assert len(atoms) == 1

    def test_hetatm_and_unsupported_dropped(self, tmp_path):
        lines = [
            pdb_line(1, "O", "HOH", "A", 1, 0, 0, 0, "O", record="HETATM"),
            pdb_line(2, "FE", "HEM", "A", 2, 5, 0, 0, "Fe", record="HETATM"),
        ]
        path = tmp_path / "het.pdb"
        path.write_text("\n".join(lines) + "\n")
        stats = {}
        atoms, _ = parse_pdb_protein(path, stats)
        assert [a.element for a in atoms] == ["O"]
        assert stats["dropped_atoms"] == 1


class TestParseComplex:
    def test_repeated_sdf_bond_rejected(self, tmp_path):
        sdf = tmp_path / "co.sdf"
        sdf.write_text(sdf_text([(0, 0, 0, "C"), (1.2, 0, 0, "O")], [(1, 2, 1), (1, 2, 1)]))
        pdb = tmp_path / "prot.pdb"
        pdb.write_text("\n".join(triglycine_lines()) + "\n")
        with pytest.raises(DataError, match=re.escape("co: bond (0,1) repeats an earlier bond")):
            parse_complex(sdf, pdb)

    @pytest.mark.parametrize("fault, shift", [(None, 30.0), ("repeat", 30.0), ("stem", 30.0), ("repeat", 0.0),
                                              ("stem", 0.0)])
    def test_record_fault_wins_over_the_prune_refusal(self, tmp_path, fault, shift):
        # 30 A up, no protein atom is within the cutoff: a fault of the whole
        # record is still reported first; in range, the pruned record has it
        sdf = tmp_path / ("lig\udcff.sdf" if fault == "stem" else "lig.sdf")
        bonds = METHANE_BONDS + [(1, 2, 1)] if fault == "repeat" else METHANE_BONDS
        sdf.write_text(sdf_text([(x, y, z + shift, s) for x, y, z, s in METHANE_ATOMS], bonds))
        pdb = tmp_path / "prot.pdb"
        pdb.write_text("\n".join(triglycine_lines()) + "\n")
        message = {
            None: "lig: no protein atoms within 8.0 A of the ligand",
            "repeat": "lig: bond (0,1) repeats an earlier bond",
            "stem": "complex_id 'lig\\udcff' cannot be encoded as UTF-8",
        }[fault]
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            parse_complex(sdf, pdb, cutoff=8.0)

    @pytest.mark.parametrize("side", ["ligand", "protein"])
    def test_side_without_a_supported_atom_rejected(self, tmp_path, side):
        sdf = tmp_path / "lig.sdf"
        pdb = tmp_path / "prot.pdb"
        if side == "ligand":
            sdf.write_text(sdf_text([(0, 0, 0, "Si"), (2.3, 0, 0, "Si")], [(1, 2, 1)]))
            pdb.write_text("\n".join(triglycine_lines()) + "\n")
        else:
            sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
            pdb.write_text(pdb_line(1, "FE", "HEM", "A", 1, 5, 0, 0, "Fe", record="HETATM") + "\n")
        path = sdf if side == "ligand" else pdb
        with pytest.raises(DataError, match=re.escape(f"{path}: no supported {side} atoms after filtering")):
            parse_complex(sdf, pdb)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("outcome", ["parsed", "out of range", "nan", "second model", "missing"])
    def test_collector_state_restored(self, tmp_path, enabled, outcome):
        # parse_complex pauses the cyclic collector while it holds the whole
        # entry's objects; a parse or a refusal leaves it as it was on entry
        shift = 30.0 if outcome == "out of range" else 0.0
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text([(x, y, z + shift, s) for x, y, z, s in METHANE_ATOMS], METHANE_BONDS))
        lines = triglycine_lines()
        if outcome == "nan":
            lines[4] = lines[4][:38] + f"{'nan':>8}" + lines[4][46:]
        elif outcome == "second model":
            lines = ["MODEL        1", *lines[:3], "ENDMDL", "MODEL        2", *lines[:3], "ENDMDL", "END"]
        pdb = tmp_path / "prot.pdb"
        if outcome != "missing":
            pdb.write_text("\n".join(lines) + "\n")
        refusal = {
            "parsed": contextlib.nullcontext(),
            "out of range": pytest.raises(DataError, match="no protein atoms within 8.0 A of the ligand"),
            "nan": pytest.raises(ParseError, match="non-finite coordinates"),
            "second model": pytest.raises(ParseError, match="more than one MODEL"),
            "missing": pytest.raises(OSError),
        }[outcome]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with refusal:
                rec = parse_complex(sdf, pdb, cutoff=8.0)
                assert len(rec.atoms) == 5 + 9  # methane and the 9 glycine atoms within 8 A
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_sdf_plus_pdb(self, tmp_path):
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        pdb = tmp_path / "prot.pdb"
        pdb.write_text("\n".join(triglycine_lines()) + "\n")
        rec = parse_complex(sdf, pdb, category="dude_inactive")
        assert rec.complex_id == "lig" and rec.protein_id == "prot"
        assert num_ligand_atoms(rec) == 5 and len(rec.atoms) - num_ligand_atoms(rec) == 12
        assert rec.effective_label() == 0
        # ligand bonds first, protein bonds offset
        assert all(rec.atoms[b.i].is_ligand == rec.atoms[b.j].is_ligand for b in rec.bonds)


@pytest.fixture
def grid_calls(monkeypatch):
    """Records the row count ``len(a)`` of each call of the cell-list search."""
    calls = []
    real = chem._grid_pairs

    def spy(a, *args):
        i, j, d = real(a, *args)
        calls.append(len(a))
        return i, j, d

    monkeypatch.setattr(chem, "_grid_pairs", spy)
    return calls


class TestPairsWithin:
    def test_half_shell_tables_equal_their_derivation(self):
        # the 13 offsets after (0, 0, 0) in lexicographic order
        shell = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                 if (dx, dy, dz) > (0, 0, 0)]
        # their distinct (dx, dy) columns other than (0, 0), in the same order
        columns = list(dict.fromkeys((dx, dy) for dx, dy, _ in shell if (dx, dy) != (0, 0)))
        assert chem._GRID_COLUMNS.tolist() == [list(c) for c in columns]
        assert chem._GRID_COLUMNS.dtype == np.int64

    def test_matches_brute_force_oracle(self, grid_calls):
        # searches across two sets take the dense path: 700 and 257 rows of
        # ``a`` span three and two row blocks
        rng = np.random.default_rng(23)
        for m, k, cutoff, decimals in [(700, 300, 3.0, 3), (700, 700, 2.5, None),
                                       (700, 40, 8.0, 3), (257, 40, 8.0, 3)]:
            a = rng.uniform(0.0, 25.0, size=(m, 3))
            b = rng.uniform(0.0, 25.0, size=(k, 3))
            if decimals is not None:
                a, b = np.round(a, decimals), np.round(b, decimals)
            diff = a[:, None, :] - b[None, :, :]
            dense = np.sqrt((diff * diff).sum(axis=2))
            ii, jj = np.nonzero(dense <= cutoff)
            assert len(ii) > 100
            i, j, d = pairs_within(a, b, cutoff)
            assert np.array_equal(i, ii) and np.array_equal(j, jj)
            assert np.array_equal(d, pairwise_distances(a, b)[ii, jj])
        assert grid_calls == []

    def test_empty_inputs(self):
        pts = np.ones((5, 3))
        for a, b in [(pts[:0], pts), (pts, pts[:0]), (pts[:0], pts[:0])]:
            i, j, d = pairs_within(a, b, 10.0)
            assert len(i) == len(j) == len(d) == 0
            assert i.dtype.kind == j.dtype.kind == "i" and d.dtype == np.float64

    def test_pair_at_exactly_cutoff_included(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 4.0, 0.0], [3.0, 4.0, 1e-6], [0.0, 0.0, 1.0]])
        i, j, d = pairs_within(a, b, 5.0)
        assert j.tolist() == [0, 2] and d.tolist() == [5.0, 1.0]

    @staticmethod
    def assert_matches_oracle(a, b, cutoff):
        diff = a[:, None, :] - b[None, :, :]
        ii, jj = np.nonzero(np.sqrt((diff * diff).sum(axis=2)) <= cutoff)
        i, j, d = pairs_within(a, b, cutoff)
        assert i.dtype == j.dtype == np.intp and d.dtype == np.float64
        assert np.array_equal(i, ii) and np.array_equal(j, jj)
        assert np.array_equal(d, pairwise_distances(a, b)[ii, jj])
        return len(ii)

    def test_grid_negative_coordinates(self, grid_calls):
        rng = np.random.default_rng(31)
        a = rng.uniform(-40.0, -15.0, size=(600, 3))
        b = rng.uniform(-40.0, -15.0, size=(400, 3))
        assert self.assert_matches_oracle(a, b, 3.0) > 100
        assert self.assert_matches_oracle(a, a, 3.0) > 600
        assert grid_calls == []
        assert len(self.assert_matches_cell_oracle(a, 3.0)[0]) > 0  # the self-search takes the grid
        assert grid_calls == [600]

    def test_grid_atoms_on_cell_faces(self, grid_calls):
        # every coordinate a multiple of the cutoff: coincident atoms and pairs
        # at exactly the cutoff along each axis, across cell faces
        rng = np.random.default_rng(32)
        a = rng.integers(-5, 5, size=(500, 3)) * 2.5
        b = rng.integers(-5, 5, size=(300, 3)) * 2.5
        assert self.assert_matches_oracle(a, b, 2.5) > 1000
        assert self.assert_matches_oracle(a, a, 2.5) > 1000
        assert grid_calls == []
        assert len(self.assert_matches_cell_oracle(a, 2.5)[0]) > 250  # the self-search takes the grid
        assert grid_calls == [500]

    def test_grid_pairs_at_exactly_cutoff_straddle_a_face(self, grid_calls):
        # every (k, k) pair lies at the cutoff with the cell face at x = 0
        # between its ends; in the first half a is 1e-20 below that face, so
        # the rounded distance equals the cutoff although the exact
        # separation exceeds it
        cutoff = 3.12
        y = 4.0 * np.arange(300.0)
        a = np.stack([np.repeat([-1e-20, -cutoff], 150), y, np.zeros(300)], axis=1)
        b = np.stack([np.repeat([cutoff, 0.0], 150), y, np.zeros(300)], axis=1)
        i, j, d = pairs_within(a, b, cutoff)
        assert i.tolist() == j.tolist() == list(range(300)) and (d == cutoff).all()
        assert self.assert_matches_oracle(a, b, cutoff) == 300
        ab = np.concatenate([a, b])
        assert self.assert_matches_oracle(ab, ab, cutoff) == 600 + 2 * 300
        assert grid_calls == []
        # as one set, the grid takes it and finds each (k, 300 + k) pair at the cutoff
        i, j, d = self.assert_matches_cell_oracle(ab, cutoff)
        straddle = np.flatnonzero(j - i == 300)
        assert i[straddle].tolist() == list(range(300)) and (d[straddle] == cutoff).all()
        assert len(i) == 300
        assert grid_calls == [600]

    def test_grid_all_atoms_at_one_point(self, grid_calls):
        pts = np.full((300, 3), -1.25)
        assert self.assert_matches_oracle(pts, pts[:260], 4.0) == 300 * 260
        assert self.assert_matches_oracle(pts, pts, 4.0) == 300 * 300
        assert grid_calls == []
        assert len(self.assert_matches_cell_oracle(pts, 4.0)[0]) == 300 * 299 // 2
        assert grid_calls == [300]

    @staticmethod
    def assert_matches_cell_oracle(a, cutoff):
        """The self-search ``_pairs_above(a, cutoff)`` against the pairs
        ``i < j`` of the cell list that ranks all 27 neighbour cells of every
        row, bit for bit, and no row pair found twice."""
        width = max(cutoff, chem._GRID_MIN_WIDTH) * chem._GRID_MARGIN
        got = chem._pairs_above(a, cutoff)
        want = ingest_oracle.pairs_above(a, cutoff, width)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        i, j, _ = got
        assert (i < j).all() and len(np.unique(i * len(a) + j)) == len(i)
        return got

    def test_grid_one_column_across_many_z_cells(self, grid_calls):
        # 320 rows in one (x, y) column over 80 z cells: at every z face two
        # rows 1e-9 A either side of it and two half a cutoff either side, so
        # each row's own-column run reaches into the next cell up
        cutoff = 2.5
        width = cutoff * chem._GRID_MARGIN
        faces = width * np.arange(-40.0, 40.0)
        z = np.concatenate([faces + s for s in (-1e-9, 1e-9, -0.5 * cutoff, 0.5 * cutoff)])
        a = np.stack([np.full(320, 0.3), np.full(320, 1.1), z], axis=1)
        assert self.assert_matches_oracle(a, a, cutoff) > 320 * 3
        assert grid_calls == []
        i, j, _ = self.assert_matches_cell_oracle(a, cutoff)
        q = np.floor_divide(a, width).astype(np.int64)
        assert np.unique(q[:, :2], axis=0).shape == (1, 2)
        assert set((q[j, 2] - q[i, 2]).tolist()) == {-1, 0, 1}
        assert grid_calls == [320]

    def test_grid_rows_in_every_neighbour_cell(self, grid_calls):
        # twelve rows in each of the 27 cells around one cell: pairs are found
        # at all 26 neighbour offsets, which puts rows of each (dx, dy) column
        # of the half shell at dz = -1, 0 and +1 of one another
        cutoff = 3.12
        width = cutoff * chem._GRID_MARGIN
        cells = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
        rng = np.random.default_rng(45)
        a = (np.repeat(cells, 12, axis=0) + rng.uniform(0.0, 1.0, size=(27 * 12, 3))) * width
        assert self.assert_matches_oracle(a, a, cutoff) > 1000
        assert grid_calls == []
        i, j, _ = self.assert_matches_cell_oracle(a, cutoff)
        q = np.floor_divide(a, width).astype(np.int64)
        offsets = np.concatenate([q[j] - q[i], q[i] - q[j]])  # each pair is found once, in either order
        assert set(map(tuple, offsets.tolist())) == set(cells)
        assert grid_calls == [27 * 12]

    def test_grid_finds_each_pair_once(self, grid_calls):
        # a jittered lattice of rotated lines like a PDB entry's heavy atoms
        # (1.5 A along a line, 3.4 A between lines, 3-decimal coordinates) at
        # the bond search's radii, and 300 rows at one point
        rng = np.random.default_rng(46)
        line = np.arange(-10.0, 10.0, 1.5)
        across = np.arange(-10.0, 10.0, 3.4)
        grid = np.stack(np.meshgrid(line, across, across, indexing="ij"), axis=-1).reshape(-1, 3)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lattice = np.round((grid + rng.normal(scale=0.1, size=grid.shape)) @ rotation, 3)
        for cutoff in (1.976, 2.73, 3.12):
            assert self.assert_matches_oracle(lattice, lattice, cutoff) > len(lattice) * 2
            self.assert_matches_cell_oracle(lattice, cutoff)
        pts = np.full((300, 3), -1.25)
        i, j, _ = self.assert_matches_cell_oracle(pts, 4.0)
        assert len(i) == 300 * 299 // 2
        assert grid_calls == [len(lattice)] * 3 + [300]

    @pytest.mark.parametrize("far", [1e17, -1e17])
    def test_grid_far_outlier(self, grid_calls, far):
        # one atom 1e17 A away, beyond 2**50 cells: the search, across two
        # sets or of one set against itself, is compared densely
        rng = np.random.default_rng(33)
        a = rng.uniform(0.0, 20.0, size=(600, 3))
        a[123] = [far, 0.0, 0.0]
        b = np.concatenate([a[100:500], [[far, 1.0, 0.0]]])
        assert self.assert_matches_oracle(a, b, 3.12) > 1000
        assert self.assert_matches_oracle(a, a, 3.12) > 1000
        assert grid_calls == []

    def test_grid_keys_do_not_scale_with_the_bounding_box(self, grid_calls):
        # atoms 1e13 A apart on every axis span ~1e38 cells, far more than an
        # int64 key can number; they lie beyond the grid's limit of 2**17
        # cells, so the whole set is compared densely
        rng = np.random.default_rng(34)
        a = rng.uniform(0.0, 20.0, size=(400, 3))
        a[:6] = [[1e13, -1e13, 1e13], [1e13, -1e13, 1e13 + 2.0], [-1e13, 1e13, -1e13],
                 [1e13, 1e13, 1e13], [-1e13, -1e13, -1e13], [3e12, -7e12, 5e12]]
        assert self.assert_matches_oracle(a, a, 3.12) > 1000
        assert grid_calls == []

    def test_rows_beyond_the_grid_limit_are_compared_densely(self, grid_calls):
        # 300 rows 1e16 A apart along x lie beyond 2**50 cells of the origin;
        # clamped into one outermost cell they would make 300 x 300 candidates
        rng = np.random.default_rng(37)
        far = np.zeros((300, 3))
        far[:, 0] = (np.arange(300.0) + 1.0) * 1e16
        near = rng.uniform(0.0, 20.0, size=(300, 3))
        a = np.concatenate([far[:150], near, far[150:]])
        b = np.concatenate([near[::-1], -far, far])
        assert self.assert_matches_oracle(a, b, 3.12) > 300
        assert grid_calls == []

    def test_rows_beyond_the_grid_limit_take_block_memory(self):
        # 3,000 such rows: the dense comparison holds one 256-row block of
        # distances (6 MB); 3,000 x 3,000 candidates would take ~300 MB
        a = np.zeros((3000, 3))
        a[:, 0] = np.arange(3000.0) * 1e16
        tracemalloc.start()
        try:
            i, j, d = pairs_within(a, a, 3.12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(i, np.arange(3000)) and np.array_equal(j, i) and not d.any()
        assert peak < 30e6

    def test_rows_at_the_grid_limit(self, grid_calls):
        # on either sign of each axis, three rows just inside 2**17 cells of
        # the origin and three at or past it, all within the cutoff of each
        # other: with the outside rows the set is compared densely, without
        # them the grid takes it
        cutoff = 3.12
        limit = chem._GRID_CLIP * (cutoff * chem._GRID_MARGIN)
        inside, outside = [], []
        for axis in range(3):
            for sign in (1.0, -1.0):
                edge = sign * limit
                for rows, xs in [(inside, [np.nextafter(edge, 0.0), edge - sign, edge - 2.0 * sign]),
                                 (outside, [edge, np.nextafter(edge, 2.0 * edge), edge + sign])]:
                    for x in xs:
                        rows.append(np.zeros(3))
                        rows[-1][axis] = x
        rng = np.random.default_rng(41)
        a = np.concatenate([rng.uniform(0.0, 20.0, size=(300, 3)), inside, outside])
        n_in = 300 + len(inside)
        assert self.assert_matches_oracle(a, a, cutoff) > 1000
        i, j, _ = pairs_within(a, a, cutoff)
        assert ((i < n_in) & (j >= n_in)).sum() == 6 * 3 * 3  # every inside row meets every outside row
        i, j, _ = self.assert_matches_cell_oracle(a, cutoff)
        assert ((i < n_in) & (j >= n_in)).sum() == 6 * 3 * 3
        assert grid_calls == []
        near = a[:n_in]
        assert self.assert_matches_oracle(near, near, cutoff) > 1000
        assert grid_calls == []
        self.assert_matches_cell_oracle(near, cutoff)
        assert grid_calls == [n_in]

    def test_pdb_coordinate_extremes_take_one_grid_call(self, grid_calls):
        # an 8.3f PDB field holds -999.999 to 9999.999: every corner of that
        # box lies inside the grid's limit at the bond cutoff
        corners = np.array([[x, y, z] for x in (-999.999, 9999.999) for y in (-999.999, 9999.999)
                            for z in (-999.999, 9999.999)])
        rng = np.random.default_rng(42)
        a = np.concatenate([corners, rng.uniform(-10.0, 10.0, size=(300, 3)),
                            corners + rng.uniform(-1.0, 1.0, size=(8, 3))])
        a = np.round(a, 3)
        assert self.assert_matches_oracle(a, a, 3.12) > 1000
        assert grid_calls == []
        self.assert_matches_cell_oracle(a, 3.12)
        assert grid_calls == [316]

    def test_far_coordinates_raise_no_warning(self):
        # an 8-column PDB field can read 1e300 or -1.7e308: a difference or
        # square then overflows to inf, which fails the cutoff, silently
        rng = np.random.default_rng(43)
        a = rng.uniform(0.0, 20.0, size=(300, 3))
        a[:4] = [[1e300, 0.0, 0.0], [-1e300, 0.0, 0.0], [1.7e308, 1.0, 0.0], [-1.7e308, 0.0, 1.0]]
        b = a[:40].copy()
        shapes = [(a, a), (a, b), (b, a), (b, b)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in shapes:
                pairs_within(x, y, 3.12)
            pairwise_distances(b, b)
        with np.errstate(over="ignore"):  # the oracle's own squares overflow
            for x, y in shapes:
                assert self.assert_matches_oracle(x, y, 3.12) > 20

    def test_bond_search_memory_stays_linear(self, grid_calls):
        # 20,000 uniform atoms at protein heavy-atom density (0.054 atoms/A^3):
        # the cell list holds O(N + pairs) arrays, compares its candidates one
        # block of rows at a time, and peaks near 8 MB. The cell list that
        # looked up 27 cells per row peaked at 63.4 MB in this test; the bound
        # keeps later versions below that.
        n = 20000
        x = np.random.default_rng(5).uniform(0.0, (n / 0.054) ** (1 / 3), size=(n, 3))
        tracemalloc.start()
        try:
            i, j, d = chem._pairs_above(x, 3.12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(i) == (149972 - n) // 2 and grid_calls == [n]
        assert peak <= 63.4e6

    def test_dense_path_skips_rows_outside_the_box_exactly(self, grid_calls):
        # 600 rows of a against 40 of b: the dense path first drops the rows
        # of a outside b's box widened by a cell. Row 0 of a lies on that
        # face: its exact distance to row 0 of b exceeds the cutoff by 1e-20,
        # its rounded distance equals it, so the pair is kept.
        cutoff = 3.12
        rng = np.random.default_rng(39)
        b = rng.uniform(-1.0, 1.0, size=(40, 3))
        b[:, 0] = -rng.uniform(0.5, 5.0, size=40)
        b[0, 0] = -1e-20
        a = rng.uniform(-30.0, 30.0, size=(600, 3))
        a[0] = [cutoff, b[0, 1], b[0, 2]]
        assert self.assert_matches_oracle(a, b, cutoff) > 20
        i, j, d = pairs_within(a, b, cutoff)
        assert (i[0], j[0], d[0]) == (0, 0, cutoff)
        assert grid_calls == []

    def test_contact_and_prune_shapes_take_the_dense_path(self, grid_calls):
        rng = np.random.default_rng(35)
        ligand = rng.uniform(0.0, 8.0, size=(30, 3))
        pocket = rng.uniform(-10.0, 18.0, size=(600, 3))
        protein = rng.uniform(-20.0, 28.0, size=(5000, 3))
        assert self.assert_matches_oracle(ligand, pocket, 5.0) > 100  # the contact search
        assert self.assert_matches_oracle(protein, ligand, 8.0) > 1000  # pruning
        assert grid_calls == []
        bonds = protein[:1000]
        assert self.assert_matches_oracle(bonds, bonds, 3.12) > 1000
        assert grid_calls == []
        self.assert_matches_cell_oracle(bonds, 3.12)
        assert grid_calls == [1000]

    def test_prune_and_contact_shapes_of_pocket_size_take_the_dense_path(self, grid_calls):
        # both sides longer than a block: pruning a 5,000-atom entry against
        # 300 rows at 8 A, and contacts of 300 rows against a 600-atom pocket
        # at 5 A, are searches across two sets
        rng = np.random.default_rng(44)
        ligand = rng.uniform(0.0, 12.0, size=(300, 3))
        pocket = rng.uniform(-8.0, 20.0, size=(600, 3))
        protein = rng.uniform(-20.0, 32.0, size=(5000, 3))
        assert self.assert_matches_oracle(protein, ligand, 8.0) > 10000
        assert self.assert_matches_oracle(ligand, pocket, 5.0) > 1000
        assert grid_calls == []

    def test_one_array_as_both_sides_matches_brute_force(self, grid_calls):
        # one array given as both sides is a cross search like any other: one
        # block of rows at 256, two at 257, and with a row beyond the grid's
        # clip; its pairs j > i are the self-search's, bit for bit
        rng = np.random.default_rng(47)
        cutoff = 3.12
        for n in (256, 257):
            a = np.round(rng.uniform(0.0, 12.0, size=(n, 3)), 3)
            far = a.copy()
            far[n // 2] = [2.0 * chem._GRID_CLIP * cutoff, 0.0, 0.0]
            for x in (a, far):
                assert self.assert_matches_oracle(x, x, cutoff) > 4 * n
                i, j, d = pairs_within(x, x, cutoff)
                above = j > i
                for got, want in zip(chem._pairs_above(x, cutoff), (i[above], j[above], d[above])):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert grid_calls == [257]

    @pytest.mark.parametrize("cutoff", [0.0, 1e-200, -1.0])
    def test_degenerate_cutoffs(self, grid_calls, cutoff):
        # cells are never narrower than 1e-150, so a tiny or negative cutoff
        # finds exactly the coincident rows (or none); rows off the origin
        # then lie beyond the grid's limit, and the grid takes only the
        # self-search of the rows at the origin
        rng = np.random.default_rng(38)
        a = rng.uniform(-5.0, 5.0, size=(600, 3))
        a[300:] = 0.0
        n = self.assert_matches_oracle(a, a[100:], cutoff)
        assert n == (0 if cutoff < 0 else 200 + 300 * 300)
        assert grid_calls == []
        origin = a[300:]
        assert self.assert_matches_oracle(origin, origin, cutoff) == (0 if cutoff < 0 else 300 * 300)
        assert grid_calls == []
        i, _, _ = self.assert_matches_cell_oracle(origin, cutoff)
        assert len(i) == (0 if cutoff < 0 else 300 * 299 // 2)
        assert grid_calls == [300]

    @pytest.mark.parametrize("n", [10, 300])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, n, bad):
        pts = np.random.default_rng(36).uniform(0.0, 10.0, size=(n, 3))
        broken = pts.copy()
        broken[n // 2, 1] = bad
        for a, b in [(broken, pts), (pts, broken)]:
            with pytest.raises(ValueError, match="non-finite"):
                pairs_within(a, b, 3.0)
        with pytest.raises(ValueError, match="non-finite"):
            chem._pairs_above(broken, 3.0)

    def test_chem_does_not_import_graphs(self):
        # chem sits below graphs; importing graphs from chem would be a cycle
        with open(chem.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported += [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
        assert not [name for name in imported if "graphs" in name.split(".")]
