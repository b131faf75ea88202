"""Seeded mutants of valid PDB files: the array-pass reader
(``chem._read_pdb_atoms``) against the line loop kept in ``ingest_oracle``.

The mutations come from the standard library's ``random`` only. Each mutant
applies one to three of them to a valid file: line endings, record fields,
line lengths, element columns, non-UTF-8 bytes, coordinate fields, a second
``MODEL``, truncated records, and an entry without a supported atom. Both
readers must return the same elements, coordinate bits and line numbers, or
raise the same ``ParseError`` (message and line).

The ``%8.3f`` fast path of the reader is swept against ``float()``, and bond
inference, whose search radius depends on the elements present, is compared
with a brute-force check of all pairs."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

from molgat import chem
from molgat.chem import BOND_INFERENCE_FACTOR, COVALENT_RADII
from molgat.errors import ParseError

import ingest_oracle
from test_chem import pdb_line, triglycine_lines
from test_ingest_parity import write_pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

COORDINATE_FIELDS = ["nan", "inf", "1e300", "1_0", "+1.000", "   1.0e1", "-0.000", "-  1.000", "-1e400", "1.2.3",
                     "", "  0.5000", "9999.999", "-999.999", "\t1.000"]
MUTATIONS = ["crlf", "cr", "no_final_newline", "tab_record", "leading_space", "short_53", "past_80", "lower_element",
             "blank_element", "non_utf8", "coordinate", "second_model", "truncated", "no_supported", "altloc",
             "blank_line", "record_name"]


def hand_written():
    """A small entry in one MODEL/ENDMDL block with HETATM waters, an altLoc
    A/B pair, blank element columns and non-atom records."""
    lines = ["HEADER    HAND-WRITTEN", "REMARK   1 ONE MODEL", "MODEL        1"]
    body = triglycine_lines()
    body[1] = body[1][:16] + "A" + body[1][17:]
    body.insert(2, body[1][:16] + "B" + body[1][17:38] + f"{1.2:8.3f}" + body[1][46:])
    body[5] = body[5][:76]
    lines += body
    lines += ["TER      13      GLY A   3",
              pdb_line(14, "O", "HOH", "A", 101, 6.0, 4.0, 1.0, "O", record="HETATM"),
              pdb_line(15, "ZN", "ZN", "A", 102, 9.0, 1.0, 2.0, "ZN", record="HETATM"),
              "ENDMDL", "CONECT   14   15", "END"]
    return [line.encode() for line in lines]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Line lists of valid entries: two from the ingest_pdb benchmark's
    generator, two from the parity tests' generator (HETATM, altLoc A/B,
    blank element columns, unsupported elements) and one hand-written."""
    out = tmp_path_factory.mktemp("valid")
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    files = []
    for seed, n in ((1, 300), (2, 450)):
        rng = np.random.default_rng(seed)
        _, lig_xyz, _ = inputs.ligand_blob(rng, 12)
        path = out / f"bench{seed}.pdb"
        inputs.write_pdb(path, *inputs.pdb_protein(rng, lig_xyz - lig_xyz.mean(axis=0), n))
        files.append(path.read_bytes().splitlines())
    for n in (120, 260):
        _, pdb = write_pair(out, n, np.random.default_rng(n))
        files.append(pdb.read_bytes().splitlines())
    files.append(hand_written())
    return files


def atom_lines(lines):
    return [k for k, line in enumerate(lines) if line[:6] in (b"ATOM  ", b"HETATM")] or [0]


def mutate(lines, rng):
    """``lines`` with one to three random mutations, as file bytes."""
    lines, newline, last_newline = list(lines), b"\n", True
    done = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(MUTATIONS)
        done.append(kind)
        k = rng.choice(atom_lines(lines))
        line = lines[k]
        if kind == "crlf":
            newline = b"\r\n"
        elif kind == "cr":
            newline = b"\r"
        elif kind == "no_final_newline":
            last_newline = False
        elif kind == "tab_record":
            lines[k] = rng.choice([b"ATOM\t\t", b"\tATOM ", b"HETAT\t", b"ATOM \t"]) + line[6:]
        elif kind == "leading_space":
            lines[k] = rng.choice([b" ATOM ", b"  ATOM"]) + line[6:] if rng.random() < 0.5 else b" " + line
        elif kind == "short_53":  # 53 characters and a newline, or the last line without one
            lines[k] = line[:53]
            if rng.random() < 0.5:
                del lines[k + 1:]
                last_newline = rng.random() < 0.5
        elif kind == "past_80":
            lines[k] = line.ljust(80) + b"  extra columns"[:rng.randint(1, 15)]
        elif kind == "lower_element":
            lines[k] = line[:76] + line[76:78].lower() + line[78:]
        elif kind == "blank_element":
            lines[k] = line[:76] + rng.choice([b"  ", b"", b"\t "]) + line[78:]
        elif kind == "non_utf8":
            at = rng.randrange(len(line) + 1)
            lines[k] = line[:at] + rng.choice([b"\xff", b"\xc3\xa9", b"\xe2\x82", b"\xc0"]) + line[at + 1:]
        elif kind == "coordinate":
            at = 30 + 8 * rng.randrange(3)
            lines[k] = line[:at] + rng.choice(COORDINATE_FIELDS).rjust(8).encode()[:8] + line[at + 8:]
        elif kind == "second_model":
            lines.insert(rng.randrange(len(lines) + 1), rng.choice([b"MODEL        2", b"MODEL", b" MODEL 3"]))
        elif kind == "truncated":
            lines[k] = line[:rng.randint(0, 53)]
        elif kind == "no_supported":
            lines = [li[:12] + b" FE " + li[16:76] + b"FE" + li[78:] if li[:6] in (b"ATOM  ", b"HETATM") else li
                     for li in lines]
        elif kind == "altloc":
            lines[k] = line[:16] + rng.choice([b"A", b"B", b"C", b"\t"]) + line[17:]
        elif kind == "blank_line":
            lines.insert(rng.randrange(len(lines) + 1), rng.choice([b"", b"   ", b"\t"]))
        else:
            lines[k] = rng.choice([b"ANISOU", b"HETNAM", b"MODELS", b"ATOMIC", b"atom  ", b"\x1cATOM "]) + line[6:]
    return newline.join(lines) + (newline if last_newline else b""), done


def outcome(read, path):
    try:
        elements, coords, linenos = read(path)
    except ParseError as err:
        return "error", str(err), err.line
    return elements, np.asarray(coords, dtype=np.float64).reshape(-1, 3).tobytes(), np.asarray(linenos).tolist()


def test_mutants_read_as_the_line_loop_reads_them(valid_files, tmp_path):
    rng = random.Random(2019)
    path = tmp_path / "mutant.pdb"
    disagreed, errors, kinds = [], 0, set()
    for trial in range(1000):
        data, done = mutate(valid_files[trial % len(valid_files)], rng)
        path.write_bytes(data)
        got, want = outcome(chem._read_pdb_atoms, path), outcome(ingest_oracle.read_pdb_atoms, path)
        if got != want:
            disagreed.append((trial, done))
        errors += want[0] == "error"
        kinds.update(done)
    assert disagreed == []
    assert kinds == set(MUTATIONS)
    assert 200 <= errors <= 800  # both readers fail and succeed on many mutants


def test_valid_files_read_as_the_line_loop_reads_them(valid_files, tmp_path):
    path = tmp_path / "valid.pdb"
    for lines in valid_files:
        path.write_bytes(b"\n".join(lines) + b"\n")
        got = outcome(chem._read_pdb_atoms, path)
        assert got == outcome(ingest_oracle.read_pdb_atoms, path) and len(got[0]) > 10


@pytest.mark.parametrize("data", [b"", b"\n", b"\r\n\r", b"END", b"ATOM", b"MODEL\nMODEL\n", b"\xff\n",
                                  b"ATOM  " + b"x" * 60, b"HETATM" + b" " * 72 + b"\n" * 3])
def test_edge_files_read_as_the_line_loop_reads_them(tmp_path, data):
    path = tmp_path / "edge.pdb"
    path.write_bytes(data)
    assert outcome(chem._read_pdb_atoms, path) == outcome(ingest_oracle.read_pdb_atoms, path)


def test_decimal_fields_equal_float_bit_for_bit():
    rng = random.Random(8)
    numbers = [rng.randint(-999999, 9999999) for _ in range(200000)]
    numbers += [0, -0, 1, -1, 999, -999, 9999999, -999999]
    fields = [f"{'-' if n < 0 else ''}{abs(n) // 1000}.{abs(n) % 1000:03d}".rjust(8) for n in numbers]
    fields += ["  -0.000", "-0.000".rjust(8), "   0.000", "0000.000", "-000.001"]
    chars = np.frombuffer("".join(fields).encode(), np.uint8).reshape(-1, 8).T
    values, exact = chem._decimal_fields(chars)
    assert exact.all()
    assert values.tobytes() == np.array([float(f) for f in fields]).tobytes()


@pytest.mark.parametrize("field", ["     1_0", "  +1.000", "   1.0e1", "-  1.000", "  .50000", "   1.2.3", " --1.000",
                                   " - 1.000", "   1.00 ", "12345678", "1.000   ", "\t  1.000", "  1.0000", "        "])
def test_other_fields_are_left_to_float(field):
    _, exact = chem._decimal_fields(np.frombuffer(field.encode(), np.uint8).reshape(1, 8).T)
    assert not exact.any()


def brute_force_bonds(elements, coords):
    """Every pair ``i < j`` closer than ``1.3 (r_i + r_j)``, from all N x N distances."""
    radii = np.array([COVALENT_RADII[e] for e in elements])
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    return np.argwhere(np.triu(dist < BOND_INFERENCE_FACTOR * (radii[:, None] + radii[None, :]), k=1))


# The elements present, and the search radius they give: 1.3 x 2 x the widest covalent radius.
RADII = [
    (["C", "N", "O", "H"], 1.976),
    (["C", "N", "O", "S", "H"], 2.73),
    (["C", "N", "O", "P"], 2.782),
    (["C", "Cl", "F", "B"], 2.652),
    (["C", "Br"], 3.12),
    (["H"], 0.806),
]


@pytest.mark.parametrize("present, radius", RADII)
@pytest.mark.parametrize("n", [200, 600])
def test_bonds_match_brute_force_at_the_radius_of_the_elements_present(monkeypatch, present, radius, n):
    cutoffs = []
    real = chem._pairs_above

    def spy(a, cutoff):
        cutoffs.append(cutoff)
        return real(a, cutoff)

    monkeypatch.setattr(chem, "_pairs_above", spy)
    rng = random.Random(n + len(present))
    side = (n / 0.09) ** (1 / 3)
    elements = [rng.choice(present) for _ in range(n)]
    coords = np.round(np.array([[rng.uniform(0, side) for _ in range(3)] for _ in range(n)]), 3)
    got = chem._infer_bonds(chem._element_codes(elements, None), coords)
    want = brute_force_bonds(elements, coords)
    assert got.tolist() == want.tolist() and len(want) > 5
    assert cutoffs == [pytest.approx(radius, abs=1e-12)]


def half_shell_layout(layout, n, width, rng):
    """``n`` coordinates of one kind the cell list must get right, for cells
    ``width`` wide: a jittered lattice of lines in cell order, then shuffled
    out of it; a set whose rows come in coincident groups; or rows on cell
    faces (multiples of the width) and a float step either side of them."""
    if layout == "shuffled":  # like a PDB entry's chains: 0.55 cells along a line, 1.25 cells between lines
        steps = np.arange(n)
        grid = np.stack([steps // 36 * 0.55, steps // 6 % 6 * 1.25, steps % 6 * 1.25], axis=1) * width
        return np.round(grid + rng.normal(scale=0.04 * width, size=grid.shape), 3)[rng.permutation(n)]
    if layout == "coincident":
        base = np.round(rng.uniform(0.0, (n / 0.09) ** (1 / 3), size=(n // 3, 3)), 3)
        return base[rng.permutation(np.arange(n) % len(base))]
    faces = width * rng.integers(-4, 5, size=(n, 3))
    return np.where(rng.random((n, 3)) < 0.5, faces, np.nextafter(faces, rng.choice([-np.inf, np.inf], (n, 3))))


@pytest.mark.parametrize("layout", ["shuffled", "coincident", "faces"])
@pytest.mark.parametrize("present, radius", RADII)
def test_half_shell_bonds_equal_brute_force(monkeypatch, layout, present, radius):
    # above 256 atoms the cell list takes each unordered pair once, names it
    # by its lower original row first and sorts the pairs back into file order
    calls = []
    real = chem._grid_pairs
    monkeypatch.setattr(chem, "_grid_pairs", lambda a, *args: calls.append(len(a)) or real(a, *args))
    rng = np.random.default_rng(len(present) * 10 + len(layout))
    n = 400
    coords = half_shell_layout(layout, n, radius * chem._GRID_MARGIN, rng)
    elements = [present[k] for k in rng.integers(len(present), size=len(coords))]
    got = chem._infer_bonds(chem._element_codes(elements, None), coords)
    want = brute_force_bonds(elements, coords)
    assert got.dtype == np.intp and got.tobytes() == want.astype(np.intp).tobytes() and len(want) > 20
    assert calls == [len(coords)] and len(coords) > chem._PAIR_BLOCK
    if layout == "shuffled":  # the rows really leave cell order
        q = np.floor_divide(coords, radius * chem._GRID_MARGIN)
        assert not (np.diff(q[:, 0]) >= 0).all()


def test_an_entry_without_a_supported_atom_has_no_bonds(tmp_path):
    assert chem._infer_bonds([], np.empty((0, 3))).shape == (0, 2)
    path = tmp_path / "metals.pdb"
    path.write_text("\n".join(pdb_line(k + 1, "FE", "HEM", "A", 1, k, 0, 0, "FE", record="HETATM")
                              for k in range(3)) + "\n")
    stats = {}
    assert chem.parse_pdb_protein(path, stats) == ([], []) and stats == {"dropped_atoms": 3}
