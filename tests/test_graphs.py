import dataclasses
import gc
import io
import re
import struct
import warnings

import numpy as np
import pytest

from molgat import chem, graphs
from molgat.chem import Atom, Bond, ComplexRecord
from molgat.errors import CheckpointError, DataError
from molgat.fileio import Reader, write_checked
from molgat.graphs import (
    CACHE_MAGIC,
    Edges,
    GraphSample,
    build_sample,
    compute_rmsd,
    iter_cache,
    label_pose,
    ligand_rmsd,
    pairwise_distances,
    prune_protein,
    read_cache,
    write_cache,
)
from molgat.synthetic import generate_corpus, generate_pose_set

from composed import full_edges, merged_reach
from helpers import dense_of, num_ligand_atoms, pocket_sample, whole_file_samples, write_unchecked


def atom(element, pos, is_ligand, degree=1):
    return Atom(element, tuple(float(c) for c in pos), is_ligand, degree, 0, 0, False)


def reversed_atoms(rec):
    """``rec`` with its atoms in reverse order (protein first) and the bonds renumbered."""
    n = len(rec.atoms)
    return ComplexRecord(rec.complex_id, rec.protein_id, rec.atoms[::-1],
                         [Bond(n - 1 - b.j, n - 1 - b.i, b.order) for b in rec.bonds], rec.category, rec.label)


def complex_with_protein_at(distances):
    """Two-atom ligand at the origin plus protein atoms at given x offsets from L0."""
    atoms = [atom("C", (0, 0, 0), True), atom("N", (1.4, 0, 0), True)]
    atoms += [atom("O", (d, 0, 0), False) for d in distances]
    return ComplexRecord("c", "p", atoms, [Bond(0, 1)])


class TestPrune:
    def test_boundary_cases(self):
        rec = complex_with_protein_at([7.9 + 1.4, 8.1 + 1.4])  # min dist via L1 at x=1.4
        pruned = prune_protein(rec)
        kept = [a for a in pruned.atoms if not a.is_ligand]
        assert len(kept) == 1
        assert kept[0].position[0] == pytest.approx(7.9 + 1.4)

    def test_exactly_eight_kept(self):
        # the rule removes atoms strictly farther than the cutoff
        rec = complex_with_protein_at([8.0 + 1.4])
        pruned = prune_protein(rec)
        assert len(pruned.atoms) - num_ligand_atoms(pruned) == 1

    def test_ligand_never_pruned(self):
        rec = complex_with_protein_at([3.0])
        far_ligand = ComplexRecord(
            "c",
            "p",
            rec.atoms + [atom("C", (50, 0, 0), True)],
            rec.bonds,
        )
        pruned = prune_protein(far_ligand)
        assert num_ligand_atoms(pruned) == 3

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(0)
        lig = [atom("C", rng.normal(scale=2.0, size=3), True) for _ in range(5)]
        prot = [atom("O", rng.normal(scale=8.0, size=3), False) for _ in range(30)]
        rec = ComplexRecord("c", "p", lig + prot, [])
        expected_kept = []
        for p in prot:
            dmin = min(np.linalg.norm(np.subtract(p.position, l.position)) for l in lig)
            if dmin <= 8.0:
                expected_kept.append(p.position)
        pruned = prune_protein(rec)
        got = [a.position for a in pruned.atoms if not a.is_ligand]
        assert got == expected_kept

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        lig = [atom("C", rng.normal(scale=2.0, size=3), True) for _ in range(4)]
        prot = [atom("O", rng.normal(scale=8.0, size=3), False) for _ in range(25)]
        rec = ComplexRecord("c", "p", lig + prot, [])
        once = prune_protein(rec)
        twice = prune_protein(once)
        assert once == twice

    def test_bonds_to_removed_atoms_dropped(self):
        atoms = [
            atom("C", (0, 0, 0), True),
            atom("O", (3, 0, 0), False),
            atom("O", (12, 0, 0), False),
        ]
        rec = ComplexRecord("c", "p", atoms, [Bond(1, 2)])
        pruned = prune_protein(rec)
        assert pruned.bonds == []
        assert len(pruned.atoms) - num_ligand_atoms(pruned) == 1

    def test_all_protein_pruned_rejected(self):
        rec = complex_with_protein_at([20.0])
        with pytest.raises(DataError, match=r"^c: no protein atoms within 8\.0 A of the ligand$"):
            prune_protein(rec)

    def test_taken_records_pass_validation_without_running_it(self, monkeypatch):
        # pruning cuts and ligand_first reorders a validated record; neither
        # checks the result again, and each result passes the checks
        calls = []
        real = chem.validate_record
        monkeypatch.setattr(chem, "validate_record", lambda rec: calls.append(rec.complex_id) or real(rec))
        taken = []
        for rec in generate_corpus(6, seed=12):
            flipped = reversed_atoms(rec)
            calls.clear()
            taken += [prune_protein(rec), chem.ligand_first(flipped), prune_protein(flipped, cutoff=4.5)]
            assert calls == []
            assert len(taken[-1].atoms) < len(rec.atoms) and taken[-2].atoms[0].is_ligand
        for rec in taken:
            real(rec)


class TestBuildSample:
    def fixture_record(self):
        # 3 ligand + 5 protein atoms with controlled distances
        atoms = [
            atom("C", (0.0, 0.0, 0.0), True),
            atom("C", (1.5, 0.0, 0.0), True),
            atom("N", (0.0, 1.5, 0.0), True),
            atom("O", (4.0, 0.0, 0.0), False),  # 2.5 A from L1: contact
            atom("N", (0.0, 0.0, 4.9), False),  # 4.9 A from L0: contact
            atom("C", (0.0, 0.0, 5.2), False),  # 5.2 A from L0: no contact
            atom("C", (6.0, 6.0, 0.0), False),
            atom("S", (7.0, 0.0, 0.0), False),  # 3.0 A from P0 (bonded below)
        ]
        bonds = [Bond(0, 1), Bond(0, 2), Bond(3, 7)]
        return ComplexRecord("fix", "p", atoms, bonds)

    def test_ligand_first_runs_once_per_sample(self, monkeypatch):
        calls = []
        real = chem.ligand_first

        def spy(rec):
            calls.append(rec.complex_id)
            return real(rec)

        monkeypatch.setattr(chem, "ligand_first", spy)
        monkeypatch.setattr(graphs, "ligand_first", spy)
        records = [self.fixture_record(), reversed_atoms(self.fixture_record())]
        samples = [build_sample(rec) for rec in records]
        assert calls == ["fix", "fix"]
        for rec, sample in zip(records, samples):
            assert np.array_equal(sample.features, chem.featurize(rec))

    def test_adjacency_matches_hand_matrix(self):
        sample = build_sample(self.fixture_record())
        expected = np.eye(8)
        for i, j in ((0, 1), (0, 2), (3, 7)):
            expected[i, j] = expected[j, i] = 1.0
        np.testing.assert_array_equal(sample.a1, expected)

    def test_distances_match_brute_force(self):
        rec = self.fixture_record()
        sample = build_sample(rec)
        coords = rec.coordinates()
        n = len(rec.atoms)
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                expected[i, j] = np.linalg.norm(coords[i] - coords[j])
        np.testing.assert_allclose(sample.dist, expected, atol=1e-12)

    def test_contact_mask(self):
        sample = build_sample(self.fixture_record())
        assert sample.inter_mask[1, 3] == 1.0 and sample.inter_mask[3, 1] == 1.0
        assert sample.inter_mask[0, 4] == 1.0
        assert sample.inter_mask[0, 5] == 0.0  # 5.2 A: beyond the strict cutoff
        # covalent pairs are never contacts
        assert sample.inter_mask[0, 1] == 0.0
        # intramolecular protein pairs are never contacts
        assert sample.inter_mask[3, 7] == 0.0

    def test_contact_boundary_excluded(self):
        atoms = [
            atom("C", (0, 0, 0), True),
            atom("N", (1.4, 0, 0), True),
            atom("O", (0, 0, 5.0), False),
            atom("O", (0, 0, 4.999), False),
        ]
        sample = build_sample(ComplexRecord("c", "p", atoms, [Bond(0, 1)]))
        assert sample.inter_mask[0, 2] == 0.0
        assert sample.inter_mask[0, 3] == 1.0

    def test_structural_invariants(self):
        sample = build_sample(self.fixture_record())
        assert np.array_equal(sample.a1, sample.a1.T)
        assert np.all(np.diagonal(sample.a1) == 1.0)
        assert np.array_equal(sample.inter_mask, sample.inter_mask.T)
        assert np.all(sample.inter_mask * sample.a1 == 0.0)
        assert np.array_equal(sample.dist, sample.dist.T)
        assert np.all(np.diagonal(sample.dist) == 0.0)
        assert np.all(sample.inter_mask * sample.dist < 5.0)

    def test_rigid_motion_leaves_matrices_unchanged(self):
        rec = self.fixture_record()
        base = build_sample(rec)
        rng = np.random.default_rng(5)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(scale=10.0, size=3)
        moved_atoms = [
            Atom(
                a.element,
                tuple(rotation @ np.asarray(a.position) + shift),
                a.is_ligand,
                a.degree,
                a.num_hydrogens,
                a.implicit_valence,
                a.aromatic,
            )
            for a in rec.atoms
        ]
        moved = build_sample(ComplexRecord("fix", "p", moved_atoms, rec.bonds))
        np.testing.assert_allclose(moved.dist, base.dist, atol=1e-9)
        np.testing.assert_array_equal(moved.a1, base.a1)
        np.testing.assert_array_equal(moved.inter_mask, base.inter_mask)

    def test_interleaved_input_reordered(self):
        atoms = [
            atom("O", (3.0, 0, 0), False),
            atom("C", (0, 0, 0), True),
            atom("N", (1.4, 0, 0), True),
        ]
        sample = build_sample(ComplexRecord("c", "p", atoms, [Bond(1, 2)]))
        # ligand rows first: feature block 0..27 populated for rows 0-1 only
        assert sample.features[0, :28].any() and sample.features[1, :28].any()
        assert sample.features[2, 28:].any()
        assert sample.a1[0, 1] == 1.0


class TestEdges:
    def samples(self):
        out = [build_sample(TestBuildSample().fixture_record())]
        out += [build_sample(prune_protein(r)) for r in generate_corpus(12, seed=300)]
        rng = np.random.default_rng(3)
        for s in out[1:4]:  # ligand rows not first
            perm = rng.permutation(s.num_atoms)
            out.append(dataclasses.replace(
                s, features=s.features[perm], coords=s.coords[perm], is_ligand=s.is_ligand[perm],
                bonds=np.sort(np.argsort(perm)[s.bonds], axis=1),
            ))
        return out + [pocket_sample(300, 1), pocket_sample(600, 2)]

    def test_support_equals_dense_adjacency_support(self):
        for s in self.samples():
            edges = full_edges(s)
            src, dst = np.nonzero(s.a1 + s.inter_mask)  # row-major: sorted by (src, dst)
            np.testing.assert_array_equal(edges.src, src)
            np.testing.assert_array_equal(edges.dst, dst)
            np.testing.assert_array_equal(edges.contact, s.inter_mask[src, dst] == 1.0)
            np.testing.assert_array_equal(edges.src[edges.starts], np.arange(s.num_atoms))

    def test_contact_distances_bit_equal_to_dist(self):
        for s in self.samples():
            edges = full_edges(s)
            dist = s.dist
            c = edges.contact
            assert np.array_equal(edges.dist[c], dist[edges.src[c], edges.dst[c]])
            assert np.all(edges.dist[~c] == 0.0)

    def test_pair_at_exactly_cutoff_excluded(self):
        atoms = [
            atom("C", (0, 0, 0), True),
            atom("N", (1.4, 0, 0), True),
            atom("O", (0, 0, 4.999), False),
            atom("O", (0, 0, 5.0), False),
            atom("O", (0, 0, 5.001), False),
        ]
        edges = full_edges(build_sample(ComplexRecord("c", "p", atoms, [Bond(0, 1)])))
        pairs = set(zip(edges.src[edges.contact].tolist(), edges.dst[edges.contact].tolist()))
        assert (0, 2) in pairs and (2, 0) in pairs
        assert not pairs & {(0, 3), (3, 0), (0, 4), (4, 0)}

    def test_rev_is_involution_mapping_to_reverse_edge(self):
        for s in self.samples():
            edges = full_edges(s)
            assert np.array_equal(edges.rev[edges.rev], np.arange(len(edges.src)))
            assert np.array_equal(edges.src[edges.rev], edges.dst)
            assert np.array_equal(edges.dst[edges.rev], edges.src)

    def test_repeated_pairs_kept_once(self):
        edges = Edges.build(3, [(0, 1), (0, 1), (1, 2)])
        assert list(zip(edges.src.tolist(), edges.dst.tolist())) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)
        ]
        np.testing.assert_array_equal(edges.starts, [0, 2, 5])


    def test_merge_equals_the_edges_of_the_disjoint_union(self):
        parts = [full_edges(s) for s in self.samples()[:6]]
        merged = Edges.merge(parts)
        offsets = np.cumsum([0] + [len(p.starts) for p in parts])
        bonds, contacts, dists = [], [], []
        for p, k in zip(parts, offsets):
            upper = p.src < p.dst
            pairs = np.stack([p.src, p.dst], axis=1) + k
            bonds.append(pairs[upper & ~p.contact])
            contacts.append(pairs[upper & p.contact])
            dists.append(p.dist[upper & p.contact])
        union = Edges.build(offsets[-1], np.concatenate(bonds), np.concatenate(contacts), np.concatenate(dists))
        for field in ("src", "dst", "starts", "rev", "contact", "dist"):
            np.testing.assert_array_equal(getattr(merged, field), getattr(union, field), err_msg=field)
        np.testing.assert_array_equal(merged.sizes, np.diff(offsets))
        assert Edges.merge(parts[:1]) is parts[0]

    def test_blocks_put_each_edge_in_its_graphs_dense_block(self):
        parts = [full_edges(s) for s in self.samples()[:4]]
        bounds, index, total = Edges.merge(parts).blocks
        flat = np.zeros(total)
        flat[index] = np.arange(1, len(index) + 1)  # edge number, 1-based
        first_edge = 0
        for (lo, n, at), p in zip(bounds, parts):
            block = flat[at:at + n * n].reshape(n, n)
            np.testing.assert_array_equal(block, dense_of(p, first_edge + np.arange(1, len(p.src) + 1)))
            first_edge += len(p.src)
        assert total == sum(len(p.starts) ** 2 for p in parts) == bounds[-1][2] + bounds[-1][1] ** 2

    @staticmethod
    def assert_reach(s):
        """``s.reach`` against its definition on the full edge list ``full_edges(s)``."""
        rows, sub = s.reach
        edges = full_edges(s)
        ends = np.unique(edges.src[edges.contact])
        assert rows.tolist() == sorted(set(edges.dst[np.isin(edges.src, ends)].tolist()) | {0})
        kept = np.flatnonzero(np.isin(edges.src, rows) & np.isin(edges.dst, rows))
        r = len(rows)
        keys = sub.src * r + sub.dst
        assert np.all(np.diff(keys) > 0)  # sorted by (src, dst), each pair once
        np.testing.assert_array_equal(rows[sub.src], edges.src[kept])
        np.testing.assert_array_equal(rows[sub.dst], edges.dst[kept])
        np.testing.assert_array_equal(sub.contact, edges.contact[kept])
        np.testing.assert_array_equal(sub.dist, edges.dist[kept])
        np.testing.assert_array_equal(sub.starts, np.searchsorted(sub.src, np.arange(r)))
        assert np.array_equal(sub.rev[sub.rev], np.arange(len(sub.src)))
        assert np.array_equal(sub.src[sub.rev], sub.dst) and np.array_equal(kept[sub.rev], edges.rev[kept])
        assert np.array_equal(sub.src[sub.src == sub.dst], np.arange(r))  # a self-loop on every row
        degree = np.bincount(edges.src, minlength=s.num_atoms)
        sub_degree = np.bincount(sub.src, minlength=r)
        np.testing.assert_array_equal(sub_degree[np.searchsorted(rows, ends)], degree[ends])
        assert sub.sizes.tolist() == [r]
        for field in ("src", "dst", "starts", "rev", "contact", "dist", "sizes"):
            assert getattr(sub, field).dtype == getattr(edges, field).dtype, field
        assert rows.dtype == np.int64
        return rows, sub

    def test_reach_is_the_sorted_symmetric_subgraph_of_the_reached_rows(self):
        samples = self.samples()
        for s in samples:
            self.assert_reach(s)
        assert all(len(s.reach[0]) < s.num_atoms / 2 for s in samples[-2:])  # the pockets

    def test_reach_of_a_graph_without_contacts_keeps_its_first_row(self):
        s = build_sample(complex_with_protein_at([6.5, 7.7]))
        assert not full_edges(s).contact.any()
        rows, sub = self.assert_reach(s)
        assert rows.tolist() == [0]
        assert sub.src.tolist() == sub.dst.tolist() == [0] and sub.sizes.tolist() == [1]

    def test_merge_then_reach_equals_reach_then_merge(self):
        # The reference pass reaches into the merged full edge list
        # (tests/composed.py); predict merges each sample's reach.
        samples = self.samples() + [build_sample(complex_with_protein_at([6.5, 7.7]))]
        rows, sub, _ = merged_reach(Edges.merge([full_edges(s) for s in samples]))
        offsets = np.cumsum([0] + [s.num_atoms for s in samples[:-1]])
        np.testing.assert_array_equal(rows, np.concatenate([s.reach[0] + k for s, k in zip(samples, offsets)]))
        merged = Edges.merge([s.reach[1] for s in samples])
        for field in ("src", "dst", "starts", "rev", "contact", "dist", "sizes"):
            np.testing.assert_array_equal(getattr(sub, field), getattr(merged, field), err_msg=field)
        assert merged.sizes[-1] == 1


class TestRmsd:
    def test_identity_is_zero(self):
        coords = np.random.default_rng(0).normal(size=(7, 3))
        assert compute_rmsd(coords, coords) == 0.0

    def test_uniform_translation(self):
        coords = np.random.default_rng(1).normal(size=(6, 3))
        shifted = coords + np.array([2.0, 0.0, 0.0])
        assert compute_rmsd(shifted, coords) == pytest.approx(2.0, abs=1e-12)

    def test_matches_per_atom_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        expected = np.sqrt(sum(np.sum((a[i] - b[i]) ** 2) for i in range(10)) / 10)
        assert compute_rmsd(a, b) == pytest.approx(expected, abs=1e-12)

    def test_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            compute_rmsd(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_ligand_rmsd_skips_hydrogens_and_protein(self):
        base_atoms = [
            atom("C", (0, 0, 0), True),
            Atom("H", (1.0, 0, 0), True, 1, 0, 0, False),
            atom("O", (4, 0, 0), False),
        ]
        moved_atoms = [
            atom("C", (3, 0, 0), True),
            Atom("H", (99.0, 0, 0), True, 1, 0, 0, False),  # H displacement ignored
            atom("O", (4, 0, 0), False),
        ]
        ref = ComplexRecord("c", "p", base_atoms, [])
        pose = ComplexRecord("c", "p", moved_atoms, [])
        assert ligand_rmsd(pose, ref) == pytest.approx(3.0, abs=1e-12)


class TestLabelPose:
    @pytest.mark.parametrize(
        "rmsd,expected",
        [(1.5, 1), (3.0, None), (5.0, 0), (0.0, 1), (2.0, None), (4.0, None), (4.001, 0)],
    )
    def test_thresholds(self, rmsd, expected):
        assert label_pose(rmsd) == expected

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            label_pose(-0.1)


class TestCache:
    def samples(self):
        recs = [
            complex_with_protein_at([2.5, 3.5]),
            complex_with_protein_at([4.0]),
        ]
        out = []
        for i, rec in enumerate(recs):
            rec = ComplexRecord(
                f"c{i}", f"p{i}", rec.atoms, rec.bonds, category="dude_active", label=1,
                rmsd=1.25 if i == 0 else None,
            )
            out.append(build_sample(rec))
        return out

    def test_round_trip(self, tmp_path):
        samples = self.samples()
        path = tmp_path / "graphs.cache"
        write_cache(samples, path)
        loaded = read_cache(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.complex_id == b.complex_id and a.protein_id == b.protein_id
            assert a.category == b.category and a.label == b.label and a.rmsd == b.rmsd
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.a1, b.a1)
            np.testing.assert_array_equal(a.inter_mask, b.inter_mask)
            np.testing.assert_array_equal(a.dist, b.dist)
            np.testing.assert_array_equal(a.coords, b.coords)
            np.testing.assert_array_equal(a.is_ligand, b.is_ligand)
            np.testing.assert_array_equal(a.bonds, b.bonds)

    def fixture(self, name):
        if name in ("small", "empty"):
            return self.samples() if name == "small" else []
        if name == "pockets":
            return [dataclasses.replace(pocket_sample(n, seed=80 + k), category="dude_inactive", label=0, rmsd=6.5)
                    for k, n in enumerate([300, 600])]
        records = generate_corpus(12, seed=81) if name == "corpus" else generate_pose_set(2, 4, seed=82)
        return [build_sample(prune_protein(rec)) for rec in records]

    @pytest.mark.parametrize("name", ["small", "pockets", "corpus", "poses", "empty"])
    def test_read_cache_equals_a_whole_file_decode(self, tmp_path, name):
        path = tmp_path / "graphs.cache"
        write_cache(self.fixture(name), path)
        loaded, expected = read_cache(path), whole_file_samples(path)
        assert len(loaded) == len(expected)
        for sample, fields in zip(loaded, expected):
            for field, value in fields.items():
                got = getattr(sample, field)
                if isinstance(value, np.ndarray):
                    assert got.dtype == value.dtype and np.array_equal(got, value), field
                else:
                    assert type(got) is type(value) and got == value, field

    def test_checks_run_before_the_first_sample_is_asked_for(self, tmp_path):
        path = tmp_path / "graphs.cache"
        write_cache(self.samples(), path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # the last body byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            iter_cache(path)

    @pytest.mark.parametrize("taken", [0, 1, 2])
    def test_stopping_early_closes_the_file(self, tmp_path, taken):
        path = tmp_path / "graphs.cache"
        write_cache(self.samples(), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            samples = iter_cache(path)
            for _ in range(taken):
                next(samples)
            del samples
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_file_that_shrinks_while_read_reads_as_truncated(self):
        r = Reader(io.BytesIO(b"abc"), 8, "f: graph cache")  # 8 bytes when the checksum was read
        with pytest.raises(CheckpointError, match="f: graph cache truncated"):
            r.take(4)

    def test_features_stay_uint8_and_own_their_bytes(self, tmp_path):
        samples = self.samples()
        assert all(s.features.dtype == np.uint8 for s in samples)  # as featurized
        write_cache(samples, tmp_path / "graphs.cache")
        for s in read_cache(tmp_path / "graphs.cache"):
            assert s.features.dtype == np.uint8 and s.features.flags.owndata  # no view of the file's bytes

    def test_write_is_deterministic(self, tmp_path):
        samples = self.samples()
        p1, p2 = tmp_path / "a.cache", tmp_path / "b.cache"
        write_cache(samples, p1)
        write_cache(samples, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "graphs.cache"
        write_cache(self.samples(), path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_cache(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "not.cache"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(CheckpointError, match="not a graph cache"):
            read_cache(path)

    def test_v1_file_rejected(self, tmp_path):
        path = tmp_path / "v1.cache"
        write_checked(path, CACHE_MAGIC, struct.pack("<IQ", 1, 0))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: unsupported cache version 1")):
            read_cache(path)

    @pytest.mark.parametrize(
        "bonds, flag, message",
        [
            ([[0, 4]], 1, "bond index"),  # n_atoms is 4
            ([[1, 1]], 1, "bond index"),
            ([[0, 1]], 2, "is_ligand byte"),
            ([[1, 2]], 1, "crosses the ligand/protein boundary"),
            ([[0, 1], [2, 3], [0, 1]], 1, re.escape("bond (0,1) is repeated")),
        ],
    )
    def test_invalid_sample_rejected(self, tmp_path, bonds, flag, message):
        bad = self.invalid(bonds, flag)
        path = tmp_path / "bad.cache"
        write_unchecked([bad], path)
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*" + message):
            read_cache(path)

    def invalid(self, bonds, flag):
        sample = self.samples()[0]
        flags = sample.is_ligand.astype(np.uint8)
        flags[0] = flag
        return dataclasses.replace(sample, bonds=np.array(bonds), is_ligand=flags)

    def degenerate(self, case):
        sample = self.samples()[0]  # ligand rows 0-1, protein rows 2-3
        if case == "no atoms":
            return dataclasses.replace(
                sample, features=sample.features[:0], coords=sample.coords[:0],
                is_ligand=sample.is_ligand[:0], bonds=sample.bonds[:0],
            )
        if case == "no ligand atom":
            return dataclasses.replace(sample, is_ligand=np.zeros(4, bool))
        if case == "no protein atom":
            return dataclasses.replace(sample, is_ligand=np.ones(4, bool))
        if case == "label 2":
            return dataclasses.replace(sample, label=2)
        if case == "label 0 of an active":
            return dataclasses.replace(sample, label=0)
        if case.startswith("rmsd "):
            return dataclasses.replace(sample, rmsd=float(case[5:]))
        if case == "nan coordinate":
            coords = sample.coords.copy()
            coords[3, 1] = np.nan
            return dataclasses.replace(sample, coords=coords)
        features = sample.features.copy()
        features[2, 30] = 7.0
        return dataclasses.replace(sample, features=features)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no atoms", "at least one ligand and one protein atom"),
            ("no ligand atom", "at least one ligand and one protein atom"),
            ("no protein atom", "at least one ligand and one protein atom"),
            ("feature byte 7", "feature byte other than 0/1"),
            ("label 2", "category index 0 or label 2 out of range"),
            ("nan coordinate", "non-finite coordinates"),
            ("label 0 of an active", "sample 'c0': label 0 contradicts category dude_active"),
            ("rmsd -1.0", "sample 'c0': rmsd must be a finite non-negative number, got -1.0"),
            ("rmsd inf", "sample 'c0': rmsd must be a finite non-negative number, got inf"),
            ("rmsd -inf", "sample 'c0': rmsd must be a finite non-negative number, got -inf"),
        ],
    )
    def test_degenerate_sample_rejected(self, tmp_path, case, message):
        path = tmp_path / "bad.cache"
        write_unchecked([self.samples()[1], self.degenerate(case)], path)
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*" + message):
            read_cache(path)

    @pytest.mark.parametrize("case", [
        "no atoms", "no ligand atom", "no protein atom", "feature byte 7", "label 2", "nan coordinate",
        "label 0 of an active", "rmsd -1.0", "rmsd inf", "rmsd -inf", "bond out of range", "bond i == j",
        "is_ligand byte 2", "bond across", "repeated bond",
    ])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, case):
        # the rule the reader names, raised by the writer before it writes:
        # no cache and no temporary file are left behind
        invalid = {"bond out of range": ([[0, 4]], 1), "bond i == j": ([[1, 1]], 1),
                   "is_ligand byte 2": ([[0, 1]], 2), "bond across": ([[1, 2]], 1),
                   "repeated bond": ([[0, 1], [2, 3], [0, 1]], 1)}
        bad = self.invalid(*invalid[case]) if case in invalid else self.degenerate(case)
        samples = [self.samples()[1], bad]
        write_unchecked(samples, tmp_path / "reference.cache")
        with pytest.raises(CheckpointError) as read:
            read_cache(tmp_path / "reference.cache")
        rule = str(read.value).split(f" sample {bad.complex_id!r}: ")[1]
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(DataError) as written:
            write_cache(samples, out / "bad.cache")
        assert str(written.value) == f"{out / 'bad.cache'}: sample {bad.complex_id!r}: {rule}"
        assert not any(out.iterdir())

    def test_writer_refuses_arrays_of_other_lengths(self, tmp_path):
        sample = self.samples()[0]
        for bad in (dataclasses.replace(sample, coords=sample.coords[:-1]),
                    dataclasses.replace(sample, is_ligand=sample.is_ligand[:-1]),
                    dataclasses.replace(sample, bonds=sample.bonds.ravel())):
            with pytest.raises(DataError, match="array shapes do not match 4 atoms"):
                write_cache([bad], tmp_path / "bad.cache")
            assert not any(tmp_path.iterdir())

    @staticmethod
    def rewritten(path, edit) -> None:
        """Rewrite the cache at ``path`` with ``edit`` applied to its body and a
        matching checksum."""
        body = path.read_bytes()[len(CACHE_MAGIC):-4]
        write_checked(path, CACHE_MAGIC, edit(bytearray(body)))

    @pytest.mark.parametrize(
        "offset, byte, message",
        [
            # body: version u32, count u64, then "c0" and "p0" each after a u32
            # length, the category index and the label
            (16, 0xFF, " sample 0: complex_id is not UTF-8"),
            (22, 0xFF, " sample 0: protein_id is not UTF-8"),
            (24, 5, " sample 'c0': category index 5 or label 1 out of range"),
            (25, 0xFE, " sample 'c0': category index 0 or label -2 out of range"),
        ],
    )
    def test_header_field_out_of_range_rejected(self, tmp_path, offset, byte, message):
        path = tmp_path / "bad.cache"
        write_cache(self.samples()[:1], path)

        def edit(body):
            body[offset] = byte
            return bytes(body)

        self.rewritten(path, edit)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: graph cache{message}")):
            read_cache(path)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda body: bytes(body[:-1]), "truncated"), (lambda body: bytes(body) + b"\0", "has trailing bytes")],
    )
    def test_body_of_the_wrong_length_rejected(self, tmp_path, edit, message):
        # the checksum matches, so only the reader's bounds catch the fault
        path = tmp_path / "bad.cache"
        write_cache(self.samples(), path)
        self.rewritten(path, edit)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: graph cache {message}")):
            read_cache(path)


class TestPairwiseDistances:
    def test_bitwise_equal_to_broadcast_form(self):
        rng = np.random.default_rng(11)
        sizes = [tuple(rng.integers(1, 400, size=2)) for _ in range(60)] + [(40, 40), (300, 300), (600, 600)]
        for k, (m, n) in enumerate(sizes):
            a = rng.uniform(-60.0, 60.0, size=(m, 3))
            b = a if k % 3 == 0 else rng.uniform(-60.0, 60.0, size=(n, 3))
            if k % 2:  # PDB coordinates carry three decimals
                a, b = np.round(a, 3), np.round(b, 3)
            diff = a[:, None, :] - b[None, :, :]
            expected = np.sqrt((diff * diff).sum(axis=2))
            assert np.array_equal(pairwise_distances(a, b), expected)
