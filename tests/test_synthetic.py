import hashlib

import numpy as np
import pytest

from molgat.chem import write_jsonl
from molgat.graphs import build_sample, label_pose, ligand_rmsd, prune_protein
from molgat.synthetic import LABEL_CUTOFF, generate_corpus, generate_pose_set

from helpers import num_ligand_atoms


def brute_force_label(rec):
    lig = [(a.element, np.asarray(a.position)) for a in rec.atoms if a.is_ligand]
    prot = [(a.element, np.asarray(a.position)) for a in rec.atoms if not a.is_ligand]
    for el_l, xl in lig:
        for el_p, xp in prot:
            if {el_l, el_p} == {"N", "O"} and np.linalg.norm(xl - xp) < LABEL_CUTOFF:
                return 1
    return 0


# SHA-256 of ``generate_corpus(40, seed)`` written by ``write_jsonl``, computed
# before ``Atom`` and ``Bond`` were slotted: the corpus and its canonical lines
# do not depend on how a record's atoms are stored.
CORPUS_SHA256 = {
    1: "3bd2f7dbd0452b70cf4ba11689ff5d8fb6238b1e4dbca13b9516611d545b3e3f",
    2: "e47809c3f2968dc8850fd40a54e9427c8c169fe89da5272f37a6f6974f4a3c5e",
    3: "b39f7f27412d0826f9bed690d613904c58fe919a87de91b6c8f90fc4b590b103",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_SHA256))
def test_corpus_json_lines_are_pinned(tmp_path, seed):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(generate_corpus(40, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS_SHA256[seed]


class TestCorpus:
    def test_deterministic_given_seed(self):
        assert generate_corpus(25, seed=5) == generate_corpus(25, seed=5)
        assert generate_corpus(25, seed=5) != generate_corpus(25, seed=6)

    def test_labels_match_planted_rule(self):
        records = generate_corpus(120, seed=1)
        for rec in records:
            assert rec.label == brute_force_label(rec)

    def test_atom_counts_in_range(self):
        for rec in generate_corpus(60, seed=2):
            assert 5 <= num_ligand_atoms(rec) <= 15
            assert 20 <= len(rec.atoms) - num_ligand_atoms(rec) <= 40

    def test_all_categories_present_and_consistent(self):
        records = generate_corpus(200, seed=3)
        seen = {r.category for r in records}
        assert seen == {"dude_active", "dude_inactive", "pdbbind_positive", "pdbbind_negative"}
        for rec in records:
            assert rec.effective_label() == rec.label

    def test_near_miss_negatives_have_out_of_range_pair(self):
        # some negatives must carry an N-O pair inside the contact window but
        # outside the label cutoff, so distance awareness is required
        found = 0
        for rec in generate_corpus(100, seed=4):
            if rec.label == 1:
                continue
            lig = [(a.element, np.asarray(a.position)) for a in rec.atoms if a.is_ligand]
            prot = [(a.element, np.asarray(a.position)) for a in rec.atoms if not a.is_ligand]
            for el_l, xl in lig:
                for el_p, xp in prot:
                    if {el_l, el_p} == {"N", "O"} and LABEL_CUTOFF <= np.linalg.norm(xl - xp) < 5.0:
                        found += 1
                        break
                else:
                    continue
                break
        assert found >= 10

    def test_records_survive_pipeline(self):
        for rec in generate_corpus(20, seed=7):
            sample = build_sample(prune_protein(rec))
            assert sample.inter_mask.sum() > 0  # complexes are in contact by construction


class TestPoseSet:
    def test_rmsd_annotations_and_labels(self):
        poses = generate_pose_set(6, 10, seed=8)
        assert poses
        for pose in poses:
            assert pose.rmsd is not None
            assert label_pose(pose.rmsd) is not None  # dead zone omitted
            expected = "pdbbind_positive" if pose.rmsd < 2.0 else "pdbbind_negative"
            assert pose.category == expected

    def test_pose_groups_share_complex_id(self):
        poses = generate_pose_set(4, 6, seed=9)
        groups = {}
        for pose in poses:
            groups.setdefault(pose.complex_id, []).append(pose)
        assert len(groups) <= 4
        for group in groups.values():
            protein_ids = {p.protein_id for p in group}
            assert len(protein_ids) == 1

    def test_both_pose_classes_occur(self):
        poses = generate_pose_set(10, 12, seed=10)
        labels = {p.label for p in poses}
        assert labels == {0, 1}
