"""The degree-bucketed edge kernel against the gather formulas it replaced
(``dense_oracle``) and against the dense per-graph kernel, on edge lists
whose degree profiles stress the bucket layout, and the rule that picks a
kernel for an edge list."""

import numpy as np
import pytest

from molgat import graphs
from molgat.graphs import Edges, build_sample, prune_protein
from molgat.synthetic import generate_corpus

from composed import full_edges
from dense_oracle import gather_edge_dots, gather_edge_sums
from helpers import ligand_in_a_shell, pocket_sample, random_edges


def loops_and_a_chain():
    """Nodes 3..8 have only their self-loop (degree 1)."""
    return Edges.build(9, [(0, 1), (1, 2)])


def hub():
    """Node 0 bonded to all 59 others, which form a sparse chain besides."""
    spokes = [(0, k) for k in range(1, 60)]
    chain = [(k, k + 1) for k in range(1, 59, 3)]
    return Edges.build(60, spokes + chain)


def ring():
    """Every node has degree 3: its self-loop and two neighbours."""
    return Edges.build(12, [(k, (k + 1) % 12) for k in range(12)])


def merged_batch():
    rng = np.random.default_rng(50)
    return Edges.merge([random_edges(rng, n) for n in (4, 6, 5, 9)] + [loops_and_a_chain(), hub()])


def pocket():
    return full_edges(pocket_sample(600, seed=12))


CASES = {"loops": loops_and_a_chain, "hub": hub, "ring": ring, "batch": merged_batch, "pocket": pocket}


def kernels(edges, monkeypatch, f=140, seed=51):
    """Edge dots and edge sums of one random input through the bucketed
    kernel, the dense kernel and the gather oracle."""
    rng = np.random.default_rng(seed)
    n = len(edges.starts)
    a, b = rng.uniform(-1, 1, size=(n, f)), rng.uniform(-1, 1, size=(n, f))
    w = rng.uniform(-1, 1, size=(len(edges.src), 1))
    out = {}
    for name, rule in (("bucketed", 0), ("dense", 10**9)):
        monkeypatch.setattr(graphs, "_DENSE_ENTRIES_PER_EDGE", rule)
        out[name] = (edges.dots(a, b), edges.sums(w, a))
    # both layouts were built: the rule was read again after it changed
    assert "blocks" in edges.__dict__ and "buckets" in edges.__dict__
    out["oracle"] = (gather_edge_dots(a, b, edges), gather_edge_sums(w, a, edges))
    return out


@pytest.mark.parametrize("case", CASES)
def test_bucketed_kernel_matches_gather_oracle_and_dense_kernel(case, monkeypatch):
    edges = CASES[case]()
    out = kernels(edges, monkeypatch)
    dots, sums = out["bucketed"]
    assert dots.shape == (len(edges.src), 1) and sums.shape == (len(edges.starts), 140)
    for reference in ("oracle", "dense"):
        np.testing.assert_allclose(dots, out[reference][0], rtol=0, atol=1e-12, err_msg=reference)
        np.testing.assert_allclose(sums, out[reference][1], rtol=0, atol=1e-12, err_msg=reference)


@pytest.mark.parametrize("case", CASES)
def test_buckets_hold_each_row_once_with_its_edges_in_order(case):
    edges = CASES[case]()
    buckets = edges.buckets
    degrees = [index.shape[1] for _, index in buckets]
    assert degrees == sorted(set(degrees))
    rows = np.concatenate([r for r, _ in buckets])
    np.testing.assert_array_equal(np.sort(rows), np.arange(len(edges.starts)))
    index = np.concatenate([i.ravel() for _, i in buckets])
    np.testing.assert_array_equal(np.sort(index), np.arange(len(edges.src)))
    for r, i in buckets:
        assert i.shape == (len(r), i.shape[1])
        np.testing.assert_array_equal(edges.src[i], np.broadcast_to(r[:, None], i.shape))
        assert (np.diff(edges.dst[i], axis=1) > 0).all()


def test_degree_profiles_of_the_cases():
    assert [i.shape[1] for _, i in loops_and_a_chain().buckets] == [1, 2, 3]
    assert [len(r) for r, _ in loops_and_a_chain().buckets] == [6, 2, 1]
    assert hub().buckets[-1][1].shape == (1, 60)
    assert len(ring().buckets) == 1 and ring().buckets[0][1].shape == (12, 3)
    assert len(pocket().buckets) > 5


def test_kernel_rule_picks_dense_for_training_batches_and_buckets_for_pockets():
    batch = [build_sample(prune_protein(r)) for r in generate_corpus(32, seed=52)]
    assert 30 <= np.mean([s.num_atoms for s in batch]) <= 60
    assert Edges.merge([full_edges(s) for s in batch]).dense
    for n in (300, 600):
        assert not full_edges(pocket_sample(n, seed=n)).dense
    # the graphs the model runs on: the reached subgraphs
    assert Edges.merge([s.reach[1] for s in batch]).dense
    assert pocket_sample(300, seed=300).reach[1].dense
    shell = ligand_in_a_shell(80, seed=1)
    assert shell.num_atoms > 600 and not shell.reach[1].dense
