import pytest

from molgat import graphs


@pytest.fixture(params=["gather", "dense"])
def edge_kernel(request, monkeypatch):
    """Run a test once with each way the edge products are computed: the
    neighbours' rows gathered per degree, one batched product per degree
    (``gather``, the kernel of pocket-size graphs), and one dense N x N
    product per graph (``dense``, the kernel of small graphs). It forces
    the rule ``graphs.Edges.dense`` reads, ``graphs._DENSE_ENTRIES_PER_EDGE``,
    which every kernel call reads again, so samples that keep their cached
    ``reach`` still take the forced kernel."""
    monkeypatch.setattr(graphs, "_DENSE_ENTRIES_PER_EDGE", 0 if request.param == "gather" else 10**9)
