import pytest

from molgat import autodiff


@pytest.fixture(params=["gather", "dense"])
def edge_kernel(request, monkeypatch):
    """Run a test once with each way the edge products are computed: the
    neighbours' rows gathered per degree, one batched product per degree
    (``gather``, the kernel of pocket-size graphs), and one dense N x N
    product per graph (``dense``, the kernel of small graphs)."""
    monkeypatch.setattr(autodiff, "_DENSE_ENTRIES_PER_EDGE", 0 if request.param == "gather" else 10**9)
