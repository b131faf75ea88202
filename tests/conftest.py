import pytest

from molgat import autodiff


@pytest.fixture(params=["gather", "dense"])
def edge_kernel(request, monkeypatch):
    """Run a test once with each way the edge products are computed: gathered
    E x F rows (pocket-size graphs) and one dense N x N product (small graphs)."""
    monkeypatch.setattr(autodiff, "_DENSE_ENTRIES_PER_EDGE", 0 if request.param == "gather" else 10**9)
