"""The benchmark under ``perfbench/`` wraps molgat functions by module
attribute name (``training.predict``, ``cli.score``, ``model.gat_forward``
and more), and builds its inputs through molgat's library calls. Installing
and removing its span tracer and its hooks, and building every workload's
tiny inputs and running a short phase and the output checks on them, here
turns a refactor that drops or renames one of them, or moves a checked
output, into a test failure instead of a benchmark crash or a failed check."""

from pathlib import Path

import pytest

from molgat import autodiff, cli, gat, graphs, model, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (autodiff.Tape, gat, model, training, training.Adam, graphs, cli)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import phases
    import spans

    return spans, phases


def attributes():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_span_tracer_and_hooks_install_and_undo(perfbench):
    spans, phases = perfbench
    before = attributes()
    traced = spans.instrument(spans.Tracer())
    hooks = phases.Hooks().install()
    assert attributes() != before
    hooks.undo()
    traced.undo()
    assert attributes() == before


@pytest.mark.parametrize("workload", ["train_small", "screen_pocket", "ingest_pdb"])
def test_tiny_workload_and_check_inputs_build(perfbench, tmp_path, workload):
    _, phases = perfbench
    import inputs

    size = inputs.SIZES["tiny"]
    manifest = inputs.SETUP[workload](1, size, str(tmp_path))
    checks = inputs.prepare_checks(workload, 1, size, str(tmp_path), manifest)
    assert checks["shape"]["samples"] > 0

    # one short measured phase and the benchmark's output checks on its result
    ctx = {"seed": 1, "size": "tiny", "manifest": manifest, "checks": checks}
    out = str(tmp_path / "measure")
    phase, hooks = phases.run_phase(workload, ctx, out, seconds=1)
    assert phase["failed_ops"] == 0 and phase["ops"] >= 1
    results = phases.CHECKS[workload](ctx, hooks, out)
    assert results and all(ok for _, ok, _ in results), results
