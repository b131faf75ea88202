"""Characterization ("golden master") test of the commands' outputs.

Runs, through ``cli.main``: ``featurize`` on the benchmark's full-size
ingest_pdb inputs of seeds 1-3 (SDF ligands and 3,000-5,000-atom PDB
entries, built by ``perfbench/inputs.py``), on seed 1 again at
``--cutoff 12`` and on a ``molgat synth`` JSON-lines corpus; then
``predict`` on that corpus's cache with a seeded paper-default checkpoint.
``golden.json`` pins each command's exit code, stdout and config echo, with
the working directory masked as ``<dir>``, and the SHA-256 of each file it
writes, except predict's. Featurizing involves no BLAS, so its bytes are
pinned; predict's scores depend on the BLAS build and thread count, so they
are pinned within 1e-10, and two runs in one process must write the same
bytes.

A change that moves an output on purpose rewrites the table with
``PYTHONPATH=src python tests/test_golden.py`` and names each moved entry,
and why, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from molgat.cli import main
from molgat.model import ModelConfig, ModelParams, save_params

TABLE = Path(__file__).with_name("golden.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCORE_TOL = 1e-10


def _perfbench_inputs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    return inputs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(root: Path, argv) -> tuple[int, str]:
    """Exit code and stdout of one command, ``root`` masked."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([str(a) for a in argv])
    return rc, stdout.getvalue().replace(str(root), "<dir>")


def _entry(root: Path, argv, echo: Path, files) -> dict:
    rc, stdout = _run(root, argv)
    return {
        "exit": rc,
        "stdout": stdout,
        "echo": echo.read_text(encoding="utf-8").replace(str(root), "<dir>"),
        "sha256": {path.name: _sha256(path) for path in files},
    }


def _predict_argv(root: Path, out: str) -> list:
    return ["predict", "--input", root / "synth.cache", "--checkpoint", root / "init.ckpt", "--out", root / out]


def run_commands(root: Path) -> dict:
    """Build the inputs in ``root``, run every pinned command there and
    return the table of their outputs."""
    inputs = _perfbench_inputs()
    table = {}
    pairs = {}
    for seed in (1, 2, 3):
        (root / f"seed{seed}").mkdir()
        pairs[seed] = inputs.SETUP["ingest_pdb"](seed, inputs.SIZES["full"], str(root / f"seed{seed}"))["pairs"]
        cache = root / f"seed{seed}.cache"
        table[f"featurize seed {seed}"] = _entry(
            root, ["featurize", "--format", "sdf+pdb", *pairs[seed], "--out", cache],
            root / f"seed{seed}.cache.config.ini", [cache])
    cache = root / "seed1_cutoff12.cache"
    table["featurize seed 1 --cutoff 12"] = _entry(
        root, ["featurize", "--format", "sdf+pdb", *pairs[1], "--cutoff", "12", "--out", cache],
        root / "seed1_cutoff12.cache.config.ini", [cache])

    synth = root / "synth"
    table["synth"] = _entry(
        root, ["synth", "--train", "40", "--test", "0", "--pose-complexes", "0", "--seed", "7", "--out", synth],
        synth / "config.resolved.ini", [synth / "train.jsonl", synth / "test.jsonl"])
    cache = root / "synth.cache"
    table["featurize synth"] = _entry(
        root, ["featurize", synth / "train.jsonl", "--out", cache], root / "synth.cache.config.ini", [cache])

    config = ModelConfig()
    save_params(root / "init.ckpt", ModelParams.initialize(config, np.random.default_rng(31)), config)
    pred = root / "pred"
    entry = _entry(root, _predict_argv(root, "pred"), pred / "config.resolved.ini", [])
    rows = (line.rsplit(",", 1) for line in (pred / "scores.csv").read_text().splitlines()[1:])
    entry["scores"] = {ids: float(p) for ids, p in rows}  # "complex_id,protein_id": probability
    table["predict synth"] = entry
    return table


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_commands(root)


GOLDEN = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}


def test_table_names_every_command(outputs):
    assert list(outputs[1]) == list(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_outputs_match_the_table(outputs, name):
    got, want = dict(outputs[1][name]), dict(GOLDEN[name])
    got_scores, want_scores = got.pop("scores", {}), want.pop("scores", {})
    assert got == want
    assert list(got_scores) == list(want_scores)
    np.testing.assert_allclose(list(got_scores.values()), list(want_scores.values()), rtol=0, atol=SCORE_TOL)


def test_predict_twice_in_one_process_writes_the_same_bytes(outputs):
    root, _ = outputs
    assert _run(root, _predict_argv(root, "pred_again"))[0] == 0
    for name in ("scores.csv", "score_histogram.csv", "config.resolved.ini"):
        assert (root / "pred_again" / name).read_bytes() == (root / "pred" / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(run_commands(Path(tmp)), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
