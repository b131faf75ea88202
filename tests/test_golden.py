"""Characterization ("golden master") test of the commands' outputs.

Runs, through ``cli.main``: ``featurize`` on the benchmark's full-size
ingest_pdb inputs of seeds 1-3 (SDF ligands and 3,000-5,000-atom PDB
entries, built by ``perfbench/inputs.py``), on seed 1 again at
``--cutoff 12`` and on a ``molgat synth`` JSON-lines corpus; then
``predict`` on that corpus's cache with a seeded paper-default checkpoint;
``synth`` of a pose set; ``predict`` on the corpus's JSON lines; a
3-iteration paper-default ``train`` on the corpus's cache; ``evaluate`` on
that cache and ``poses`` on the pose set's cache, both with the seeded
checkpoint. It also saves
freshly initialized checkpoints, at the paper defaults and at the README's
2x24 config, for ``default_rng`` seeds 0-2.
``golden.json`` pins each command's exit code, stdout and config echo, with
the working directory masked as ``<dir>``, and the SHA-256 of each file it
writes, except predict's, train's, evaluate's and poses', and the SHA-256
of each initial checkpoint. Featurizing, synthesizing and initializing
involve no BLAS, so their bytes are pinned; predict's scores depend on the
BLAS build and thread count, so they are pinned within 1e-10, and train's
log (``iteration``, ``train_loss``, ``val_auroc``, ``mu``, ``sigma``) within
rtol 1e-9. Evaluate's ``report.json``, ``report.csv``, ``roc_curve.csv``
and ``pr_curve.csv``, and poses' ``topn_success.csv``, are pinned as their
parsed contents, each number within 1e-10. Two runs of predict, and two of
train, in one process must write the same bytes, and predict on the JSON
lines the same scores as on their cache.

A change that moves an output on purpose rewrites the table with
``PYTHONPATH=src python tests/test_golden.py`` and names each moved entry,
and why, in CHANGES.md.
"""

import contextlib
import csv
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
LOG_RTOL = 1e-9
LOG_FIELDS = ("iteration", "train_loss", "val_auroc", "mu", "sigma")  # wall_time is not pinned
INIT_CONFIGS = {"paper": ModelConfig(),
                "2x24": ModelConfig(num_gat_layers=2, gat_dim=24, fc_dims=(24, 1), dropout_rate=0.1)}


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


def _predict_argv(root: Path, out: str, source: str = "synth.cache") -> list:
    return ["predict", "--input", root / source, "--checkpoint", root / "init.ckpt", "--out", root / out]


def _train_argv(root: Path, out: str) -> list:
    return ["train", "--cache", root / "synth.cache", "--out", root / out, "--iterations", "3", "--checkpoint-every", "3"]


def _scores(pred: Path) -> dict:
    """``"complex_id,protein_id"``: probability, from ``scores.csv``."""
    rows = (line.rsplit(",", 1) for line in (pred / "scores.csv").read_text().splitlines()[1:])
    return {ids: float(p) for ids, p in rows}


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _contents(out: Path, names) -> dict:
    """Each named output file of ``out`` parsed: JSON as its document, CSV
    as rows of cells, a cell that reads as a number as that number."""
    parsed = {}
    for name in names:
        with open(out / name, newline="", encoding="utf-8") as fh:
            parsed[name] = (json.load(fh) if name.endswith(".json")
                            else [[_number_or_text(c) for c in row] for row in csv.reader(fh)])
    return parsed


def _assert_close(got, want, path="") -> None:
    """``got`` equals ``want`` in structure, text and booleans exactly, each
    number within ``SCORE_TOL`` (NaN where NaN is)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}/{k}")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        np.testing.assert_allclose(got, want, rtol=0, atol=SCORE_TOL, err_msg=path)
    else:
        assert got == want, path


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
    entry["scores"] = _scores(pred)
    table["predict synth"] = entry

    poses = root / "poses"
    table["synth poses"] = _entry(
        root, ["synth", "--train", "0", "--test", "0", "--pose-complexes", "4", "--poses-per-complex", "6",
               "--seed", "7", "--out", poses],
        poses / "config.resolved.ini", [poses / "poses.jsonl"])
    pred = root / "pred_jsonl"
    entry = _entry(root, _predict_argv(root, "pred_jsonl", "synth/train.jsonl"), pred / "config.resolved.ini", [])
    entry["scores"] = _scores(pred)
    table["predict synth jsonl"] = entry

    run = root / "train"
    entry = _entry(root, _train_argv(root, "train"), run / "config.resolved.ini", [])
    with open(run / "train_log.csv", newline="", encoding="utf-8") as fh:
        entry["log"] = [{k: float(row[k]) for k in LOG_FIELDS} for row in csv.DictReader(fh)]
    table["train synth"] = entry

    out = root / "eval"
    entry = _entry(root, ["evaluate", "--cache", root / "synth.cache", "--checkpoint", root / "init.ckpt",
                          "--out", out], out / "config.resolved.ini", [])
    entry["contents"] = _contents(out, ("report.json", "report.csv", "roc_curve.csv", "pr_curve.csv"))
    table["evaluate synth"] = entry
    cache = root / "poses.cache"
    table["featurize synth poses"] = _entry(
        root, ["featurize", poses / "poses.jsonl", "--out", cache], root / "poses.cache.config.ini", [cache])
    out = root / "topn"
    entry = _entry(root, ["poses", "--cache", cache, "--checkpoint", root / "init.ckpt", "--out", out,
                          "--top", "1,2,3"], out / "config.resolved.ini", [])
    entry["contents"] = _contents(out, ("topn_success.csv",))
    table["poses synth"] = entry

    for label, config in INIT_CONFIGS.items():
        for seed in (0, 1, 2):
            ckpt = root / f"init_{label}_seed{seed}.ckpt"
            save_params(ckpt, ModelParams.initialize(config, np.random.default_rng(seed)), config)
            table[f"init {label} seed {seed}"] = {"sha256": {ckpt.name: _sha256(ckpt)}}
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
    got_log, want_log = got.pop("log", []), want.pop("log", [])
    got_contents, want_contents = got.pop("contents", {}), want.pop("contents", {})
    assert got == want
    _assert_close(got_contents, want_contents)
    assert list(got_scores) == list(want_scores)
    np.testing.assert_allclose(list(got_scores.values()), list(want_scores.values()), rtol=0, atol=SCORE_TOL)
    assert [list(row) for row in got_log] == [list(row) for row in want_log]
    np.testing.assert_allclose([list(row.values()) for row in got_log], [list(row.values()) for row in want_log],
                               rtol=LOG_RTOL, atol=0)


def test_predict_twice_in_one_process_writes_the_same_bytes(outputs):
    root, _ = outputs
    assert _run(root, _predict_argv(root, "pred_again"))[0] == 0
    for name in ("scores.csv", "score_histogram.csv", "config.resolved.ini"):
        assert (root / "pred_again" / name).read_bytes() == (root / "pred" / name).read_bytes(), name


def test_predict_on_json_lines_gives_the_scores_of_their_cache(outputs):
    root, _ = outputs
    assert (root / "pred_jsonl" / "scores.csv").read_bytes() == (root / "pred" / "scores.csv").read_bytes()


def test_train_twice_in_one_process_writes_the_same_checkpoint(outputs):
    root, _ = outputs
    assert _run(root, _train_argv(root, "train_again"))[0] == 0
    assert (root / "train_again" / "latest.ckpt").read_bytes() == (root / "train" / "latest.ckpt").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(run_commands(Path(tmp)), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
