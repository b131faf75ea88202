import configparser
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import molgat
from molgat import chem, cli, metrics, training
from molgat.cli import main
from molgat.fileio import write_checked
from molgat.graphs import CACHE_MAGIC, read_cache, write_cache
from molgat.model import (CHECKPOINT_MAGIC, ModelConfig, ModelParams, _expected_shapes, load_params,
                          save_params, score)
from molgat.synthetic import generate_corpus, generate_pose_set
from molgat.training import TrainConfig, TrainResult, train

from helpers import pocket_sample
from test_chem import METHANE_ATOMS, METHANE_BONDS, sdf_text, triglycine_lines

TINY_MODEL_FLAGS = ["--num-gat-layers", "2", "--gat-dim", "8", "--fc-dims", "8,1"]

# ``molgat train --help`` at 80 columns; the flags built from ``cli._SETTINGS`` print it unchanged
TRAIN_HELP = """\
usage: molgat train [-h] --cache CACHE [CACHE ...] --out OUT [--config CONFIG]
                    [--screening-only] [--val-fraction VAL_FRACTION]
                    [--num-gat-layers NUM_GAT_LAYERS] [--gat-dim GAT_DIM]
                    [--fc-dims FC_DIMS] [--dropout-rate DROPOUT_RATE]
                    [--batch-size BATCH_SIZE] [--iterations ITERATIONS]
                    [--learning-rate LEARNING_RATE] [--seed SEED]
                    [--checkpoint-every CHECKPOINT_EVERY]

options:
  -h, --help            show this help message and exit
  --cache CACHE [CACHE ...]
  --out OUT
  --config CONFIG       INI config file; flags override its values
  --screening-only      train and validate on the two screening categories
                        only
  --val-fraction VAL_FRACTION
  --num-gat-layers NUM_GAT_LAYERS
  --gat-dim GAT_DIM
  --fc-dims FC_DIMS     comma-separated, last must be 1
  --dropout-rate DROPOUT_RATE
  --batch-size BATCH_SIZE
  --iterations ITERATIONS
  --learning-rate LEARNING_RATE
  --seed SEED
  --checkpoint-every CHECKPOINT_EVERY
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Featurized caches and a trained checkpoint shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    train_jsonl = root / "train.jsonl"
    test_jsonl = root / "test.jsonl"
    poses_jsonl = root / "poses.jsonl"
    chem.write_jsonl(generate_corpus(60, seed=50, id_prefix="tr"), train_jsonl)
    chem.write_jsonl(generate_corpus(24, seed=51, id_prefix="te"), test_jsonl)
    chem.write_jsonl(generate_pose_set(5, 8, seed=52), poses_jsonl)

    assert main(["featurize", str(train_jsonl), "--out", str(root / "train.cache")]) == 0
    assert main(["featurize", str(test_jsonl), "--out", str(root / "test.cache")]) == 0
    assert main(["featurize", str(poses_jsonl), "--out", str(root / "poses.cache")]) == 0

    run_dir = root / "run"
    rc = main(
        ["train", "--cache", str(root / "train.cache"), "--out", str(run_dir),
         "--iterations", "20", "--batch-size", "8", "--learning-rate", "1e-3",
         "--seed", "9", "--checkpoint-every", "10", "--val-fraction", "0.2"]
        + TINY_MODEL_FLAGS
    )
    assert rc == 0
    return root


class TestFeaturize:
    def test_cache_contents_and_summary(self, workspace, capsys):
        rc = main(["featurize", str(workspace / "train.jsonl"), "--out", str(workspace / "again.cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parsed 60 sample(s); 0 rejected" in out
        assert "dude_active:" in out
        samples = read_cache(workspace / "again.cache")
        assert len(samples) == 60

    def test_rerun_is_byte_identical(self, workspace):
        a, b = workspace / "det_a.cache", workspace / "det_b.cache"
        assert main(["featurize", str(workspace / "train.jsonl"), "--out", str(a)]) == 0
        assert main(["featurize", str(workspace / "train.jsonl"), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_record_listed_and_run_continues(self, tmp_path, capsys):
        good = generate_corpus(3, seed=60)
        lines = [chem.record_to_json_line(r) for r in good]
        # a ligand-only record violates the complex contract
        bad = json.loads(lines[0])
        bad["complex_id"] = "broken"
        for atom in bad["atoms"]:
            atom["is_ligand"] = True
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(lines + [json.dumps(bad)]) + "\n")
        rc = main(["featurize", str(path), "--out", str(tmp_path / "mixed.cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parsed 3 sample(s); 1 rejected" in out
        assert "broken" in out

    def test_non_object_line_listed_and_run_continues(self, tmp_path, capsys):
        lines = [chem.record_to_json_line(r) for r in generate_corpus(2, seed=60)]
        path = tmp_path / "array.jsonl"
        path.write_text("\n".join([lines[0], "[1, 2]", lines[1]]) + "\n")
        rc = main(["featurize", str(path), "--out", str(tmp_path / "array.cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parsed 2 sample(s); 1 rejected" in out
        assert f"{path}:2:" in out and "malformed record" in out

    def test_non_utf8_line_listed_and_run_continues(self, tmp_path, capsys):
        lines = [chem.record_to_json_line(r).encode() for r in generate_corpus(2, seed=60)]
        path = tmp_path / "latin.jsonl"
        path.write_bytes(b"\n".join([lines[0], b'\xff\xfe{"a":1}', lines[1]]) + b"\n")
        rc = main(["featurize", str(path), "--out", str(tmp_path / "latin.cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parsed 2 sample(s); 1 rejected" in out
        assert f"{path}:2:" in out and "not valid UTF-8" in out

    def test_only_non_utf8_lines_is_two(self, tmp_path, capsys):
        path = tmp_path / "latin.jsonl"
        path.write_bytes(b'\xff\xfe{"a":1}\n')
        rc = main(["featurize", str(path), "--out", str(tmp_path / "none.cache")])
        out = capsys.readouterr().out
        assert rc == 2
        assert "parsed 0 sample(s); 1 rejected" in out and f"{path}:1:" in out
        assert not (tmp_path / "none.cache").exists()

    @pytest.mark.parametrize("field", ["complex_id", "protein_id"])
    def test_unencodable_identifier_listed_and_run_continues(self, tmp_path, capsys, field):
        lines = [chem.record_to_json_line(r) for r in generate_corpus(2, seed=60)]
        bad = json.loads(lines[0])
        bad[field] = "\udcff"
        path = tmp_path / "ids.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(bad), lines[1]]) + "\n")
        rc = main(["featurize", str(path), "--out", str(tmp_path / "ids.cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parsed 2 sample(s); 1 rejected" in out
        assert f"{path}:2:" in out and "cannot be encoded as UTF-8" in out
        assert len(read_cache(tmp_path / "ids.cache")) == 2

    def test_only_unencodable_identifiers_is_two(self, tmp_path, capsys):
        doc = json.loads(chem.record_to_json_line(generate_corpus(1, seed=60)[0]))
        doc["complex_id"] = "\udcff"
        path = tmp_path / "ids.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        rc = main(["featurize", str(path), "--out", str(tmp_path / "none.cache")])
        out = capsys.readouterr().out
        assert rc == 2
        assert "parsed 0 sample(s); 1 rejected" in out and f"{path}:1:" in out
        assert not (tmp_path / "none.cache").exists()

    def test_ligand_stem_utf8_cannot_encode_is_rejected(self, tmp_path, capsys):
        # the file name holds byte 0xff, which reaches Python as the lone surrogate U+DCFF
        sdf = tmp_path / "lig\udcff.sdf"
        sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        assert os.fsencode(sdf).endswith(b"lig\xff.sdf")
        pdb = tmp_path / "prot.pdb"
        pdb.write_text("\n".join(triglycine_lines()) + "\n")
        rc = main(["featurize", f"{sdf}:{pdb}", "--format", "sdf+pdb", "--out", str(tmp_path / "pair.cache")])
        out = capsys.readouterr().out
        assert rc == 2
        assert "parsed 0 sample(s); 1 rejected" in out and "cannot be encoded as UTF-8" in out
        assert "lig\\udcff.sdf" in out
        assert not (tmp_path / "pair.cache").exists()

        # next to a pair that loads, the run goes on and writes that sample
        good = tmp_path / "lig.sdf"
        good.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        rc = main(["featurize", f"{sdf}:{pdb}", f"{good}:{pdb}", "--format", "sdf+pdb",
                   "--out", str(tmp_path / "pair.cache")])
        assert rc == 0
        assert "parsed 1 sample(s); 1 rejected" in capsys.readouterr().out
        assert [s.complex_id for s in read_cache(tmp_path / "pair.cache")] == ["lig"]

    def test_multi_model_pdb_is_two(self, tmp_path, capsys):
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        model = triglycine_lines()
        pdb = tmp_path / "nmr.pdb"
        pdb.write_text("\n".join(["MODEL        1", *model, "ENDMDL", "MODEL        2", *model, "ENDMDL"]) + "\n")
        rc = main(["featurize", f"{sdf}:{pdb}", "--format", "sdf+pdb", "--out", str(tmp_path / "pair.cache")])
        out = capsys.readouterr().out
        assert rc == 2
        assert "parsed 0 sample(s); 1 rejected" in out and f"{pdb}:15:" in out and "MODEL" in out
        assert not (tmp_path / "pair.cache").exists()

    def test_far_pdb_coordinate_gives_no_warning(self, tmp_path, capsys):
        # an x field reading 1e300: its distances overflow to inf and fail
        # every cutoff, without a numpy warning on stderr
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        lines = triglycine_lines()
        lines[5] = lines[5][:30] + f"{'1e300':>8}" + lines[5][38:]
        pdb = tmp_path / "far.pdb"
        pdb.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["featurize", f"{sdf}:{pdb}", "--format", "sdf+pdb", "--out", str(tmp_path / "pair.cache")])
        assert rc == 0 and capsys.readouterr().err == ""
        assert chem.parse_pdb_protein(pdb)[0][5].degree == 0

    def test_all_failures_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["featurize", str(path), "--out", str(tmp_path / "none.cache")])
        assert rc == 2
        assert not (tmp_path / "none.cache").exists()

    def test_sdf_pdb_input_without_a_colon_is_two(self, tmp_path, capsys):
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        rc = main(["featurize", str(sdf), "--format", "sdf+pdb", "--out", str(tmp_path / "pair.cache")])
        assert rc == 2
        assert (f"rejected: {sdf}: sdf+pdb input must look like LIGAND.sdf:PROTEIN.pdb, got {str(sdf)!r}"
                in capsys.readouterr().out)
        assert not (tmp_path / "pair.cache").exists()

    def test_sdf_pdb_complex_is_validated_once(self, tmp_path, monkeypatch):
        # parse_complex prunes the protein side, then validates the record of
        # the kept atoms; building the sample only reorders it
        calls = []
        real = chem.validate_record
        monkeypatch.setattr(chem, "validate_record",
                            lambda rec: calls.append((rec.complex_id, len(rec.atoms))) or real(rec))
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        pdb = tmp_path / "prot.pdb"
        pdb.write_text("\n".join(triglycine_lines()) + "\n")  # atoms up to 10.2 A out: some are pruned
        rc = main(["featurize", f"{sdf}:{pdb}", "--format", "sdf+pdb", "--out", str(tmp_path / "pair.cache")])
        kept = read_cache(tmp_path / "pair.cache")[0].num_atoms
        assert rc == 0 and kept < 17 and calls == [("lig", kept)]

    @pytest.mark.parametrize("repeated_bond", [False, True])
    def test_sdf_pdb_complex_out_of_range_is_rejected(self, tmp_path, capsys, repeated_bond):
        # the ligand lies 30 A above the triglycine: no protein atom is within
        # the cutoff, and a fault of the ligand is still reported first
        bonds = METHANE_BONDS + [(1, 2, 1)] if repeated_bond else METHANE_BONDS
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text([(x, y, z + 30.0, s) for x, y, z, s in METHANE_ATOMS], bonds))
        pdb = tmp_path / "prot.pdb"
        pdb.write_text("\n".join(triglycine_lines()) + "\n")
        spec = f"{sdf}:{pdb}"
        rc = main(["featurize", spec, "--format", "sdf+pdb", "--cutoff", "12.5", "--out", str(tmp_path / "far.cache")])
        reason = ("bond (0,1) repeats an earlier bond" if repeated_bond
                  else "no protein atoms within 12.5 A of the ligand")
        assert rc == 2
        assert capsys.readouterr().out.splitlines()[-1] == f"  rejected: {spec}: lig: {reason}"
        assert not (tmp_path / "far.cache").exists()

    def test_sdf_pdb_pair(self, tmp_path, capsys):
        sdf = tmp_path / "lig.sdf"
        sdf.write_text(sdf_text(METHANE_ATOMS, METHANE_BONDS))
        pdb = tmp_path / "prot.pdb"
        pdb.write_text("\n".join(triglycine_lines()) + "\n")
        rc = main(
            ["featurize", f"{sdf}:{pdb}", "--format", "sdf+pdb",
             "--category", "dude_inactive", "--out", str(tmp_path / "pair.cache")]
        )
        assert rc == 0
        samples = read_cache(tmp_path / "pair.cache")
        assert len(samples) == 1 and samples[0].label == 0


class TestTrain:
    def test_artifacts_written(self, workspace):
        run = workspace / "run"
        assert (run / "latest.ckpt").exists()
        assert (run / "train_log.csv").exists()
        assert (run / "config.resolved.ini").exists()
        _, config, iteration = load_params(run / "latest.ckpt")
        assert iteration == 20 and config.gat_dim == 8

    def test_missing_category_error_names_pool(self, workspace, tmp_path, capsys):
        screening = [r for r in generate_corpus(40, seed=61) if r.category.startswith("dude")]
        path = tmp_path / "screen.jsonl"
        chem.write_jsonl(screening, path)
        assert main(["featurize", str(path), "--out", str(tmp_path / "screen.cache")]) == 0
        rc = main(
            ["train", "--cache", str(tmp_path / "screen.cache"), "--out", str(tmp_path / "run"),
             "--iterations", "2", "--batch-size", "8"] + TINY_MODEL_FLAGS
        )
        assert rc == 2
        assert "pdbbind" in capsys.readouterr().err

    def test_screening_only_mode(self, workspace, tmp_path, capsys):
        screening = [r for r in generate_corpus(40, seed=61) if r.category.startswith("dude")]
        path = tmp_path / "screen.jsonl"
        chem.write_jsonl(screening, path)
        assert main(["featurize", str(path), "--out", str(tmp_path / "screen.cache")]) == 0
        rc = main(
            ["train", "--cache", str(tmp_path / "screen.cache"), "--out", str(tmp_path / "run"),
             "--iterations", "4", "--batch-size", "8", "--screening-only",
             "--val-fraction", "0"] + TINY_MODEL_FLAGS
        )
        assert rc == 0

    def test_screening_only_validates_only_the_screening_categories(self, workspace, tmp_path, monkeypatch):
        # The cache mixes all four categories; a --screening-only run trains on
        # the dude_* pools only, so it must not pick best.ckpt by pdbbind_* samples.
        seen = {}

        def recording_train(pools, val, model_cfg, train_cfg, out_dir):
            seen.update(pools=set(pools), val={s.category for s in val})
            return train(pools, val, model_cfg, train_cfg, out_dir)

        monkeypatch.setattr(cli, "train", recording_train)
        rc = main(
            ["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
             "--iterations", "2", "--batch-size", "8", "--screening-only",
             "--val-fraction", "0.3", "--checkpoint-every", "2"] + TINY_MODEL_FLAGS
        )
        assert rc == 0
        assert seen["pools"] == {"dude_active", "dude_inactive"}
        assert seen["val"] == {"dude_active", "dude_inactive"}

    def test_non_finite_forward_pass_names_its_iteration(self, workspace, tmp_path, monkeypatch, capsys):
        saved = []

        def save_then_poison(path, params, config, iteration):
            save_params(path, params, config, iteration)
            saved.append(Path(path).read_bytes())
            params.embed.data[0, 0] = np.nan

        monkeypatch.setattr(training, "save_params", save_then_poison)
        out = tmp_path / "run"
        rc = main(["train", "--cache", str(workspace / "train.cache"), "--out", str(out), "--iterations", "5",
                   "--batch-size", "8", "--checkpoint-every", "1", "--val-fraction", "0"] + TINY_MODEL_FLAGS)
        assert rc == 3
        assert capsys.readouterr().err == ("numeric failure: operation produced non-finite values at "
                                           "iteration 2; last checkpoint retained\n")
        assert len(saved) == 1 and (out / "latest.ckpt").read_bytes() == saved[0]
        assert load_params(out / "latest.ckpt")[2] == 1

    def test_help_text(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as err:
            main(["train", "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out == TRAIN_HELP

    def test_flags_are_the_settings_keys(self):
        # one flag per setting, in table order, each parsing its text as the INI key does
        values = {"num_gat_layers": "3", "gat_dim": "7", "fc_dims": "5,1", "dropout_rate": "0.25",
                  "batch_size": "12", "iterations": "9", "learning_rate": "0.002", "seed": "4",
                  "checkpoint_every": "3"}
        argv = ["train", "--cache", "c", "--out", "o"]
        for key, text in values.items():
            argv += [f"--{key.replace('_', '-')}", text]
        args = cli.build_parser().parse_args(argv)
        keys = [key for _, parsers in cli._SETTINGS.values() for key in parsers]
        assert [a.option_strings[0] for a in args.parser._actions][6:] == [
            f"--{key.replace('_', '-')}" for key in keys]
        unset = SimpleNamespace(**dict.fromkeys(keys))
        for section in cli._SETTINGS:
            assert cli._resolved(section, args, {}) == cli._resolved(section, unset, {section: values})

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[model]\nnum_gat_layers = 2\ngat_dim = 8\nfc_dims = 8,1\n"
            "[train]\niterations = 4\nbatch_size = 8\nseed = 3\n"
        )
        rc = main(
            ["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
             "--config", str(ini), "--iterations", "6", "--val-fraction", "0"]
        )
        assert rc == 0
        _, _, iteration = load_params(tmp_path / "run" / "latest.ckpt")
        assert iteration == 6  # flag wins over the file's 4
        echoed = (tmp_path / "run" / "config.resolved.ini").read_text()
        assert "iterations = 6" in echoed and "gat_dim = 8" in echoed

    def test_defaults_echo_dataclass_defaults(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "run"

        def fake_train(pools, val, model_cfg, train_cfg, out_dir):
            return TrainResult(latest_path=str(out / "latest.ckpt"), best_path=None,
                               log_path=str(out / "train_log.csv"), final_loss=0.0)

        monkeypatch.setattr(cli, "train", fake_train)
        assert main(["train", "--cache", str(workspace / "train.cache"), "--out", str(out)]) == 0
        echoed = configparser.ConfigParser()
        echoed.read(out / "config.resolved.ini")
        model = {f.name: f.default for f in dataclasses.fields(ModelConfig)}
        model["fc_dims"] = ",".join(map(str, model["fc_dims"]))
        train = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        assert dict(echoed["model"]) == {k: str(v) for k, v in model.items()}
        assert dict(echoed["train"]) == {k: str(v) for k, v in train.items()}


@pytest.mark.parametrize("command", ["train", "evaluate", "predict", "poses"])
def test_config_echo_escapes_a_path_byte_that_is_not_utf8(workspace, tmp_path, command):
    # the directory name holds byte 0xff, which reaches Python as the lone
    # surrogate U+DCFF; the echo writes it as a backslash escape and keeps
    # the UTF-8 character before it as it is
    odd = tmp_path / "d\u00fc\udcff"
    odd.mkdir()
    for name in ("train.cache", "test.cache", "poses.cache"):
        shutil.copy(workspace / name, odd / name)
    shutil.copy(workspace / "run" / "latest.ckpt", odd / "latest.ckpt")
    out = tmp_path / "out"
    checkpoint = ["--checkpoint", str(odd / "latest.ckpt"), "--out", str(out)]
    argv = {
        "train": ["train", "--cache", str(odd / "train.cache"), "--out", str(out), "--iterations", "1",
                  "--batch-size", "4", "--val-fraction", "0"] + TINY_MODEL_FLAGS,
        "evaluate": ["evaluate", "--cache", str(odd / "test.cache")] + checkpoint,
        "predict": ["predict", "--input", str(odd / "test.cache")] + checkpoint,
        "poses": ["poses", "--cache", str(odd / "poses.cache")] + checkpoint,
    }[command]
    assert main(argv) == 0
    echoed = (out / "config.resolved.ini").read_text(encoding="utf-8")
    assert f"{tmp_path}/d\u00fc\\udcff/" in echoed


def test_featurize_and_train_with_percent_in_their_paths(workspace, tmp_path):
    pct = tmp_path / "pct%d"
    pct.mkdir()
    shutil.copy(workspace / "train.jsonl", pct / "train.jsonl")
    cache = pct / "train.cache"
    assert main(["featurize", str(pct / "train.jsonl"), "--out", str(cache)]) == 0
    echo = configparser.ConfigParser()
    echo.read(f"{cache}.config.ini", encoding="utf-8")
    assert echo["run"]["inputs"] == str(pct / "train.jsonl")
    assert main(["train", "--cache", str(cache), "--out", str(pct / "run"), "--iterations", "1",
                 "--batch-size", "4", "--val-fraction", "0"] + TINY_MODEL_FLAGS) == 0
    echo.read(pct / "run" / "config.resolved.ini", encoding="utf-8")
    assert echo["run"]["cache"] == str(cache)


def test_train_echo_read_back_resolves_the_same_settings(workspace, tmp_path):
    # the echoed cache path holds a percent sign, which the reader must take literally
    pct = tmp_path / "pct%d"
    pct.mkdir()
    shutil.copy(workspace / "train.cache", pct / "train.cache")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["train", "--cache", str(pct / "train.cache"), "--out", str(first),
                 "--iterations", "2", "--batch-size", "4", "--learning-rate", "0.002", "--seed", "5",
                 "--checkpoint-every", "2", "--dropout-rate", "0.1", "--val-fraction", "0"]
                + TINY_MODEL_FLAGS) == 0
    assert main(["train", "--cache", str(pct / "train.cache"), "--out", str(second),
                 "--config", str(first / "config.resolved.ini"), "--val-fraction", "0"]) == 0
    echoes = []
    for run in (first, second):
        echo = configparser.ConfigParser()
        echo.read(run / "config.resolved.ini", encoding="utf-8")
        echoes.append({section: dict(echo[section]) for section in ("model", "train")})
    assert echoes[0] == echoes[1]
    assert echoes[0]["train"]["seed"] == "5" and echoes[0]["model"]["gat_dim"] == "8"
    assert (first / "latest.ckpt").read_bytes() == (second / "latest.ckpt").read_bytes()


def test_every_echo_records_the_parsed_arguments(workspace, tmp_path):
    # [run] holds each parsed argument in flag order, less --out and train's
    # --config and settings; train's [model] and [train] hold the settings
    out = tmp_path / "out"
    checkpoint = ["--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out)]
    argv = {
        "featurize": ["featurize", str(workspace / "test.jsonl"), "--out", str(tmp_path / "test.cache")],
        "train": ["train", "--cache", str(workspace / "train.cache"), "--out", str(out), "--iterations", "1",
                  "--batch-size", "4", "--val-fraction", "0"] + TINY_MODEL_FLAGS,
        "evaluate": ["evaluate", "--cache", str(workspace / "test.cache")] + checkpoint,
        "predict": ["predict", "--input", str(workspace / "test.cache")] + checkpoint,
        "poses": ["poses", "--cache", str(workspace / "poses.cache")] + checkpoint,
        "synth": ["synth", "--train", "2", "--test", "2", "--out", str(out)],
    }
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(argv) == sorted(commands)
    settings = {section: list(parsers) for section, (_, parsers) in cli._SETTINGS.items()}
    for command, parser in commands.items():
        shutil.rmtree(out, ignore_errors=True)
        assert main(argv[command]) == 0
        echo = configparser.ConfigParser()
        echo.read(f"{tmp_path / 'test.cache'}.config.ini" if command == "featurize"
                  else out / "config.resolved.ini", encoding="utf-8")
        configs = settings if command == "train" else {}
        skipped = {"help", "out", "config"}.union(*configs.values())
        assert list(echo["run"]) == [a.dest for a in parser._actions if a.dest not in skipped], command
        assert {section: list(echo[section]) for section in echo.sections() if section != "run"} == configs


class TestEvaluate:
    def test_report_files(self, workspace, capsys):
        out = workspace / "eval"
        rc = main(
            ["evaluate", "--cache", str(workspace / "test.cache"),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "aggregate" in report and "per_protein" in report
        assert report["aggregate"]["n_proteins"] >= 1
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[-1].startswith("AGGREGATE")
        assert (out / "roc_curve.csv").exists() and (out / "pr_curve.csv").exists()

    def test_scoring_deterministic_across_runs(self, workspace):
        out1, out2 = workspace / "eval_d1", workspace / "eval_d2"
        for out in (out1, out2):
            rc = main(
                ["evaluate", "--cache", str(workspace / "test.cache"),
                 "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out)]
            )
            assert rc == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_metric_selection(self, workspace):
        out = workspace / "eval_sel"
        rc = main(
            ["evaluate", "--cache", str(workspace / "test.cache"),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"),
             "--out", str(out), "--metrics", "auroc"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "auroc" in report["aggregate"]
        assert "prauc" not in report["aggregate"]

    @pytest.mark.parametrize("flag,echoed", [([], "auroc,adjusted_logauc,prauc,re"),
                                             (["--metrics", "prauc,auroc"], "auroc,prauc")])
    def test_metrics_in_effect_are_echoed(self, workspace, tmp_path, flag, echoed):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--cache", str(workspace / "test.cache"),
                   "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out)] + flag)
        assert rc == 0
        resolved = configparser.ConfigParser()
        resolved.read(out / "config.resolved.ini", encoding="utf-8")
        assert resolved["run"]["metrics"] == echoed

    def test_metrics_selection_through_a_positional_wrapper(self, workspace, tmp_path, monkeypatch):
        # a wrapper that passes on only positional arguments, as a benchmark hook does
        seen = []

        def wrapped(fn):
            def evaluate_scored(items, *args):
                seen.append(args)
                return fn(items, *args)
            return evaluate_scored

        monkeypatch.setattr(metrics, "evaluate_scored", wrapped(metrics.evaluate_scored))
        out = tmp_path / "eval"
        rc = main(["evaluate", "--cache", str(workspace / "test.cache"),
                   "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out),
                   "--metrics", "auroc"])
        assert rc == 0
        assert seen == [(["auroc"],)]
        report = json.loads((out / "report.json").read_text())
        assert set(report["aggregate"]) == {"n_proteins", "n_skipped", "auroc"}

    def test_checkpoint_config_mismatch(self, workspace, tmp_path, capsys):
        blob = bytearray((workspace / "run" / "latest.ckpt").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        rc = main(
            ["evaluate", "--cache", str(workspace / "test.cache"),
             "--checkpoint", str(bad), "--out", str(tmp_path / "eval")]
        )
        assert rc == 2

    def test_checkpoint_of_another_input_width_is_two(self, workspace, tmp_path, capsys):
        # CRC-valid and consistent in itself: the embedding takes 40 features
        config = ModelConfig(num_gat_layers=1, gat_dim=8, fc_dims=(8, 1))
        shapes = [(40, 8)] + _expected_shapes(config)[1:]
        body = struct.pack("<IIIId", 1, 1, 8, 40, 0.3) + struct.pack("<III", 2, 8, 1)
        body += struct.pack("<QI", 0, len(shapes))
        for rows, cols in shapes:
            body += struct.pack("<II", rows, cols) + np.zeros(rows * cols, "<f8").tobytes()
        ckpt = tmp_path / "narrow.ckpt"
        write_checked(ckpt, CHECKPOINT_MAGIC, body)
        rc = main(["evaluate", "--cache", str(workspace / "test.cache"), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert f"{ckpt}: invalid stored config (input_dim must be 56, got 40)" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_v1_cache_is_two(self, workspace, tmp_path, capsys):
        v1 = tmp_path / "v1.cache"
        write_checked(v1, CACHE_MAGIC, struct.pack("<IQ", 1, 0))
        rc = main(
            ["evaluate", "--cache", str(v1),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(tmp_path / "eval")]
        )
        assert rc == 2
        assert "unsupported cache version 1" in capsys.readouterr().err


class TestPredict:
    def test_scores_and_histogram(self, workspace, capsys):
        out = workspace / "pred"
        rc = main(
            ["predict", "--input", str(workspace / "test.cache"),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out)]
        )
        assert rc == 0
        score_lines = (out / "scores.csv").read_text().splitlines()
        assert score_lines[0] == "complex_id,protein_id,probability"
        n_scored = len(score_lines) - 1
        hist_lines = (out / "score_histogram.csv").read_text().splitlines()[1:]
        assert len(hist_lines) == 50
        assert sum(int(line.split(",")[2]) for line in hist_lines) == n_scored
        for line in score_lines[1:]:
            assert 0.0 < float(line.split(",")[2]) < 1.0

    def test_files_equal_the_per_sample_loop(self, workspace):
        # the files as written when predict scored each sample itself and
        # binned the scores read back from the text it had written
        out = workspace / "pred-loop"
        checkpoint = workspace / "run" / "latest.ckpt"
        rc = main(["predict", "--input", str(workspace / "test.cache"), "--checkpoint", str(checkpoint),
                   "--out", str(out)])
        assert rc == 0
        params, config, _ = load_params(checkpoint)
        rows = [(s.complex_id, s.protein_id, repr(score(s, params, config)))
                for s in read_cache(workspace / "test.cache")]
        counts, edges = np.histogram(np.array([float(r[2]) for r in rows]), bins=50, range=(0.0, 1.0))
        bins = [(repr(float(edges[i])), repr(float(edges[i + 1])), int(counts[i])) for i in range(50)]
        assert (out / "scores.csv").read_text() == "".join(
            ",".join(map(str, row)) + "\n" for row in [("complex_id", "protein_id", "probability")] + rows)
        assert (out / "score_histogram.csv").read_text() == "".join(
            ",".join(map(str, row)) + "\n" for row in [("bin_low", "bin_high", "count")] + bins)
        assert len(rows) == 24 and sum(counts) == 24

    def test_non_object_jsonl_line_is_two(self, workspace, tmp_path, capsys):
        path = tmp_path / "array.jsonl"
        path.write_text("[1, 2]\n")
        rc = main(
            ["predict", "--input", str(path),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(tmp_path / "pred")]
        )
        assert rc == 2
        assert "malformed record" in capsys.readouterr().err

    def test_non_utf8_jsonl_line_is_two(self, workspace, tmp_path, capsys):
        path = tmp_path / "latin.jsonl"
        path.write_bytes(b'\xff\xfe{"a":1}\n')
        rc = main(
            ["predict", "--input", str(path),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(tmp_path / "pred")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:1:" in err and "not valid UTF-8" in err

    def test_unencodable_identifier_is_two(self, workspace, tmp_path, capsys):
        doc = json.loads(chem.record_to_json_line(generate_corpus(1, seed=53)[0]))
        doc["protein_id"] = "\udcff"
        path = tmp_path / "ids.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        rc = main(
            ["predict", "--input", str(path),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(tmp_path / "pred")]
        )
        assert rc == 2
        assert "cannot be encoded as UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "pred" / "scores.csv").exists()

    def test_csv_fields_are_quoted(self, workspace, tmp_path):
        import csv

        rec = dataclasses.replace(generate_corpus(1, seed=53)[0], complex_id='a,b"c')
        path = tmp_path / "odd.jsonl"
        chem.write_jsonl([rec], path)
        out = tmp_path / "pred"
        rc = main(["predict", "--input", str(path),
                   "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out)])
        assert rc == 0
        with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["complex_id", "protein_id", "probability"]
        assert len(rows) == 2 and rows[1][:2] == ['a,b"c', rec.protein_id] and len(rows[1]) == 3

    def test_jsonl_input_accepted(self, workspace, tmp_path):
        rc = main(
            ["predict", "--input", str(workspace / "test.jsonl"),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"),
             "--out", str(tmp_path / "pred")]
        )
        assert rc == 0

    def test_predict_twice_identical(self, workspace):
        out1, out2 = workspace / "pred_d1", workspace / "pred_d2"
        for out in (out1, out2):
            assert main(
                ["predict", "--input", str(workspace / "test.cache"),
                 "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(out)]
            ) == 0
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()


class TestPoses:
    def test_topn_table(self, workspace, capsys):
        out = workspace / "poses_out"
        rc = main(
            ["poses", "--cache", str(workspace / "poses.cache"),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"),
             "--out", str(out), "--top", "1,3,5"]
        )
        assert rc == 0
        lines = (out / "topn_success.csv").read_text().splitlines()
        assert lines[0] == "n,success_pct"
        assert len(lines) == 4
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)  # success never drops as n grows

    def test_missing_rmsd_rejected(self, workspace, capsys):
        rc = main(
            ["poses", "--cache", str(workspace / "test.cache"),
             "--checkpoint", str(workspace / "run" / "latest.ckpt"),
             "--out", str(workspace / "poses_bad")]
        )
        assert rc == 2
        assert "rmsd" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_corpora(self, tmp_path):
        rc = main(
            ["synth", "--train", "6", "--test", "4", "--pose-complexes", "2",
             "--poses-per-complex", "4", "--seed", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert len(chem.read_jsonl(tmp_path / "train.jsonl")) == 6
        assert len(chem.read_jsonl(tmp_path / "test.jsonl")) == 4
        assert (tmp_path / "poses.jsonl").exists()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train"])  # missing required flags
        assert err.value.code == 1

    def test_unknown_command_is_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "flags",
        [["--fc-dims", "3,2"], ["--fc-dims", "0,1"], ["--fc-dims", "a,1"],
         ["--gat-dim", "0"], ["--num-gat-layers", "-1"], ["--batch-size", "0"],
         ["--batch-size", "30"], ["--val-fraction", "nan"], ["--val-fraction", "inf"],
         ["--val-fraction", "2"], ["--val-fraction", "1"], ["--val-fraction", "-0.1"],
         ["--learning-rate", "nan"], ["--learning-rate", "inf"], ["--learning-rate", "0"]],
    )
    def test_invalid_train_values_are_one(self, workspace, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as err:
            main(
                ["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run")]
                + flags
            )
        assert err.value.code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_one(self, workspace, tmp_path, capsys, source):
        # with --val-fraction 0 the run would get as far as writing its config
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nseed = -1\n")
        extra = ["--seed", "-1"] if source == "flag" else ["--config", str(ini)]
        with pytest.raises(SystemExit) as err:
            main(["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
                  "--val-fraction", "0"] + extra)
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage:") and "seed must be non-negative, got -1" in err_text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_usage_error_prints_the_subcommand_usage(self, workspace, tmp_path, capsys, command):
        flags = {"synth": ["--seed", "-5"],
                 "train": ["--cache", str(workspace / "train.cache"), "--seed", "-1"]}[command]
        with pytest.raises(SystemExit) as err:
            main([command, "--out", str(tmp_path / "out")] + flags)
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith(f"usage: molgat {command} ")

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "-5"], ["--train", "-3"], ["--test", "-1"], ["--pose-complexes", "-2"],
         ["--pose-complexes", "1", "--poses-per-complex", "-1"]],
    )
    def test_negative_synth_values_are_one(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--train", "2", "--test", "2", "--out", str(tmp_path / "corpus")] + flags)
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage:") and f"{flags[-2]} must be non-negative" in err_text
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_in_config_file_is_one(self, workspace, tmp_path, capsys, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[train]\nlearning_rate = {value}\n")
        with pytest.raises(SystemExit) as err:
            main(["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
                  "--config", str(ini)])
        assert err.value.code == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "text",
        [b"learning_rate = 1e-3\n", b"[model]\ngat_dim = 8\ngat_dim = 9\n",
         b"[train]\nseed = 1\n[train]\n", b"[train]\nseed = 1%\n", b"[train]\nseed = \xff\n"],
    )
    def test_malformed_config_file_is_two(self, workspace, tmp_path, capsys, text):
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        rc = main(["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
                   "--config", str(ini)])
        assert rc == 2
        assert str(ini) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[model]\ngat_dims = 8\n", "[model] has no setting 'gat_dims'"),
            ("[train]\nlearning-rate = 5\n", "[train] has no setting 'learning-rate'"),
            ("[trian]\nseed = 1\n", "unknown section [trian]"),
            ("[DEFAULT]\ngat_dim = 8\n", "unknown section [DEFAULT]"),
            # an echo written while the model config still held its input width
            ("[model]\ngat_dim = 8\ninput_dim = 56\n", "[model] has no setting 'input_dim'"),
        ],
    )
    def test_unknown_config_section_or_key_is_one(self, workspace, tmp_path, capsys, text, named):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
                  "--config", str(ini), "--iterations", "1", "--batch-size", "4", "--val-fraction", "0"]
                 + TINY_MODEL_FLAGS)
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage: molgat train ") and f"config file {ini}: {named}" in err_text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[model]\ngat_dim = x\n", "[model] gat_dim: invalid literal for int() with base 10: 'x'"),
            ("[train]\nlearning_rate = fast\n", "[train] learning_rate: could not convert string to float: 'fast'"),
            ("[model]\nfc_dims = a,1\n", "[model] fc_dims: takes a comma list of integers, got 'a,1'"),
        ],
    )
    def test_config_value_that_does_not_parse_is_one(self, workspace, tmp_path, capsys, text, named):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
                  "--config", str(ini), "--iterations", "1", "--batch-size", "4", "--val-fraction", "0"])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage: molgat train ") and f"config file {ini}: {named}" in err_text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, flag, text", [("train", "--fc-dims", "a,1"), ("poses", "--top", "1,x")])
    def test_list_flag_that_does_not_parse_is_one(self, workspace, tmp_path, capsys, command, flag, text):
        argv = {"train": ["train", "--cache", str(workspace / "train.cache")],
                "poses": ["poses", "--cache", str(workspace / "poses.cache"),
                          "--checkpoint", str(workspace / "run" / "latest.ckpt")]}[command]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "out"), flag, text])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert f"argument {flag}: takes a comma list of integers, got {text!r}" in err_text
        assert "_int_list" not in err_text
        assert not (tmp_path / "out").exists()

    def test_config_run_section_is_read_but_sets_nothing(self, workspace, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\ncache = elsewhere\nval_fraction = 0.5\nnot_a_flag = 1\n[train]\niterations = 1\n")
        out = tmp_path / "run"
        assert main(["train", "--cache", str(workspace / "train.cache"), "--out", str(out), "--config", str(ini),
                     "--batch-size", "4", "--val-fraction", "0"] + TINY_MODEL_FLAGS) == 0
        echo = configparser.ConfigParser()
        echo.read(out / "config.resolved.ini", encoding="utf-8")
        assert dict(echo["run"]) == {"cache": str(workspace / "train.cache"), "screening_only": "False",
                                     "val_fraction": "0.0"}

    @pytest.mark.parametrize("name, cause", [("folder", "Is a directory"), ("missing.ini", "No such file")])
    def test_config_path_that_cannot_be_opened_is_two(self, workspace, tmp_path, capsys, name, cause):
        (tmp_path / "folder").mkdir()
        rc = main(["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / "run"),
                   "--config", str(tmp_path / name)])
        assert rc == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error: ") and cause in err_text and str(tmp_path / name) in err_text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_cache_without_a_labeled_sample_is_two(self, workspace, tmp_path, capsys, command):
        cache = tmp_path / "unlabeled.cache"
        write_cache([dataclasses.replace(s, category="unlabeled", label=None)
                     for s in read_cache(workspace / "test.cache")], cache)
        argv = ["--cache", str(cache), "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--checkpoint", str(workspace / "run" / "latest.ckpt")]
        assert main([command] + argv) == 2
        assert "no labeled samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["jsonl", "cache"])
    def test_empty_predict_input_is_two(self, workspace, tmp_path, capsys, kind):
        path = tmp_path / f"empty.{kind}"
        if kind == "jsonl":
            path.write_text("")
        else:
            write_cache([], path)
        rc = main(["predict", "--input", str(path), "--checkpoint", str(workspace / "run" / "latest.ckpt"),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        assert capsys.readouterr().err == "error: no samples to score\n"
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("cutoff", ["nan", "-1", "0"])
    def test_invalid_cutoff_is_one(self, workspace, tmp_path, capsys, cutoff):
        with pytest.raises(SystemExit) as err:
            main(["featurize", str(workspace / "test.jsonl"), "--out", str(tmp_path / "out.cache"),
                  "--cutoff", cutoff])
        assert err.value.code == 1
        assert "--cutoff" in capsys.readouterr().err
        assert not (tmp_path / "out.cache").exists()

    @pytest.mark.parametrize("top", ["0", "-1", "1,0"])
    def test_non_positive_top_is_one(self, workspace, tmp_path, capsys, top):
        with pytest.raises(SystemExit) as err:
            main(
                ["poses", "--cache", str(workspace / "poses.cache"),
                 "--checkpoint", str(workspace / "run" / "latest.ckpt"),
                 "--out", str(tmp_path / "poses"), "--top", top]
            )
        assert err.value.code == 1
        assert "--top" in capsys.readouterr().err
        assert not (tmp_path / "poses").exists()

    @pytest.mark.parametrize("names", ["bogus", "auroc,bogus", "re_1pct", ""])
    def test_unknown_metric_is_one(self, workspace, tmp_path, capsys, names):
        with pytest.raises(SystemExit) as err:
            main(
                ["evaluate", "--cache", str(workspace / "test.cache"),
                 "--checkpoint", str(workspace / "run" / "latest.ckpt"),
                 "--out", str(tmp_path / "eval"), "--metrics", names]
            )
        assert err.value.code == 1
        assert "--metrics" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_non_integer_top_is_one(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(
                ["poses", "--cache", str(workspace / "poses.cache"),
                 "--checkpoint", str(workspace / "run" / "latest.ckpt"),
                 "--out", str(tmp_path / "poses"), "--top", "a"]
            )
        assert err.value.code == 1
        assert "--top" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["evaluate_cache_dir", "evaluate_checkpoint_dir", "train_cache_dir",
                                      "predict_input_dir", "evaluate_out_file", "featurize_out_dir"])
    def test_unreadable_or_unwritable_path_is_two(self, workspace, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        (tmp_path / "file").write_text("")
        ckpt = str(workspace / "run" / "latest.ckpt")
        test_cache = str(workspace / "test.cache")
        argv = {
            "evaluate_cache_dir": ["evaluate", "--cache", str(folder), "--checkpoint", ckpt,
                                   "--out", str(tmp_path / "o")],
            "evaluate_checkpoint_dir": ["evaluate", "--cache", test_cache, "--checkpoint", str(folder),
                                        "--out", str(tmp_path / "o")],
            "train_cache_dir": ["train", "--cache", str(folder), "--out", str(tmp_path / "o")],
            "predict_input_dir": ["predict", "--input", str(folder), "--checkpoint", ckpt,
                                  "--out", str(tmp_path / "o")],
            "evaluate_out_file": ["evaluate", "--cache", test_cache, "--checkpoint", ckpt,
                                  "--out", str(tmp_path / "file")],
            "featurize_out_dir": ["featurize", str(workspace / "test.jsonl"), "--out", str(folder)],
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "folder"]
        assert list(folder.iterdir()) == []

    def test_data_error_is_two(self, tmp_path, capsys):
        rc = main(
            ["predict", "--input", str(tmp_path / "missing.cache"),
             "--checkpoint", str(tmp_path / "missing.ckpt"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "layers, fc_dims, dropout",
        [(0, (8, 1), 0.3), (2, (), 0.3), (2, (8, 2), 0.3), (2, (8, 1), float("nan"))],
    )
    def test_invalid_stored_config_is_two(self, workspace, tmp_path, capsys, layers, fc_dims, dropout):
        # a checkpoint whose checksum is valid but whose stored config is not
        body = struct.pack("<IIII", 1, layers, 8, 56) + struct.pack("<d", dropout)
        body += struct.pack(f"<I{len(fc_dims)}I", len(fc_dims), *fc_dims) + struct.pack("<QI", 0, 0)
        ckpt = tmp_path / "bad.ckpt"
        write_checked(ckpt, CHECKPOINT_MAGIC, body)
        rc = main(
            ["predict", "--input", str(workspace / "test.cache"), "--checkpoint", str(ckpt),
             "--out", str(tmp_path / "pred")]
        )
        assert rc == 2
        assert f"{ckpt}: invalid stored config" in capsys.readouterr().err


# molgat's command line, then the process's peak resident set in KiB. Not
# ru_maxrss: Linux carries that across fork and exec, so it would report the
# test process's own peak whenever that is the larger.
PEAK_RSS_CHILD = ("import sys; from molgat.cli import main; rc = main(sys.argv[1:]); "
                  "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); sys.exit(rc)")


def run_child(argv, threads, peak_rss=False) -> str:
    """``molgat`` in a child process whose BLAS runs ``threads`` threads; its
    standard output, which ends with its peak RSS if ``peak_rss``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONPATH=os.path.dirname(os.path.dirname(molgat.__file__)))
    command = ["-c", PEAK_RSS_CHILD] if peak_rss else ["-m", "molgat.cli"]
    done = subprocess.run([sys.executable, *command, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestReproducibility:
    """Runs are bit-reproducible for a fixed seed, numpy/BLAS build and BLAS
    thread count; scoring does not depend on the thread count either."""

    def test_evaluate_reports_equal_at_one_and_two_threads(self, tmp_path):
        samples = [dataclasses.replace(pocket_sample(n, seed=60 + k), complex_id=f"c{k}", protein_id=f"p{k // 2}",
                                       category=("dude_active", "dude_inactive")[k % 2], label=1 - k % 2)
                   for k, n in enumerate([300, 600, 300, 600])]
        write_cache(samples, tmp_path / "pockets.cache")
        save_params(tmp_path / "paper.ckpt", ModelParams.initialize(ModelConfig(), np.random.default_rng(61)),
                    ModelConfig())
        for threads in (1, 2):
            run_child(["evaluate", "--cache", str(tmp_path / "pockets.cache"), "--checkpoint",
                       str(tmp_path / "paper.ckpt"), "--out", str(tmp_path / f"eval{threads}")], threads)
        for name in ("report.json", "report.csv", "roc_curve.csv", "pr_curve.csv"):
            assert (tmp_path / "eval1" / name).read_bytes() == (tmp_path / "eval2" / name).read_bytes(), name

    def test_train_checkpoints_equal_in_two_runs_at_one_thread_count(self, workspace, tmp_path):
        for run in ("a", "b"):
            run_child(["train", "--cache", str(workspace / "train.cache"), "--out", str(tmp_path / run),
                       "--iterations", "3", "--batch-size", "8", "--checkpoint-every", "3", "--seed", "5",
                       "--val-fraction", "0.2"], threads=2)
        for name in ("latest.ckpt", "best.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def counted_scores(monkeypatch) -> list[str]:
    """The complex ids ``cli.score`` is called on, in order, from now on."""
    calls = []

    def counted(sample, *args):
        calls.append(sample.complex_id)
        return score(sample, *args)

    monkeypatch.setattr(cli, "score", counted)
    return calls


def with_bad_last_sample(path, out) -> int:
    """Copy the cache at ``path`` to ``out`` with the first byte of its last
    sample's complex_id made one that is not UTF-8 and the checksum recomputed;
    return the sample count."""
    samples = read_cache(path)
    raw = samples[-1].complex_id.encode("utf-8")
    body = bytearray(path.read_bytes()[len(CACHE_MAGIC):-4])
    body[body.rindex(struct.pack("<I", len(raw)) + raw) + 4] = 0xFF
    write_checked(out, CACHE_MAGIC, bytes(body))
    return len(samples)


SCORING_INPUTS = {"evaluate": ("--cache", "test.cache"), "predict": ("--input", "test.cache"),
                  "poses": ("--cache", "poses.cache")}


class TestStreaming:
    """Scoring commands decode one sample at a time and keep only its score,
    yet a fault anywhere in a cache still exits 2 before any output exists."""

    @pytest.mark.parametrize("command", ["evaluate", "poses"])
    @pytest.mark.parametrize("fault, message", [("checksum", "graph cache checksum mismatch"),
                                                ("magic", "not a graph cache file"),
                                                ("version", "unsupported cache version 1")])
    def test_bad_second_cache_is_two_before_any_score(self, workspace, tmp_path, capsys, monkeypatch,
                                                      command, fault, message):
        good = workspace / SCORING_INPUTS[command][1]
        bad = tmp_path / "bad.cache"
        if fault == "version":
            write_checked(bad, CACHE_MAGIC, struct.pack("<IQ", 1, 0))
        else:
            blob = bytearray(good.read_bytes())
            blob[0 if fault == "magic" else len(blob) // 2] ^= 0xFF
            bad.write_bytes(bytes(blob))
        calls = counted_scores(monkeypatch)
        rc = main([command, "--cache", str(good), str(bad), "--checkpoint", str(workspace / "run" / "latest.ckpt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict", "poses"])
    def test_bad_last_sample_is_two_and_writes_nothing(self, workspace, tmp_path, capsys, command):
        flag, name = SCORING_INPUTS[command]
        bad = tmp_path / "bad.cache"
        count = with_bad_last_sample(workspace / name, bad)
        rc = main([command, flag, str(bad), "--checkpoint", str(workspace / "run" / "latest.ckpt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: graph cache sample {count - 1}: complex_id is not UTF-8\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, message", [("evaluate", "no labeled samples to evaluate"),
                                                  ("predict", "no samples to score"),
                                                  ("poses", "no poses given")])
    def test_empty_cache_is_two_and_writes_nothing(self, workspace, tmp_path, capsys, command, message):
        empty = tmp_path / "empty.cache"
        write_cache([], empty)
        rc = main([command, SCORING_INPUTS[command][0], str(empty),
                   "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict", "poses"])
    def test_each_sample_is_scored_once_in_cache_order(self, workspace, tmp_path, monkeypatch, command):
        flag, name = SCORING_INPUTS[command]
        calls = counted_scores(monkeypatch)
        assert main([command, flag, str(workspace / name), "--checkpoint", str(workspace / "run" / "latest.ckpt"),
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == [s.complex_id for s in read_cache(workspace / name)
                         if command != "evaluate" or s.label is not None]

    def test_predict_scores_each_jsonl_record_before_parsing_the_next(self, workspace, tmp_path, monkeypatch):
        events = []
        parse = chem.record_from_json_line

        def parsed(*args, **kwargs):
            events.append("parse")
            return parse(*args, **kwargs)

        monkeypatch.setattr(chem, "record_from_json_line", parsed)
        monkeypatch.setattr(cli, "score", lambda *args: events.append("score") or score(*args))
        assert main(["predict", "--input", str(workspace / "test.jsonl"),
                     "--checkpoint", str(workspace / "run" / "latest.ckpt"), "--out", str(tmp_path / "pred")]) == 0
        assert events == ["parse", "score"] * 24

    def test_evaluate_peak_memory_does_not_grow_with_the_cache(self, tmp_path):
        pockets = [dataclasses.replace(pocket_sample(n, seed=70 + k), complex_id=f"c{k}", protein_id=f"p{k // 4}",
                                       category=("dude_active", "dude_inactive")[k % 2], label=1 - k % 2)
                   for k, n in enumerate([300, 600] * 12)]
        write_cache(pockets, tmp_path / "x1.cache")
        write_cache(pockets * 16, tmp_path / "x16.cache")
        config = ModelConfig(num_gat_layers=2, gat_dim=16, fc_dims=(16, 1))
        save_params(tmp_path / "m.ckpt", ModelParams.initialize(config, np.random.default_rng(71)), config)
        peak = {}
        for name in ("x1", "x16"):
            out = run_child(["evaluate", "--cache", str(tmp_path / f"{name}.cache"), "--checkpoint",
                             str(tmp_path / "m.ckpt"), "--out", str(tmp_path / name)], threads=1, peak_rss=True)
            peak[name] = int(out.split()[-1]) / 1024
        assert peak["x16"] - peak["x1"] < 4.0, peak
