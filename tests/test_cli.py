import configparser
import dataclasses
import json
import os
import struct
import warnings

import numpy as np
import pytest

from molgat import chem, cli
from molgat.cli import main
from molgat.fileio import write_checked
from molgat.graphs import CACHE_MAGIC, read_cache
from molgat.model import CHECKPOINT_MAGIC, ModelConfig, load_params
from molgat.synthetic import generate_corpus, generate_pose_set
from molgat.training import TrainConfig, TrainResult, train

from test_chem import METHANE_ATOMS, METHANE_BONDS, sdf_text, triglycine_lines

TINY_MODEL_FLAGS = ["--num-gat-layers", "2", "--gat-dim", "8", "--fc-dims", "8,1"]


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
