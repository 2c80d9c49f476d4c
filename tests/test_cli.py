"""Command line interface: subcommands, manifests, exit codes."""

import base64
import dataclasses
import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slukit
from slukit import cli, corpus, homogenize, metrics, significance, tagger
from slukit.errors import StructuralError
from slukit.tagger import load_model

from support import make_dataset, package_env

CLEAN = (
    "# id: u1\n"
    "# text: wake me at eight\n"
    "# intent: alarm/set\n"
    "1\twake\tO\n"
    "2\tme\tO\n"
    "3\tat\tB-datetime\n"
    "4\teight\tI-datetime\n"
)

DIRTY = (
    "# id: d1\n"
    "# text: a b\n"
    "# intent: none\n"
    "1\ta\tO\n"
    "2\tb\tI-loc\n"
)

ALIGN = json.dumps({
    "id": "u1",
    "src_tokens": ["wake", "me", "at", "eight"],
    "tgt_tokens": ["weck", "mich", "um", "acht"],
    "scores": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.5, 0.5]],
}) + "\n"

SCORES_CSV = (
    "system,language,metric,seed,value\n"
    + "".join(f"base,de,f1,{k},{0.50 + 0.01 * k}\n" for k in range(5))
    + "".join(f"aux,de,f1,{k},{0.70 + 0.01 * k}\n" for k in range(5))
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _manifest(path):
    return json.loads(path.read_text())


def _disk_full():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _never_called(*args, **kwargs):
    raise AssertionError("computed before the output paths were checked")


class TestValidate:
    def test_clean_file(self, workdir, capsys):
        (workdir / "data.txt").write_text(CLEAN)
        assert cli.run(["validate", "--in", "data.txt"]) == 0
        out = capsys.readouterr().out
        assert out == "issues\t0\n"
        manifest = _manifest(workdir / "validate.manifest.json")
        assert manifest["command"] == "validate"
        assert "data.txt" in manifest["inputs"]

    def test_dirty_file_lists_issues(self, workdir, capsys):
        (workdir / "data.txt").write_text(DIRTY)
        assert cli.run(["validate", "--in", "data.txt"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["d1\t1\tOrphanI", "issues\t1"]

    def test_missing_file(self, workdir, capsys):
        assert cli.run(["validate", "--in", "nope.txt"]) == 1
        assert "error: cannot read nope.txt" in capsys.readouterr().err

    def test_malformed_tag_names_path_and_utterance(self, workdir, capsys):
        (workdir / "bad.conll").write_text(CLEAN.replace("3\tat\tB-datetime", "3\tat\tB-"))
        assert cli.run(["validate", "--in", "bad.conll"]) == 1
        assert capsys.readouterr().err == (
            "error: bad.conll: utterance 'u1': malformed tag 'B-' at position 2\n"
        )

    def test_usage_error_exit_code(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.run(["validate"])
        assert exc.value.code == 2

    def test_unknown_command(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate"])
        assert exc.value.code == 2


class TestParserOncePerProcess:
    """``build_parser`` builds one parser per process; each ``run`` still starts clean."""

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_runs_share_no_namespace_state(self, workdir, capsys):
        (workdir / "scores.csv").write_text(SCORES_CSV)
        assert cli.run(SIGNIFICANCE + ["--boot", "7", "--out", "sig.txt"]) == 0
        assert cli.run(["validate", "--in", "scores.csv"]) == 1  # not a dataset
        assert cli.run(["schedule", "--names", "a,b", "--sizes", "3,1", "--batches", "4",
                        "--seed", "2", "--out", "s.json"]) == 0
        assert cli.run(SIGNIFICANCE + ["--out", "sig2.txt"]) == 0
        assert _manifest(workdir / "s.json.manifest.json")["config"] == {
            "names": "a,b", "sizes": "3,1", "batches": 4, "alpha": 0.5, "seed": 2,
            "out": "s.json",
        }
        config = _manifest(workdir / "sig2.txt.manifest.json")["config"]
        assert config["boot"] == 1000 and config["out"] == "sig2.txt"
        assert config["json"] is None and "names" not in config

    def test_version_and_usage_error_as_before(self, workdir, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.run(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"slukit {slukit.__version__}\n"
            with pytest.raises(SystemExit) as exc:
                cli.run(["significance", "--scores", "s.csv"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: slukit significance")
            assert "the following arguments are required: --baseline, --seed" in err


class TestEvaluate:
    def test_report_and_artifacts(self, workdir, capsys):
        (workdir / "gold.txt").write_text(CLEAN)
        (workdir / "pred.txt").write_text(CLEAN)
        code = cli.run([
            "evaluate", "--gold", "gold.txt", "--pred", "pred.txt",
            "--out", "report.txt", "--json", "report.json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "strict_f1\t1.0000" in out
        assert (workdir / "report.txt").read_text() == out
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["micro"]["strict"]["f1"] == 1.0
        manifest = _manifest(workdir / "report.txt.manifest.json")
        assert set(manifest["inputs"]) == {"gold.txt", "pred.txt"}
        assert manifest["config"]["gold"] == "gold.txt"

    def test_pred_ids_must_match_gold(self, workdir, capsys):
        # equal tokens and tags, so only the ids tell that the files differ
        (workdir / "gold.txt").write_text(CLEAN)
        (workdir / "pred.txt").write_text(CLEAN.replace("# id: u1", "# id: zz"))
        listing = sorted(os.listdir(workdir))
        assert cli.run(["evaluate", "--gold", "gold.txt", "--pred", "pred.txt",
                        "--json", "report.json"]) == 1
        assert capsys.readouterr().err == "error: utterance 0: gold id 'u1', pred id 'zz'\n"
        assert sorted(os.listdir(workdir)) == listing

    def test_module_error_is_exit_one(self, workdir, capsys):
        (workdir / "gold.txt").write_text(DIRTY)  # invalid gold BIO
        (workdir / "pred.txt").write_text(DIRTY)
        assert cli.run(["evaluate", "--gold", "gold.txt", "--pred", "pred.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_write_keeps_previous_output(self, workdir, capsys, monkeypatch):
        (workdir / "gold.txt").write_text(CLEAN)
        (workdir / "report.txt").write_text("previous report\n")
        listing = sorted(os.listdir(workdir))

        def half_then_fail(path, text, encoding=None, errors=None, newline=None):
            with open(path, "w", encoding=encoding) as handle:
                handle.write(text[: len(text) // 2])
            raise _disk_full()

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        assert cli.run([
            "evaluate", "--gold", "gold.txt", "--pred", "gold.txt", "--out", "report.txt",
        ]) == 1
        assert "error: cannot write report.txt: No space left on device" in capsys.readouterr().err
        assert (workdir / "report.txt").read_bytes() == b"previous report\n"
        assert sorted(os.listdir(workdir)) == listing


class TestProject:
    def test_projection_pipeline(self, workdir):
        (workdir / "src.txt").write_text(CLEAN)
        record = {
            "id": "u1",
            "src_tokens": ["wake", "me", "at", "eight"],
            "tgt_tokens": ["weck", "mich", "um", "acht"],
            "scores": [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        }
        (workdir / "align.jsonl").write_text(json.dumps(record) + "\n")
        code = cli.run([
            "project", "--src", "src.txt", "--align", "align.jsonl",
            "--out", "tgt.txt",
        ])
        assert code == 0
        ds = corpus.parse_dataset((workdir / "tgt.txt").read_text())
        assert ds.utterances[0].tokens == ("weck", "mich", "um", "acht")
        assert ds.utterances[0].slot_tags == ("O", "O", "B-datetime", "I-datetime")

    def test_lone_surrogate_token(self, workdir, capsys):
        (workdir / "src.txt").write_text(CLEAN)
        record = json.loads(ALIGN)
        record["tgt_tokens"][2] = "u\ud800"
        (workdir / "align.jsonl").write_text(json.dumps(record) + "\n")  # as the escape \ud800
        assert cli.run(["project", "--src", "src.txt", "--align", "align.jsonl",
                        "--out", "tgt.txt"]) == 1
        err = capsys.readouterr().err
        assert err == "error: align.jsonl: record 'u1': lone surrogate in id or tokens\n"
        assert not (workdir / "tgt.txt").exists()


class TestHomogenizeMerge:
    def test_homogenize_with_trim(self, workdir):
        (workdir / "in.txt").write_text(CLEAN)
        (workdir / "map.txt").write_text("[slots]\ndatetime\ttime\n")
        code = cli.run([
            "homogenize", "--in", "in.txt", "--map", "map.txt",
            "--out", "out.txt", "--trim", "at",
        ])
        assert code == 0
        ds = corpus.parse_dataset((workdir / "out.txt").read_text())
        assert ds.utterances[0].slot_tags == ("O", "O", "O", "B-time")

    def test_trim_naming_no_word_leaves_tags_as_no_trim(self, workdir):
        # "--trim ," names no word, so it must not repair the orphan I- either
        (workdir / "in.txt").write_text(DIRTY)
        (workdir / "map.txt").write_text("[slots]\nloc\tplace\n")
        homogenize_in = ["homogenize", "--in", "in.txt", "--map", "map.txt"]
        assert cli.run(homogenize_in + ["--out", "plain.txt"]) == 0
        plain = (workdir / "plain.txt").read_text()
        assert "\tI-place\n" in plain
        for trim in ("", ",", ",,"):
            assert cli.run(homogenize_in + ["--out", "trim.txt", "--trim", trim]) == 0
            assert (workdir / "trim.txt").read_text() == plain, trim
        # naming any word, even one that occurs nowhere, repairs every tag sequence
        assert cli.run(homogenize_in + ["--out", "trim.txt", "--trim", "zzz"]) == 0
        assert (workdir / "trim.txt").read_text() == plain.replace("\tI-place\n", "\tB-place\n")

    def test_in_place_manifest_records_parsed_bytes(self, workdir):
        (workdir / "d.txt").write_text(CLEAN)
        (workdir / "m.tsv").write_text("[slots]\ndatetime\ttime\n")
        parsed = _sha256(workdir / "d.txt")
        assert cli.run(["homogenize", "--in", "d.txt", "--map", "m.tsv", "--out", "d.txt"]) == 0
        assert _sha256(workdir / "d.txt") != parsed  # rewritten with the new label
        assert _manifest(workdir / "d.txt.manifest.json")["inputs"]["d.txt"] == parsed

    def test_merge_manifest_records_rng(self, workdir):
        (workdir / "a.txt").write_text(CLEAN)
        (workdir / "b.txt").write_text(DIRTY)
        code = cli.run(["merge", "a.txt", "b.txt", "--out", "merged.txt", "--seed", "5"])
        assert code == 0
        ds = corpus.parse_dataset((workdir / "merged.txt").read_text())
        assert sorted(u.id for u in ds) == ["d1", "u1"]
        manifest = _manifest(workdir / "merged.txt.manifest.json")
        assert manifest["rng"] == homogenize.RNG_ALGORITHM
        assert manifest["seed"] == 5

    def test_merge_parse_error_names_the_input(self, workdir, capsys):
        (workdir / "ok.conll").write_text(CLEAN)
        bad = CLEAN + "\n" + DIRTY.replace("# text: a b\n", "")
        (workdir / "bad2.conll").write_text(bad)
        assert cli.run(["merge", "ok.conll", "bad2.conll", "--out", "m.txt", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: bad2.conll: line 10: expected '# text:' header\n"
        assert not (workdir / "m.txt").exists()

    def test_merge_matches_library(self, workdir):
        (workdir / "a.txt").write_text(CLEAN)
        (workdir / "b.txt").write_text(DIRTY)
        cli.run(["merge", "a.txt", "b.txt", "--out", "merged.txt", "--seed", "5"])
        a = corpus.parse_dataset(CLEAN)
        b = corpus.parse_dataset(DIRTY)
        expected = homogenize.merge_shuffle([a, b], seed=5)
        got = corpus.parse_dataset((workdir / "merged.txt").read_text())
        assert [u.id for u in got] == [u.id for u in expected]
        merged = (workdir / "merged.txt").read_text()
        assert merged == corpus.write_dataset(corpus.Dataset(expected))

    def test_merge_builds_no_dataset_from_valid_inputs(self, workdir, capsys, monkeypatch):
        """Valid inputs are shuffled as block texts; only a refused one reaches parse_dataset."""
        (workdir / "a.txt").write_text(CLEAN)
        (workdir / "b.txt").write_text(DIRTY)
        (workdir / "bad.txt").write_text(BAD_DATA)
        parsed = []
        parse = corpus.parse_dataset

        def recorded(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(corpus, "parse_dataset", recorded)
        assert cli.run(["merge", "a.txt", "b.txt", "--out", "m.txt", "--seed", "5"]) == 0
        assert parsed == []
        assert cli.run(["merge", "a.txt", "bad.txt", "--out", "n.txt", "--seed", "5"]) == 1
        assert capsys.readouterr().err == f"error: bad.txt: {BAD_ROW}\n"
        assert parsed == [BAD_DATA]


class TestSchedule:
    def test_weights_counts_and_json(self, workdir, capsys):
        code = cli.run([
            "schedule", "--names", "big,small", "--sizes", "900,100",
            "--batches", "100", "--alpha", "0.5", "--seed", "3",
            "--out", "schedule.json",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "weight\tbig\t0.750000" in lines
        assert "weight\tsmall\t0.250000" in lines
        payload = json.loads((workdir / "schedule.json").read_text())
        assert payload["seed"] == 3
        assert len(payload["draws"]) == 100
        assert payload["counts"]["big"] + payload["counts"]["small"] == 100

    def test_name_size_mismatch(self, workdir, capsys):
        assert cli.run([
            "schedule", "--names", "a,b", "--sizes", "1",
            "--batches", "1", "--seed", "0",
        ]) == 1
        assert "2 names but 1 sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes,alpha,message", [
        ("1,x", "0.5", "--sizes: invalid literal for int()"),
        ("99999999999999999999", "100", "exceed the float range"),
    ])
    def test_bad_sizes(self, workdir, capsys, sizes, alpha, message):
        names = ",".join(f"t{k}" for k in range(len(sizes.split(","))))
        assert cli.run([
            "schedule", "--names", names, "--sizes", sizes,
            "--batches", "1", "--alpha", alpha, "--seed", "0",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestTrainPredict:
    TRAIN = ["train", "--train", "train.txt", "--seed", "0", "--embed-dim", "4",
             "--hidden-dim", "4", "--epochs", "1"]

    def _write_corpus(self, workdir):
        seqs = [["O", "B-a"], ["B-b", "O"]] * 4
        intents = ["x", "y"] * 4
        ds = make_dataset(seqs, intents=intents)
        (workdir / "train.txt").write_text(corpus.write_dataset(ds))

    def test_train_then_predict_then_evaluate(self, workdir, capsys):
        self._write_corpus(workdir)
        code = cli.run([
            "train", "--train", "train.txt", "--out", "model.json", "--seed", "0",
            "--embed-dim", "8", "--hidden-dim", "8", "--epochs", "3",
            "--batch-size", "4",
        ])
        assert code == 0
        train_out = capsys.readouterr().out
        epoch_lines = [l for l in train_out.splitlines() if l.startswith("epoch\t")]
        assert len(epoch_lines) == 3
        assert all(len(l.split("\t")) == 6 for l in epoch_lines)
        model = load_model(workdir / "model.json")
        assert model.config.epochs == 3

        code = cli.run([
            "predict", "--model", "model.json", "--in", "train.txt",
            "--out", "pred.txt",
        ])
        assert code == 0
        pred = corpus.parse_dataset((workdir / "pred.txt").read_text())
        assert len(pred) == 8

        code = cli.run(["evaluate", "--gold", "train.txt", "--pred", "pred.txt"])
        assert code == 0
        assert "intent_accuracy" in capsys.readouterr().out

    def test_train_with_mlm_file(self, workdir, capsys):
        self._write_corpus(workdir)
        (workdir / "raw.txt").write_text("tok0 tok1 tok0\n\ntok1 tok0\n")
        code = cli.run([
            "train", "--train", "train.txt", "--mlm", "raw.txt",
            "--out", "model.json", "--seed", "1", "--embed-dim", "4",
            "--hidden-dim", "4", "--epochs", "2", "--mask-rate", "0.5",
        ])
        assert code == 0
        manifest = _manifest(workdir / "model.json.manifest.json")
        assert set(manifest["inputs"]) == {"train.txt", "raw.txt"}

    def test_missing_model_file(self, workdir, capsys):
        self._write_corpus(workdir)
        assert cli.run([
            "predict", "--model", "ghost.json", "--in", "train.txt",
            "--out", "pred.txt",
        ]) == 1
        assert "ghost.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [
        ("--alpha", "alpha"), ("--learning-rate", "learning_rate"), ("--w-slot", "w_slot"),
    ])
    def test_non_finite_hyperparameter(self, workdir, capsys, flag, field):
        self._write_corpus(workdir)
        assert cli.run(self.TRAIN + ["--out", "model.json", flag, "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be finite" in err
        assert not (workdir / "model.json").exists()

    def test_out_into_missing_directory(self, workdir, capsys):
        self._write_corpus(workdir)
        assert cli.run(self.TRAIN + ["--out", "missing/dir/model.json"]) == 0
        assert load_model(workdir / "missing" / "dir" / "model.json").config.epochs == 1
        assert (workdir / "missing" / "dir" / "model.json.manifest.json").exists()

    def test_out_unwritable(self, workdir, capsys, monkeypatch):
        self._write_corpus(workdir)
        (workdir / "blocker").write_text("a file, not a directory\n")
        (workdir / "a_dir").mkdir()

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking --out")

        monkeypatch.setattr(tagger, "train", no_training)
        assert cli.run(self.TRAIN + ["--out", "blocker/model.json"]) == 1
        assert "error: cannot write blocker/model.json" in capsys.readouterr().err
        assert cli.run(self.TRAIN + ["--out", "a_dir"]) == 1
        assert "error: cannot write a_dir: is a directory" in capsys.readouterr().err

    def test_failed_save_keeps_previous_checkpoint(self, workdir, capsys, monkeypatch):
        self._write_corpus(workdir)
        argv = self.TRAIN + ["--out", "model.json"]
        assert cli.run(argv) == 0
        previous = (workdir / "model.json").read_bytes()
        listing = sorted(os.listdir(workdir))
        save_model = tagger.save_model

        def half_then_fail(model, path):
            save_model(model, path)
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[: len(data) // 2])
            raise _disk_full()

        monkeypatch.setattr(tagger, "save_model", half_then_fail)
        capsys.readouterr()
        assert cli.run(argv) == 1
        assert "error: cannot write model.json: No space left on device" in capsys.readouterr().err
        assert (workdir / "model.json").read_bytes() == previous
        assert sorted(os.listdir(workdir)) == listing

    def test_non_utf8_input(self, workdir, capsys):
        (workdir / "train.txt").write_bytes(b"\xff\xfe# id: u1\n")
        assert cli.run(self.TRAIN + ["--out", "model.json"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot read train.txt: not UTF-8" in err
        assert "Traceback" not in err

    def test_missing_model_names_os_error(self, workdir, capsys):
        self._write_corpus(workdir)
        assert cli.run([
            "predict", "--model", "ghost.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 1
        assert "error: cannot read ghost.json: No such file or directory" in capsys.readouterr().err

    def test_predict_manifest_hashes_the_parsed_checkpoint(self, workdir, capsys):
        self._write_corpus(workdir)
        assert cli.run(self.TRAIN + ["--out", "model.json"]) == 0
        data = (workdir / "model.json").read_bytes()
        assert cli.run([
            "predict", "--model", "model.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 0
        manifest = _manifest(workdir / "pred.txt.manifest.json")
        assert manifest["inputs"]["model.json"] == hashlib.sha256(data).hexdigest()

    def test_non_utf8_checkpoint(self, workdir, capsys):
        self._write_corpus(workdir)
        (workdir / "model.json").write_bytes(b"\xff{}")
        assert cli.run([
            "predict", "--model", "model.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 1
        assert "error: cannot read model.json: not UTF-8 text (byte 0)" in capsys.readouterr().err

    def test_model_path_is_a_directory(self, workdir, capsys):
        self._write_corpus(workdir)
        (workdir / "model.json").mkdir()
        assert cli.run([
            "predict", "--model", "model.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 1
        assert "error: cannot read model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("corruption,message", [
        ("truncate", "model.json: not a JSON checkpoint"),
        ("drop_shape", "parameter b_slot: missing field 'shape'"),
        ("format_1", "error: model.json: unsupported checkpoint version 1"),
        ("format_2",
         "error: model.json: unsupported checkpoint version 2 (this slukit reads 3; retrain)"),
    ])
    def test_corrupt_checkpoint(self, workdir, capsys, corruption, message):
        self._write_corpus(workdir)
        assert cli.run(self.TRAIN + ["--out", "model.json"]) == 0
        path = workdir / "model.json"
        if corruption == "truncate":
            path.write_bytes(path.read_bytes()[:200])
        elif corruption == "drop_shape":
            payload = json.loads(path.read_text())
            del payload["params"]["b_slot"]["shape"]
            path.write_text(json.dumps(payload))
        elif corruption == "format_2":  # format 2's layout: an untied [2h, V] w_mlm
            model = load_model(path)
            payload = json.loads(path.read_text())
            payload["format_version"] = 2
            w_mlm = model.params["w_mlm"] @ model.params["emb"].T
            payload["params"]["w_mlm"] = {
                "shape": list(w_mlm.shape), "dtype": "<f8",
                "data": base64.b64encode(w_mlm.astype("<f8").tobytes()).decode("ascii"),
            }
            path.write_text(json.dumps(payload, sort_keys=True))
        else:  # the same model as format 1 wrote it: tensors as flat lists of floats
            model = load_model(path)
            payload = json.loads(path.read_text())
            payload["format_version"] = 1
            payload["params"] = {
                name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                for name, arr in model.params.items()
            }
            path.write_text(json.dumps(payload, sort_keys=True))
        capsys.readouterr()
        assert cli.run([
            "predict", "--model", "model.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


    @pytest.mark.parametrize("edit,message", [
        (lambda c: [c.pop(k) for k in ("seed", "embed_dim", "w_mlm")],
         "fields mismatch: missing ['embed_dim', 'seed', 'w_mlm'], extra []"),
        (lambda c: c.update(embed_dim=4.0), "embed_dim must be an integer, got 4.0"),
        (lambda c: c.update(epochs=True), "epochs must be an integer, got True"),
    ], ids=["fields_missing", "float_dim", "bool_epochs"])
    def test_checkpoint_config_holds_train_config_fields(self, workdir, capsys, edit, message):
        """A missing field does not take its default, and 4.0 does not pass as a dimension."""
        self._write_corpus(workdir)
        assert cli.run(self.TRAIN + ["--out", "model.json"]) == 0
        path = workdir / "model.json"
        payload = json.loads(path.read_text())
        edit(payload["config"])
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.run([
            "predict", "--model", "model.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 1
        assert capsys.readouterr().err == f"error: model.json: bad checkpoint config: {message}\n"
        assert not (workdir / "pred.txt").exists()

    @pytest.mark.parametrize("field,entry,message", [
        ("slot_tags", "X", "bad entry in slot_tags: malformed tag 'X' at position 4"),
        ("intents", "alarm\nx", "bad entry in intents: 'alarm\\nx' holds a newline"),
    ])
    def test_checkpoint_labels_a_dataset_cannot_hold(
        self, workdir, capsys, field, entry, message
    ):
        self._write_corpus(workdir)
        assert cli.run(self.TRAIN + ["--out", "model.json"]) == 0
        path = workdir / "model.json"
        payload = json.loads(path.read_text())
        payload["vocab"][field][-1] = entry
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.run([
            "predict", "--model", "model.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 1
        assert capsys.readouterr().err == f"error: model.json: {message}\n"
        assert not (workdir / "pred.txt").exists()

    def test_last_step_overflow_writes_no_model(self, workdir, capsys):
        # the loss is checked before each step, so one batch puts the overflow after the check
        self._write_corpus(workdir)
        with np.errstate(all="ignore"):
            assert cli.run(self.TRAIN + [
                "--out", "model.json", "--learning-rate", "1e300", "--w-intent", "1e100",
                "--batches-per-epoch", "1",
            ]) == 1
        assert capsys.readouterr().err == (
            "error: model.json: training diverged: "
            "parameter emb holds non-finite values after the last step\n"
        )
        assert not (workdir / "model.json").exists()

    def test_diverging_train_prints_only_the_error(self, workdir):
        # in a fresh interpreter, numpy's overflow warnings would print before the error line
        two = make_dataset([["B-a", "O"], ["O", "B-b"]], intents=["x", "y"])
        (workdir / "two.txt").write_text(corpus.write_dataset(two))
        result = subprocess.run(
            [sys.executable, "-m", "slukit", "train", "--train", "two.txt", "--out", "m.json",
             "--seed", "0", "--embed-dim", "4", "--hidden-dim", "4", "--epochs", "2",
             "--learning-rate", "1e300", "--w-intent", "1e100"],
            capture_output=True, text=True, env=package_env(), cwd=workdir,
        )
        assert result.returncode == 1
        assert result.stderr == "error: m.json: non-finite loss at epoch 1, batch 0\n"
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("field", ["intents", "slot_tags"])
    def test_lone_surrogate_in_checkpoint_vocab(self, workdir, capsys, field):
        self._write_corpus(workdir)
        assert cli.run(self.TRAIN + ["--out", "model.json"]) == 0
        path = workdir / "model.json"
        payload = json.loads(path.read_text())
        payload["vocab"][field][-1] = "\ud800"
        path.write_text(json.dumps(payload))  # as the escape \ud800
        capsys.readouterr()
        assert cli.run([
            "predict", "--model", "model.json", "--in", "train.txt", "--out", "pred.txt",
        ]) == 1
        err = capsys.readouterr().err
        assert err == f"error: model.json: entries in {field} hold a lone surrogate\n"
        assert not (workdir / "pred.txt").exists()


class TestTrainFlags:
    """The train flags are TrainConfig's fields, with its defaults and types."""

    REQUIRED = ["train", "--train", "train.txt", "--out", "model.json", "--seed", "3"]

    def test_every_field_but_seed_has_a_flag(self):
        parser = cli.build_parser()
        defaults = parser.parse_args(self.REQUIRED)
        for field in dataclasses.fields(tagger.TrainConfig):
            assert getattr(defaults, field.name) == (3 if field.name == "seed" else field.default)
            flag = "--" + field.name.replace("_", "-")
            value = getattr(parser.parse_args(self.REQUIRED + [flag, "7"]), field.name)
            kind = float if isinstance(field.default, float) else int
            assert value == 7 and type(value) is kind, field.name

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["train", "--train", "t.txt", "--out", "m.json"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_required_flags_build_the_default_config(self, workdir, monkeypatch):
        (workdir / "train.txt").write_text(CLEAN)
        configs = []

        def record(data, config, mlm_sentences):
            configs.append(config)
            raise StructuralError("stop before training")

        monkeypatch.setattr(tagger, "train", record)
        assert cli.run(self.REQUIRED) == 1
        assert configs == [tagger.TrainConfig(seed=3)]

    def test_mlm_sentences_end_at_line_feeds_only(self, workdir, monkeypatch):
        (workdir / "train.txt").write_text(CLEAN)
        (workdir / "raw.txt").write_text("a b\u2028c\n\nd\x85e\n", encoding="utf-8")
        sentences = []

        def record(data, config, mlm_sentences):
            sentences.extend(mlm_sentences)
            raise StructuralError("stop before training")

        monkeypatch.setattr(tagger, "train", record)
        assert cli.run(self.REQUIRED + ["--mlm", "raw.txt"]) == 1
        assert sentences == [["a", "b\u2028c"], ["d\x85e"]]

    def test_mlm_tokens_split_at_spaces_and_tabs_only(self, workdir):
        # a dataset token may hold a no-break space; its raw-text occurrences must meet it
        (workdir / "train.txt").write_text(
            "# id: u1\n# text: fly to new\xa0york\n# intent: flight\n"
            "1\tfly\tO\n2\tto\tO\n3\tnew\xa0york\tB-city\n", encoding="utf-8")
        (workdir / "raw.txt").write_text("fly  to\tnew\xa0york \n", encoding="utf-8")
        args = ["--epochs", "1", "--embed-dim", "2", "--hidden-dim", "2", "--mlm", "raw.txt"]
        assert cli.run(self.REQUIRED + args) == 0
        tokens = load_model(workdir / "model.json").vocab.tokens
        assert tokens[len(tagger.RESERVED_TOKENS):] == ("fly", "new\xa0york", "to")


class TestAgreementCorrelate:
    def test_agreement(self, workdir, capsys):
        (workdir / "table.csv").write_text(
            "item,yes,no\n"
            "i1,3,0\n"
            "i2,2,1\n"
            "i3,1,2\n"
            "i4,0,3\n"
        )
        assert cli.run(["agreement", "--table", "table.csv"]) == 0
        assert capsys.readouterr().out == "fleiss_kappa\t0.3333\n"

    def test_agreement_skips_blank_lines(self, workdir, capsys):
        kappas = []
        for text in ("item,yes,no\ni1,3,0\ni2,2,1\n", "item,yes,no\ni1,3,0\n\ni2,2,1\n\n"):
            (workdir / "table.csv").write_text(text)
            assert cli.run(["agreement", "--table", "table.csv"]) == 0
            kappas.append(capsys.readouterr().out)
        assert kappas == ["fleiss_kappa\t-0.2000\n"] * 2

    def test_agreement_bad_count(self, workdir, capsys):
        (workdir / "table.csv").write_text("item,yes,no\ni1,x,3\n")
        assert cli.run(["agreement", "--table", "table.csv"]) == 1
        assert "non-integer" in capsys.readouterr().err

    def test_correlate(self, workdir, capsys):
        (workdir / "scores.csv").write_text(
            "run,kappa,f1\n"
            "a,1,1\n"
            "b,2,2\n"
            "c,3,4\n"
        )
        assert cli.run([
            "correlate", "--scores", "scores.csv", "--x", "kappa", "--y", "f1",
        ]) == 0
        assert capsys.readouterr().out == "pearson\t0.9820\n"

    def test_correlate_missing_column(self, workdir, capsys):
        (workdir / "scores.csv").write_text("a,b\n1,2\n")
        assert cli.run([
            "correlate", "--scores", "scores.csv", "--x", "a", "--y", "zzz",
        ]) == 1
        assert "no column 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_correlate_non_finite(self, workdir, capsys, bad):
        (workdir / "scores.csv").write_text(f"a,b\n1,2\n2,3\n{bad},4\n")
        assert cli.run(["correlate", "--scores", "scores.csv", "--x", "a", "--y", "b"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err


SIGNIFICANCE = ["significance", "--scores", "scores.csv", "--baseline", "base", "--seed", "0"]
CORRELATE = ["correlate", "--scores", "scores.csv", "--x", "a", "--y", "b"]
AGREEMENT = ["agreement", "--table", "table.csv"]
HUGE = "1" * 200_000  # a field longer than the csv module's limit
BAD_DATA = CLEAN.replace("3\tat\tB-datetime\n", "3\tat\n")
BAD_ROW = "line 6: expected 3 tab-separated columns, got 2"
OUT = ["--out", "o.txt"]


@pytest.mark.parametrize("name,text,argv,message", [
    ("bad.txt", BAD_DATA, ["validate", "--in", "bad.txt"], BAD_ROW),
    ("bad.txt", BAD_DATA, ["evaluate", "--gold", "bad.txt", "--pred", "clean.txt"], BAD_ROW),
    ("bad.txt", BAD_DATA, ["evaluate", "--gold", "clean.txt", "--pred", "bad.txt"], BAD_ROW),
    ("bad.txt", BAD_DATA, ["project", "--src", "bad.txt", "--align", "align.jsonl", *OUT],
     BAD_ROW),
    ("bad.jsonl", ALIGN + "{\n", ["project", "--src", "clean.txt", "--align", "bad.jsonl", *OUT],
     "line 2: bad JSON: Expecting property name enclosed in double quotes"),
    ("bad.txt", BAD_DATA, ["homogenize", "--in", "bad.txt", "--map", "map.txt", *OUT], BAD_ROW),
    ("bad.tsv", "[slots]\na\tb\tc\n", ["homogenize", "--in", "clean.txt", "--map", "bad.tsv", *OUT],
     "line 2: expected old<TAB>new, got 3 columns"),
    ("bad.tsv", "[slots]\ndatetime\tnew label\n",
     ["homogenize", "--in", "clean.txt", "--map", "bad.tsv", *OUT],
     "line 2: slot label 'datetime' maps to 'new label', which cannot form a tag"),
    ("bad.tsv", "[slots]\ndatetime\tdate\n[intents]\nalarm/set\t\n",
     ["homogenize", "--in", "clean.txt", "--map", "bad.tsv", *OUT],
     "line 4: intent label 'alarm/set' maps to an empty label"),
    ("bad.txt", BAD_DATA, ["merge", "clean.txt", "bad.txt", "--seed", "1", *OUT], BAD_ROW),
    ("bad.txt", BAD_DATA, ["train", "--train", "bad.txt", "--seed", "0", "--out", "m.json"],
     BAD_ROW),
    ("bad.json", '{"format_version": 1}',
     ["predict", "--model", "bad.json", "--in", "clean.txt", *OUT],
     "unsupported checkpoint version 1 (this slukit reads 3; retrain)"),
    ("bad.txt", BAD_DATA, ["predict", "--model", "model.json", "--in", "bad.txt", *OUT],
     BAD_ROW),
    ("table.csv", "item,yes,no\ni1,3,0\ni2,3\n", AGREEMENT, "line 3: expected 3 cells, got 2"),
    ("table.csv", "item,yes,no\ni1,3,0\n\ni2,2,1,0\n", AGREEMENT,
     "line 4: expected 3 cells, got 4"),
    ("table.csv", "item,yes,no\ni1,3,0\ni2,2.5,0.5\n", AGREEMENT,
     "line 3: non-integer count in row 'i2'"),
    ("table.csv", "item,yes,yes\ni1,3,0\n", AGREEMENT, "line 1: column 'yes' repeated"),
    ("table.csv", "item,yes,no\ni1,3,0\ni2,2,0\n", AGREEMENT,
     "line 3: row sums to 2, expected 3"),
    ("table.csv", "item,yes,no\ni1,3,0\n\ni2,4,-1\n", AGREEMENT, "line 4: negative count"),
    ("scores.csv", "a,b\n1,2\nnan,3\n", CORRELATE, "correlation needs finite values"),
    ("scores.csv", SCORES_CSV + "aux,de,f1,9,nan\n", SIGNIFICANCE,
     "system 'aux', language 'de', metric 'f1': sample has non-finite values"),
    ("scores.csv", SCORES_CSV + "aux,de,f1,9,x\n", SIGNIFICANCE, "line 12: bad value 'x'"),
    ("scores.csv", SCORES_CSV + "aux,de,f1,9,0.5,7\n", SIGNIFICANCE,
     "line 12: expected 5 cells, got 6"),
    ("scores.csv", SCORES_CSV + "aux,de,f1,9\n", SIGNIFICANCE, "line 12: expected 5 cells, got 4"),
    ("scores.csv", "a,b\n1,2\n2,3,9\n", CORRELATE, "line 3: expected 2 cells, got 3"),
    ("scores.csv", "a,b\n1,2\n\n2\n", CORRELATE, "line 4: expected 2 cells, got 1"),
    ("scores.csv", "a,b\n1,2\n2,x\n", CORRELATE,
     "line 3: non-numeric value in row {'a': '2', 'b': 'x'}"),
    ("scores.csv", SCORES_CSV + "aux,de,acc,1,0.5\naux,de,acc,2,0.6\n", SIGNIFICANCE,
     "has metrics acc,f1; pick one with --metric"),
    ("table.csv", f"item,yes\ni1,{HUGE}\n", AGREEMENT, "field larger than field limit (131072)"),
    ("scores.csv", f"a,b\n1,{HUGE}\n", CORRELATE, "field larger than field limit (131072)"),
    ("scores.csv", f"{SCORES_CSV}aux,de,f1,9,{HUGE}\n", SIGNIFICANCE,
     "field larger than field limit (131072)"),
    ("scores.csv", SCORES_CSV.split("\n", 1)[0] + "\n", SIGNIFICANCE, "no score rows"),
    ("scores.csv", SCORES_CSV.replace(",de,", ",en,", 5), SIGNIFICANCE,
     "baseline 'base' has no sample for language 'de'"),
], ids=["validate", "evaluate_gold", "evaluate_pred", "project_src", "project_align",
        "homogenize_in", "homogenize_map", "homogenize_map_target",
        "homogenize_map_empty_target", "merge", "train",
        "predict_model", "predict_in", "agreement", "agreement_long_row", "agreement_count",
        "agreement_repeated_column", "agreement_row_sum", "agreement_negative", "correlate", "significance_sample",
        "significance_line", "significance_long_row", "significance_short_row",
        "correlate_long_row", "correlate_short_row", "correlate_value", "two_metrics", "agreement_csv", "correlate_csv",
        "significance_csv", "header_only", "significance_baseline"])
def test_table_errors_name_the_file(fuzz_inputs, capsys, name, text, argv, message):
    """A malformed file given to any input flag ends in ``error: PATH: message``.

    Every other input of the command is valid (see ``fuzz_inputs``).
    """
    (fuzz_inputs / name).write_text(text)
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == f"error: {name}: {message}\n"


class TestSignificance:
    def test_table_output(self, workdir, capsys):
        (workdir / "scores.csv").write_text(SCORES_CSV)
        code = cli.run([
            "significance", "--scores", "scores.csv", "--baseline", "base",
            "--seed", "0", "--json", "sig.json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("baseline\tbase\n")
        assert "dominant_languages\taux\t1/1" in out
        payload = json.loads((workdir / "sig.json").read_text())
        assert payload["dominant_counts"] == {"aux": 1}

    @pytest.mark.parametrize("scale", ["e300", "e-200"], ids=["huge", "tiny"])
    def test_scores_near_the_float_limits(self, workdir, capsys, recwarn, scale):
        """Every sys score is below every base score, whatever their magnitude: epsilon 1."""
        (workdir / "scores.csv").write_text(
            "system,language,metric,seed,value\n"
            f"base,de,f1,1,1{scale}\nbase,de,f1,2,2{scale}\n"
            f"sys,de,f1,1,-1{scale}\nsys,de,f1,2,-2{scale}\n"
        )
        assert cli.run([*SIGNIFICANCE, "--json", "sig.json"]) == 0
        assert "sys     de        1.0000   0.0000  1.0000   no" in capsys.readouterr().out
        text = (workdir / "sig.json").read_text()
        assert "NaN" not in text and json.loads(text)["results"][0]["epsilon_hat"] == 1.0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_metric_required_when_ambiguous(self, workdir, capsys):
        two_metrics = SCORES_CSV + "base,de,acc,1,0.5\nbase,de,acc,2,0.6\n"
        (workdir / "scores.csv").write_text(two_metrics)
        assert cli.run([
            "significance", "--scores", "scores.csv", "--baseline", "base",
            "--seed", "0",
        ]) == 1
        assert "--metric" in capsys.readouterr().err

        capsys.readouterr()
        assert cli.run([
            "significance", "--scores", "scores.csv", "--baseline", "base",
            "--seed", "0", "--metric", "f1",
        ]) == 0

    @pytest.mark.parametrize("flags,message", [
        (["--alpha", "1.5"], "error: alpha must be in (0, 1)"),
        (["--boot", "100000000000000000000"], "error: n_boot 100000000000000000000 is too large"),
        (["--alpha", "1e-16"], "error: alpha 1e-16 (5e-17 per language) is too small"),
    ])
    def test_out_of_range_values_exit_one(self, workdir, capsys, flags, message):
        two_languages = SCORES_CSV + SCORES_CSV.split("\n", 1)[1].replace(",de,", ",it,")
        (workdir / "scores.csv").write_text(two_languages)  # alpha 1.5 adjusts to 0.75
        assert cli.run([
            "significance", "--scores", "scores.csv", "--baseline", "base", "--seed", "0", *flags,
        ]) == 1
        assert message in capsys.readouterr().err

    def test_oversized_boot_refused_for_a_degenerate_table(self, workdir, capsys):
        """The one cell needs no bootstrap (identical samples), yet --boot is still checked."""
        (workdir / "scores.csv").write_text(
            "system,language,metric,seed,value\nbase,de,f1,1,1\nbase,de,f1,2,2\n"
            "sys,de,f1,1,1\nsys,de,f1,2,2\n"
        )
        assert cli.run([*SIGNIFICANCE, "--boot", "100000000000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_boot 100000000000000000000 is too large to hold\n"


class TestCountFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["significance", "--scores", "s.csv", "--baseline", "b", "--seed", "0", "--boot", "0"],
         "--boot"),
        (["schedule", "--names", "a", "--sizes", "1", "--seed", "0", "--batches", "-1"],
         "--batches"),
    ])
    def test_below_one_is_a_usage_error_naming_the_flag(self, workdir, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            cli.run(argv)
        assert exit_info.value.code == 2
        assert f"error: argument {flag}: must be >= 1" in capsys.readouterr().err


class TestNewlines:
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_read_as_lf(self, workdir, capsys, newline):
        """validate and homogenize see a CRLF or CR file exactly as its LF twin."""
        data, lmap = DIRTY + "\n" + CLEAN, "[slots]\ndatetime\ttime\n"
        for name, text in (("data", data), ("map", lmap)):
            (workdir / f"lf_{name}.txt").write_bytes(text.encode())
            (workdir / f"nl_{name}.txt").write_bytes(text.replace("\n", newline).encode())
        results = []
        for kind in ("lf", "nl"):
            assert cli.run(["validate", "--in", f"{kind}_data.txt"]) == 0
            assert cli.run([
                "homogenize", "--in", f"{kind}_data.txt", "--map", f"{kind}_map.txt",
                "--out", f"{kind}_out.txt",
            ]) == 0
            results.append((capsys.readouterr().out, (workdir / f"{kind}_out.txt").read_bytes()))
        assert results[0] == results[1]
        assert "d1\t1\tOrphanI" in results[1][0] and b"B-time" in results[1][1]
        inputs = _manifest(workdir / "nl_out.txt.manifest.json")["inputs"]
        assert inputs["nl_data.txt"] == _sha256(workdir / "nl_data.txt")


class TestOutputsCheckedFirst:
    def test_evaluate_out_is_a_directory(self, workdir, capsys, monkeypatch):
        (workdir / "gold.txt").write_text(CLEAN)
        (workdir / "a_dir").mkdir()
        listing = sorted(os.listdir(workdir))
        monkeypatch.setattr(metrics, "strict_f1", _never_called)
        assert cli.run([
            "evaluate", "--gold", "gold.txt", "--pred", "gold.txt", "--out", "a_dir",
        ]) == 1
        assert "error: cannot write a_dir" in capsys.readouterr().err
        assert sorted(os.listdir(workdir)) == listing

    def test_significance_out_under_a_file(self, workdir, capsys, monkeypatch):
        (workdir / "scores.csv").write_text(SCORES_CSV)
        (workdir / "blocker").write_text("a file, not a directory\n")
        listing = sorted(os.listdir(workdir))
        monkeypatch.setattr(significance, "compare_table", _never_called)
        assert cli.run([
            "significance", "--scores", "scores.csv", "--baseline", "base", "--seed", "0",
            "--out", "blocker/x.txt",
        ]) == 1
        assert "error: cannot write blocker/x.txt" in capsys.readouterr().err
        assert sorted(os.listdir(workdir)) == listing

    @pytest.mark.parametrize("argv,flag,stage", [
        (["homogenize", "--in", "data.txt", "--map", "map.txt", "--out", ""], "--out",
         (homogenize, "apply_label_map")),
        (["evaluate", "--gold", "data.txt", "--pred", "data.txt", "--json", ""], "--json",
         (metrics, "strict_f1")),
        (["evaluate", "--gold", "data.txt", "--pred", "data.txt", "--out", "r.txt",
          "--json", ""], "--json", (metrics, "strict_f1")),
        (["train", "--train", "data.txt", "--out", "", "--seed", "0"], "--out",
         (tagger, "train")),
    ])
    def test_empty_output_path(self, workdir, capsys, monkeypatch, argv, flag, stage):
        # an empty path used to drop the output and exit 0 with only a manifest
        (workdir / "data.txt").write_text(CLEAN)
        (workdir / "map.txt").write_text("[slots]\ndatetime\ttime\n")
        listing = sorted(os.listdir(workdir))
        monkeypatch.setattr(*stage, _never_called)
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == f"error: {flag}: empty output path\n"
        assert sorted(os.listdir(workdir)) == listing

    @pytest.mark.parametrize("flags,message", [
        (["--out", "r.txt", "--json", "r.txt"], "r.txt: --json is the same file as --out"),
        (["--out", "r.txt", "--json", "new/../r.txt"],
         "new/../r.txt: --json is the same file as --out"),
        (["--json", "evaluate.manifest.json"],
         "evaluate.manifest.json: the manifest is the same file as --json"),
    ])
    def test_outputs_on_one_file(self, workdir, capsys, monkeypatch, flags, message):
        (workdir / "gold.txt").write_text(CLEAN)
        listing = sorted(os.listdir(workdir))
        monkeypatch.setattr(metrics, "strict_f1", _never_called)
        assert cli.run(["evaluate", "--gold", "gold.txt", "--pred", "gold.txt", *flags]) == 1
        assert capsys.readouterr().err == f"error: cannot write {message}\n"
        assert sorted(os.listdir(workdir)) == listing


# Valid inputs that the fuzz test garbles; "model.json" is written by the
# fuzz_inputs fixture.
FUZZ_SEEDS = {
    "clean.txt": CLEAN,
    "align.jsonl": ALIGN,
    "map.txt": "[slots]\ndatetime\ttime\n[intents]\nalarm/set\talarm\n",
    "table.csv": "item,yes,no\ni1,3,0\ni2,2,1\n",
    "pairs.csv": "run,kappa,f1\na,1,1\nb,2,2\nc,3,4\n",
    "scores.csv": SCORES_CSV,
}

# Each case reads one garbled file, "F", seeded from the named valid file;
# the other arguments stay valid.
FUZZ_CASES = [
    ("clean.txt", ["validate", "--in", "F"]),
    ("clean.txt", ["evaluate", "--gold", "F", "--pred", "clean.txt"]),
    ("clean.txt", ["evaluate", "--gold", "clean.txt", "--pred", "F"]),
    ("clean.txt", ["project", "--src", "F", "--align", "align.jsonl", "--out", "o.txt"]),
    ("align.jsonl", ["project", "--src", "clean.txt", "--align", "F", "--out", "o.txt"]),
    ("clean.txt", ["homogenize", "--in", "F", "--map", "map.txt", "--out", "o.txt"]),
    ("map.txt", ["homogenize", "--in", "clean.txt", "--map", "F", "--out", "o.txt"]),
    ("table.csv", ["agreement", "--table", "F"]),
    ("pairs.csv", ["correlate", "--scores", "F", "--x", "kappa", "--y", "f1"]),
    ("scores.csv", ["significance", "--scores", "F", "--baseline", "base",
                    "--seed", "0", "--boot", "5"]),
    ("model.json", ["predict", "--model", "F", "--in", "clean.txt", "--out", "o.txt"]),
    ("clean.txt", ["predict", "--model", "model.json", "--in", "F", "--out", "o.txt"]),
]

FUZZ_TOKENS = [b"\n", b"\t", b",", b" ", b"-", b"#", b'"', b"[", b"]", b"{", b"}", b":",
               b"nan", b"inf", b"1e999", b"null", b"-1", b"0", b"B-", b"I-", b"\xff"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=4,
)


def _swap_json_node(draw, value):
    """Replace one node of a parsed JSON document, picked by a random descent."""
    if not isinstance(value, (dict, list)) or not value or draw(st.integers(0, 2)) == 0:
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
    value[key] = _swap_json_node(draw, value[key])
    return value


@st.composite
def garbled(draw, valid: bytes) -> bytes:
    """Arbitrary bytes, a JSON line with one value swapped, or a file with byte edits."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
    if kind == 1 and valid.startswith(b"{"):
        return (json.dumps(_swap_json_node(draw, json.loads(valid))) + "\n").encode()
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 6))
        data[pos : pos + cut] = draw(st.sampled_from(FUZZ_TOKENS) | st.binary(max_size=3))
    if draw(st.integers(0, 4)) == 0:
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


@pytest.fixture
def fuzz_inputs(workdir):
    for name, text in FUZZ_SEEDS.items():
        (workdir / name).write_text(text)
    ds = corpus.parse_dataset(CLEAN + "\n" + DIRTY.replace("I-loc", "B-loc"))
    config = tagger.TrainConfig(embed_dim=2, hidden_dim=2, epochs=1)
    tagger.save_model(tagger.train(ds, config)[0], workdir / "model.json")
    return workdir


@pytest.mark.parametrize("argv", [
    ["validate", "--in", "clean.txt"],
    ["evaluate", "--gold", "gold.txt", "--pred", "clean.txt", "--json", "o.json"],
    ["project", "--src", "clean.txt", "--align", "align.jsonl", "--out", "o.txt"],
    ["homogenize", "--in", "clean.txt", "--map", "map.txt", "--trim", "at", "--out", "o.txt"],
    ["merge", "clean.txt", "other.txt", "--seed", "1", "--out", "o.txt"],
    ["train", "--train", "clean.txt", "--mlm", "raw.txt", "--seed", "0", "--embed-dim", "2",
     "--hidden-dim", "2", "--epochs", "1", "--out", "m.json"],
    ["predict", "--model", "model.json", "--in", "clean.txt", "--out", "o.txt"],
    ["agreement", "--table", "table.csv"],
    ["correlate", "--scores", "pairs.csv", "--x", "kappa", "--y", "f1"],
    ["significance", "--scores", "scores.csv", "--baseline", "base", "--seed", "0",
     "--boot", "5"],
], ids=lambda argv: argv[0])
def test_every_input_is_read_through_load(fuzz_inputs, monkeypatch, argv):
    """``cli._load`` is the one door: the paths it reads are the manifest's inputs."""
    (fuzz_inputs / "gold.txt").write_text(CLEAN)
    (fuzz_inputs / "other.txt").write_text(DIRTY)
    (fuzz_inputs / "raw.txt").write_text("wake me\n\nat eight\n")
    paths = []
    load = cli._load

    def recording(path, digests, parse=None):
        paths.append(path)
        return load(path, digests, parse)

    monkeypatch.setattr(cli, "_load", recording)
    assert cli.run(argv) == 0
    primary = argv[argv.index("--out") + 1] if "--out" in argv else argv[0]
    manifest = _manifest(fuzz_inputs / f"{primary}.manifest.json")
    assert sorted(paths) == list(manifest["inputs"])


class TestFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_garbled_input_exits_cleanly(self, fuzz_inputs, data):
        """Garbled files and list flags end in exit 0, 1 or 2, never an exception."""
        if data.draw(st.integers(0, 5)) == 0:
            flags = st.text(max_size=20)
            argv = ["schedule", "--names", data.draw(flags), "--sizes", data.draw(flags),
                    "--batches", "3", "--alpha", data.draw(st.sampled_from(["0.5", "60"])),
                    "--seed", "0"]
        else:
            source, argv = data.draw(st.sampled_from(FUZZ_CASES))
            valid = (fuzz_inputs / source).read_bytes()
            (fuzz_inputs / "F").write_bytes(data.draw(garbled(valid)))
        try:
            code = cli.run(argv)
        except SystemExit as err:  # argparse usage errors
            code = err.code
        assert code in (0, 1, 2)


class TestEntryPoints:
    def test_module_execution(self):
        result = subprocess.run(
            [sys.executable, "-m", "slukit", "--version"],
            capture_output=True, text=True, env=package_env(),
        )
        assert result.returncode == 0
        assert result.stdout.strip().startswith("slukit ")

    def test_numpy_commands_run_in_a_fresh_interpreter(self, tmp_path):
        """The handlers that import their module on first use, each in a new process."""
        (tmp_path / "src.txt").write_text(CLEAN)
        (tmp_path / "align.jsonl").write_text(ALIGN)
        (tmp_path / "scores.csv").write_text(SCORES_CSV)
        commands = [
            ["project", "--src", "src.txt", "--align", "align.jsonl", "--out", "tgt.txt"],
            ["train", "--train", "src.txt", "--out", "model.json", "--seed", "0",
             "--embed-dim", "2", "--hidden-dim", "2", "--epochs", "1"],
            ["predict", "--model", "model.json", "--in", "src.txt", "--out", "pred.txt"],
            ["significance", "--scores", "scores.csv", "--baseline", "base", "--seed", "0",
             "--boot", "10", "--out", "table.txt"],
        ]
        for argv in commands:
            result = subprocess.run(
                [sys.executable, "-m", "slukit", *argv],
                capture_output=True, text=True, env=package_env(), cwd=tmp_path,
            )
            assert (result.returncode, result.stderr) == (0, ""), argv[0]
            assert (tmp_path / argv[argv.index("--out") + 1]).is_file(), argv[0]

    @pytest.mark.skipif(
        shutil.which("slukit") is None,
        reason="the `slukit` console script is not on PATH; "
        "it exists only once the package is installed (pip install -e .)",
    )
    def test_console_script_help(self):
        result = subprocess.run(
            ["slukit", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        for command in ("validate", "evaluate", "project", "train", "significance"):
            assert command in result.stdout
