"""Command line interface: subcommands, manifests, exit codes."""

import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slukit import cli, corpus, homogenize, tagger
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

SCORES_CSV = (
    "system,language,metric,seed,value\n"
    + "".join(f"base,de,f1,{k},{0.50 + 0.01 * k}\n" for k in range(5))
    + "".join(f"aux,de,f1,{k},{0.70 + 0.01 * k}\n" for k in range(5))
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    return tmp_path


def _manifest(path):
    return json.loads(path.read_text())


def _disk_full():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


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

    def test_usage_error_exit_code(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.run(["validate"])
        assert exc.value.code == 2

    def test_unknown_command(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate"])
        assert exc.value.code == 2


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

    def test_merge_matches_library(self, workdir):
        (workdir / "a.txt").write_text(CLEAN)
        (workdir / "b.txt").write_text(DIRTY)
        cli.run(["merge", "a.txt", "b.txt", "--out", "merged.txt", "--seed", "5"])
        a = corpus.parse_dataset(CLEAN, name="a")
        b = corpus.parse_dataset(DIRTY, name="b")
        expected = homogenize.merge_shuffle([a, b], seed=5)
        got = corpus.parse_dataset((workdir / "merged.txt").read_text())
        assert [u.id for u in got] == [u.id for u in expected]


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
        ds = make_dataset(seqs, intents=intents, name="train")
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


ALIGN = json.dumps({
    "id": "u1",
    "src_tokens": ["wake", "me", "at", "eight"],
    "tgt_tokens": ["weck", "mich", "um", "acht"],
    "scores": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.5, 0.5]],
}) + "\n"

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


class TestOutDirRedirect:
    def test_relative_outputs_redirected(self, workdir, monkeypatch, capsys):
        outdir = workdir / "runs"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(outdir))
        (workdir / "gold.txt").write_text(CLEAN)
        code = cli.run([
            "evaluate", "--gold", "gold.txt", "--pred", "gold.txt",
            "--out", "report.txt",
        ])
        assert code == 0
        assert (outdir / "report.txt").exists()
        assert (outdir / "report.txt.manifest.json").exists()
        assert not (workdir / "report.txt").exists()

    def test_absolute_outputs_untouched(self, workdir, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(workdir / "elsewhere"))
        (workdir / "gold.txt").write_text(CLEAN)
        target = workdir / "abs_report.txt"
        code = cli.run([
            "evaluate", "--gold", "gold.txt", "--pred", "gold.txt",
            "--out", str(target),
        ])
        assert code == 0
        assert target.exists()


class TestEntryPoints:
    def test_module_execution(self):
        result = subprocess.run(
            [sys.executable, "-m", "slukit", "--version"],
            capture_output=True, text=True, env=package_env(),
        )
        assert result.returncode == 0
        assert result.stdout.strip().startswith("slukit ")

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
