"""The benchmark's tracer against the program it wraps, and the package's public names.

``perfbench/tracer.py`` looks up every name in its ``WRAPS`` table with
``getattr`` and no default, so renaming or deleting one of those names
breaks the traced benchmark; these tests catch that in the suite. A
public name that neither the program nor the tracer uses is a second
path kept alive only by tests, and the last two tests here refuse it,
along with any private helper that nothing calls.
"""

import ast
import importlib
from pathlib import Path

import pytest

import slukit
from slukit import cli, corpus, tagger

from support import load_perfbench


@pytest.fixture
def tracer(monkeypatch):
    return load_perfbench("tracer", monkeypatch)


def test_every_wrapped_name_resolves(tracer):
    missing = [
        f"slukit.{module}.{attr}"
        for module, attr, _, _ in tracer.WRAPS
        if not hasattr(importlib.import_module(f"slukit.{module}"), attr)
    ]
    assert missing == []


DATA = "# id: u1\n# text: a b\n# intent: none\n1\ta\tB-x\n2\tb\tO\n"
MAP = "[slots]\nx\ty\n"


def _traced(tracer, *argvs):
    """The tracer after running each argv through ``cli.run`` as run 0."""
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin(0)
        for argv in argvs:
            assert cli.run(argv) == 0
    finally:
        trace.uninstall()
    return trace


def test_traced_run_reads_each_input_once(tracer, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text(DATA)
    (tmp_path / "map.txt").write_text(MAP)
    config = tagger.TrainConfig(embed_dim=2, hidden_dim=2, epochs=1)
    tagger.save_model(tagger.train(corpus.parse_dataset(DATA), config)[0], tmp_path / "model.json")
    model_size = (tmp_path / "model.json").stat().st_size

    def second_read(path):
        raise AssertionError(f"{path} read again outside cli._read_text")

    monkeypatch.setattr(tagger, "load_model", second_read)
    runs = [
        (["homogenize", "--in", "data.txt", "--map", "map.txt", "--out", "h.txt"],
         len(DATA) + len(MAP)),
        # the checkpoint is hashed and parsed from one read
        (["predict", "--model", "model.json", "--in", "data.txt", "--out", "p.txt"],
         len(DATA) + model_size),
    ]
    for argv, read in runs:
        counts = _traced(tracer, argv).counts[0]
        assert counts["cli.bytes_read"] == read
        out = tmp_path / argv[-1]
        written = out.stat().st_size + out.with_name(out.name + ".manifest.json").stat().st_size
        assert counts["cli.bytes_written"] == written


def test_traced_train_and_predict_time_the_engine(tracer, tmp_path, monkeypatch):
    """``tagger.encode`` and ``tagger.predict`` are the batched paths train and predict run."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text(DATA)
    trace = _traced(
        tracer,
        ["train", "--train", "data.txt", "--out", "model.json", "--seed", "0",
         "--embed-dim", "2", "--hidden-dim", "2", "--epochs", "3"],
        ["predict", "--model", "model.json", "--in", "data.txt", "--out", "p.txt"],
    )
    by_name = tracer.summarise(trace.spans)[0]
    layers = tracer.layer_metrics(by_name, trace.counts[0], failed_steps=0, train_tokens=0)
    assert layers["tagger.encode_s"] > 0
    # one batch per epoch of the one utterance, then one predict chunk
    assert by_name["tagger.encode"]["calls"] == 3 + 1
    assert by_name["tagger.predict"]["calls"] == 1


def _unused_top_level_names(tracer, private: bool) -> list[str]:
    """Top-level defs and classes of the package that program code never references.

    A reference is a ``Name`` in the defining module (other than the
    definition itself), a ``from .module import name``, or a
    ``module.name`` attribute in any module of the package. Names the
    tracer wraps count as used, since the benchmark looks them up.
    ``private`` picks the names that start with an underscore, or the rest.
    """
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(slukit.__file__).parent.glob("*.py"))
    }
    used = {(module, attr) for module, attr, _, _ in tracer.WRAPS}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
    return [
        f"slukit.{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and (module, node.name) not in used
    ]


def test_every_public_name_is_used_by_the_program(tracer):
    """Each public top-level def and class in the package is referenced by program code."""
    assert _unused_top_level_names(tracer, private=False) == []


def test_every_private_name_is_used_by_the_program(tracer):
    """Each private top-level def and class is referenced too, so no dead helper stays."""
    assert _unused_top_level_names(tracer, private=True) == []
