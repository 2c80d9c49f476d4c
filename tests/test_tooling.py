"""The benchmark's tracer against the program it wraps.

``perfbench/tracer.py`` looks up every name in its ``WRAPS`` table with
``getattr`` and no default, so renaming or deleting one of those names
breaks the traced benchmark; these tests catch that in the suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from slukit import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    missing = [
        f"slukit.{module}.{attr}"
        for module, attr, _, _ in tracer.WRAPS
        if not hasattr(importlib.import_module(f"slukit.{module}"), attr)
    ]
    assert missing == []


def test_traced_run_reads_each_input_once(tracer, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    data = "# id: u1\n# text: a b\n# intent: none\n1\ta\tB-x\n2\tb\tO\n"
    (tmp_path / "data.txt").write_text(data)
    (tmp_path / "map.txt").write_text("[slots]\nx\ty\n")
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin(0)
        assert cli.run(["homogenize", "--in", "data.txt", "--map", "map.txt", "--out", "o.txt"]) == 0
    finally:
        trace.uninstall()
    counts = trace.counts[0]
    assert counts["cli.bytes_read"] == len(data) + len("[slots]\nx\ty\n")
    written = (tmp_path / "o.txt").stat().st_size
    assert counts["cli.bytes_written"] == written + (tmp_path / "o.txt.manifest.json").stat().st_size
