"""The program reads no environment variable: an output depends only on the
command-line flags and the input bytes, which is what a run's manifest records."""

import ast
from pathlib import Path

import slukit

READERS = {"environ", "environb", "getenv", "getenvb"}


def test_package_reads_no_environment_variable():
    found = []
    for path in sorted(Path(slukit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in READERS:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in READERS]
    assert found == []
