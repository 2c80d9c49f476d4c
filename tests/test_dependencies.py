"""numpy is the only runtime dependency: importing slukit loads nothing else,
and the CLI commands that do not compute with numpy never load it. The code
parses as the oldest Python that pyproject.toml allows."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from support import package_env

# Modules already loaded when the import starts (site hooks, .pth files)
# are not counted; every slukit module is imported, not only the package.
PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import slukit
for info in pkgutil.iter_modules(slukit.__path__, "slukit."):
    __import__(info.name)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded)))
"""


def test_import_loads_only_stdlib_and_numpy():
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=package_env(),
        check=True,
    )
    loaded = json.loads(result.stdout)
    assert "slukit" in loaded and "numpy" in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "slukit"}
    assert [name for name in loaded if name not in allowed] == []


# The commands that need no numpy, run in process after importing the CLI;
# prints, per step, whether numpy is loaded by then.
CLI_PROBE = """
import json, sys
from slukit import cli
steps = [["import", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = cli.run(argv)
    steps.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(steps))
"""

DATA = "# id: u1\n# text: a b\n# intent: none\n1\ta\tB-x\n2\tb\tO\n"
OTHER = "# id: u2\n# text: c\n# intent: none\n1\tc\tO\n"
NUMPY_FREE = [
    ["validate", "--in", "data.txt"],
    ["homogenize", "--in", "data.txt", "--map", "map.txt", "--out", "h.txt"],
    ["merge", "data.txt", "other.txt", "--out", "merged.txt", "--seed", "1"],
    ["evaluate", "--gold", "data.txt", "--pred", "h.txt"],
    ["schedule", "--names", "a,b", "--sizes", "3,1", "--batches", "4", "--seed", "0"],
    ["agreement", "--table", "table.csv"],
    ["correlate", "--scores", "scores.csv", "--x", "a", "--y", "b"],
]


def test_cli_commands_without_numpy_never_load_it(tmp_path):
    for name, text in (("data.txt", DATA), ("other.txt", OTHER), ("map.txt", "[slots]\nx\ty\n"),
                       ("table.csv", "item,yes,no\ni1,2,0\ni2,1,1\n"),
                       ("scores.csv", "a,b\n1,2\n2,3\n3,5\n")):
        (tmp_path / name).write_text(text)
    result = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, json.dumps(NUMPY_FREE)], capture_output=True,
        text=True, env=package_env(), cwd=tmp_path, check=True,
    )
    steps = json.loads(result.stdout.splitlines()[-1])
    assert steps == [[name, 0, False] for name in ["import"] + [a[0] for a in NUMPY_FREE]]


def test_sources_parse_as_python_3_10():
    """pyproject.toml allows Python 3.10; every source and test file parses as 3.10.

    ``ast.parse`` with ``feature_version`` rejects the syntax its grammar
    gates by version, such as ``except*`` (3.11). It is best effort: it
    lets some newer forms through, and it says nothing about library
    behaviour that changed in 3.11, such as possessive regex quantifiers
    (``*+``), which a 3.10 interpreter rejects only when the pattern is
    compiled.
    """
    root = Path(__file__).resolve().parent.parent
    paths = sorted([*(root / "src" / "slukit").rglob("*.py"), *(root / "tests").rglob("*.py")])
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
