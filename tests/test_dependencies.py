"""numpy is the only runtime dependency: importing slukit loads nothing else."""

import json
import subprocess
import sys

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
