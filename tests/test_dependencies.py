"""The package imports nothing outside the standard library but numpy.

``pyproject.toml`` declares numpy as the only runtime dependency, while the
test environment also has sympy, hypothesis and others installed: a stray
import of one of them would pass every other test and fail at a user's
install.  A fresh interpreter imports the package and the CLI, builds the
parser, and names the top-level modules that appeared.
"""

import json
import subprocess
import sys
from pathlib import Path

import twistkit

SOURCE = Path(twistkit.__file__).resolve().parents[1]

PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import twistkit, twistkit.cli
twistkit.cli._build_parser()
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(new - set(sys.stdlib_module_names))))
"""


def test_runtime_imports_are_declared():
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(SOURCE)], capture_output=True, text=True, timeout=60, check=True
    )
    assert json.loads(result.stdout) == ["numpy", "twistkit"]
