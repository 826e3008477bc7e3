"""The runtime dependency is numpy alone: importing the CLI loads nothing
outside the standard library but numpy and bicomm itself."""

import subprocess
import sys

PROBE = """
import sys
before = set(sys.modules)
import bicomm.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_numpy_and_the_standard_library():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, check=True)
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert {"bicomm", "numpy"} <= loaded
    allowed = set(sys.stdlib_module_names) | {"bicomm", "numpy", "__mp_main__"}
    assert sorted(loaded - allowed) == []
