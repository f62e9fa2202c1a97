"""The program imports the standard library and itself, nothing else.

``pyproject.toml`` declares ``dependencies = []``; this guard keeps the
declaration true.  A third-party import is paid by every benchmark child,
figure run and test session before its first operation (numpy used to be
a third of the proc workloads' set-up time and resident memory), so it
must not come back unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = (
    "repro.bench",
    "repro.txn",
    "repro.net.procserver",
    "repro.obs.dist",
    "repro.net.worker",
)

# Whatever the interpreter loaded on its own before the first import
# (site, .pth bootstrap modules) is the environment's, not the program's.
PROBE = f"""
import sys
before = set(sys.modules)
import {", ".join(ENTRY_POINTS)}
for name in sorted(set(sys.modules) - before):
    root = name.partition(".")[0]
    if root != "repro" and root not in sys.stdlib_module_names:
        print(name)
"""


def test_import_closure_is_stdlib_and_repro():
    src_root = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": src_root},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.split() == [], "third-party modules imported"
