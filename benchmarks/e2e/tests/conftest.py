"""Self-tests of the e2e benchmark (not part of the tier-1 suite):

    python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

# The benchmark's files import each other as top-level modules, and the
# program under measurement lives in src/.
for path in (ROOT / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
