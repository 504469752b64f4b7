"""Put the program's ``src`` and the benchmark's modules on the path."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (ROOT / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
