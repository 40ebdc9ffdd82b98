"""Put the benchmark's exact oracle (``perfbench/oracle.py``) on the import
path: tier-1 checks the library against the same reference semantics as
the benchmark, over int and Fraction.  The oracle is only read, never
changed from here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
