"""Make the program sources and the benchmark modules importable in tests:

    python3 -m pytest explainbench -q
"""
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for p in (_HERE, _HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
