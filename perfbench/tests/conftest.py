import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# The benchmark's modules import each other by plain name, as they do when
# run.py is executed as a script; the traced run imports clirset from src.
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
