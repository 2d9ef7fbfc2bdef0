import sys
from pathlib import Path

# The benchmark measures the sources of this checkout, never an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
