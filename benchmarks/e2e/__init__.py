"""The repo benchmark: end-to-end workloads through ``FicusHost.fs()``.

See README.md in this directory.  Importing the package puts the repo's
``src/`` on ``sys.path`` so the benchmark runs from a plain checkout
without an install step.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
