"""Put src on sys.path and load the Hypothesis profile of every property.

The profile draws the same examples on every run (derandomize), keeps no
example database and sets no per-example deadline; each settings(...) site
states only what differs: max_examples, phases or suppress_health_check.
"""

import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile("melnikov-lab", deadline=None, derandomize=True, database=None)
settings.load_profile("melnikov-lab")
