"""Benchmark-suite configuration.

Each figure scenario is deterministic and already aggregates many runs
internally, so every test calls its scenario once, directly.
"""

import sys
from pathlib import Path

# Make the sibling helper modules (harness, tasks) importable when pytest
# is invoked from the repository root.
sys.path.insert(0, str(Path(__file__).parent))
