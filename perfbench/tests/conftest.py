"""Make the benchmark's modules and the repository's package importable."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="module")
def small_world():
    """A SMALL world of the benchmark's seed (faults are restored by the ops)."""
    import workloads

    return workloads.build_world("small", seed=workloads.WORLD_SEED)
