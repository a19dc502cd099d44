import sys
from pathlib import Path

import pytest

from spikybp import simplex

# make `import oracles` work regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def lp_count(monkeypatch):
    """Counts LPs solved through the simplex.solve module attribute."""
    calls = []
    solve = simplex.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve", counted)
    return calls
