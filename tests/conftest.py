import sys
from pathlib import Path

import pytest

from spikybp import simplex

# make `import oracles` work regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def lp_count(monkeypatch):
    """Records the LpSolution of each LP solved through the simplex.solve
    module attribute, in call order."""
    calls = []
    solve = simplex.solve

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        calls.append(sol)
        return sol

    monkeypatch.setattr(simplex, "solve", counted)
    return calls
