"""Property tests: SparseVector round trips, and the vectors l0_brute_force
builds without the constructor's checks against the checking constructor."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spikybp.ensemble import (EnsembleSpec, ScalarLaw,  # noqa: E402
                              plan_parameters, sample_matrix)
from spikybp.recovery import SparseVector, l0_brute_force  # noqa: E402

finite_nonzero = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: v != 0.0)


@st.composite
def sparse_vectors(draw):
    dim = draw(st.integers(0, 40))
    support = draw(st.lists(st.integers(0, max(dim - 1, 0)), unique=True,
                            max_size=min(dim, 8)))
    values = draw(st.lists(finite_nonzero, min_size=len(support),
                           max_size=len(support)))
    return SparseVector(dim, tuple(support), tuple(values))


# a fixed example stream keeps the suite's outcome the same on every run
@settings(derandomize=True, deadline=None)
@given(sparse_vectors())
def test_format_parse_roundtrip(v):
    back = SparseVector.parse(v.format())
    assert back == v
    assert hash(back) == hash(v)


@settings(derandomize=True, deadline=None)
@given(sparse_vectors())
def test_dense_roundtrip(v):
    assert SparseVector.from_dense(v.to_dense()) == v


@settings(derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=30))
def test_from_dense_roundtrip(x):
    x = np.array(x, dtype=np.float64)
    v = SparseVector.from_dense(x)
    assert np.array_equal(v.to_dense(), x)
    assert all(value != 0.0 for value in v.values)


LAWS = (ScalarLaw.gaussian(), ScalarLaw.rademacher(),
        plan_parameters(3, 10**4).law())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n_rows=st.integers(3, 5), n_cols=st.integers(6, 14),
       law=st.sampled_from(LAWS), seed=st.integers(0, 2**31 - 1),
       size=st.integers(1, 2))
def test_l0_solutions_match_checked_constructor(n_rows, n_cols, law, seed,
                                                size):
    # a zero column and +-duplicate columns, then a target built from `size`
    # columns, so that the search stops at size 1 or 2
    gen = np.random.default_rng(seed)
    g = sample_matrix(EnsembleSpec(law, n_rows, n_cols, seed)).entries.copy()
    i, j, k, m = gen.choice(n_cols, 4, replace=False)
    g[:, i] = 0.0
    g[:, j] = g[:, k]
    g[:, m] = -g[:, k]
    cols = gen.choice(n_cols, size, replace=False)
    y = g[:, cols] @ gen.uniform(0.5, 2.0, size)
    sols = l0_brute_force(g, y, 2)
    assert sols
    for v in sols:
        checked = SparseVector(v.dim, v.support, v.values)
        assert v == checked
        assert hash(v) == hash(checked)
        assert type(v.dim) is int
        assert all(type(a) is int for a in v.support)
        assert all(type(a) is float for a in v.values)
