"""A sweep split with the helper process equals the inline sweep, bit for bit.

A k's fit depends only on the matrix, k, the seed and ``n_init``, so the
half of a sweep the helper fits must equal the same k values fit inline
by ``_fits`` and by a separate seeded ``kmeans(k)``: labels, centers,
inertia and iteration counts. The split is forced through the module's
internal ``_sweep`` with the process's helper, whatever the size floor.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.property.test_prop_kmeans_stacked import matrices_with_duplicate_rows

kmeans_mod = importlib.import_module("repro.core.analyzer.kmeans")


@pytest.fixture(scope="module")
def helper():
    started = kmeans_mod._running_helper()
    if started is None:
        pytest.skip("this host leaves the process one CPU")
    return started


def _same(fit, other, context):
    assert np.array_equal(fit.labels, other.labels), context
    assert np.array_equal(fit.centers, other.centers), context
    assert fit.inertia == other.inertia, context
    assert fit.iterations == other.iterations, context


@settings(max_examples=60, deadline=None)
@given(
    matrices_with_duplicate_rows(st.integers(1, 6)),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 15),
)
def test_split_sweep_equals_inline_and_separate_fits(helper, matrix, n_init, seed, top):
    matrix = kmeans_mod._checked(matrix)
    ks = list(range(1, min(top, matrix.shape[0]) + 1))
    split, attributes = kmeans_mod._sweep(matrix, ks, None, seed, n_init, helper)
    assert attributes["helper_k_count"] == len(kmeans_mod._halves(ks)[1])
    inline, _ = kmeans_mod._fits(matrix, ks, None, seed, n_init, {})
    assert list(split) == ks
    for k in ks:
        _same(split[k], inline[k], f"k={k} inline")
        _same(split[k], kmeans_mod.kmeans(matrix, k, seed=seed, n_init=n_init), f"k={k} kmeans")
