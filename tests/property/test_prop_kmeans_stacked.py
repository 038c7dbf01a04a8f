"""The stacked k-means engine against the per-restart Lloyd loop.

The batched k-means++ seeder is checked on its own first: every chain of
a batch must get the picks it gets when seeded alone, which are the
picks ``Generator.choice(n, p=...)`` makes.

:func:`_reference_fit` is the loop that fit each restart alone before
the restarts of a k were stacked: k-means++ seeding drawn with
``Generator.choice``, a Lloyd iteration of one distance call and one
boolean-mask mean per cluster, and a final assignment. For every
(k, restart), the engine must reproduce its labels and iteration count
exactly. Centers and inertia may move by rounding only: the engine's
distance calls are wider and its center update sums in another order.

One-column matrices are the exception for label ids. numpy sums a
one-column mean pairwise, while the engine's matmul sums row by row, so
a center can land one ulp away. Where duplicate rows leave several
centers on one point, that ulp can settle an exact distance tie the
other way: the same points stay together under another label id.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.analyzer.distance import pairwise_sq_distances, row_sq_norms
from repro.core.analyzer.kmeans import _restarts, _seed, restart_key, sweep_k
from repro.rng import stream as rng_stream

#: Allowed center error, as a fraction of the largest |feature|.
CENTER_TOLERANCE = 1e-13
#: Allowed inertia error, as a fraction of n times the largest squared row norm.
INERTIA_TOLERANCE = 1e-13


def _reference_fit(matrix, k, rng, max_iterations=300, tolerance=1e-6):
    """One restart alone: ``(labels, centers, inertia, iterations)``."""
    n = matrix.shape[0]
    centers = np.empty((k, matrix.shape[1]))
    first = int(rng.integers(n))
    centers[0] = matrix[first]
    closest_sq = ((matrix - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            centers[index:] = matrix[first]
            break
        choice = int(rng.choice(n, p=closest_sq / total))
        centers[index] = matrix[choice]
        closest_sq = np.minimum(closest_sq, ((matrix - centers[index]) ** 2).sum(axis=1))
    for iteration in range(1, max_iterations + 1):
        labels = pairwise_sq_distances(matrix, centers).argmin(axis=1)
        new_centers = centers.copy()
        for cluster in range(k):
            members = matrix[labels == cluster]
            if len(members):
                new_centers[cluster] = members.mean(axis=0)
        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if shift <= tolerance:
            break
    distances = pairwise_sq_distances(matrix, centers)
    labels = distances.argmin(axis=1)
    return labels, centers, float(distances[np.arange(n), labels].sum()), iteration


def _choice_picks(matrix, k, rng):
    """k-means++ picks of one chain, each drawn with ``Generator.choice``."""
    n = matrix.shape[0]
    picks = [int(rng.integers(n))]
    closest_sq = ((matrix - matrix[picks[0]]) ** 2).sum(axis=1)
    while len(picks) < k:
        total = closest_sq.sum()
        if total <= 0.0:
            return picks + [picks[0]] * (k - len(picks))
        picks.append(int(rng.choice(n, p=closest_sq / total)))
        closest_sq = np.minimum(closest_sq, ((matrix - matrix[picks[-1]]) ** 2).sum(axis=1))
    return picks


def assert_batch_matches_alone(matrix, chains):
    """``chains`` of ``(k, generator seed)``, seeded as one batch and one by one."""
    ks = [k for k, _ in chains]
    batched = _seed(matrix, ks, [np.random.default_rng(seed) for _, seed in chains], {})
    assert [len(picks) for picks in batched] == ks
    for (k, seed), picks in zip(chains, batched):
        assert picks == _seed(matrix, [k], [np.random.default_rng(seed)], {})[0]
        assert picks == _choice_picks(matrix, k, np.random.default_rng(seed))


def _same_partition(labels, other):
    """Whether two labelings group the points alike, whatever the ids."""
    pairs = set(zip(labels.tolist(), other.tolist()))
    return len(pairs) == len(set(labels.tolist())) == len(set(other.tolist()))


def assert_matches_reference(matrix, n_init, seed, seeded, exact_labels=True):
    """Every (k, restart) fit of a k = 1..n sweep against the reference.

    ``seeded`` draws each restart from its named substream (``seed=``);
    otherwise all restarts of all k share one generator (``rng=``).
    Without ``exact_labels`` the labels need only give the same partition.
    """
    n = matrix.shape[0]
    shared = np.random.default_rng(seed), np.random.default_rng(seed)

    def streams(k, side):
        if seeded:
            return [rng_stream(restart_key(k, restart), seed) for restart in range(n_init)]
        return [shared[side]] * n_init

    center_scale = max(float(np.abs(matrix).max()), 1.0)
    inertia_scale = n * max(float((matrix**2).sum(axis=1).max()), 1.0)
    seed_rows = {}
    best = {}
    for k in range(1, n + 1):
        chains = streams(k, 0)
        if seeded:
            picks = _seed(matrix, [k] * n_init, chains, seed_rows)
        else:  # one shared generator: seed chain by chain, in its draw order
            picks = [_seed(matrix, [k], [rng], seed_rows)[0] for rng in chains]
        fits, rounds = _restarts(matrix, matrix[picks], row_sq_norms(matrix))
        reference = streams(k, 1)
        for restart, fit in enumerate(fits):
            labels, centers, inertia, iterations = _reference_fit(matrix, k, reference[restart])
            context = f"k={k} restart={restart}"
            if exact_labels:
                assert np.array_equal(fit.labels, labels), context
            else:
                assert _same_partition(fit.labels, labels), context
            assert fit.iterations == iterations, context
            assert np.abs(fit.centers - centers).max() <= CENTER_TOLERANCE * center_scale, context
            assert abs(fit.inertia - inertia) <= INERTIA_TOLERANCE * inertia_scale, context
        assert rounds == max(fit.iterations for fit in fits)
        best[k] = min(fits, key=lambda fit: fit.inertia)
    # The public sweep is these same fits, best of each k.
    if seeded:
        sweep = sweep_k(matrix, range(1, n + 1), seed=seed, n_init=n_init)
    else:
        sweep = sweep_k(matrix, range(1, n + 1), np.random.default_rng(seed), n_init=n_init)
    for k, fit in sweep.items():
        assert np.array_equal(fit.labels, best[k].labels)
        assert np.array_equal(fit.centers, best[k].centers)
        assert fit.inertia == best[k].inertia


@st.composite
def matrices_with_duplicate_rows(draw, columns):
    """4-24 rows drawn from fewer distinct rows, so duplicates are common."""
    n = draw(st.integers(4, 24))
    dims = draw(columns)
    distinct = draw(st.integers(1, n))
    rows = draw(
        arrays(
            np.float64,
            (distinct, dims),
            elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        )
    )
    picks = draw(arrays(np.int64, n, elements=st.integers(0, distinct - 1)))
    return rows[picks]


@settings(max_examples=60, deadline=None)
@given(
    matrices_with_duplicate_rows(st.integers(2, 6)),
    st.integers(1, 4),
    st.integers(0, 1000),
    st.booleans(),
)
def test_every_restart_matches_the_per_restart_loop(matrix, n_init, seed, seeded):
    assert_matches_reference(matrix, n_init, seed, seeded)


@settings(max_examples=30, deadline=None)
@given(matrices_with_duplicate_rows(st.just(1)), st.integers(1, 4), st.integers(0, 1000), st.booleans())
def test_one_column_restarts_match_up_to_label_ids(matrix, n_init, seed, seeded):
    assert_matches_reference(matrix, n_init, seed, seeded, exact_labels=False)


@settings(max_examples=60, deadline=None)
@given(
    matrices_with_duplicate_rows(st.integers(1, 6)),
    st.lists(st.tuples(st.integers(1, 24), st.integers(0, 2**32 - 1)), min_size=1, max_size=12),
)
def test_batched_seeding_gives_each_chain_its_picks_alone(matrix, chains):
    n = matrix.shape[0]
    assert_batch_matches_alone(matrix, [(min(k, n), seed) for k, seed in chains])


def test_chains_that_run_out_of_distance_mid_seeding():
    # Three distinct rows: a chain of k > 3 runs out after its third
    # distinct pick and reuses its first, while shorter chains still draw.
    matrix = np.repeat([[0.0, 0.0], [1.0, 5.0], [-4.0, 2.0]], 4, axis=0)
    chains = [(k, seed) for k in (1, 2, 3, 5, 9, 12) for seed in (0, 11)]
    assert_batch_matches_alone(matrix, chains)
    picks = _seed(matrix, [12], [np.random.default_rng(0)], {})[0]
    assert len({tuple(matrix[row]) for row in picks[:3]}) == 3
    assert picks[3:] == [picks[0]] * 9
