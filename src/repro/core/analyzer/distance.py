"""Blocked pairwise-distance kernels shared by the clustering methods.

Every distance the analyzer needs — the DBSCAN neighbor graph, its
k-distance eps heuristic, the k-means assignment step — reduces to
squared Euclidean distances, computed here with the Gram identity

    ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b

in *row blocks*: a block of rows is expanded against all columns at
once (a BLAS matmul plus broadcasts), so peak transient memory is
O(block x n) instead of the O(n^2 d) the previous broadcast tensor
``(a[:, None, :] - b[None, :, :])`` materialized. ``memory_budget_bytes``
sizes the block; a budget too small for even a single row raises
:class:`~repro.errors.AnalyzerMemoryError`, preserving the paper's
observation that clustering hits memory limits where OLS does not.

The module also owns the analyzer's *distance-pass accounting*: the
``repro_analyzer_distance_passes_total`` counter increments once per
full self-pairwise pass over a matrix. The DBSCAN min_samples sweep is
required (and tested, see ``tests/unit/test_distance.py``) to spend
exactly one such pass: :func:`build_neighbor_graph`
folds the eps heuristic and the neighbor graph into a single traversal,
and every sweep point relabels the cached graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import AnalyzerMemoryError, ClusteringError

#: Transient block budget used when the caller sets no explicit budget.
DEFAULT_BLOCK_BYTES = 8 * 1024 * 1024

#: Rows probed up front to seed the neighbor-graph radius cap.
_PROBE_ROWS = 64

#: Working copies a distance block needs per output cell (the matmul
#: output, the assembled block, and numpy temporaries).
_BYTES_PER_CELL = 3 * 8

DISTANCE_PASSES = obs.counter(
    "repro_analyzer_distance_passes_total",
    "Full self-pairwise distance passes over a feature matrix.",
)
_EXTRA_ROWS = obs.counter(
    "repro_analyzer_distance_extra_rows_total",
    "Individual rows recomputed outside a counted full pass "
    "(eps probes and radius-cap revisits).",
)


def reset_pass_counter() -> None:
    """Zero the pass counter (benchmarks and the distance-pass tests)."""
    DISTANCE_PASSES.labels()._reset()
    _EXTRA_ROWS.labels()._reset()


def distance_passes() -> int:
    """Full self-pairwise passes recorded since the last reset."""
    return int(DISTANCE_PASSES.labels().value)


def block_rows(
    n_rows: int, n_columns: int, memory_budget_bytes: float | None, what: str = "distance block"
) -> int:
    """Rows per distance block under the budget (>= 1 or raises).

    Capped by the rows being blocked, not the column count, so a k-means
    assignment (steps x restarts*k centers) is one BLAS call up to the budget.
    """
    if n_columns <= 0:
        return 1
    budget = DEFAULT_BLOCK_BYTES if memory_budget_bytes is None else memory_budget_bytes
    rows = int(budget // (n_columns * _BYTES_PER_CELL))
    if rows < 1:
        if memory_budget_bytes is not None:
            raise AnalyzerMemoryError(
                f"{what} needs {n_columns * _BYTES_PER_CELL:.0f} B for a single "
                f"row, over the {memory_budget_bytes:.0f} B budget"
            )
        rows = 1
    return min(rows, max(n_rows, 1))


def _sq_block(
    block: np.ndarray,
    other: np.ndarray,
    block_sq: np.ndarray,
    other_sq: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distances of one row block against all of ``other``.

    Computes ``(block_sq + other_sq) - 2 * cross`` in place, into ``out``
    when given; the rounding is that of the expression written out.
    """
    cross = block @ other.T
    cross *= 2.0
    sq = np.add(block_sq[:, None], other_sq[None, :], out=out)
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    return sq


def row_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norm of every row of ``a``, as :func:`pairwise_sq_distances` computes it."""
    a = np.ascontiguousarray(a, dtype=float)
    return np.einsum("ij,ij->i", a, a)


def pairwise_sq_distances(
    a: np.ndarray,
    b: np.ndarray | None = None,
    *,
    a_sq: np.ndarray | None = None,
    memory_budget_bytes: float | None = None,
) -> np.ndarray:
    """Full (n, m) squared-distance matrix, computed in row blocks.

    ``b=None`` means self-pairwise and counts one distance pass; the
    blocked computation only bounds *transient* memory — the caller
    still owns the O(n m) result. A caller that measures one ``a``
    against many ``b`` passes ``a_sq = row_sq_norms(a)`` once.
    """
    if a.ndim != 2:
        raise ClusteringError("pairwise distances need a 2-D matrix")
    other = a if b is None else b
    if other.ndim != 2 or other.shape[1] != a.shape[1]:
        raise ClusteringError("pairwise operands must share their feature dimension")
    a = np.ascontiguousarray(a, dtype=float)
    other = a if b is None else np.ascontiguousarray(other, dtype=float)
    if a_sq is None:
        a_sq = row_sq_norms(a)
    other_sq = a_sq if b is None else row_sq_norms(other)
    out = np.empty((a.shape[0], other.shape[0]))
    rows = block_rows(a.shape[0], other.shape[0], memory_budget_bytes)
    for start in range(0, a.shape[0], rows):
        stop = min(start + rows, a.shape[0])
        _sq_block(a[start:stop], other, a_sq[start:stop], other_sq, out[start:stop])
    if b is None:
        DISTANCE_PASSES.labels().inc()
    return out


def pairwise_distances(
    a: np.ndarray,
    b: np.ndarray | None = None,
    *,
    memory_budget_bytes: float | None = None,
) -> np.ndarray:
    """Euclidean counterpart of :func:`pairwise_sq_distances`."""
    return np.sqrt(pairwise_sq_distances(a, b, memory_budget_bytes=memory_budget_bytes))


def kth_neighbor_distances(
    matrix: np.ndarray, k: int, *, memory_budget_bytes: float | None = None
) -> np.ndarray:
    """Per-row distance to the k-th nearest point (self counts as 0th).

    One blocked pass; O(block x n) transient memory. ``k`` clamps to
    ``n - 1`` exactly as the sort-based heuristic did.
    """
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError("k-distance needs a non-empty 2-D matrix")
    n = matrix.shape[0]
    column = min(max(k, 0), n - 1)
    matrix = np.ascontiguousarray(matrix, dtype=float)
    row_sq = np.einsum("ij,ij->i", matrix, matrix)
    out = np.empty(n)
    rows = block_rows(n, n, memory_budget_bytes, "k-distance block")
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        sq = _sq_block(matrix[start:stop], matrix, row_sq[start:stop], row_sq)
        if column == 0:
            out[start:stop] = sq.min(axis=1)
        else:
            out[start:stop] = np.partition(sq, column, axis=1)[:, column]
    DISTANCE_PASSES.labels().inc()
    return np.sqrt(out)


@dataclass(frozen=True)
class NeighborGraph:
    """The eps-neighborhood graph of one feature matrix, in CSR form.

    ``indices[indptr[i]:indptr[i + 1]]`` are the points within ``eps``
    of point ``i`` (ascending, self included — the same convention the
    per-point ``flatnonzero`` lists followed). Neighbor *counts* come
    from ``indptr`` alone, so a min_samples sweep never materializes a
    per-point Python list.
    """

    eps: float
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_points(self) -> int:
        """Number of points the graph indexes."""
        return len(self.indptr) - 1

    @property
    def counts(self) -> np.ndarray:
        """Neighbors (self included) per point; the core-point test input."""
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbor indices of point ``i`` (a CSR slice, no copy)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def memory_bytes(self) -> int:
        """Approximate resident size of the adjacency arrays."""
        return int(self.indptr.nbytes + self.indices.nbytes)


def _probe_cap_sq(
    matrix: np.ndarray, row_sq: np.ndarray, column: int, rows: int
) -> float:
    """Upper-bound estimate of the k-distance spread from a row sample.

    Costs O(probe x n x d) — sublinear in the pass itself — and makes
    cap revisits in :func:`build_neighbor_graph` vanishingly rare.
    """
    n = matrix.shape[0]
    probe = np.unique(np.linspace(0, n - 1, min(n, _PROBE_ROWS)).astype(int))
    cap_sq = 0.0
    for start in range(0, len(probe), rows):
        chunk = probe[start : start + rows]
        sq = _sq_block(matrix[chunk], matrix, row_sq[chunk], row_sq)
        if column == 0:
            kth = sq.min(axis=1)
        else:
            kth = np.partition(sq, column, axis=1)[:, column]
        cap_sq = max(cap_sq, float(kth.max()))
    _EXTRA_ROWS.labels().inc(len(probe))
    return cap_sq


def build_neighbor_graph(
    matrix: np.ndarray,
    eps: float | None = None,
    *,
    neighbor: int = 10,
    percentile: float = 75.0,
    memory_budget_bytes: float | None = None,
) -> NeighborGraph:
    """Neighbor graph — and, when ``eps`` is None, eps itself — in ONE pass.

    With an explicit ``eps`` each block filters directly. With
    ``eps=None`` the same traversal also extracts every row's
    ``neighbor``-th smallest distance (the k-distance heuristic
    :func:`repro.core.analyzer.dbscan.default_eps` uses); rows are
    provisionally stored out to a radius *cap* seeded from a probe
    sample and grown monotonically, and any early row whose cap ended
    below the final eps is recomputed individually (counted under
    ``repro_analyzer_distance_extra_rows_total``, almost always zero).
    The graph honors ``memory_budget_bytes`` for both the transient
    block and the accumulated adjacency.
    """
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError("a neighbor graph needs a non-empty 2-D matrix")
    if eps is not None and eps <= 0.0:
        raise ClusteringError("eps must be positive")
    n = matrix.shape[0]
    matrix = np.ascontiguousarray(matrix, dtype=float)
    row_sq = np.einsum("ij,ij->i", matrix, matrix)
    column = min(max(neighbor, 0), n - 1)
    rows = block_rows(n, n, memory_budget_bytes, "DBSCAN distance block")

    auto_eps = eps is None
    if auto_eps:
        cap_sq = _probe_cap_sq(matrix, row_sq, column, rows)
        kth_sq = np.empty(n)
    else:
        cap_sq = float(eps) * float(eps)
    neighbor_idx: list[np.ndarray] = []
    neighbor_sq: list[np.ndarray] = [] if auto_eps else None
    stored_radius_sq = np.empty(n) if auto_eps else None
    adjacency_bytes = 0

    with obs.trace("analyzer.neighbor_graph", points=n, block_rows=rows) as span:
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            sq = _sq_block(matrix[start:stop], matrix, row_sq[start:stop], row_sq)
            if auto_eps:
                if column == 0:
                    kth_sq[start:stop] = sq.min(axis=1)
                else:
                    kth_sq[start:stop] = np.partition(sq, column, axis=1)[:, column]
                # The cap only grows; rows stored under a smaller cap
                # remember their radius for the revisit check below.
                cap_sq = max(cap_sq, float(kth_sq[start:stop].max()))
                stored_radius_sq[start:stop] = cap_sq
            for local, row in enumerate(range(start, stop)):
                within = np.flatnonzero(sq[local] <= cap_sq)
                neighbor_idx.append(within.astype(np.int64))
                if auto_eps:
                    neighbor_sq.append(sq[local, within])
                adjacency_bytes += within.nbytes
                if (
                    memory_budget_bytes is not None
                    and adjacency_bytes > memory_budget_bytes
                ):
                    raise AnalyzerMemoryError(
                        f"DBSCAN neighbor graph exceeds the "
                        f"{memory_budget_bytes:.0f} B budget after {row + 1} rows"
                    )
        DISTANCE_PASSES.labels().inc()

        if auto_eps:
            kth = np.sqrt(kth_sq)
            eps = float(np.percentile(kth, percentile))
            if eps <= 0.0:
                eps = 1.0
            eps_sq = eps * eps
            stale = np.flatnonzero(stored_radius_sq < eps_sq)
            # A block's rows share one stored radius, so stale rows fill
            # whole blocks. Each is recomputed as the same block product:
            # a distance's last bits depend on the shape of that product,
            # and the graph must equal one built with this eps given.
            for start in range(0, n, rows):
                if stored_radius_sq[start] >= eps_sq:
                    continue
                stop = min(start + rows, n)
                sq = _sq_block(matrix[start:stop], matrix, row_sq[start:stop], row_sq)
                for local, row in enumerate(range(start, stop)):
                    within = np.flatnonzero(sq[local] <= eps_sq)
                    neighbor_idx[row] = within.astype(np.int64)
                    neighbor_sq[row] = sq[local, within]
            if len(stale):
                _EXTRA_ROWS.labels().inc(len(stale))
            # Trim provisional entries beyond the final eps.
            for row in range(n):
                keep = neighbor_sq[row] <= eps_sq
                if not keep.all():
                    neighbor_idx[row] = neighbor_idx[row][keep]
            span.set(eps=eps, revisited=len(stale))

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(ix) for ix in neighbor_idx], out=indptr[1:])
        indices = (
            np.concatenate(neighbor_idx) if n else np.empty(0, dtype=np.int64)
        )
        span.set(edges=int(indptr[-1]))
    return NeighborGraph(eps=float(eps), indptr=indptr, indices=indices)
