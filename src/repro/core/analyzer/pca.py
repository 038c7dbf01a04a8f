"""Principal component analysis, implemented from scratch.

TPUPoint-Analyzer reduces each step's frequency vector to at most 100
dimensions with PCA before clustering (Section IV-A), following
SimPoint's use of dimension reduction before k-means.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalyzerError


class PCA:
    """Truncated PCA via singular value decomposition."""

    def __init__(self, max_components: int = 100):
        if max_components <= 0:
            raise AnalyzerError("max_components must be positive")
        self.max_components = max_components
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self.components_ is not None

    def fit(self, matrix: np.ndarray) -> "PCA":
        """Learn the principal axes of ``matrix`` (rows are samples)."""
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise AnalyzerError("PCA needs a non-empty 2-D matrix")
        if not np.isfinite(matrix).all():
            raise AnalyzerError("PCA needs finite features; the matrix holds NaN or infinity")
        self.mean_ = matrix.mean(axis=0, keepdims=True)
        centered = matrix - self.mean_
        # SVD of the centered data: rows project onto V's leading rows.
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        rank = min(self.max_components, vt.shape[0])
        self.components_ = vt[:rank]
        denominator = max(matrix.shape[0] - 1, 1)
        self.explained_variance_ = (singular_values[:rank] ** 2) / denominator
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Project samples onto the learned axes."""
        if not self.fitted:
            raise AnalyzerError("PCA.transform called before fit")
        return (matrix - self.mean_) @ self.components_.T

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        """Fit and project in one call."""
        return self.fit(matrix).transform(matrix)

    def explained_variance_ratio(self) -> np.ndarray:
        """Per-component fraction of total variance captured."""
        if self.explained_variance_ is None:
            raise AnalyzerError("PCA not fitted")
        total = self.explained_variance_.sum()
        if total == 0.0:
            return np.zeros_like(self.explained_variance_)
        return self.explained_variance_ / total
