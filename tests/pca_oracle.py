"""Thin-SVD PCA, the plainly correct oracle for ``pca_project``.

It decomposes the whole standardized population with ``np.linalg.svd`` and
keeps the leading right singular vectors.  The implementation under test
takes the same components from the eigenvectors of the smaller Gram matrix;
its standardization and all-constant branch are the same code as here, and
both orient their components with the one sign rule
(``static_analysis._orient_components``, fed the squared singular values as
the Gram eigenvalues), so the two differ only in the decomposition.
"""

from __future__ import annotations

import numpy as np

from moe_lens.static_analysis import Projection, _orient_components


def pca_project(vectors: np.ndarray, dims: int = 2, standardize: bool = True) -> Projection:
    """Project the rows of ``vectors`` [n, features] onto their leading
    principal components.

    With ``standardize``, features are shifted to zero mean and unit variance
    first and zero-variance features are dropped.  Component signs follow a
    fixed convention (the first entry within rounding of the largest
    magnitude is positive), so output is deterministic.  A population in
    which no feature varies puts every point at the origin with zero
    explained variance.
    """
    data = np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("vectors must be a 2-D array")
    n, n_features = data.shape
    if dims < 1:
        raise ValueError("dims must be positive")
    if n < dims:
        raise ValueError("fewer samples than dims")

    center = data.mean(axis=0)
    kept = np.arange(n_features)
    scale = None
    if standardize:
        sd = data.std(axis=0)
        kept = np.flatnonzero(sd > 0.0)
        scale = sd[kept]
        work = (data[:, kept] - center[kept]) / scale
    else:
        work = data - center
    if not work.any():
        # Nothing varies, so no direction explains anything.
        components = np.zeros((dims, work.shape[1]))
        explained = np.zeros(dims)
    elif work.shape[1] < dims:
        raise ValueError("fewer features than dims")
    else:
        _, singular, vt = np.linalg.svd(work, full_matrices=False)
        components = vt[:dims].copy()
        trace = (singular ** 2).sum()
        rounding = (n + work.shape[1]) * np.finfo(np.float64).eps * trace
        _orient_components(components, singular[:dims] ** 2, 3 * rounding * np.sqrt(trace))
        explained = (singular[:dims] ** 2) / max(n - 1, 1)
    coords = work @ components.T

    return Projection(coords=coords, explained_variance=explained, components=components,
                      center=center, scale=scale, kept_features=kept)
