"""Thin-SVD PCA, the plainly correct oracle for ``pca_project``.

It decomposes the whole standardized population with ``np.linalg.svd`` and
keeps the leading right singular vectors.  The implementation under test
takes the same components from the eigenvectors of the smaller Gram matrix;
its standardization is the same code as here, both pad with zeros the
components past the min(n, m) that the decomposition gives, and both orient
their components with the one sign rule
(``static_analysis._orient_components``, fed the squared singular values as
the Gram eigenvalues).  The oracle has no rounding rule: a direction the
population cannot resolve keeps the SVD's singular vector and a singular
value that is rounding noise (or exactly 0 when nothing varies), where the
implementation zeroes the component.  Coordinates and explained variance
agree to rounding either way.
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
    magnitude is positive), so output is deterministic.  Components past the
    min(n, m) that the SVD gives, m the kept features, are zero.
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
    _, singular, vt = np.linalg.svd(work, full_matrices=False)
    trace = (singular ** 2).sum()
    missing = dims - min(len(singular), dims)
    singular = np.pad(singular[:dims], (0, missing))
    components = np.pad(vt[:dims], ((0, missing), (0, 0)))
    rounding = (n + work.shape[1]) * np.finfo(np.float64).eps * trace
    _orient_components(components, singular ** 2, 3 * rounding * np.sqrt(trace))
    explained = singular ** 2 / max(n - 1, 1)
    coords = work @ components.T

    return Projection(coords=coords, explained_variance=explained, components=components,
                      center=center, scale=scale, kept_features=kept)
