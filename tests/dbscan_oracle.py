"""Brute-force DBSCAN, the plainly correct oracle for ``dbscan_outliers``.

It measures every pairwise distance, one point's row at a time, and labels
clusters by breadth-first expansion from core points, as in Ester et al.
(KDD 1996); whatever no cluster claims is noise.  The implementation under
test only counts eps-balls, over tiles of points sorted by their first
coordinate, and never labels clusters.
"""

from __future__ import annotations

import numpy as np


def dbscan_noise(points, eps: float, min_pts: int) -> set[int]:
    """Indices of the points that no cluster claims."""
    data = np.asarray([np.ravel(p) for p in points], dtype=np.float64)
    n = data.shape[0]
    neighbors = []
    for point in data:
        diff = data - point
        neighbors.append(np.flatnonzero(np.sqrt((diff * diff).sum(axis=1)) <= eps))
    core = [len(nb) >= min_pts for nb in neighbors]

    assignment = [-1] * n  # -1 noise until claimed by a cluster
    cluster = 0
    for start in range(n):
        if assignment[start] != -1 or not core[start]:
            continue
        cluster += 1
        queue = [start]
        assignment[start] = cluster
        while queue:
            p = queue.pop()
            if not core[p]:
                continue
            for q in neighbors[p]:
                if assignment[q] == -1:
                    assignment[q] = cluster
                    queue.append(q)
    return {i for i in range(n) if assignment[i] == -1}
