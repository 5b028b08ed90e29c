"""Per-pair neuron reordering, the plainly correct oracle for the one-pass
``static_analysis.pairwise_reorder_reports``.

Each pair is aligned on its own: both experts' norms, one score matrix, one
assignment, and ``kendall_ref``'s tau, which compares every pair of positions
in plain Python.  The implementation under test takes each expert's norm once
per layer and counts a permutation's discordant pairs against one boolean
mask per layer.  It shares ``solve_assignment`` and ``ReorderReport`` with
this module, so the two differ in how norms are taken and how tau is counted,
not in the assignment.
"""

from __future__ import annotations

import itertools

import numpy as np
from conftest import kendall_ref

from moe_lens.static_analysis import ReorderReport, solve_assignment


def reorder_neurons(a: np.ndarray, b: np.ndarray) -> ReorderReport:
    """Match b's neurons to a's so the flattened cosine is maximized.

    ``a`` and ``b`` hold one neuron per row (see ``neuron_rows``).  The
    assignment scores every a-neuron against every b-neuron by raw dot
    product: summed over an assignment these equal the flattened-matrix inner
    product, whose normalization is permutation invariant, so the assignment
    that maximizes this total maximizes the whole-matrix cosine exactly.
    Per-neuron cosines lack that guarantee (the matching can then trade
    norm-weighted agreement away and end up below the unpermuted similarity).
    Zero-norm neurons score 0 against everything.

    ``sim_before``/``sim_after`` are flattened-matrix cosines of the chosen
    matrix before and after applying the matching: the score matrix's diagonal
    and assigned sums over the product of the two matrices' norms.  ``tau`` is
    the Kendall coefficient of the recovered permutation against identity.
    Because the assignment optimizes the same objective it is scored by,
    ``sim_after`` can never fall below ``sim_before``.
    """
    if a.shape != b.shape:
        raise ValueError("experts have different neuron dimensions")
    score = a @ b.T
    row_to_col = solve_assignment(score)
    n = len(row_to_col)
    perm = np.empty(n, dtype=int)
    perm[row_to_col] = np.arange(n)  # b-neuron j -> a-neuron perm[j]
    norms = np.linalg.norm(a) * np.linalg.norm(b)
    if norms == 0.0:
        raise ValueError("undefined similarity: zero vector")
    idx = np.arange(n)
    sim_before = float(score[idx, idx].sum() / norms)
    sim_after = float(score[idx, row_to_col].sum() / norms)
    tau = kendall_ref(perm.tolist(), list(range(n)))
    return ReorderReport(permutation=perm, sim_before=sim_before,
                         sim_after=sim_after, tau=tau)


def pairwise_reorder_reports(rows: np.ndarray) -> list[ReorderReport]:
    """Reorder reports for every expert pair (i < j) of a layer's neuron stack
    ``rows`` [E, n, d], one pair at a time, in ``itertools.combinations`` order."""
    return [reorder_neurons(rows[i], rows[j])
            for i, j in itertools.combinations(range(len(rows)), 2)]
