"""Per-pair neuron reordering, the plainly correct oracle for the one-pass
``static_analysis.pairwise_reorder_reports``.

Each pair is aligned on its own: both experts' norms, one score matrix, one
assignment and a scalar Kendall tau that walks its merge levels for that pair
alone.  The implementation under test takes each expert's norm once per
layer and counts the inversions of every pair's permutation together; it
shares ``solve_assignment`` and ``ReorderReport`` with this module, so the two
differ only in how the pass is batched.
"""

from __future__ import annotations

import itertools

import numpy as np

from moe_lens.static_analysis import ReorderReport, solve_assignment


def kendall_tau(seq_a, seq_b) -> float:
    """Tie-free Kendall rank coefficient between two permutations of one set.

    Counts concordant minus discordant position pairs over n(n-1)/2.  The
    discordant pairs are the inversions of b's ranks listed in a's order,
    counted exactly by bottom-up merge levels in O(n log n).
    """
    a = list(seq_a)
    b = list(seq_b)
    n = len(a)
    if n != len(b):
        raise ValueError("sequences must have equal length")
    if n < 2:
        raise ValueError("need at least two elements")
    if len(set(a)) != n or sorted(a) != sorted(b):
        raise ValueError("inputs must be permutations of the same set")
    # A pair is discordant when b, listed in a's order, is inverted there;
    # concordant minus discordant is then total - 2 * discordant, exactly.
    rank_b = np.empty(n, dtype=np.int64)
    rank_b[np.argsort(b)] = np.arange(n)
    # Padding up to a power of two with larger, increasing ranks adds no inversion.
    m = 1 << (n - 1).bit_length()
    ranks = np.concatenate([rank_b[np.argsort(a)], np.arange(n, m)])
    discordant, width = 0, 1
    while width < m:
        runs = ranks.reshape(-1, 2, width)  # per block, a sorted left and right run
        block = np.arange(len(runs))
        # Block offsets keep the keys of each block above those of the ones before.
        keys = runs + block[:, None, None] * m
        # Per right-run entry, the left-run entries of its block below it.
        below = (np.searchsorted(keys[:, 0].ravel(), keys[:, 1].ravel())
                 - np.repeat(block * width, width))
        discordant += int((width - below).sum())
        ranks = np.sort(runs.reshape(-1, 2 * width), axis=1).ravel()
        width *= 2
    total = n * (n - 1) // 2
    return (total - 2 * discordant) / total


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
    tau = kendall_tau(perm.tolist(), list(range(n)))
    return ReorderReport(permutation=perm, sim_before=sim_before,
                         sim_after=sim_after, tau=tau)


def pairwise_reorder_reports(rows: np.ndarray) -> list[ReorderReport]:
    """Reorder reports for every expert pair (i < j) of a layer's neuron stack
    ``rows`` [E, n, d], one pair at a time, in ``itertools.combinations`` order."""
    return [reorder_neurons(rows[i], rows[j])
            for i, j in itertools.combinations(range(len(rows)), 2)]
