"""Weight-space similarity analyses over checkpoint tensors.

Everything here compares experts through their parameters alone: flattened
whole-matrix cosine, per-neuron averaging, optimal neuron reordering, gate-row
geometry, and low-dimensional projections of expert weights.  Behavioral
(forward-pass) comparisons live in ``dynamic_analysis``.  scipy is imported
inside ``solve_assignment`` and ``dbscan_outliers``, the two functions that
call it, so a command that reaches neither never loads it.  Reordering loads
it only for an expert pair whose identity matching is not certified optimal
(every a-neuron's best match is its own index, or every b-neuron's is);
Kendall's tau counts discordant pairs by bottom-up merge levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .tensor_store import Checkpoint, ffn_prefixes, gate_name

WHICH_MATRICES = ("up", "act", "down")

REFERENCE_LABEL = "F"


def cosine_sim(u, v) -> float:
    """Cosine of two equal-length vectors; zero vectors are undefined."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError("undefined similarity: length mismatch")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("undefined similarity: zero vector")
    return float(np.dot(u, v) / (nu * nv))


@dataclass
class SimilarityMatrix:
    """Symmetric pairwise similarity with labeled rows/columns.

    ``values`` holds NaN for masked (undefined) cells.  Routed experts come
    first; shared experts and a reference entry may follow.  ``s_ee`` is the
    mean off-diagonal value among routed experts, ``s_ef`` the mean
    expert-vs-reference value when a reference entity is present.
    """

    labels: list[str]
    values: np.ndarray
    metric: str  # "cosine" or "angular"
    s_ee: float | None = None
    s_ef: float | None = None
    selected_labels: list[str] | None = None


def pairwise_cosine(vectors: np.ndarray, allow_zero: bool) -> np.ndarray:
    """Cosine matrices [..., n, n] over the rows of ``vectors`` [..., n, d];
    a zero row yields a NaN row and column."""
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=-1)
    zero = norms == 0.0
    if not allow_zero and np.any(zero):
        raise ValueError("undefined similarity: zero vector")
    unit = vectors / np.where(zero, 1.0, norms)[..., None]
    values = np.clip(unit @ np.swapaxes(unit, -1, -2), -1.0, 1.0)
    return np.where(zero[..., :, None] | zero[..., None, :], np.nan, values)


def angular(cosine):
    """Cosine folded onto [0, 1]: 1 parallel, 0.5 orthogonal, 0 opposite; NaN stays NaN."""
    with np.errstate(invalid="ignore"):
        return 1.0 - np.arccos(cosine) / np.pi


def similarity_matrix(values: np.ndarray, labels: list[str], n_experts: int,
                      has_reference: bool, metric: str = "cosine",
                      selected_labels: list[str] | None = None) -> SimilarityMatrix:
    """Label an [n, n] similarity matrix and summarize it.

    The first ``n_experts`` entries are the routed experts and, with
    ``has_reference``, the last one is the reference.  ``s_ee`` and ``s_ef``
    average the defined cells of the routed block's off-diagonal and of the
    routed entries' reference column; a block with no defined cell gives None.
    """
    s_ee = None
    s_ef = None
    if n_experts >= 2:
        block = values[:n_experts, :n_experts]
        off = block[~np.eye(n_experts, dtype=bool)]
        if not np.all(np.isnan(off)):
            s_ee = float(np.nanmean(off))
    if has_reference and n_experts >= 1:
        col = values[:n_experts, -1]
        if not np.all(np.isnan(col)):
            s_ef = float(np.nanmean(col))
    return SimilarityMatrix(labels=list(labels), values=values, metric=metric,
                            s_ee=s_ee, s_ef=s_ef, selected_labels=selected_labels)


def layer_weights(ckpt: Checkpoint, layer: int, which: str,
                  reference: Checkpoint | None = None) -> tuple[np.ndarray, list[str]]:
    """The chosen matrix of every expert of one layer as one float64
    [E, rows, cols] stack in stored orientation, with the experts' labels.

    A dense layer is its one FFN.  The reference FFN, when given (see
    ``ModelConfig.check_reference``), comes last, labelled ``F``.
    """
    if which not in WHICH_MATRICES:
        raise ValueError(f"unknown matrix selector: {which!r}")
    config = ckpt.config
    if not 0 <= layer < config.num_layers:
        raise ValueError(f"layer {layer} out of range")
    mats = [ckpt.get_tensor(f"{prefix}.w_{which}") for prefix in ffn_prefixes(config, layer)[0]]
    labels = [str(e) for e in range(len(mats))]
    if reference is not None:
        config.check_reference(reference.config)
        (ffn,), _ = ffn_prefixes(reference.config, layer)
        mats.append(reference.get_tensor(f"{ffn}.w_{which}"))
        labels.append(REFERENCE_LABEL)
    return np.stack(mats).astype(np.float64), labels


def neuron_rows(stack: np.ndarray, which: str) -> np.ndarray:
    """``stack`` (one matrix or a stack of them) with one neuron's d_hid vector
    per row: a neuron is a row of w_up/w_act and a column of w_down.  This is
    the one place that orientation is decided."""
    return np.swapaxes(stack, -1, -2) if which == "down" else stack


def _weight_sim(ckpt: Checkpoint, layer: int, which: str, reference: Checkpoint | None,
                vectors_of) -> SimilarityMatrix:
    """Pairwise cosine over one vector per expert (and reference) of a layer."""
    stack, labels = layer_weights(ckpt, layer, which, reference)
    if ckpt.config.is_dense(layer) and reference is None:
        raise ValueError(f"layer {layer} is dense; a reference checkpoint is required")
    has_ref = reference is not None
    return similarity_matrix(pairwise_cosine(vectors_of(stack), allow_zero=False), labels,
                             len(labels) - int(has_ref), has_ref)


def matrix_level_sim(ckpt: Checkpoint, layer: int, which: str,
                     reference: Checkpoint | None = None) -> SimilarityMatrix:
    """Pairwise cosine over row-major flattened expert matrices."""
    return _weight_sim(ckpt, layer, which, reference,
                       lambda stack: stack.reshape(len(stack), -1))


def neuron_average_sim(ckpt: Checkpoint, layer: int, which: str,
                       reference: Checkpoint | None = None) -> SimilarityMatrix:
    """Pairwise cosine over per-expert mean neuron vectors.

    A neuron's vector is a row of w_up/w_act or a column of w_down; averaging
    collapses each expert to one d_hid vector, which discards neuron identity
    and with it most of the signal that flattened comparison sees.
    """
    return _weight_sim(ckpt, layer, which, reference,
                       lambda stack: neuron_rows(stack, which).mean(axis=1))


def solve_assignment(score: np.ndarray) -> np.ndarray:
    """Maximum-total one-to-one assignment on a square score matrix.

    Returns ``perm`` with row ``i`` assigned to column ``perm[i]``.  Tie rule:
    whenever the identity assignment attains the optimal total, identity is
    returned.  When every diagonal entry is its row's best, or every one is
    its column's best, that proves identity optimal without scipy, which is
    imported only for a matrix that lacks both certificates.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ValueError("score matrix must be square")
    if not np.all(np.isfinite(score)):
        raise ValueError("score matrix must be finite")
    idx = np.arange(score.shape[0])
    diagonal = score[idx, idx]
    # The row (or column) optima summed bound every assignment's total; identity
    # attains each of them, so it is optimal and the tie rule returns it.
    if (score <= diagonal[:, None]).all() or (score <= diagonal).all():
        return idx
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(score, maximize=True)
    perm = cols[np.argsort(rows)]
    best = score[idx, perm].sum()
    if diagonal.sum() >= best:
        return idx
    return perm


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


@dataclass
class ReorderReport:
    """Outcome of aligning expert_b's neurons against expert_a's."""

    permutation: np.ndarray  # permutation[j] = a-neuron index matched to b-neuron j
    sim_before: float
    sim_after: float
    tau: float
    pair: tuple[str, str] | None = None


def reorder_neurons(a: np.ndarray, b: np.ndarray,
                    pair: tuple[str, str] | None = None) -> ReorderReport:
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
                         sim_after=sim_after, tau=tau, pair=pair)


def gate_embedding_sim(ckpt: Checkpoint, layer: int) -> SimilarityMatrix:
    """Pairwise cosine over the gate's per-expert rows."""
    config = ckpt.config
    if not 0 <= layer < config.num_layers:
        raise ValueError(f"layer {layer} out of range")
    if config.is_dense(layer):
        raise ValueError(f"layer {layer} is dense and has no gate")
    rows = np.asarray(ckpt.get_tensor(gate_name(layer)), dtype=np.float64)
    labels = [str(e) for e in range(rows.shape[0])]
    return similarity_matrix(pairwise_cosine(rows, allow_zero=False), labels, rows.shape[0],
                             has_reference=False)


def pearson_r(xs, ys) -> float:
    """Pearson correlation; degenerate when either side has zero variance."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-d and equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    xd = x - x.mean()
    yd = y - y.mean()
    vx = np.dot(xd, xd)
    vy = np.dot(yd, yd)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("degenerate regression: zero variance")
    return float(np.dot(xd, yd) / np.sqrt(vx * vy))


@dataclass
class RegressionReport:
    n_pairs: int
    r: float
    r2: float


def _upper_triangle(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    iu = np.triu_indices(n, k=1)
    return values[iu]


def gate_expert_regression(ckpt: Checkpoint, layer: int, which: str) -> RegressionReport:
    """Correlate gate-row similarities with neuron-averaged expert similarities.

    Both sides are the upper triangle (i < j) over routed expert pairs of one
    layer.  Needs at least three experts so the triangle has spread.
    """
    config = ckpt.config
    if config.is_dense(layer):
        raise ValueError(f"layer {layer} is dense and has no gate")
    if config.experts_per_layer[layer] < 3:
        raise ValueError("regression needs at least 3 experts")
    x = _upper_triangle(gate_embedding_sim(ckpt, layer).values)
    y = _upper_triangle(neuron_average_sim(ckpt, layer, which).values)
    r = pearson_r(x, y)
    return RegressionReport(n_pairs=x.size, r=r, r2=r * r)


def aggregate_r2(reports: list[RegressionReport]) -> float:
    """Mean r-squared over per-layer regression reports."""
    if not reports:
        raise ValueError("no regression reports to aggregate")
    return float(np.mean([rep.r2 for rep in reports]))


@dataclass
class Projection:
    """PCA projection with enough context to reconstruct or replot."""

    labels: list[str]
    coords: np.ndarray  # [n, dims]
    explained_variance: np.ndarray
    outliers: list[str]
    components: np.ndarray  # [dims, n_kept_features]
    center: np.ndarray
    scale: np.ndarray | None
    kept_features: np.ndarray


def pca_project(vectors: np.ndarray, dims: int = 2, standardize: bool = True,
                labels: list[str] | None = None) -> Projection:
    """Project the rows of ``vectors`` [n, features] onto their leading
    principal components.

    With ``standardize``, features are shifted to zero mean and unit variance
    first and zero-variance features are dropped.  Component signs follow a
    fixed convention (largest-magnitude entry positive), so output is
    deterministic.
    """
    data = np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("vectors must be a 2-D array")
    n, n_features = data.shape
    if labels is None:
        labels = [str(i) for i in range(n)]
    if len(labels) != n:
        raise ValueError("labels length must match vector count")
    if dims < 1:
        raise ValueError("dims must be positive")
    if n < dims + 1:
        raise ValueError("fewer samples than dims")

    center = data.mean(axis=0)
    kept = np.arange(n_features)
    scale = None
    if standardize:
        sd = data.std(axis=0)
        kept = np.flatnonzero(sd > 0.0)
        if kept.size == 0:
            raise ValueError("all features have zero variance")
        scale = sd[kept]
        work = (data[:, kept] - center[kept]) / scale
    else:
        work = data - center
    if work.shape[1] < dims:
        raise ValueError("fewer features than dims")

    _, singular, vt = np.linalg.svd(work, full_matrices=False)
    components = vt[:dims].copy()
    for row in components:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    coords = work @ components.T
    explained = (singular[:dims] ** 2) / max(n - 1, 1)

    return Projection(labels=list(labels), coords=coords, explained_variance=explained,
                      outliers=[], components=components, center=center, scale=scale,
                      kept_features=kept)


def reconstruct(projection: Projection) -> np.ndarray:
    """Map projected points back to the (kept-feature) input space."""
    work = projection.coords @ projection.components
    if projection.scale is not None:
        return work * projection.scale + projection.center[projection.kept_features]
    return work + projection.center


def dbscan_outliers(points, eps: float, min_pts: int = 2) -> set:
    """Indices of density-noise points under Euclidean DBSCAN.

    A point is core when its eps-ball (itself included) holds at least
    ``min_pts`` points.  By DBSCAN's definition (Ester et al., KDD 1996) a
    point is noise when it is not core and no core point lies within ``eps``
    of it, so two ball counts decide it without labelling any cluster.  With
    min_pts=1 every point is core, so nothing is ever flagged.
    """
    data = np.asarray(points, dtype=np.float64)
    data = data.reshape(data.shape[0], -1)
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps}")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    from scipy.spatial import cKDTree

    def within_eps(centers: np.ndarray) -> np.ndarray:
        return cKDTree(centers).query_ball_point(data, eps, return_length=True)

    core = within_eps(data) >= min_pts
    # Core points count themselves, so a count of zero marks exactly the noise.
    return set(np.flatnonzero(within_eps(data[core]) == 0).tolist())


def filter_outliers(projection: Projection, eps: float, min_pts: int = 2) -> Projection:
    """Drop DBSCAN-noise points from a projection, recording their labels."""
    keep = np.ones(len(projection.labels), dtype=bool)
    keep[list(dbscan_outliers(projection.coords, eps=eps, min_pts=min_pts))] = False
    return replace(projection, coords=projection.coords[keep],
                   labels=[lab for lab, k in zip(projection.labels, keep) if k],
                   outliers=[lab for lab, k in zip(projection.labels, keep) if not k])


def pairwise_reorder_reports(ckpt: Checkpoint, layer: int, which: str) -> list[ReorderReport]:
    """Reorder reports for every routed expert pair (i < j) of one layer."""
    if ckpt.config.is_dense(layer):
        raise ValueError(f"layer {layer} is dense; nothing to reorder")
    rows = neuron_rows(layer_weights(ckpt, layer, which)[0], which)
    return [reorder_neurons(rows[i], rows[j], pair=(str(i), str(j)))
            for i, j in itertools.combinations(range(len(rows)), 2)]
