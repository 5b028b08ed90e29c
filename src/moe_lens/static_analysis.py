"""Weight-space similarity analyses over checkpoint tensors.

Everything here compares experts through their parameters alone: flattened
whole-matrix cosine, per-neuron averaging, optimal neuron reordering, gate-row
geometry, and low-dimensional projections of expert weights.  Behavioral
(forward-pass) comparisons live in ``dynamic_analysis``.  One reader,
``layer_weights``, reads a layer's expert matrices as one [E, rows, cols]
array and owns the rule that a dense layer is read only with a reference; the
expert analyses reduce its arrays.  ``gate_embedding_sim`` reads the gate, and
``gate_expert_regression`` correlates its matrix with an expert one.
``pairwise_cosine`` is the one cosine kernel.  Reordering, PCA and DBSCAN
return arrays in the order of their input rows, and the commands name, filter
and tabulate those rows.  scipy is imported only inside ``solve_assignment``,
so a command that does not reach it never loads scipy.  Reordering makes one
pass over a layer's [E, n, d] neuron stack: each expert's norm once, then one
score matrix and one assignment per expert pair, loading scipy only for a pair
whose identity matching is not certified optimal (every a-neuron's best match
is its own index, or every b-neuron's is), and one count of the discordant
pairs of a non-identity permutation, for Kendall's tau.  PCA takes its few
components from the eigenvectors of the smaller Gram matrix of the population
(features x features for neurons, experts x experts for whole matrices), not
from an SVD of the whole population.  DBSCAN counts its eps-balls in numpy,
over dense tiles of points sorted by their widest coordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tensor_store import Checkpoint

WHICH_MATRICES = ("up", "act", "down")

REFERENCE_LABEL = "F"


@dataclass
class SimilarityMatrix:
    """Symmetric pairwise similarity with labeled rows/columns.

    ``values`` holds NaN for masked (undefined) cells.  One layout rule holds
    for every matrix: the routed experts come first, labelled by their index,
    then any shared experts (``S0``, ...), then the reference (``F``) last if
    there is one.  ``s_ee`` and ``s_ef`` read the routed entries by that rule.
    """

    labels: list[str]
    values: np.ndarray
    metric: str = "cosine"  # or "angular"
    selected_labels: list[str] | None = None

    def _routed(self) -> int:
        """How many routed experts lead the matrix: the labels that are indices."""
        return sum(label.isdigit() for label in self.labels)

    @property
    def s_ee(self) -> float | None:
        """Mean defined off-diagonal cell of the routed experts, or None."""
        n = self._routed()
        if n < 2:
            return None
        off = self.values[:n, :n][~np.eye(n, dtype=bool)]
        return None if np.all(np.isnan(off)) else float(np.nanmean(off))

    @property
    def s_ef(self) -> float | None:
        """Mean defined cell of the routed experts' reference column, or None."""
        n = self._routed()
        if n < 1 or self.labels[-1] != REFERENCE_LABEL:
            return None
        col = self.values[:n, -1]
        return None if np.all(np.isnan(col)) else float(np.nanmean(col))


def pairwise_cosine(vectors: np.ndarray, allow_zero: bool) -> np.ndarray:
    """Cosine matrices [..., n, n] over the rows of ``vectors`` [..., n, d];
    a zero row yields a NaN row and column.

    The zero test is exact, and that is safe for each kind of row callers
    pass.  Checkpoint values are float32, and a nonzero one squares to at
    least 2**-298 in float64, so a row of them (a flattened matrix, a gate
    row) has norm 0.0 only when every entry is 0.0.  Neuron means are
    computed, so ``_neuron_means`` sets a mean that rounding could have made
    nonzero to exactly zero.  Expert outputs are exactly zero when their
    input or weights are: a product with 0.0, silu(0), gelu(0) and the RMS
    normalization of 0 are all exactly 0.0.  Only an output that is zero in
    exact arithmetic because nonzero products cancel would keep a
    rounding-noise direction; weights that are not built to cancel never do.
    """
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


def layer_weights(ckpt: Checkpoint, layer: int, which: str,
                  reference: Checkpoint | None = None) -> tuple[np.ndarray, list[str]]:
    """The chosen matrix of every expert of one layer as one float64
    [E, rows, cols] stack in stored orientation, with the experts' labels.

    The weight analyses read expert weights here alone, through
    ``Checkpoint.ffns``, and every other weight analysis reduces what it
    returns.  It owns the dense-layer rule: a dense layer is its one FFN, no
    population of experts, so it is read only together with a reference.
    The reference FFN, when given (see ``ModelConfig.check_reference``),
    comes last, labelled ``F``.
    """
    if which not in WHICH_MATRICES:
        raise ValueError(f"unknown matrix selector: {which!r}")
    if reference is None and ckpt.config.is_dense(layer):
        raise ValueError(f"layer {layer} is dense: no experts to compare without a reference")
    ffns = ckpt.ffns(layer)[0]
    labels = [str(e) for e in range(len(ffns))]
    if reference is not None:
        ckpt.config.check_reference(reference.config)
        ffns += reference.ffns(layer)[0]
        labels.append(REFERENCE_LABEL)
    return np.stack([getattr(ffn, f"w_{which}") for ffn in ffns], dtype=np.float64), labels


def neuron_rows(stack: np.ndarray, which: str) -> np.ndarray:
    """``stack`` (one matrix or a stack of them) with one neuron's d_hid vector
    per row: a neuron is a row of w_up/w_act and a column of w_down.  This is
    the one place that orientation is decided."""
    return np.swapaxes(stack, -1, -2) if which == "down" else stack


def _neuron_means(stack: np.ndarray, which: str) -> np.ndarray:
    """Each expert's mean neuron vector [E, d_hid], exactly zero when every
    entry is within the rounding error of a zero mean.

    Summing n values errs by at most (n - 1)·u·Σ|x| (u the unit roundoff),
    so a mean that is 0 in exact arithmetic can come out as up to about
    n·u·max|x| in each entry.  Float32 neurons sum exactly in float64 only
    while their magnitudes span less than about 2**29 / n; neurons that
    cancel exactly but span more leave rounding noise, whose direction
    ``pairwise_cosine`` would compare.  A mean whose every entry is within
    n·eps·max|x|, max|x| the expert's largest weight magnitude (eps = 2u, a
    factor two of margin), is therefore zero.
    """
    rows = neuron_rows(stack, which)
    means = rows.mean(axis=1)
    peak = np.maximum(rows.max(axis=(1, 2)), -rows.min(axis=(1, 2)))
    noise = rows.shape[1] * np.finfo(np.float64).eps * peak
    return np.where((np.abs(means) <= noise[:, None]).all(axis=-1, keepdims=True), 0.0, means)


def matrix_level_sim(stack: np.ndarray, labels: list[str]) -> SimilarityMatrix:
    """Pairwise cosine over the row-major flattened matrices of
    ``layer_weights``' ``stack`` and ``labels``."""
    return SimilarityMatrix(labels, pairwise_cosine(stack.reshape(len(stack), -1),
                                                    allow_zero=False))


def neuron_average_sim(stack: np.ndarray, labels: list[str], which: str) -> SimilarityMatrix:
    """Pairwise cosine over the per-expert mean neuron vectors of
    ``layer_weights``' ``stack`` and ``labels`` of matrix ``which``.

    A neuron's vector is a row of w_up/w_act or a column of w_down; averaging
    collapses each expert to one d_hid vector, which discards neuron identity
    and with it most of the signal that flattened comparison sees.
    """
    return SimilarityMatrix(labels, pairwise_cosine(_neuron_means(stack, which),
                                                    allow_zero=False))


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
    return _assignment(score)


def _assignment(score: np.ndarray) -> np.ndarray:
    """``solve_assignment`` on a square, finite float64 ``score``, unchecked."""
    idx = np.arange(score.shape[0])
    diagonal = score[idx, idx]
    # The row (or column) optima summed bound every assignment's total; identity
    # attains each of them, so it is optimal and the tie rule returns it.
    if (score <= diagonal[:, None]).all() or (score <= diagonal).all():
        return idx
    from scipy.optimize import linear_sum_assignment
    # On a square matrix scipy returns the rows as arange(n), so cols is the permutation.
    perm = linear_sum_assignment(score, maximize=True)[1]
    best = score[idx, perm].sum()
    if diagonal.sum() >= best:
        return idx
    return perm


def _tau(perm: np.ndarray, later: np.ndarray) -> float:
    """Kendall's tau of ``perm``, a permutation of range(n), n >= 2, against
    identity: (pairs - 2 * discordant) / pairs, both counts exact.  ``later``,
    ``np.tri(n, k=-1, dtype=bool)``, marks the positions j < i, so a
    discordant pair is one where perm[i] < perm[j]; 3n² bytes of booleans."""
    pairs = len(perm) * (len(perm) - 1) // 2
    discordant = np.count_nonzero((perm[:, None] < perm) & later)
    return (pairs - 2 * discordant) / pairs


def kendall_tau(seq_a, seq_b) -> float:
    """Tie-free Kendall rank coefficient between two permutations of one set:
    the tau of b's ranks listed in a's order, against identity.  Its pair
    count holds 3n² bytes of booleans, about 0.6 GB at n = 14,336."""
    a = list(seq_a)
    b = list(seq_b)
    n = len(a)
    if n != len(b):
        raise ValueError("sequences must have equal length")
    if n < 2:
        raise ValueError("need at least two elements")
    if len(set(a)) != n or sorted(a) != sorted(b):
        raise ValueError("inputs must be permutations of the same set")
    rank_b = np.empty(n, dtype=np.int64)
    rank_b[np.argsort(b)] = np.arange(n)
    return _tau(rank_b[np.argsort(a)], np.tri(n, k=-1, dtype=bool))


@dataclass
class ReorderReport:
    """Outcome of aligning expert_b's neurons against expert_a's."""

    permutation: np.ndarray  # permutation[j] = a-neuron index matched to b-neuron j
    sim_before: float
    sim_after: float
    tau: float | None  # None with fewer than two neurons


def pairwise_reorder_reports(rows) -> list[ReorderReport]:
    """``reorder_neurons`` for every expert pair i < j of a layer's neuron
    stack ``rows`` [E, n, d] (``neuron_rows`` of ``layer_weights``), in
    ``itertools.combinations`` order, so the caller names the pairs: each
    norm once, an all-zero or too large expert refused before any score
    matrix, then per pair one score matrix, one assignment and, unless it is
    identity (tau exactly 1.0, ``sim_after`` = ``sim_before``), one ``_tau``.
    The count is O(n²) like the score matrix, and its booleans are 3/8 of the
    matrix's bytes; at n = 1,024 it is slower than an O(n log n) inversion
    count.  With fewer than two neurons every tau is undefined (None)."""
    norms = [np.linalg.norm(expert) for expert in rows]
    if any(norm == 0.0 for norm in norms):
        raise ValueError("undefined similarity: zero vector")
    if not np.max(norms) < 2.0 ** 511:  # then every score, at most two norms' product, is finite
        raise ValueError("score matrix must be finite")
    idx = np.arange(len(rows[0]))
    later = np.tri(len(idx), k=-1, dtype=bool)
    reports = []
    for i, j in itertools.combinations(range(len(rows)), 2):
        score = rows[i] @ rows[j].T
        row_to_col = _assignment(score)
        norm = norms[i] * norms[j]
        before = float(score[idx, idx].sum() / norm)
        perm, after, tau = idx.copy(), before, 1.0 if len(idx) >= 2 else None
        if not np.array_equal(row_to_col, idx):  # identity has no discordant pair
            perm[row_to_col] = idx  # b-neuron j -> a-neuron perm[j]
            after, tau = float(score[idx, row_to_col].sum() / norm), _tau(perm, later)
        reports.append(ReorderReport(permutation=perm, sim_before=before, sim_after=after, tau=tau))
    return reports


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
    ``sim_after`` can never fall below ``sim_before``.  This is the one-pair
    case of ``pairwise_reorder_reports``.
    """
    if a.shape != b.shape:
        raise ValueError("experts have different neuron dimensions")
    return pairwise_reorder_reports((a, b))[0]


def gate_embedding_sim(ckpt: Checkpoint, layer: int) -> SimilarityMatrix:
    """Pairwise cosine over the gate's per-expert rows."""
    rows = np.asarray(ckpt.gate(layer), dtype=np.float64)
    labels = [str(e) for e in range(rows.shape[0])]
    return SimilarityMatrix(labels, pairwise_cosine(rows, allow_zero=False))


def pearson_r(xs, ys) -> float | None:
    """Pearson correlation; None (undefined) when either side is flat.

    A side is flat when its spread, max - min, is within the rounding error
    of its deviations from the mean, from which r is built.  Summing n
    values errs by at most (n - 1)·u·Σ|x| (u the unit roundoff), so after the
    division by n, itself off by u·|mean|, the mean is within n·u·max|x| of
    the exact one; the subtraction x_i - mean adds at most
    u·|x_i - mean| ≤ 2u·max|x|.  Each computed deviation is thus within
    (n + 2)·u·max|x| of the exact one.  A spread of at most twice that,
    (n + 2)·eps·max|x| with eps = 2u, lets rounding move every deviation by
    half the spread, so r would be rounding noise.  This also catches values
    that are equal in exact arithmetic but were computed a few ulps apart,
    such as the cosines of clones.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-d and equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    bound = (x.size + 2) * np.finfo(np.float64).eps
    if any(np.ptp(side) <= bound * np.abs(side).max() for side in (x, y)):
        return None
    xd = x - x.mean()
    yd = y - y.mean()
    vx = np.dot(xd, xd)
    vy = np.dot(yd, yd)
    if vx == 0.0 or vy == 0.0:  # squares that underflow
        return None
    return float(np.dot(xd, yd) / np.sqrt(vx * vy))


@dataclass
class RegressionReport:
    n_pairs: int
    r: float | None  # None when either side is flat (see pearson_r)

    @property
    def r2(self) -> float | None:
        return None if self.r is None else self.r * self.r


def gate_expert_regression(gate: SimilarityMatrix, experts: SimilarityMatrix) -> RegressionReport:
    """Correlate a layer's gate-row similarities (``gate_embedding_sim``)
    with its expert similarities (in ``gate-corr``, ``neuron_average_sim``).

    Both sides are the upper triangle (i < j) of the routed block: the gate's
    experts, which lead both matrices.  Needs at least three experts so the
    triangle has spread; a side whose spread is within rounding
    (``pearson_r``) leaves ``r`` and ``r2`` undefined (None).
    """
    if [label for label in experts.labels if label != REFERENCE_LABEL] != gate.labels:
        raise ValueError("gate and expert similarities label different experts")
    n = len(gate.labels)
    if n < 3:
        raise ValueError("regression needs at least 3 experts")
    upper = np.triu_indices(n, k=1)
    r = pearson_r(gate.values[upper], experts.values[upper])
    return RegressionReport(n_pairs=len(upper[0]), r=r)


def aggregate_r2(reports: list[RegressionReport]) -> float | None:
    """Mean of the defined r-squared values of per-layer regression reports;
    None when no report has one."""
    if not reports:
        raise ValueError("no regression reports to aggregate")
    defined = [rep.r2 for rep in reports if rep.r2 is not None]
    return float(np.mean(defined)) if defined else None


@dataclass
class Projection:
    """PCA projection with enough context to reconstruct it."""

    coords: np.ndarray  # [n, dims], one row per input row
    explained_variance: np.ndarray
    components: np.ndarray  # [dims, n_kept_features]
    center: np.ndarray
    scale: np.ndarray | None
    kept_features: np.ndarray


def _orient_components(components: np.ndarray, values: np.ndarray, tie: float) -> None:
    """Flip, in place, each row of ``components`` so that its lead entry is
    positive: the first entry whose magnitude is within rounding of the
    row's largest.  Row k belongs to the Gram eigenvalue ``values[k]``; a
    zero row, or one with no entries (no feature kept), stays as it is.

    Taking the largest entry alone lets rounding pick the sign when entries
    tie in magnitude, as every entry of the first component does for
    standardized rank-one data.  The rounding bound: with ‖E‖ ≤ (n + m)·u·T
    the Gram's error (see ``pca_project``; T its trace, u the unit roundoff),
    Davis-Kahan puts the computed eigenvector within sqrt(2)·‖E‖/g of the
    exact one, g the gap from λ_k to the rest of the spectrum.  A gap far
    below λ_k leaves the component itself uncertain by ‖E‖/g, which no sign
    rule can fix, so the bound takes g = λ_k: it covers a component that is
    well separated.  The wide route maps it through ``work``, which magnifies
    its error by at most sqrt(λ_1/λ_k) and adds n·u·sqrt(T/λ_k) from the
    product.  With λ_1 ≤ T, each entry is then within
    2.5·(n + m)·u·(T/λ_k)^1.5 of the exact one, so two entries of equal exact
    magnitude differ by at most 2.5·(n + m)·eps·(T/λ_k)^1.5 (eps = 2u).  The
    caller passes ``tie`` = 3·(n + m)·eps·T^1.5, and an entry ties the
    largest when their difference times λ_k^1.5 is at most ``tie``; for
    rank-one data, λ_1 = T, that is a difference of 3·(n + m)·eps.
    """
    for row, value in zip(components, values):
        if not row.size:
            continue
        magnitude = np.abs(row)
        near = (magnitude.max() - magnitude) * max(value, 0.0) ** 1.5 <= tie
        if row[np.argmax(near)] < 0:
            row *= -1.0


def pca_project(vectors: np.ndarray, dims: int = 2, standardize: bool = True) -> Projection:
    """Project the rows of ``vectors`` [n, features] onto their leading
    principal components.

    With ``standardize``, features are shifted to zero mean and unit variance
    first and zero-variance features are dropped.  Component signs follow a
    fixed convention (the first entry within rounding of the largest
    magnitude is positive, see ``_orient_components``), so output is
    deterministic.  A direction the population cannot resolve is a zero
    component with zero coordinates and zero explained variance: with n =
    dims points the last (n points span n - 1 directions), with m < dims
    varying features those past the m-th, and with none varying all of them.
    Checkpoint values are float32, so ``sd > 0.0`` is exact and a population
    that does not vary has a zero ``work`` and Gram: n copies of one float32
    value sum exactly in float64 while n < 2**29 (24 significant bits times
    n fit in 53), so a constant column's mean is its value.

    The components come from the eigenvectors of the smaller Gram matrix of
    the centered data ``work`` [n, m], never from an SVD of ``work`` itself
    (Sirovich's method of snapshots, 1987).  A tall population (n >= m, the
    neuron level) builds ``workᵀ·work`` [m, m], whose top eigenvectors are
    the components.  A wide one (m > n, the matrix level) builds
    ``work·workᵀ`` [n, n]; for its eigenvector u with eigenvalue λ,
    ``uᵀ·work`` has length sqrt(λ) and, normalized, is the component.  Either
    way the eigenproblem is min(n, m) square, and forming the Gram costs
    n·m·min(n, m) multiply-adds where a thin SVD costs several times that.
    Explained variance is λ / (n - 1).

    An eigenvalue within rounding of zero has no direction.  Forming the
    Gram sums max(n, m) products per entry, so entry (i, j) is off by at most
    max(n, m)·u·|w_i|·|w_j| (u the unit roundoff, w_i rows or columns of
    ``work``); by Cauchy-Schwarz the whole error has 2-norm at most
    max(n, m)·u·‖work‖_F², and ‖work‖_F² is the Gram's trace.  ``eigh`` is
    backward stable, adding at most min(n, m)·u·‖Gram‖₂ ≤ min(n, m)·u·trace.
    By Weyl's inequality each computed eigenvalue is within
    (n + m)·u·trace of the exact one, so one at or below (n + m)·eps·trace
    (eps = 2u, a factor two of margin) may be exactly zero.  Its component
    row and its explained variance are zero, so its coordinates are zero, as
    the SVD's are to rounding.  Without this the wide route would normalize
    a rounding-noise ``uᵀ·work``, which lies in the row space of ``work``,
    and give a full-size coordinate along a direction the data lacks.  The
    bound is scale invariant, at (n + m)·eps of the total variance, and is 0
    for a zero Gram, none of whose eigenvalues is resolved.
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
    work = data - center
    kept, scale = np.arange(n_features), None
    if standardize:
        sd = np.sqrt(np.mean(work * work, axis=0))  # np.std's own passes
        kept = np.flatnonzero(sd > 0.0)
        scale = sd[kept]
        work = work.take(kept, axis=1) / scale  # C order, as BLAS's fast paths want
    tall = n >= work.shape[1]
    gram = work.T @ work if tall else work @ work.T
    values, basis = np.linalg.eigh(gram)
    values, basis = values[::-1][:dims], basis[:, ::-1][:, :dims]
    # A tall Gram of fewer than dims features: the missing pairs are zero.
    missing = dims - len(values)
    values, basis = np.pad(values, (0, missing)), np.pad(basis, ((0, 0), (0, missing)))
    trace = np.trace(gram)
    rounding = (n + work.shape[1]) * np.finfo(np.float64).eps * trace
    resolved = values > rounding
    components = np.zeros((dims, work.shape[1]))
    if tall:
        components[resolved] = basis[:, resolved].T
    else:
        rows = basis[:, resolved].T @ work
        components[resolved] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    _orient_components(components, values, 3 * rounding * np.sqrt(trace))
    explained = np.where(resolved, values, 0.0) / max(n - 1, 1)
    coords = work @ components.T

    return Projection(coords=coords, explained_variance=explained, components=components,
                      center=center, scale=scale, kept_features=kept)


def reconstruct(projection: Projection) -> np.ndarray:
    """Map projected points back to the (kept-feature) input space."""
    work = projection.coords @ projection.components
    if projection.scale is not None:
        return work * projection.scale + projection.center[projection.kept_features]
    return work + projection.center


_BALL_BLOCK = 64  # points per tile row
_BALL_TILE_MAX = 4096  # centers per tile column, bounding a tile's memory


def _balls_hold(points: np.ndarray, centers: np.ndarray, eps: float,
                need: int) -> np.ndarray:
    """Whether the eps-ball of each row of ``points`` holds at least ``need``
    rows of ``centers``: a center is inside when sqrt(sum(d * d)) <= eps over
    the coordinate differences d, summed in coordinate order.

    Both sets are sorted by the coordinate along which the centers spread
    widest (``np.ptp``, the first among ties).  Each block of _BALL_BLOCK
    sorted points meets, as dense tiles of doubling width, the centers whose
    sorted coordinate lies within ``reach`` of the block's range, up from its
    lowest coordinate and then down, and stops once every point holds
    ``need`` centers.  The range only preselects: every rounded difference,
    along any coordinate, of a pair the test accepts is below ``reach``, and
    rounding is monotone, so bounds shifted by ``reach`` never drop a center
    the test keeps.  The coordinate decides only the work: a cloud crowded
    along it is counted nearly pair by pair.
    """
    held = np.zeros(len(points), dtype=bool)
    # The floor keeps ``reach`` conservative where eps * eps underflows.
    reach = max(eps * (1.0 + 2.0 ** -20), 2.0 ** -510)
    axis = int(np.ptp(centers, axis=0).argmax()) if len(centers) else 0
    cols = np.ascontiguousarray(centers[np.argsort(centers[:, axis], kind="stable")].T)
    order = np.argsort(points[:, axis], kind="stable")
    point_cols = np.ascontiguousarray(points[order].T)
    for lo in range(0, len(points), _BALL_BLOCK):
        block = point_cols[:, lo:lo + _BALL_BLOCK]
        low, high = block[axis, 0], block[axis, -1]
        start = np.searchsorted(cols[axis], low - reach)
        mid = np.searchsorted(cols[axis], low)
        stop = np.searchsorted(cols[axis], high + reach, "right")
        candidates = np.concatenate([np.arange(mid, stop), np.arange(mid - 1, start - 1, -1)])
        count = np.zeros(block.shape[1], dtype=np.int64)
        done, width = 0, _BALL_BLOCK
        while done < len(candidates) and count.min() < need:
            tile = cols[:, candidates[done:done + width]]
            total = np.subtract.outer(block[0], tile[0]) ** 2
            for k in range(1, len(block)):
                total += np.subtract.outer(block[k], tile[k]) ** 2
            count += np.count_nonzero(np.sqrt(total) <= eps, axis=1)
            done += width
            width = min(2 * width, _BALL_TILE_MAX)
        held[order[lo:lo + _BALL_BLOCK]] = count >= need
    return held


def dbscan_outliers(points, eps: float, min_pts: int = 2) -> set:
    """Indices of density-noise points under Euclidean DBSCAN.

    A point is core when its eps-ball (itself included) holds at least
    ``min_pts`` points.  By DBSCAN's definition (Ester et al., KDD 1996) a
    point is noise when it is not core and no core point lies within ``eps``
    of it, so two ball counts decide it without labelling any cluster: every
    point against every point, then the non-core points against the core
    ones.  Both counts stop at what they need to know (``_balls_hold``), in
    numpy alone.  With min_pts=1 every point is core, so nothing is flagged.
    """
    data = np.asarray(points, dtype=np.float64)
    data = data.reshape(data.shape[0], -1)
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps}")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    core = _balls_hold(data, data, eps, min_pts)
    rest = np.flatnonzero(~core)
    return set(rest[~_balls_hold(data[rest], data[core], eps, 1)].tolist())

