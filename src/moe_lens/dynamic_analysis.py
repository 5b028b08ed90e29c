"""Behavioral analyses over forward traces.

These functions reduce the corpus traces from ``moe_core``, whose arrays
hold every expert's output on every token: per-token expert output
similarity, corpus-averaged similarity on the angular scale, output norms
versus routing scores, activation sparsity, and routing logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe_core import CorpusTrace, LayerTrace
from .static_analysis import REFERENCE_LABEL, SimilarityMatrix, angular, pairwise_cosine


def angular_sim(u, v) -> float:
    """Cosine folded onto [0, 1]: 1 parallel, 0.5 orthogonal, 0 opposite.

    Unlike raw cosine this is a bounded, sign-free scale, which makes corpus
    averages comparable across layers and models.  The two-row case of
    ``pairwise_cosine``: a zero vector is undefined.
    """
    u, v = (np.asarray(x, dtype=np.float64).ravel() for x in (u, v))
    if u.shape != v.shape:
        raise ValueError("undefined similarity: length mismatch")
    return float(angular(pairwise_cosine(np.stack([u, v]), allow_zero=False)[0, 1]))


def _layer_trace(trace: CorpusTrace, layer: int) -> LayerTrace:
    if not 0 <= layer < len(trace.layers):
        raise ValueError(f"layer {layer} out of range")
    return trace.layers[layer]


def _output_entities(lt: LayerTrace) -> tuple[np.ndarray, list[str]]:
    """All output vectors of one block as [T, entities, d_hid], and their
    labels, in ``SimilarityMatrix``'s layout."""
    parts = [lt.expert_outputs, lt.shared_outputs]
    labels = [str(n) for n in range(lt.expert_outputs.shape[1])]
    labels += [f"S{m}" for m in range(lt.shared_outputs.shape[1])]
    if lt.reference_output is not None:
        parts.append(lt.reference_output[:, None])
        labels.append(REFERENCE_LABEL)
    return np.concatenate(parts, axis=1), labels


def output_sim_per_token(trace: CorpusTrace, layer: int, token: int = 0) -> SimilarityMatrix:
    """Pairwise cosine between all expert outputs for one traced token and layer.

    Shared-expert and reference outputs are appended when the trace has them.
    Zero output vectors mask their cells rather than raising.
    """
    if not 0 <= token < trace.token_ids.size:
        raise ValueError(f"token {token} out of range for a trace of "
                         f"{trace.token_ids.size} tokens")
    lt = _layer_trace(trace, layer)
    vectors, labels = _output_entities(lt)
    return SimilarityMatrix(labels, pairwise_cosine(vectors[token], allow_zero=True),
                            selected_labels=[str(n) for n in lt.selected[token]])


def avg_output_sim(trace: CorpusTrace, layer: int) -> SimilarityMatrix:
    """Mean angular similarity matrix over a corpus, accumulated in token order.

    Cells undefined for some tokens average over the remaining tokens; cells
    undefined everywhere stay masked.
    """
    if trace.token_ids.size == 0:
        raise ValueError("no traces given: the trace holds no tokens")
    vectors, labels = _output_entities(_layer_trace(trace, layer))
    sims = angular(pairwise_cosine(vectors, allow_zero=True))
    count = (~np.isnan(sims)).sum(axis=0)
    with np.errstate(invalid="ignore"):
        mean = np.where(count > 0, np.nansum(sims, axis=0) / np.maximum(count, 1), np.nan)
    return SimilarityMatrix(labels, mean, metric="angular")


@dataclass
class RankCountMatrix:
    """Joint histogram of output-norm rank versus gate-score rank.

    ``counts[i][j]`` is the number of (token, layer) events where the expert
    with the (i+1)-th smallest output norm had the (j+1)-th smallest routing
    score; rank 1 is the smallest.  Scores come from the full softmax over all
    gate logits so unselected experts rank on equal footing.
    """

    counts: np.ndarray
    total_events: int


def _ascending_ranks(values: np.ndarray) -> np.ndarray:
    """Rank positions (0-based) ascending by value along each row, ties broken by index."""
    return np.argsort(np.argsort(values, axis=-1, kind="stable"), axis=-1, kind="stable")


def rank_count_matrix(trace: CorpusTrace, layers: list[int]) -> RankCountMatrix:
    """Accumulate norm-rank vs score-rank counts over tokens and layers."""
    if trace.token_ids.size == 0 or not layers:
        raise ValueError("need at least one trace and one layer")
    sizes = {_layer_trace(trace, layer).expert_outputs.shape[1] for layer in layers}
    if len(sizes) != 1:
        raise ValueError(f"selected layers have differing expert counts: {sorted(sizes)}")
    n = sizes.pop()

    cells = []
    for layer in layers:
        lt = trace.layers[layer]
        norm_rank = _ascending_ranks(np.linalg.norm(lt.expert_outputs, axis=2))
        score_rank = _ascending_ranks(lt.full_scores)
        cells.append((norm_rank * n + score_rank).ravel())
    counts = np.bincount(np.concatenate(cells), minlength=n * n).reshape(n, n)
    return RankCountMatrix(counts=counts, total_events=trace.token_ids.size * len(layers))


@dataclass
class ActivationRatioReport:
    per_expert: dict[tuple[int, int], float]  # (layer, expert) -> fraction
    overall: float


def activation_ratio(trace: CorpusTrace, threshold: float = 0.001) -> ActivationRatioReport:
    """Fraction of intermediate entries with magnitude above the threshold.

    Counts every routed expert's gated intermediate state on every token;
    ``per_expert`` is keyed by (layer, expert index).
    """
    if not 0 <= threshold < np.inf:
        raise ValueError(f"threshold must be nonnegative and finite: {threshold}")
    if trace.token_ids.size == 0:
        raise ValueError("no traces given: the trace holds no tokens")
    if not trace.layers:
        raise ValueError("no intermediates to count: the model has no layers")
    per_expert: dict[tuple[int, int], float] = {}
    hits = total = 0
    for layer, lt in enumerate(trace.layers):
        above = (np.abs(lt.intermediates) > threshold).sum(axis=(0, 2)).tolist()
        size = lt.intermediates.shape[0] * lt.intermediates.shape[2]
        for e, count in enumerate(above):
            per_expert[(layer, e)] = count / size
        hits += sum(above)
        total += size * len(above)
    overall = hits / total
    return ActivationRatioReport(per_expert=per_expert, overall=overall)


def routing_pattern(trace: CorpusTrace) -> tuple[np.ndarray, ...]:
    """Every routing decision of the gated layers, one row per token, layer
    and slot in that order, as [R] arrays: ``(token_index, token_id, layer,
    slot, expert, score)``.  A token's slots in a layer hold its selected
    experts by descending used score.  Rows are flat rather than [.., k]
    because with ``k_override_all`` each layer routes its own expert count.
    """
    t = trace.token_ids.size
    parts = [(np.zeros((t, 0), np.int64),) * 4 + (np.zeros((t, 0)),)]
    for layer, lt in enumerate(trace.layers):
        if lt.gate_scores.shape[1] > 1:
            token, slot = np.indices(lt.selected.shape)
            parts.append((token, np.full_like(token, layer), slot, lt.selected,
                          np.take_along_axis(lt.gate_scores, lt.selected, axis=1)))
    token_index, layer, slot, expert, score = (
        np.concatenate(column, axis=1).ravel() for column in zip(*parts))
    return token_index, trace.token_ids[token_index], layer, slot, expert, score
