"""Behavioral analyses over forward traces.

These functions consume the two-stage traces from ``moe_core``: per-token
expert output similarity, corpus-averaged similarity on the angular scale,
output norms versus routing scores, activation sparsity, and routing logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe_core import LayerTrace, TokenTrace
from .static_analysis import (REFERENCE_LABEL, SimilarityMatrix, _summaries,
                              build_similarity_matrix, cosine_sim)


def angular_sim(u, v) -> float:
    """Cosine folded onto [0, 1]: 1 parallel, 0.5 orthogonal, 0 opposite.

    Unlike raw cosine this is a bounded, sign-free scale, which makes corpus
    averages comparable across layers and models.
    """
    c = np.clip(cosine_sim(u, v), -1.0, 1.0)
    return float(1.0 - np.arccos(c) / np.pi)


def _layer_trace(trace: TokenTrace, layer: int) -> LayerTrace:
    if not 0 <= layer < len(trace.per_layer):
        raise ValueError(f"layer {layer} out of range")
    lt = trace.per_layer[layer]
    if lt.expert_outputs is None:
        raise ValueError("trace lacks all-expert outputs; run trace_all_experts")
    return lt


def _output_entities(lt: LayerTrace) -> tuple[list[np.ndarray], list[str], int, bool]:
    vectors = [lt.expert_outputs[n] for n in range(lt.expert_outputs.shape[0])]
    labels = [str(n) for n in range(len(vectors))]
    n_experts = len(vectors)
    if lt.shared_outputs is not None:
        for m in range(lt.shared_outputs.shape[0]):
            vectors.append(lt.shared_outputs[m])
            labels.append(f"S{m}")
    has_ref = lt.reference_output is not None
    if has_ref:
        vectors.append(lt.reference_output)
        labels.append(REFERENCE_LABEL)
    return vectors, labels, n_experts, has_ref


def output_sim_per_token(trace: TokenTrace, layer: int) -> SimilarityMatrix:
    """Pairwise cosine between all expert outputs for one token and layer.

    Shared-expert and reference outputs are appended when the trace has them.
    Zero output vectors mask their cells rather than raising.
    """
    lt = _layer_trace(trace, layer)
    vectors, labels, n_experts, has_ref = _output_entities(lt)
    selected = [str(n) for n in lt.selected]
    return build_similarity_matrix(vectors, labels, "cosine", n_experts,
                                   has_reference=has_ref, allow_zero=True,
                                   selected_labels=selected)


def avg_output_sim(traces: list[TokenTrace], layer: int) -> SimilarityMatrix:
    """Mean angular similarity matrix over a corpus, accumulated in token order.

    Cells undefined for some tokens average over the remaining tokens; cells
    undefined everywhere stay masked.
    """
    if not traces:
        raise ValueError("no traces given")
    acc = None
    count = None
    labels = None
    n_experts = 0
    has_ref = False
    for trace in traces:
        lt = _layer_trace(trace, layer)
        vectors, labs, n_experts, has_ref = _output_entities(lt)
        sim = build_similarity_matrix(vectors, labs, "angular", n_experts,
                                      has_reference=has_ref, allow_zero=True)
        if acc is None:
            acc = np.zeros_like(sim.values)
            count = np.zeros_like(sim.values, dtype=np.int64)
            labels = labs
        elif labs != labels:
            raise ValueError("traces disagree on layer entities")
        defined = ~np.isnan(sim.values)
        acc[defined] += sim.values[defined]
        count += defined
    with np.errstate(invalid="ignore"):
        mean = np.where(count > 0, acc / np.maximum(count, 1), np.nan)
    s_ee, s_ef = _summaries(mean, n_experts, has_ref)
    return SimilarityMatrix(labels=labels, values=mean, metric="angular",
                            n_experts=n_experts, s_ee=s_ee, s_ef=s_ef)


@dataclass
class RankCountMatrix:
    """Joint histogram of output-norm rank versus gate-score rank.

    ``counts[i][j]`` is the number of (token, layer) events where the expert
    with the (i+1)-th smallest output norm had the (j+1)-th smallest routing
    score; rank 1 is the smallest.  Scores come from the full softmax over all
    gate logits so unselected experts rank on equal footing.
    """

    n_experts: int
    counts: np.ndarray
    total_events: int


def _ascending_ranks(values: np.ndarray) -> np.ndarray:
    """Rank positions (0-based) ascending by value, ties broken by index."""
    n = values.shape[0]
    order = np.lexsort((np.arange(n), values))
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(n)
    return ranks


def rank_count_matrix(traces: list[TokenTrace], layers: list[int]) -> RankCountMatrix:
    """Accumulate norm-rank vs score-rank counts over tokens and layers."""
    if not traces or not layers:
        raise ValueError("need at least one trace and one layer")
    sizes = set()
    for trace in traces:
        for layer in layers:
            sizes.add(_layer_trace(trace, layer).expert_outputs.shape[0])
    if len(sizes) != 1:
        raise ValueError(f"selected layers have differing expert counts: {sorted(sizes)}")
    n = sizes.pop()

    counts = np.zeros((n, n), dtype=np.int64)
    events = 0
    for trace in traces:
        for layer in layers:
            lt = _layer_trace(trace, layer)
            norm_rank = _ascending_ranks(np.linalg.norm(lt.expert_outputs, axis=1))
            score_rank = _ascending_ranks(np.asarray(lt.full_scores))
            for e in range(n):
                counts[norm_rank[e], score_rank[e]] += 1
            events += 1
    return RankCountMatrix(n_experts=n, counts=counts, total_events=events)


@dataclass
class ActivationRatioReport:
    threshold: float
    per_expert: dict[tuple[int, int], float]  # (layer, expert) -> fraction
    overall: float


def activation_ratio(traces: list[TokenTrace], threshold: float = 0.001) -> ActivationRatioReport:
    """Fraction of intermediate entries with magnitude above the threshold.

    Counts every routed expert's gated intermediate state on every token;
    ``per_expert`` is keyed by (layer, expert index).
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if not traces:
        raise ValueError("no traces given")
    hits: dict[tuple[int, int], int] = {}
    totals: dict[tuple[int, int], int] = {}
    for trace in traces:
        for layer, lt in enumerate(trace.per_layer):
            if lt.intermediates is None:
                raise ValueError("trace lacks intermediates; run trace_all_experts")
            above = np.abs(lt.intermediates) > threshold
            for e in range(lt.intermediates.shape[0]):
                key = (layer, e)
                hits[key] = hits.get(key, 0) + int(above[e].sum())
                totals[key] = totals.get(key, 0) + above.shape[1]
    per_expert = {key: hits[key] / totals[key] for key in sorted(totals)}
    overall = sum(hits.values()) / sum(totals.values())
    return ActivationRatioReport(threshold=threshold, per_expert=per_expert, overall=overall)


@dataclass
class RouteEntry:
    token_index: int
    token_id: int
    layer: int
    selections: list[tuple[int, float]]  # (expert, score) in descending-score order


@dataclass
class RoutingLog:
    entries: list[RouteEntry]


def routing_pattern(traces: list[TokenTrace]) -> RoutingLog:
    """Selected experts and their used scores, per token and gated layer."""
    entries = []
    for idx, trace in enumerate(traces):
        for layer, lt in enumerate(trace.per_layer):
            if len(lt.gate_scores) == 1:
                continue  # dense layer, nothing routed
            selections = [(int(n), float(lt.gate_scores[n])) for n in lt.selected]
            entries.append(RouteEntry(token_index=idx, token_id=trace.token_id,
                                      layer=layer, selections=selections))
    return RoutingLog(entries=entries)

