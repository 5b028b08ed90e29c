"""Minimal MoE forward engine that traces every expert on every token.

The engine runs tokens independently (no attention, no positions): a token's
embedding enters a stack of residual blocks, each block being an optional
RMS-normalization followed by either a dense FFN or a gated mixture of
experts.  An expert maps its input through two parallel projections, gates one
with the activation function, and projects back down.

A trace runs the whole corpus through the model block by block.  Each block
evaluates every routed, shared and reference FFN once on all tokens, so
analyses can see what unselected experts would have produced, and combines
only the natively routed experts into the block's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GATING_ORDERS
from .tensor_store import EMBED, FFN_MATRICES, Checkpoint, ffn_prefixes, gate_name

RMSNORM_EPS = 1e-6


@dataclass
class Expert:
    """One FFN expert: w_up and w_act are [d_mid, d_hid], w_down is [d_hid, d_mid]."""

    w_up: np.ndarray
    w_act: np.ndarray
    w_down: np.ndarray


@dataclass
class LayerTrace:
    """Everything recorded about one block; row t of each array is token t.

    ``gate_scores`` [T, N] are the combination weights actually used (zero for
    unselected experts).  ``full_scores`` [T, N] are the softmax over all gate
    logits regardless of k, kept for rank analyses where unselected experts
    need comparable scores.  ``selected`` [T, k] lists the routed expert
    indices in descending-score order.  ``expert_outputs`` [T, N, d_hid] and
    ``intermediates`` [T, N, d_mid] cover all routed experts,
    ``shared_outputs`` [T, S, d_hid] the shared ones, and ``reference_output``
    [T, d_hid] the reference FFN when the trace has one.  A dense block is one
    expert with score 1.
    """

    gate_scores: np.ndarray
    full_scores: np.ndarray
    selected: np.ndarray
    expert_outputs: np.ndarray
    intermediates: np.ndarray
    shared_outputs: np.ndarray
    reference_output: np.ndarray | None = None


@dataclass
class CorpusTrace:
    """A traced corpus: ``z[i]`` [T, d_hid] enters block i, ``z[i + 1]`` leaves it."""

    token_ids: np.ndarray
    z: np.ndarray
    layers: list[LayerTrace]


def activation_fn(kind: str, x) -> np.ndarray:
    """Elementwise silu (numpy only) or gelu (exact erf form, from scipy) in float64."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "silu":
        # exp(-x) overflows to inf below x = -709.78, where silu is -0.0.
        with np.errstate(over="ignore"):
            return x / (1.0 + np.exp(-x))
    if kind == "gelu":
        from scipy.special import erf
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    raise ValueError(f"unknown activation: {kind!r}")


def rmsnorm(x: np.ndarray) -> np.ndarray:
    """Normalize each row (the last axis) to unit root-mean-square."""
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMSNORM_EPS)


def expert_forward(expert: Expert, x, kind: str = "silu") -> tuple[np.ndarray, np.ndarray]:
    """Run one expert on ``x`` [..., d_hid]; returns (output [..., d_hid],
    intermediate [..., d_mid])."""
    x = np.asarray(x, dtype=np.float64)
    inter = activation_fn(kind, x @ expert.w_act.T)
    y = ((x @ expert.w_up.T) * inter) @ expert.w_down.T
    return y, inter


def full_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def gate_from_logits(logits: np.ndarray, k: int, order: str) -> tuple[np.ndarray, np.ndarray]:
    """Routing scores and selection for gate logits [..., N].

    ``selected`` [..., k] holds the indices of the k largest logits,
    descending, with ties going to the lower index.  ``topk_then_softmax``
    normalizes over the selected logits only, so the returned scores sum to
    one.  ``softmax_then_topk`` normalizes over all logits first and keeps the
    selected probabilities as-is (no second normalization), so they sum to
    less than one whenever k < N.
    """
    if order not in GATING_ORDERS:
        raise ValueError(f"unknown gating order: {order!r}")
    logits = np.asarray(logits, dtype=np.float64)
    if not 1 <= k <= logits.shape[-1]:
        raise ValueError(f"k={k} out of range for {logits.shape[-1]} experts")
    selected = np.argsort(-logits, axis=-1, kind="stable")[..., :k]
    if order == "topk_then_softmax":
        kept = full_softmax(np.take_along_axis(logits, selected, axis=-1))
    else:
        kept = np.take_along_axis(full_softmax(logits), selected, axis=-1)
    scores = np.zeros_like(logits)
    np.put_along_axis(scores, selected, kept, axis=-1)
    return scores, selected


def recombined_output(trace: LayerTrace, z_in: np.ndarray) -> np.ndarray:
    """The block output: ``z_in`` plus the score-weighted routed experts, added
    in expert order, plus the shared experts."""
    y = np.zeros_like(z_in)
    for n in range(trace.expert_outputs.shape[1]):
        # Unselected experts have score 0 and leave the sum unchanged.
        y = y + trace.gate_scores[:, n, None] * trace.expert_outputs[:, n]
    for m in range(trace.shared_outputs.shape[1]):
        y = y + trace.shared_outputs[:, m]
    return z_in + y


def load_expert(ckpt: Checkpoint, prefix: str) -> Expert:
    """The FFN whose tensors are named under ``prefix`` (see ``ffn_prefixes``)."""
    return Expert(*(np.asarray(ckpt.get_tensor(f"{prefix}.{matrix}"), dtype=np.float64)
                    for matrix in FFN_MATRICES))


def _trace_block(ckpt: Checkpoint, layer: int, h: np.ndarray,
                 k_override_all: bool) -> LayerTrace:
    """Every expert of one block on the normalized inputs ``h`` [T, d_hid].

    Each expert is its own matmul over all tokens, so identical experts give
    bit-identical outputs and the lower-index tie rule sees exact ties.
    """
    config = ckpt.config
    t = h.shape[0]
    routed, shared_prefixes = ffn_prefixes(config, layer)
    if config.is_dense(layer):
        scores, full = np.ones((t, 1)), np.ones((t, 1))
        selected = np.zeros((t, 1), dtype=np.int64)
    else:
        w_g = np.asarray(ckpt.get_tensor(gate_name(layer)), dtype=np.float64)
        logits = h @ w_g.T
        scores, selected = gate_from_logits(
            logits, len(routed) if k_override_all else config.top_k, config.gating_order)
        full = full_softmax(logits)
    pairs = [expert_forward(load_expert(ckpt, prefix), h, config.activation)
             for prefix in routed]
    shared = [expert_forward(load_expert(ckpt, prefix), h, config.activation)[0]
              for prefix in shared_prefixes]
    return LayerTrace(
        gate_scores=scores, full_scores=full, selected=selected,
        expert_outputs=np.stack([y for y, _ in pairs], axis=1),
        intermediates=np.stack([inter for _, inter in pairs], axis=1),
        shared_outputs=np.stack(shared, axis=1) if shared else np.zeros((t, 0, config.d_hid)))


def trace_all_experts(ckpt: Checkpoint, tokens: list[int],
                      reference: Checkpoint | None = None,
                      k_override_all: bool = False) -> CorpusTrace:
    """Trace ``tokens`` through the model with every expert evaluated.

    Routing follows the configured top-k (every expert with
    ``k_override_all``).  With ``reference`` given (see
    ``ModelConfig.check_reference``), each block trace also carries the
    reference FFN's output on the block's input.
    """
    config = ckpt.config
    if reference is not None:
        config.check_reference(reference.config)
    bad = [t for t in tokens if not 0 <= t < config.vocab]
    if bad:
        raise ValueError(f"token id out of range: {bad[0]}")
    ids = np.asarray(tokens, dtype=np.int64)
    z = [np.asarray(ckpt.get_tensor(EMBED)[ids], dtype=np.float64)]
    layers = []
    for i in range(config.num_layers):
        h = rmsnorm(z[i]) if config.use_prenorm else z[i]
        lt = _trace_block(ckpt, i, h, k_override_all)
        if reference is not None:
            (ffn,), _ = ffn_prefixes(reference.config, i)
            lt.reference_output = expert_forward(
                load_expert(reference, ffn), h, config.activation)[0]
        layers.append(lt)
        z.append(recombined_output(lt, z[i]))
    return CorpusTrace(token_ids=ids, z=np.stack(z), layers=layers)


def native_output(ckpt: Checkpoint, layer: int, trace: LayerTrace,
                  z_in: np.ndarray) -> np.ndarray:
    """Block ``layer``'s output as a serving MoE computes it, independently of
    ``recombined_output``: each routed expert runs only on the tokens that
    selected it, its output scaled by the used gate score, and the shared
    experts and ``z_in`` are added."""
    config = ckpt.config
    h = rmsnorm(z_in) if config.use_prenorm else z_in
    y = np.zeros_like(z_in)
    routed, shared = ffn_prefixes(config, layer)
    for n, prefix in enumerate(routed):
        rows = np.flatnonzero((trace.selected == n).any(axis=1))
        y[rows] += (trace.gate_scores[rows, n, None]
                    * expert_forward(load_expert(ckpt, prefix), h[rows], config.activation)[0])
    for prefix in shared:
        y += expert_forward(load_expert(ckpt, prefix), h, config.activation)[0]
    return z_in + y


def read_corpus(path, vocab: int) -> list[int]:
    """Parse a corpus file into its token stream: the whitespace-separated
    token ids of every line, in file order, each below ``vocab``."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            try:
                ids = [int(f) for f in fields]
            except ValueError as exc:
                raise ValueError(f"bad token id on line {lineno}: {exc}") from exc
            if any(t < 0 for t in ids):
                raise ValueError(f"negative token id on line {lineno}")
            bad = [t for t in ids if t >= vocab]
            if bad:
                raise ValueError(f"token id out of range on line {lineno}: {bad[0]} "
                                 f"(vocab {vocab})")
            tokens += ids
    return tokens
