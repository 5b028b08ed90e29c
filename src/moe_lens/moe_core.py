"""Minimal MoE forward engine and the two-stage tracing protocol.

The engine runs tokens independently (no attention, no positions): a token's
embedding enters a stack of residual blocks, each block being an optional
RMS-normalization followed by either a dense FFN or a gated mixture of
experts.  An expert maps its input through two parallel projections, gates one
with the activation function, and projects back down.

Tracing happens in two stages.  Stage one is the native forward pass with the
configured top-k routing; it records every block's input, output and routing.
Stage two feeds each block's recorded input to *all* of its experts, so
analyses can see what unselected experts would have produced.  Routing
decisions in the trace always come from the native pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

from .config import ACTIVATIONS, GATING_ORDERS, ModelConfig
from .tensor_store import Checkpoint

RMSNORM_EPS = 1e-6


@dataclass
class Expert:
    """One FFN expert: w_up and w_act are [d_mid, d_hid], w_down is [d_hid, d_mid]."""

    w_up: np.ndarray
    w_act: np.ndarray
    w_down: np.ndarray


@dataclass
class GateParams:
    """Router projection, one row of w_g per routed expert."""

    w_g: np.ndarray


@dataclass
class LayerWeights:
    experts: list[Expert]
    gate: GateParams | None
    shared: list[Expert]

    @property
    def is_dense(self) -> bool:
        return self.gate is None


@dataclass
class LayerTrace:
    """Everything recorded about one block for one token.

    ``gate_scores`` are the combination weights actually used (zero for
    unselected experts).  ``full_scores`` are the softmax over all gate logits
    regardless of k, kept for rank analyses where unselected experts need
    comparable scores.  ``expert_outputs`` and ``intermediates`` cover all
    routed experts and come from the stage-two replay; ``selected`` lists the
    natively routed expert indices in descending-score order.
    """

    z_in: np.ndarray
    z_out: np.ndarray
    gate_scores: np.ndarray
    full_scores: np.ndarray
    selected: list[int]
    expert_outputs: np.ndarray | None = None
    intermediates: np.ndarray | None = None
    shared_outputs: np.ndarray | None = None
    reference_output: np.ndarray | None = None


@dataclass
class TokenTrace:
    token_id: int
    per_layer: list[LayerTrace]


def activation_fn(kind: str, x) -> np.ndarray:
    """Elementwise silu or gelu (exact erf form), computed in float64."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "silu":
        return x * expit(x)
    if kind == "gelu":
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    raise ValueError(f"unknown activation: {kind!r}")


def rmsnorm(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt(np.mean(x * x) + RMSNORM_EPS)


def expert_forward(expert: Expert, x, kind: str = "silu") -> tuple[np.ndarray, np.ndarray]:
    """Run one expert; returns (output [d_hid], intermediate [d_mid])."""
    x = np.asarray(x, dtype=np.float64)
    inter = activation_fn(kind, expert.w_act @ x)
    y = expert.w_down @ ((expert.w_up @ x) * inter)
    return y, inter


def full_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def select_topk(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest logits, descending; ties go to the lower index."""
    logits = np.asarray(logits)
    if not 1 <= k <= logits.shape[0]:
        raise ValueError(f"k={k} out of range for {logits.shape[0]} experts")
    order = np.argsort(-logits, kind="stable")
    return order[:k]


def gate_from_logits(logits: np.ndarray, k: int, order: str) -> tuple[np.ndarray, list[int]]:
    """Routing scores and selection for raw gate logits.

    ``topk_then_softmax`` normalizes over the selected logits only, so the
    returned scores sum to one.  ``softmax_then_topk`` normalizes over all
    logits first and keeps the selected probabilities as-is (no second
    normalization), so they sum to less than one whenever k < N.
    """
    if order not in GATING_ORDERS:
        raise ValueError(f"unknown gating order: {order!r}")
    logits = np.asarray(logits, dtype=np.float64)
    selected = select_topk(logits, k)
    scores = np.zeros(logits.shape[0])
    if order == "topk_then_softmax":
        scores[selected] = full_softmax(logits[selected])
    else:
        scores[selected] = full_softmax(logits)[selected]
    return scores, [int(i) for i in selected]


def _combine(z_in: np.ndarray, scores: np.ndarray, outputs: dict[int, np.ndarray],
             shared_outputs: list[np.ndarray]) -> np.ndarray:
    # Single accumulation path shared by the forward pass and the replay check,
    # so both produce bit-identical sums.
    y = np.zeros_like(z_in)
    for n in sorted(outputs):
        y = y + scores[n] * outputs[n]
    for out in shared_outputs:
        y = y + out
    return z_in + y


def moe_layer_forward(weights: LayerWeights, x, config: ModelConfig,
                      k_override_all: bool = False) -> tuple[np.ndarray, LayerTrace]:
    """One residual block.  The returned trace has routing info but no
    all-expert outputs; ``trace_all_experts`` fills those in."""
    x = np.asarray(x, dtype=np.float64)
    h = rmsnorm(x) if config.use_prenorm else x

    if weights.is_dense:
        y, _ = expert_forward(weights.experts[0], h, config.activation)
        z_out = _combine(x, np.ones(1), {0: y}, [])
        trace = LayerTrace(z_in=x, z_out=z_out, gate_scores=np.ones(1),
                           full_scores=np.ones(1), selected=[0])
        return z_out, trace

    n_experts = len(weights.experts)
    k = n_experts if k_override_all else config.top_k
    logits = np.asarray(weights.gate.w_g, dtype=np.float64) @ h
    scores, selected = gate_from_logits(logits, k, config.gating_order)
    outputs = {n: expert_forward(weights.experts[n], h, config.activation)[0]
               for n in selected}
    shared = [expert_forward(e, h, config.activation)[0] for e in weights.shared]
    z_out = _combine(x, scores, outputs, shared)
    trace = LayerTrace(z_in=x, z_out=z_out, gate_scores=scores,
                       full_scores=full_softmax(logits), selected=selected)
    return z_out, trace


def recombined_output(trace: LayerTrace) -> np.ndarray:
    """Rebuild z_out from a fully populated trace (selected experts + shared)."""
    outputs = {n: trace.expert_outputs[n] for n in trace.selected}
    shared = [] if trace.shared_outputs is None else list(trace.shared_outputs)
    return _combine(trace.z_in, trace.gate_scores, outputs, shared)


def load_expert(ckpt: Checkpoint, prefix: str) -> Expert:
    return Expert(
        w_up=np.asarray(ckpt.get_tensor(f"{prefix}.w_up"), dtype=np.float64),
        w_act=np.asarray(ckpt.get_tensor(f"{prefix}.w_act"), dtype=np.float64),
        w_down=np.asarray(ckpt.get_tensor(f"{prefix}.w_down"), dtype=np.float64),
    )


def load_layer_weights(ckpt: Checkpoint, layer: int) -> LayerWeights:
    config = ckpt.config
    if not 0 <= layer < config.num_layers:
        raise ValueError(f"layer {layer} out of range")
    if config.is_dense(layer):
        return LayerWeights(experts=[load_expert(ckpt, f"layers.{layer}.ffn")],
                            gate=None, shared=[])
    gate = GateParams(w_g=np.asarray(
        ckpt.get_tensor(f"layers.{layer}.gate.weight"), dtype=np.float64))
    experts = [load_expert(ckpt, f"layers.{layer}.experts.{n}")
               for n in range(config.experts_per_layer[layer])]
    shared = [load_expert(ckpt, f"layers.{layer}.shared.{m}")
              for m in range(config.num_shared[layer])]
    return LayerWeights(experts=experts, gate=gate, shared=shared)


def _embedding_row(ckpt: Checkpoint, token: int) -> np.ndarray:
    if not 0 <= token < ckpt.config.vocab:
        raise ValueError(f"token id out of range: {token}")
    return np.asarray(ckpt.get_tensor("embed.weight")[token], dtype=np.float64)


def trace_all_experts(ckpt: Checkpoint, tokens: list[int],
                      reference: Checkpoint | None = None,
                      k_override_all: bool = False) -> list[TokenTrace]:
    """Two-stage trace: native routing plus an all-experts replay per block.

    With ``reference`` given (a checkpoint whose layers are dense), each block
    trace also carries the reference FFN's output on the same replayed input.
    """
    config = ckpt.config
    layers = [load_layer_weights(ckpt, i) for i in range(config.num_layers)]
    ref_layers = None
    if reference is not None:
        if reference.config.num_layers != config.num_layers:
            raise ValueError("reference layer count differs from model")
        if any(not reference.config.is_dense(i) for i in range(config.num_layers)):
            raise ValueError("reference checkpoint must be dense in every layer")
        if (reference.config.d_hid, reference.config.d_mid) != (config.d_hid, config.d_mid):
            raise ValueError("reference dimensions differ from model")
        ref_layers = [load_layer_weights(reference, i) for i in range(config.num_layers)]

    traces = []
    for token in tokens:
        # Stage one: native pass, keeping each block's routing and output.
        z = _embedding_row(ckpt, token)
        per_layer = []
        for weights in layers:
            z, trace = moe_layer_forward(weights, z, config, k_override_all)
            per_layer.append(trace)

        # Stage two: every expert on each block's recorded input.
        for i, (weights, trace) in enumerate(zip(layers, per_layer)):
            h = rmsnorm(trace.z_in) if config.use_prenorm else trace.z_in
            pairs = [expert_forward(e, h, config.activation) for e in weights.experts]
            trace.expert_outputs = np.stack([p[0] for p in pairs])
            trace.intermediates = np.stack([p[1] for p in pairs])
            if weights.shared:
                trace.shared_outputs = np.stack(
                    [expert_forward(e, h, config.activation)[0] for e in weights.shared])
            else:
                trace.shared_outputs = np.zeros((0, config.d_hid))
            if ref_layers is not None:
                trace.reference_output = expert_forward(
                    ref_layers[i].experts[0], h, config.activation)[0]
        traces.append(TokenTrace(token_id=token, per_layer=per_layer))
    return traces


def read_corpus(path) -> list[list[int]]:
    """Parse a corpus file: one sequence per line, whitespace-separated token ids."""
    sequences = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            try:
                ids = [int(f) for f in fields]
            except ValueError as exc:
                raise ValueError(f"bad token id on line {lineno}: {exc}") from exc
            if any(t < 0 for t in ids):
                raise ValueError(f"negative token id on line {lineno}")
            if ids:
                sequences.append(ids)
    return sequences


def flatten_corpus(sequences: list[list[int]]) -> list[int]:
    return [t for seq in sequences for t in seq]
