"""Per-token reference engine, the plainly correct oracle for ``trace_all_experts``.

It runs one token at a time with matrix-vector products.  Stage one is the
native forward pass with the configured top-k routing and records every
block's input, routing and output.  Stage two feeds each block's recorded
input to every routed, shared and reference FFN.  The engine under test does
both in one corpus-wide pass; ``assert_trace_matches`` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moe_lens.config import ModelConfig
from moe_lens.moe_core import Expert, activation_fn

RMSNORM_EPS = 1e-6


def load_expert(ckpt, prefix: str) -> Expert:
    """The float64 FFN whose tensors are named under ``prefix``, spelled here
    apart from the package's reader."""
    return Expert(*(np.asarray(ckpt.get_tensor(f"{prefix}.{matrix}"), dtype=np.float64)
                    for matrix in ("w_up", "w_act", "w_down")))


@dataclass
class GateParams:
    """Router projection, one row of w_g per routed expert."""

    w_g: np.ndarray


@dataclass
class LayerWeights:
    experts: list[Expert]
    gate: GateParams | None
    shared: list[Expert]


@dataclass
class TokenLayer:
    """One block for one token; the all-expert fields come from stage two."""

    z_in: np.ndarray
    z_out: np.ndarray
    gate_scores: np.ndarray
    full_scores: np.ndarray
    selected: list[int]
    expert_outputs: np.ndarray | None = None
    intermediates: np.ndarray | None = None
    shared_outputs: np.ndarray | None = None
    reference_output: np.ndarray | None = None


def rmsnorm(x):
    return x / np.sqrt(np.mean(x * x) + RMSNORM_EPS)


def expert_vec(expert: Expert, x, kind="silu"):
    inter = activation_fn(kind, expert.w_act @ x)
    return expert.w_down @ ((expert.w_up @ x) * inter), inter


def softmax(logits):
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def gate(logits, k, order):
    """Scores and selection of one token; ties go to the lower index."""
    selected = np.argsort(-logits, kind="stable")[:k]
    scores = np.zeros(logits.shape[0])
    if order == "topk_then_softmax":
        scores[selected] = softmax(logits[selected])
    else:
        scores[selected] = softmax(logits)[selected]
    return scores, [int(i) for i in selected]


def combine(z_in, scores, outputs: dict, shared: list):
    y = np.zeros_like(z_in)
    for n in sorted(outputs):
        y = y + scores[n] * outputs[n]
    for out in shared:
        y = y + out
    return z_in + y


def moe_layer_forward(weights: LayerWeights, x, config: ModelConfig,
                      k_override_all: bool = False):
    """One residual block for one token; returns (z_out, routing-only trace)."""
    x = np.asarray(x, dtype=np.float64)
    h = rmsnorm(x) if config.use_prenorm else x
    if weights.gate is None:
        y, _ = expert_vec(weights.experts[0], h, config.activation)
        z_out = combine(x, np.ones(1), {0: y}, [])
        return z_out, TokenLayer(z_in=x, z_out=z_out, gate_scores=np.ones(1),
                                 full_scores=np.ones(1), selected=[0])
    k = len(weights.experts) if k_override_all else config.top_k
    logits = weights.gate.w_g @ h
    scores, selected = gate(logits, k, config.gating_order)
    outputs = {n: expert_vec(weights.experts[n], h, config.activation)[0] for n in selected}
    shared = [expert_vec(e, h, config.activation)[0] for e in weights.shared]
    z_out = combine(x, scores, outputs, shared)
    return z_out, TokenLayer(z_in=x, z_out=z_out, gate_scores=scores,
                             full_scores=softmax(logits), selected=selected)


def load_layer_weights(ckpt, layer: int) -> LayerWeights:
    config = ckpt.config
    if config.is_dense(layer):
        return LayerWeights(experts=[load_expert(ckpt, f"layers.{layer}.ffn")],
                            gate=None, shared=[])
    w_g = np.asarray(ckpt.get_tensor(f"layers.{layer}.gate.weight"), dtype=np.float64)
    experts = [load_expert(ckpt, f"layers.{layer}.experts.{n}")
               for n in range(config.experts_per_layer[layer])]
    shared = [load_expert(ckpt, f"layers.{layer}.shared.{m}")
              for m in range(config.num_shared[layer])]
    return LayerWeights(experts=experts, gate=GateParams(w_g=w_g), shared=shared)


def trace_per_token(ckpt, tokens, reference=None, k_override_all=False) -> list[list[TokenLayer]]:
    """Both stages for each token: one list of block traces per token."""
    config = ckpt.config
    layers = [load_layer_weights(ckpt, i) for i in range(config.num_layers)]
    refs = None if reference is None else [load_expert(reference, f"layers.{i}.ffn")
                                           for i in range(config.num_layers)]
    traces = []
    for token in tokens:
        z = np.asarray(ckpt.get_tensor("embed.weight")[token], dtype=np.float64)
        per_layer = []
        for weights in layers:
            z, lt = moe_layer_forward(weights, z, config, k_override_all)
            per_layer.append(lt)
        for i, (weights, lt) in enumerate(zip(layers, per_layer)):
            h = rmsnorm(lt.z_in) if config.use_prenorm else lt.z_in
            pairs = [expert_vec(e, h, config.activation) for e in weights.experts]
            lt.expert_outputs = np.stack([y for y, _ in pairs])
            lt.intermediates = np.stack([inter for _, inter in pairs])
            lt.shared_outputs = np.array([expert_vec(e, h, config.activation)[0]
                                          for e in weights.shared]).reshape(-1, config.d_hid)
            if refs is not None:
                lt.reference_output = expert_vec(refs[i], h, config.activation)[0]
        traces.append(per_layer)
    return traces


def assert_trace_matches(trace, oracle: list[list[TokenLayer]], atol=1e-12):
    """Every array of ``trace`` against the oracle's per-token traces; the
    routing must agree exactly."""
    assert trace.token_ids.size == len(oracle)
    for t, per_layer in enumerate(oracle):
        assert len(per_layer) == len(trace.layers)
        for i, (lt, want) in enumerate(zip(trace.layers, per_layer)):
            assert lt.selected[t].tolist() == want.selected
            np.testing.assert_allclose(trace.z[i, t], want.z_in, rtol=0, atol=atol)
            np.testing.assert_allclose(trace.z[i + 1, t], want.z_out, rtol=0, atol=atol)
            for name in ("gate_scores", "full_scores", "expert_outputs", "intermediates",
                         "shared_outputs", "reference_output"):
                got, ref = getattr(lt, name), getattr(want, name)
                if ref is None:
                    assert got is None, name
                else:
                    np.testing.assert_allclose(got[t], ref, rtol=0, atol=atol, err_msg=name)
