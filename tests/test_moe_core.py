"""Forward engine: activations, experts, gating, layers, and corpus traces.

The layer tests pin the per-token oracle to hand computations; the trace
tests pin the corpus-wide engine to that oracle.
"""

import math
import textwrap

import numpy as np
import pytest
from conftest import SCIPY_MODULES, run_isolated

from moe_lens import ModelConfig
from moe_lens.moe_core import (Expert, activation_fn, expert_forward, gate_from_logits,
                               native_output, read_corpus, recombined_output, rmsnorm,
                               trace_all_experts)
from moe_lens.synth import SynthSpec, synth_scratch, synth_upcycled
from per_token_oracle import (GateParams, LayerWeights, assert_trace_matches,
                              load_layer_weights, moe_layer_forward, trace_per_token)


# --- independent oracles -----------------------------------------------------

def silu_ref(x):
    return x / (1.0 + math.exp(-x))


def gelu_ref(x):
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def expert_ref(w_up, w_act, w_down, x, act):
    """Triple-loop expert evaluation, no matrix ops."""
    d_mid, d_hid = len(w_up), len(w_up[0])
    inter = []
    for i in range(d_mid):
        up = sum(w_up[i][j] * x[j] for j in range(d_hid))
        pre = sum(w_act[i][j] * x[j] for j in range(d_hid))
        inter.append((up, act(pre)))
    out = []
    for j in range(d_hid):
        out.append(sum(w_down[j][i] * inter[i][0] * inter[i][1] for i in range(d_mid)))
    return out, [g for _, g in inter]


def softmax_ref(values):
    exps = [math.exp(v) for v in values]
    s = sum(exps)
    return [e / s for e in exps]


# --- activations -------------------------------------------------------------

def test_silu_zero_and_one():
    assert activation_fn("silu", 0.0) == 0.0
    assert abs(activation_fn("silu", 1.0) - 0.7310585786300049) < 1e-12


def test_gelu_matches_erf_form():
    for x in (-2.0, -0.5, 0.0, 0.3, 1.0, 4.0):
        assert abs(activation_fn("gelu", x) - gelu_ref(x)) < 1e-12


def test_silu_in_numpy_matches_expit_form():
    # silu needs no scipy; it must agree with x * expit(x) to a few ulp even
    # where exp(-x) overflows, and warn nowhere.
    run_isolated(textwrap.dedent(f"""
        import sys, warnings
        import numpy as np
        from moe_lens.moe_core import activation_fn
        x = np.concatenate([np.linspace(-1000.0, 1000.0, 40001),
                            [-745.2, -709.8, -709.7, -1e-300, -0.0, 5e-324, 1e300, -1e300]])
        warnings.simplefilter("error")
        got = activation_fn("silu", x)
        assert {SCIPY_MODULES} == []
        from scipy.special import expit
        np.testing.assert_array_max_ulp(got, x * expit(x), maxulp=4)
        """))


def test_gelu_imports_erf_when_called():
    run_isolated(textwrap.dedent(f"""
        import math, sys
        import numpy as np
        from moe_lens.moe_core import activation_fn
        assert {SCIPY_MODULES} == []
        x = np.linspace(-6.0, 6.0, 241)
        want = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
        np.testing.assert_allclose(activation_fn("gelu", x), want, rtol=1e-14, atol=0)
        """))
    assert activation_fn("gelu", 0.0) == 0.0


def test_activation_vectorized_matches_scalar():
    xs = np.linspace(-4, 4, 17)
    got = activation_fn("silu", xs)
    want = [silu_ref(float(x)) for x in xs]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        activation_fn("relu", 1.0)


# --- expert forward ----------------------------------------------------------

def test_expert_scalar_oracle():
    # 1-d everything: output = w_down * (w_up * x) * silu(w_act * x)
    e = Expert(w_up=np.array([[2.0]]), w_act=np.array([[1.0]]), w_down=np.array([[3.0]]))
    y, inter = expert_forward(e, np.array([1.0]), "silu")
    assert abs(inter[0] - 0.7310585786300049) < 1e-9
    assert abs(y[0] - 3.0 * 2.0 * 0.7310585786300049) < 1e-9


def test_expert_zero_input_gives_zero_output():
    rng = np.random.default_rng(5)
    e = Expert(w_up=rng.normal(size=(6, 4)), w_act=rng.normal(size=(6, 4)),
               w_down=rng.normal(size=(4, 6)))
    for act in ("silu", "gelu"):
        y, inter = expert_forward(e, np.zeros(4), act)
        assert np.all(y == 0.0)
        assert np.all(inter == 0.0)


def test_expert_matches_loop_oracle():
    rng = np.random.default_rng(11)
    w_up = rng.normal(size=(6, 4))
    w_act = rng.normal(size=(6, 4))
    w_down = rng.normal(size=(4, 6))
    x = rng.normal(size=4)
    for act_name, act in (("silu", silu_ref), ("gelu", gelu_ref)):
        y, inter = expert_forward(Expert(w_up, w_act, w_down), x, act_name)
        want_y, want_inter = expert_ref(w_up.tolist(), w_act.tolist(),
                                        w_down.tolist(), x.tolist(), act)
        np.testing.assert_allclose(y, want_y, atol=1e-6)
        np.testing.assert_allclose(inter, want_inter, atol=1e-6)


def test_expert_dimension_mismatch():
    e = Expert(w_up=np.ones((3, 2)), w_act=np.ones((3, 2)), w_down=np.ones((2, 3)))
    with pytest.raises(ValueError):
        expert_forward(e, np.ones(5), "silu")


# --- gating ------------------------------------------------------------------

def test_gate_topk_then_softmax_frozen_example():
    scores, selected = gate_from_logits(np.array([1.0, 2.0, 3.0]), 2,
                                        "topk_then_softmax")
    ref = softmax_ref([2.0, 3.0])
    assert selected.tolist() == [2, 1]
    assert abs(scores[0]) == 0.0
    assert abs(scores[1] - ref[0]) < 1e-9   # 0.268941
    assert abs(scores[2] - ref[1]) < 1e-9   # 0.731059
    assert abs(scores.sum() - 1.0) < 1e-6


def test_gate_softmax_then_topk_frozen_example():
    scores, selected = gate_from_logits(np.array([1.0, 2.0, 3.0]), 2,
                                        "softmax_then_topk")
    ref = softmax_ref([1.0, 2.0, 3.0])
    assert selected.tolist() == [2, 1]
    assert scores[0] == 0.0
    assert abs(scores[1] - ref[1]) < 1e-9   # 0.244728
    assert abs(scores[2] - ref[2]) < 1e-9   # 0.665241
    # No renormalization: the kept probabilities sum below one.
    assert scores.sum() < 1.0


def test_gate_orders_select_same_experts_when_tie_free(rng):
    for _ in range(300):
        logits = rng.normal(size=8)
        for k in (1, 3, 8):
            _, sel_a = gate_from_logits(logits, k, "topk_then_softmax")
            _, sel_b = gate_from_logits(logits, k, "softmax_then_topk")
            assert sel_a.tolist() == sel_b.tolist()


def test_gate_tie_goes_to_lower_index():
    scores, selected = gate_from_logits(np.array([1.0, 1.0, 0.0]), 1,
                                        "topk_then_softmax")
    assert selected.tolist() == [0]
    assert scores[0] == 1.0


def test_gate_k_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        gate_from_logits(np.array([1.0, 2.0]), 3, "topk_then_softmax")


# --- layer forward -----------------------------------------------------------

def layer_from(config, rng, n_experts, shared=0):
    mk = lambda: Expert(w_up=rng.normal(size=(config.d_mid, config.d_hid)),
                        w_act=rng.normal(size=(config.d_mid, config.d_hid)),
                        w_down=rng.normal(size=(config.d_hid, config.d_mid)))
    gate = None if n_experts == 1 else GateParams(
        w_g=rng.normal(size=(n_experts, config.d_hid)))
    return LayerWeights(experts=[mk() for _ in range(n_experts)], gate=gate,
                        shared=[mk() for _ in range(shared)])


def test_layer_zero_weights_is_identity(small_config):
    zeros = lambda shape: np.zeros(shape)
    e = Expert(w_up=zeros((12, 8)), w_act=zeros((12, 8)), w_down=zeros((8, 12)))
    weights = LayerWeights(experts=[e, e], gate=GateParams(w_g=np.zeros((2, 8))),
                           shared=[])
    cfg = ModelConfig(num_layers=1, experts_per_layer=[2], num_shared=[0], top_k=1,
                      d_hid=8, d_mid=12, vocab=17)
    x = np.arange(8, dtype=float)
    z, _ = moe_layer_forward(weights, x, cfg)
    np.testing.assert_array_equal(z, x)


def test_layer_matches_compositional_oracle():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[2], num_shared=[0], top_k=1,
                      d_hid=2, d_mid=2, vocab=3)
    rng = np.random.default_rng(42)
    weights = layer_from(cfg, rng, n_experts=2)
    x = rng.normal(size=2)
    z, trace = moe_layer_forward(weights, x, cfg)

    h = x / np.sqrt(np.mean(x * x) + 1e-6)
    scores, selected = gate_from_logits(weights.gate.w_g @ h, 1, cfg.gating_order)
    picked = selected[0]
    y, _ = expert_forward(weights.experts[picked], h, cfg.activation)
    np.testing.assert_allclose(z, x + scores[picked] * y, atol=1e-6)
    assert trace.selected == selected


def test_dense_layer_equals_one_expert_with_unit_score():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0], top_k=1,
                      d_hid=4, d_mid=6, vocab=3)
    rng = np.random.default_rng(9)
    weights = layer_from(cfg, rng, n_experts=1)
    x = rng.normal(size=4)
    z, trace = moe_layer_forward(weights, x, cfg)
    h = rmsnorm(x)
    y, _ = expert_forward(weights.experts[0], h, "silu")
    np.testing.assert_allclose(z, x + 1.0 * y, atol=1e-12)
    assert trace.selected == [0]
    assert trace.gate_scores.tolist() == [1.0]


def test_shared_experts_bypass_gate():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[2], num_shared=[2], top_k=1,
                      d_hid=4, d_mid=5, vocab=3)
    rng = np.random.default_rng(10)
    weights = layer_from(cfg, rng, n_experts=2, shared=2)
    x = rng.normal(size=4)
    z, _ = moe_layer_forward(weights, x, cfg)
    h = rmsnorm(x)
    scores, selected = gate_from_logits(weights.gate.w_g @ h, 1, cfg.gating_order)
    want = x + scores[selected[0]] * expert_forward(weights.experts[selected[0]], h)[0]
    for s in weights.shared:
        want = want + expert_forward(s, h)[0]
    np.testing.assert_allclose(z, want, atol=1e-9)


def test_prenorm_off_feeds_raw_input():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0], top_k=1,
                      d_hid=4, d_mid=5, vocab=3, use_prenorm=False)
    rng = np.random.default_rng(2)
    weights = layer_from(cfg, rng, n_experts=1)
    x = rng.normal(size=4)
    z, _ = moe_layer_forward(weights, x, cfg)
    np.testing.assert_allclose(z, x + expert_forward(weights.experts[0], x)[0],
                               atol=1e-12)


# --- model forward and tracing -------------------------------------------------

def test_trace_zero_layers_keeps_embedding():
    cfg = ModelConfig(num_layers=0, experts_per_layer=[], num_shared=[], top_k=1,
                      d_hid=4, d_mid=5, vocab=3)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=0))
    trace = trace_all_experts(ck, [1])
    assert trace.layers == []
    np.testing.assert_array_equal(trace.z, [[ck.get_tensor("embed.weight")[1]]])


def test_trace_composes_layers(small_checkpoint):
    ck = small_checkpoint
    tokens = [3, 8, 3]
    trace = trace_all_experts(ck, tokens)
    for t, token in enumerate(tokens):
        z = np.asarray(ck.get_tensor("embed.weight")[token], dtype=np.float64)
        for i in range(ck.config.num_layers):
            z, _ = moe_layer_forward(load_layer_weights(ck, i), z, ck.config)
        np.testing.assert_allclose(trace.z[-1, t], z, rtol=0, atol=1e-12)


def test_trace_token_out_of_range(small_checkpoint):
    with pytest.raises(ValueError, match="token id out of range"):
        trace_all_experts(small_checkpoint, [17])


def test_trace_shapes_and_native_routing(small_checkpoint):
    ck = small_checkpoint
    tokens = [0, 5, 9]
    trace = trace_all_experts(ck, tokens)
    assert trace.token_ids.tolist() == tokens
    assert trace.z.shape == (3, 3, 8)
    assert len(trace.layers) == 2
    for lt in trace.layers:
        assert lt.expert_outputs.shape == (3, 4, 8)
        assert lt.intermediates.shape == (3, 4, 12)
        assert lt.selected.shape == (3, 2)
        for t in range(3):
            assert set(np.flatnonzero(lt.gate_scores[t])) == set(lt.selected[t])
            assert abs(lt.full_scores[t].sum() - 1.0) < 1e-9


def test_trace_recombination_reproduces_recorded_outputs(small_checkpoint):
    trace = trace_all_experts(small_checkpoint, list(range(10)))
    for i, lt in enumerate(trace.layers):
        z_out = trace.z[i + 1]
        scale = np.linalg.norm(z_out, axis=1)
        err = np.linalg.norm(recombined_output(lt, trace.z[i]) - z_out, axis=1)
        assert np.all(err <= 1e-5 * np.maximum(scale, 1e-12))


def test_trace_selected_matches_native_forward(small_checkpoint):
    ck = small_checkpoint
    trace = trace_all_experts(ck, [4])
    # An independent per-token pass must agree with the trace's routing.
    x = np.asarray(ck.get_tensor("embed.weight")[4], dtype=np.float64)
    z = x
    for i, lt in enumerate(trace.layers):
        _, fresh = moe_layer_forward(load_layer_weights(ck, i), z, ck.config)
        assert fresh.selected == lt.selected[0].tolist()
        np.testing.assert_allclose(trace.z[i, 0], z, rtol=0, atol=1e-12)
        z = fresh.z_out
        np.testing.assert_allclose(trace.z[i + 1, 0], z, rtol=0, atol=1e-12)


def test_trace_with_shared_and_dense_layers():
    cfg = ModelConfig(num_layers=3, experts_per_layer=[4, 1, 3], num_shared=[1, 0, 0],
                      top_k=2, d_hid=8, d_mid=10, vocab=13)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=77))
    trace = trace_all_experts(ck, [1, 2])
    dense = trace.layers[1]
    assert dense.expert_outputs.shape == (2, 1, 8)
    assert dense.selected.tolist() == [[0], [0]]
    assert dense.gate_scores.tolist() == [[1.0], [1.0]]
    assert trace.layers[0].shared_outputs.shape == (2, 1, 8)
    assert trace.layers[2].shared_outputs.shape == (2, 0, 8)
    for i, lt in enumerate(trace.layers):
        z_out = trace.z[i + 1]
        err = np.linalg.norm(recombined_output(lt, trace.z[i]) - z_out, axis=1)
        assert np.all(err <= 1e-5 * np.maximum(np.linalg.norm(z_out, axis=1), 1e-12))


def test_trace_k_override_routes_everything(small_checkpoint):
    trace = trace_all_experts(small_checkpoint, [0], k_override_all=True)
    lt = trace.layers[0]
    assert sorted(lt.selected[0].tolist()) == [0, 1, 2, 3]
    assert abs(lt.gate_scores[0].sum() - 1.0) < 1e-9


def test_trace_reference_outputs_present():
    cfg = ModelConfig(num_layers=2, experts_per_layer=[3, 3], num_shared=[0, 0],
                      top_k=1, d_hid=6, d_mid=8, vocab=7)
    model, ref = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=5,
                                          upcycle_noise_std=0.5))
    trace = trace_all_experts(model, [0], reference=ref)
    lt = trace.layers[0]
    assert lt.reference_output is not None
    assert lt.reference_output.shape == (1, 6)


def upcycled_pair(noise):
    cfg = ModelConfig(num_layers=2, experts_per_layer=[4, 4], num_shared=[0, 0],
                      top_k=2, d_hid=16, d_mid=24, vocab=29)
    return synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=13,
                                    upcycle_noise_std=noise))


def fine_grained_model():
    """Dense middle layer, shared experts, softmax-then-top-k, gelu, no prenorm."""
    cfg = ModelConfig(num_layers=3, experts_per_layer=[6, 1, 6], num_shared=[2, 0, 2],
                      top_k=2, d_hid=16, d_mid=20, vocab=31, activation="gelu",
                      gating_order="softmax_then_topk", use_prenorm=False)
    return synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=21))


@pytest.mark.parametrize("with_ref, k_override_all", [(False, False), (True, False),
                                                      (True, True)])
def test_trace_matches_per_token_oracle(with_ref, k_override_all):
    tokens = [0, 7, 28, 7, 12, 3]
    if with_ref:
        model, ref = upcycled_pair(noise=0.3)
    else:
        model, ref = fine_grained_model(), None
    trace = trace_all_experts(model, tokens, ref, k_override_all)
    oracle = trace_per_token(model, tokens, ref, k_override_all)
    assert_trace_matches(trace, oracle)
    # The native pass, fed the trace's block inputs and routing, gives the
    # oracle's native per-token block outputs.
    for i, lt in enumerate(trace.layers):
        want = np.stack([per_layer[i].z_out for per_layer in oracle])
        np.testing.assert_allclose(native_output(model, i, lt, trace.z[i]), want,
                                   rtol=0, atol=1e-12)


def test_trace_identical_experts_give_equal_outputs():
    model, ref = upcycled_pair(noise=0.0)
    tokens = list(range(29))
    trace = trace_all_experts(model, tokens, ref)
    assert_trace_matches(trace, trace_per_token(model, tokens, ref))
    for lt in trace.layers:
        for n in range(1, 4):
            assert np.array_equal(lt.expert_outputs[:, 0], lt.expert_outputs[:, n])
            assert np.array_equal(lt.intermediates[:, 0], lt.intermediates[:, n])


# --- corpus ------------------------------------------------------------------

def test_read_corpus_round_trip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("1 2 3\n\n7 8\n", encoding="utf-8")
    assert read_corpus(path, 9) == [1, 2, 3, 7, 8]


def test_read_corpus_rejects_garbage(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("1 banana 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        read_corpus(path, 9)


def test_read_corpus_rejects_negative(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("1 -2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="negative"):
        read_corpus(path, 9)


def test_read_corpus_rejects_ids_outside_vocab(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("1 2\n\n3 9 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"token id out of range on line 3: 9 \(vocab 9\)"):
        read_corpus(path, 9)
