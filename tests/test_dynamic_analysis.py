"""Activation-space analyses over traced forward passes."""

import math

import numpy as np
import pytest
from conftest import cosine_ref

from moe_lens import ModelConfig
from moe_lens.dynamic_analysis import (activation_ratio, angular_sim,
                                       avg_output_sim, output_sim_per_token,
                                       rank_count_matrix, routing_pattern)
from moe_lens.moe_core import CorpusTrace, LayerTrace, trace_all_experts
from moe_lens.synth import SynthSpec, synth_scratch, synth_upcycled


def traced_model(seed=5, noise=None, n=4, layers=2, vocab=11, k=2):
    cfg = ModelConfig(num_layers=layers, experts_per_layer=[n] * layers,
                      num_shared=[0] * layers, top_k=k, d_hid=16, d_mid=24,
                      vocab=vocab)
    if noise is None:
        ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=seed))
        ref = None
    else:
        ck, ref = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=seed,
                                           upcycle_noise_std=noise))
    tokens = [int(t) for t in np.random.default_rng(seed).integers(0, vocab, 40)]
    return ck, ref, trace_all_experts(ck, tokens, reference=ref)


def synthetic_trace(logits, norms, d_hid=4, k=2):
    """One-layer trace with chosen gate logits and output norms, one row per token.

    Every output points along the first axis, so nonzero outputs are mutually
    parallel; rank tests only care about the norms anyway.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    t, n = logits.shape
    exp = np.exp(logits)
    full = exp / exp.sum(axis=1, keepdims=True)
    selected = np.argsort(-full, axis=1, kind="stable")[:, :k]
    scores = np.zeros((t, n))
    np.put_along_axis(scores, selected, np.take_along_axis(full, selected, 1), 1)
    outs = np.zeros((t, n, d_hid))
    outs[:, :, 0] = norms
    return CorpusTrace(token_ids=np.arange(t), z=np.zeros((2, t, d_hid)), layers=[LayerTrace(
        gate_scores=scores, full_scores=full, selected=selected,
        expert_outputs=outs, intermediates=np.zeros((t, n, 3)),
        shared_outputs=np.zeros((t, 0, d_hid)))])


def first_tokens(trace, t):
    """The trace of the first ``t`` tokens alone."""
    return CorpusTrace(token_ids=trace.token_ids[:t], z=trace.z[:, :t], layers=[
        LayerTrace(**{name: None if value is None else value[:t]
                      for name, value in vars(lt).items()})
        for lt in trace.layers])


# --- angular similarity -------------------------------------------------------

def test_angular_frozen_values():
    assert angular_sim([1, 0], [1, 0]) == pytest.approx(1.0, abs=1e-9)
    assert angular_sim([1, 0], [0, 1]) == pytest.approx(0.5, abs=1e-9)
    assert angular_sim([1, 0], [-1, 0]) == pytest.approx(0.0, abs=1e-9)
    assert angular_sim([1, 1], [1, 0]) == pytest.approx(0.75, abs=1e-9)


def test_angular_monotone_in_angle():
    base = np.array([1.0, 0.0])
    vals = [angular_sim(base, np.array([math.cos(t), math.sin(t)]))
            for t in np.linspace(0.0, math.pi, 25)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_angular_survives_rounding_at_extremes(rng):
    u = rng.normal(size=16)
    # arccos loses precision near the endpoints; what matters is staying in
    # range and not producing NaN from a cosine a hair outside [-1, 1].
    assert angular_sim(u, 3.7 * u) == pytest.approx(1.0, abs=1e-7)
    assert angular_sim(u, -2.0 * u) == pytest.approx(0.0, abs=1e-7)
    assert not math.isnan(angular_sim(u, u))


# --- per-token output similarity ------------------------------------------------

def test_output_sim_identical_experts():
    ck, ref, trace = traced_model(noise=0.0)
    sim = output_sim_per_token(trace, 0, 0)
    # Expert block only; the trailing row/column belongs to the reference.
    block = sim.values[:4, :4]
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_allclose(block[off], 1.0, atol=1e-9)


def test_output_sim_matches_direct_cosine():
    ck, ref, trace = traced_model()
    lt = trace.layers[1]
    sim = output_sim_per_token(trace, 1, 3)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            want = cosine_ref(lt.expert_outputs[3, i], lt.expert_outputs[3, j])
            assert sim.values[i, j] == pytest.approx(want, abs=1e-12)


def test_output_sim_masks_zero_outputs():
    tr = synthetic_trace(logits=[1.0, 2.0, 3.0], norms=[1.0, 0.0, 2.0])
    sim = output_sim_per_token(tr, 0, 0)
    assert np.isnan(sim.values[1, 0]) and np.isnan(sim.values[0, 1])
    assert np.isnan(sim.values[1, 1])
    assert sim.values[0, 2] == pytest.approx(1.0)


def test_output_sim_marks_selected():
    ck, ref, trace = traced_model()
    sim = output_sim_per_token(trace, 0, 0)
    native = trace.layers[0].selected[0]
    assert sim.selected_labels == [str(e) for e in native]


def test_output_sim_includes_reference_column():
    ck, ref, trace = traced_model(noise=0.3)
    sim = output_sim_per_token(trace, 0, 0)
    assert sim.labels[-1] == "F"
    assert sim.values.shape == (5, 5)
    assert sim.s_ef is not None


def test_output_sim_layer_out_of_range():
    ck, ref, trace = traced_model()
    with pytest.raises(ValueError, match="out of range"):
        output_sim_per_token(trace, 5, 0)


@pytest.mark.parametrize("token", [-1, 3])
def test_output_sim_token_out_of_range(token):
    """A negative token would index from the end, and one past the trace would
    raise a bare IndexError; both are refused by name."""
    ck, ref, _ = traced_model()
    trace = trace_all_experts(ck, [1, 2, 3])
    with pytest.raises(ValueError, match=f"^token {token} out of range for a trace of 3 tokens$"):
        output_sim_per_token(trace, 0, token)


# --- averaged output similarity ----------------------------------------------------

def test_avg_output_sim_single_token_equals_angular_of_per_token():
    ck, ref, trace = traced_model()
    avg = avg_output_sim(first_tokens(trace, 1), 0)
    per = output_sim_per_token(trace, 0, 0)
    want = 1.0 - np.arccos(per.values) / np.pi
    np.testing.assert_allclose(avg.values, want, atol=1e-12)


def test_avg_output_sim_bounds_and_diagonal():
    ck, ref, trace = traced_model()
    avg = avg_output_sim(trace, 1)
    defined = ~np.isnan(avg.values)
    assert np.all(avg.values[defined] >= 0.0)
    assert np.all(avg.values[defined] <= 1.0)
    np.testing.assert_allclose(np.diag(avg.values), 1.0, atol=1e-9)


def test_avg_output_sim_order_invariant():
    ck, ref, trace = traced_model()
    fwd = avg_output_sim(trace, 0)
    rev = avg_output_sim(trace_all_experts(ck, trace.token_ids[::-1].tolist()), 0)
    np.testing.assert_allclose(fwd.values, rev.values, atol=1e-12)


def test_avg_output_sim_separates_upcycled_from_scratch():
    _, _, up_trace = traced_model(seed=9, noise=0.3)
    _, _, sc_trace = traced_model(seed=9)
    up = avg_output_sim(up_trace, 0)
    sc = avg_output_sim(sc_trace, 0)
    off = ~np.eye(4, dtype=bool)
    up_mean = np.nanmean(up.values[:4, :4][off])
    sc_mean = np.nanmean(sc.values[off])
    assert up_mean - sc_mean >= 0.2


def test_avg_output_sim_counts_defined_cells_only():
    trace = synthetic_trace(logits=[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
                            norms=[[1.0, 0.0, 2.0], [1.0, 3.0, 2.0]])
    avg = avg_output_sim(trace, 0)
    # Cell (0,1) is defined only in the second trace; the masked first one must
    # not dilute it toward zero.
    assert avg.values[0, 1] == pytest.approx(1.0)


def test_avg_output_sim_empty_rejected():
    ck, _, trace = traced_model()
    with pytest.raises(ValueError, match="no traces"):
        avg_output_sim(trace_all_experts(ck, []), 0)


# --- norms and rank counting --------------------------------------------------------

def test_rank_count_frozen_two_expert_event():
    # norms [5, 2]: expert 0 ranks 2nd-smallest, expert 1 ranks 1st.
    # logits [0.2, 0.8]: expert 0 ranks 1st-smallest, expert 1 ranks 2nd.
    tr = synthetic_trace(logits=[0.2, 0.8], norms=[5.0, 2.0])
    m = rank_count_matrix(tr, [0])
    assert m.total_events == 1
    assert m.counts[1][0] == 1
    assert m.counts[0][1] == 1
    assert m.counts[0][0] == 0 and m.counts[1][1] == 0


def test_rank_count_perfect_agreement_is_diagonal():
    trace = synthetic_trace(logits=[[3.0, 2.0, 1.0]] * 7, norms=[[9.0, 5.0, 1.0]] * 7)
    m = rank_count_matrix(trace, [0])
    assert m.total_events == 7
    np.testing.assert_array_equal(np.asarray(m.counts), np.diag([7, 7, 7]))


def test_rank_count_marginals():
    rng = np.random.default_rng(11)
    rows = [(rng.normal(size=4), rng.uniform(0.1, 5.0, 4)) for i in range(25)]
    trace = synthetic_trace(logits=[l for l, _ in rows], norms=[n for _, n in rows])
    m = rank_count_matrix(trace, [0])
    counts = np.asarray(m.counts)
    np.testing.assert_array_equal(counts.sum(axis=0), 25)
    np.testing.assert_array_equal(counts.sum(axis=1), 25)


def test_rank_count_ties_broken_by_expert_index():
    tr = synthetic_trace(logits=[1.0, 1.0], norms=[2.0, 2.0])
    m = rank_count_matrix(tr, [0])
    # Both rankings resolve ties in expert order, so the event is diagonal.
    assert m.counts[0][0] == 1
    assert m.counts[1][1] == 1


def test_rank_count_rejects_mixed_widths():
    cfg = ModelConfig(num_layers=2, experts_per_layer=[4, 6], num_shared=[0, 0],
                      top_k=2, d_hid=8, d_mid=12, vocab=5)
    mixed = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=3))
    mixed_trace = trace_all_experts(mixed, [0, 1])
    with pytest.raises(ValueError, match="differing expert counts"):
        rank_count_matrix(mixed_trace, [0, 1])


def test_rank_count_needs_a_token_and_a_layer():
    ck, ref, trace = traced_model()
    for empty, layers in ((first_tokens(trace, 0), [0]), (trace, [])):
        with pytest.raises(ValueError, match="need at least one trace and one layer"):
            rank_count_matrix(empty, layers)


def test_rank_count_accumulates_across_layers():
    ck, ref, trace = traced_model()
    both = rank_count_matrix(trace, [0, 1])
    only0 = rank_count_matrix(trace, [0])
    only1 = rank_count_matrix(trace, [1])
    np.testing.assert_array_equal(both.counts, only0.counts + only1.counts)
    assert both.total_events == 2 * trace.token_ids.size


# --- activation ratio ----------------------------------------------------------------

def make_intermediate_trace(values):
    tr = synthetic_trace(logits=[1.0, 2.0], norms=[1.0, 1.0])
    tr.layers[0].intermediates = np.asarray([values], dtype=np.float64)
    return tr


def test_activation_ratio_frozen_example():
    tr = make_intermediate_trace([[0.0005, 0.5, -0.2, 0.0001],
                                  [1.0, 1.0, 1.0, 1.0]])
    rep = activation_ratio(tr, threshold=0.001)
    assert rep.per_expert[(0, 0)] == pytest.approx(0.5)
    assert rep.per_expert[(0, 1)] == pytest.approx(1.0)
    assert rep.overall == pytest.approx(0.75)


def test_activation_ratio_strictly_above():
    tr = make_intermediate_trace([[0.001, 0.002], [0.0, 0.0015]])
    rep = activation_ratio(tr, threshold=0.001)
    # Entries equal to the threshold do not count.
    assert rep.per_expert[(0, 0)] == pytest.approx(0.5)
    assert rep.per_expert[(0, 1)] == pytest.approx(0.5)


def test_activation_ratio_monotone_in_threshold():
    ck, ref, trace = traced_model()
    fracs = [activation_ratio(trace, threshold=t).overall
             for t in np.linspace(0.0, 2.0, 10)]
    assert all(b <= a + 1e-12 for a, b in zip(fracs, fracs[1:]))


def test_activation_ratio_all_zero_intermediates():
    tr = make_intermediate_trace(np.zeros((2, 6)))
    rep = activation_ratio(tr, threshold=0.001)
    assert rep.overall == 0.0


def test_activation_ratio_keys_cover_layers_and_experts():
    ck, ref, trace = traced_model(layers=2, n=3)
    rep = activation_ratio(trace, threshold=0.01)
    assert set(rep.per_expert) == {(l, e) for l in range(2) for e in range(3)}


def test_activation_ratio_refuses_a_trace_without_tokens():
    ck, ref, trace = traced_model()
    with pytest.raises(ValueError, match="no traces given: the trace holds no tokens"):
        activation_ratio(first_tokens(trace, 0))


def test_activation_ratio_rejects_negative_threshold():
    with pytest.raises(ValueError, match="nonnegative"):
        activation_ratio(synthetic_trace([1.0, 2.0], [1.0, 1.0]), threshold=-0.1)


# --- routing log --------------------------------------------------------------------

def test_routing_pattern_counts_and_scores():
    ck, ref, trace = traced_model(k=2)
    token_index, token_id, layer, slot, expert, score = routing_pattern(trace)
    t = trace.token_ids.size
    # One row per token, gated layer and slot, in that order.
    assert np.array_equal(token_index, np.repeat(np.arange(t), 2 * 2))
    assert np.array_equal(layer, np.tile([0, 0, 1, 1], t))
    assert np.array_equal(slot, np.tile([0, 1], 2 * t))
    assert np.array_equal(token_id, trace.token_ids[token_index])
    for idx in range(t):
        for l, lt in enumerate(trace.layers):
            rows = (token_index == idx) & (layer == l)
            assert expert[rows].tolist() == lt.selected[idx].tolist()
            for e, sc in zip(expert[rows], score[rows]):
                assert sc == pytest.approx(float(lt.gate_scores[idx, e]))
            scores = score[rows].tolist()
            assert scores == sorted(scores, reverse=True)


def test_routing_pattern_skips_single_expert_layers():
    cfg = ModelConfig(num_layers=2, experts_per_layer=[1, 4], num_shared=[0, 0],
                      top_k=1, d_hid=8, d_mid=12, vocab=5)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=2))
    token_index, token_id, layer, slot, expert, score = routing_pattern(
        trace_all_experts(ck, [0, 1, 2]))
    assert set(layer.tolist()) == {1}
    assert token_index.tolist() == [0, 1, 2]


def test_routing_pattern_layers_of_different_widths_under_k_override():
    cfg = ModelConfig(num_layers=2, experts_per_layer=[2, 3], num_shared=[0, 0],
                      top_k=1, d_hid=8, d_mid=12, vocab=5)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=2))
    token_index, _, layer, slot, expert, _ = routing_pattern(
        trace_all_experts(ck, [3, 4], k_override_all=True))
    assert token_index.tolist() == [0] * 5 + [1] * 5
    assert layer.tolist() == [0, 0, 1, 1, 1] * 2
    assert slot.tolist() == [0, 1, 0, 1, 2] * 2
    assert sorted(expert[:2].tolist()) == [0, 1] and sorted(expert[2:5].tolist()) == [0, 1, 2]
