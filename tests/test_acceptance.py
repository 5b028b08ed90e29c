"""Acceptance criteria, one test per criterion.

Each test name carries its criterion number; the conftest terminal hook prints
a PASS/FAIL line per criterion after the run.  Tolerances here are contract
values, not implementation details: do not loosen them to make a change pass.
"""

import itertools
import os

import numpy as np
import pytest
from conftest import write_corpus

from moe_lens import ModelConfig
from moe_lens.cli import run_command
from moe_lens.dynamic_analysis import (activation_ratio, angular_sim,
                                       avg_output_sim, rank_count_matrix)
from moe_lens.moe_core import (CorpusTrace, LayerTrace, gate_from_logits,
                               recombined_output, trace_all_experts)
from moe_lens.static_analysis import (dbscan_outliers, kendall_tau,
                                      matrix_level_sim, gate_expert_regression,
                                      pca_project, reconstruct, reorder_neurons,
                                      solve_assignment)
from moe_lens.synth import (SynthSpec, synth_permuted_clone, synth_scratch,
                            synth_upcycled)
from moe_lens.tensor_store import (build_checkpoint, dump_checkpoint,
                                   parse_checkpoint, read_checkpoint,
                                   serialize_checkpoint)
from test_static_analysis import (brute_force_assignment, expert_rows, kendall_ref,
                                  random_expert)


def scratch_model(seed, layers=2, n=4, d_hid=32, d_mid=64, vocab=59, k=2):
    cfg = ModelConfig(num_layers=layers, experts_per_layer=[n] * layers,
                      num_shared=[0] * layers, top_k=k, d_hid=d_hid,
                      d_mid=d_mid, vocab=vocab)
    return synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=seed))


def norm_wired_trace(norms, d_hid=8):
    """Trace whose gate logits are a monotone function of the output norms;
    ``norms`` holds one row per token."""
    norms = np.asarray(norms, dtype=np.float64)
    t, n = norms.shape
    scores = np.exp(2.0 * norms)
    full = scores / scores.sum(axis=1, keepdims=True)
    order = np.argsort(-full, axis=1, kind="stable")
    gate = np.zeros((t, n))
    np.put_along_axis(gate, order[:, :2], np.take_along_axis(full, order[:, :2], 1), 1)
    outs = np.zeros((t, n, d_hid))
    outs[:, :, 0] = norms
    return CorpusTrace(token_ids=np.arange(t), z=np.zeros((2, t, d_hid)), layers=[LayerTrace(
        gate_scores=gate, full_scores=full, selected=order[:, :2], expert_outputs=outs,
        intermediates=np.zeros((t, n, 3)), shared_outputs=np.zeros((t, 0, d_hid)))])


def test_c01_two_stage_consistency():
    model = scratch_model(seed=41, layers=4, n=8, d_hid=32, d_mid=64, vocab=59)
    tokens = np.random.default_rng(41).integers(0, 59, 50).tolist()
    trace = trace_all_experts(model, tokens)
    assert trace.token_ids.size == 50
    assert len(trace.layers) == 4
    for t in range(50):
        for i, lt in enumerate(trace.layers):
            rebuilt = recombined_output(lt, trace.z[i])[t]
            z_out = trace.z[i + 1, t]
            scale = np.linalg.norm(z_out)
            assert scale > 0
            rel = np.linalg.norm(rebuilt - z_out) / scale
            assert rel <= 1e-5


def test_c02_upcycled_vs_scratch_separation():
    cfg = ModelConfig(num_layers=2, experts_per_layer=[4, 4], num_shared=[0, 0],
                      top_k=2, d_hid=32, d_mid=64, vocab=11)
    for seed in (301, 302, 303, 304, 305):
        up, _ = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=seed,
                                         upcycle_noise_std=0.3))
        sc = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=seed))
        for layer in range(2):
            for which in ("up", "act", "down"):
                up_mean = matrix_level_sim(up, layer, which).s_ee
                sc_mean = matrix_level_sim(sc, layer, which).s_ee
                assert up_mean >= 0.85
                assert abs(sc_mean) <= 0.05
                assert up_mean - sc_mean >= 0.3


def test_c03_reordering_oracle(rng):
    # Planted permutations come back exactly, with perfect post-alignment.
    for trial in range(10):
        base = random_expert(rng, d_mid=10, d_hid=6)
        perm = rng.permutation(10)
        clone = synth_permuted_clone(base, perm)
        for which in ("up", "act", "down"):
            rep = reorder_neurons(expert_rows(base, which), expert_rows(clone, which))
            np.testing.assert_array_equal(rep.permutation, perm)
            assert abs(rep.sim_after - 1.0) <= 1e-6

    # The assignment solver is exactly optimal against brute force.
    for n in range(2, 7):
        for _ in range(100):
            score = rng.normal(size=(n, n))
            perm = solve_assignment(score)
            got = sum(score[i, perm[i]] for i in range(n))
            _, best = brute_force_assignment(score, maximize=True)
            assert got == best

    # Reordering never decreases flattened similarity.
    for _ in range(100):
        a = random_expert(rng, d_mid=6, d_hid=5)
        b = random_expert(rng, d_mid=6, d_hid=5)
        rep = reorder_neurons(expert_rows(a, "up"), expert_rows(b, "up"))
        assert rep.sim_after >= rep.sim_before - 1e-9


def test_c04_kendall_tau_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 11))
        a = rng.permutation(n).tolist()
        b = rng.permutation(n).tolist()
        assert kendall_tau(a, b) == kendall_ref(a, b)
    for n in (2, 5, 10):
        ident = list(range(n))
        assert kendall_tau(ident, ident) == 1.0
        assert kendall_tau(ident, ident[::-1]) == -1.0


def test_c05_gate_correlation_construction():
    cfg = ModelConfig(num_layers=2, experts_per_layer=[6, 6], num_shared=[0, 0],
                      top_k=2, d_hid=16, d_mid=24, vocab=7)
    for seed in (201, 203, 205, 216, 221):
        ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=seed))
        tensors = {name: np.array(ck.get_tensor(name)) for name in ck.tensors}
        for layer in range(2):
            rows = [np.asarray(ck.get_tensor(f"layers.{layer}.experts.{e}.w_act"),
                               dtype=np.float64).mean(axis=0) for e in range(6)]
            tensors[f"layers.{layer}.gate.weight"] = \
                np.stack(rows).astype(np.float32)
        wired = build_checkpoint(cfg, tensors)
        for layer in range(2):
            assert gate_expert_regression(wired, layer, "act").r == \
                pytest.approx(1.0, abs=1e-6)
            assert abs(gate_expert_regression(wired, layer, "up").r) < 0.5
            assert abs(gate_expert_regression(wired, layer, "down").r) < 0.5


def test_c06_angular_similarity():
    assert angular_sim([1, 0], [1, 0]) == pytest.approx(1.0, abs=1e-9)
    assert angular_sim([1, 0], [0, 1]) == pytest.approx(0.5, abs=1e-9)
    assert angular_sim([1, 0], [-1, 0]) == pytest.approx(0.0, abs=1e-9)
    assert angular_sim([1, 1], [1, 0]) == pytest.approx(0.75, abs=1e-9)

    model = scratch_model(seed=7, layers=2, n=4, d_hid=16, d_mid=24, vocab=13)
    trace = trace_all_experts(model, list(range(13)))
    for layer in range(2):
        avg = avg_output_sim(trace, layer)
        defined = ~np.isnan(avg.values)
        assert np.all(avg.values[defined] >= 0.0)
        assert np.all(avg.values[defined] <= 1.0)


def test_c07_gating_order_selection_invariance(rng):
    n = 8
    for k in (1, 2, 6):
        for _ in range(10_000 // 3 + 1):
            logits = rng.normal(size=n)
            while len(np.unique(logits)) < n:  # enforce tie-free draws
                logits = rng.normal(size=n)
            _, sel_a = gate_from_logits(logits, k, "topk_then_softmax")
            _, sel_b = gate_from_logits(logits, k, "softmax_then_topk")
            assert list(sel_a) == list(sel_b)


def test_c08_norm_routing_diagonal(rng):
    trace = norm_wired_trace([rng.uniform(0.1, 3.0, 6) for t in range(100)])
    m = rank_count_matrix(trace, [0])
    counts = np.asarray(m.counts)
    assert m.total_events == 100
    np.testing.assert_array_equal(counts, np.diag(np.diag(counts)))
    np.testing.assert_array_equal(np.diag(counts), np.full(6, 100))
    np.testing.assert_array_equal(counts.sum(axis=0), m.total_events)
    np.testing.assert_array_equal(counts.sum(axis=1), m.total_events)

    # Marginals equal event totals on organic traces too, not just wired ones.
    model = scratch_model(seed=17, layers=2, n=4, d_hid=16, d_mid=24, vocab=13)
    organic = rank_count_matrix(trace_all_experts(model, list(range(13))), [0, 1])
    oc = np.asarray(organic.counts)
    np.testing.assert_array_equal(oc.sum(axis=0), organic.total_events)
    np.testing.assert_array_equal(oc.sum(axis=1), organic.total_events)


def test_c09_activation_ratio_counting():
    tr = norm_wired_trace([[1.0, 2.0]])
    tr.layers[0].intermediates = np.array([[[0.0005, 0.5, -0.2, 0.0001],
                                            [0.1, 0.002, 0.0, -0.5]]])
    rep = activation_ratio(tr, threshold=0.001)
    assert rep.per_expert[(0, 0)] == 0.5
    assert rep.per_expert[(0, 1)] == 0.75
    assert rep.overall == 0.625

    model = scratch_model(seed=23, layers=2, n=4, d_hid=16, d_mid=24, vocab=13)
    trace = trace_all_experts(model, list(range(13)))
    sweep = [activation_ratio(trace, threshold=t).overall
             for t in np.linspace(0.0, 2.0, 10)]
    assert all(later <= earlier for earlier, later in zip(sweep, sweep[1:]))


def test_c10_pca_dbscan(rng):
    data = rng.normal(size=(12, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
    proj = pca_project(data, dims=4, standardize=False)
    ev = proj.explained_variance
    assert np.all(ev[:-1] >= ev[1:])

    basis = rng.normal(size=(2, 7))
    flat = rng.normal(size=(15, 2)) @ basis + rng.normal(size=7)
    proj2 = pca_project(flat, dims=2, standardize=False)
    assert np.max(np.abs(reconstruct(proj2) - flat)) <= 1e-6

    cluster = [rng.normal(size=3) * 0.3 for _ in range(10)]
    cluster.append(np.array([1000.0, 0.0, 0.0]))
    assert dbscan_outliers(cluster, eps=50.0, min_pts=2) == {10}


def test_c11_determinism_and_formats(tmp_path, small_config):
    root = str(tmp_path)
    corpus = os.path.join(root, "corpus.txt")
    write_corpus(corpus, [[0, 1, 2, 3], [4, 5, 6]])
    synth_argv = ["synth", "--mode", "scratch", "--seed", "19",
                  "--out", os.path.join(root, "m"), "--layers", "2",
                  "--experts", "4", "--d-hid", "8", "--d-mid", "12",
                  "--vocab", "13"]
    model_path = os.path.join(root, "m", "model.moel")
    commands = [
        synth_argv,
        ["matrix-sim", "--model", model_path, "--layer", "all", "--which", "up",
         "--out", os.path.join(root, "ms")],
        ["avg-out-sim", "--model", model_path, "--corpus", corpus,
         "--layer", "0", "--out", os.path.join(root, "aos")],
        ["norm-rank", "--model", model_path, "--corpus", corpus,
         "--layer", "all", "--out", os.path.join(root, "nr")],
    ]

    def collect():
        blobs = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                p = os.path.join(dirpath, name)
                with open(p, "rb") as fh:
                    blobs[os.path.relpath(p, root)] = fh.read()
        return blobs

    for argv in commands:
        assert run_command(argv) == 0
    first = collect()
    assert any(name.endswith(".csv") for name in first)
    assert any(name.endswith(".ppm") for name in first)
    for argv in commands:
        assert run_command(argv) == 0
    assert collect() == first

    # Checkpoint round trips are bit-exact, in memory and through a file.
    model = read_checkpoint(model_path)
    blob = serialize_checkpoint(model)
    assert serialize_checkpoint(parse_checkpoint(blob)) == blob
    copy_path = os.path.join(root, "copy.moel")
    dump_checkpoint(parse_checkpoint(blob), copy_path)
    with open(model_path, "rb") as fh:
        original = fh.read()
    with open(copy_path, "rb") as fh:
        assert fh.read() == original
    for name in model.tensors:
        a = np.asarray(model.get_tensor(name))
        b = np.asarray(parse_checkpoint(blob).get_tensor(name))
        assert a.tobytes() == b.tobytes()
