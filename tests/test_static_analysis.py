"""Weight-space analyses: cosine, averaging, reordering, regression, PCA, DBSCAN."""

import ast
import itertools
import os
import textwrap
import tracemalloc

import numpy as np
import pca_oracle
import pytest
import reorder_oracle
from conftest import SCIPY_MODULES, cosine_ref, kendall_ref, run_isolated
from dbscan_oracle import dbscan_noise
from hypothesis import assume, example, given
from hypothesis import strategies as st

import moe_lens
from moe_lens import ModelConfig
from moe_lens.dynamic_analysis import angular_sim, avg_output_sim, output_sim_per_token
from moe_lens.moe_core import Expert, trace_all_experts
from moe_lens.static_analysis import (_BALL_BLOCK, WHICH_MATRICES, SimilarityMatrix,
                                      _orient_components, aggregate_r2, dbscan_outliers,
                                      gate_embedding_sim, gate_expert_regression, kendall_tau,
                                      layer_weights, matrix_level_sim, neuron_average_sim,
                                      neuron_rows, pairwise_cosine, pairwise_reorder_reports,
                                      pca_project, pearson_r, reconstruct, reorder_neurons,
                                      solve_assignment)
from moe_lens.synth import (SynthSpec, synth_permuted_clone,
                            synth_permuted_clone_model, synth_scratch, synth_upcycled)
from moe_lens.report import format_cell
from moe_lens.tensor_store import (build_checkpoint, ffn_prefixes, read_checkpoint,
                                  required_tensor_shapes)


# --- oracles -----------------------------------------------------------------

def brute_force_assignment(score, maximize=True):
    n = score.shape[0]
    best_perm, best_total = None, None
    for perm in itertools.permutations(range(n)):
        total = sum(score[i, perm[i]] for i in range(n))
        better = best_total is None or (total > best_total if maximize
                                        else total < best_total)
        if better:
            best_perm, best_total = perm, total
    return np.array(best_perm), best_total


def assignment_old_rule(score, maximize=True):
    """The assignment rule before the identity certificate: scipy's optimum,
    replaced by identity whenever identity attains the same total."""
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(score, maximize=maximize)
    perm = cols[np.argsort(rows)]
    idx = np.arange(len(score))
    best, ident = score[idx, perm].sum(), score[idx, idx].sum()
    return idx if ((ident >= best) if maximize else (ident <= best)) else perm


def inversions_chunked(ranked, chunk=512):
    """Pairs i < j with ranked[i] > ranked[j], compared a block of rows at a time."""
    ranked = np.asarray(ranked)
    positions = np.arange(len(ranked))
    count = 0
    for start in range(0, len(ranked), chunk):
        head = positions[start:start + chunk, None]
        later = positions[None, :] > head
        count += int(np.count_nonzero(later & (ranked[None, :] < ranked[head])))
    return count


def random_expert(rng, d_mid=6, d_hid=4):
    return Expert(w_up=rng.normal(size=(d_mid, d_hid)),
                  w_act=rng.normal(size=(d_mid, d_hid)),
                  w_down=rng.normal(size=(d_hid, d_mid)))


def expert_rows(expert, which):
    """One expert's neuron rows of the chosen matrix, as the analyses read them."""
    return neuron_rows(np.asarray(getattr(expert, f"w_{which}"), dtype=np.float64), which)


def regression(ckpt, layer, which):
    """gate-corr's regression of one layer, on the matrices the command builds."""
    return gate_expert_regression(gate_embedding_sim(ckpt, layer),
                                  neuron_average_sim(*layer_weights(ckpt, layer, which), which))


def upcycled_pair(seed=0, noise=0.3, n=4):
    cfg = ModelConfig(num_layers=1, experts_per_layer=[n], num_shared=[0], top_k=2,
                      d_hid=16, d_mid=24, vocab=7)
    return synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=seed,
                                    upcycle_noise_std=noise))


# --- cosine ------------------------------------------------------------------

def cosine(u, v):
    """The two-row case of ``pairwise_cosine``."""
    return pairwise_cosine(np.stack([np.asarray(u, float), np.asarray(v, float)]),
                           allow_zero=False)[0, 1]


def test_cosine_frozen_values():
    assert cosine([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine([1, 0], [-1, 0]) == pytest.approx(-1.0)
    assert cosine([1, 1], [1, 0]) == pytest.approx(0.7071067811865475, abs=1e-9)


def test_cosine_matches_reference(rng):
    for _ in range(50):
        u = rng.normal(size=9)
        v = rng.normal(size=9)
        assert cosine(u, v) == pytest.approx(cosine_ref(u.tolist(), v.tolist()),
                                             abs=1e-12)


def test_cosine_scale_invariance(rng):
    u = rng.normal(size=5)
    v = rng.normal(size=5)
    assert cosine(3.7 * u, 0.2 * v) == pytest.approx(cosine(u, v), abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError, match="undefined similarity"):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_length_mismatch_rejected():
    with pytest.raises(ValueError, match="undefined similarity"):
        angular_sim([1.0], [1.0, 2.0])


# --- similarity summaries ------------------------------------------------------

def test_similarity_matrix_summaries():
    """Routed experts 0 and 1, shared expert S0, reference F: the summaries
    read only routed cells, skip NaN cells, and are None when all are NaN."""
    nan = np.nan
    values = np.array([[1.0, 0.2, 0.9, 0.4],
                       [0.2, 1.0, 0.9, nan],
                       [0.9, 0.9, 1.0, 0.9],
                       [0.4, nan, 0.9, 1.0]])
    labels = ["0", "1", "S0", "F"]
    sim = SimilarityMatrix(labels, values)
    assert (sim.labels, sim.metric, sim.selected_labels) == (labels, "cosine", None)
    assert sim.values is values
    assert (sim.s_ee, sim.s_ef) == (0.2, 0.4)

    # Without a reference the last column is the shared expert's, and unread.
    no_ref = SimilarityMatrix(labels[:3], values[:3, :3])
    assert (no_ref.s_ee, no_ref.s_ef) == (0.2, None)

    masked = values.copy()
    masked[0, 1] = masked[1, 0] = masked[0, 3] = masked[3, 0] = nan
    sim = SimilarityMatrix(labels, masked, metric="angular", selected_labels=["1"])
    assert (sim.s_ee, sim.s_ef) == (None, None)
    assert (sim.metric, sim.selected_labels) == ("angular", ["1"])

    one = SimilarityMatrix(["0", "F"], values[[0, 3]][:, [0, 3]])
    assert (one.s_ee, one.s_ef) == (None, 0.4)


@pytest.fixture(scope="module")
def mixed_layers():
    """``synth --mode upcycled --layers 3 --experts 4,1,6 --shared 1,0,2``
    with noise 0.3: a gated layer with one shared expert, a dense layer and
    a gated layer with two, and the dense reference."""
    cfg = ModelConfig(num_layers=3, experts_per_layer=[4, 1, 6], num_shared=[1, 0, 2],
                      top_k=2, d_hid=16, d_mid=24, vocab=13)
    return synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=3,
                                    upcycle_noise_std=0.3))


def layout_cases(model, ref, source):
    """``(matrix, routed, shared, with_ref)`` of each layer that ``source``
    reads, the counts taken from the model's config."""
    config = model.config
    layers = range(config.num_layers)
    gated = config.moe_layers()
    if source in ("weights", "weights-ref", "dense-ref"):
        reference = None if source == "weights" else ref
        picked = {"weights": gated, "weights-ref": gated,
                  "dense-ref": [i for i in layers if config.is_dense(i)]}[source]
        for layer, which in itertools.product(picked, WHICH_MATRICES):
            stack, labels = layer_weights(model, layer, which, reference)
            for sim in (matrix_level_sim(stack, labels),
                        neuron_average_sim(stack, labels, which)):
                yield sim, config.experts_per_layer[layer], 0, reference is not None
    elif source == "gate":
        for layer in gated:
            yield gate_embedding_sim(model, layer), config.experts_per_layer[layer], 0, False
    else:
        reference = ref if source.endswith("-ref") else None
        trace = trace_all_experts(model, [0, 5, 12, 3, 9, 4, 7, 7, 2], reference)
        for layer in layers:
            sim = (avg_output_sim(trace, layer) if source.startswith("avg")
                   else output_sim_per_token(trace, layer, token=7))
            yield (sim, config.experts_per_layer[layer], config.num_shared[layer],
                   reference is not None)


@pytest.mark.parametrize("source", ["weights", "weights-ref", "dense-ref", "gate", "avg-out",
                                    "avg-out-ref", "out-token", "out-token-ref"])
def test_summaries_follow_the_layout_of_the_config(mixed_layers, source):
    """Every source of labels lays its matrix out by one rule, and ``s_ee``
    and ``s_ef`` are the nanmeans of the cells that the config's expert and
    shared counts and the presence of a reference index."""
    model, ref = mixed_layers
    cases = list(layout_cases(model, ref, source))
    assert cases
    for sim, routed, shared, with_ref in cases:
        assert sim.labels == ([str(e) for e in range(routed)] + [f"S{m}" for m in range(shared)]
                              + ["F"] * with_ref)
        off = sim.values[:routed, :routed][~np.eye(routed, dtype=bool)]
        column = sim.values[:routed, -1]
        want_ee = None if routed < 2 or np.isnan(off).all() else float(np.nanmean(off))
        want_ef = None if not with_ref or np.isnan(column).all() else float(np.nanmean(column))
        assert (sim.s_ee, sim.s_ef) == (want_ee, want_ef)
        assert (want_ee is not None) == (routed >= 2)
        assert (want_ef is not None) == with_ref


# --- matrix-level similarity ---------------------------------------------------

def test_matrix_sim_identical_experts_all_one():
    model, _ = upcycled_pair(noise=0.0)
    sim = matrix_level_sim(*layer_weights(model, 0, "act"))
    off = sim.values[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 1.0, atol=1e-6)
    assert sim.s_ee == pytest.approx(1.0, abs=1e-6)


def test_matrix_sim_scratch_near_zero():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[4], num_shared=[0], top_k=2,
                      d_hid=32, d_mid=64, vocab=7)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=31))
    sim = matrix_level_sim(*layer_weights(ck, 0, "up"))
    off = sim.values[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) <= 0.15)
    assert abs(sim.s_ee) <= 0.05


def test_matrix_sim_scale_invariant_per_expert():
    model, _ = upcycled_pair(noise=0.0)
    # Same weights scaled differently still flatten to cosine 1.
    tensors = {name: np.array(model.get_tensor(name)) for name in model.tensors}
    tensors["layers.0.experts.1.w_act"] = 2.0 * tensors["layers.0.experts.0.w_act"]
    ck = build_checkpoint(model.config, tensors)
    sim = matrix_level_sim(*layer_weights(ck, 0, "act"))
    assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-6)


def test_matrix_sim_reference_column():
    model, ref = upcycled_pair(noise=0.3)
    sim = matrix_level_sim(*layer_weights(model, 0, "down", reference=ref))
    assert sim.labels == ["0", "1", "2", "3", "F"]
    assert sim.s_ef is not None
    # Experts sit closer to the shared base than to each other on average.
    assert sim.s_ef > sim.s_ee


def test_matrix_sim_dense_layer_needs_reference():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0], top_k=1,
                      d_hid=8, d_mid=12, vocab=7)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=1))
    with pytest.raises(ValueError, match="dense"):
        matrix_level_sim(*layer_weights(ck, 0, "up"))


def test_layer_weights_refuses_an_unknown_selector(small_checkpoint):
    with pytest.raises(ValueError, match="unknown matrix selector: 'w'"):
        layer_weights(small_checkpoint, 0, "w")


@pytest.mark.parametrize("layer, with_ref", [(9, False), (-1, True)])
def test_layer_weights_refuses_a_layer_the_model_lacks(mixed_layers, layer, with_ref):
    model, ref = mixed_layers
    with pytest.raises(ValueError, match=f"^layer {layer} out of range$"):
        layer_weights(model, layer, "up", ref if with_ref else None)


def test_matrix_sim_rejects_mismatched_reference():
    model, _ = upcycled_pair()
    cfg_big = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0],
                          top_k=1, d_hid=16, d_mid=48, vocab=7)
    ref_bad = synth_scratch(SynthSpec(config=cfg_big, mode="scratch", seed=2))
    with pytest.raises(ValueError, match="reference dimensions differ from model"):
        matrix_level_sim(*layer_weights(model, 0, "up", reference=ref_bad))


def test_matrix_sim_diagonal_is_one(small_checkpoint):
    sim = matrix_level_sim(*layer_weights(small_checkpoint, 0, "act"))
    np.testing.assert_allclose(np.diag(sim.values), 1.0, atol=1e-6)
    np.testing.assert_allclose(sim.values, sim.values.T, atol=0)


# --- neuron averaging -----------------------------------------------------------

def test_neuron_average_collapses_permutation():
    # Row-permuted copies average to the same vector: similarity exactly 1,
    # while the flattened view sees them as different matrices.
    rng = np.random.default_rng(3)
    cfg = ModelConfig(num_layers=1, experts_per_layer=[3], num_shared=[0], top_k=2,
                      d_hid=16, d_mid=24, vocab=7)
    model, perms = synth_permuted_clone_model(
        SynthSpec(config=cfg, mode="permuted_clone", seed=12))
    avg = neuron_average_sim(*layer_weights(model, 0, "act"), "act")
    flat = matrix_level_sim(*layer_weights(model, 0, "act"))
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(avg.values[off], 1.0, atol=1e-6)
    assert np.all(flat.values[off] < 0.99)


def test_neuron_average_reversal_example():
    # Hand-built layer where averaging flips the verdict: expert pair beats
    # expert-vs-reference after averaging even though the flattened view says
    # the opposite.
    cfg = ModelConfig(num_layers=1, experts_per_layer=[2], num_shared=[0], top_k=1,
                      d_hid=2, d_mid=2, vocab=3)
    tensors = {name: np.zeros(shape, dtype=np.float32)
               for name, shape in required_tensor_shapes(cfg).items()}
    e1 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    e2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    for which in ("w_up", "w_act"):
        tensors[f"layers.0.experts.0.{which}"] = e1
        tensors[f"layers.0.experts.1.{which}"] = e2
    tensors["layers.0.experts.0.w_down"] = e1.T.copy()
    tensors["layers.0.experts.1.w_down"] = e2.T.copy()
    tensors["layers.0.gate.weight"] = np.ones((2, 2), dtype=np.float32)
    model = build_checkpoint(cfg, tensors)

    ref_cfg = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0],
                          top_k=1, d_hid=2, d_mid=2, vocab=3)
    ref_tensors = {name: np.zeros(shape, dtype=np.float32)
                   for name, shape in required_tensor_shapes(ref_cfg).items()}
    f = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    ref_tensors["layers.0.ffn.w_up"] = f
    ref_tensors["layers.0.ffn.w_act"] = f
    ref_tensors["layers.0.ffn.w_down"] = f.T.copy()
    reference = build_checkpoint(ref_cfg, ref_tensors)

    flat = matrix_level_sim(*layer_weights(model, 0, "act", reference=reference))
    avg = neuron_average_sim(*layer_weights(model, 0, "act", reference=reference), "act")
    assert flat.values[0, 1] == pytest.approx(0.0, abs=1e-9)     # e1 vs e2
    assert flat.values[0, 2] == pytest.approx(0.5, abs=1e-9)     # e1 vs F
    assert avg.values[0, 1] == pytest.approx(1.0, abs=1e-9)      # averaged e1 vs e2
    assert avg.values[0, 2] == pytest.approx(0.7071067811865475, abs=1e-9)
    assert avg.values[0, 1] > avg.values[0, 2]
    assert flat.values[0, 1] < flat.values[0, 2]


def test_neuron_average_matches_direct_computation(small_checkpoint):
    sim = neuron_average_sim(*layer_weights(small_checkpoint, 1, "down"), "down")
    mats = [np.asarray(small_checkpoint.get_tensor(f"layers.1.experts.{e}.w_down"),
                       dtype=np.float64) for e in range(4)]
    means = [m.mean(axis=1) for m in mats]
    for i, j in itertools.combinations(range(4), 2):
        assert sim.values[i, j] == pytest.approx(cosine_ref(means[i].tolist(),
                                                            means[j].tolist()),
                                                 abs=1e-12)


def test_neuron_average_refuses_a_mean_that_is_rounding_noise():
    """Expert 1's neurons come in ± pairs, so its mean is 0 in exact
    arithmetic; their magnitudes span 2**-40 to 1, so the float64 sum leaves
    rounding noise.  That mean has no direction and is refused like an exact
    zero.  Lifting one neuron pair out of balance gives a real mean again."""
    rng = np.random.default_rng(5)
    n, d = 64, 6
    half = (rng.normal(size=(n // 2, d)) * 2.0 ** -rng.uniform(0, 40, size=(n // 2, 1)))
    stack = rng.normal(size=(3, n, d))
    stack[1] = np.concatenate([half, -half])[rng.permutation(n)]
    stack = stack.astype(np.float32)
    assert np.abs(stack[1].astype(np.float64).mean(axis=0)).max() > 0.0
    with pytest.raises(ValueError, match="zero vector"):
        neuron_average_sim(*layer_weights(stack_checkpoint(stack), 0, "up"), "up")
    stack[1, np.argmax(np.abs(stack[1]).max(axis=1))] *= 2
    sim = neuron_average_sim(*layer_weights(stack_checkpoint(stack), 0, "up"), "up")
    assert not np.isnan(sim.values).any()


# --- assignment solver -----------------------------------------------------------

def test_assignment_two_neuron_toy():
    score = np.array([[0.9, 0.1], [0.2, 0.8]])
    perm = solve_assignment(score)
    assert perm.tolist() == [0, 1]
    assert score[[0, 1], perm].sum() == pytest.approx(1.7)


def test_assignment_identity_dominant():
    n = 5
    score = np.full((n, n), 0.1)
    np.fill_diagonal(score, 0.95)
    assert solve_assignment(score).tolist() == list(range(n))


def test_assignment_all_equal_returns_identity():
    score = np.full((4, 4), 0.5)
    assert solve_assignment(score).tolist() == [0, 1, 2, 3]


def test_assignment_matches_brute_force(rng):
    for n in range(2, 7):
        for _ in range(30):
            score = rng.normal(size=(n, n))
            perm = solve_assignment(score)
            _, best_total = brute_force_assignment(score, maximize=True)
            got_total = sum(score[i, perm[i]] for i in range(n))
            assert got_total == best_total


def test_assignment_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        solve_assignment(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        solve_assignment(np.array([[np.nan, 1.0], [1.0, 0.0]]))


@st.composite
def score_matrices(draw):
    """Square scores of exact binary fractions, so every total is exact: small
    integers full of ties, or finer values; some rows all zero, and sometimes
    each diagonal entry raised to its row's or column's maximum, or lowered to
    its minimum, which makes identity optimal."""
    n = draw(st.integers(1, 6))
    cells = draw(st.sampled_from([st.integers(-3, 3),
                                  st.integers(-1000, 1000).map(lambda v: v / 8)]))
    score = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                   min_size=n, max_size=n)), dtype=np.float64)
    score[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    idx = np.arange(n)
    diagonal = draw(st.sampled_from([None, np.max, np.min]))
    if diagonal is not None:
        score[idx, idx] = diagonal(score, axis=draw(st.sampled_from([0, 1])))
    return score


@given(score_matrices())
# No certificate holds, and scipy's optimum is the swap, which only ties identity.
@example(np.array([[1.0, 2.0], [0.0, 1.0]]))
def test_assignment_keeps_old_rule_and_optimum(score):
    perm = solve_assignment(score)
    np.testing.assert_array_equal(perm, assignment_old_rule(score))
    _, best_total = brute_force_assignment(score)
    assert sum(score[i, perm[i]] for i in range(len(score))) == best_total


# --- kendall tau -----------------------------------------------------------------

def test_kendall_frozen_values():
    assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)


def test_kendall_matches_reference(rng):
    for n in range(2, 301):
        values = rng.choice(10 * n, size=n, replace=False) - 5 * n
        a = rng.permutation(values).tolist()
        b = rng.permutation(values).tolist()
        assert kendall_tau(a, b) == kendall_ref(a, b), n


@pytest.mark.parametrize("n", [2049, 14336])
def test_kendall_matches_chunked_pair_count(rng, n):
    b = rng.permutation(n)
    total = n * (n - 1) // 2
    want = (total - 2 * inversions_chunked(b)) / total
    assert kendall_tau(list(range(n)), b.tolist()) == want


def test_kendall_symmetry_and_bounds(rng):
    for _ in range(20):
        a = rng.permutation(7).tolist()
        b = rng.permutation(7).tolist()
        t = kendall_tau(a, b)
        assert -1.0 <= t <= 1.0
        assert kendall_tau(b, a) == t


def test_kendall_rejects_non_permutations():
    with pytest.raises(ValueError, match="permutations"):
        kendall_tau([1, 1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="permutations"):
        kendall_tau([1, 2, 3], [1, 2, 4])
    with pytest.raises(ValueError, match="length"):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="two"):
        kendall_tau([1], [1])


# --- neuron reordering ------------------------------------------------------------

def test_reorder_recovers_planted_permutation(rng):
    base = random_expert(rng, d_mid=8, d_hid=5)
    perm = rng.permutation(8)
    clone = synth_permuted_clone(base, perm)
    for which in ("up", "act", "down"):
        report = reorder_neurons(expert_rows(base, which), expert_rows(clone, which))
        np.testing.assert_array_equal(report.permutation, perm)
        assert report.sim_after == pytest.approx(1.0, abs=1e-6)
        assert report.tau == kendall_ref(perm.tolist(), list(range(8)))


def test_reorder_identity_when_already_aligned(rng):
    e = random_expert(rng)
    report = reorder_neurons(expert_rows(e, "up"), expert_rows(e, "up"))
    np.testing.assert_array_equal(report.permutation, np.arange(6))
    assert report.tau == 1.0
    assert report.sim_before == pytest.approx(1.0)
    assert report.sim_after == pytest.approx(1.0)


def test_reorder_never_hurts(rng):
    for _ in range(40):
        a = random_expert(rng, d_mid=7, d_hid=5)
        b = random_expert(rng, d_mid=7, d_hid=5)
        for which in ("up", "act", "down"):
            rep = reorder_neurons(expert_rows(a, which), expert_rows(b, which))
            assert rep.sim_after >= rep.sim_before - 1e-9


def test_reorder_zero_norm_neuron_is_tolerated(rng):
    a = random_expert(rng, d_mid=4, d_hid=3)
    b = random_expert(rng, d_mid=4, d_hid=3)
    b.w_up[2] = 0.0
    rep = reorder_neurons(expert_rows(a, "up"), expert_rows(b, "up"))
    assert len(rep.permutation) == 4
    assert sorted(rep.permutation.tolist()) == [0, 1, 2, 3]


def test_reorder_similarities_match_flattened_cosine(rng):
    for trial in range(40):
        a = rng.normal(size=(7, 5))
        # Near clones take the identity certificate; independent draws the solver.
        b = a + 0.1 * rng.normal(size=a.shape) if trial % 2 else rng.normal(size=a.shape)
        if trial % 4 < 2:
            a[rng.integers(7)] = 0.0
            b[rng.integers(7)] = 0.0
        rep = reorder_neurons(a, b)
        row_to_col = np.argsort(rep.permutation)
        assert rep.sim_before == pytest.approx(cosine_ref(a.ravel(), b.ravel()),
                                               rel=0, abs=1e-12)
        assert rep.sim_after == pytest.approx(cosine_ref(a.ravel(), b[row_to_col].ravel()),
                                              rel=0, abs=1e-12)
        assert rep.sim_after >= rep.sim_before


def test_reorder_all_zero_expert_rejected(rng):
    a = rng.normal(size=(4, 3))
    for pair in ((a, np.zeros_like(a)), (np.zeros_like(a), a)):
        with pytest.raises(ValueError, match="zero vector"):
            reorder_neurons(*pair)


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_reorder_refuses_a_non_finite_expert(rng, value):
    """The pass skips ``solve_assignment``'s finiteness scan, so it refuses a
    non-finite expert itself, before any score matrix."""
    a = rng.normal(size=(4, 3))
    b = a.copy()
    b[1, 2] = value
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="finite"):
            reorder_neurons(*pair)


def stack_checkpoint(stack):
    """A one-layer checkpoint whose experts' w_up hold ``stack`` [E, n, d]
    (stored as float32), so their ``up`` neuron rows are the stack's rows."""
    n_experts, n, d = stack.shape
    cfg = ModelConfig(num_layers=1, experts_per_layer=[n_experts], num_shared=[0], top_k=1,
                      d_hid=d, d_mid=n, vocab=3)
    rng = np.random.default_rng(0)
    tensors = {name: rng.normal(size=shape)
               for name, shape in required_tensor_shapes(cfg).items()}
    for e, prefix in enumerate(ffn_prefixes(cfg, 0)[0]):
        tensors[f"{prefix}.w_up"] = stack[e]
    return build_checkpoint(cfg, tensors)


def reorder_stacks():
    """Seeded [E, n, d] stacks: certified near-clones, independent draws that
    need the solver, zero-norm neurons, and n = 2, odd and power-of-two n."""
    rng = np.random.default_rng(11)
    for n in (2, 7, 8, 33, 64):
        base = rng.normal(size=(n, 5))
        yield f"near-clones-{n}", base + 1e-3 * rng.normal(size=(6, n, 5))
        yield f"independent-{n}", rng.normal(size=(5, n, 5))
        mixed = np.concatenate([base + 0.5 * rng.normal(size=(3, n, 5)),
                                rng.normal(size=(3, n, 5))])
        mixed[1, rng.integers(n)] = 0.0
        mixed[4, :n // 2] = 0.0
        yield f"zero-neurons-{n}", mixed


def assert_reports_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.permutation, w.permutation)
        assert (g.sim_before, g.sim_after, g.tau) == (w.sim_before, w.sim_after, w.tau)


@pytest.mark.parametrize("name, stack", list(reorder_stacks()))
def test_reorder_pass_matches_per_pair_oracle(name, stack):
    ckpt = stack_checkpoint(stack)
    rows = neuron_rows(layer_weights(ckpt, 0, "up")[0], "up")
    got = pairwise_reorder_reports(rows)
    assert_reports_equal(got, reorder_oracle.pairwise_reorder_reports(rows))
    for rep in got:
        perm = rep.permutation.tolist()
        assert rep.tau == kendall_ref(perm, sorted(perm))


def test_reorder_pass_matches_oracle_on_permuted_clones():
    cfg = ModelConfig(num_layers=2, experts_per_layer=[5, 4], num_shared=[0, 0], top_k=2,
                      d_hid=9, d_mid=21, vocab=7)
    model, perms = synth_permuted_clone_model(SynthSpec(config=cfg, mode="permuted_clone",
                                                        seed=5))
    for layer, which in itertools.product(range(2), WHICH_MATRICES):
        rows = neuron_rows(layer_weights(model, layer, which)[0], which)
        got = pairwise_reorder_reports(rows)
        assert_reports_equal(got, reorder_oracle.pairwise_reorder_reports(rows))
        # The first len(rows) - 1 pairs are expert 0 against each of its clones.
        for clone, rep in enumerate(got[:len(rows) - 1], start=1):
            np.testing.assert_array_equal(rep.permutation, perms[(layer, clone)])


def test_reorder_pass_refuses_an_all_zero_expert_before_any_score():
    stack = np.random.default_rng(4).normal(size=(4, 6, 3))
    stack[2] = 0.0
    ckpt = stack_checkpoint(stack)
    with pytest.raises(ValueError, match="zero vector"):
        pairwise_reorder_reports(neuron_rows(layer_weights(ckpt, 0, "up")[0], "up"))


def test_reorder_of_one_neuron_leaves_tau_undefined():
    """One neuron has one matching, so the similarities stay and tau, over
    no pair of positions, is undefined; ``kendall_tau`` itself refuses it."""
    rows = np.random.default_rng(6).normal(size=(3, 1, 4))
    reports = pairwise_reorder_reports(rows)
    assert len(reports) == 3
    for rep in reports:
        assert (rep.permutation.tolist(), rep.tau) == ([0], None)
        assert rep.sim_after == rep.sim_before
    assert reorder_neurons(rows[0], rows[1]).tau is None


def test_reorder_pass_holds_one_score_matrix_at_a_time():
    """16 experts of n = 128 neurons make P = 120 pairs.  The pass may hold
    the stack, each report's permutation and a few single-pair score
    matrices; stacking every pair's [n, n] scores would take 120 of them
    (15.7 MB)."""
    n_experts, n, d = 16, 128, 8
    rng = np.random.default_rng(9)
    ckpt = stack_checkpoint(rng.normal(size=(n, d)) + 1e-3 * rng.normal(size=(n_experts, n, d)))
    pairs = n_experts * (n_experts - 1) // 2
    # The float64 stack, cast while stacking (the budget allows it twice),
    # each report's permutation, and eight single-pair score matrices, which
    # also cover the tau count's 3n² bytes of booleans.
    budget = 2 * n_experts * n * d * 8 + pairs * n * 8 + 8 * n * n * 8
    import scipy.optimize  # noqa: F401  (a pair may need the solver; its import is not the pass)
    tracemalloc.start()
    try:
        reports = pairwise_reorder_reports(neuron_rows(layer_weights(ckpt, 0, "up")[0], "up"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == pairs
    assert peak < budget, (peak, budget)


def old_reorder_rows(model_path, which):
    """reorder's CSV rows as computed before the identity certificate:
    flattened cosines before and after the old rule's matching."""
    ckpt = read_checkpoint(model_path)
    rows = []
    for layer in ckpt.config.moe_layers():
        stack = neuron_rows(layer_weights(ckpt, layer, which)[0], which)
        for i, j in itertools.combinations(range(len(stack)), 2):
            a, b = stack[i], stack[j]
            row_to_col = assignment_old_rule(a @ b.T)
            tau = kendall_ref(np.argsort(row_to_col).tolist(), list(range(len(a))))
            cells = [layer, str(i), str(j), which, cosine_ref(a.ravel(), b.ravel()),
                     cosine_ref(a.ravel(), b[row_to_col].ravel()), tau]
            rows.append(",".join(format_cell(c) for c in cells))
    return rows


def test_report_loads_scipy_only_for_pairs_identity_does_not_solve(tmp_path):
    """Every pair of an upcycled model is certified identity, so its report
    loads no scipy; a scratch model's pairs need the solver, and its reorder
    tables are the ones the old rule gives."""
    out = str(tmp_path)
    run_isolated(textwrap.dedent(f"""
        import sys
        from moe_lens.cli import run_command
        out = {out!r}
        with open(out + "/corpus.txt", "w") as fh:
            fh.write("1 2 3\\n4 5\\n")
        for mode in ("upcycled", "scratch"):
            assert run_command(["synth", "--mode", mode, "--seed", "3", "--noise", "0.3",
                                "--out", out + "/" + mode]) == 0
            assert run_command(["report", "--model", out + "/" + mode + "/model.moel",
                                "--corpus", out + "/corpus.txt",
                                "--out", out + "/" + mode + "-report"]) == 0
            if mode == "upcycled":
                assert {SCIPY_MODULES} == [], {SCIPY_MODULES}
        assert "scipy.optimize" in sys.modules
        """))
    for which in ("up", "act", "down"):
        with open(tmp_path / "scratch-report" / "reorder" / f"reorder-{which}.csv") as fh:
            got = [line for line in fh.read().splitlines() if not line.startswith("#")]
        assert got[1:] == old_reorder_rows(tmp_path / "scratch" / "model.moel", which)


def test_reorder_rejects_size_mismatch(rng):
    a = random_expert(rng, d_mid=4, d_hid=3)
    b = random_expert(rng, d_mid=5, d_hid=3)
    with pytest.raises(ValueError, match="different neuron dimensions"):
        reorder_neurons(expert_rows(a, "up"), expert_rows(b, "up"))


# --- gate geometry and regression ------------------------------------------------

def test_gate_sim_hand_cases():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[3], num_shared=[0], top_k=1,
                      d_hid=2, d_mid=2, vocab=3)
    tensors = {name: np.zeros(shape, dtype=np.float32)
               for name, shape in required_tensor_shapes(cfg).items()}
    tensors["layers.0.gate.weight"] = np.array([[1, 0], [0, 1], [1, 0]],
                                               dtype=np.float32)
    # Expert tensors must be nonzero for checkpoint to be analyzable elsewhere,
    # but gate similarity only reads the gate.
    ck = build_checkpoint(cfg, tensors)
    sim = gate_embedding_sim(ck, 0)
    assert sim.values[0, 1] == pytest.approx(0.0)
    assert sim.values[0, 2] == pytest.approx(1.0)


def test_gate_sim_dense_layer_rejected():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0], top_k=1,
                      d_hid=4, d_mid=4, vocab=3)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=0))
    with pytest.raises(ValueError, match="no gate"):
        gate_embedding_sim(ck, 0)


def test_gate_sim_refuses_a_layer_the_model_lacks(mixed_layers):
    with pytest.raises(ValueError, match="^layer -1 out of range$"):
        gate_embedding_sim(mixed_layers[0], -1)


def test_pearson_frozen_example():
    assert pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)


def test_pearson_affine_invariance(rng):
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    r = pearson_r(x, y)
    assert pearson_r(2.0 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
    assert pearson_r(-1.5 * x, y) == pytest.approx(-r, abs=1e-12)


def test_pearson_degenerate():
    assert pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson_r([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is None
    # Six equal values whose computed mean is not exactly their value.
    assert pearson_r([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0 - 2.0 ** -52] * 6) is None


def test_pearson_refuses_unequal_lengths_and_one_point():
    with pytest.raises(ValueError, match="1-d and equal length"):
        pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="need at least two points"):
        pearson_r([1.0], [2.0])


def test_pearson_undefined_when_squared_deviations_underflow():
    """Deviations near 1e-200 are a real spread, but their squares are 0.0."""
    assert pearson_r([1e-200, 2e-200, 3e-200], [1, 3, 2]) is None


def test_pearson_flat_side_is_judged_by_the_rounding_bound():
    """Six values with spread s above 1: the bound is (6 + 2)·eps·max|x|,
    just over 8 eps, so a spread of 8 eps is flat and one of 10 eps (two
    ulps above 1 more) is a real spread."""
    eps = np.finfo(np.float64).eps
    y = [0.3, -1.2, 0.5, 2.0, -0.7, 1.1]
    for ulps in (0, 1, 8):
        assert pearson_r([1.0] * 5 + [1.0 + ulps * eps], y) is None
    for ulps in (10, 12):
        x = [1.0] * 5 + [1.0 + ulps * eps]
        r = pearson_r(x, y)
        assert r is not None and -1.0 <= r <= 1.0
        assert pearson_r(y, x) == r


def test_regression_flags_every_layer_of_a_permuted_clone():
    """A permuted clone's neuron-averaged similarities are all 1 in exact
    arithmetic; computed, they are one equal value whose mean is not exact,
    which once gave r = -8.6e-17."""
    cfg = ModelConfig(num_layers=2, experts_per_layer=[4, 4], num_shared=[0, 0], top_k=2,
                      d_hid=8, d_mid=12, vocab=13)
    model = synth_permuted_clone_model(SynthSpec(config=cfg, mode="permuted_clone", seed=2))[0]
    for layer, which in itertools.product(range(2), ("up", "act", "down")):
        rep = regression(model, layer, which)
        assert (rep.r, rep.r2) == (None, None)


def test_regression_perfect_when_gate_rows_are_act_means():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[6], num_shared=[0], top_k=2,
                      d_hid=16, d_mid=24, vocab=7)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=123))
    tensors = {name: np.array(ck.get_tensor(name)) for name in ck.tensors}
    rows = [np.asarray(ck.get_tensor(f"layers.0.experts.{e}.w_act"),
                       dtype=np.float64).mean(axis=0) for e in range(6)]
    tensors["layers.0.gate.weight"] = np.stack(rows).astype(np.float32)
    wired = build_checkpoint(cfg, tensors)
    rep = regression(wired, 0, "act")
    assert rep.r == pytest.approx(1.0, abs=1e-6)
    assert rep.r2 == pytest.approx(rep.r * rep.r, abs=1e-9)
    assert rep.n_pairs == 15
    other = regression(wired, 0, "up")
    assert abs(other.r) < 0.9  # unrelated matrices should not correlate strongly


def test_regression_needs_three_experts():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[2], num_shared=[0], top_k=1,
                      d_hid=8, d_mid=8, vocab=3)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=0))
    with pytest.raises(ValueError, match="at least 3"):
        regression(ck, 0, "act")


def test_regression_refuses_matrices_of_other_experts():
    """The gate matrix names the routed experts, which must lead the expert
    matrix too; a trailing reference entry is allowed and left out."""
    model, ref = upcycled_pair(n=4)
    gate = gate_embedding_sim(model, 0)
    with_ref = neuron_average_sim(*layer_weights(model, 0, "up", reference=ref), "up")
    got, want = gate_expert_regression(gate, with_ref), regression(model, 0, "up")
    assert (got.n_pairs, got.r) == (want.n_pairs, pytest.approx(want.r, abs=1e-12))
    six = ModelConfig(num_layers=1, experts_per_layer=[6], num_shared=[0], top_k=2,
                      d_hid=16, d_mid=24, vocab=7)
    other = synth_scratch(SynthSpec(config=six, mode="scratch", seed=1))
    with pytest.raises(ValueError, match="label different experts"):
        gate_expert_regression(gate, neuron_average_sim(*layer_weights(other, 0, "up"), "up"))


def test_regression_degenerate_identical_gate_rows():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[4], num_shared=[0], top_k=1,
                      d_hid=8, d_mid=8, vocab=3)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=0))
    tensors = {name: np.array(ck.get_tensor(name)) for name in ck.tensors}
    tensors["layers.0.gate.weight"] = np.tile(tensors["layers.0.gate.weight"][0],
                                              (4, 1))
    wired = build_checkpoint(cfg, tensors)
    rep = regression(wired, 0, "act")
    assert (rep.n_pairs, rep.r, rep.r2) == (6, None, None)


def test_aggregate_r2():
    class R:  # minimal stand-in with an r2 attribute
        def __init__(self, r2):
            self.r2 = r2
    assert aggregate_r2([R(0.4)]) == pytest.approx(0.4)
    assert aggregate_r2([R(0.2), R(0.6)]) == pytest.approx(0.4)
    # Undefined (zero-variance) layers are left out of the mean.
    assert aggregate_r2([R(None), R(0.2), R(0.6)]) == pytest.approx(0.4)
    assert aggregate_r2([R(None), R(None)]) is None
    with pytest.raises(ValueError, match="no regression"):
        aggregate_r2([])


# --- PCA and DBSCAN ----------------------------------------------------------------

def test_pca_collinear_second_variance_vanishes():
    t = np.linspace(-2, 2, 9)
    pts = np.stack([t, 2 * t, -t], axis=1)
    proj = pca_project(pts, dims=2, standardize=False)
    assert proj.explained_variance[0] > 0
    assert proj.explained_variance[1] <= 1e-9


def test_pca_square_corners_equal_variance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    proj = pca_project(pts, dims=2, standardize=False)
    assert proj.explained_variance[0] == pytest.approx(proj.explained_variance[1],
                                                       abs=1e-12)


def test_pca_variances_non_increasing(rng):
    data = rng.normal(size=(12, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
    proj = pca_project(data, dims=4, standardize=False)
    ev = proj.explained_variance
    assert np.all(ev[:-1] >= ev[1:] - 1e-12)
    assert np.all(ev >= 0)


def test_pca_rank2_reconstruction(rng):
    basis = rng.normal(size=(2, 7))
    coords = rng.normal(size=(15, 2))
    data = coords @ basis + rng.normal(size=7)  # rank-2 plus a constant offset
    proj = pca_project(data, dims=2, standardize=False)
    rebuilt = reconstruct(proj)
    assert np.max(np.abs(rebuilt - data)) <= 1e-6


def test_pca_sign_convention(rng):
    data = rng.normal(size=(10, 4))
    proj = pca_project(data, dims=3, standardize=False)
    for row in proj.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_deterministic(rng):
    data = rng.normal(size=(8, 5))
    a = pca_project(data, dims=2)
    b = pca_project(data, dims=2)
    np.testing.assert_array_equal(a.coords, b.coords)


def test_pca_standardize_drops_constant_feature(rng):
    data = rng.normal(size=(10, 4))
    data[:, 2] = 7.0
    proj = pca_project(data, dims=2, standardize=True)
    assert proj.kept_features.tolist() == [0, 1, 3]
    np.testing.assert_array_equal(proj.scale, data.std(axis=0)[proj.kept_features])


@pytest.mark.parametrize("standardize", [True, False])
def test_pca_of_identical_points_sits_at_the_origin(standardize):
    """Nothing varies: the Gram is zero (or, standardized, 0 x 0 with no
    feature kept), so every component is zero, as the oracle's coordinates
    and explained variance are."""
    data = np.tile([0.5, -2.0, 3.0], (5, 1))
    proj = pca_project(data, dims=2, standardize=standardize)
    want = pca_oracle.pca_project(data, dims=2, standardize=standardize)
    assert proj.coords.tolist() == want.coords.tolist() == [[0.0, 0.0]] * 5
    assert proj.explained_variance.tolist() == want.explained_variance.tolist() == [0.0, 0.0]
    assert not proj.components.any()
    assert proj.components.shape == (2, 0 if standardize else 3)
    np.testing.assert_array_equal(reconstruct(proj), data[:, proj.kept_features])


def test_pca_rejects_too_few_samples(rng):
    with pytest.raises(ValueError, match="fewer samples"):
        pca_project(rng.normal(size=(1, 4)), dims=2)


def test_pca_rejects_a_vector():
    with pytest.raises(ValueError, match="vectors must be a 2-D array"):
        pca_project(np.zeros(3))


@pytest.mark.parametrize("standardize", [True, False])
def test_pca_components_past_the_features_are_zero(rng, standardize):
    """Six points of two features give two components; a third is zero, the
    first two are those of ``dims=2``, and all three match the oracle's
    zero-padded SVD."""
    data = rng.normal(size=(6, 2))
    proj = pca_project(data, dims=3, standardize=standardize)
    two = pca_project(data, dims=2, standardize=standardize)
    want = pca_oracle.pca_project(data, dims=3, standardize=standardize)
    np.testing.assert_array_equal(proj.components[:2], two.components)
    np.testing.assert_array_equal(proj.explained_variance[:2], two.explained_variance)
    assert proj.components[2].tolist() == want.components[2].tolist() == [0.0, 0.0]
    assert proj.explained_variance[2] == 0.0 and proj.coords[:, 2].tolist() == [0.0] * 6
    np.testing.assert_allclose(proj.components, want.components, rtol=0, atol=1e-12)
    np.testing.assert_allclose(proj.coords, want.coords, rtol=0, atol=1e-12)
    np.testing.assert_allclose(proj.explained_variance, want.explained_variance,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("standardize", [True, False])
def test_pca_of_two_points_resolves_one_direction(rng, standardize):
    """Two points span one direction: the second component is one rounding
    cannot resolve, so its coordinates and explained variance are zero."""
    data = rng.normal(size=(2, 5))
    proj = pca_project(data, dims=2, standardize=standardize)
    assert proj.coords[:, 1].tolist() == [0.0, 0.0]
    assert proj.explained_variance[1] == 0.0
    spread = np.linalg.norm(np.diff(data, axis=0) / (proj.scale if standardize else 1.0))
    assert abs(proj.coords[0, 0] - proj.coords[1, 0]) == pytest.approx(spread, rel=1e-12)


def planted(n, features, spectrum, standardize, seed=0):
    """Data whose working matrix (what ``pca_project`` decomposes after
    centering and, with ``standardize``, scaling) has the Gram eigenvalues
    n·λ and zeros, where λ is ``spectrum`` scaled to sum to ``features``.

    A random correlation matrix C with eigenvalues λ has unit diagonal, so
    Z = P·diag(sqrt(n·λ))·Wᵀ, with W the eigenvectors of C and P orthonormal
    columns orthogonal to the all-ones vector, is centered with unit-variance
    columns and ZᵀZ = n·C.  Per-column scales, under ``standardize``, and
    offsets then change nothing the analysis sees.  ``spectrum`` is in
    descending order.  Returns the data and the planted explained variances."""
    from scipy.stats import random_correlation
    rng = np.random.default_rng(seed)
    lam = np.asarray(spectrum, dtype=np.float64)
    lam = lam * features / lam.sum()
    corr = random_correlation.rvs(np.concatenate([lam, np.zeros(features - len(lam))]),
                                  random_state=rng)
    w = np.linalg.eigh(corr)[1][:, ::-1][:, :len(lam)]
    basis = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, len(lam)))]))[0]
    z = basis[:, 1:] * np.sqrt(n * lam) @ w.T
    scale = rng.uniform(0.5, 4.0, size=features) if standardize else 1.0
    return z * scale + rng.normal(size=features), n * lam / (n - 1)


SHAPES = {"tall": (64, 16), "wide": (16, 64)}


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("shape", SHAPES)
def test_pca_matches_svd_oracle_on_a_clear_gap(shape, dims, standardize):
    data, variances = planted(*SHAPES[shape], [16.0, 8.0, 4.0, 2.0, 1.0], standardize)
    got = pca_project(data, dims=dims, standardize=standardize)
    want = pca_oracle.pca_project(data, dims=dims, standardize=standardize)
    np.testing.assert_allclose(got.explained_variance, variances[:dims], rtol=1e-12)
    np.testing.assert_allclose(got.explained_variance, want.explained_variance, rtol=1e-12)
    np.testing.assert_allclose(got.components, want.components, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.coords, want.coords, rtol=0, atol=1e-11)


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("shape", SHAPES)
def test_pca_matches_svd_oracle_at_a_near_tie(shape, dims, standardize):
    """The last kept and first dropped eigenvalues differ by one part in 1e9,
    so neither route pins the last component; the variance each keeps, and
    the variance the kept plane captures, still match the oracle."""
    spectrum = [16.0, 8.0][:dims - 1] + [2.0 * (1 + 1e-9), 2.0, 1.0, 0.5]
    data, variances = planted(*SHAPES[shape], spectrum, standardize, seed=dims)
    got = pca_project(data, dims=dims, standardize=standardize)
    want = pca_oracle.pca_project(data, dims=dims, standardize=standardize)
    np.testing.assert_allclose(got.explained_variance, variances[:dims], rtol=1e-12)
    np.testing.assert_allclose(got.explained_variance, want.explained_variance, rtol=1e-12)
    captured = (got.coords ** 2).sum()
    assert captured == pytest.approx((want.coords ** 2).sum(), rel=1e-12)
    assert captured == pytest.approx((len(data) - 1) * variances[:dims].sum(), rel=1e-12)


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("shape", SHAPES)
def test_pca_rank_deficient_directions_are_zero(shape, dims, standardize):
    """With rank dims - 1 the last kept eigenvalue is zero in exact
    arithmetic: its component, coordinates and explained variance are exactly
    zero, where the oracle's are rounding noise.  Standardized rank-one data
    has every column equal to ± one vector, so the entries of its component
    tie in magnitude; the sign rule takes the first of the tied entries, so
    both routes give the same signed coordinates."""
    data, variances = planted(*SHAPES[shape], [5.0, 1.0][:dims - 1], standardize, seed=7)
    got = pca_project(data, dims=dims, standardize=standardize)
    want = pca_oracle.pca_project(data, dims=dims, standardize=standardize)
    assert got.explained_variance[-1] == 0.0
    assert not got.components[-1].any() and not got.coords[:, -1].any()
    np.testing.assert_allclose(got.explained_variance[:-1], variances, rtol=1e-12)
    np.testing.assert_allclose(got.explained_variance, want.explained_variance,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.coords, want.coords, rtol=0, atol=1e-11)


@pytest.mark.parametrize("standardize", [True, False])
def test_pca_duplicated_pairs_leave_the_second_component_empty(standardize):
    """Four rows of 1,000 features made of two duplicated pairs have rank one
    once centered.  Normalizing the rounding noise that ``uᵀ·work`` holds for
    the second eigenvector would put those rows about ±20 apart on pc2.  The
    entries of pc1 tie in magnitude, as in the rank-deficient test above."""
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 1000))
    data = np.stack([a, a, b, b])
    got = pca_project(data, dims=2, standardize=standardize)
    want = pca_oracle.pca_project(data, dims=2, standardize=standardize)
    assert got.coords[:, 1].tolist() == [0.0] * 4
    assert got.explained_variance[1] == 0.0
    np.testing.assert_allclose(got.coords, want.coords, rtol=0, atol=1e-9)
    assert [format_cell(v) for v in got.coords[:, 1]] == \
        [format_cell(v) for v in want.coords[:, 1]] == ["0.000000"] * 4


def test_pca_sign_rule_takes_the_first_entry_within_rounding_of_the_largest():
    """With λ = T = 1 (rank one) and n + m = 6 an entry ties the largest
    within 3·6·eps.  One ulp short ties, and the first of the tied entries
    decides the sign; 40 bounds short does not.  A smaller λ widens the
    bound by (T/λ)^1.5, and a zero row stays zero."""
    tie = 3 * 6 * np.finfo(np.float64).eps
    close = np.nextafter(0.5, 0.0)
    rows = np.array([[-close, 0.5, 0.5, -0.5], [-(0.5 - 40 * tie), 0.5, 0.1, 0.1],
                     [-(0.5 - 40 * tie), 0.5, 0.1, 0.1], [0.0, 0.0, 0.0, 0.0]])
    oriented = rows.copy()
    _orient_components(oriented, np.array([1.0, 1.0, 0.01, 0.0]), tie)
    np.testing.assert_array_equal(oriented, [-rows[0], rows[1], -rows[2], rows[3]])


@pytest.mark.parametrize("n", [9, 1000, 22528])
def test_pca_drops_a_constant_float32_column(n):
    """Checkpoint values are float32.  n copies of one sum exactly in float64
    (24 significant bits times n < 2**29 fit in 53), so the mean is the value
    itself and the standard deviation exactly 0: ``sd > 0.0`` drops the
    column, with no tolerance needed."""
    rng = np.random.default_rng(n)
    data = rng.normal(size=(n, 4)).astype(np.float32)
    for value in rng.normal(size=5).astype(np.float32):
        data[:, 2] = value
        assert data.astype(np.float64).std(axis=0)[2] == 0.0
        proj = pca_project(data, dims=2, standardize=True)
        assert proj.kept_features.tolist() == [0, 1, 3]


def test_dbscan_flags_far_outlier(rng):
    pts = [rng.normal(size=2) * 0.3 for _ in range(10)]
    pts.append(np.array([1000.0, 0.0]))
    noise = dbscan_outliers(pts, eps=50.0, min_pts=2)
    assert noise == {10}


def test_dbscan_identical_points_never_noise():
    pts = [np.zeros(2)] * 5
    assert dbscan_outliers(pts, eps=0.5, min_pts=3) == set()


def test_dbscan_min_pts_one_never_flags(rng):
    pts = [rng.normal(size=2) * 100 for _ in range(6)]
    assert dbscan_outliers(pts, eps=1e-6, min_pts=1) == set()


def test_dbscan_refuses_min_pts_below_one():
    with pytest.raises(ValueError, match="^min_pts must be at least 1$"):
        dbscan_outliers([np.zeros(2)] * 3, eps=1.0, min_pts=0)


def test_dbscan_empty_and_one_point_clouds():
    assert dbscan_outliers(np.zeros((0, 2)), eps=1.0, min_pts=2) == set()
    assert dbscan_outliers([np.ones(2)], eps=1.0, min_pts=1) == set()
    # A lone point is not core, and no core point is near it.
    assert dbscan_outliers([np.ones(2)], eps=1.0, min_pts=2) == {0}


def test_dbscan_without_core_points_flags_every_point(rng):
    """No two points are within eps, so nothing is core and the noise pass
    meets no center at all."""
    pts = rng.permutation(np.column_stack([np.arange(40.0), np.zeros(40)]) * 3.0)
    assert dbscan_outliers(pts, eps=2.0, min_pts=2) == set(range(40))


def test_dbscan_border_point_not_noise():
    # Chain where the middle point makes both ends border points of one cluster.
    pts = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    assert dbscan_outliers(pts, eps=1.1, min_pts=3) == set()


@st.composite
def dbscan_clouds(draw):
    """Small clouds on a scaled integer lattice, some points duplicated.  The
    scales keep every squared distance exact, so lattice neighbours sit
    exactly eps apart and both implementations see the same ties."""
    dims = draw(st.integers(1, 3))
    if draw(st.booleans()):
        side = draw(st.integers(2, 4 if dims < 3 else 3))
        grid = np.stack(np.meshgrid(*[np.arange(side)] * dims, indexing="ij"), -1)
        grid = grid.reshape(-1, dims)
        keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
        ints = grid[np.array(keep, dtype=bool)]
    else:
        ints = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=dims,
                                               max_size=dims), max_size=20)),
                        dtype=np.int64).reshape(-1, dims)
    assume(len(ints) > 0)
    ints = np.concatenate([ints, ints[draw(st.lists(st.integers(0, len(ints) - 1),
                                                    max_size=6))]])
    scale = draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    steps = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    return ints * scale, steps * scale, draw(st.integers(1, 4))


@given(dbscan_clouds())
def test_dbscan_noise_matches_bfs_oracle(cloud):
    points, eps, min_pts = cloud
    assert dbscan_outliers(points, eps=eps, min_pts=min_pts) == \
        dbscan_noise(points, eps, min_pts)


def tiled_cloud(seed):
    """A seeded cloud of several hundred to about 3,000 points spread over
    about 60 eps along each coordinate, so it spans many tiles: a sparse
    scatter, a lattice whose neighbours sit exactly eps apart, a dense
    cluster (every point within eps of every other) with border points
    exactly eps beyond its edge and others just farther, and duplicates of
    all of these.
    Coordinates are integers times a power of two, so every squared distance
    is exact and both implementations see the same ties."""
    rng = np.random.default_rng(seed)
    dims = 1 + seed % 3
    step = int(rng.integers(2, 5))  # eps in integer units
    span = 30 * step
    scatter = rng.integers(-span, span + 1, size=(int(rng.integers(200, 2400)), dims))
    side = {1: 200, 2: 15, 3: 6}[dims]
    grid = np.stack(np.meshgrid(*[np.arange(side)] * dims, indexing="ij"), -1)
    lattice = step * grid.reshape(-1, dims) - span // 2
    corner = rng.integers(-span, span, size=dims)
    cluster = corner + rng.integers(0, step // 2 + 1, size=(int(rng.integers(100, 400)), dims))
    edge = cluster[cluster[:, 0] == cluster[:, 0].max()]
    bases = edge[rng.integers(0, len(edge), size=40)]
    border = np.concatenate([bases[:20] + step * np.eye(dims, dtype=np.int64)[0],
                             bases[20:] + (step + 1) * np.eye(dims, dtype=np.int64)[0]])
    ints = np.concatenate([scatter, lattice, cluster, border])
    ints = np.concatenate([ints, ints[rng.integers(0, len(ints), size=60)]])
    scale = 2.0 ** int(rng.integers(-2, 2))
    return ints[rng.permutation(len(ints))] * scale, step * scale, 1 + seed % 5


def tied_cloud(shape):
    """A shuffled cloud that ties in its first coordinate, and its eps: the
    ``one-first-coordinate`` one puts its whole self in every block's range,
    ``ties-across-blocks`` holds 150 points at one first coordinate across
    two block boundaries, and ``one-dimensional`` has nothing but the first.
    The others spread widest along another coordinate, which the ball counts
    sort by: ``tall`` is three columns, ``two-modes`` two pairs of columns
    far apart, and ``widest-in-z`` a 3-d slab.
    As in ``tiled_cloud``, coordinates are integers times a power of two and
    lattice neighbours sit exactly eps apart."""
    rng = np.random.default_rng(len(shape))
    if shape == "one-first-coordinate":
        ints = np.column_stack([np.full(300, 7), rng.integers(-20, 21, size=(300, 2))])
    elif shape == "ties-across-blocks":
        ints = np.column_stack([np.repeat([-3, 0, 2], [40, 150, 90]),
                                rng.integers(-200, 201, size=280)])
    elif shape == "tall":
        ints = np.column_stack([rng.integers(-1, 2, size=600),
                                rng.integers(-300, 301, size=600)])
    elif shape == "two-modes":
        ints = np.column_stack([rng.choice([0, 1, 20, 21], size=600),
                                rng.integers(-200, 201, size=600)])
    elif shape == "widest-in-z":
        ints = np.column_stack([rng.integers(-4, 5, size=(500, 2)),
                                rng.integers(-150, 151, size=500)])
    else:
        ints = rng.integers(-300, 301, size=(500, 1))
    return ints[rng.permutation(len(ints))] * 0.5, 1.0


@pytest.mark.parametrize("cloud", [*range(15), "one-first-coordinate", "ties-across-blocks",
                                   "one-dimensional", "tall", "two-modes", "widest-in-z"])
def test_dbscan_noise_matches_bfs_oracle_across_many_tiles(cloud):
    cases = [tiled_cloud(cloud)] if isinstance(cloud, int) else \
        [(*tied_cloud(cloud), min_pts) for min_pts in (1, 2, 3)]
    for points, eps, min_pts in cases:
        assert dbscan_outliers(points, eps=eps, min_pts=min_pts) == \
            dbscan_noise(points, eps, min_pts)


@pytest.mark.parametrize("eps", [1e-320, 1e-310])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_dbscan_noise_matches_bfs_oracle_at_subnormal_eps(eps, dims):
    """At a subnormal eps, every square of a difference near eps underflows
    to 0, so the ball test accepts near-zero points several eps apart: the
    range a block scans must still hold them, with no warning."""
    rng = np.random.default_rng(dims)
    spread = rng.normal(size=(60, dims))
    near_zero = rng.integers(-3, 4, size=(60, dims)) * eps
    # A ladder below a near-zero pair 3 eps apart puts a block boundary
    # between the two, so each block must scan past eps to find the other.
    split = np.zeros((_BALL_BLOCK + 1, dims))
    split[:, 0] = [*-np.arange(1.0, _BALL_BLOCK), 0.0, 3 * eps]
    for points in (np.concatenate([spread, near_zero, spread[:15], near_zero[:15]]), split):
        for min_pts in (1, 2, 3):
            assert dbscan_outliers(points, eps=eps, min_pts=min_pts) == \
                dbscan_noise(points, eps, min_pts)


def package_nodes():
    """(filename, node) for every syntax node of every module of the package."""
    package = os.path.dirname(moe_lens.__file__)
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            yield from ((filename, node) for node in ast.walk(tree))


def test_no_module_imports_scipy_spatial():
    """DBSCAN counts its balls in numpy, so nothing in the package needs
    scipy.spatial and its import of scipy.sparse and scipy.linalg."""
    found = []
    for filename, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(name == "scipy.spatial" or name.startswith("scipy.spatial.")
               for name in names):
            found.append(f"{filename}:{node.lineno}")
    assert found == []


def test_no_module_calls_an_svd():
    """PCA decomposes the smaller Gram matrix; the thin SVD of the whole
    population lives only in the test oracle (``pca_oracle``).  Refuses
    ``<anything>.linalg.svd`` and ``svd`` imported from a ``linalg`` module."""
    found = []
    for filename, node in package_nodes():
        if isinstance(node, ast.Attribute) and node.attr == "svd":
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or \
                    (isinstance(owner, ast.Name) and owner.id == "linalg"):
                found.append(f"{filename}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name == "svd" for alias in node.names):
                found.append(f"{filename}:{node.lineno}")
    assert found == []


def calls_by_function(tree: ast.Module, methods) -> list[str]:
    """``function:line`` of each call of one of ``methods`` on an object, by
    the top-level definition it sits in."""
    return [f"{getattr(top, 'name', 'module')}:{node.lineno}"
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods]


def test_only_the_readers_touch_a_checkpoint():
    """``layer_weights`` reads expert matrices and ``gate_embedding_sim`` the
    gate; every other weight analysis reduces their arrays, so in
    ``static_analysis`` only these two read a checkpoint or ask ``is_dense``.
    The engine, too, reads a layer through ``Checkpoint.ffns`` and
    ``Checkpoint.gate``: outside ``tensor_store`` only its embedding lookup
    calls ``get_tensor``, and neither it nor the weight analyses import a
    tensor name or suffix."""
    package = os.path.dirname(moe_lens.__file__)
    trees = {}
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                trees[filename[:-3]] = ast.parse(fh.read())
    readers = {"layer_weights", "gate_embedding_sim"}
    assert [call for call in calls_by_function(trees["static_analysis"],
                                               ("get_tensor", "is_dense", "ffns", "gate"))
            if call.split(":")[0] not in readers] == []
    assert [f"{module}:{call.split(':')[0]}" for module, tree in trees.items()
            if module != "tensor_store"
            for call in calls_by_function(tree, ("get_tensor",))] == \
        ["moe_core:trace_all_experts"]
    for module in ("moe_core", "static_analysis"):
        imported = {alias.name for node in ast.walk(trees[module])
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert imported.isdisjoint({"ffn_prefixes", "gate_name", "FFN_MATRICES"}), module
