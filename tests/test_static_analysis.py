"""Weight-space analyses: cosine, averaging, reordering, regression, PCA, DBSCAN."""

import itertools
import math
import textwrap

import numpy as np
import pytest
from conftest import SCIPY_MODULES, run_isolated
from dbscan_oracle import dbscan_noise
from hypothesis import assume, given
from hypothesis import strategies as st

from moe_lens import ModelConfig
from moe_lens.moe_core import Expert
from moe_lens.static_analysis import (aggregate_r2, cosine_sim, dbscan_outliers,
                                      filter_outliers, gate_embedding_sim,
                                      gate_expert_regression, kendall_tau,
                                      layer_weights, matrix_level_sim,
                                      neuron_average_sim, neuron_rows, pca_project, pearson_r,
                                      reconstruct, reorder_neurons, similarity_matrix,
                                      solve_assignment)
from moe_lens.synth import (SynthSpec, synth_permuted_clone,
                            synth_permuted_clone_model, synth_scratch, synth_upcycled)
from moe_lens.report import format_cell
from moe_lens.tensor_store import build_checkpoint, read_checkpoint, required_tensor_shapes


# --- oracles -----------------------------------------------------------------

def cosine_ref(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def kendall_ref(a, b):
    """Exhaustive pair counting, kept separate from the implementation."""
    n = len(a)
    concordant = discordant = 0
    for i, j in itertools.combinations(range(n), 2):
        agree = (a[i] < a[j]) == (b[i] < b[j])
        if agree:
            concordant += 1
        else:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) // 2)


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


def upcycled_pair(seed=0, noise=0.3, n=4):
    cfg = ModelConfig(num_layers=1, experts_per_layer=[n], num_shared=[0], top_k=2,
                      d_hid=16, d_mid=24, vocab=7)
    return synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=seed,
                                    upcycle_noise_std=noise))


# --- cosine ------------------------------------------------------------------

def test_cosine_frozen_values():
    assert cosine_sim([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cosine_sim([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_sim([1, 0], [-1, 0]) == pytest.approx(-1.0)
    assert cosine_sim([1, 1], [1, 0]) == pytest.approx(0.7071067811865475, abs=1e-9)


def test_cosine_matches_reference(rng):
    for _ in range(50):
        u = rng.normal(size=9)
        v = rng.normal(size=9)
        assert cosine_sim(u, v) == pytest.approx(cosine_ref(u.tolist(), v.tolist()),
                                                 abs=1e-12)


def test_cosine_scale_invariance(rng):
    u = rng.normal(size=5)
    v = rng.normal(size=5)
    assert cosine_sim(3.7 * u, 0.2 * v) == pytest.approx(cosine_sim(u, v), abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError, match="undefined similarity"):
        cosine_sim([0.0, 0.0], [1.0, 0.0])


def test_cosine_length_mismatch_rejected():
    with pytest.raises(ValueError, match="undefined similarity"):
        cosine_sim([1.0], [1.0, 2.0])


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
    sim = similarity_matrix(values, labels, 2, has_reference=True)
    assert (sim.labels, sim.metric, sim.selected_labels) == (labels, "cosine", None)
    assert sim.values is values
    assert (sim.s_ee, sim.s_ef) == (0.2, 0.4)

    # Without a reference the last column is the shared expert's, and unread.
    no_ref = similarity_matrix(values[:3, :3], labels[:3], 2, has_reference=False)
    assert (no_ref.s_ee, no_ref.s_ef) == (0.2, None)

    masked = values.copy()
    masked[0, 1] = masked[1, 0] = masked[0, 3] = masked[3, 0] = nan
    sim = similarity_matrix(masked, labels, 2, has_reference=True, metric="angular",
                            selected_labels=["1"])
    assert (sim.s_ee, sim.s_ef) == (None, None)
    assert (sim.metric, sim.selected_labels) == ("angular", ["1"])

    one = similarity_matrix(values[[0, 3]][:, [0, 3]], ["0", "F"], 1, has_reference=True)
    assert (one.s_ee, one.s_ef) == (None, 0.4)


# --- matrix-level similarity ---------------------------------------------------

def test_matrix_sim_identical_experts_all_one():
    model, _ = upcycled_pair(noise=0.0)
    sim = matrix_level_sim(model, 0, "act")
    off = sim.values[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 1.0, atol=1e-6)
    assert sim.s_ee == pytest.approx(1.0, abs=1e-6)


def test_matrix_sim_scratch_near_zero():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[4], num_shared=[0], top_k=2,
                      d_hid=32, d_mid=64, vocab=7)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=31))
    sim = matrix_level_sim(ck, 0, "up")
    off = sim.values[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) <= 0.15)
    assert abs(sim.s_ee) <= 0.05


def test_matrix_sim_scale_invariant_per_expert():
    model, _ = upcycled_pair(noise=0.0)
    # Same weights scaled differently still flatten to cosine 1.
    tensors = {name: np.array(model.get_tensor(name)) for name in model.tensors}
    tensors["layers.0.experts.1.w_act"] = 2.0 * tensors["layers.0.experts.0.w_act"]
    ck = build_checkpoint(model.config, tensors)
    sim = matrix_level_sim(ck, 0, "act")
    assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-6)


def test_matrix_sim_reference_column():
    model, ref = upcycled_pair(noise=0.3)
    sim = matrix_level_sim(model, 0, "down", reference=ref)
    assert sim.labels == ["0", "1", "2", "3", "F"]
    assert sim.s_ef is not None
    # Experts sit closer to the shared base than to each other on average.
    assert sim.s_ef > sim.s_ee


def test_matrix_sim_dense_layer_needs_reference():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0], top_k=1,
                      d_hid=8, d_mid=12, vocab=7)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=1))
    with pytest.raises(ValueError, match="dense"):
        matrix_level_sim(ck, 0, "up")


def test_matrix_sim_rejects_mismatched_reference():
    model, _ = upcycled_pair()
    cfg_big = ModelConfig(num_layers=1, experts_per_layer=[1], num_shared=[0],
                          top_k=1, d_hid=16, d_mid=48, vocab=7)
    ref_bad = synth_scratch(SynthSpec(config=cfg_big, mode="scratch", seed=2))
    with pytest.raises(ValueError, match="reference dimensions differ from model"):
        matrix_level_sim(model, 0, "up", reference=ref_bad)


def test_matrix_sim_diagonal_is_one(small_checkpoint):
    sim = matrix_level_sim(small_checkpoint, 0, "act")
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
    avg = neuron_average_sim(model, 0, "act")
    flat = matrix_level_sim(model, 0, "act")
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

    flat = matrix_level_sim(model, 0, "act", reference=reference)
    avg = neuron_average_sim(model, 0, "act", reference=reference)
    assert flat.values[0, 1] == pytest.approx(0.0, abs=1e-9)     # e1 vs e2
    assert flat.values[0, 2] == pytest.approx(0.5, abs=1e-9)     # e1 vs F
    assert avg.values[0, 1] == pytest.approx(1.0, abs=1e-9)      # averaged e1 vs e2
    assert avg.values[0, 2] == pytest.approx(0.7071067811865475, abs=1e-9)
    assert avg.values[0, 1] > avg.values[0, 2]
    assert flat.values[0, 1] < flat.values[0, 2]


def test_neuron_average_matches_direct_computation(small_checkpoint):
    sim = neuron_average_sim(small_checkpoint, 1, "down")
    mats = [np.asarray(small_checkpoint.get_tensor(f"layers.1.experts.{e}.w_down"),
                       dtype=np.float64) for e in range(4)]
    means = [m.mean(axis=1) for m in mats]
    for i, j in itertools.combinations(range(4), 2):
        assert sim.values[i, j] == pytest.approx(cosine_ref(means[i].tolist(),
                                                            means[j].tolist()),
                                                 abs=1e-12)


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
        assert rep.sim_before == pytest.approx(cosine_sim(a, b), rel=0, abs=1e-12)
        assert rep.sim_after == pytest.approx(cosine_sim(a, b[row_to_col]), rel=0, abs=1e-12)
        assert rep.sim_after >= rep.sim_before


def test_reorder_all_zero_expert_rejected(rng):
    a = rng.normal(size=(4, 3))
    for pair in ((a, np.zeros_like(a)), (np.zeros_like(a), a)):
        with pytest.raises(ValueError, match="zero vector"):
            reorder_neurons(*pair)


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
            cells = [layer, str(i), str(j), which, cosine_sim(a, b),
                     cosine_sim(a, b[row_to_col]), tau]
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


def test_pearson_frozen_example():
    assert pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)


def test_pearson_affine_invariance(rng):
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    r = pearson_r(x, y)
    assert pearson_r(2.0 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
    assert pearson_r(-1.5 * x, y) == pytest.approx(-r, abs=1e-12)


def test_pearson_degenerate():
    with pytest.raises(ValueError, match="degenerate regression"):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_regression_perfect_when_gate_rows_are_act_means():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[6], num_shared=[0], top_k=2,
                      d_hid=16, d_mid=24, vocab=7)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=123))
    tensors = {name: np.array(ck.get_tensor(name)) for name in ck.tensors}
    rows = [np.asarray(ck.get_tensor(f"layers.0.experts.{e}.w_act"),
                       dtype=np.float64).mean(axis=0) for e in range(6)]
    tensors["layers.0.gate.weight"] = np.stack(rows).astype(np.float32)
    wired = build_checkpoint(cfg, tensors)
    rep = gate_expert_regression(wired, 0, "act")
    assert rep.r == pytest.approx(1.0, abs=1e-6)
    assert rep.r2 == pytest.approx(rep.r * rep.r, abs=1e-9)
    assert rep.n_pairs == 15
    other = gate_expert_regression(wired, 0, "up")
    assert abs(other.r) < 0.9  # unrelated matrices should not correlate strongly


def test_regression_needs_three_experts():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[2], num_shared=[0], top_k=1,
                      d_hid=8, d_mid=8, vocab=3)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=0))
    with pytest.raises(ValueError, match="at least 3"):
        gate_expert_regression(ck, 0, "act")


def test_regression_degenerate_identical_gate_rows():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[4], num_shared=[0], top_k=1,
                      d_hid=8, d_mid=8, vocab=3)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=0))
    tensors = {name: np.array(ck.get_tensor(name)) for name in ck.tensors}
    tensors["layers.0.gate.weight"] = np.tile(tensors["layers.0.gate.weight"][0],
                                              (4, 1))
    wired = build_checkpoint(cfg, tensors)
    with pytest.raises(ValueError, match="degenerate regression"):
        gate_expert_regression(wired, 0, "act")


def test_aggregate_r2():
    class R:  # minimal stand-in with an r2 attribute
        def __init__(self, r2):
            self.r2 = r2
    assert aggregate_r2([R(0.4)]) == pytest.approx(0.4)
    assert aggregate_r2([R(0.2), R(0.6)]) == pytest.approx(0.4)
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
    for (la, ca), (lb, cb) in zip(zip(a.labels, a.coords), zip(b.labels, b.coords)):
        assert la == lb
        np.testing.assert_array_equal(ca, cb)


def test_pca_standardize_drops_constant_feature(rng):
    data = rng.normal(size=(10, 4))
    data[:, 2] = 7.0
    proj = pca_project(data, dims=2, standardize=True)
    assert proj.kept_features.tolist() == [0, 1, 3]


def test_pca_rejects_too_few_samples(rng):
    with pytest.raises(ValueError, match="fewer samples"):
        pca_project(rng.normal(size=(2, 4)), dims=2)


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


def test_filter_outliers_records_labels(rng):
    vel = [rng.normal(size=3) for _ in range(8)]
    vel.append(np.array([500.0, 500.0, 500.0]))
    proj = pca_project(vel, dims=2, standardize=False)
    filtered = filter_outliers(proj, eps=50.0, min_pts=2)
    assert filtered.outliers == ["8"]
    assert len(filtered.coords) == 8
