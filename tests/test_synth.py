"""Synthetic generators: determinism, relatedness control, permuted clones."""

import itertools

import numpy as np
import pytest

from moe_lens import ModelConfig
from moe_lens.static_analysis import layer_weights, matrix_level_sim
from moe_lens.synth import (SynthSpec, synth_permuted_clone, synth_permuted_clone_model,
                            synth_scratch, synth_upcycled)
from moe_lens.tensor_store import CheckpointError, serialize_checkpoint


def make_config(**overrides):
    base = dict(num_layers=2, experts_per_layer=[4, 4], num_shared=[0, 0], top_k=2,
                d_hid=16, d_mid=24, vocab=31)
    base.update(overrides)
    return ModelConfig(**base)


def mean_pairwise_cos(ckpt, layer, which):
    sim = matrix_level_sim(*layer_weights(ckpt, layer, which))
    return sim.s_ee


def test_same_spec_same_bytes():
    spec = SynthSpec(config=make_config(), mode="scratch", seed=99)
    a = serialize_checkpoint(synth_scratch(spec))
    b = serialize_checkpoint(synth_scratch(spec))
    assert a == b


def test_different_seeds_differ():
    cfg = make_config()
    a = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=1))
    b = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=2))
    assert a.data != b.data


def test_tensor_values_independent_of_name_set():
    # Per-name streams: the same tensor drawn under two configs must agree.
    cfg_small = make_config(num_layers=1, experts_per_layer=[4], num_shared=[0])
    cfg_big = make_config()
    a = synth_scratch(SynthSpec(config=cfg_small, mode="scratch", seed=7))
    b = synth_scratch(SynthSpec(config=cfg_big, mode="scratch", seed=7))
    np.testing.assert_array_equal(a.get_tensor("layers.0.experts.2.w_up"),
                                  b.get_tensor("layers.0.experts.2.w_up"))


def test_scratch_experts_nearly_orthogonal():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[8], num_shared=[0], top_k=2,
                      d_hid=64, d_mid=128, vocab=11)
    ck = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=3))
    for which in ("up", "act", "down"):
        assert abs(mean_pairwise_cos(ck, 0, which)) <= 0.05


def test_upcycled_zero_noise_experts_identical():
    spec = SynthSpec(config=make_config(), mode="upcycled", seed=21,
                     upcycle_noise_std=0.0)
    model, ref = synth_upcycled(spec)
    base = model.get_tensor("layers.0.experts.0.w_up")
    for e in range(1, 4):
        np.testing.assert_array_equal(
            model.get_tensor(f"layers.0.experts.{e}.w_up"), base)
    np.testing.assert_array_equal(ref.get_tensor("layers.0.ffn.w_up"), base)
    assert mean_pairwise_cos(model, 0, "up") == pytest.approx(1.0)


@pytest.mark.parametrize("noise,low,high", [(0.3, 0.85, 0.97), (1.0, 0.45, 0.55)])
def test_upcycled_similarity_tracks_noise_ratio(noise, low, high):
    # Expected pairwise cosine is 1 / (1 + noise^2): 0.917 at 0.3, 0.5 at 1.0.
    cfg = ModelConfig(num_layers=1, experts_per_layer=[8], num_shared=[0], top_k=2,
                      d_hid=64, d_mid=128, vocab=11)
    model, _ = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=13,
                                        upcycle_noise_std=noise))
    for which in ("up", "act", "down"):
        assert low <= mean_pairwise_cos(model, 0, which) <= high


def test_upcycled_exceeds_scratch_across_seeds():
    cfg = ModelConfig(num_layers=1, experts_per_layer=[8], num_shared=[0], top_k=2,
                      d_hid=64, d_mid=128, vocab=11)
    for seed in range(5):
        up, _ = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=seed,
                                         upcycle_noise_std=1.0))
        sc = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=seed))
        gap = mean_pairwise_cos(up, 0, "act") - mean_pairwise_cos(sc, 0, "act")
        assert gap > 0.3


def test_upcycled_gate_and_embedding_match_scratch():
    cfg = make_config()
    model, _ = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=4,
                                        upcycle_noise_std=0.5))
    scratch = synth_scratch(SynthSpec(config=cfg, mode="scratch", seed=4))
    np.testing.assert_array_equal(model.get_tensor("layers.0.gate.weight"),
                                  scratch.get_tensor("layers.0.gate.weight"))
    np.testing.assert_array_equal(model.get_tensor("embed.weight"),
                                  scratch.get_tensor("embed.weight"))


def test_upcycled_dense_layer_reuses_base():
    cfg = make_config(num_layers=2, experts_per_layer=[4, 1], num_shared=[0, 0])
    model, ref = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=8,
                                          upcycle_noise_std=0.5))
    np.testing.assert_array_equal(model.get_tensor("layers.1.ffn.w_act"),
                                  ref.get_tensor("layers.1.ffn.w_act"))


def test_upcycled_shared_experts_follow_base():
    cfg = make_config(num_shared=[1, 0])
    model, ref = synth_upcycled(SynthSpec(config=cfg, mode="upcycled", seed=6,
                                          upcycle_noise_std=0.0))
    np.testing.assert_array_equal(model.get_tensor("layers.0.shared.0.w_up"),
                                  ref.get_tensor("layers.0.ffn.w_up"))


def test_permuted_clone_moves_neurons_together():
    rng = np.random.default_rng(17)
    from moe_lens.moe_core import Expert
    base = Expert(w_up=rng.normal(size=(5, 3)), w_act=rng.normal(size=(5, 3)),
                  w_down=rng.normal(size=(3, 5)))
    perm = np.array([4, 2, 0, 1, 3])
    clone = synth_permuted_clone(base, perm)
    for j in range(5):
        np.testing.assert_array_equal(clone.w_up[j], base.w_up[perm[j]])
        np.testing.assert_array_equal(clone.w_act[j], base.w_act[perm[j]])
        np.testing.assert_array_equal(clone.w_down[:, j], base.w_down[:, perm[j]])


def test_permuted_clone_inverse_restores():
    rng = np.random.default_rng(18)
    from moe_lens.moe_core import Expert
    base = Expert(w_up=rng.normal(size=(6, 4)), w_act=rng.normal(size=(6, 4)),
                  w_down=rng.normal(size=(4, 6)))
    perm = rng.permutation(6)
    inverse = np.argsort(perm)
    restored = synth_permuted_clone(synth_permuted_clone(base, perm), inverse)
    np.testing.assert_array_equal(restored.w_up, base.w_up)
    np.testing.assert_array_equal(restored.w_down, base.w_down)


def test_permuted_clone_rejects_non_bijection():
    from moe_lens.moe_core import Expert
    base = Expert(w_up=np.ones((3, 2)), w_act=np.ones((3, 2)), w_down=np.ones((2, 3)))
    with pytest.raises(ValueError, match="bijection"):
        synth_permuted_clone(base, [0, 0, 2])


def test_permuted_clone_model_flattened_sim_below_one():
    cfg = make_config(num_layers=1, experts_per_layer=[3], num_shared=[0])
    model, perms = synth_permuted_clone_model(
        SynthSpec(config=cfg, mode="permuted_clone", seed=9))
    assert set(perms) == {(0, 1), (0, 2)}
    sim = matrix_level_sim(*layer_weights(model, 0, "up"))
    # A nontrivial permutation decorrelates the flattened views.
    for i, j in itertools.combinations(range(3), 2):
        assert sim.values[i, j] < 0.99


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        SynthSpec(config=make_config(), mode="copy", seed=0)
    with pytest.raises(ValueError, match="init_std"):
        SynthSpec(config=make_config(), mode="scratch", seed=0, init_std=0.0)
    with pytest.raises(ValueError, match="noise"):
        SynthSpec(config=make_config(), mode="upcycled", seed=0,
                  upcycle_noise_std=-0.1)


def test_upcycled_sum_overflow_is_refused_quietly():
    """Base-plus-noise sums beyond float32's range are refused as non-finite,
    and numpy prints no overflow warning on the way (the suite turns those
    into errors)."""
    spec = SynthSpec(config=make_config(), mode="upcycled", seed=1, init_std=1e38,
                     upcycle_noise_std=1.0)
    with pytest.raises(CheckpointError, match="non-finite value in"):
        synth_upcycled(spec)
