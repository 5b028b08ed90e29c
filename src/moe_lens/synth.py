"""Synthetic checkpoint generators with controllable expert relatedness.

Three modes:

* ``scratch``: every tensor is i.i.d. normal(0, init_std^2), so experts are
  mutually unrelated and pairwise cosine similarities concentrate near zero.
* ``upcycled``: per layer one base FFN is drawn, and every routed expert is
  the base plus i.i.d. normal noise with standard deviation
  ``upcycle_noise_std * init_std``.  Expected pairwise expert cosine is about
  ``1 / (1 + noise_ratio^2)``.  The per-layer bases are also returned as a
  dense reference checkpoint so analyses can compare experts against their
  common ancestor.
* ``permuted_clone``: expert 0 is drawn fresh and every other routed expert is
  a neuron-permuted copy of it, which gives reordering analyses an exact
  ground truth.

Randomness: one Philox stream per tensor, keyed by the user seed plus the
SHA-256 of the tensor name.  Tensor values therefore never depend on
generation order, and the same spec always yields byte-identical checkpoints.
Gate weights and embeddings are scratch-drawn in every mode.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ModelConfig
from .tensor_store import (FFN_MATRICES, Checkpoint, Expert, build_checkpoint, ffn_prefixes,
                           required_tensor_shapes)

SYNTH_MODES = ("scratch", "upcycled", "permuted_clone")


@dataclass(frozen=True)
class SynthSpec:
    config: ModelConfig
    mode: str
    seed: int
    init_std: float = 0.02
    upcycle_noise_std: float = 0.0  # ratio relative to init_std; only used when upcycled

    def __post_init__(self):
        if self.mode not in SYNTH_MODES:
            raise ValueError(f"unknown synth mode: {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64): {self.seed}")
        if not 0 < self.init_std < math.inf:
            raise ValueError(f"init_std must be positive and finite: {self.init_std}")
        if not 0 <= self.upcycle_noise_std < math.inf:
            raise ValueError("upcycle_noise_std must be nonnegative and finite: "
                             f"{self.upcycle_noise_std}")


def _tensor_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
    ss = np.random.SeedSequence([seed, *words])
    return np.random.Generator(np.random.Philox(ss))


def _draw(seed: int, name: str, shape: tuple[int, ...], std: float) -> np.ndarray:
    rng = _tensor_rng(seed, name)
    # A draw beyond float32's range becomes inf, which build_checkpoint refuses.
    with np.errstate(over="ignore"):
        return rng.normal(0.0, std, size=shape).astype(np.float32)


def _reference_config(config: ModelConfig) -> ModelConfig:
    return replace(config,
                   experts_per_layer=(1,) * config.num_layers,
                   num_shared=(0,) * config.num_layers,
                   top_k=1)


def synth_scratch(spec: SynthSpec) -> Checkpoint:
    """Independent normal init for every tensor."""
    shapes = required_tensor_shapes(spec.config)
    tensors = {name: _draw(spec.seed, name, shape, spec.init_std)
               for name, shape in shapes.items()}
    return build_checkpoint(spec.config, tensors)


def synth_upcycled(spec: SynthSpec) -> tuple[Checkpoint, Checkpoint]:
    """Base-plus-noise experts; returns (model, dense reference of the bases).

    The base FFN tensors are drawn under the reference checkpoint's own tensor
    names, so the reference is reproducible from the seed alone.  Shared
    experts are treated like routed ones (copied from the base, then
    perturbed).  Dense layers in the main config reuse the base directly.
    """
    config = spec.config
    ref_config = _reference_config(config)
    ref_tensors = {name: _draw(spec.seed, name, shape, spec.init_std)
                   for name, shape in required_tensor_shapes(ref_config).items()}

    # Each FFN name of the model -> the name of its layer's base tensor.
    base_of = {}
    for i in range(config.num_layers):
        (base,), _ = ffn_prefixes(ref_config, i)
        routed, shared = ffn_prefixes(config, i)
        for prefix in routed + shared:
            base_of.update((f"{prefix}.{m}", f"{base}.{m}") for m in FFN_MATRICES)

    noise_std = spec.upcycle_noise_std * spec.init_std
    tensors: dict[str, np.ndarray] = {}
    for name, shape in required_tensor_shapes(config).items():
        if name in ref_tensors:
            tensors[name] = ref_tensors[name]  # the embedding and dense layers
        elif name not in base_of:
            tensors[name] = _draw(spec.seed, name, shape, spec.init_std)  # gate weights
        elif noise_std == 0.0:
            tensors[name] = ref_tensors[base_of[name]].copy()
        else:
            noise = _draw(spec.seed, name, shape, noise_std)
            # As in _draw: a sum beyond float32's range (or inf - inf) is refused later.
            with np.errstate(over="ignore", invalid="ignore"):
                tensors[name] = (ref_tensors[base_of[name]].astype(np.float64)
                                 + noise).astype(np.float32)

    model = build_checkpoint(config, tensors)
    reference = build_checkpoint(ref_config, ref_tensors)
    return model, reference


def synth_permuted_clone(base: Expert, permutation) -> Expert:
    """Copy of an expert with neuron ``j`` taken from base neuron ``permutation[j]``.

    Rows of w_up/w_act and columns of w_down move together, so the clone
    computes the same function with its internal neurons relabeled.
    """
    perm = np.asarray(permutation)
    d_mid = base.w_up.shape[0]
    if perm.shape != (d_mid,) or sorted(perm.tolist()) != list(range(d_mid)):
        raise ValueError("permutation must be a bijection over neuron indices")
    return Expert(w_up=base.w_up[perm].copy(),
                  w_act=base.w_act[perm].copy(),
                  w_down=base.w_down[:, perm].copy())


def synth_permuted_clone_model(spec: SynthSpec) -> tuple[Checkpoint, dict[tuple[int, int], np.ndarray]]:
    """Checkpoint where expert n>0 of each gated layer is a permuted clone of expert 0.

    Returns the checkpoint and the applied permutations keyed by (layer, expert).
    """
    config = spec.config
    # Every gated layer's routed experts after the first: (layer, expert, prefix).
    clones = [(i, n, prefix) for i in config.moe_layers()
              for n, prefix in enumerate(ffn_prefixes(config, i)[0]) if n > 0]
    cloned = {f"{prefix}.{m}" for _, _, prefix in clones for m in FFN_MATRICES}
    tensors = {name: _draw(spec.seed, name, shape, spec.init_std)
               for name, shape in required_tensor_shapes(config).items() if name not in cloned}
    permutations: dict[tuple[int, int], np.ndarray] = {}
    for i, n, prefix in clones:
        first = ffn_prefixes(config, i)[0][0]
        base = Expert(*(tensors[f"{first}.{m}"] for m in FFN_MATRICES))
        # The permutation's RNG key is its own name, fixed apart from the tensor layout.
        rng = _tensor_rng(spec.seed, f"layers.{i}.experts.{n}.permutation")
        permutations[(i, n)] = rng.permutation(config.d_mid)
        clone = synth_permuted_clone(base, permutations[(i, n)])
        tensors.update(zip((f"{prefix}.{m}" for m in FFN_MATRICES),
                           (clone.w_up, clone.w_act, clone.w_down)))
    return build_checkpoint(config, tensors), permutations

