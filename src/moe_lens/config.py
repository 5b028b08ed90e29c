"""Model architecture description shared by the checkpoint container and the forward engine.

A model is a token embedding followed by a stack of residual FFN blocks.  Each
block is either a dense FFN (one expert, no gate) or a gated mixture of routed
experts, optionally with always-on shared experts.  There is no attention; the
toolkit studies the expert weights and routing behavior in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

ACTIVATIONS = ("silu", "gelu")
GATING_ORDERS = ("topk_then_softmax", "softmax_then_topk")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The JSON types each field accepts, checked on every construction before
# ``validate`` compares values, so every config the writer builds the reader accepts.
_FIELD_TYPES = (
    ("an integer", _is_int, ("num_layers", "top_k", "d_hid", "d_mid", "vocab")),
    ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
     ("experts_per_layer", "num_shared")),
    ("a string", lambda v: isinstance(v, str), ("activation", "gating_order")),
    ("a boolean", lambda v: isinstance(v, bool), ("use_prenorm",)),
)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; immutable and JSON-serializable.

    A layer with exactly one routed expert denotes a dense FFN layer: it has no
    gate tensor and must have no shared experts.  ``top_k`` applies to every
    gated layer and may not exceed the smallest gated-layer expert count.
    """

    num_layers: int
    experts_per_layer: tuple[int, ...]
    num_shared: tuple[int, ...]
    top_k: int
    d_hid: int
    d_mid: int
    vocab: int
    activation: str = "silu"
    gating_order: str = "topk_then_softmax"
    use_prenorm: bool = True

    def __post_init__(self):
        for kind, accepts, names in _FIELD_TYPES:
            for name in names:
                if not accepts(value := getattr(self, name)):
                    raise ValueError(f"{name} must be {kind}: {value!r}")
        # Accept lists for convenience; store tuples so instances stay hashable.
        object.__setattr__(self, "experts_per_layer", tuple(self.experts_per_layer))
        object.__setattr__(self, "num_shared", tuple(self.num_shared))
        self.validate()

    def validate(self) -> None:
        if self.num_layers < 0:
            raise ValueError("num_layers must be nonnegative")
        if len(self.experts_per_layer) != self.num_layers:
            raise ValueError("experts_per_layer length must equal num_layers")
        if len(self.num_shared) != self.num_layers:
            raise ValueError("num_shared length must equal num_layers")
        if any(n < 1 for n in self.experts_per_layer):
            raise ValueError("every layer needs at least one expert")
        if any(s < 0 for s in self.num_shared):
            raise ValueError("num_shared entries must be nonnegative")
        for i, (n, s) in enumerate(zip(self.experts_per_layer, self.num_shared)):
            if n == 1 and s != 0:
                raise ValueError(f"dense layer {i} cannot have shared experts")
        if self.top_k < 1:
            raise ValueError("top_k must be positive")
        gated = [n for n in self.experts_per_layer if n > 1]
        if gated and self.top_k > min(gated):
            raise ValueError("top_k exceeds the smallest gated-layer expert count")
        for dim_name in ("d_hid", "d_mid", "vocab"):
            if getattr(self, dim_name) < 1:
                raise ValueError(f"{dim_name} must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")
        if self.gating_order not in GATING_ORDERS:
            raise ValueError(f"unknown gating order: {self.gating_order!r}")

    def is_dense(self, layer: int) -> bool:
        """Whether ``layer`` is dense; every reader asks, so a missing layer is refused here."""
        if not 0 <= layer < self.num_layers:
            raise ValueError(f"layer {layer} out of range")
        return self.experts_per_layer[layer] == 1

    def moe_layers(self) -> list[int]:
        """Indices of gated (non-dense) layers."""
        return [i for i in range(self.num_layers) if not self.is_dense(i)]

    def check_reference(self, ref: "ModelConfig") -> None:
        """Raise unless ``ref`` can be this model's reference: the same depth,
        dense in every layer, the same ``d_hid`` and ``d_mid``, and the same
        activation, since the engine runs the reference with the model's."""
        if ref.num_layers != self.num_layers:
            raise ValueError("reference layer count differs from model")
        if ref.moe_layers():
            raise ValueError("reference checkpoint must be dense in every layer")
        if (ref.d_hid, ref.d_mid) != (self.d_hid, self.d_mid):
            raise ValueError("reference dimensions differ from model")
        if ref.activation != self.activation:
            raise ValueError("reference activation differs from model")

    def to_dict(self) -> dict:
        """The JSON form: every field, tuples as lists."""
        return {f.name: list(value) if isinstance(value := getattr(self, f.name), tuple)
                else value for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        missing = known - raw.keys()
        if missing:
            raise ValueError(f"config missing fields: {sorted(missing)}")
        extra = raw.keys() - known
        if extra:
            raise ValueError(f"config has unknown fields: {sorted(extra)}")
        return cls(**raw)

