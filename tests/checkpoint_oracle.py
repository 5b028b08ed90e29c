"""The field-by-field checkpoint reader, the plainly correct oracle for
``tensor_store.parse_checkpoint``.

It checks each piece of the layout rule on its own: header keys, entry keys,
dtype, shape, offsets, each range's length, ranges consecutive in name order,
the payload length and the tensor set, then finiteness, and last that the
header equals its canonical dump.  The implementation under test computes the
whole directory from the config and compares the header bytes once.  Both
must accept exactly the same blobs, each of which ``serialize_checkpoint``
writes back to the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from moe_lens.config import ModelConfig, _is_int
from moe_lens.tensor_store import (FORMAT_VERSION, MAGIC, CheckpointError,
                                   required_tensor_shapes)

_F32 = np.dtype("<f4")


@dataclass(frozen=True)
class TensorMeta:
    shape: tuple[int, ...]
    start: int
    end: int

    @property
    def nbytes(self) -> int:
        return 4 * math.prod(self.shape)


@dataclass
class Checkpoint:
    """Parsed checkpoint: config, tensor directory, and the raw data section."""

    config: ModelConfig
    tensors: dict[str, TensorMeta]
    data: bytes

    def get_tensor(self, name: str) -> np.ndarray:
        """Read-only float32 view of one tensor, reshaped row-major."""
        meta = self.tensors.get(name)
        if meta is None:
            raise CheckpointError(f"missing tensor: {name}")
        flat = np.frombuffer(self.data, dtype=_F32, count=math.prod(meta.shape),
                             offset=meta.start)
        return flat.reshape(meta.shape)


def _check_tensor_set(config: ModelConfig, shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise unless ``shapes`` names exactly the tensors the config requires,
    each with its required shape."""
    required = required_tensor_shapes(config)
    for name, want in required.items():
        if name not in shapes:
            raise CheckpointError(f"missing tensor: {name}")
        if shapes[name] != want:
            raise CheckpointError(f"shape mismatch for {name}: got {shapes[name]}, want {want}")
    for name in shapes:
        if name not in required:
            raise CheckpointError(f"unexpected tensor: {name}")


def _check_finite(ckpt: Checkpoint) -> None:
    """Raise unless every payload value is finite; the writer and the reader
    share this check, so they accept one set of models."""
    for name in ckpt.tensors:
        if not np.isfinite(ckpt.get_tensor(name)).all():
            raise CheckpointError(f"non-finite value in {name}")


def _header_bytes(ckpt: Checkpoint) -> bytes:
    """The canonical JSON header: sorted keys, no whitespace."""
    directory = {
        name: {"dtype": "f32", "shape": list(meta.shape),
               "offsets": [meta.start, meta.end]}
        for name, meta in ckpt.tensors.items()
    }
    header_obj = {"__config__": ckpt.config.to_dict(), "tensors": directory}
    return json.dumps(header_obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def serialize_checkpoint(ckpt: Checkpoint) -> bytes:
    header = _header_bytes(ckpt)
    parts = [MAGIC,
             FORMAT_VERSION.to_bytes(4, "little"),
             len(header).to_bytes(8, "little"),
             header,
             ckpt.data]
    return b"".join(parts)


def parse_checkpoint(blob: bytes) -> Checkpoint:
    """Parse and fully validate serialized checkpoint bytes; only the bytes
    that ``serialize_checkpoint`` writes for the parsed model are accepted."""
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError("bad magic")
    version = int.from_bytes(blob[4:8], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported version: {version}")
    header_len = int.from_bytes(blob[8:16], "little")
    if 16 + header_len > len(blob):
        raise CheckpointError("header/payload length mismatch")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.keys() != {"__config__", "tensors"}:
        raise CheckpointError("malformed header: keys must be __config__ and tensors")
    try:
        config = ModelConfig.from_dict(header["__config__"])
    except ValueError as exc:
        raise CheckpointError(f"bad config: {exc}") from exc

    data = blob[16 + header_len:]
    directory = header["tensors"]
    if not isinstance(directory, dict):
        raise CheckpointError("malformed header: tensors must be an object")

    metas: dict[str, TensorMeta] = {}
    for name, entry in directory.items():
        if not isinstance(entry, dict) or entry.keys() != {"dtype", "shape", "offsets"}:
            raise CheckpointError(f"malformed entry for {name}: keys must be dtype, "
                                  "shape and offsets")
        if entry.get("dtype") != "f32":
            raise CheckpointError(f"unsupported dtype for {name}: {entry.get('dtype')!r}")
        shape = entry.get("shape")
        if (not isinstance(shape, list) or
                not all(_is_int(d) and d > 0 for d in shape)):
            raise CheckpointError(f"bad shape for {name}")
        offsets = entry.get("offsets")
        if (not isinstance(offsets, list) or len(offsets) != 2 or
                not all(_is_int(o) and o >= 0 for o in offsets)):
            raise CheckpointError(f"bad offsets for {name}")
        start, end = offsets
        meta = TensorMeta(shape=tuple(shape), start=start, end=end)
        if end - start != meta.nbytes:
            raise CheckpointError(f"payload length mismatch for {name}")
        metas[name] = meta

    cursor = 0
    for name in sorted(metas):
        if metas[name].start != cursor:
            raise CheckpointError(f"tensor byte ranges not consecutive in name order at {name}")
        cursor = metas[name].end
    if len(data) != cursor:
        raise CheckpointError("header/payload length mismatch")

    _check_tensor_set(config, {name: meta.shape for name, meta in metas.items()})
    ckpt = Checkpoint(config=config, tensors=metas, data=data)
    _check_finite(ckpt)
    if _header_bytes(ckpt) != blob[16:16 + header_len]:
        raise CheckpointError("malformed header: not in canonical form")
    return ckpt
