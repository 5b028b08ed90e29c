"""Single-file checkpoint container with a fixed binary layout.

File layout, all integers little-endian:

    bytes 0..3    magic ``MOEL``
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..15   header length in bytes, u64
    next          UTF-8 JSON header, exactly ``header_len`` bytes
    rest          tensor data section

The JSON header holds the model config and a tensor directory::

    {"__config__": {...},
     "tensors": {"layers.0.gate.weight": {"dtype": "f32",
                                          "shape": [8, 64],
                                          "offsets": [0, 2048]}, ...}}

The header holds no other key, and a tensor entry no other than these three.
Tensor payloads are finite float32, little-endian, row-major.  ``offsets``
are byte positions relative to the start of the data section; the range
length must be exactly ``4 * prod(shape)``.

Tensor names are derived from the config, and this module is the only one
that spells them.  Every model has ``embed.weight`` of shape
``[vocab, d_hid]``.  Gated layer ``i`` contributes ``layers.{i}.gate.weight``
``[N_i, d_hid]`` plus, per routed expert ``n``, ``layers.{i}.experts.{n}.w_up``
and ``.w_act`` ``[d_mid, d_hid]`` and ``.w_down`` ``[d_hid, d_mid]``; shared
experts use the same three suffixes under ``layers.{i}.shared.{m}``.  A dense
layer stores a single ``layers.{i}.ffn.w_up`` / ``.w_act`` / ``.w_down``
triple and no gate.  ``ffn_prefixes`` gives a layer's FFN name prefixes.

The writer lays tensors out consecutively in sorted-name order and serializes
the header with sorted keys and no whitespace.  The reader accepts exactly
those bytes, so a file round-trips bit-exactly and one model has one file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, _is_int

MAGIC = b"MOEL"
FORMAT_VERSION = 1

_F32 = np.dtype("<f4")

EMBED = "embed.weight"
FFN_MATRICES = ("w_up", "w_act", "w_down")


class CheckpointError(ValueError):
    """Raised for any malformed checkpoint file or tensor map."""


@dataclass(frozen=True)
class TensorMeta:
    name: str
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


def gate_name(layer: int) -> str:
    return f"layers.{layer}.gate.weight"


def ffn_prefixes(config: ModelConfig, layer: int) -> tuple[list[str], list[str]]:
    """Name prefixes of one layer's FFNs as ``(routed, shared)``, in expert
    order; a dense layer's one FFN is its only routed entry.  An FFN's tensors
    are ``f"{prefix}.{matrix}"`` for each ``matrix`` of ``FFN_MATRICES``."""
    if config.is_dense(layer):
        return [f"layers.{layer}.ffn"], []
    return ([f"layers.{layer}.experts.{e}" for e in range(config.experts_per_layer[layer])],
            [f"layers.{layer}.shared.{m}" for m in range(config.num_shared[layer])])


def required_tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Exact tensor name -> shape map implied by a config."""
    up = (config.d_mid, config.d_hid)
    ffn_shapes = dict(zip(FFN_MATRICES, (up, up, (config.d_hid, config.d_mid))))
    shapes: dict[str, tuple[int, ...]] = {EMBED: (config.vocab, config.d_hid)}
    for i in range(config.num_layers):
        if not config.is_dense(i):
            shapes[gate_name(i)] = (config.experts_per_layer[i], config.d_hid)
        routed, shared = ffn_prefixes(config, i)
        for prefix in routed + shared:
            shapes.update((f"{prefix}.{matrix}", shape) for matrix, shape in ffn_shapes.items())
    return shapes


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


def build_checkpoint(config: ModelConfig, tensors: dict[str, np.ndarray]) -> Checkpoint:
    """Pack a complete tensor map into an in-memory checkpoint.

    The map must cover exactly the names the config requires, each with the
    exact shape; values are cast to float32.
    """
    tensors = {name: np.asarray(arr) for name, arr in tensors.items()}
    _check_tensor_set(config, {name: arr.shape for name, arr in tensors.items()})

    metas: dict[str, TensorMeta] = {}
    chunks: list[bytes] = []
    cursor = 0
    for name in sorted(tensors):
        raw = np.ascontiguousarray(tensors[name], dtype=_F32).tobytes()
        metas[name] = TensorMeta(name=name, shape=tensors[name].shape, start=cursor,
                                 end=cursor + len(raw))
        chunks.append(raw)
        cursor += len(raw)
    ckpt = Checkpoint(config=config, tensors=metas, data=b"".join(chunks))
    _check_finite(ckpt)
    return ckpt


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


def dump_checkpoint(ckpt: Checkpoint, path) -> None:
    atomic_write_bytes(path, serialize_checkpoint(ckpt))


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write ``blob`` to a temp file of this writer's own in ``path``'s
    directory, then rename it over ``path``.

    Readers never see a partly written file, two writers of one path never
    share a temp file, and the temp file is removed if the write or the
    rename fails.  The file gets the mode ``open`` would give it,
    ``0o666 & ~umask``, not ``mkstemp``'s 0o600.
    """
    directory, name = os.path.split(os.fspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    return parse_checkpoint(blob)


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
        meta = TensorMeta(name=name, shape=tuple(shape), start=start, end=end)
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
