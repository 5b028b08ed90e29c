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

Tensor payloads are finite float32, little-endian, row-major.  ``offsets``
are byte positions relative to the start of the data section.

Tensor names are derived from the config.  This module spells every name or
name prefix (``EMBED``, ``gate_name``, ``ffn_prefixes``) and the FFN matrix
suffixes (``FFN_MATRICES``).  Readers take a layer's weights through
``Checkpoint.ffns`` and ``Checkpoint.gate``; only ``synth``, a writer, joins
a prefix and a matrix as ``{prefix}.{matrix}`` itself.  Every model has
``embed.weight`` of shape ``[vocab, d_hid]``.  Gated layer ``i`` contributes
``layers.{i}.gate.weight`` ``[N_i, d_hid]`` plus, per routed expert ``n``,
``layers.{i}.experts.{n}.w_up`` and ``.w_act`` ``[d_mid, d_hid]`` and
``.w_down`` ``[d_hid, d_mid]``; shared experts use the same three suffixes
under ``layers.{i}.shared.{m}``.  A dense layer stores a single
``layers.{i}.ffn.w_up`` / ``.w_act`` / ``.w_down`` triple and no gate.

The config alone fixes the directory: ``_layout`` places the tensors in
sorted-name order, each range right after the last, 4 bytes per value.  The
header is the canonical dump (sorted keys, no whitespace) of the config and
that directory, and ``Checkpoint.tensors`` is the directory itself, the
header's own entries.  The reader accepts a file exactly when its header bytes
equal that dump, its payload is exactly the layout's length, and every
weight is finite, so a file round-trips bit-exactly and one model has one
file.  A ``Checkpoint`` checks the last two rules whenever one is built, so
the writer builds only what the reader accepts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ModelConfig

MAGIC = b"MOEL"
FORMAT_VERSION = 1

_F32 = np.dtype("<f4")

EMBED = "embed.weight"
FFN_MATRICES = ("w_up", "w_act", "w_down")


class CheckpointError(ValueError):
    """Raised for any malformed checkpoint file or tensor map."""


@dataclass
class Expert:
    """One FFN expert: w_up and w_act are [d_mid, d_hid], w_down is [d_hid, d_mid]."""

    w_up: np.ndarray
    w_act: np.ndarray
    w_down: np.ndarray


@dataclass
class Checkpoint:
    """A config and its raw data section, which must be exactly the layout's
    length and finite; the writer and the reader both build one."""

    config: ModelConfig
    data: bytes | memoryview

    def __post_init__(self):
        if len(self.data) != max(entry["offsets"][1] for entry in self.tensors.values()):
            raise CheckpointError("header/payload length mismatch")
        for name in self.tensors:
            if not np.isfinite(self.get_tensor(name)).all():
                raise CheckpointError(f"non-finite value in {name}")

    @cached_property
    def tensors(self) -> dict[str, dict]:
        """The header's tensor directory, which the config fixes."""
        return _layout(self.config)

    @cached_property
    def digest(self) -> str:
        """sha256 of ``serialize_checkpoint(self)``, so of the file parsed when
        this checkpoint was read; the data section is hashed without a copy."""
        h = hashlib.sha256(_file_prefix(self.config))
        h.update(self.data)
        return h.hexdigest()

    def get_tensor(self, name: str) -> np.ndarray:
        """Read-only float32 view of one tensor, reshaped row-major."""
        entry = self.tensors.get(name)
        if entry is None:
            raise CheckpointError(f"missing tensor: {name}")
        flat = np.frombuffer(self.data, dtype=_F32, count=math.prod(entry["shape"]),
                             offset=entry["offsets"][0])
        return flat.reshape(entry["shape"])

    def ffns(self, layer: int) -> tuple[list[Expert], list[Expert]]:
        """A layer's ``(routed, shared)`` FFNs in ``ffn_prefixes`` order, as read-only views."""
        def read(prefix: str) -> Expert:
            return Expert(*(self.get_tensor(f"{prefix}.{matrix}") for matrix in FFN_MATRICES))
        routed, shared = ffn_prefixes(self.config, layer)
        return [read(prefix) for prefix in routed], [read(prefix) for prefix in shared]

    def gate(self, layer: int) -> np.ndarray:
        """Read-only float32 view of one gated layer's gate [N, d_hid]."""
        if self.config.is_dense(layer):
            raise ValueError(f"layer {layer} is dense and has no gate")
        return self.get_tensor(gate_name(layer))


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


def _layout(config: ModelConfig) -> dict[str, dict]:
    """The header's tensor directory: each name's dtype, shape and byte range,
    in sorted-name order, each range right after the last, 4 bytes per value."""
    layout: dict[str, dict] = {}
    cursor = 0
    for name, shape in sorted(required_tensor_shapes(config).items()):
        end = cursor + 4 * math.prod(shape)
        layout[name] = {"dtype": "f32", "shape": list(shape), "offsets": [cursor, end]}
        cursor = end
    return layout


def _match_tensors(got: dict, want: dict, what: str) -> None:
    """Raise for the first name, in name order, that ``got`` lacks, holds
    beyond ``want``, or maps to another value than ``want`` does."""
    for name in sorted(got.keys() | want.keys()):
        if name not in got:
            raise CheckpointError(f"missing tensor: {name}")
        if name not in want:
            raise CheckpointError(f"unexpected tensor: {name}")
        if got[name] != want[name]:
            raise CheckpointError(f"{what} mismatch for {name}: got {got[name]}, want {want[name]}")


def build_checkpoint(config: ModelConfig, tensors: dict[str, np.ndarray]) -> Checkpoint:
    """Pack a complete tensor map into an in-memory checkpoint.

    The map must cover exactly the names the config requires, each with the
    exact shape; values are cast to float32.
    """
    tensors = {name: np.asarray(arr) for name, arr in tensors.items()}
    _match_tensors({name: arr.shape for name, arr in tensors.items()},
                   required_tensor_shapes(config), "shape")
    return Checkpoint(config, b"".join(np.ascontiguousarray(tensors[name], dtype=_F32).tobytes()
                                       for name in _layout(config)))


def _dump(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header_bytes(config: ModelConfig) -> bytes:
    return _dump({"__config__": config.to_dict(), "tensors": _layout(config)}).encode("utf-8")


def _file_prefix(config: ModelConfig) -> bytes:
    """A checkpoint file's bytes before its data section."""
    header = _header_bytes(config)
    return MAGIC + FORMAT_VERSION.to_bytes(4, "little") + len(header).to_bytes(8, "little") + header


def serialize_checkpoint(ckpt: Checkpoint) -> bytes:
    return _file_prefix(ckpt.config) + ckpt.data


def dump_checkpoint(ckpt: Checkpoint, path) -> None:
    atomic_write_bytes(path, serialize_checkpoint(ckpt))


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write ``blob`` to a temp file ``.<name>.<16 hex>.tmp`` in ``path``'s
    directory, which is created if missing, then rename it over ``path``.

    The temp file is created exclusively with mode 0o666 under the caller's
    file-creation mask, which the kernel applies as it does for ``open``; the
    helper never changes that process-wide mask.  Readers never see a partly
    written file, two writers of one path never share a temp file, and the
    temp file is removed if the write or the rename fails.
    """
    directory, name = os.path.split(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
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
    raw, data = blob[16:16 + header_len], memoryview(blob)[16 + header_len:]  # not a copy
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.keys() != {"__config__", "tensors"}:
        raise CheckpointError("malformed header: keys must be __config__ and tensors")
    try:
        config = ModelConfig.from_dict(header["__config__"])
    except ValueError as exc:
        raise CheckpointError(f"bad config: {exc}") from exc
    # A few header bytes can claim any number of experts; refuse before the
    # layout names them all when the payload cannot hold one value per matrix.
    ffns = sum(config.experts_per_layer) + sum(config.num_shared)
    if len(data) < 4 * len(FFN_MATRICES) * ffns:
        raise CheckpointError("header/payload length mismatch")

    if raw != _header_bytes(config):
        if not isinstance(header["tensors"], dict):
            raise CheckpointError("malformed header: tensors must be an object")
        got = {name: _dump(entry) for name, entry in header["tensors"].items()}
        _match_tensors(got, {name: _dump(entry) for name, entry in _layout(config).items()},
                       "entry")
        raise CheckpointError("malformed header: not in canonical form")
    return Checkpoint(config, data)
