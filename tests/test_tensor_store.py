"""Checkpoint container: byte layout, validation, round trips."""

import ast
import copy
import hashlib
import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checkpoint_oracle
import moe_lens
from moe_lens import ModelConfig, tensor_store
from moe_lens.config import ACTIVATIONS, GATING_ORDERS
from moe_lens.report import emit_csv, provenance
from moe_lens.synth import (SYNTH_MODES, SynthSpec, synth_permuted_clone_model, synth_scratch,
                            synth_upcycled)
from moe_lens.tensor_store import (MAGIC, CheckpointError, atomic_write_bytes,
                                   build_checkpoint, dump_checkpoint, parse_checkpoint,
                                   read_checkpoint, required_tensor_shapes,
                                   serialize_checkpoint)


def tiny_config(**overrides):
    base = dict(num_layers=1, experts_per_layer=[2], num_shared=[0], top_k=1,
                d_hid=2, d_mid=3, vocab=5)
    base.update(overrides)
    return ModelConfig(**base)


def full_tensor_map(config, fill=None):
    rng = np.random.default_rng(0)
    tensors = {}
    for name, shape in required_tensor_shapes(config).items():
        if fill is None:
            tensors[name] = rng.normal(size=shape).astype(np.float32)
        else:
            tensors[name] = np.full(shape, fill, dtype=np.float32)
    return tensors


def test_required_names_gated_layer():
    names = set(required_tensor_shapes(tiny_config()))
    assert names == {
        "embed.weight",
        "layers.0.gate.weight",
        "layers.0.experts.0.w_up", "layers.0.experts.0.w_act", "layers.0.experts.0.w_down",
        "layers.0.experts.1.w_up", "layers.0.experts.1.w_act", "layers.0.experts.1.w_down",
    }


def test_required_names_dense_layer_has_no_gate():
    config = tiny_config(experts_per_layer=[1], top_k=1)
    names = set(required_tensor_shapes(config))
    assert names == {"embed.weight", "layers.0.ffn.w_up", "layers.0.ffn.w_act",
                     "layers.0.ffn.w_down"}


def test_shared_expert_names_present():
    config = tiny_config(num_shared=[2])
    names = required_tensor_shapes(config)
    assert "layers.0.shared.1.w_act" in names
    assert names["layers.0.shared.1.w_act"] == (3, 2)


def test_byte_range_length_matches_shape():
    # 3x2 float32 tensor occupies exactly 24 bytes.
    config = tiny_config()
    ckpt = build_checkpoint(config, full_tensor_map(config))
    start, end = ckpt.tensors["layers.0.experts.0.w_down"]["offsets"]  # shape [2, 3]
    assert end - start == 4 * 2 * 3 == 24


def test_round_trip_is_bit_exact(tmp_path):
    config = tiny_config(num_shared=[1])
    tensors = full_tensor_map(config)
    path = tmp_path / "model.moel"
    written = build_checkpoint(config, tensors)
    dump_checkpoint(written, path)
    loaded = read_checkpoint(path)
    assert loaded.config == config
    assert loaded.tensors == written.tensors
    assert loaded.data == written.data
    for name, arr in tensors.items():
        got = loaded.get_tensor(name)
        assert got.dtype == np.dtype("<f4")
        assert np.array_equal(got, arr)


def test_serialization_is_deterministic():
    config = tiny_config()
    tensors = full_tensor_map(config)
    a = serialize_checkpoint(build_checkpoint(config, tensors))
    b = serialize_checkpoint(build_checkpoint(config, dict(reversed(tensors.items()))))
    assert a == b


def test_reserialize_after_read_is_identical(tmp_path):
    config = tiny_config()
    path = tmp_path / "m.moel"
    dump_checkpoint(build_checkpoint(config, full_tensor_map(config)), path)
    blob = path.read_bytes()
    assert serialize_checkpoint(parse_checkpoint(blob)) == blob


def test_get_tensor_values_exact():
    config = tiny_config()
    tensors = full_tensor_map(config, fill=1.5)
    ckpt = build_checkpoint(config, tensors)
    up = ckpt.get_tensor("layers.0.experts.1.w_up")
    assert up.shape == (3, 2)
    assert np.all(up == np.float32(1.5))


def test_get_tensor_is_read_only():
    config = tiny_config()
    ckpt = build_checkpoint(config, full_tensor_map(config))
    view = ckpt.get_tensor("embed.weight")
    with pytest.raises((ValueError, RuntimeError)):
        view[0, 0] = 0.0


def test_get_tensor_unknown_name():
    config = tiny_config()
    ckpt = build_checkpoint(config, full_tensor_map(config))
    with pytest.raises(CheckpointError, match="missing tensor"):
        ckpt.get_tensor("layers.9.gate.weight")


def test_ffns_and_gate_are_read_only_views_in_name_order():
    config = tiny_config(num_layers=2, experts_per_layer=[3, 1], num_shared=[2, 0])
    tensors = full_tensor_map(config)
    ckpt = build_checkpoint(config, tensors)
    for layer, names in ((0, (["layers.0.experts.0", "layers.0.experts.1",
                                "layers.0.experts.2"], ["layers.0.shared.0",
                                                         "layers.0.shared.1"])),
                         (1, (["layers.1.ffn"], []))):
        for ffns, prefixes in zip(ckpt.ffns(layer), names):
            assert len(ffns) == len(prefixes)
            for ffn, prefix in zip(ffns, prefixes):
                for matrix in ("w_up", "w_act", "w_down"):
                    view = getattr(ffn, matrix)
                    assert view.dtype == np.float32 and not view.flags.writeable
                    np.testing.assert_array_equal(view, tensors[f"{prefix}.{matrix}"])
    gate = ckpt.gate(0)
    assert gate.dtype == np.float32 and not gate.flags.writeable
    np.testing.assert_array_equal(gate, tensors["layers.0.gate.weight"])
    with pytest.raises(ValueError, match="^layer 1 is dense and has no gate$"):
        ckpt.gate(1)
    for layer in (-1, 2):
        for read in (ckpt.ffns, ckpt.gate):
            with pytest.raises(ValueError, match=f"^layer {layer} out of range$"):
                read(layer)


def test_write_rejects_missing_tensor():
    config = tiny_config()
    tensors = full_tensor_map(config)
    del tensors["layers.0.gate.weight"]
    with pytest.raises(CheckpointError, match="missing tensor"):
        build_checkpoint(config, tensors)


def test_write_rejects_extra_tensor():
    config = tiny_config()
    tensors = full_tensor_map(config)
    tensors["layers.1.gate.weight"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(CheckpointError, match="unexpected tensor"):
        build_checkpoint(config, tensors)


def test_write_rejects_wrong_shape():
    config = tiny_config()
    tensors = full_tensor_map(config)
    tensors["embed.weight"] = np.zeros((5, 3), dtype=np.float32)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        build_checkpoint(config, tensors)


def test_read_rejects_bad_magic():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    with pytest.raises(CheckpointError, match="bad magic"):
        parse_checkpoint(b"XXXX" + blob[4:])


def test_read_rejects_unsupported_version():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    bad = blob[:4] + (2).to_bytes(4, "little") + blob[8:]
    with pytest.raises(CheckpointError, match="unsupported version"):
        parse_checkpoint(bad)


def test_read_rejects_truncated_payload():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    with pytest.raises(CheckpointError, match="length mismatch"):
        parse_checkpoint(blob[:-8])


def test_read_rejects_trailing_garbage():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    with pytest.raises(CheckpointError, match="length mismatch"):
        parse_checkpoint(blob + b"\x00" * 4)


def _header_and_data(blob):
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    return header, blob[16 + header_len:]


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _blob_with_header(raw: bytes, payload: bytes = b"") -> bytes:
    return MAGIC + (1).to_bytes(4, "little") + len(raw).to_bytes(8, "little") + raw + payload


def _reassemble(header, data):
    return _blob_with_header(_dump(header).encode("utf-8"), data)


def test_read_rejects_unsupported_dtype():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    header["tensors"]["embed.weight"]["dtype"] = "f64"
    with pytest.raises(CheckpointError, match='entry mismatch for embed.weight: '
                                              'got {"dtype":"f64",.*}, want {"dtype":"f32",'):
        parse_checkpoint(_reassemble(header, data))


def test_read_rejects_overlapping_ranges():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    # Shift one tensor's range onto its neighbour without changing max end.
    entries = header["tensors"]
    names = sorted(entries)
    first, second = names[0], names[1]
    size = entries[first]["offsets"][1] - entries[first]["offsets"][0]
    entries[first]["offsets"] = [entries[second]["offsets"][0],
                                 entries[second]["offsets"][0] + size]
    with pytest.raises(CheckpointError, match=f"entry mismatch for {re.escape(first)}: "):
        parse_checkpoint(_reassemble(header, data))


def test_read_rejects_offset_length_mismatch():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    header["tensors"]["embed.weight"]["offsets"][1] += 4
    with pytest.raises(CheckpointError, match=re.escape(
            'entry mismatch for embed.weight: got {"dtype":"f32","offsets":[0,44],"shape":[5,2]}, '
            'want {"dtype":"f32","offsets":[0,40],"shape":[5,2]}')):
        parse_checkpoint(_reassemble(header, data))


def test_read_rejects_missing_required_tensor():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    entry = header["tensors"].pop("layers.0.gate.weight")
    # Keep payload length consistent by dropping the trailing bytes if this
    # entry was last; easier: also shrink data to the new max end.
    max_end = max((e["offsets"][1] for e in header["tensors"].values()), default=0)
    data = data[:max_end]
    del entry
    with pytest.raises(CheckpointError, match="missing tensor|length mismatch"):
        parse_checkpoint(_reassemble(header, data))


def test_read_rejects_extra_tensor():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    header["tensors"]["layers.1.gate.weight"] = {
        "dtype": "f32", "shape": [2, 2], "offsets": [len(data), len(data) + 16]}
    with pytest.raises(CheckpointError, match="unexpected tensor: layers.1.gate.weight"):
        parse_checkpoint(_reassemble(header, data + bytes(16)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_rejects_non_finite_payload(value):
    config = tiny_config()
    ckpt = build_checkpoint(config, full_tensor_map(config))
    blob = bytearray(serialize_checkpoint(ckpt))
    # Element [2, 1] of a [3, 2] tensor, patched in the serialized data section.
    start = ckpt.tensors["layers.0.experts.1.w_up"]["offsets"][0]
    at = len(blob) - len(ckpt.data) + start + 4 * 5
    blob[at:at + 4] = np.float32(value).tobytes()
    with pytest.raises(CheckpointError, match="non-finite value in layers.0.experts.1.w_up"):
        parse_checkpoint(bytes(blob))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
def test_write_rejects_non_finite_value(value):
    config = tiny_config()
    tensors = full_tensor_map(config)
    tensors["layers.0.experts.1.w_up"] = tensors["layers.0.experts.1.w_up"].astype(np.float64)
    tensors["layers.0.experts.1.w_up"][2, 1] = value  # 1e39 overflows float32
    with pytest.raises(CheckpointError, match="non-finite value in layers.0.experts.1.w_up"):
        with np.errstate(over="ignore"):
            build_checkpoint(config, tensors)


# --- canonical bytes: one model, one file --------------------------------------

def _canonical_parts():
    config = tiny_config()
    return _header_and_data(serialize_checkpoint(build_checkpoint(config,
                                                                  full_tensor_map(config))))


@pytest.mark.parametrize("form", ["whitespace", "reordered keys", "duplicated key"])
def test_read_rejects_non_canonical_header(form):
    header, data = _canonical_parts()
    compact = dict(separators=(",", ":"))
    raw = {
        "whitespace": json.dumps(header, sort_keys=True),
        "reordered keys": json.dumps({"tensors": header["tensors"],
                                      "__config__": header["__config__"]}, **compact),
        # json.loads keeps the last of two equal keys.
        "duplicated key": json.dumps(header, sort_keys=True, **compact)[:-1]
        + ',"tensors":' + json.dumps(header["tensors"], sort_keys=True, **compact) + "}",
    }[form].encode("utf-8")
    blob = MAGIC + (1).to_bytes(4, "little") + len(raw).to_bytes(8, "little") + raw + data
    with pytest.raises(CheckpointError, match="malformed header: not in canonical form"):
        parse_checkpoint(blob)


def test_read_rejects_gap_in_data_section():
    header, data = _canonical_parts()
    first, *rest = sorted(header["tensors"])
    end = header["tensors"][first]["offsets"][1]
    for name in rest:
        header["tensors"][name]["offsets"] = [o + 4 for o in header["tensors"][name]["offsets"]]
    with pytest.raises(CheckpointError, match=f"entry mismatch for {re.escape(rest[0])}: "):
        parse_checkpoint(_reassemble(header, data[:end] + bytes(4) + data[end:]))


def test_tensor_names_spelled_only_in_tensor_store():
    """Outside tensor_store, no string template of the package spells a tensor
    name; the permuted-clone RNG key is a seed label, not a tensor name."""
    allowed = {"layers.{}.experts.{}.permutation"}
    package = os.path.dirname(moe_lens.__file__)
    found = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "tensor_store.py":
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        parts = set()  # the literal pieces of f-strings, checked as whole templates
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                template = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                                   for v in node.values)
                parts.update(id(v) for v in node.values)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings and id(node) not in parts):
                template = node.value
            else:
                continue
            if ("layers." in template or "embed.weight" in template) \
                    and template not in allowed:
                found.append(f"{filename}:{node.lineno}: {template}")
    assert found == []


def test_read_rejects_unknown_header_key():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    header["extra_key"] = {}
    with pytest.raises(CheckpointError, match="malformed header: keys must be __config__ and tensors"):
        parse_checkpoint(_reassemble(header, data))


def test_read_rejects_unknown_tensor_entry_key():
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    header["tensors"]["embed.weight"]["stride"] = [2, 1]
    with pytest.raises(CheckpointError,
                       match='entry mismatch for embed.weight: got {.*"stride":\\[2,1\\]}'):
        parse_checkpoint(_reassemble(header, data))


# --- parser fuzzing ----------------------------------------------------------

def _json_paths(node, prefix=()):
    """The key path of every node of a JSON tree, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _assert_rejected_or_round_trips(blob):
    """The parser's one error type, and the writer's exact bytes for what it accepts."""
    try:
        ckpt = parse_checkpoint(blob)
    except CheckpointError:
        return
    assert serialize_checkpoint(ckpt) == blob


_FUZZ_BLOB = serialize_checkpoint(build_checkpoint(tiny_config(), full_tensor_map(tiny_config())))
_FUZZ_HEADER, _FUZZ_PAYLOAD = _header_and_data(_FUZZ_BLOB)
_FUZZ_PATHS = list(_json_paths(_FUZZ_HEADER))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 80) | st.floats()
    | st.sampled_from(["f32", "f64", "silu", "gelu", "softmax_then_topk", ""]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)


def _mutated_header(path, op, value, new_key):
    """The fuzz blob with one node of its header JSON replaced, deleted or
    added, by a drawn value or one copied from elsewhere in the header."""
    header = copy.deepcopy(_FUZZ_HEADER)
    value = copy.deepcopy(value)
    if not path:
        header = value
    else:
        parent, last = _at(header, path[:-1]), path[-1]
        target = parent[last]
        if op == "delete":
            del parent[last]
        elif op == "add" and isinstance(target, dict):
            target[new_key] = value
        elif op == "add" and isinstance(target, list):
            target.append(value)
        else:
            parent[last] = value
    return _reassemble(header, _FUZZ_PAYLOAD)


def _flipped_bytes(flips):
    blob = bytearray(_FUZZ_BLOB)
    for position, mask in flips:
        blob[position] ^= mask
    return bytes(blob)


HEADER_MUTATIONS = st.builds(
    _mutated_header, st.sampled_from(_FUZZ_PATHS), st.sampled_from(["replace", "delete", "add"]),
    _JSON_VALUES | st.sampled_from(_FUZZ_PATHS).map(lambda p: _at(_FUZZ_HEADER, p)),
    st.text(max_size=8))
BYTE_FLIPS = st.builds(_flipped_bytes, st.lists(
    st.tuples(st.integers(0, len(_FUZZ_BLOB) - 1), st.integers(1, 255)), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(HEADER_MUTATIONS)
def test_parser_fuzz_header_mutations(blob):
    _assert_rejected_or_round_trips(blob)


@settings(max_examples=200, deadline=None)
@given(BYTE_FLIPS)
def test_parser_fuzz_byte_flips(blob):
    _assert_rejected_or_round_trips(blob)


def _oracle_verdict(blob):
    try:
        return checkpoint_oracle.serialize_checkpoint(checkpoint_oracle.parse_checkpoint(blob))
    except CheckpointError:
        return None


@settings(max_examples=300, deadline=None)
@given(HEADER_MUTATIONS | BYTE_FLIPS)
def test_parser_matches_field_by_field_oracle(blob):
    """The layout reader refuses exactly the blobs the field-by-field reader
    refuses, and writes back the same bytes for the rest."""
    try:
        got = serialize_checkpoint(parse_checkpoint(blob))
    except CheckpointError:
        got = None
    assert got == _oracle_verdict(blob)


def test_oracle_and_reader_accept_canonical_files(small_checkpoint):
    """The two readers agree on accepted files too, not only on refusals."""
    for ckpt in (small_checkpoint, build_checkpoint(tiny_config(num_shared=[2]),
                                                    full_tensor_map(tiny_config(num_shared=[2])))):
        blob = serialize_checkpoint(ckpt)
        assert serialize_checkpoint(parse_checkpoint(blob)) == _oracle_verdict(blob) == blob


def test_read_rejects_deeply_nested_header():
    blob = _blob_with_header(b'{"__config__":' + b"[" * 100_000)
    with pytest.raises(CheckpointError, match="malformed header: maximum recursion depth"):
        parse_checkpoint(blob)


def test_read_rejects_entries_nested_near_the_recursion_limit():
    """Whatever depth json.loads still reads, the entry check refuses with
    CheckpointError: an entry sits two levels below the header's root, so
    json.dumps can always write back an entry that json.loads could read."""
    header, data = _canonical_parts()
    limit = sys.getrecursionlimit()
    for depth in range(limit - 60, limit + 5):
        header["tensors"]["embed.weight"] = "__deep__"
        raw = _dump(header).replace('"__deep__"', "[" * depth + "]" * depth)
        with pytest.raises(CheckpointError, match="entry mismatch for embed.weight|malformed header"):
            parse_checkpoint(_blob_with_header(raw.encode("utf-8"), data))


def test_read_refuses_a_huge_expert_count_before_naming_tensors(monkeypatch):
    """A few header bytes claiming 10**9 experts are refused by the payload
    length, before the layout would name three billion tensors."""
    def refuse(config):
        raise AssertionError("the reader named the tensors")

    monkeypatch.setattr(tensor_store, "required_tensor_shapes", refuse)
    config = dict(tiny_config().to_dict(), experts_per_layer=[10 ** 9])
    raw = _dump({"__config__": config, "tensors": {}}).encode("utf-8")
    with pytest.raises(CheckpointError, match="^header/payload length mismatch$"):
        parse_checkpoint(_blob_with_header(raw))


def test_header_is_the_dump_of_the_config_layout():
    """Offsets follow sorted names, each range right after the last."""
    config = tiny_config(num_shared=[1])
    header, data = _header_and_data(serialize_checkpoint(
        build_checkpoint(config, full_tensor_map(config))))
    cursor = 0
    for name in sorted(header["tensors"]):
        entry = header["tensors"][name]
        assert entry == {"dtype": "f32", "shape": list(required_tensor_shapes(config)[name]),
                         "offsets": [cursor, cursor + 4 * int(np.prod(entry["shape"]))]}
        cursor = entry["offsets"][1]
    assert cursor == len(data)
    assert header["__config__"] == config.to_dict()


@pytest.mark.parametrize("mode", SYNTH_MODES)
def test_checkpoint_tensors_are_the_header_entries(mode):
    """``Checkpoint.tensors`` is the header's directory itself, written and read."""
    config = ModelConfig(num_layers=3, experts_per_layer=[4, 1, 3], num_shared=[1, 0, 0],
                         top_k=2, d_hid=4, d_mid=6, vocab=7)
    spec = SynthSpec(config=config, mode=mode, seed=3)
    built = {"scratch": synth_scratch, "upcycled": lambda s: synth_upcycled(s)[0],
             "permuted_clone": lambda s: synth_permuted_clone_model(s)[0]}[mode](spec)
    blob = serialize_checkpoint(built)
    header, _ = _header_and_data(blob)
    assert built.tensors == header["tensors"]
    assert parse_checkpoint(blob).tensors == header["tensors"]


def test_config_validation_round_trip():
    config = tiny_config(num_layers=3, experts_per_layer=[2, 1, 4],
                         num_shared=[1, 0, 0], top_k=2)
    raw = config.to_dict()
    assert ModelConfig.from_dict(raw) == config


@pytest.mark.parametrize("field, value", [
    ("num_layers", "1"), ("experts_per_layer", 2), ("top_k", None),
    ("d_hid", 2.0), ("use_prenorm", "no"), ("num_layers", True),
])
def test_read_rejects_mistyped_config(field, value):
    config = tiny_config()
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    header["__config__"][field] = value
    with pytest.raises(CheckpointError, match=f"bad config: {field} must be"):
        parse_checkpoint(_reassemble(header, data))


@pytest.mark.parametrize("field, value", [("shape", [True, True]), ("offsets", [False, 4])])
def test_read_rejects_boolean_tensor_directory(field, value):
    config = tiny_config(num_layers=0, experts_per_layer=[], num_shared=[], d_hid=1, vocab=1)
    blob = serialize_checkpoint(build_checkpoint(config, full_tensor_map(config)))
    header, data = _header_and_data(blob)
    header["tensors"]["embed.weight"][field] = value
    with pytest.raises(CheckpointError,
                       match=f'entry mismatch for embed.weight: got {{.*"{field}":'
                             + re.escape(json.dumps(value, separators=(",", ":")))):
        parse_checkpoint(_reassemble(header, data))


def test_config_rejects_top_k_above_smallest_gated():
    with pytest.raises(ValueError, match="top_k"):
        tiny_config(num_layers=2, experts_per_layer=[4, 2], num_shared=[0, 0], top_k=3)


def test_config_rejects_shared_on_dense():
    with pytest.raises(ValueError, match="dense"):
        tiny_config(experts_per_layer=[1], num_shared=[1])


# --- the writer builds only what the reader accepts ---------------------------

_SCALARS = (st.integers(-1, 3) | st.booleans() | st.floats() | st.sampled_from(["1", "2"])
            | st.integers(0, 3).map(np.int64))
_VALUES = (_SCALARS | st.lists(_SCALARS, max_size=3)
           | st.lists(_SCALARS, max_size=3).map(tuple))


def _retyped(value):
    """``value``'s number under another type (float, string, numpy int, bool,
    a tuple for a list) or a fraction off it, or any drawn value."""
    if isinstance(value, list):
        forms = [tuple(value), [n + 0.9 for n in value], [float(n) for n in value],
                 [str(n) for n in value], [np.int64(n) for n in value],
                 [bool(n) for n in value]]
    elif isinstance(value, bool):
        forms = [int(value), float(value), str(value).lower()]
    elif isinstance(value, int):
        forms = [float(value), value + 0.9, str(value), np.int64(value), bool(value)]
    else:
        forms = [value.upper()]
    return st.sampled_from(forms) | _VALUES


@st.composite
def config_keywords(draw):
    """The keywords of a valid small config, some of them retyped."""
    layers = draw(st.integers(0, 3))
    experts = draw(st.lists(st.integers(1, 3), min_size=layers, max_size=layers))
    keywords = dict(
        num_layers=layers, experts_per_layer=experts,
        num_shared=[0 if n == 1 else draw(st.integers(0, 1)) for n in experts],
        top_k=draw(st.integers(1, min([n for n in experts if n > 1], default=1))),
        d_hid=draw(st.integers(1, 3)), d_mid=draw(st.integers(1, 3)),
        vocab=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(ACTIVATIONS)),
        gating_order=draw(st.sampled_from(GATING_ORDERS)),
        use_prenorm=draw(st.booleans()))
    for name in draw(st.lists(st.sampled_from(sorted(keywords)), max_size=3, unique=True)):
        keywords[name] = draw(_retyped(keywords[name]))
    return keywords


@settings(max_examples=300, derandomize=True, deadline=None)
@given(config_keywords())
def test_every_config_either_refuses_or_round_trips(keywords):
    """A config is refused when built, or it holds the values it was given
    and its checkpoint parses back to the same config and bytes."""
    try:
        config = ModelConfig(**keywords)
    except ValueError:
        return
    assert config.to_dict() == {name: list(value) if isinstance(value, tuple) else value
                                for name, value in keywords.items()}
    built = build_checkpoint(config, full_tensor_map(config))
    blob = serialize_checkpoint(built)
    parsed = parse_checkpoint(blob)
    assert parsed.config == config
    assert serialize_checkpoint(parsed) == blob
    # A checkpoint's digest is that of its one file, whether built or read.
    assert built.digest == parsed.digest == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("field, value, kind", [
    ("top_k", True, "an integer"), ("use_prenorm", 1, "a boolean"),
    ("experts_per_layer", [2.9, 2], "a list of integers"), ("d_hid", np.int64(2), "an integer"),
])
def test_config_refuses_what_the_reader_refuses(field, value, kind):
    """The constructor's message is the reader's, where JSON can hold the value."""
    config = tiny_config(num_layers=2, experts_per_layer=[2, 2], num_shared=[0, 0])
    message = re.escape(f"{field} must be {kind}: {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ModelConfig(**dict(config.to_dict(), **{field: value}))
    if not isinstance(value, np.generic):
        header, data = _header_and_data(serialize_checkpoint(
            build_checkpoint(config, full_tensor_map(config))))
        header["__config__"][field] = value
        with pytest.raises(CheckpointError, match=f"^bad config: {message}$"):
            parse_checkpoint(_reassemble(header, data))


def test_dump_is_atomic_no_tmp_left(tmp_path):
    config = tiny_config()
    ckpt = build_checkpoint(config, full_tensor_map(config))
    path = tmp_path / "model.moel"
    dump_checkpoint(ckpt, path)
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_ignores_a_fixed_tmp_name(tmp_path):
    # Another writer's temp file of the same name cannot block this one.
    path = tmp_path / "out.csv"
    (tmp_path / "out.csv.tmp").mkdir()
    atomic_write_bytes(path, b"data")
    assert path.read_bytes() == b"data"
    assert sorted(tmp_path.iterdir()) == [path, tmp_path / "out.csv.tmp"]


def test_atomic_write_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        atomic_write_bytes(tmp_path / "out.csv", b"data")
    finally:
        os.umask(old)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o640


def test_atomic_write_never_touches_the_umask(tmp_path, monkeypatch):
    """The kernel applies the caller's umask when the temp file is created, so
    the writer neither reads nor sets the process-wide umask."""
    set_umask = os.umask
    old = set_umask(0o037)

    def refuse(mask):
        raise AssertionError("the process umask was changed")

    monkeypatch.setattr(os, "umask", refuse)
    try:
        atomic_write_bytes(tmp_path / "out.csv", b"data")
    finally:
        set_umask(old)
    assert list(tmp_path.iterdir()) == [tmp_path / "out.csv"]
    assert (tmp_path / "out.csv").read_bytes() == b"data"
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o666 & ~0o037


@pytest.mark.parametrize("write", [
    lambda path: dump_checkpoint(build_checkpoint(tiny_config(),
                                                  full_tensor_map(tiny_config())), path),
    # emit_csv renders a table; run_command writes its pair with atomic_write_bytes.
    lambda path: atomic_write_bytes(*emit_csv(path, provenance(["c"], {}), ["a"], [[1]])[0]),
], ids=["dump_checkpoint", "emit_csv"])
def test_failed_rename_leaves_no_tmp(tmp_path, monkeypatch, write):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_read_holds_the_file_once(tmp_path):
    """The payload is a view of the file's bytes, not a copy of them: reading
    a checkpoint peaks within 10% above its size."""
    config = ModelConfig(num_layers=2, experts_per_layer=[8, 8], num_shared=[0, 0], top_k=2,
                         d_hid=64, d_mid=256, vocab=64)
    path = tmp_path / "model.moel"
    dump_checkpoint(build_checkpoint(config, full_tensor_map(config)), path)
    size = os.path.getsize(path)
    tracemalloc.start()
    try:
        ckpt = read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert serialize_checkpoint(ckpt) == path.read_bytes()
    assert peak <= 1.1 * size, (peak, size)
