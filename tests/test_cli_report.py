"""CSV/PPM emission primitives and end-to-end command-line runs."""

import argparse
import ast
import builtins
import gc
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import shlex
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import SCIPY_MODULES, kendall_ref, run_isolated, write_corpus

import moe_lens
from moe_lens import ModelConfig
from moe_lens.cli import ANALYSES, build_parser, run_command
from moe_lens.report import (emit_csv, emit_heatmap, file_digest, format_cell, metric_range,
                             provenance)
from moe_lens.synth import SynthSpec, synth_permuted_clone_model
from moe_lens.tensor_store import (build_checkpoint, dump_checkpoint, ffn_prefixes,
                                   read_checkpoint, required_tensor_shapes)

DARK = bytes((8, 8, 32))
LIGHT = bytes((255, 244, 160))


def colormap(value: float, lo: float, hi: float) -> bytes:
    """The heatmap's colour of one value, the oracle for ``emit_heatmap``:
    the scalar dark-to-light ramp, with NaN black."""
    if math.isnan(value):
        return bytes((0, 0, 0))
    if hi <= lo:
        raise ValueError("empty value range")
    t = min(max((value - lo) / (hi - lo), 0.0), 1.0)
    level = round(t * 255) / 255
    dark, light = np.array(list(DARK), float), np.array(list(LIGHT), float)
    rgb = dark + (light - dark) * level
    return bytes(int(round(c)) for c in rgb)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def data_lines(path):
    return [l for l in read_lines(path) if not l.startswith("#")]


def snapshot(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A scratch model, an upcycled model with its dense base, and a corpus."""
    root = tmp_path_factory.mktemp("cliws")
    base = ["--layers", "2", "--experts", "4", "--shared", "0", "--top-k", "2",
            "--d-hid", "8", "--d-mid", "12", "--vocab", "13"]
    assert run_command(["synth", "--mode", "scratch", "--seed", "7",
                        "--out", str(root / "scratch"), *base]) == 0
    assert run_command(["synth", "--mode", "upcycled", "--seed", "7",
                        "--noise", "0.3", "--out", str(root / "up"), *base]) == 0
    write_corpus(root / "corpus.txt", [[0, 1, 2, 3, 4], [5, 6, 7], [8, 9]])
    return {
        "model": str(root / "scratch" / "model.moel"),
        "up": str(root / "up" / "model.moel"),
        "ref": str(root / "up" / "reference.moel"),
        "corpus": str(root / "corpus.txt"),
    }


# --- cell formatting ---------------------------------------------------------

def test_format_cell_floats():
    assert format_cell(1.0) == "1.000000"
    assert format_cell(-0.5) == "-0.500000"
    assert format_cell(0.1234567) == "0.123457"
    assert format_cell(-0.0) == "0.000000"
    # Whatever rounds to zero at six decimals prints without a sign.
    assert format_cell(-1e-12) == "0.000000"
    assert format_cell(-4.9e-7) == "0.000000"
    assert format_cell(4.9e-7) == "0.000000"
    assert format_cell(-6e-7) == "-0.000001"


def test_format_cell_empty_and_passthrough():
    assert format_cell(None) == ""
    assert format_cell(float("nan")) == ""
    assert format_cell("label") == "label"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(-3)) == "-3"


def test_metric_range():
    assert metric_range("cosine") == (-1.0, 1.0)
    assert metric_range("angular") == (0.0, 1.0)
    with pytest.raises(ValueError, match="unknown metric"):
        metric_range("manhattan")


# --- provenance --------------------------------------------------------------

def test_provenance_lines_order_and_seed():
    lines = provenance(["moe-lens", "synth", "--seed", "5"],
                       {"model": "ab" * 32, "corpus": "cd" * 32})
    assert lines[0] == "moe-lens 0.1.0"
    assert lines[1] == "command: moe-lens synth --seed 5"
    assert lines[2].startswith("corpus: sha256:")  # sorted input names
    assert lines[3].startswith("model: sha256:")
    assert lines[-1] == "seed: -"


def test_provenance_seedless_dash():
    assert provenance(["moe-lens"], {})[-1] == "seed: -"


def test_provenance_quotes_awkward_arguments():
    assert "'a dir'" in provenance(["moe-lens", "synth", "--out", "a dir"], {})[1]


def test_provenance_command_without_line_break_keeps_shlex_bytes():
    command = ["moe-lens", "pca", "--out", "a dir", "it's", "back\\slash", "$'x'", "\t"]
    assert provenance(command, {})[1] == f"command: {shlex.join(command)}"


def test_provenance_command_with_line_breaks_stays_one_line():
    command = ["moe-lens", "gate-sim", "--out", "nl\nx", "a'b\\c\r\nd"]
    line = provenance(command, {})[1]
    assert line == "command: moe-lens gate-sim --out $'nl\\nx' $'a\\'b\\\\c\\r\\nd'"
    if shutil.which("bash"):  # the ANSI-C quoting gives the words back
        shell = subprocess.run(["bash", "-c", "printf '%s\\0' " + line[len("command: "):]],
                               capture_output=True, check=True).stdout
        assert shell.decode().split("\0")[:-1] == command


def test_every_artifact_of_one_command_carries_the_same_header(workspace, tmp_path):
    """Each table and each range sidecar of one command opens with the same
    provenance block, that of the command's inputs."""
    out = tmp_path / "out"
    argv = ["matrix-sim", "--model", workspace["up"], "--ref", workspace["ref"],
            "--which", "up", "--out", str(out)]
    assert run_command(argv) == 0
    header = [f"# {line}" for line in provenance(
        ["moe-lens", *argv], {"model": read_checkpoint(workspace["up"]).digest,
                              "reference": read_checkpoint(workspace["ref"]).digest})]
    names = sorted(p.name for p in out.iterdir() if p.suffix in (".csv", ".txt"))
    assert names == [f"matrix-sim-layer{layer}-up{suffix}" for layer in (0, 1)
                     for suffix in (".csv", ".ppm.range.txt")]
    assert all(read_lines(out / name)[:len(header)] == header for name in names)
    assert all(not read_lines(out / name)[len(header)].startswith(("# moe-lens", "# command:"))
               for name in names)


@pytest.mark.parametrize("newline", ["\n", "\r"], ids=["lf", "cr"])
def test_line_break_in_out_keeps_every_header_line_a_comment(workspace, tmp_path, newline):
    """A line break in an argument neither splits the ``# command:`` line of
    a table nor of a heatmap's range sidecar."""
    out = str(tmp_path / f"nl{newline}x")
    assert run_command(["gate-sim", "--model", workspace["model"], "--layer", "0",
                        "--out", out]) == 0
    escaped = "\\n" if newline == "\n" else "\\r"
    for name in ("gate-sim-layer0.csv", "gate-sim-layer0.ppm.range.txt"):
        with open(os.path.join(out, name), "rb") as fh:
            lines = fh.read().decode().split("\n")
        assert lines[1].endswith(f" --out $'{str(tmp_path)}/nl{escaped}x'"), lines[1]
        assert "\r" not in "".join(lines)
        header = lines[:lines.index("# seed: -") + 1]
        assert [line for line in header if not line.startswith("# ")] == []


# --- CSV emission -------------------------------------------------------------

def rendered(pairs, path) -> bytes:
    """The bytes that an ``emit_*`` call rendered for ``path``."""
    return dict(pairs)[path]


def test_emit_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    header = provenance(["moe-lens", "x"], {})
    blob = rendered(emit_csv(path, header, ["a", "b"], [[1, 0.5], ["z", None]],
                             extra_comments=["note: hi"]), path)
    lines = blob.decode("utf-8").splitlines()
    assert lines[0] == "# moe-lens 0.1.0"
    assert lines[1] == "# command: moe-lens x"
    assert lines[2] == "# seed: -"
    assert lines[3] == "# note: hi"
    assert lines[4] == "a,b"
    assert lines[5] == "1,0.500000"
    assert lines[6] == "z,"
    assert blob.endswith(b"\n")


def test_emit_csv_atomic(tmp_path):
    # emit_csv renders one artifact and writes nothing; run_command writes it.
    path = tmp_path / "t.csv"
    pairs = emit_csv(path, provenance(["c"], {}), ["a"], [[1]])
    assert [p for p, _ in pairs] == [path]
    assert list(tmp_path.iterdir()) == []


# --- colormap and heatmaps -----------------------------------------------------

def test_colormap_endpoints_and_nan():
    assert colormap(0.0, 0.0, 1.0) == DARK
    assert colormap(1.0, 0.0, 1.0) == LIGHT
    assert colormap(float("nan"), 0.0, 1.0) == bytes((0, 0, 0))


def test_colormap_clamps_out_of_range():
    assert colormap(-5.0, 0.0, 1.0) == DARK
    assert colormap(5.0, 0.0, 1.0) == LIGHT


def test_colormap_monotone_channels():
    reds = [colormap(v, 0.0, 1.0)[0] for v in np.linspace(0, 1, 30)]
    assert all(b >= a for a, b in zip(reds, reds[1:]))


def test_colormap_rejects_empty_range():
    with pytest.raises(ValueError, match="empty value range"):
        colormap(0.5, 1.0, 1.0)


def test_emit_heatmap_pixels(tmp_path):
    path = tmp_path / "m.ppm"
    pairs = emit_heatmap(path, provenance(["c"], {}), np.array([[0.0, 1.0]]),
                         (0.0, 1.0), cell=2)
    assert [p for p, _ in pairs] == [path, f"{path}.range.txt"]
    blob = rendered(pairs, path)
    assert blob.startswith(b"P6\n4 2\n255\n")
    body = blob[len(b"P6\n4 2\n255\n"):]
    row = DARK * 2 + LIGHT * 2
    assert body == row * 2
    side = rendered(pairs, f"{path}.range.txt").decode("utf-8").splitlines()
    assert "range: 0.000000 1.000000" in side
    assert "cell: 2" in side
    assert "shape: 1 2" in side


def test_emit_heatmap_identity_extremes(tmp_path):
    path = tmp_path / "i.ppm"
    blob = rendered(emit_heatmap(path, provenance(["c"], {}), np.eye(2), (0.0, 1.0),
                                 cell=16), path)
    body = blob[len(b"P6\n32 32\n255\n"):]
    assert body[:3] == LIGHT            # top-left block is the diagonal
    assert body[16 * 3:16 * 3 + 3] == DARK  # off-diagonal block starts at pixel 16


def test_emit_heatmap_nan_is_black(tmp_path):
    path = tmp_path / "n.ppm"
    blob = rendered(emit_heatmap(path, provenance(["c"], {}),
                                 np.array([[float("nan")]]), (0.0, 1.0), cell=1), path)
    assert blob == b"P6\n1 1\n255\n" + bytes((0, 0, 0))


def test_emit_heatmap_rerun_byte_identical(tmp_path, rng):
    path = tmp_path / "r.ppm"
    vals = rng.normal(size=(3, 4))
    first = emit_heatmap(path, provenance(["c"], {}), vals, (-1.0, 1.0))
    assert emit_heatmap(path, provenance(["c"], {}), vals, (-1.0, 1.0)) == first


@pytest.mark.parametrize("value_range", [(0.0, 1.0), (-1.0, 1.0), (0.0, 37.0)])
def test_emit_heatmap_matches_per_cell_colormap(tmp_path, rng, value_range):
    """The lookup-table heatmap gives colormap's bytes cell by cell: random
    values, exact half steps (which round half to even), ±inf, out-of-range
    values and NaN."""
    lo, hi = value_range
    halves = lo + (hi - lo) * (np.arange(255) + 0.5) / 255
    if value_range == (0.0, 1.0):
        assert np.all(halves * 255 % 1 == 0.5)
    special = [np.nan, np.inf, -np.inf, lo - 1.0, hi + 1.0, lo, hi, -0.0]
    values = np.concatenate([rng.uniform(lo - 0.1, hi + 0.1, 249), halves, special])
    values = rng.permutation(values).reshape(16, 32)
    path = tmp_path / "m.ppm"
    blob = rendered(emit_heatmap(path, provenance(["c"], {}), values, value_range, cell=3),
                    path)
    want = b"".join(b"".join(colormap(float(v), lo, hi) * 3 for v in row) * 3
                    for row in values)
    assert blob == b"P6\n96 48\n255\n" + want


def test_emit_heatmap_empty_range(tmp_path):
    """An empty range is refused, as colormap refuses it, unless every cell
    is masked and so needs no range."""
    header = provenance(["c"], {})
    with pytest.raises(ValueError, match="empty value range"):
        emit_heatmap(tmp_path / "x.ppm", header, np.array([[np.nan, 0.0]]), (1.0, 1.0))
    blob = rendered(emit_heatmap(tmp_path / "n.ppm", header, np.full((1, 2), np.nan), (1.0, 1.0),
                                 cell=1), tmp_path / "n.ppm")
    assert blob == b"P6\n2 1\n255\n" + bytes(6)


def test_emit_heatmap_refuses_a_range_whose_width_overflows(tmp_path):
    """The width of (-1e308, 1e308) is inf, so 1e308 has no place on the ramp."""
    with pytest.raises(ValueError, match=r"^value range -1e\+308, 1e\+308 overflows$"):
        emit_heatmap(tmp_path / "x.ppm", provenance(["c"], {}), np.array([[1e308, 0.0]]),
                     (-1e308, 1e308))
    assert os.listdir(tmp_path) == []


def test_emit_heatmap_rejects_bad_input(tmp_path):
    header = provenance(["c"], {})
    with pytest.raises(ValueError, match="non-empty 2-d"):
        emit_heatmap(tmp_path / "x.ppm", header, np.zeros((0, 2)), (0, 1))
    with pytest.raises(ValueError, match="non-empty 2-d"):
        emit_heatmap(tmp_path / "x.ppm", header, np.zeros(4), (0, 1))
    with pytest.raises(ValueError, match="cell size"):
        emit_heatmap(tmp_path / "x.ppm", header, np.eye(2), (0, 1), cell=0)


# --- synth command ---------------------------------------------------------------

def test_synth_deterministic_across_dirs(tmp_path, capsys):
    argv = ["synth", "--mode", "scratch", "--seed", "11", "--layers", "1",
            "--experts", "3", "--d-hid", "8", "--d-mid", "8", "--vocab", "7"]
    assert run_command([*argv, "--out", str(tmp_path / "a")]) == 0
    assert run_command([*argv, "--out", str(tmp_path / "b")]) == 0
    da = file_digest(tmp_path / "a" / "model.moel")
    db = file_digest(tmp_path / "b" / "model.moel")
    assert da == db
    out = capsys.readouterr().out
    assert f"digest model.moel sha256:{da}" in out


def test_synth_seed_changes_output(tmp_path):
    argv = ["synth", "--mode", "scratch", "--layers", "1", "--experts", "3",
            "--d-hid", "8", "--d-mid", "8", "--vocab", "7"]
    run_command([*argv, "--seed", "1", "--out", str(tmp_path / "a")])
    run_command([*argv, "--seed", "2", "--out", str(tmp_path / "b")])
    assert (file_digest(tmp_path / "a" / "model.moel")
            != file_digest(tmp_path / "b" / "model.moel"))


TINY_SYNTH = ["synth", "--mode", "scratch", "--layers", "1", "--experts", "2", "--top-k", "1",
              "--d-hid", "4", "--d-mid", "4", "--vocab", "5"]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"], ids=["minus-one", "two-to-64"])
def test_synth_refuses_seed_outside_64_bits(tmp_path, capsys, seed):
    """-1 and 2**64 would write the checkpoints of seeds 2**64 - 1 and 0."""
    code = run_command([*TINY_SYNTH, f"--seed={seed}", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64): {seed}\n"
    assert not (tmp_path / "out").exists()


def test_synth_seeds_at_both_ends_of_the_range(tmp_path):
    digests = {}
    for seed in ("0", "18446744073709551615"):
        assert run_command([*TINY_SYNTH, "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        digests[seed] = file_digest(tmp_path / seed / "model.moel")
    assert digests == {
        "0": "a8a4e586a3e5ba730a9db311fc3217be310018122b701da83ca41eb28b36b74f",
        "18446744073709551615": "25f2049702db8d84f29e02ffb2cc8cb58d434823c5f7adc6fbc2d9711be04b0f",
    }


def test_synth_upcycled_writes_reference(tmp_path, capsys):
    assert run_command(["synth", "--mode", "upcycled", "--seed", "3",
                        "--noise", "0.5", "--out", str(tmp_path),
                        "--layers", "1", "--experts", "4", "--d-hid", "8",
                        "--d-mid", "8", "--vocab", "7"]) == 0
    assert (tmp_path / "model.moel").exists()
    assert (tmp_path / "reference.moel").exists()
    # The printed digests are those of the files written.
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("digest ")]
    assert printed == [f"digest {name} sha256:"
                       + hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                       for name in ("model.moel", "reference.moel")]


def test_synth_whose_write_fails_prints_no_digest(tmp_path, capsys):
    """A ``digest`` line names a file written, so a write that fails leaves
    none on stdout: only ``error:`` lines on stderr and exit 1."""
    (tmp_path / "file").write_bytes(b"")
    code = run_command([*TINY_SYNTH, "--seed", "1", "--out", str(tmp_path / "file" / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err and all(line.startswith("error: ")
                                for line in captured.err.splitlines())


def test_synth_permuted_clone_mode(tmp_path):
    assert run_command(["synth", "--mode", "permuted-clone", "--seed", "3",
                        "--out", str(tmp_path), "--layers", "1",
                        "--experts", "3", "--d-hid", "8", "--d-mid", "8",
                        "--vocab", "7"]) == 0
    assert (tmp_path / "model.moel").exists()
    assert not (tmp_path / "reference.moel").exists()


def test_synth_expert_list_must_match_layers(tmp_path, capsys):
    code = run_command(["synth", "--mode", "scratch", "--seed", "1",
                        "--out", str(tmp_path), "--layers", "2",
                        "--experts", "4,6,8"])
    assert code == 1
    assert "--experts" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--init-std", "nan", "init_std must be positive and finite"),
    ("--init-std", "inf", "init_std must be positive and finite"),
    ("--init-std", "1e39", "non-finite value in embed.weight"),
    ("--noise", "nan", "upcycle_noise_std must be nonnegative and finite"),
    ("--noise", "inf", "upcycle_noise_std must be nonnegative and finite"),
], ids=["init-std-nan", "init-std-inf", "init-std-1e39", "noise-nan", "noise-inf"])
def test_synth_refuses_what_its_reader_rejects(tmp_path, capsys, flag, value, message):
    code = run_command(["synth", "--mode", "upcycled", "--seed", "1", flag, value,
                        "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists() or snapshot(tmp_path / "out") == {}


def test_synth_requires_seed(tmp_path, capsys):
    code = run_command(["synth", "--mode", "scratch", "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert run_command(["inspect-everything"]) == 2
    capsys.readouterr()


# Every subcommand's options in parser order: (flag, default, choices, required, type).
MODEL = ("--model", None, None, True, None)
REF = ("--ref", None, None, False, None)
CORPUS = [("--corpus", None, None, True, None), ("--k-override", None, ("all",), False, None)]
LAYER = ("--layer", "all", None, False, None)
WHICH = ("--which", None, ("up", "act", "down"), True, None)
OUT = [("--out", None, None, True, None), ("--cell", 16, None, False, int)]
PARSER_OPTIONS = {
    "synth": [("--mode", None, ("scratch", "upcycled", "permuted-clone"), True, None),
              ("--seed", None, None, True, int), ("--out", None, None, True, None),
              ("--layers", 2, None, False, int), ("--experts", "4", None, False, None),
              ("--shared", "0", None, False, None), ("--top-k", 2, None, False, int),
              ("--d-hid", 32, None, False, int), ("--d-mid", 64, None, False, int),
              ("--vocab", 101, None, False, int),
              ("--activation", "silu", ("silu", "gelu"), False, None),
              ("--gating-order", "topk_then_softmax",
               ("topk_then_softmax", "softmax_then_topk"), False, None),
              ("--no-prenorm", False, None, False, None),
              ("--init-std", 0.02, None, False, float), ("--noise", 0.0, None, False, float)],
    "matrix-sim": [MODEL, REF, LAYER, WHICH, *OUT],
    "neuron-avg-sim": [MODEL, REF, LAYER, WHICH, *OUT],
    "reorder": [MODEL, LAYER, WHICH, *OUT],
    "gate-sim": [MODEL, LAYER, *OUT],
    "gate-corr": [MODEL, WHICH, *OUT],
    "pca": [MODEL, LAYER, WHICH, ("--level", "matrix", ("matrix", "neuron"), False, None),
            ("--dims", 2, None, False, int), ("--eps", None, None, False, float),
            ("--min-pts", 2, None, False, int), ("--no-standardize", False, None, False, None),
            *OUT],
    "trace": [MODEL, REF, *CORPUS, *OUT],
    "out-sim": [MODEL, REF, *CORPUS, LAYER, ("--token", 0, None, False, int), *OUT],
    "avg-out-sim": [MODEL, REF, *CORPUS, LAYER, *OUT],
    "norm-rank": [MODEL, *CORPUS, LAYER, *OUT],
    "act-ratio": [MODEL, *CORPUS, ("--threshold", 0.001, None, False, float), *OUT],
    "route-log": [MODEL, *CORPUS, *OUT],
    "report": [MODEL, REF, ("--corpus", None, None, True, None), ("--out", None, None, True, None)],
}


def test_parser_options_are_pinned():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == list(PARSER_OPTIONS)
    for name, parser in commands.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        got = [(*a.option_strings, a.default, tuple(a.choices) if a.choices else None,
                a.required, a.type) for a in actions]
        assert got == PARSER_OPTIONS[name], name
        for action in actions:
            assert action.dest == action.option_strings[0][2:].replace("-", "_")


# --- analysis commands -------------------------------------------------------------

def test_matrix_sim_artifacts(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_command(["matrix-sim", "--model", workspace["model"],
                        "--layer", "0", "--which", "up", "--out", str(out)])
    assert code == 0
    lines = read_lines(out / "matrix-sim-layer0-up.csv")
    assert lines[0] == "# moe-lens 0.1.0"
    assert any(l.startswith("# model: sha256:") for l in lines)
    assert any(l == "# metric: cosine" for l in lines)
    assert any(l.startswith("# s_ee: ") for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == ",0,1,2,3"
    first = data[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1.000000"  # self-similarity
    assert (out / "matrix-sim-layer0-up.ppm").exists()
    assert (out / "matrix-sim-layer0-up.ppm.range.txt").exists()
    assert "wrote" in capsys.readouterr().out


def test_matrix_sim_reference_column(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["matrix-sim", "--model", workspace["up"],
                        "--ref", workspace["ref"], "--layer", "0",
                        "--which", "act", "--out", str(out)]) == 0
    data = data_lines(out / "matrix-sim-layer0-act.csv")
    assert data[0] == ",0,1,2,3,F"
    assert data[-1].startswith("F,")


def test_matrix_sim_all_layers(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["matrix-sim", "--model", workspace["model"],
                        "--layer", "all", "--which", "down",
                        "--out", str(out)]) == 0
    assert (out / "matrix-sim-layer0-down.csv").exists()
    assert (out / "matrix-sim-layer1-down.csv").exists()


def test_matrix_sim_layer_out_of_range(workspace, tmp_path, capsys):
    code = run_command(["matrix-sim", "--model", workspace["model"],
                        "--layer", "9", "--which", "up",
                        "--out", str(tmp_path / "x")])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_weight_sim_rejects_reference_of_other_depth(workspace, tmp_path, capsys):
    assert run_command(["synth", "--mode", "upcycled", "--seed", "7", "--layers", "1",
                        "--d-hid", "8", "--d-mid", "12", "--vocab", "13",
                        "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    for command in ("matrix-sim", "neuron-avg-sim"):
        code = run_command([command, "--model", workspace["up"], "--which", "up",
                            "--ref", str(tmp_path / "one" / "reference.moel"),
                            "--out", str(tmp_path / command)])
        assert code == 1
        assert capsys.readouterr().err == "error: reference layer count differs from model\n"


@pytest.mark.parametrize("synth_args, reference, message", [
    # Layer 1 of this reference is dense, layer 0 is not.
    (["--mode", "scratch", "--experts", "4,1"], "model.moel",
     "reference checkpoint must be dense in every layer"),
    # The dense base of the workspace's upcycled model, but with gelu experts.
    (["--mode", "upcycled", "--noise", "0.3", "--experts", "4", "--activation", "gelu"],
     "reference.moel", "reference activation differs from model"),
], ids=["partly-gated", "gelu"])
def test_every_reference_reader_rejects_a_partly_gated_reference(workspace, tmp_path, capsys,
                                                                 synth_args, reference, message):
    assert run_command(["synth", "--seed", "7", "--layers", "2", *synth_args, "--d-hid", "8",
                        "--d-mid", "12", "--vocab", "13", "--out", str(tmp_path / "ref")]) == 0
    capsys.readouterr()
    ref = ["--ref", str(tmp_path / "ref" / reference)]
    for argv in (["matrix-sim", "--layer", "1", "--which", "up"],
                 ["neuron-avg-sim", "--layer", "1", "--which", "up"],
                 ["trace", "--corpus", workspace["corpus"]],
                 ["avg-out-sim", "--corpus", workspace["corpus"]]):
        out = tmp_path / argv[0]
        assert run_command([*argv, "--model", workspace["up"], *ref, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n", argv[0]
        assert not out.exists()


@pytest.mark.parametrize("cell", ["0", "-1"])
def test_cell_below_one_writes_nothing(workspace, tmp_path, capsys, cell):
    for name, entry in ANALYSES.items():
        argv = [name, *(["--which", "up"] if entry.which else []),
                *(["--corpus", workspace["corpus"]] if entry.corpus else [])]
        out = tmp_path / argv[0]
        code = run_command([*argv, "--model", workspace["model"], "--cell", cell,
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: cell size must be positive\n"
        assert not out.exists()


@pytest.mark.parametrize("layers", [6, 7, 8])
def test_deep_model_without_prenorm_is_refused_where_it_overflows(tmp_path, capsys, layers):
    """Without prenorm a block's output grows with the square of its input:
    this model's block 6 writes vectors near 1e296, finite but with squares
    past float64, which once made every unit vector zero and every cell of a
    table 0.5.  Every command that traces refuses that block, and a model
    that stops one block short runs warning-free."""
    assert run_command(["synth", "--mode", "scratch", "--seed", "3", "--no-prenorm",
                        "--init-std", "1", "--layers", str(layers), "--experts", "4",
                        "--top-k", "2", "--d-hid", "32", "--d-mid", "64", "--vocab", "11",
                        "--out", str(tmp_path / "m")]) == 0
    write_corpus(tmp_path / "corpus.txt", [[0, 1, 2, 3]])
    capsys.readouterr()
    common = ["--model", str(tmp_path / "m" / "model.moel"),
              "--corpus", str(tmp_path / "corpus.txt")]
    commands = [["report"], *([name] for name, entry in ANALYSES.items() if entry.corpus)]
    for argv in commands:
        out = tmp_path / argv[0]
        code = run_command([*argv, *common, "--out", str(out)])
        err = capsys.readouterr().err
        if layers == 6:
            assert (code, err) == (0, ""), argv[0]
        else:
            assert (code, err) == (
                1, "error: layer 6 overflows float64: a sum of squares is not finite\n"), argv[0]
            assert not out.exists()


def test_matrix_sim_rejects_unknown_which(workspace, tmp_path, capsys):
    code = run_command(["matrix-sim", "--model", workspace["model"],
                        "--layer", "0", "--which", "sideways",
                        "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_neuron_avg_sim_artifacts(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["neuron-avg-sim", "--model", workspace["model"],
                        "--layer", "1", "--which", "down",
                        "--out", str(out)]) == 0
    assert (out / "neuron-avg-sim-layer1-down.csv").exists()


def test_reorder_table(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["reorder", "--model", workspace["model"],
                        "--layer", "all", "--which", "up",
                        "--out", str(out)]) == 0
    lines = read_lines(out / "reorder-up.csv")
    assert any(l.startswith("# mean_tau: ") for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "layer,expert_a,expert_b,which,sim_before,sim_after,tau"
    assert len(data) == 1 + 2 * 6  # 2 layers x C(4,2) pairs
    pairs = [tuple(row.split(",")[:3]) for row in data[1:]]
    assert pairs == [(str(layer), str(a), str(b))
                     for layer in range(2) for a, b in itertools.combinations(range(4), 2)]


def test_reorder_table_reads_the_planted_permutations(tmp_path):
    """On a permuted-clone model, clone n is expert 0 with its neurons taken
    in the planted order pi_n, so pair (i, j) aligns by pi_i^-1 o pi_j (pi_0
    the identity): its sim_after is 1 and its tau is that permutation's."""
    model = tmp_path / "model" / "model.moel"
    assert run_command(["synth", "--mode", "permuted-clone", "--seed", "6", "--layers", "2",
                        "--experts", "4", "--top-k", "2", "--d-hid", "16", "--d-mid", "40",
                        "--vocab", "11", "--out", str(model.parent)]) == 0
    config = read_checkpoint(model).config
    _, planted = synth_permuted_clone_model(SynthSpec(config=config, mode="permuted_clone",
                                                      seed=6))
    want = []
    for layer in range(2):
        perms = [np.arange(40)] + [planted[(layer, n)] for n in range(1, 4)]
        for i, j in itertools.combinations(range(4), 2):
            aligned = np.argsort(perms[i])[perms[j]].tolist()
            want.append((str(layer), str(i), str(j), "1.000000",
                         format_cell(kendall_ref(aligned, range(40)))))
    assert len({row[-1] for row in want}) > 2  # the taus are not all 1
    for which in ("up", "act", "down"):
        out = tmp_path / which
        assert run_command(["reorder", "--model", str(model), "--layer", "all",
                            "--which", which, "--out", str(out)]) == 0
        rows = [row.split(",") for row in data_lines(out / f"reorder-{which}.csv")[1:]]
        assert [(*row[:3], *row[5:]) for row in rows] == want
        assert {row[3] for row in rows} == {which}


def test_gate_sim_artifacts(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["gate-sim", "--model", workspace["model"],
                        "--out", str(out)]) == 0
    data = data_lines(out / "gate-sim-layer0.csv")
    assert data[0] == ",0,1,2,3"


def test_gate_corr_has_avg_row(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["gate-corr", "--model", workspace["model"],
                        "--which", "act", "--out", str(out)]) == 0
    data = data_lines(out / "gate-corr-act.csv")
    assert data[0] == "layer,which,n_pairs,r,r2"
    assert len(data) == 1 + 2 + 1  # two layers plus the average row
    assert data[-1].startswith("avg,act,,,")
    avg = float(data[-1].split(",")[-1])
    assert 0.0 <= avg <= 1.0


def test_pca_matrix_level(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["pca", "--model", workspace["model"], "--layer", "0",
                        "--which", "up", "--out", str(out)]) == 0
    lines = read_lines(out / "pca-layer0-up-matrix.csv")
    assert any(l.startswith("# explained_variance: ") for l in lines)
    assert any(l == "# outliers: -" for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "label,pc1,pc2"
    assert [r.split(",")[0] for r in data[1:]] == ["0", "1", "2", "3"]


def test_pca_neuron_level_with_outlier_filter(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["pca", "--model", workspace["model"], "--layer", "0",
                        "--which", "act", "--level", "neuron",
                        "--eps", "100", "--min-pts", "2",
                        "--out", str(out)]) == 0
    data = data_lines(out / "pca-layer0-act-neuron.csv")
    assert data[1].split(",")[0] == "0.0"
    assert len(data) <= 1 + 4 * 12


def test_pca_eps_names_and_drops_planted_outliers(tmp_path):
    """Two far neurons planted in a tight cloud: ``pca --eps`` names them in
    point order (expert, then neuron) and drops exactly their rows."""
    cfg = ModelConfig(num_layers=1, experts_per_layer=[4], num_shared=[0], top_k=1,
                      d_hid=3, d_mid=6, vocab=5)
    rng = np.random.default_rng(3)
    tensors = {name: 0.01 * rng.normal(size=shape)
               for name, shape in required_tensor_shapes(cfg).items()}
    prefixes = ffn_prefixes(cfg, 0)[0]
    tensors[f"{prefixes[3]}.w_up"][1] = [0.0, 50.0, 0.0]
    tensors[f"{prefixes[0]}.w_up"][5] = [50.0, 0.0, 0.0]
    dump_checkpoint(build_checkpoint(cfg, tensors), tmp_path / "model.moel")
    out = tmp_path / "out"
    assert run_command(["pca", "--model", str(tmp_path / "model.moel"), "--which", "up",
                        "--level", "neuron", "--no-standardize", "--eps", "1.0",
                        "--min-pts", "2", "--out", str(out)]) == 0
    lines = read_lines(out / "pca-layer0-up-neuron.csv")
    assert "# outliers: 0.5 3.1" in lines
    kept = [f"{e}.{j}" for e in range(4) for j in range(6) if (e, j) not in {(0, 5), (3, 1)}]
    assert [row.split(",")[0] for row in data_lines(out / "pca-layer0-up-neuron.csv")[1:]] \
        == kept


def test_trace_consistency_table(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["trace", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--out", str(out)]) == 0
    lines = read_lines(out / "trace-consistency.csv")
    maxline = [l for l in lines if l.startswith("# max_rel_err: ")]
    assert maxline and float(maxline[0].split()[-1]) <= 1e-5
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "token_index,token_id,layer,rel_err"
    assert len(data) == 1 + 10 * 2  # 10 corpus tokens x 2 layers


def test_trace_ref_stamps_the_reference_but_does_not_trace_it(workspace, tmp_path,
                                                               monkeypatch):
    """``trace --ref`` evaluates the FFNs that ``trace`` evaluates, no reference
    FFN, and its table differs only in its ``# command:`` and ``# reference:`` lines."""
    import moe_lens.moe_core as moe_core
    expert_forward, evals, tables = moe_core.expert_forward, [], []

    def counted(*args):
        evals[-1] += 1
        return expert_forward(*args)
    monkeypatch.setattr(moe_core, "expert_forward", counted)
    for ref in ([], ["--ref", workspace["ref"]]):
        evals.append(0)
        out = tmp_path / f"out{len(tables)}"
        assert run_command(["trace", "--model", workspace["up"], *ref,
                            "--corpus", workspace["corpus"], "--out", str(out)]) == 0
        tables.append(read_lines(out / "trace-consistency.csv"))
    assert evals[0] > 0 and evals[1] == evals[0]
    assert [line for line in tables[1] if line.startswith("# reference: sha256:")]
    assert [line for line in tables[0] if not line.startswith("# command:")] == \
        [line for line in tables[1] if not line.startswith(("# command:", "# reference:"))]


def max_rel_err(path):
    line = next(l for l in read_lines(path) if l.startswith("# max_rel_err: "))
    return float(line.split()[-1])


def drop_shared(lt, z_in):
    return z_in + np.einsum("tn,tnd->td", lt.gate_scores, lt.expert_outputs)


def weight_by_full_scores(lt, z_in):
    return (z_in + np.einsum("tn,tnd->td", lt.full_scores, lt.expert_outputs)
            + lt.shared_outputs.sum(axis=1))


@pytest.fixture(scope="module")
def shared_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared")
    assert run_command(["synth", "--mode", "scratch", "--seed", "4", "--shared", "1",
                        "--d-hid", "8", "--d-mid", "12", "--vocab", "13",
                        "--out", str(root)]) == 0
    write_corpus(root / "corpus.txt", [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10, 11, 12]])
    return root


def test_trace_checks_engine_against_native_pass(shared_model, tmp_path):
    assert run_command(["trace", "--model", str(shared_model / "model.moel"),
                        "--corpus", str(shared_model / "corpus.txt"),
                        "--out", str(tmp_path)]) == 0
    assert max_rel_err(tmp_path / "trace-consistency.csv") <= 1e-12


@pytest.mark.parametrize("mutant", [drop_shared, weight_by_full_scores])
def test_trace_catches_a_broken_recombination(shared_model, tmp_path, monkeypatch, mutant):
    """A defect in ``recombined_output`` reaches every caller of it, so the
    mutant replaces every binding of the function in the package."""
    from moe_lens import moe_core
    original = moe_core.recombined_output
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "moe_lens":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)
    assert run_command(["trace", "--model", str(shared_model / "model.moel"),
                        "--corpus", str(shared_model / "corpus.txt"),
                        "--out", str(tmp_path)]) == 0
    assert max_rel_err(tmp_path / "trace-consistency.csv") > 1e-9


@pytest.mark.parametrize("argv", [["pca", "--which", "up", "--eps", "nan"],
                                  ["pca", "--which", "up", "--eps", "inf"],
                                  ["act-ratio", "--threshold", "nan"],
                                  ["act-ratio", "--threshold", "inf"]])
def test_non_finite_flag_values_fail_cleanly(workspace, tmp_path, capsys, argv):
    corpus = ["--corpus", workspace["corpus"]] if argv[0] == "act-ratio" else []
    capsys.readouterr()
    code = run_command([*argv, "--model", workspace["model"], *corpus,
                        "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert snapshot(tmp_path / "out") == {}


def test_out_sim_token_and_selected(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["out-sim", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--token", "3",
                        "--layer", "0", "--out", str(out)]) == 0
    lines = read_lines(out / "out-sim-layer0-token3.csv")
    sel = [l for l in lines if l.startswith("# selected: ")]
    assert len(sel) == 1
    assert len(sel[0].split()[2:]) == 2  # top-k experts marked


def test_out_sim_token_out_of_range(workspace, tmp_path, capsys):
    code = run_command(["out-sim", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--token", "99",
                        "--out", str(tmp_path / "x")])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_out_sim_k_override_selects_everyone(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["out-sim", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--token", "0",
                        "--layer", "0", "--k-override", "all",
                        "--out", str(out)]) == 0
    lines = read_lines(out / "out-sim-layer0-token0.csv")
    sel = [l for l in lines if l.startswith("# selected: ")][0]
    assert sorted(sel.split()[2:]) == ["0", "1", "2", "3"]


def test_k_override_reaches_the_corpus_trace(tmp_path, capsys):
    """``--k-override all`` routes every expert of the corpus trace: 4 slots
    per token in layer 0 and 6 in layer 2 (layer 1 is dense), a native pass
    that still agrees, and averaged outputs that change only past layer 0,
    whose input routing cannot reach."""
    assert run_command(["synth", "--mode", "upcycled", "--seed", "3", "--noise", "0.3",
                        "--layers", "3", "--experts", "4,1,6", "--shared", "1,0,2",
                        "--d-hid", "16", "--d-mid", "24", "--out", str(tmp_path / "m")]) == 0
    write_corpus(tmp_path / "corpus.txt", [list(range(1, 11))])
    inputs = ["--model", str(tmp_path / "m" / "model.moel"),
              "--corpus", str(tmp_path / "corpus.txt")]
    for command in ("route-log", "trace", "avg-out-sim"):
        for k in ("all", None):
            assert run_command([command, *inputs, *(["--k-override", k] if k else []),
                                "--out", str(tmp_path / f"{command}-{k}")]) == 0
    capsys.readouterr()
    rows = data_lines(tmp_path / "route-log-all" / "route-log.csv")[1:]
    layers = [row.split(",")[2] for row in rows]
    assert len(layers) == 100 and (layers.count("0"), layers.count("2")) == (40, 60)
    assert "# max_rel_err: 0.000000e+00" in read_lines(
        tmp_path / "trace-all" / "trace-consistency.csv")

    def table(k, layer):
        lines = read_lines(tmp_path / f"avg-out-sim-{k}" / f"avg-out-sim-layer{layer}.csv")
        return [line for line in lines if not line.startswith("# command:")]
    assert table("all", 0) == table(None, 0)
    assert table("all", 2) != table(None, 2)


def test_avg_out_sim_angular_metric(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["avg-out-sim", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--layer", "1",
                        "--out", str(out)]) == 0
    lines = read_lines(out / "avg-out-sim-layer1.csv")
    assert any(l == "# metric: angular" for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    cells = [float(c) for c in data[1].split(",")[1:]]
    assert all(0.0 <= c <= 1.0 for c in cells)


def test_norm_rank_grouped_stem(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["norm-rank", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--layer", "all",
                        "--out", str(out)]) == 0
    data = data_lines(out / "norm-rank-n4.csv")
    assert data[0] == ",1,2,3,4"
    counts = np.array([[int(c) for c in row.split(",")[1:]] for row in data[1:]])
    assert counts.sum() == 10 * 2 * 4  # tokens x layers x experts
    assert (out / "norm-rank-n4.ppm").exists()


def test_norm_rank_single_layer_stem(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["norm-rank", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--layer", "1",
                        "--out", str(out)]) == 0
    assert (out / "norm-rank-layer1.csv").exists()


def test_act_ratio_overall_row(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["act-ratio", "--model", workspace["model"],
                        "--corpus", workspace["corpus"],
                        "--threshold", "0.01", "--out", str(out)]) == 0
    lines = read_lines(out / "act-ratio.csv")
    assert any(l == "# threshold: 0.01" for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "layer,expert,ratio"
    assert len(data) == 1 + 2 * 4 + 1
    assert data[-1].startswith("overall,,")
    assert 0.0 <= float(data[-1].split(",")[-1]) <= 1.0


def test_route_log_rows(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_command(["route-log", "--model", workspace["model"],
                        "--corpus", workspace["corpus"], "--out", str(out)]) == 0
    data = data_lines(out / "route-log.csv")
    assert data[0] == "token_index,token_id,layer,slot,expert,score"
    assert len(data) == 1 + 10 * 2 * 2  # tokens x layers x k
    slots = {row.split(",")[3] for row in data[1:]}
    assert slots == {"0", "1"}


def test_rerun_byte_identical(workspace, tmp_path):
    out = tmp_path / "out"
    argv = ["avg-out-sim", "--model", workspace["model"],
            "--corpus", workspace["corpus"], "--layer", "0", "--out", str(out)]
    assert run_command(argv) == 0
    first = snapshot(out)
    assert run_command(argv) == 0
    assert snapshot(out) == first
    assert set(first) == {"avg-out-sim-layer0.csv", "avg-out-sim-layer0.ppm",
                          "avg-out-sim-layer0.ppm.range.txt"}


def test_report_bundle(workspace, tmp_path):
    out = tmp_path / "bundle"
    assert run_command(["report", "--model", workspace["up"],
                        "--ref", workspace["ref"],
                        "--corpus", workspace["corpus"], "--out", str(out)]) == 0
    expected = {
        "matrix-sim": "matrix-sim-layer0-up.csv",
        "neuron-avg-sim": "neuron-avg-sim-layer0-up.csv",
        "reorder": "reorder-up.csv",
        "pca": "pca-layer0-up-matrix.csv",
        "gate-sim": "gate-sim-layer0.csv",
        "gate-corr": "gate-corr-act.csv",
        "out-sim": "out-sim-layer0-token0.csv",
        "avg-out-sim": "avg-out-sim-layer0.csv",
        "norm-rank": "norm-rank-n4.csv",
        "route-log": "route-log.csv",
        "trace": "trace-consistency.csv",
        "act-ratio": "act-ratio.csv",
    }
    for sub, name in expected.items():
        assert (out / sub / name).exists(), f"missing {sub}/{name}"
    # Reference column made it through the bundle plumbing.
    data = data_lines(out / "matrix-sim" / "matrix-sim-layer0-up.csv")
    assert data[0] == ",0,1,2,3,F"


def report_argv(workspace, out):
    return ["report", "--model", workspace["up"], "--ref", workspace["ref"],
            "--corpus", workspace["corpus"], "--out", str(out)]


def test_report_rerun_byte_identical(workspace, tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run_command(report_argv(workspace, out)) == 0
    first, first_stdout = snapshot(out), capsys.readouterr().out
    assert run_command(report_argv(workspace, out)) == 0
    assert snapshot(out) == first
    assert capsys.readouterr().out == first_stdout


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A report on a Mixtral-style shape (top-2 of 4, d_hid 32, d_mid 64, 640
    seeded tokens) gives the same files, apart from their ``# command:``
    lines, in a child with ``OPENBLAS_NUM_THREADS=1`` and in one without any
    BLAS thread variable, which OpenBLAS runs with one thread per CPU.  Only
    the children's environments change.  On a BLAS that ignores the variable,
    or on one CPU, both runs use the same setting and the test passes
    trivially."""
    assert run_command(["synth", "--mode", "upcycled", "--noise", "0.3", "--layers", "2",
                        "--experts", "4", "--top-k", "2", "--d-hid", "32", "--d-mid", "64",
                        "--vocab", "160", "--seed", "0", "--out", str(tmp_path / "m")]) == 0
    rng = np.random.default_rng(640)
    write_corpus(tmp_path / "corpus.txt", rng.integers(160, size=(20, 32)).tolist())
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    trees = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"out-{len(trees)}"
        proc = subprocess.run(
            [sys.executable, "-m", "moe_lens.cli", "report",
             "--model", str(tmp_path / "m" / "model.moel"),
             "--ref", str(tmp_path / "m" / "reference.moel"),
             "--corpus", str(tmp_path / "corpus.txt"), "--out", str(out)],
            env={**env, **threads, "PYTHONPATH": str(src)},
            capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees.append({name: [line for line in blob.split(b"\n")
                             if not line.startswith(b"# command:")]
                      for name, blob in snapshot(out).items()})
    assert len(trees[0]) > 1
    assert trees[0] == trees[1]


def test_main_freezes_the_import_graph(tmp_path):
    """``main`` moves what the imports built to the permanent generation, so
    the collections at interpreter exit skip it."""
    run_isolated(textwrap.dedent(f"""
        import gc, sys
        from moe_lens import cli
        sys.argv = ["moe-lens", "synth", "--mode", "scratch", "--seed", "0",
                    "--out", {str(tmp_path)!r}]
        assert gc.get_freeze_count() == 0
        assert cli.main() == 0
        assert gc.get_freeze_count() > 0
    """))


def test_main_in_process_prints_help(monkeypatch, capsys):
    from moe_lens import cli
    monkeypatch.setattr(sys, "argv", ["moe-lens", "--help"])
    try:
        assert cli.main() == 0
    finally:
        gc.unfreeze()
    out, err = capsys.readouterr()
    assert out.startswith("usage: ") and err == ""


def test_main_in_process_points_a_failed_stdout_at_devnull(monkeypatch, capsys, tmp_path):
    """When stdout cannot flush, ``main`` reports it once and points stdout's
    descriptor at ``os.devnull``, so the flush at exit has nothing to fail on."""
    from moe_lens import cli
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT, 0o600)

    class FailingStdout:
        def write(self, text):
            return len(text)

        def flush(self):
            raise OSError(28, "No space left on device")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    monkeypatch.setattr(sys, "argv", ["moe-lens", "--help"])
    try:
        assert cli.main() == 1
        devnull = os.stat(os.devnull)
        assert (os.fstat(fd).st_dev, os.fstat(fd).st_ino) == (devnull.st_dev, devnull.st_ino)
    finally:
        gc.unfreeze()
        os.close(fd)
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert (tmp_path / "stdout").read_bytes() == b""


def cli_process(args, unbuffered: bool, stdout=subprocess.PIPE):
    """``python -m moe_lens.cli ARGS`` in a child whose stdout is unbuffered
    or block-buffered (``PYTHONUNBUFFERED`` set or removed)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(moe_lens.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "moe_lens.cli", *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def test_cli_process_exit_codes_with_buffered_stdout(workspace, tmp_path):
    """0 with one ``wrote`` line per artifact, 1 with only ``error:`` lines
    and no file, 2 for a usage error, when stdout is flushed only at the end."""
    out = tmp_path / "out"
    ok = cli_process(["gate-sim", "--model", workspace["up"], "--out", str(out)], False)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert sorted(ok.stdout.splitlines()) == sorted(f"wrote {p}" for p in out.iterdir())
    failed = cli_process(["gate-sim", "--model", str(tmp_path / "missing.moel"),
                          "--out", str(tmp_path / "failed")], False)
    assert (failed.returncode, failed.stdout) == (1, "")
    assert failed.stderr and all(line.startswith("error: ")
                                 for line in failed.stderr.splitlines())
    assert not (tmp_path / "failed").exists()
    usage = cli_process(["gate-sim", "--model", workspace["up"]], False)
    assert (usage.returncode, usage.stdout) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_ends_in_one_error_line(workspace, tmp_path, unbuffered):
    """A stdout that cannot take the ``wrote`` lines ends the command with one
    ``error:`` line and exit 1, not a traceback or an ignored exception at
    exit.  The artifacts, written before those lines, stay."""
    out = tmp_path / "out"
    with open("/dev/full", "w") as full:
        proc = cli_process(["report", "--model", workspace["up"], "--ref", workspace["ref"],
                            "--corpus", workspace["corpus"], "--out", str(out)],
                           unbuffered, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert any(out.rglob("*.csv"))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--help"], ["synth", "--help"]], ids=["main", "synth"])
def test_help_to_a_failing_stdout_ends_in_one_error_line(args, unbuffered):
    """argparse's own output, ``--help``, exits 0 when stdout takes it, and
    like a command's ends in one ``error:`` line and exit 1 when it cannot."""
    ok = cli_process(args, unbuffered)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout.startswith("usage: moe-lens")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        proc = cli_process(args, unbuffered, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


# Shapes beside the workspace's: a dense middle layer among gated ones with
# shared experts, gelu and softmax-then-top-k; the two smallest shapes a
# report takes, two experts per layer and one neuron per expert; and a dense
# model, which feeds only the report's trace and act-ratio steps.
SMALL_SHAPES = {
    "mixed": ["--layers", "3", "--experts", "6,1,6", "--shared", "2,0,2",
              "--activation", "gelu", "--gating-order", "softmax_then_topk"],
    "two-experts": ["--experts", "2", "--top-k", "1"],
    "one-neuron": ["--d-mid", "1"],
    "dense": ["--experts", "1", "--top-k", "1"],
}


def synth_shape(root, name):
    """The upcycled model of ``SMALL_SHAPES[name]`` and its reference, as paths."""
    assert run_command(["synth", "--mode", "upcycled", "--seed", "3", "--noise", "0.3",
                        "--d-hid", "8", "--d-mid", "12", "--vocab", "13", *SMALL_SHAPES[name],
                        "--out", str(root / name)]) == 0
    return str(root / name / "model.moel"), str(root / name / "reference.moel")


def test_report_steps_match_standalone_commands(workspace, tmp_path):
    models = {"up": (workspace["up"], workspace["ref"]),
              **{name: synth_shape(tmp_path, name) for name in SMALL_SHAPES}}
    corpus = ["--corpus", workspace["corpus"]]
    which = [["--which", w] for w in ("up", "act", "down")]
    for name, (path, ref_path) in models.items():
        out = tmp_path / f"bundle-{name}"
        assert run_command(["report", "--model", path, "--ref", ref_path, *corpus,
                            "--out", str(out)]) == 0
        bundle = snapshot(out)
        model = ["--model", path]
        ref = ["--ref", ref_path]
        steps = {
            "matrix-sim": [["matrix-sim", *model, *ref, "--layer", "all", *w] for w in which],
            "neuron-avg-sim": [["neuron-avg-sim", *model, *ref, "--layer", "all", *w]
                               for w in which],
            "reorder": [["reorder", *model, "--layer", "all", *w] for w in which],
            "pca": [["pca", *model, "--layer", "all", *w] for w in which],
            "gate-sim": [["gate-sim", *model, "--layer", "all"]],
            "gate-corr": [["gate-corr", *model, *w] for w in which],
            "out-sim": [["out-sim", *model, *ref, *corpus, "--layer", "all"]],
            "avg-out-sim": [["avg-out-sim", *model, *ref, *corpus, "--layer", "all"]],
            "norm-rank": [["norm-rank", *model, *corpus, "--layer", "all"]],
            "route-log": [["route-log", *model, *corpus]],
            "trace": [["trace", *model, *ref, *corpus]],
            "act-ratio": [["act-ratio", *model, *corpus]],
        }
        if name == "two-experts":  # regression needs three experts
            del steps["gate-corr"]
        if name == "dense":
            steps = {step: steps[step] for step in ("trace", "act-ratio")}
        assert sorted(steps) == sorted(os.listdir(out)), name
        for step, invocations in steps.items():
            shutil.rmtree(out / step)
            for argv in invocations:
                assert run_command([*argv, "--out", str(out / step)]) == 0, argv
        assert snapshot(out) == bundle, name


def test_report_loads_and_traces_inputs_once(workspace, tmp_path, monkeypatch):
    import moe_lens.cli as cli
    import moe_lens.moe_core as moe_core
    calls = {"trace_all_experts": [], "read_checkpoint": []}
    opened = []
    real_open = builtins.open

    def counted_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    def count(module, name, key):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(key(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(moe_core, "trace_all_experts", lambda ckpt, tokens, *rest: len(tokens))
    count(cli, "read_checkpoint", lambda path: path)
    monkeypatch.setattr(builtins, "open", counted_open)
    assert run_command(report_argv(workspace, tmp_path / "bundle")) == 0
    # The whole corpus once, then out-sim's single token.
    assert calls["trace_all_experts"] == [10, 1]
    assert calls["read_checkpoint"] == [workspace["up"], workspace["ref"]]
    # Each input is opened once: its digest is taken from the bytes parsed.
    inputs = [workspace["up"], workspace["ref"], workspace["corpus"]]
    assert {path: opened.count(path) for path in inputs} == dict.fromkeys(inputs, 1)


def test_every_trace_goes_through_the_context(workspace, tmp_path, monkeypatch):
    """The report's corpus trace and out-sim's one-token trace are both made
    by ``Context.corpus_trace``, the one place the CLI traces."""
    import moe_lens.cli as cli
    import moe_lens.moe_core as moe_core
    depth, traced = [0], []
    corpus_trace, trace_all_experts = cli.Context.corpus_trace, moe_core.trace_all_experts

    def in_context(self):
        depth[0] += 1
        try:
            return corpus_trace(self)
        finally:
            depth[0] -= 1

    def recorded(ckpt, tokens, *rest):
        traced.append((len(tokens), depth[0] > 0))
        return trace_all_experts(ckpt, tokens, *rest)
    monkeypatch.setattr(cli.Context, "corpus_trace", in_context)
    monkeypatch.setattr(moe_core, "trace_all_experts", recorded)
    assert run_command(report_argv(workspace, tmp_path / "bundle")) == 0
    assert traced == [(10, True), (1, True)]


def test_every_cli_write_goes_through_run_command(workspace, tmp_path, monkeypatch, capsys):
    """synth's checkpoints and a report's artifacts are written by
    ``run_command``'s one loop: each file on disk once, in declaration order."""
    import moe_lens.cli as cli
    declared, written = [], []
    for name in ("emit_csv", "emit_matrix"):
        def declaring(*args, _emit=getattr(cli, name), **kwargs):
            pairs = _emit(*args, **kwargs)
            declared.extend(path for path, _ in pairs)
            return pairs
        monkeypatch.setattr(cli, name, declaring)
    atomic_write_bytes = cli.atomic_write_bytes

    def recorded(path, blob):
        written.append(os.fspath(path))
        atomic_write_bytes(path, blob)
    monkeypatch.setattr(cli, "atomic_write_bytes", recorded)

    def on_disk(root):
        return sorted(str(p) for p in root.rglob("*") if p.is_file())
    synth = tmp_path / "synth"
    assert run_command(["synth", "--mode", "upcycled", "--seed", "3", "--out", str(synth),
                        "--layers", "1", "--experts", "4", "--d-hid", "8", "--d-mid", "8",
                        "--vocab", "7"]) == 0
    assert written == [str(synth / "model.moel"), str(synth / "reference.moel")]
    assert on_disk(synth) == written
    bundle = tmp_path / "bundle"
    del written[:]
    capsys.readouterr()
    assert run_command(report_argv(workspace, bundle)) == 0
    assert written == declared
    assert sorted(written) == on_disk(bundle) and len(written) == len(set(written))
    assert capsys.readouterr().out.splitlines() == [f"wrote {path}" for path in written]


def _feed(fd: int, blob: bytes) -> None:
    """Write ``blob`` to a pipe's write end, then close it; a closed read end
    stops the write."""
    try:
        with open(fd, "wb") as fh:
            fh.write(blob)
    except BrokenPipeError:
        pass


def _without_command_lines(tree: dict[str, bytes]) -> dict[str, bytes]:
    return {path: b"".join(line for line in blob.splitlines(keepends=True)
                           if not line.startswith(b"# command:"))
            for path, blob in tree.items()}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_report_reads_its_inputs_from_pipes(workspace, tmp_path):
    """A pipe can be read only once, so a report over three of them works
    only when each input is read once; every stamp is the sha256 of the
    bytes sent, and the bundle is the one the same files give."""
    sent = {name: Path(workspace[key]).read_bytes()
            for name, key in (("model", "up"), ("reference", "ref"), ("corpus", "corpus"))}
    reads, writers = {}, []
    for name, blob in sent.items():
        reads[name], write = os.pipe()
        writers.append(threading.Thread(target=_feed, args=(write, blob)))
    argv = ["report", "--model", f"/dev/fd/{reads['model']}",
            "--ref", f"/dev/fd/{reads['reference']}",
            "--corpus", f"/dev/fd/{reads['corpus']}", "--out", str(tmp_path / "piped")]
    for writer in writers:
        writer.start()
    try:
        code = run_command(argv)
    finally:
        for fd in reads.values():
            os.close(fd)
        for writer in writers:
            writer.join(timeout=60)
    assert code == 0
    piped = snapshot(tmp_path / "piped")
    stamps = set()
    for path, blob in piped.items():
        if not path.endswith(".ppm"):
            for line in blob.decode("utf-8").splitlines():
                name, _, digest = line.removeprefix("# ").partition(": sha256:")
                if digest:
                    stamps.add((name, digest))
    assert stamps == {(name, hashlib.sha256(blob).hexdigest()) for name, blob in sent.items()}
    assert run_command(report_argv(workspace, tmp_path / "files")) == 0
    assert (_without_command_lines(piped)
            == _without_command_lines(snapshot(tmp_path / "files")))


def test_report_builds_parser_once(workspace, tmp_path):
    import moe_lens.cli as cli
    cli.build_parser.cache_clear()
    assert run_command(report_argv(workspace, tmp_path / "bundle")) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_traced_benchmark_report_runs(workspace, tmp_path):
    # perfbench/tracer.py wraps package functions by name, so a rename
    # breaks the benchmark's traced run; run it as the benchmark does.
    repo = Path(__file__).resolve().parents[1]

    def traced(name, argv):
        spans = tmp_path / f"spans-{name}.json"
        proc = subprocess.run([sys.executable, str(repo / "perfbench" / "tracer.py"),
                               str(spans), *argv],
                              env={**os.environ, "PYTHONPATH": str(repo / "src")},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(spans.read_text())

    dump = traced("report", report_argv(workspace, tmp_path / "bundle"))
    spans = dump["spans"]
    assert "moe_core.trace" in {span[0] for span in spans}
    # One cli.<step> span under cli.report per step the benchmark times;
    # a step without one reads as 0 s in its per-layer metric.
    run_py = ast.parse((repo / "perfbench" / "run.py").read_text(encoding="utf-8"))
    report_steps = next(ast.literal_eval(node.value) for node in run_py.body
                        if isinstance(node, ast.Assign)
                        and getattr(node.targets[0], "id", None) == "REPORT_STEPS")
    root = next(i for i, span in enumerate(spans) if span[0] == "cli.report")
    steps = {span[0] for span in spans if span[3] == root and span[0].startswith("cli.")}
    assert steps == {f"cli.{step}" for step in report_steps}
    # The benchmark's DBSCAN probe: neuron-level PCA of the last layer.
    dump = traced("pca", ["pca", "--model", workspace["up"], "--layer", "1", "--which", "up",
                          "--level", "neuron", "--eps", "0.5", "--out", str(tmp_path / "pca")])
    assert "static_analysis.dbscan" in {span[0] for span in dump["spans"]}
    assert dump["dbscan_points"] == 4 * 12  # experts x d_mid


def test_report_bad_corpus_writes_nothing(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    write_corpus(corpus, [[0, 1], [13]])  # vocab is 13
    out = tmp_path / "bundle"
    code = run_command(["report", "--model", workspace["up"], "--corpus", str(corpus),
                        "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: token id out of range")
    assert not out.exists()


@pytest.fixture(scope="module")
def failing_inputs(tmp_path_factory):
    """A model of 6 and 2 experts, a model whose ``layers.1.experts.2.w_down``
    is all zero, one whose gate row 2 of layer 1 is all zero, and a corpus."""
    root = tmp_path_factory.mktemp("failing")
    base = ["--layers", "2", "--top-k", "2", "--d-hid", "8", "--d-mid", "12", "--vocab", "11"]
    assert run_command(["synth", "--mode", "scratch", "--seed", "1", "--experts", "6,2",
                        *base, "--out", str(root / "six-two")]) == 0
    assert run_command(["synth", "--mode", "scratch", "--seed", "5", "--experts", "4",
                        *base, "--out", str(root / "source")]) == 0
    ckpt = read_checkpoint(root / "source" / "model.moel")
    for stem, name, zeroed in [("zero", "layers.1.experts.2.w_down", np.s_[:]),
                               ("zero-gate", "layers.1.gate.weight", np.s_[2])]:
        tensors = {name: ckpt.get_tensor(name).copy() for name in ckpt.tensors}
        tensors[name][zeroed] = 0.0
        dump_checkpoint(build_checkpoint(ckpt.config, tensors), root / f"{stem}.moel")
    write_corpus(root / "corpus.txt", [[1, 2, 3, 4]])
    return {"six-two": str(root / "six-two" / "model.moel"), "zero": str(root / "zero.moel"),
            "zero-gate": str(root / "zero-gate.moel"), "corpus": str(root / "corpus.txt")}


@pytest.mark.parametrize("argv, errors", [
    (["pca", "--model", "{six-two}", "--which", "up", "--dims", "3"],
     ["fewer samples than dims"]),
    (["report", "--model", "{zero}", "--corpus", "{corpus}"],
     ["undefined similarity: zero vector", "report step failed: matrix-sim"]),
    (["report", "--model", "{zero-gate}", "--corpus", "{corpus}"],
     ["undefined similarity: zero vector", "report step failed: gate-sim"]),
    (["gate-sim", "--model", "{six-two}", "--layer", "5"], ["layer 5 out of range"]),
    (["matrix-sim", "--model", "{six-two}", "--which", "up", "--layer", "9"],
     ["layer 9 out of range"]),
], ids=["pca-after-layer-0", "report-step", "report-gate-row", "gate-sim-layer",
        "matrix-sim-layer"])
def test_a_failed_command_writes_nothing(failing_inputs, tmp_path, capsys, argv, errors):
    """Artifacts are written only once the whole command has succeeded, so a
    failure after some layers, or after some report steps, leaves no table
    that looks like a result, and no ``--out`` directory either."""
    out = tmp_path / "out"
    code = run_command([arg.format_map(failing_inputs) for arg in argv] + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", "".join(f"error: {e}\n" for e in errors))
    assert not out.exists()


@pytest.mark.parametrize("command", ["avg-out-sim", "report"])
@pytest.mark.parametrize("flag", ["--model", "--ref", "--corpus"])
def test_an_empty_path_writes_nothing(workspace, tmp_path, capsys, command, flag):
    """An empty input path is a file that does not exist, not an absent flag."""
    inputs = {"--model": workspace["up"], "--ref": workspace["ref"],
              "--corpus": workspace["corpus"], flag: ""}
    out = tmp_path / "out"
    code = run_command([command, *itertools.chain(*inputs.items()), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
    assert not out.exists()


def test_a_heatmap_too_large_to_allocate_writes_nothing(tmp_path):
    """Every heatmap is rendered before the first file is written.  In a child
    whose address space is capped at 2 GiB, layer 1's 32,000-pixel-square
    image (2.86 GiB) cannot be allocated after layer 0's artifacts were
    rendered, and the command leaves no file and no ``--out`` directory.
    Where the ``resource`` module is missing (outside POSIX), no limit can be
    set and the test is skipped."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    assert run_command(["synth", "--mode", "scratch", "--seed", "1", "--layers", "2",
                        "--experts", "2,16", "--top-k", "2", "--d-hid", "8", "--d-mid", "8",
                        "--vocab", "5", "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "moe_lens.cli", "matrix-sim", "--model",
         str(tmp_path / "model.moel"), "--layer", "all", "--which", "up", "--cell", "2000",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: Unable to allocate ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_zero_layer_model_fails_cleanly(tmp_path, capsys):
    assert run_command(["synth", "--mode", "scratch", "--seed", "5", "--out", str(tmp_path),
                        "--layers", "0", "--d-hid", "8", "--d-mid", "8", "--vocab", "7"]) == 0
    write_corpus(tmp_path / "corpus.txt", [[0, 1, 2]])
    inputs = ["--model", str(tmp_path / "model.moel"), "--corpus", str(tmp_path / "corpus.txt")]
    capsys.readouterr()
    for command in ("act-ratio", "report"):
        code = run_command([command, *inputs, "--out", str(tmp_path / command)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no intermediates to count: the model has no layers")
    # report refuses the model before its first step, so it leaves no partial bundle.
    assert snapshot(tmp_path / "report") == {}


def test_dense_model_matrix_sim_fails_cleanly(tmp_path, capsys):
    assert run_command(["synth", "--mode", "scratch", "--seed", "5",
                        "--out", str(tmp_path), "--layers", "1",
                        "--experts", "1", "--top-k", "1", "--d-hid", "8",
                        "--d-mid", "8", "--vocab", "7"]) == 0
    code = run_command(["matrix-sim", "--model", str(tmp_path / "model.moel"),
                        "--layer", "all", "--which", "up",
                        "--out", str(tmp_path / "x")])
    assert code == 1
    assert "no gated layers" in capsys.readouterr().err


def test_corpus_ids_checked_against_vocab_on_load(workspace, tmp_path, capsys):
    # out-sim traces only its --token, so only a check at load sees the rest.
    corpus = tmp_path / "corpus.txt"
    write_corpus(corpus, [[0, 1], [2, 99, 3]])  # vocab is 13
    for command in ("trace", "out-sim", "avg-out-sim", "norm-rank", "act-ratio",
                    "route-log", "report"):
        code = run_command([command, "--model", workspace["model"], "--corpus", str(corpus),
                            "--out", str(tmp_path / command)])
        assert code == 1, command
        assert capsys.readouterr().err == \
            "error: token id out of range on line 2: 99 (vocab 13)\n", command


def test_non_finite_weight_fails_cleanly(tmp_path, capsys):
    from moe_lens.tensor_store import read_checkpoint, serialize_checkpoint
    assert run_command(["synth", "--mode", "scratch", "--seed", "5", "--out", str(tmp_path),
                        "--layers", "1", "--d-hid", "8", "--d-mid", "8", "--vocab", "7"]) == 0
    ckpt = read_checkpoint(tmp_path / "model.moel")
    start = ckpt.tensors["layers.0.experts.1.w_up"]["offsets"][0]
    data = bytearray(ckpt.data)
    data[start:start + 4] = np.float32("nan").tobytes()
    ckpt.data = bytes(data)
    (tmp_path / "nan.moel").write_bytes(serialize_checkpoint(ckpt))
    capsys.readouterr()
    code = run_command(["matrix-sim", "--model", str(tmp_path / "nan.moel"), "--which", "up",
                        "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: non-finite value in layers.0.experts.1.w_up\n"


@pytest.mark.parametrize("command, synth_args, message", [
    ("trace", ["--layers", "0"], "nothing to trace: the model has no layers"),
    ("route-log", ["--layers", "0"], "model has no gated layers"),
    ("route-log", ["--layers", "1", "--experts", "1", "--top-k", "1"],
     "model has no gated layers"),
], ids=["trace-zero-layers", "route-log-zero-layers", "route-log-dense"])
def test_empty_model_fails_cleanly(tmp_path, capsys, command, synth_args, message):
    assert run_command(["synth", "--mode", "scratch", "--seed", "5", "--out", str(tmp_path),
                        *synth_args, "--d-hid", "8", "--d-mid", "8", "--vocab", "7"]) == 0
    write_corpus(tmp_path / "corpus.txt", [[0, 1, 2]])
    capsys.readouterr()
    code = run_command([command, "--model", str(tmp_path / "model.moel"),
                        "--corpus", str(tmp_path / "corpus.txt"),
                        "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert snapshot(tmp_path / "out") == {}


def moel_bytes(header: bytes, data: bytes = b"") -> bytes:
    return b"MOEL" + (1).to_bytes(4, "little") + len(header).to_bytes(8, "little") + header + data


# Config edits that ``ModelConfig.from_dict`` refuses, each applied to a
# canonically re-encoded header: name -> edit of the config dict.
BAD_CONFIGS = {
    "experts-length": lambda config: {**config, "experts_per_layer": [2, 2]},
    "shared-length": lambda config: {**config, "num_shared": [0, 0]},
    "relu": lambda config: {**config, "activation": "relu"},
    "config-list": lambda config: [config],
}


@pytest.fixture(scope="module")
def refusal_inputs(tmp_path_factory):
    """A 2-expert model with d_hid 2, a corpus of blanks, a corpus whose id
    has 5,000 digits, a checkpoint whose header nests 100,000 arrays deep,
    and the model under each config of ``BAD_CONFIGS``."""
    root = tmp_path_factory.mktemp("refusals")
    assert run_command(["synth", "--mode", "scratch", "--seed", "5", "--out", str(root),
                        "--layers", "1", "--experts", "2", "--top-k", "1", "--d-hid", "2",
                        "--d-mid", "4", "--vocab", "7"]) == 0
    (root / "blank.txt").write_text("  \n\t\n", encoding="utf-8")
    (root / "long.txt").write_text("9" * 5000 + "\n", encoding="utf-8")
    (root / "deep.moel").write_bytes(moel_bytes(b'{"__config__":' + b"[" * 100_000))
    blob = (root / "model.moel").read_bytes()
    end = 16 + int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:end])
    inputs = {"model": str(root / "model.moel"), "blank": str(root / "blank.txt"),
              "long": str(root / "long.txt"), "deep": str(root / "deep.moel")}
    for name, edit in BAD_CONFIGS.items():
        text = json.dumps({**header, "__config__": edit(header["__config__"])},
                          sort_keys=True, separators=(",", ":"))
        (root / f"{name}.moel").write_bytes(moel_bytes(text.encode("utf-8"), blob[end:]))
        inputs[name] = str(root / f"{name}.moel")
    return inputs


@pytest.mark.parametrize("argv, message", [
    (["trace", "--model", "{model}", "--corpus", "{blank}"], "corpus holds no tokens"),
    (["gate-corr", "--model", "{model}", "--which", "up"],
     "no gated layer has enough experts for regression"),
    (["matrix-sim", "--model", "{model}", "--layer", "abc", "--which", "up"],
     "--layer expects an index or 'all': 'abc'"),
    (["synth", "--mode", "scratch", "--seed", "5", "--experts", "a"],
     "--experts expects integers: invalid literal for int() with base 10: 'a'"),
    (["synth", "--mode", "scratch", "--seed", "5", "--layers", "-1"],
     "num_layers must be nonnegative"),
    (["synth", "--mode", "scratch", "--seed", "5", "--top-k", "0"], "top_k must be positive"),
    (["synth", "--mode", "scratch", "--seed", "5", "--d-hid", "0"], "d_hid must be positive"),
    (["synth", "--mode", "scratch", "--seed", "5", "--shared", "-1"],
     "num_shared entries must be nonnegative"),
    (["synth", "--mode", "scratch", "--seed", "5", "--experts", "0"],
     "every layer needs at least one expert"),
    (["pca", "--model", "{model}", "--level", "matrix", "--dims", "3", "--which", "up"],
     "fewer samples than dims"),
    (["pca", "--model", "{model}", "--dims", "0", "--which", "up"], "dims must be positive"),
    (["pca", "--model", "{model}", "--eps", "0.5", "--min-pts", "0", "--which", "up"],
     "min_pts must be at least 1"),
    (["pca", "--model", "{model}", "--min-pts", "0", "--which", "up"],
     "min_pts must be at least 1"),
    (["trace", "--model", "{model}", "--corpus", "{long}"],
     "bad token id on line 1: Exceeds the limit (4300 digits)"),
    (["matrix-sim", "--model", "{deep}", "--which", "up"],
     "malformed header: maximum recursion depth exceeded while decoding a JSON array"),
    (["matrix-sim", "--model", "{experts-length}", "--which", "up"],
     "bad config: experts_per_layer length must equal num_layers"),
    (["matrix-sim", "--model", "{shared-length}", "--which", "up"],
     "bad config: num_shared length must equal num_layers"),
    (["matrix-sim", "--model", "{relu}", "--which", "up"],
     "bad config: unknown activation: 'relu'"),
    (["matrix-sim", "--model", "{config-list}", "--which", "up"],
     "bad config: config must be a JSON object"),
    (["gate-sim", "--model", "{model}", "--cell", "2305843009213693952"],
     "heatmap of 4611686018427387904 x 4611686018427387904 pixels is too large"),
], ids=["blank-corpus", "gate-corr-two-experts", "layer-abc", "synth-experts-a",
        "synth-layers-negative", "synth-top-k-zero", "synth-d-hid-zero", "synth-shared-negative",
        "synth-experts-zero", "pca-dims-above-samples", "pca-dims-zero", "pca-min-pts-zero",
        "pca-min-pts-zero-without-eps", "corpus-id-past-int-limit", "deeply-nested-header",
        "config-experts-length", "config-shared-length", "config-activation-relu",
        "config-not-an-object", "heatmap-bytes-overflow"])
def test_refusal_is_one_error_line(refusal_inputs, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = run_command([arg.format(**refusal_inputs) for arg in argv] + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out.exists() or snapshot(out) == {}


@pytest.mark.parametrize("argv, target", [
    (["gate-sim", "--model", "{model}"], "moe_lens.static_analysis.gate_embedding_sim"),
    (["synth", "--mode", "scratch", "--seed", "1"], "moe_lens.synth.synth_scratch"),
], ids=["gate-sim", "synth"])
def test_allocation_failure_is_one_error_line(refusal_inputs, tmp_path, capsys, monkeypatch,
                                              argv, target):
    """A step that cannot allocate ends in one ``error:`` line and exit 1;
    the step is patched to raise, so the test allocates nothing."""
    message = "Unable to allocate 447. GiB for an array with shape (400000, 400000, 3)"

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(target, fail)
    code = run_command([arg.format(**refusal_inputs) for arg in argv]
                       + ["--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("synth_args, degenerate_steps", [
    (["--mode", "upcycled", "--noise", "0"], {"pca", "gate-corr"}),
    (["--mode", "permuted-clone"], {"gate-corr"}),
], ids=["upcycled-noise-0", "permuted-clone"])
def test_report_completes_on_degenerate_models(tmp_path, synth_args, degenerate_steps):
    """Identical experts leave PCA no varying feature, and clones leave
    gate-corr a side with zero variance: the report still finishes, and each
    undefined value is an empty cell named in a ``degenerate:`` comment."""
    assert run_command(["synth", *synth_args, "--seed", "2", "--layers", "2", "--experts", "4",
                        "--d-hid", "8", "--d-mid", "12", "--vocab", "13",
                        "--out", str(tmp_path / "model")]) == 0
    write_corpus(tmp_path / "corpus.txt", [[0, 1, 2, 3], [4, 5, 6]])
    ref = tmp_path / "model" / "reference.moel"
    argv = ["report", "--model", str(tmp_path / "model" / "model.moel"),
            *(["--ref", str(ref)] if ref.exists() else []),
            "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "bundle")]
    assert run_command(argv) == 0
    first = snapshot(tmp_path / "bundle")
    assert run_command(argv) == 0
    assert snapshot(tmp_path / "bundle") == first
    tables = {name: data.decode().splitlines() for name, data in first.items()
              if name.endswith(".csv")}
    cells = {cell.lower() for lines in tables.values() for line in lines
             if not line.startswith("#") for cell in line.split(",")}
    assert not cells & {"nan", "inf", "-inf"}
    flagged = {name: next((l for l in lines if l.startswith("# degenerate: ")), None)
               for name, lines in tables.items()}
    assert {name.split(os.sep)[0] for name, line in flagged.items() if line} == degenerate_steps
    # Every neuron-averaged similarity of both models is 1 up to rounding, so
    # every gate-corr table flags both layers.
    assert {line for name, line in flagged.items() if name.startswith("gate-corr")} == \
        {"# degenerate: zero variance in layers 0 1"}
    for name, lines in tables.items():
        if not name.startswith("gate-corr"):
            continue
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        empty = [row[0] for row in rows[:-1] if row[3] == row[4] == ""]
        assert flagged[name] == (f"# degenerate: zero variance in layers {' '.join(empty)}"
                                 if empty else None)
        assert (rows[-1][4] == "") == (len(empty) == len(rows) - 1)


def test_report_completes_on_two_experts(workspace, tmp_path):
    """Two experts span one direction: the matrix-level PCA's second
    component has zero coordinates and zero explained variance."""
    model, ref = synth_shape(tmp_path, "two-experts")
    out = tmp_path / "bundle"
    assert run_command(["report", "--model", model, "--ref", ref,
                        "--corpus", workspace["corpus"], "--out", str(out)]) == 0
    for layer, which in itertools.product((0, 1), ("up", "act", "down")):
        lines = read_lines(out / "pca" / f"pca-layer{layer}-{which}-matrix.csv")
        variance = next(l for l in lines if l.startswith("# explained_variance: ")).split()
        assert float(variance[2]) > 0.0 and variance[3] == "0.000000"
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert [row[0] for row in rows] == ["0", "1"]
        assert [row[2] for row in rows] == ["0.000000", "0.000000"]
    assert not (out / "gate-corr").exists()


def test_report_completes_on_one_neuron(workspace, tmp_path):
    """With one neuron per expert Kendall's tau is undefined: every reorder
    row has an empty tau cell, mean_tau is empty, and a ``degenerate:``
    comment names the layers."""
    model, ref = synth_shape(tmp_path, "one-neuron")
    out = tmp_path / "bundle"
    assert run_command(["report", "--model", model, "--ref", ref,
                        "--corpus", workspace["corpus"], "--out", str(out)]) == 0
    for which in ("up", "act", "down"):
        lines = read_lines(out / "reorder" / f"reorder-{which}.csv")
        assert "# mean_tau: " in lines
        assert "# degenerate: fewer than two neurons in layers 0 1" in lines
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2 * 6
        assert all(row[6] == "" and row[4] == row[5] for row in rows)


def test_pca_components_past_the_varying_features_are_zero(refusal_inputs, tmp_path):
    """Neurons of d_hid 2 vary in two features, so a third component is
    unresolved: its coordinates and explained variance are zero."""
    out = tmp_path / "pca"
    assert run_command(["pca", "--model", refusal_inputs["model"], "--level", "neuron",
                        "--dims", "3", "--which", "up", "--out", str(out)]) == 0
    lines = read_lines(out / "pca-layer0-up-neuron.csv")
    assert "# explained_variance: 1.464266 0.821448 0.000000" in lines
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert rows[0] == ["label", "pc1", "pc2", "pc3"]
    assert len(rows) == 9 and all(row[3] == "0.000000" for row in rows[1:])


def test_report_completes_on_one_hidden_feature(tmp_path):
    """With d_hid = d_mid = 1 every matrix is one value: the matrix-level PCA
    of four experts has one feature, so its second component is zero, and
    the report still writes every step."""
    assert run_command(["synth", "--mode", "scratch", "--seed", "1", "--layers", "1",
                        "--experts", "4", "--top-k", "2", "--d-hid", "1", "--d-mid", "1",
                        "--vocab", "3", "--out", str(tmp_path / "model")]) == 0
    write_corpus(tmp_path / "corpus.txt", [[0, 1, 2]])
    out = tmp_path / "bundle"
    assert run_command(["report", "--model", str(tmp_path / "model" / "model.moel"),
                        "--corpus", str(tmp_path / "corpus.txt"), "--out", str(out)]) == 0
    assert len(snapshot(out)) == 42
    for which in ("up", "act", "down"):
        lines = read_lines(out / "pca" / f"pca-layer0-{which}-matrix.csv")
        variance = next(l for l in lines if l.startswith("# explained_variance: ")).split()
        assert variance[2:] == ["1.333333", "0.000000"]
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert [row[2] for row in rows] == ["0.000000"] * 4


# --- imports -----------------------------------------------------------------

# Python source, for ``run_isolated``, naming the moe_lens modules loaded so far.
MOE_LENS_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'moe_lens')"
ENGINE_TRACES_GENERATORS = ["moe_lens.dynamic_analysis", "moe_lens.moe_core", "moe_lens.synth"]


def test_cli_import_and_weight_commands_load_no_engine_traces_or_generators(workspace,
                                                                           tmp_path):
    model, up, ref = workspace["model"], workspace["up"], workspace["ref"]
    out = str(tmp_path)
    run_isolated(textwrap.dedent(f"""
        import sys
        from moe_lens.cli import run_command

        def unwanted():
            return sorted(set({MOE_LENS_MODULES}) & set({ENGINE_TRACES_GENERATORS!r}))

        assert unwanted() == [], unwanted()
        for argv in (["matrix-sim", "--model", {up!r}, "--ref", {ref!r}, "--which", "up"],
                     ["neuron-avg-sim", "--model", {model!r}, "--which", "act"],
                     ["reorder", "--model", {model!r}, "--which", "down"],
                     ["pca", "--model", {model!r}, "--which", "up", "--level", "neuron",
                      "--eps", "0.5"],
                     ["gate-sim", "--model", {model!r}],
                     ["gate-corr", "--model", {model!r}, "--which", "up"]):
            assert run_command([*argv, "--out", {out!r} + "/" + argv[0]]) == 0, argv
            assert unwanted() == [], (argv, unwanted())
        """))
    assert sorted(os.listdir(tmp_path)) == sorted(["matrix-sim", "neuron-avg-sim", "reorder",
                                                   "pca", "gate-sim", "gate-corr"])


def test_out_sim_and_report_load_no_generators(workspace, tmp_path):
    up, ref, corpus = workspace["up"], workspace["ref"], workspace["corpus"]
    out = str(tmp_path)
    run_isolated(textwrap.dedent(f"""
        import sys
        from moe_lens.cli import run_command
        for argv in (["out-sim", "--model", {up!r}, "--ref", {ref!r}, "--token", "3"],
                     ["report", "--model", {up!r}, "--ref", {ref!r}]):
            assert run_command([*argv, "--corpus", {corpus!r},
                                "--out", {out!r} + "/" + argv[0]]) == 0, argv
            loaded = {MOE_LENS_MODULES}
            assert "moe_lens.synth" not in loaded, (argv, loaded)
        """))
    assert (tmp_path / "out-sim" / "out-sim-layer1-token3.csv").exists()


def test_synth_loads_no_trace_analyses(tmp_path):
    out = str(tmp_path)
    run_isolated(textwrap.dedent(f"""
        import sys
        from moe_lens.cli import run_command
        assert run_command({TINY_SYNTH!r} + ["--seed", "1", "--out", {out!r}]) == 0
        loaded = {MOE_LENS_MODULES}
        assert "moe_lens.dynamic_analysis" not in loaded, loaded
        assert "moe_lens.moe_core" not in loaded, loaded
        """))
    assert (tmp_path / "model.moel").exists()

def test_cli_import_loads_no_scipy():
    run_isolated(f"import sys, moe_lens.cli\nassert {SCIPY_MODULES} == [], {SCIPY_MODULES}")


def test_silu_synth_and_out_sim_load_no_scipy(tmp_path):
    out = str(tmp_path)
    run_isolated(textwrap.dedent(f"""
        import sys
        from moe_lens.cli import run_command
        out = {out!r}
        assert run_command(["synth", "--mode", "upcycled", "--seed", "3", "--noise", "0.3",
                            "--d-hid", "8", "--d-mid", "12", "--vocab", "13",
                            "--out", out]) == 0
        with open(out + "/corpus.txt", "w") as fh:
            fh.write("1 2 3\\n4 5\\n")
        assert run_command(["out-sim", "--model", out + "/model.moel",
                            "--ref", out + "/reference.moel", "--corpus", out + "/corpus.txt",
                            "--token", "3", "--out", out + "/sim"]) == 0
        assert {SCIPY_MODULES} == [], {SCIPY_MODULES}
        """))
    assert (tmp_path / "sim" / "out-sim-layer1-token3.csv").exists()


def test_pca_with_dbscan_loads_no_scipy(tmp_path):
    out = str(tmp_path)
    run_isolated(textwrap.dedent(f"""
        import sys
        from moe_lens.cli import run_command
        out = {out!r}
        assert run_command(["synth", "--mode", "upcycled", "--seed", "3", "--noise", "0.3",
                            "--d-hid", "8", "--d-mid", "12", "--vocab", "13",
                            "--out", out]) == 0
        assert run_command(["pca", "--model", out + "/model.moel", "--which", "up",
                            "--level", "neuron", "--eps", "0.5", "--min-pts", "2",
                            "--out", out + "/pca"]) == 0
        assert {SCIPY_MODULES} == [], {SCIPY_MODULES}
        """))
    assert (tmp_path / "pca" / "pca-layer0-up-neuron.csv").exists()
