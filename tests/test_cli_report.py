"""CSV/PPM emission primitives and end-to-end command-line runs."""

import argparse
import ast
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from conftest import SCIPY_MODULES, run_isolated, write_corpus

from moe_lens.cli import build_parser, run_command
from moe_lens.report import (Provenance, colormap, emit_csv, emit_heatmap,
                             file_digest, format_cell, metric_range)

DARK = bytes((8, 8, 32))
LIGHT = bytes((255, 244, 160))


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
    prov = Provenance(command=["moe-lens", "synth", "--seed", "5"],
                      inputs={"model": "ab" * 32, "corpus": "cd" * 32}, seed=5)
    lines = prov.lines()
    assert lines[0] == "moe-lens 0.1.0"
    assert lines[1] == "command: moe-lens synth --seed 5"
    assert lines[2].startswith("corpus: sha256:")  # sorted input names
    assert lines[3].startswith("model: sha256:")
    assert lines[-1] == "seed: 5"


def test_provenance_seedless_dash():
    assert Provenance(command=["moe-lens"]).lines()[-1] == "seed: -"


def test_provenance_quotes_awkward_arguments():
    prov = Provenance(command=["moe-lens", "synth", "--out", "a dir"])
    assert "'a dir'" in prov.lines()[1]


# --- CSV emission -------------------------------------------------------------

def test_emit_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    prov = Provenance(command=["moe-lens", "x"], seed=1)
    emit_csv(path, prov, ["a", "b"], [[1, 0.5], ["z", None]],
             extra_comments=["note: hi"])
    lines = read_lines(path)
    assert lines[0] == "# moe-lens 0.1.0"
    assert lines[1] == "# command: moe-lens x"
    assert lines[2] == "# seed: 1"
    assert lines[3] == "# note: hi"
    assert lines[4] == "a,b"
    assert lines[5] == "1,0.500000"
    assert lines[6] == "z,"
    with open(path, "rb") as fh:
        assert fh.read().endswith(b"\n")


def test_emit_csv_atomic(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(path, Provenance(command=["c"]), ["a"], [[1]])
    assert list(tmp_path.iterdir()) == [path]


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
    emit_heatmap(path, Provenance(command=["c"]), np.array([[0.0, 1.0]]),
                 (0.0, 1.0), cell=2)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob.startswith(b"P6\n4 2\n255\n")
    body = blob[len(b"P6\n4 2\n255\n"):]
    row = DARK * 2 + LIGHT * 2
    assert body == row * 2
    side = read_lines(f"{path}.range.txt")
    assert "range: 0.000000 1.000000" in side
    assert "cell: 2" in side
    assert "shape: 1 2" in side


def test_emit_heatmap_identity_extremes(tmp_path):
    path = tmp_path / "i.ppm"
    emit_heatmap(path, Provenance(command=["c"]), np.eye(2), (0.0, 1.0), cell=16)
    with open(path, "rb") as fh:
        blob = fh.read()
    body = blob[len(b"P6\n32 32\n255\n"):]
    assert body[:3] == LIGHT            # top-left block is the diagonal
    assert body[16 * 3:16 * 3 + 3] == DARK  # off-diagonal block starts at pixel 16


def test_emit_heatmap_nan_is_black(tmp_path):
    path = tmp_path / "n.ppm"
    emit_heatmap(path, Provenance(command=["c"]),
                 np.array([[float("nan")]]), (0.0, 1.0), cell=1)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob == b"P6\n1 1\n255\n" + bytes((0, 0, 0))


def test_emit_heatmap_rerun_byte_identical(tmp_path, rng):
    path = tmp_path / "r.ppm"
    vals = rng.normal(size=(3, 4))
    emit_heatmap(path, Provenance(command=["c"]), vals, (-1.0, 1.0))
    with open(path, "rb") as fh:
        first = fh.read()
    emit_heatmap(path, Provenance(command=["c"]), vals, (-1.0, 1.0))
    with open(path, "rb") as fh:
        assert fh.read() == first


def test_emit_heatmap_rejects_bad_input(tmp_path):
    prov = Provenance(command=["c"])
    with pytest.raises(ValueError, match="non-empty 2-d"):
        emit_heatmap(tmp_path / "x.ppm", prov, np.zeros((0, 2)), (0, 1))
    with pytest.raises(ValueError, match="non-empty 2-d"):
        emit_heatmap(tmp_path / "x.ppm", prov, np.zeros(4), (0, 1))
    with pytest.raises(ValueError, match="cell size"):
        emit_heatmap(tmp_path / "x.ppm", prov, np.eye(2), (0, 1), cell=0)


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


def test_synth_upcycled_writes_reference(tmp_path):
    assert run_command(["synth", "--mode", "upcycled", "--seed", "3",
                        "--noise", "0.5", "--out", str(tmp_path),
                        "--layers", "1", "--experts", "4", "--d-hid", "8",
                        "--d-mid", "8", "--vocab", "7"]) == 0
    assert (tmp_path / "model.moel").exists()
    assert (tmp_path / "reference.moel").exists()


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


def test_every_reference_reader_rejects_a_partly_gated_reference(workspace, tmp_path, capsys):
    # Layer 1 of this reference is dense, layer 0 is not.
    assert run_command(["synth", "--mode", "scratch", "--seed", "7", "--layers", "2",
                        "--experts", "4,1", "--d-hid", "8", "--d-mid", "12", "--vocab", "13",
                        "--out", str(tmp_path / "partial")]) == 0
    capsys.readouterr()
    ref = ["--ref", str(tmp_path / "partial" / "model.moel")]
    for argv in (["matrix-sim", "--layer", "1", "--which", "up"],
                 ["neuron-avg-sim", "--layer", "1", "--which", "up"],
                 ["trace", "--corpus", workspace["corpus"]]):
        out = tmp_path / argv[0]
        assert run_command([*argv, "--model", workspace["up"], *ref, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: reference checkpoint must be dense in every layer\n", argv[0]
        assert snapshot(out) == {}


@pytest.mark.parametrize("cell", ["0", "-1"])
def test_cell_below_one_writes_nothing(workspace, tmp_path, capsys, cell):
    for argv in (["matrix-sim", "--which", "up"], ["norm-rank", "--corpus", workspace["corpus"]]):
        out = tmp_path / argv[0]
        code = run_command([*argv, "--model", workspace["model"], "--cell", cell,
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: cell size must be positive\n"
        assert snapshot(out) == {}


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


def test_report_steps_match_standalone_commands(workspace, tmp_path):
    out = tmp_path / "bundle"
    assert run_command(report_argv(workspace, out)) == 0
    bundle = snapshot(out)
    model = ["--model", workspace["up"]]
    ref = ["--ref", workspace["ref"]]
    corpus = ["--corpus", workspace["corpus"]]
    which = [["--which", w] for w in ("up", "act", "down")]
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
    assert sorted(steps) == sorted(os.listdir(out))
    for name, invocations in steps.items():
        shutil.rmtree(out / name)
        for argv in invocations:
            assert run_command([*argv, "--out", str(out / name)]) == 0
    assert snapshot(out) == bundle


def test_report_loads_and_traces_inputs_once(workspace, tmp_path, monkeypatch):
    import moe_lens.cli as cli
    calls = {"trace_all_experts": [], "read_checkpoint": [], "file_digest": []}

    def count(name, key):
        fn = getattr(cli, name)

        def counted(*args, **kwargs):
            calls[name].append(key(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)

    count("trace_all_experts", lambda ckpt, tokens, *rest: len(tokens))
    count("read_checkpoint", lambda path: path)
    count("file_digest", lambda path: path)
    assert run_command(report_argv(workspace, tmp_path / "bundle")) == 0
    # The whole corpus once, then out-sim's single token.
    assert calls["trace_all_experts"] == [10, 1]
    assert calls["read_checkpoint"] == [workspace["up"], workspace["ref"]]
    assert calls["file_digest"] == [workspace["up"], workspace["ref"], workspace["corpus"]]


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
    assert not out.exists() or snapshot(out) == {}


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
    meta = ckpt.tensors["layers.0.experts.1.w_up"]
    data = bytearray(ckpt.data)
    data[meta.start:meta.start + 4] = np.float32("nan").tobytes()
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


# --- imports -----------------------------------------------------------------

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
