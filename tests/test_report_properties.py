"""Whole-pipeline properties on random small models: ``report`` either
writes a finite bundle whose every step a standalone rerun reproduces, or
refuses with ``error:`` lines and writes nothing; the corpus commands'
tables match the per-token oracles; and hostile argv ends in a clean exit."""

import contextlib
import io
import math
import os
import shlex
import tempfile
import warnings
from pathlib import Path

import trace_oracle
from conftest import write_corpus
from hypothesis import event, given, settings
from hypothesis import strategies as st
from per_token_oracle import assert_trace_matches, trace_per_token
import pytest

from moe_lens.cli import ANALYSES, run_command
from moe_lens.config import ACTIVATIONS, GATING_ORDERS
from moe_lens.moe_core import trace_all_experts
from moe_lens.tensor_store import read_checkpoint


# The layer counts a model may have: 1-4 three times each, and 0 once, since
# a zero-layer model only reaches report's up-front refusal.
LAYER_STRATA = (1, 2, 3, 4) * 3 + (0,)


@st.composite
def small_models(draw):
    """``synth`` arguments of a small model, with dense layers among the
    gated ones, its experts per layer, and a corpus of 1-6 of its token ids.

    Hypothesis runs each fresh example with a few mutants that copy one drawn
    value over another, so a layer count drawn directly repeats in runs and
    leaves some counts undrawn.  The count is instead the stratum that a hash
    of every other draw picks: those draws are made for four layers and cut
    to the count, so a mutant of any of them may change it."""
    seed = draw(st.integers(0, 2**16))
    experts = draw(st.lists(st.sampled_from(range(1, 6)), min_size=4, max_size=4))
    shared = [0 if n == 1 else draw(st.integers(0, 2)) for n in experts]
    vocab = draw(st.integers(1, 7))
    d_hid, d_mid = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    tokens = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
    layers = LAYER_STRATA[hash((seed, *experts, *shared, vocab, d_hid, d_mid, *tokens))
                          % len(LAYER_STRATA)]
    experts, shared = experts[:layers], shared[:layers]
    gated = [n for n in experts if n > 1]
    mode = draw(st.sampled_from(["scratch", "upcycled", "permuted-clone"]))
    argv = ["synth", "--mode", mode, "--seed", str(seed),
            "--layers", str(layers),
            "--experts", ",".join(map(str, experts)) or "1",
            "--shared", ",".join(map(str, shared)) or "0",
            "--top-k", str(draw(st.integers(1, min(gated, default=1)))),
            "--d-hid", str(d_hid), "--d-mid", str(d_mid),
            "--vocab", str(vocab),
            "--activation", draw(st.sampled_from(ACTIVATIONS)),
            "--gating-order", draw(st.sampled_from(GATING_ORDERS))]
    if draw(st.booleans()):
        argv.append("--no-prenorm")
    if mode == "upcycled":
        argv += ["--noise", draw(st.sampled_from(["0", "0.3"]))]
    return argv, experts, tokens


def run_quietly(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def assert_cells_finite(name: str, text: str) -> None:
    """Every cell of a table is a label, empty, or a finite number."""
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), (name, line)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(small_models(), st.randoms(use_true_random=False))
def test_report_on_random_models_is_finite_and_steps_rerun_alone(model, random):
    synth_argv, experts, tokens = model
    layers = len(experts)
    event(f"layers: {layers}")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, _, err = run_quietly([*synth_argv, "--out", str(root / "model")])
        assert code == 0, err
        write_corpus(root / "corpus.txt", [tokens])
        ref = root / "model" / "reference.moel"
        out = root / "bundle"
        code, stdout, err = run_quietly(
            ["report", "--model", str(root / "model" / "model.moel"),
             *(["--ref", str(ref)] if ref.exists() else []),
             "--corpus", str(root / "corpus.txt"), "--out", str(out)])
        if code == 1:
            assert stdout == "" and err and all(line.startswith("error: ")
                                                for line in err.splitlines()), err
            assert not out.exists()
            assert layers == 0, err
            return
        assert code == 0 and err == "", err
        # A dense model gets the two per-layer corpus steps; regression needs
        # a layer of three experts.
        steps = {"trace", "act-ratio"}
        if max(experts) > 1:
            steps |= {"matrix-sim", "neuron-avg-sim", "reorder", "gate-sim", "pca", "out-sim",
                      "avg-out-sim", "norm-rank", "route-log"}
        if max(experts) > 2:
            steps.add("gate-corr")
        assert sorted(os.listdir(out)) == sorted(steps), experts
        bundle = snapshot(out)
        for name, blob in bundle.items():
            if name.endswith(".csv"):
                assert_cells_finite(name, blob.decode("utf-8"))
        # One step, rerun alone with the argv its tables record, writes the
        # report's bytes.
        step = random.choice(sorted(os.listdir(out)))
        commands = {line.removeprefix("# command: ")
                    for name, blob in bundle.items()
                    if name.startswith(step + os.sep) and name.endswith(".csv")
                    for line in blob.decode("utf-8").splitlines()
                    if line.startswith("# command: ")}
        before = {name: blob for name, blob in bundle.items() if name.startswith(step + os.sep)}
        for path in (out / step).iterdir():
            path.unlink()
        for command in sorted(commands):
            argv = shlex.split(command)
            assert argv[0] == "moe-lens"
            code, _, err = run_quietly(argv[1:])
            assert code == 0, (command, err)
        assert {name: blob for name, blob in snapshot(out).items()
                if name.startswith(step + os.sep)} == before, step


@settings(max_examples=50, derandomize=True, deadline=None)
@given(small_models(), st.booleans())
def test_corpus_tables_on_random_models_match_the_per_token_oracles(model, k_all):
    """The corpus trace of each random model against ``per_token_oracle``,
    and its corpus commands' tables against ``trace_oracle``, over the drawn
    corpus followed by its reverse, so that every id repeats."""
    synth_argv, experts, tokens = model
    if not experts:
        return
    tokens = tokens + tokens[::-1]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, _, err = run_quietly([*synth_argv, "--out", str(root / "model")])
        assert code == 0, err
        write_corpus(root / "corpus.txt", [tokens])
        model_path, ref_path = root / "model" / "model.moel", root / "model" / "reference.moel"
        checkpoint = read_checkpoint(model_path)
        reference = read_checkpoint(ref_path) if ref_path.exists() else None
        trace = trace_all_experts(checkpoint, tokens, reference, k_all)
        assert_trace_matches(trace, trace_per_token(checkpoint, tokens, reference, k_all))
        inputs = ["--model", str(model_path), "--corpus", str(root / "corpus.txt"),
                  *(["--k-override", "all"] if k_all else [])]
        trace_oracle.assert_tables_match(checkpoint, trace, inputs,
                                         ["--ref", str(ref_path)] if reference else [], root)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Two small models with their references, a corpus, a directory and a
    path that does not exist, by the names ``hostile_argv`` uses."""
    root = tmp_path_factory.mktemp("fuzz")
    base = ["synth", "--mode", "upcycled", "--noise", "0.3", "--d-hid", "8", "--d-mid", "6",
            "--vocab", "13"]
    # a gelu model with shared experts and a dense layer, and a two-layer
    # softmax-then-top-k model without prenorm
    for name, shape in {"a": ["--seed", "11", "--layers", "3", "--experts", "4,1,3",
                              "--shared", "1,0,1", "--top-k", "2", "--activation", "gelu"],
                        "b": ["--seed", "12", "--layers", "2", "--experts", "3,2", "--top-k", "1",
                              "--gating-order", "softmax_then_topk", "--no-prenorm"]}.items():
        code, _, err = run_quietly([*base, *shape, "--out", str(root / name)])
        assert code == 0, err
    write_corpus(root / "corpus.txt", [[0, 5, 12, 3], [7, 7, 1]])
    return {"a": str(root / "a" / "model.moel"), "a-ref": str(root / "a" / "reference.moel"),
            "b": str(root / "b" / "model.moel"), "b-ref": str(root / "b" / "reference.moel"),
            "corpus": str(root / "corpus.txt"), "dir": str(root), "missing": str(root / "none")}


# Values for any flag: non-finite and subnormal floats, what ``int`` takes
# beyond ASCII digits, the empty string, a 22-digit int, and small ints in and
# out of range.  For an input path: "" and a missing file, a directory, the
# corpus given as a checkpoint, and a checkpoint given as the corpus or a
# gated model as a reference.  Each flag adds its valid values four times
# over; the references are each valid for one model and of the other's depth.
HOSTILE = ["nan", "inf", "-inf", "1e-320", "1_0", "٣", "", "1" * 22, "-1", "0", "1", "3", "9"]
HOSTILE_PATHS = ["", "{missing}", "{dir}", "{corpus}", "{a}"]
VALID = {"--model": ["{a}", "{b}", "{b-ref}"], "--ref": ["{a-ref}", "{b-ref}"],
         "--corpus": ["{corpus}"], "--layer": ["all", "0", "1", "2"],
         "--which": ["up", "act", "down"], "--level": ["matrix", "neuron"],
         "--dims": ["1", "2", "3"], "--eps": ["0.1", "0.5"], "--min-pts": ["1", "2"],
         "--token": ["0", "6"], "--threshold": ["0.001", "0.5"], "--k-override": ["all"],
         "--cell": ["1", "2"]}


@st.composite
def hostile_argv(draw):
    """argv of one analysis or ``report``, without ``--out``: its required
    flags always, each optional one half of the time, each with a drawn value."""
    command = draw(st.sampled_from([*ANALYSES, "report"]))
    if command == "report":
        required, optional = ["--model", "--corpus"], ["--ref"]
    else:
        entry = ANALYSES[command]
        required = ["--model", *["--corpus"] * entry.corpus, *["--which"] * entry.which]
        optional = [*["--ref"] * entry.ref, *["--k-override"] * entry.corpus,
                    *["--layer"] * entry.layer, *[flag for flag, _ in entry.options], "--cell"]
    argv = [command]
    for flag in required + [flag for flag in optional if draw(st.booleans())]:
        if flag not in VALID:  # a switch
            argv.append(flag)
        else:
            hostile = HOSTILE_PATHS if flag in ("--model", "--ref", "--corpus") else HOSTILE
            argv += [flag, draw(st.sampled_from(VALID[flag] * 4 + hostile))]
    return argv


@settings(max_examples=500, derandomize=True, deadline=None)
@given(hostile_argv())
def test_hostile_argv_exits_cleanly(fuzz_inputs, argv):
    """Any drawn invocation exits 0, 1 or 2 with no exception or warning
    escaping ``run_command``; an exit 1 prints only ``error:`` lines and
    leaves no ``--out``; and no table written holds ``nan`` or ``inf``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        argv = [arg.format_map(fuzz_inputs) for arg in argv] + ["--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_quietly(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2), (argv, err)
        if code == 1:
            assert stdout == "" and err and all(line.startswith("error: ")
                                                for line in err.splitlines()), (argv, err)
            assert not out.exists(), argv
        for path in out.rglob("*.csv"):
            assert_cells_finite(str(path), path.read_text(encoding="utf-8"))
