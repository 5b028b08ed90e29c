"""Metamorphic tests of the trace reductions: the corpus twice over, and the
corpus in another order, against the corpus itself.

A token's trace depends only on its id and the model, so doubling the token
stream doubles every count, keeps every ratio of counts, and repeats every
per-token row; permuting it keeps every count.  The corpus repeats ids, so
a reduction that counted each distinct id once would fail these tests.
"""

import numpy as np
import pytest
from conftest import write_corpus

from moe_lens import dynamic_analysis as dyn
from moe_lens.cli import run_command
from moe_lens.moe_core import trace_all_experts
from moe_lens.tensor_store import read_checkpoint

SEQUENCES = [[0, 1, 2, 1, 0], [3, 3, 4], [5, 1, 0, 9], [7, 7, 7, 2]]
TOKENS = [t for seq in SEQUENCES for t in seq]
PERMUTED = [TOKENS[i] for i in np.random.default_rng(4).permutation(len(TOKENS))]
CORPORA = {"once": SEQUENCES, "twice": SEQUENCES + SEQUENCES, "permuted": [PERMUTED]}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """The directory of an upcycled model with a shared expert and its dense
    reference, and ``{corpus: report directory}`` of a report over each corpus."""
    root = tmp_path_factory.mktemp("metamorphic")
    assert run_command(["synth", "--mode", "upcycled", "--seed", "3", "--noise", "0.3",
                        "--layers", "2", "--experts", "4", "--shared", "1", "--top-k", "2",
                        "--d-hid", "8", "--d-mid", "12", "--vocab", "11",
                        "--out", str(root / "model")]) == 0
    out = {}
    for name, sequences in CORPORA.items():
        write_corpus(root / f"{name}.txt", sequences)
        assert run_command(["report", "--model", str(root / "model" / "model.moel"),
                            "--ref", str(root / "model" / "reference.moel"),
                            "--corpus", str(root / f"{name}.txt"),
                            "--out", str(root / name)]) == 0
        out[name] = root / name
    return root / "model", out


def data_rows(path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


def comment(path, key: str) -> str:
    prefix = f"# {key}: "
    return next(line[len(prefix):] for line in path.read_text(encoding="utf-8").splitlines()
                if line.startswith(prefix))


def norm_rank(bundle) -> tuple[np.ndarray, int]:
    """The rank-count matrix of ``norm-rank-n4.csv`` and its ``events``."""
    path = bundle / "norm-rank" / "norm-rank-n4.csv"
    counts = np.array([[int(cell) for cell in row.split(",")[1:]]
                       for row in data_rows(path)[1:]])
    return counts, int(comment(path, "events"))


def shifted(rows: list[str], by: int) -> list[str]:
    """Per-token rows with the leading ``token_index`` moved by ``by``."""
    out = []
    for row in rows:
        index, rest = row.split(",", 1)
        out.append(f"{int(index) + by},{rest}")
    return out


def test_doubling_the_corpus_keeps_the_activation_ratios(bundles):
    _, out = bundles
    path = "act-ratio/act-ratio.csv"
    assert data_rows(out["twice"] / path) == data_rows(out["once"] / path)


def test_doubling_the_corpus_doubles_the_norm_rank_counts(bundles):
    _, out = bundles
    counts, events = norm_rank(out["once"])
    assert counts.sum() == 4 * events > 0  # an event ranks each of the 4 experts once
    twice_counts, twice_events = norm_rank(out["twice"])
    np.testing.assert_array_equal(twice_counts, 2 * counts)
    assert twice_events == 2 * events


@pytest.mark.parametrize("path", ["route-log/route-log.csv", "trace/trace-consistency.csv"])
def test_doubling_the_corpus_repeats_the_per_token_rows(bundles, path):
    """Only the data rows: the ``# max_rel_err:`` comment prints rounding
    noise at full precision, which may move with the rows traced together."""
    _, out = bundles
    header, *rows = data_rows(out["once"] / path)
    assert {int(row.split(",", 1)[0]) for row in rows} == set(range(len(TOKENS)))
    assert data_rows(out["twice"] / path) == [header, *rows, *shifted(rows, len(TOKENS))]


def test_doubling_the_corpus_keeps_the_average_output_similarity(bundles):
    """The mean sums twice the terms, so it rounds otherwise: within 1e-12."""
    model_dir, _ = bundles
    model = read_checkpoint(model_dir / "model.moel")
    reference = read_checkpoint(model_dir / "reference.moel")
    once = trace_all_experts(model, TOKENS, reference)
    twice = trace_all_experts(model, TOKENS + TOKENS, reference)
    for layer in model.config.moe_layers():
        want = dyn.avg_output_sim(once, layer)
        got = dyn.avg_output_sim(twice, layer)
        assert got.labels == want.labels
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)


def test_permuting_the_corpus_keeps_the_counts(bundles):
    _, out = bundles
    path = "act-ratio/act-ratio.csv"
    assert data_rows(out["permuted"] / path) == data_rows(out["once"] / path)
    counts, events = norm_rank(out["once"])
    permuted_counts, permuted_events = norm_rank(out["permuted"])
    np.testing.assert_array_equal(permuted_counts, counts)
    assert permuted_events == events
