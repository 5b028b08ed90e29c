"""The trace reductions and the corpus commands' tables against the
per-token oracles of ``trace_oracle``, on fixed shapes over a corpus that
repeats ids.  ``test_report_properties.py`` runs the same check on random
models."""

import numpy as np
import pytest
import trace_oracle
from conftest import write_corpus
from per_token_oracle import assert_trace_matches, trace_per_token

from moe_lens import dynamic_analysis as dyn
from moe_lens.cli import run_command
from moe_lens.moe_core import trace_all_experts
from moe_lens.tensor_store import read_checkpoint

SEQUENCES = [[0, 1, 2, 1, 0], [3, 3, 4], [5, 1, 0, 8], [7, 7, 7, 2]]
TOKENS = [t for seq in SEQUENCES for t in seq]

# ``synth`` arguments: a shared expert with a reference; gelu without prenorm,
# softmax-then-top-k and a dense layer; permuted clones, whose outputs are
# equal up to rounding; and identical experts, whose ties are exact.
SHAPES = {
    "upcycled-shared": ["--mode", "upcycled", "--seed", "3", "--noise", "0.3", "--layers", "2",
                        "--experts", "4", "--shared", "1", "--top-k", "2"],
    "gelu-dense": ["--mode", "scratch", "--seed", "5", "--layers", "3", "--experts", "3,1,5",
                   "--shared", "1,0,2", "--top-k", "2", "--activation", "gelu",
                   "--gating-order", "softmax_then_topk", "--no-prenorm"],
    "permuted-clone": ["--mode", "permuted-clone", "--seed", "7", "--layers", "2",
                       "--experts", "4", "--top-k", "1"],
    "identical-experts": ["--mode", "upcycled", "--seed", "9", "--layers", "2", "--experts", "4",
                          "--top-k", "2"],
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request, tmp_path_factory):
    """A synthesized model's directory, its checkpoint and reference (or
    None), and the corpus path."""
    root = tmp_path_factory.mktemp(request.param)
    assert run_command(["synth", *SHAPES[request.param], "--d-hid", "6", "--d-mid", "10",
                        "--vocab", "9", "--out", str(root / "model")]) == 0
    write_corpus(root / "corpus.txt", SEQUENCES)
    ref = root / "model" / "reference.moel"
    return (root, read_checkpoint(root / "model" / "model.moel"),
            read_checkpoint(ref) if ref.exists() else None)


@pytest.mark.parametrize("k_all", [False, True], ids=["top-k", "k-override-all"])
def test_corpus_tables_match_the_oracles(shape, k_all, tmp_path):
    root, model, reference = shape
    trace = trace_all_experts(model, TOKENS, reference, k_all)
    assert_trace_matches(trace, trace_per_token(model, TOKENS, reference, k_all))
    inputs = ["--model", str(root / "model" / "model.moel"), "--corpus", str(root / "corpus.txt"),
              *(["--k-override", "all"] if k_all else [])]
    ref = [] if reference is None else ["--ref", str(root / "model" / "reference.moel")]
    trace_oracle.assert_tables_match(model, trace, inputs, ref, tmp_path)


def test_reductions_match_the_oracles(shape):
    """The analysis functions themselves: counts and routing rows exactly,
    similarities within the oracles' tolerances."""
    _, model, reference = shape
    trace = trace_all_experts(model, TOKENS, reference)

    report = dyn.activation_ratio(trace)
    counts = trace_oracle.activation_counts(trace)
    assert report.per_expert == {key: h / n for key, (h, n) in counts.items()}
    assert report.overall == (sum(h for h, _ in counts.values())
                              / sum(n for _, n in counts.values()))

    assert list(zip(*(c.tolist() for c in dyn.routing_pattern(trace)))) \
        == trace_oracle.route_log_rows(trace)

    gated = model.config.moe_layers()
    for layer in gated:
        rc = dyn.rank_count_matrix(trace, [layer])
        counts, events = trace_oracle.norm_rank_counts(trace, [layer])
        assert rc.counts.tolist() == counts and rc.total_events == events

        sim = dyn.avg_output_sim(trace, layer)
        labels, cells = trace_oracle.avg_out_sim(trace, layer)
        assert sim.labels == labels
        np.testing.assert_allclose(sim.values, cells, rtol=0, atol=trace_oracle.ANGULAR_ATOL)
        for token in range(len(TOKENS)):
            sim = dyn.output_sim_per_token(trace, layer, token)
            labels, cells, selected = trace_oracle.out_sim(trace, layer, token)
            assert (sim.labels, sim.selected_labels) == (labels, selected)
            np.testing.assert_allclose(sim.values, cells, rtol=0, atol=trace_oracle.COSINE_ATOL)
