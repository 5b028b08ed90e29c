"""Per-token oracles for the reductions over a corpus trace, and a check of
the corpus commands' tables against them.

Each oracle loops over the tokens of a ``CorpusTrace`` in plain Python and
reads one token's rows at a time, so a repeated id counts once per
occurrence, and a mean is accumulated in token order.  The package reduces
whole arrays at once; ``assert_tables_match`` compares the tables that
``act-ratio``, ``norm-rank``, ``route-log``, ``trace``, ``avg-out-sim`` and
``out-sim`` write with these oracles.  ``per_token_oracle`` checks the trace
itself.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np
from per_token_oracle import expert_vec, load_layer_weights, rmsnorm

from moe_lens.cli import ANALYSES, run_command

# arccos has an unbounded slope at +-1, so two cosines of nearly parallel
# outputs that differ by rounding (1e-16) give angles up to ~1e-8 apart.
ANGULAR_ATOL = 1e-7
COSINE_ATOL = 1e-12


def _tokens(trace):
    return enumerate(trace.token_ids.tolist())


def _gated(trace) -> list[int]:
    return [layer for layer, lt in enumerate(trace.layers) if lt.gate_scores.shape[1] > 1]


def activation_counts(trace, threshold: float = 0.001) -> dict[tuple[int, int], list[int]]:
    """``{(layer, expert): [entries above threshold, entries]}`` over every
    token's intermediate state, in layer and expert order."""
    counts = {(layer, e): [0, 0] for layer, lt in enumerate(trace.layers)
              for e in range(lt.intermediates.shape[1])}
    for t, _ in _tokens(trace):
        for layer, lt in enumerate(trace.layers):
            for e, inter in enumerate(lt.intermediates[t].tolist()):
                counts[(layer, e)][0] += sum(abs(x) > threshold for x in inter)
                counts[(layer, e)][1] += len(inter)
    return counts


def _ranks(values) -> list[int]:
    """0-based ascending rank of each entry, ties to the lower index."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0] * len(values)
    for rank, i in enumerate(order):
        ranks[i] = rank
    return ranks


def norm_rank_counts(trace, layers: list[int]) -> tuple[list[list[int]], int]:
    """Counts of (output-norm rank, full-score rank) over every token and
    layer of ``layers``, and the number of (token, layer) events.  A norm is
    the square root of numpy's sum of squares of the row, as the package
    takes it, so outputs equal up to rounding (permuted clones) rank alike."""
    n = trace.layers[layers[0]].expert_outputs.shape[1]
    counts = [[0] * n for _ in range(n)]
    events = 0
    for t, _ in _tokens(trace):
        for layer in layers:
            lt = trace.layers[layer]
            norms = [float(np.sqrt(np.sum(y * y))) for y in lt.expert_outputs[t]]
            scores = lt.full_scores[t].tolist()
            for e_norm, e_score in zip(_ranks(norms), _ranks(scores)):
                counts[e_norm][e_score] += 1
            events += 1
    return counts, events


def route_log_rows(trace) -> list[tuple]:
    """``(token_index, token_id, layer, slot, expert, score)`` for each token,
    gated layer and slot, in that order."""
    return [(t, token_id, layer, slot, expert, float(trace.layers[layer].gate_scores[t, expert]))
            for t, token_id in _tokens(trace) for layer in _gated(trace)
            for slot, expert in enumerate(trace.layers[layer].selected[t].tolist())]


def _entities(lt, t: int) -> tuple[list[list[float]], list[str]]:
    """Token ``t``'s routed, shared and reference outputs, and their labels."""
    vectors = lt.expert_outputs[t].tolist() + lt.shared_outputs[t].tolist()
    labels = [str(n) for n in range(lt.expert_outputs.shape[1])]
    labels += [f"S{m}" for m in range(lt.shared_outputs.shape[1])]
    if lt.reference_output is not None:
        vectors.append(lt.reference_output[t].tolist())
        labels.append("F")
    return vectors, labels


def _cosine(u, v) -> float:
    """Plain-sum cosine, clipped to [-1, 1]; NaN when either vector is zero."""
    nu, nv = math.sqrt(sum(a * a for a in u)), math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return math.nan
    return min(1.0, max(-1.0, sum(a * b for a, b in zip(u, v)) / (nu * nv)))


def out_sim(trace, layer: int, token: int) -> tuple[list[str], list[list[float]], list[str]]:
    """One token's cosine matrix over its outputs: labels, cells, and the
    labels of its selected experts."""
    vectors, labels = _entities(trace.layers[layer], token)
    cells = [[_cosine(u, v) for v in vectors] for u in vectors]
    return labels, cells, [str(e) for e in trace.layers[layer].selected[token].tolist()]


def avg_out_sim(trace, layer: int) -> tuple[list[str], list[list[float]]]:
    """Each cell's mean angular similarity over the tokens where it is
    defined, summed in token order; NaN where it is defined for none."""
    labels = _entities(trace.layers[layer], 0)[1]
    sums = [[0.0] * len(labels) for _ in labels]
    counts = [[0] * len(labels) for _ in labels]
    for t, _ in _tokens(trace):
        vectors, _ = _entities(trace.layers[layer], t)
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                cosine = _cosine(u, v)
                if not math.isnan(cosine):
                    sums[i][j] += 1.0 - math.acos(cosine) / math.pi
                    counts[i][j] += 1
    return labels, [[s / c if c else math.nan for s, c in zip(srow, crow)]
                    for srow, crow in zip(sums, counts)]


def trace_rows(model, trace) -> list[tuple]:
    """``(token_index, token_id, layer, rel_err)``: each block's output rebuilt
    one token at a time from the selected experts, the shared experts and the
    residual, against the trace's output, relative to its norm (1 if zero)."""
    config = model.config
    weights = [load_layer_weights(model, i) for i in range(config.num_layers)]
    rows = []
    for t, token_id in _tokens(trace):
        for layer, (lt, w) in enumerate(zip(trace.layers, weights)):
            z_in, z_out = trace.z[layer, t], trace.z[layer + 1, t]
            h = rmsnorm(z_in) if config.use_prenorm else z_in
            y = np.zeros_like(z_in)
            for n in lt.selected[t].tolist():
                y = y + lt.gate_scores[t, n] * expert_vec(w.experts[n], h, config.activation)[0]
            for expert in w.shared:
                y = y + expert_vec(expert, h, config.activation)[0]
            scale = float(np.linalg.norm(z_out)) or 1.0
            rows.append((t, token_id, layer, float(np.linalg.norm(z_in + y - z_out)) / scale))
    return rows


# --- the commands' tables ------------------------------------------------------

def _table(path: Path) -> tuple[list[list[str]], dict[str, str]]:
    """A CSV's data rows as cells, header dropped, and its ``# key: value`` comments."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = dict(line[2:].split(": ", 1) for line in lines
                    if line.startswith("# ") and ": " in line)
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return rows[1:], comments


def _assert_row(got: list[str], want, atol: float = 0.0) -> None:
    """Cells printed with six decimals against exact values: an int or a
    string as its text, NaN as empty, a float within the printing's 5e-7."""
    assert len(got) == len(want), (got, want)
    for text, value in zip(got, want):
        if isinstance(value, (int, str)):
            assert text == str(value), (got, want)
        elif math.isnan(value):
            assert text == "", (got, want)
        else:
            assert abs(float(text) - value) <= 5e-7 + atol, (got, want)


def _assert_matrix(path: Path, labels: list[str], cells, atol: float) -> dict[str, str]:
    rows, comments = _table(path)
    assert [row[0] for row in rows] == labels
    for row, label, want in zip(rows, labels, cells):
        _assert_row(row, [label, *want], atol)
    return comments


def assert_tables_match(model, trace, inputs: list[str], ref: list[str], out: Path) -> None:
    """Run each corpus command on ``inputs`` (``--model``, ``--corpus`` and
    optionally ``--k-override all``), with ``ref`` (``--ref`` and its path, or
    nothing) where it takes one, into ``out``, and compare its table with the
    oracles over ``trace``, the same corpus traced with one row per token."""
    def run(name: str, *extra: str) -> None:
        argv = [name, *inputs, *(ref if ANALYSES[name].ref else []), *extra,
                "--out", str(out / name)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert run_command(argv) == 0, (argv, err.getvalue())

    gated = _gated(trace)
    for name in ["act-ratio", "trace", *(["norm-rank", "route-log", "avg-out-sim"] if gated
                                         else [])]:
        run(name)

    counts = activation_counts(trace)
    rows, _ = _table(out / "act-ratio" / "act-ratio.csv")
    hits, total = (sum(c[i] for c in counts.values()) for i in (0, 1))
    _assert_row(rows[-1], ["overall", math.nan, hits / total])
    for row, ((layer, e), (h, n)) in zip(rows[:-1], counts.items(), strict=True):
        _assert_row(row, [layer, e, h / n])

    rows, comments = _table(out / "trace" / "trace-consistency.csv")
    want = trace_rows(model, trace)
    assert len(rows) == len(want)
    for row, (t, token_id, layer, err) in zip(rows, want):
        _assert_row(row, [t, token_id, layer, err], atol=1e-9)
    assert abs(float(comments["max_rel_err"]) - max(row[-1] for row in want)) <= 1e-9

    if not gated:
        return
    rows, _ = _table(out / "route-log" / "route-log.csv")
    want = route_log_rows(trace)
    assert len(rows) == len(want)
    for row, cells in zip(rows, want):
        _assert_row(row, list(cells))

    groups: dict[int, list[int]] = {}
    for layer in gated:
        groups.setdefault(trace.layers[layer].expert_outputs.shape[1], []).append(layer)
    for n, layers in groups.items():
        counts, events = norm_rank_counts(trace, layers)
        comments = _assert_matrix(out / "norm-rank" / f"norm-rank-n{n}.csv",
                                  [str(r + 1) for r in range(n)], counts, 0.0)
        assert int(comments["events"]) == events

    for layer in gated:
        labels, cells = avg_out_sim(trace, layer)
        _assert_matrix(out / "avg-out-sim" / f"avg-out-sim-layer{layer}.csv", labels, cells,
                       ANGULAR_ATOL)
    for token in sorted({0, trace.token_ids.size - 1}):
        run("out-sim", "--token", str(token))
        for layer in gated:
            labels, cells, selected = out_sim(trace, layer, token)
            comments = _assert_matrix(out / "out-sim" / f"out-sim-layer{layer}-token{token}.csv",
                                      labels, cells, COSINE_ATOL)
            assert comments["selected"] == " ".join(selected)
