"""Command-line interface.

Every analysis subcommand reads a checkpoint (plus a corpus for the
trace-based ones) and writes provenance-stamped CSV tables and P6 heatmaps
under ``--out``.  Handlers compute and declare their artifacts (``synth``'s
are checkpoints) on the ``Context``, which renders them and traces the corpus;
``run_command`` writes them once the whole command (a whole ``report`` too)
has returned, so a command that fails writes nothing, and then prints.  The
same invocation over the same inputs reproduces every artifact byte for byte.

Each command loads only the ``moe_lens`` modules it runs.  ``config``,
``tensor_store``, ``static_analysis`` and ``report`` load with this module;
the forward engine (``moe_core``) and the trace analyses (``dynamic_analysis``)
load inside the code that reads or traces a corpus, and the generators
(``synth``) inside ``synth``.  So the weight commands never load them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import itertools
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import static_analysis as sta
from .config import ACTIVATIONS, GATING_ORDERS, ModelConfig
from .report import emit_csv, emit_matrix, format_cell, matrix_comments, metric_range, provenance
from .tensor_store import Checkpoint, atomic_write_bytes, read_checkpoint, serialize_checkpoint

if TYPE_CHECKING:
    from .moe_core import CorpusTrace


def _int_list(text: str, n: int, flag: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{flag} expects integers: {exc}") from exc
    if len(values) == 1:
        return tuple(values * n)
    if len(values) != n:
        raise ValueError(f"{flag} needs 1 or {n} comma-separated values")
    return tuple(values)


@dataclass
class Context:
    """A command's inputs, each read and hashed once (``synth`` reads none),
    its provenance ``header``, rendered once for all its artifacts, its corpus
    trace once traced, its artifacts as ``(path, bytes)`` pairs, and the
    ``lines`` printed before their ``wrote`` lines.

    A report's steps share its inputs, trace and ``writes`` through
    ``replace``; ``run_command`` writes them in declaration order."""

    args: argparse.Namespace
    model: Checkpoint | None
    reference: Checkpoint | None
    tokens: list[int] | None
    corpus_digest: str | None
    header: list[str] = field(default_factory=list)
    trace: CorpusTrace | None = None
    writes: list[tuple[str, bytes]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def corpus_trace(self) -> CorpusTrace:
        """The corpus, traced on first use and kept: the CLI's one trace call.
        A report's steps without ``--ref`` never read the reference outputs
        it carries."""
        if self.trace is None:
            from .moe_core import trace_all_experts
            self.trace = trace_all_experts(self.model, self.tokens, self.reference,
                                           getattr(self.args, "k_override", None) == "all")
        return self.trace

    def table(self, name: str, columns: list[str], rows, comments: list[str] | None = None):
        """Declare the CSV table ``name`` under ``--out``."""
        self.writes += emit_csv(os.path.join(self.args.out, name), self.header, columns,
                                rows, comments)

    def matrix(self, stem: str, labels: list[str], values: np.ndarray,
               value_range: tuple[float, float], comments: list[str]):
        """Declare the labelled matrix ``stem`` under ``--out``: its CSV and heatmap."""
        self.writes += emit_matrix(os.path.join(self.args.out, stem), self.header, labels,
                                   values, value_range, comments, self.args.cell)


def _load_context(args, argv: list[str], loaded: Context | None) -> Context:
    """Read the inputs the command's parser takes (``--model``, ``--ref`` and
    ``--corpus`` where it has them) once each, or take them from a report's
    ``loaded``, and render the command's header; a ``--cell`` below 1 is
    refused first."""
    if getattr(args, "cell", 1) < 1:
        raise ValueError("cell size must be positive")
    model_path = getattr(args, "model", None)
    ref_path = getattr(args, "ref", None)
    corpus_path = getattr(args, "corpus", None)
    if loaded is None:
        model = read_checkpoint(model_path) if model_path is not None else None
        reference = read_checkpoint(ref_path) if ref_path is not None else None
        tokens = corpus_digest = None
        if corpus_path is not None:
            from .moe_core import read_corpus
            tokens, corpus_digest = read_corpus(corpus_path, model.config.vocab)
            if not tokens:
                raise ValueError("corpus holds no tokens")
        loaded = Context(args=args, model=model, reference=reference, tokens=tokens,
                         corpus_digest=corpus_digest)
    reference = loaded.reference if ref_path is not None else None
    inputs = {name: ckpt.digest for name, ckpt in (("model", loaded.model),
                                                   ("reference", reference)) if ckpt is not None}
    if corpus_path is not None:
        inputs["corpus"] = loaded.corpus_digest
    return replace(loaded, args=args, reference=reference,
                   header=provenance(["moe-lens", *argv], inputs))


def _select_layers(arg: str, model: Checkpoint) -> list[int]:
    """``all`` is every gated layer; an index may name a dense one."""
    config = model.config
    if arg == "all":
        layers = config.moe_layers()
        if not layers:
            raise ValueError("model has no gated layers")
        return layers
    try:
        layer = int(arg)
    except ValueError as exc:
        raise ValueError(f"--layer expects an index or 'all': {arg!r}") from exc
    config.is_dense(layer)  # refuses a layer the model lacks
    return [layer]


# --- subcommands -----------------------------------------------------------

def _cmd_synth(ctx: Context) -> None:
    from .synth import SynthSpec, synth_permuted_clone_model, synth_scratch, synth_upcycled
    args = ctx.args
    config = ModelConfig(
        num_layers=args.layers,
        experts_per_layer=_int_list(args.experts, args.layers, "--experts"),
        num_shared=_int_list(args.shared, args.layers, "--shared"),
        top_k=args.top_k,
        d_hid=args.d_hid,
        d_mid=args.d_mid,
        vocab=args.vocab,
        activation=args.activation,
        gating_order=args.gating_order,
        use_prenorm=not args.no_prenorm,
    )
    mode = args.mode.replace("-", "_")
    spec = SynthSpec(config=config, mode=mode, seed=args.seed,
                     init_std=args.init_std, upcycle_noise_std=args.noise)
    if mode == "scratch":
        checkpoints = [synth_scratch(spec)]
    elif mode == "upcycled":
        checkpoints = synth_upcycled(spec)
    else:
        checkpoints = [synth_permuted_clone_model(spec)[0]]
    for ckpt, name in zip(checkpoints, ["model.moel", "reference.moel"]):
        ctx.writes.append((os.path.join(args.out, name), serialize_checkpoint(ckpt)))
        ctx.lines.append(f"digest {name} sha256:{ckpt.digest}")


def _declare_sims(ctx: Context, stem: str, analyse: Callable[[int], sta.SimilarityMatrix]):
    """Declare ``analyse(layer)`` for each selected layer; ``stem`` formats
    with the arguments and ``layer`` into the file stem."""
    for layer in _select_layers(ctx.args.layer, ctx.model):
        sim = analyse(layer)
        ctx.matrix(stem.format_map({**vars(ctx.args), "layer": layer}), sim.labels,
                   sim.values, metric_range(sim.metric), matrix_comments(sim))


def _cmd_matrix_sim(ctx: Context) -> None:
    _declare_sims(ctx, "matrix-sim-layer{layer}-{which}", lambda layer: sta.matrix_level_sim(
        *sta.layer_weights(ctx.model, layer, ctx.args.which, ctx.reference)))


def _cmd_neuron_avg_sim(ctx: Context) -> None:
    _declare_sims(ctx, "neuron-avg-sim-layer{layer}-{which}", lambda layer: sta.neuron_average_sim(
        *sta.layer_weights(ctx.model, layer, ctx.args.which, ctx.reference), ctx.args.which))


def _cmd_gate_sim(ctx: Context) -> None:
    _declare_sims(ctx, "gate-sim-layer{layer}",
                  lambda layer: sta.gate_embedding_sim(ctx.model, layer))


def _cmd_reorder(ctx: Context) -> None:
    which = ctx.args.which
    rows = []
    for layer in _select_layers(ctx.args.layer, ctx.model):
        stack, experts = sta.layer_weights(ctx.model, layer, which)
        reports = sta.pairwise_reorder_reports(sta.neuron_rows(stack, which))
        rows += [[layer, *pair, which, rep.sim_before, rep.sim_after, rep.tau]
                 for pair, rep in zip(itertools.combinations(experts, 2), reports)]
    taus = [row[-1] for row in rows if row[-1] is not None]
    undefined = dict.fromkeys(str(row[0]) for row in rows if row[-1] is None)
    comments = [f"mean_tau: {format_cell(np.mean(taus) if taus else None)}"]
    if undefined:
        comments.append(f"degenerate: fewer than two neurons in layers {' '.join(undefined)}")
    ctx.table(f"reorder-{which}.csv",
              ["layer", "expert_a", "expert_b", "which", "sim_before", "sim_after", "tau"],
              rows, comments)


def _cmd_gate_corr(ctx: Context) -> None:
    which = ctx.args.which
    config = ctx.model.config
    layers = [i for i in config.moe_layers() if config.experts_per_layer[i] >= 3]
    if not layers:
        raise ValueError("no gated layer has enough experts for regression")
    reports = [sta.gate_expert_regression(
        sta.gate_embedding_sim(ctx.model, layer),
        sta.neuron_average_sim(*sta.layer_weights(ctx.model, layer, which), which))
        for layer in layers]
    rows = [[layer, which, rep.n_pairs, rep.r, rep.r2] for layer, rep in zip(layers, reports)]
    rows.append(["avg", which, None, None, sta.aggregate_r2(reports)])
    flat = [str(layer) for layer, rep in zip(layers, reports) if rep.r is None]
    ctx.table(f"gate-corr-{which}.csv", ["layer", "which", "n_pairs", "r", "r2"], rows,
              [f"degenerate: zero variance in layers {' '.join(flat)}"] if flat else None)


def _cmd_pca(ctx: Context) -> None:
    args = ctx.args
    if args.min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    for layer in _select_layers(args.layer, ctx.model):
        stack, experts = sta.layer_weights(ctx.model, layer, args.which)
        if args.level == "matrix":
            vectors = stack.reshape(len(stack), -1)
            labels = experts
        else:
            neurons = sta.neuron_rows(stack, args.which)
            vectors = neurons.reshape(-1, neurons.shape[-1])
            labels = [f"{e}.{j}" for e in experts for j in range(neurons.shape[1])]
        proj = sta.pca_project(vectors, dims=args.dims, standardize=not args.no_standardize)
        noise = set() if args.eps is None else sta.dbscan_outliers(
            proj.coords, eps=args.eps, min_pts=args.min_pts)
        comments = [
            "explained_variance: " + " ".join(map(format_cell, proj.explained_variance)),
            "outliers: " + (" ".join(labels[i] for i in sorted(noise)) if noise else "-"),
            f"level: {args.level}",
        ]
        if not proj.explained_variance.any():
            comments.append("degenerate: no feature varies; every point is at the origin")
        rows = [[label, *coords] for i, (label, coords) in enumerate(zip(labels, proj.coords))
                if i not in noise]
        ctx.table(f"pca-layer{layer}-{args.which}-{args.level}.csv",
                  ["label", *[f"pc{d + 1}" for d in range(args.dims)]], rows, comments)


def _cmd_trace(ctx: Context) -> None:
    from .moe_core import native_output
    if not ctx.model.config.num_layers:
        raise ValueError("nothing to trace: the model has no layers")
    if ctx.reference is not None:  # --ref only stamps the table, but is refused as elsewhere
        ctx.model.config.check_reference(ctx.reference.config)
    trace = (ctx if ctx.trace is not None else replace(ctx, reference=None)).corpus_trace()
    errs = np.zeros((trace.token_ids.size, len(trace.layers)))
    for layer, lt in enumerate(trace.layers):
        z_out = trace.z[layer + 1]
        scale = np.linalg.norm(z_out, axis=1)
        rebuilt = native_output(ctx.model, layer, lt, trace.z[layer])
        errs[:, layer] = np.linalg.norm(rebuilt - z_out, axis=1) / np.where(scale > 0, scale, 1.0)
    rows = ([idx, token_id, layer, errs[idx, layer]]
            for idx, token_id in enumerate(trace.token_ids.tolist())
            for layer in range(errs.shape[1]))
    worst = errs.max(initial=0.0)
    ctx.table("trace-consistency.csv", ["token_index", "token_id", "layer", "rel_err"],
              rows, [f"max_rel_err: {worst:.6e}"])


def _cmd_out_sim(ctx: Context) -> None:
    """Per-layer output similarity of the ``--token`` traced alone."""
    from . import dynamic_analysis as dyn
    token = ctx.args.token
    if not 0 <= token < len(ctx.tokens):
        raise ValueError(f"--token {token} out of range for corpus of {len(ctx.tokens)} tokens")
    trace = replace(ctx, tokens=[ctx.tokens[token]], trace=None).corpus_trace()
    _declare_sims(ctx, "out-sim-layer{layer}-token{token}",
                  lambda layer: dyn.output_sim_per_token(trace, layer))


def _cmd_avg_out_sim(ctx: Context) -> None:
    from . import dynamic_analysis as dyn
    trace = ctx.corpus_trace()
    _declare_sims(ctx, "avg-out-sim-layer{layer}", lambda layer: dyn.avg_output_sim(trace, layer))


def _cmd_norm_rank(ctx: Context) -> None:
    from . import dynamic_analysis as dyn
    trace = ctx.corpus_trace()
    layers = _select_layers(ctx.args.layer, ctx.model)
    config = ctx.model.config
    groups: dict[int, list[int]] = {}
    for layer in layers:
        groups.setdefault(config.experts_per_layer[layer], []).append(layer)
    for n in sorted(groups):
        rc = dyn.rank_count_matrix(trace, groups[n])
        labels = [str(r + 1) for r in range(rc.counts.shape[0])]
        stem = f"norm-rank-n{n}" if len(groups) > 1 or ctx.args.layer == "all" \
            else f"norm-rank-layer{layers[0]}"
        comments = [f"layers: {' '.join(str(l) for l in groups[n])}",
                    f"events: {rc.total_events}",
                    "rows: output-norm rank (1 = smallest); "
                    "columns: gate-score rank (1 = smallest)"]
        ctx.matrix(stem, labels, rc.counts, (0.0, float(rc.counts.max())), comments)


def _cmd_act_ratio(ctx: Context) -> None:
    from . import dynamic_analysis as dyn
    report = dyn.activation_ratio(ctx.corpus_trace(), threshold=ctx.args.threshold)
    rows = [[layer, expert, ratio]
            for (layer, expert), ratio in report.per_expert.items()]
    rows.append(["overall", None, report.overall])
    ctx.table("act-ratio.csv", ["layer", "expert", "ratio"], rows,
              [f"threshold: {ctx.args.threshold}"])


def _cmd_route_log(ctx: Context) -> None:
    from . import dynamic_analysis as dyn
    if not ctx.model.config.moe_layers():
        raise ValueError("model has no gated layers")
    columns = [c.tolist() for c in dyn.routing_pattern(ctx.corpus_trace())]
    ctx.table("route-log.csv", ["token_index", "token_id", "layer", "slot", "expert", "score"],
              zip(*columns))


def _cmd_report(ctx: Context) -> None:
    """Run each analysis the model can feed, in ``ANALYSES`` order and once
    per ``--which`` where it takes one, into subdirectories of --out: every
    step through ``run_command`` on inputs read, hashed and traced once here;
    the steps' artifacts join the report's writes."""
    config = ctx.model.config
    if not config.num_layers:
        raise ValueError("no intermediates to count: the model has no layers")
    ctx.corpus_trace()
    args = ctx.args
    for name, entry in ANALYSES.items():
        if max(config.experts_per_layer) < entry.min_experts:
            continue
        for which in sta.WHICH_MATRICES if entry.which else [None]:
            argv = [name, "--model", args.model]
            if entry.ref and args.ref is not None:
                argv += ["--ref", args.ref]
            if entry.corpus:
                argv += ["--corpus", args.corpus]
            if entry.layer:
                argv += ["--layer", "all"]
            if which:
                argv += ["--which", which]
            argv += ["--out", os.path.join(args.out, name)]
            if run_command(argv, ctx) != 0:
                raise ValueError(f"report step failed: {name}")


# --- the analysis table ----------------------------------------------------

@dataclass(frozen=True)
class Analysis:
    """One analysis subcommand, and a report step of the same name.

    The flags say which inputs (``--ref``, ``--corpus`` with ``--k-override``)
    and selectors (``--layer``, ``--which``) it takes; ``options`` are its own
    further flags as ``(flag, add_argument keywords)``.  It runs ``handler``;
    a report runs it when some layer has at least ``min_experts`` routed experts.
    """

    help: str
    handler: Callable[[Context], None]
    ref: bool = False
    corpus: bool = False
    layer: bool = False
    which: bool = False
    min_experts: int = 2
    options: tuple[tuple[str, dict], ...] = ()


# Analyses are looked up when a command runs, not when the table is built, so
# a function that perfbench/tracer.py or a test rebinds is the one called.
ANALYSES = {
    "matrix-sim": Analysis("matrix-sim over expert weights", _cmd_matrix_sim,
                           ref=True, layer=True, which=True),
    "neuron-avg-sim": Analysis("neuron-avg-sim over expert weights", _cmd_neuron_avg_sim,
                               ref=True, layer=True, which=True),
    "reorder": Analysis("neuron alignment between expert pairs", _cmd_reorder,
                        layer=True, which=True),
    "gate-sim": Analysis("gate row similarity", _cmd_gate_sim, layer=True),
    "gate-corr": Analysis("gate-vs-expert similarity regression per layer", _cmd_gate_corr,
                          which=True, min_experts=3),
    "pca": Analysis(
        "principal-component projection of experts", _cmd_pca, layer=True, which=True,
        options=(("--level", dict(choices=["matrix", "neuron"], default="matrix")),
                 ("--dims", dict(type=int, default=2)),
                 ("--eps", dict(type=float, default=None,
                                help="enable DBSCAN outlier removal with this radius")),
                 ("--min-pts", dict(type=int, default=2)),
                 ("--no-standardize", dict(action="store_true")))),
    "trace": Analysis("trace recombination consistency table", _cmd_trace,
                      ref=True, corpus=True, min_experts=1),
    "out-sim": Analysis(
        "per-token expert output similarity", _cmd_out_sim, ref=True, corpus=True, layer=True,
        options=(("--token", dict(type=int, default=0, help="flattened corpus token index")),)),
    "avg-out-sim": Analysis("corpus-averaged angular output similarity", _cmd_avg_out_sim,
                            ref=True, corpus=True, layer=True),
    "norm-rank": Analysis("output-norm rank vs gate-score rank counts", _cmd_norm_rank,
                          corpus=True, layer=True),
    "act-ratio": Analysis("activation sparsity ratios", _cmd_act_ratio, corpus=True, min_experts=1,
                          options=(("--threshold", dict(type=float, default=0.001)),)),
    "route-log": Analysis("routing decisions per token", _cmd_route_log, corpus=True),
}


# --- parser ----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``moe-lens`` parser, built once per process and shared by every
    ``run_command`` call, of which a report makes one per step."""
    parser = argparse.ArgumentParser(prog="moe-lens", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate a synthetic checkpoint")
    p.add_argument("--mode", required=True,
                   choices=["scratch", "upcycled", "permuted-clone"])
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (no default on purpose)")
    p.add_argument("--out", required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--experts", default="4",
                   help="experts per layer: one int or comma list")
    p.add_argument("--shared", default="0", help="shared experts per layer")
    p.add_argument("--top-k", type=int, default=2)
    p.add_argument("--d-hid", type=int, default=32)
    p.add_argument("--d-mid", type=int, default=64)
    p.add_argument("--vocab", type=int, default=101)
    p.add_argument("--activation", choices=list(ACTIVATIONS), default="silu")
    p.add_argument("--gating-order", choices=list(GATING_ORDERS),
                   default="topk_then_softmax")
    p.add_argument("--no-prenorm", action="store_true")
    p.add_argument("--init-std", type=float, default=0.02)
    p.add_argument("--noise", type=float, default=0.0,
                   help="upcycling noise ratio relative to --init-std")
    p.set_defaults(func=_cmd_synth)

    for name, entry in ANALYSES.items():
        p = commands.add_parser(name, help=entry.help)
        p.add_argument("--model", required=True, help="checkpoint path")
        if entry.ref:
            p.add_argument("--ref", help="dense reference checkpoint path")
        if entry.corpus:
            p.add_argument("--corpus", required=True, help="token corpus path")
            p.add_argument("--k-override", choices=["all"], default=None,
                           help="route every expert instead of the configured top-k")
        if entry.layer:
            p.add_argument("--layer", default="all")
        if entry.which:
            p.add_argument("--which", required=True, choices=list(sta.WHICH_MATRICES))
        for flag, options in entry.options:
            p.add_argument(flag, **options)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--cell", type=int, default=16,
                       help="heatmap block size in pixels")
        p.set_defaults(func=entry.handler)

    p = commands.add_parser("report", help="run the full analysis bundle")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--ref", help="dense reference checkpoint path")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def run_command(argv: list[str], loaded: Context | None = None) -> int:
    """Parse and execute one invocation; returns the process exit code.

    A report passes its ``loaded`` inputs to each step, whose artifacts join
    the report's.  Without them a command loads its own inputs, writes its
    artifacts once it has returned, so a command that fails writes nothing,
    then prints its ``lines`` and a ``wrote`` line per artifact.  argparse's
    own stdout (``--help``) is captured and printed here too, so a stdout
    that fails to take any of it ends in one ``error:`` line and exit 1."""
    captured = io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(captured):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse printed --help, or a usage error to stderr
            status, lines = int(exc.code or 0), captured.getvalue().splitlines()
        else:
            ctx = _load_context(args, argv, loaded)
            args.func(ctx)
            writes = ctx.writes if loaded is None else []
            for path, blob in writes:
                atomic_write_bytes(path, blob)
            status, lines = 0, ctx.lines + [f"wrote {path}" for path, _ in writes]
        for line in lines:
            print(line)
        sys.stdout.flush()
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


def main() -> int:
    gc.freeze()  # the imports' objects: the exit's collections skip them
    status = run_command(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:  # run_command reported it; drop what stdout holds, or exit's flush fails too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
