"""Command-line interface.

Every analysis subcommand reads a checkpoint (plus a corpus for the
trace-based ones) and writes provenance-stamped CSV tables and P6 heatmaps
under ``--out``.  Outputs are deterministic: the same invocation over the same
inputs reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import dynamic_analysis as dyn
from . import static_analysis as sta
from .config import ACTIVATIONS, GATING_ORDERS, ModelConfig
from .moe_core import CorpusTrace, native_output, read_corpus, trace_all_experts
from .report import Provenance, emit_csv, emit_matrix, file_digest, matrix_comments, metric_range
from .synth import SynthSpec, synth_permuted_clone_model, synth_scratch, synth_upcycled
from .tensor_store import Checkpoint, dump_checkpoint, read_checkpoint


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
    """A command's inputs, each read and hashed once, and its provenance stamp;
    ``trace`` is the corpus trace that a report shares with its steps."""

    args: argparse.Namespace
    model: Checkpoint
    reference: Checkpoint | None
    tokens: list[int] | None
    digests: dict[str, str]
    provenance: Provenance | None = None
    trace: CorpusTrace | None = None

    @property
    def out(self) -> str:
        return self.args.out

    def corpus_trace(self) -> CorpusTrace:
        """The shared corpus trace, else a new one; steps without ``--ref``
        never read the reference outputs a shared trace carries."""
        k_override_all = self.args.k_override == "all"
        if self.trace is not None and not k_override_all:
            return self.trace
        return trace_all_experts(self.model, self.tokens, self.reference, k_override_all)


def _load_context(args, argv: list[str], loaded: Context | None) -> Context:
    """Read and hash the inputs the command's parser takes (``--model``, and
    ``--ref``/``--corpus`` where it has them), or take them from a report's
    ``loaded``."""
    ref_path = getattr(args, "ref", None)
    corpus_path = getattr(args, "corpus", None)
    if loaded is None:
        digests = {"model": file_digest(args.model)}
        model = read_checkpoint(args.model)
        reference = None
        if ref_path:
            digests["reference"] = file_digest(ref_path)
            reference = read_checkpoint(ref_path)
        tokens = None
        if corpus_path:
            digests["corpus"] = file_digest(corpus_path)
            tokens = read_corpus(corpus_path, model.config.vocab)
            if not tokens:
                raise ValueError("corpus holds no tokens")
        loaded = Context(args=args, model=model, reference=reference, tokens=tokens,
                         digests=digests)
    used = ["model", *(["reference"] if ref_path else []),
            *(["corpus"] if corpus_path else [])]
    os.makedirs(args.out, exist_ok=True)
    prov = Provenance(command=["moe-lens", *argv],
                      inputs={name: loaded.digests[name] for name in used},
                      seed=getattr(args, "seed", None))
    return replace(loaded, args=args, provenance=prov,
                   reference=loaded.reference if ref_path else None)


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
    if not 0 <= layer < config.num_layers:
        raise ValueError(f"layer {layer} out of range")
    return [layer]


# --- subcommands -----------------------------------------------------------

def _cmd_synth(args) -> list[str]:
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
    os.makedirs(args.out, exist_ok=True)
    written = []
    model_path = os.path.join(args.out, "model.moel")
    if mode == "scratch":
        dump_checkpoint(synth_scratch(spec), model_path)
    elif mode == "upcycled":
        model, reference = synth_upcycled(spec)
        dump_checkpoint(model, model_path)
        ref_path = os.path.join(args.out, "reference.moel")
        dump_checkpoint(reference, ref_path)
        written.append(ref_path)
    else:
        dump_checkpoint(synth_permuted_clone_model(spec)[0], model_path)
    written.insert(0, model_path)
    for path in written:
        print(f"digest {os.path.basename(path)} sha256:{file_digest(path)}")
    return written


def _layer_sims(stem: str, layer_sim: Callable[[Context], Callable[[int], sta.SimilarityMatrix]]
                ) -> Callable[[Context], list[str]]:
    """A handler that writes one similarity matrix per selected layer:
    ``layer_sim(ctx)`` gives the analysis of a layer index, and ``stem``
    formats with the arguments and ``layer`` into the file stem."""
    def handler(ctx: Context) -> list[str]:
        analyse = layer_sim(ctx)
        written = []
        for layer in _select_layers(ctx.args.layer, ctx.model):
            path = os.path.join(ctx.out, stem.format_map({**vars(ctx.args), "layer": layer}))
            sim = analyse(layer)
            written += emit_matrix(path, ctx.provenance, sim.labels, sim.values,
                                   metric_range(sim.metric), matrix_comments(sim),
                                   ctx.args.cell)
        return written
    return handler


def _token_sims(ctx: Context):
    """out-sim's per-layer analysis, on the ``--token`` traced alone."""
    token = ctx.args.token
    if not 0 <= token < len(ctx.tokens):
        raise ValueError(f"--token {token} out of range for corpus of "
                         f"{len(ctx.tokens)} tokens")
    trace = trace_all_experts(ctx.model, [ctx.tokens[token]], ctx.reference,
                              ctx.args.k_override == "all")
    return functools.partial(dyn.output_sim_per_token, trace)


def _cmd_reorder(ctx: Context) -> list[str]:
    which = ctx.args.which
    rows = []
    taus = []
    for layer in _select_layers(ctx.args.layer, ctx.model):
        for rep in sta.pairwise_reorder_reports(ctx.model, layer, which):
            rows.append([layer, rep.pair[0], rep.pair[1], which,
                         rep.sim_before, rep.sim_after, rep.tau])
            taus.append(rep.tau)
    path = os.path.join(ctx.out, f"reorder-{which}.csv")
    emit_csv(path, ctx.provenance,
             ["layer", "expert_a", "expert_b", "which", "sim_before", "sim_after", "tau"],
             rows, extra_comments=[f"mean_tau: {np.mean(taus):.6f}"])
    return [path]


def _cmd_gate_corr(ctx: Context) -> list[str]:
    which = ctx.args.which
    config = ctx.model.config
    layers = [i for i in config.moe_layers() if config.experts_per_layer[i] >= 3]
    if not layers:
        raise ValueError("no gated layer has enough experts for regression")
    reports = [sta.gate_expert_regression(ctx.model, layer, which) for layer in layers]
    rows = [[layer, which, rep.n_pairs, rep.r, rep.r2] for layer, rep in zip(layers, reports)]
    rows.append(["avg", which, None, None, sta.aggregate_r2(reports)])
    path = os.path.join(ctx.out, f"gate-corr-{which}.csv")
    emit_csv(path, ctx.provenance, ["layer", "which", "n_pairs", "r", "r2"], rows)
    return [path]


def _cmd_pca(ctx: Context) -> list[str]:
    args = ctx.args
    written = []
    for layer in _select_layers(args.layer, ctx.model):
        if ctx.model.config.is_dense(layer):
            raise ValueError(f"layer {layer} is dense; no expert population")
        stack, experts = sta.layer_weights(ctx.model, layer, args.which)
        if args.level == "matrix":
            vectors = stack.reshape(len(stack), -1)
            labels = experts
        else:
            neurons = sta.neuron_rows(stack, args.which)
            vectors = neurons.reshape(-1, neurons.shape[-1])
            labels = [f"{e}.{j}" for e in experts for j in range(neurons.shape[1])]
        proj = sta.pca_project(vectors, dims=args.dims,
                               standardize=not args.no_standardize, labels=labels)
        if args.eps is not None:
            proj = sta.filter_outliers(proj, eps=args.eps, min_pts=args.min_pts)
        comments = [
            "explained_variance: " + " ".join(f"{v:.6f}" for v in proj.explained_variance),
            "outliers: " + (" ".join(proj.outliers) if proj.outliers else "-"),
            f"level: {args.level}",
        ]
        rows = [[label, *coords] for label, coords in zip(proj.labels, proj.coords)]
        path = os.path.join(ctx.out, f"pca-layer{layer}-{args.which}-{args.level}.csv")
        emit_csv(path, ctx.provenance,
                 ["label", *[f"pc{d + 1}" for d in range(args.dims)]],
                 rows, extra_comments=comments)
        written.append(path)
    return written


def _cmd_trace(ctx: Context) -> list[str]:
    if not ctx.model.config.num_layers:
        raise ValueError("nothing to trace: the model has no layers")
    trace = ctx.corpus_trace()
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
    path = os.path.join(ctx.out, "trace-consistency.csv")
    emit_csv(path, ctx.provenance, ["token_index", "token_id", "layer", "rel_err"],
             rows, extra_comments=[f"max_rel_err: {worst:.6e}"])
    return [path]


def _cmd_norm_rank(ctx: Context) -> list[str]:
    trace = ctx.corpus_trace()
    layers = _select_layers(ctx.args.layer, ctx.model)
    config = ctx.model.config
    groups: dict[int, list[int]] = {}
    for layer in layers:
        groups.setdefault(config.experts_per_layer[layer], []).append(layer)
    written = []
    for n in sorted(groups):
        rc = dyn.rank_count_matrix(trace, groups[n])
        labels = [str(r + 1) for r in range(rc.counts.shape[0])]
        stem = f"norm-rank-n{n}" if len(groups) > 1 or ctx.args.layer == "all" \
            else f"norm-rank-layer{layers[0]}"
        comments = [f"layers: {' '.join(str(l) for l in groups[n])}",
                    f"events: {rc.total_events}",
                    "rows: output-norm rank (1 = smallest); "
                    "columns: gate-score rank (1 = smallest)"]
        written += emit_matrix(os.path.join(ctx.out, stem), ctx.provenance, labels, rc.counts,
                               (0.0, float(rc.counts.max())), comments, ctx.args.cell)
    return written


def _cmd_act_ratio(ctx: Context) -> list[str]:
    report = dyn.activation_ratio(ctx.corpus_trace(), threshold=ctx.args.threshold)
    rows = [[layer, expert, ratio]
            for (layer, expert), ratio in report.per_expert.items()]
    rows.append(["overall", None, report.overall])
    path = os.path.join(ctx.out, "act-ratio.csv")
    emit_csv(path, ctx.provenance, ["layer", "expert", "ratio"], rows,
             extra_comments=[f"threshold: {ctx.args.threshold}"])
    return [path]


def _cmd_route_log(ctx: Context) -> list[str]:
    if not ctx.model.config.moe_layers():
        raise ValueError("model has no gated layers")
    columns = [c.tolist() for c in dyn.routing_pattern(ctx.corpus_trace())]
    path = os.path.join(ctx.out, "route-log.csv")
    emit_csv(path, ctx.provenance,
             ["token_index", "token_id", "layer", "slot", "expert", "score"], zip(*columns))
    return [path]


def _cmd_report(ctx: Context) -> list[str]:
    """Run the full analysis suite into subdirectories of --out, every step
    through ``run_command`` on inputs read, hashed and traced once here."""
    config = ctx.model.config
    if not config.num_layers:
        raise ValueError("no intermediates to count: the model has no layers")
    ctx.trace = trace_all_experts(ctx.model, ctx.tokens, ctx.reference)
    gated = config.moe_layers()
    steps: list[tuple[str, str | None]] = []
    if gated:
        for which in sta.WHICH_MATRICES:
            steps += [(name, which) for name in ("matrix-sim", "neuron-avg-sim", "reorder", "pca")]
        steps.append(("gate-sim", None))
        if any(config.experts_per_layer[i] >= 3 for i in gated):
            steps += [("gate-corr", which) for which in sta.WHICH_MATRICES]
        steps += [(name, None) for name in ("out-sim", "avg-out-sim", "norm-rank", "route-log")]
    steps += [("trace", None), ("act-ratio", None)]

    args = ctx.args
    for name, which in steps:
        entry = ANALYSES[name]
        argv = [name, "--model", args.model]
        if entry.ref and args.ref:
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
    return []


# --- the analysis table ----------------------------------------------------

@dataclass(frozen=True)
class Analysis:
    """One analysis subcommand, and a report step of the same name.

    The flags say which inputs (``--ref``, ``--corpus`` with ``--k-override``)
    and selectors (``--layer``, ``--which``) it takes; ``options`` are its own
    further flags as ``(flag, add_argument keywords)``.  It runs ``handler``.
    """

    help: str
    handler: Callable[[Context], list[str]]
    ref: bool = False
    corpus: bool = False
    layer: bool = False
    which: bool = False
    options: tuple[tuple[str, dict], ...] = ()


# Analyses are looked up when a command runs, not when the table is built, so
# a function that perfbench/tracer.py or a test rebinds is the one called.
ANALYSES = {
    "matrix-sim": Analysis(
        "matrix-sim over expert weights",
        _layer_sims("{command}-layer{layer}-{which}",
                    lambda ctx: functools.partial(sta.matrix_level_sim, ctx.model,
                                                  which=ctx.args.which, reference=ctx.reference)),
        ref=True, layer=True, which=True),
    "neuron-avg-sim": Analysis(
        "neuron-avg-sim over expert weights",
        _layer_sims("{command}-layer{layer}-{which}",
                    lambda ctx: functools.partial(sta.neuron_average_sim, ctx.model,
                                                  which=ctx.args.which, reference=ctx.reference)),
        ref=True, layer=True, which=True),
    "reorder": Analysis("neuron alignment between expert pairs", _cmd_reorder,
                        layer=True, which=True),
    "gate-sim": Analysis(
        "gate row similarity",
        _layer_sims("gate-sim-layer{layer}",
                    lambda ctx: functools.partial(sta.gate_embedding_sim, ctx.model)),
        layer=True),
    "gate-corr": Analysis("gate-vs-expert similarity regression per layer", _cmd_gate_corr,
                          which=True),
    "pca": Analysis(
        "principal-component projection of experts", _cmd_pca, layer=True, which=True,
        options=(("--level", dict(choices=["matrix", "neuron"], default="matrix")),
                 ("--dims", dict(type=int, default=2)),
                 ("--eps", dict(type=float, default=None,
                                help="enable DBSCAN outlier removal with this radius")),
                 ("--min-pts", dict(type=int, default=2)),
                 ("--no-standardize", dict(action="store_true")))),
    "trace": Analysis("trace recombination consistency table", _cmd_trace,
                      ref=True, corpus=True),
    "out-sim": Analysis(
        "per-token expert output similarity",
        _layer_sims("out-sim-layer{layer}-token{token}", _token_sims),
        ref=True, corpus=True, layer=True,
        options=(("--token", dict(type=int, default=0, help="flattened corpus token index")),)),
    "avg-out-sim": Analysis(
        "corpus-averaged angular output similarity",
        _layer_sims("avg-out-sim-layer{layer}",
                    lambda ctx: functools.partial(dyn.avg_output_sim, ctx.corpus_trace())),
        ref=True, corpus=True, layer=True),
    "norm-rank": Analysis("output-norm rank vs gate-score rank counts", _cmd_norm_rank,
                          corpus=True, layer=True),
    "act-ratio": Analysis("activation sparsity ratios", _cmd_act_ratio, corpus=True,
                          options=(("--threshold", dict(type=float, default=0.001)),)),
    "route-log": Analysis("routing decisions per token", _cmd_route_log, corpus=True),
}


# --- parser ----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``moe-lens`` parser, built once per process and shared by every
    ``run_command`` call, of which a report makes one per step."""
    parser = argparse.ArgumentParser(prog="moe-lens",
                                     description=__doc__.splitlines()[0])
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

    A report passes its ``loaded`` inputs; without them a command loads its own.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "synth":
            written = _cmd_synth(args)
        else:
            written = args.func(_load_context(args, argv, loaded))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
