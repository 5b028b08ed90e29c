"""Run one moe-lens command with a span recorded around each layer's public functions.

Usage: python3 perfbench/tracer.py SPANS_JSON <moe-lens arguments>

The wrappers live here, not in the package: each listed function is replaced
in every ``moe_lens`` module that holds it, so names that ``cli`` imported
with ``from ... import`` are traced too.  Spans stay in memory and are written
to SPANS_JSON when the command ends.  Inner-loop functions (``expert_forward``,
``moe_layer_forward``) are left unwrapped: they run hundreds of thousands of
times per report and a span each would distort the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

from moe_lens import cli, dynamic_analysis, moe_core, report, static_analysis, synth, tensor_store

# module -> {function name: span name}.  A span name is the stem of the
# per-layer metric its self time feeds, e.g. "moe_core.trace" -> moe_core.trace_s.
TRACED = {
    tensor_store: {"read_checkpoint": "tensor_store.read",
                   "parse_checkpoint": "tensor_store.parse",
                   "dump_checkpoint": "tensor_store.write"},
    report: {"file_digest": "report.digest",
             "emit_csv": "report.emit_csv",
             "emit_heatmap": "report.emit_heatmap"},
    moe_core: {"trace_all_experts": "moe_core.trace",
               "read_corpus": "moe_core.read_corpus"},
    dynamic_analysis: {"avg_output_sim": "dynamic_analysis.avg_output_sim",
                       "output_sim_per_token": "dynamic_analysis.output_sim_per_token",
                       "rank_count_matrix": "dynamic_analysis.rank_count_matrix",
                       "activation_ratio": "dynamic_analysis.activation_ratio",
                       "routing_pattern": "dynamic_analysis.routing_pattern"},
    static_analysis: {"pairwise_reorder_reports": "static_analysis.reorder",
                      "kendall_tau": "static_analysis.kendall_tau",
                      "solve_assignment": "static_analysis.assignment",
                      "matrix_level_sim": "static_analysis.matrix_level_sim",
                      "neuron_average_sim": "static_analysis.neuron_average_sim",
                      "gate_embedding_sim": "static_analysis.gate_sim",
                      "gate_expert_regression": "static_analysis.gate_regression",
                      "pca_project": "static_analysis.pca",
                      "dbscan_outliers": "static_analysis.dbscan"},
    synth: {"synth_scratch": "synth.generate",
            "synth_upcycled": "synth.generate",
            "synth_permuted_clone_model": "synth.generate"},
}


def _trace_call_record(args, kwargs) -> dict:
    """Computed work of one ``trace_all_experts`` call, from its arguments.

    Per token, a gated layer evaluates 2k + 3S + N experts (native pass k + S,
    replay k + S, then all N routed and S shared again) and a dense layer 3;
    a reference adds one evaluation per layer.  Useful work is one evaluation
    of every routed, shared and reference FFN per token and layer.
    """
    ckpt, tokens = args[0], args[1]
    reference = args[2] if len(args) > 2 else kwargs.get("reference")
    k_all = args[3] if len(args) > 3 else kwargs.get("k_override_all", False)
    config = ckpt.config
    ref = 1 if reference is not None else 0
    per_token = useful = 0
    for i in range(config.num_layers):
        n, s = config.experts_per_layer[i], config.num_shared[i]
        k = n if k_all else config.top_k
        per_token += (3 if config.is_dense(i) else 2 * k + 3 * s + n) + ref
        useful += n + s + ref
    return {"tokens": len(tokens), "evals": per_token * len(tokens),
            "useful_per_token": useful,
            "flop_per_eval": 6 * config.d_hid * config.d_mid}


class Recorder:
    """Nested spans of one single-threaded process plus the inputs they touched."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.files: dict[str, list] = {"read": [], "written": [], "digested": [],
                                       "artifacts": []}
        self.trace_calls: list[dict] = []
        self.dbscan_points = 0

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = [span_name, 0, 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
                self._count(span_name, args, kwargs)
        return traced

    def _count(self, name, args, kwargs):
        if name == "tensor_store.read":
            self.files["read"].append(_file_info(args[0]))
        elif name == "tensor_store.write":
            self.files["written"].append(_file_info(args[1]))
        elif name == "report.digest":
            self.files["digested"].append(_file_info(args[0]))
        elif name == "report.emit_csv":
            self.files["artifacts"].append(_file_info(args[0]))
        elif name == "report.emit_heatmap":
            self.files["artifacts"].append(_file_info(args[0]))
            self.files["artifacts"].append(_file_info(f"{args[0]}.range.txt"))
        elif name == "moe_core.trace":
            self.trace_calls.append(_trace_call_record(args, kwargs))
        elif name == "static_analysis.dbscan":
            self.dbscan_points += len(args[0])

    def install(self):
        wrapped = {}  # id of the original function -> its wrapper
        for module, names in TRACED.items():
            for attr, span_name in names.items():
                fn = getattr(module, attr)
                wrapped[id(fn)] = self.wrap(fn, span_name)
        wrapped[id(cli.run_command)] = self.wrap(
            cli.run_command, lambda args: f"cli.{args[0][0]}" if args[0] else "cli")
        # Rebind every alias, including names imported with ``from ... import``.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "moe_lens" and not mod_name.startswith("moe_lens."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    def dump(self, path):
        blob = {"spans": self.spans, "files": self.files,
                "trace_calls": self.trace_calls, "dbscan_points": self.dbscan_points}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)


def _file_info(path) -> list:
    path = os.fspath(path)
    try:
        return [os.path.abspath(path), os.path.getsize(path)]
    except OSError:
        return [os.path.abspath(path), 0]


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    code = cli.run_command(argv)
    recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
