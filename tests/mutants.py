"""Mutation runner: put one small fault into a copy of the package and require
the named tests to catch it.

    python tests/mutants.py [NAME ...]

Each entry replaces one exact snippet of one module of ``src/moe_lens`` in a
copy of ``src/`` made in a temporary directory, then runs the entry's tests
against the copy (``PYTHONPATH`` points at it).  A mutant in ``MUTANTS`` is
killed when its tests fail; a hang past ``TIMEOUT`` counts as killed too.
An entry of ``EQUIVALENT`` changes no result, only the order or amount of
work, and its reason says why; its tests must pass.  With names, only those
entries run.  The script prints one line per entry and exits 1 when a mutant
survives or an equivalent one fails.  pytest does not collect this file;
``tests/test_mutant_snippets.py`` checks in the suite that every snippet
occurs exactly once, so an edit that moves a snippet breaks the suite rather
than this script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds for one entry's tests


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/moe_lens
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest arguments: test ids, or files and a -k expression
    reason: str


DBSCAN_ORACLE = (
    "tests/test_static_analysis.py::test_dbscan_noise_matches_bfs_oracle",
    "tests/test_static_analysis.py::test_dbscan_noise_matches_bfs_oracle_across_many_tiles",
    "tests/test_static_analysis.py::test_dbscan_noise_matches_bfs_oracle_at_subnormal_eps",
)

# The tests that a failed command, or a failed report step, writes nothing.
WRITES_NOTHING = ("tests/test_cli_report.py", "-k", "writes_nothing")

# The tests that a report runs the steps its model's expert counts allow.
REPORT_STEPS = ("tests/test_cli_report.py", "tests/test_report_properties.py", "-k",
                "report_steps_match or random_models_is_finite")

# The Kendall, reorder, assignment and scipy-loading tests.
REORDER_TESTS = ("tests/test_static_analysis.py", "tests/test_cli_report.py",
                 "-k", "kendall or reorder or assignment or scipy")

# The config tests: its type and value rules, when built and when read.
CONFIG_TESTS = ("tests/test_tensor_store.py", "-k", "config")

# The PCA tests: its bounds, sign rule and SVD-oracle comparisons.
PCA_TESTS = ("tests/test_static_analysis.py", "-k", "pca")

# The tests that each input is read once and stamped with the digest of its bytes.
DIGEST_TESTS = ("tests/test_tensor_store.py", "tests/test_moe_core.py",
                "tests/test_cli_report.py", "-k", "round_trips or read_corpus or synth or pipes")

COUNT = "np.count_nonzero((perm[:, None] < perm) & later)"
ROW_CERTIFICATE = "(score <= diagonal[:, None]).all()"
EITHER_CERTIFICATE = "(score <= diagonal[:, None]).all() or (score <= diagonal).all()"
# The range of sorted centers that a block of points scans.
BALL_RANGE = """        start = np.searchsorted(cols[axis], block[axis, 0] - reach)
        stop = np.searchsorted(cols[axis], block[axis, -1] + reach, "right")
"""
# The noise pass's positions in the sorted cloud.
NOISE = "rest[~_balls_hold(data[rest], data[core], eps, 1, axis)]"
FLAT_BOUND = "bound = (x.size + 2) * np.finfo(np.float64).eps"
# run_command's stdout lines (captured --help, or a command's lines) and
# flush, inside its handled path and after it.
STDOUT_ERROR = """    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
"""
STDOUT_IN_TRY = """        for line in lines:
            print(line)
        sys.stdout.flush()
""" + STDOUT_ERROR
STDOUT_AFTER_TRY = STDOUT_ERROR + """    for line in lines:
        print(line)
    sys.stdout.flush()
"""
# run_command's writes, then its stdout lines; and the command's lines moved first.
WRITES_THEN_LINES = """            for path, blob in writes:
                atomic_write_bytes(path, blob)
            status, lines = 0, ctx.lines + ["""
LINES_THEN_WRITES = """            for line in ctx.lines:
                print(line)
            for path, blob in writes:
                atomic_write_bytes(path, blob)
            status, lines = 0, ["""
SYNTH_WRITE = "ctx.writes.append((os.path.join(args.out, name), serialize_checkpoint(ckpt)))"

MUTANTS = [
    Mutant("write-after-return", "cli.py",
           "writes = ctx.writes if loaded is None else []",
           "writes = ctx.writes", WRITES_NOTHING,
           "each report step writes the artifacts declared so far, so a later step's "
           "failure leaves them behind"),
    Mutant("synth-writes-first-checkpoint", "cli.py", SYNTH_WRITE,
           f'if name == "model.moel": {SYNTH_WRITE}',
           ("tests/test_cli_report.py", "-k", "synth_upcycled_writes_reference or "
            "every_cli_write"),
           "an upcycled synth prints the reference's digest but never writes its file"),
    Mutant("out-sim-traces-first-token", "cli.py",
           "replace(ctx, tokens=[ctx.tokens[token]], trace=None)",
           "replace(ctx, tokens=[ctx.tokens[0]], trace=None)",
           ("tests/test_trace_oracle.py", "-k", "corpus_tables"),
           "out-sim --token names one token in its file and its comments but compares "
           "the outputs of the corpus's first"),
    Mutant("balls-range-on-first-coordinate", "static_analysis.py", BALL_RANGE,
           BALL_RANGE.replace("block[axis, ", "block[0, "), DBSCAN_ORACLE,
           "a cloud sorted by another coordinate is searched with first-coordinate "
           "bounds, which miss its neighbours"),
    Mutant("balls-lower-bound-without-reach", "static_analysis.py",
           "block[axis, 0] - reach)", "block[axis, 0])", DBSCAN_ORACLE,
           "a block no longer scans the centers just below its lowest point"),
    Mutant("balls-upper-bound-from-lowest", "static_analysis.py",
           "block[axis, -1] + reach", "block[axis, 0] + reach", DBSCAN_ORACLE,
           "the upper points of a block wider than reach lose the centers above them"),
    Mutant("balls-stop-at-first-full-point", "static_analysis.py",
           "if count.min() >= need:", "if count.max() >= need:", DBSCAN_ORACLE,
           "a block stops once one point holds need centers, and its other points "
           "lose the centers of later tiles"),
    Mutant("balls-noise-in-sorted-order", "static_analysis.py",
           f"order[{NOISE}]", NOISE, DBSCAN_ORACLE,
           "the noise set names positions in the sorted cloud, not the input's indices"),
    Mutant("balls-strict-ball-test", "static_analysis.py",
           "np.sqrt(total) <= eps", "np.sqrt(total) < eps", DBSCAN_ORACLE,
           "lattice neighbours exactly eps apart leave the ball"),
    Mutant("balls-count-above-need", "static_analysis.py",
           "count >= need", "count > need", DBSCAN_ORACLE,
           "a ball holding exactly min_pts points is no longer core"),
    Mutant("balls-reach-without-floor", "static_analysis.py",
           "max(eps * (1.0 + 2.0 ** -20), 2.0 ** -510)", "eps * (1.0 + 2.0 ** -20)",
           DBSCAN_ORACLE,
           "at a subnormal eps squares underflow, and the test accepts points several "
           "eps apart that a range of eps misses"),
    Mutant("tau-count-flipped", "static_analysis.py", COUNT,
           COUNT.replace("<", ">"), REORDER_TESTS,
           "concordant pairs are counted as discordant, so every tau changes sign"),
    Mutant("tau-later-inverted", "static_analysis.py", COUNT,
           COUNT.replace("& later", "& ~later"), REORDER_TESTS,
           "the count reads the positions j >= i, where it finds the concordant pairs"),
    Mutant("tau-discordant-once", "static_analysis.py",
           "return (pairs - 2 * discordant) / pairs", "return (pairs - 1 * discordant) / pairs",
           REORDER_TESTS, "tau is concordant over pairs, not concordant minus discordant"),
    Mutant("assignment-row-certificate-any", "static_analysis.py",
           ROW_CERTIFICATE, ROW_CERTIFICATE.replace(".all()", ".any()"), REORDER_TESTS,
           "one row whose best is its diagonal entry certifies a non-optimal identity"),
    Mutant("assignment-certificates-strict", "static_analysis.py",
           EITHER_CERTIFICATE, EITHER_CERTIFICATE.replace("<=", "<"), REORDER_TESTS,
           "a diagonal entry is never below itself, so no certificate holds and an "
           "upcycled report loads scipy"),
    Mutant("assignment-tie-rule-strict", "static_analysis.py",
           "if diagonal.sum() >= best:", "if diagonal.sum() > best:", REORDER_TESTS,
           "a solver optimum that only ties identity replaces it"),
    Mutant("pearson-flat-bound-without-two", "static_analysis.py", FLAT_BOUND,
           FLAT_BOUND.replace("(x.size + 2)", "x.size"),
           ("tests/test_static_analysis.py", "-k", "pearson or regression"),
           "a spread of a few ulps, which rounding alone can make, counts as real and "
           "gives an r of rounding noise"),
    Mutant("config-types-unchecked", "config.py",
           "if not accepts(value := getattr(self, name)):", "if False:", CONFIG_TESTS,
           "a config built with a bool, a float or a numpy int serializes to a header "
           "the reader refuses, and a mistyped header fails with a TypeError"),
    Mutant("is-int-accepts-bools", "config.py",
           "return isinstance(value, int) and not isinstance(value, bool)",
           "return isinstance(value, int)", CONFIG_TESTS,
           "true and false pass as the integers 1 and 0"),
    Mutant("checkpoint-finiteness-unchecked", "tensor_store.py",
           "if not np.isfinite(self.get_tensor(name)).all():", "if False:",
           ("tests/test_tensor_store.py", "-k", "non_finite"),
           "the writer packs and the reader accepts NaN and infinite weights"),
    Mutant("checkpoint-length-unchecked", "tensor_store.py",
           'if len(self.data) != max(entry["offsets"][1] for entry in self.tensors.values()):',
           "if False:", ("tests/test_tensor_store.py", "-k", "truncated or trailing"),
           "a payload longer than the layout is accepted, and a shorter one fails "
           "with numpy's error, not the reader's"),
    Mutant("tensor-read-from-range-end", "tensor_store.py",
           'offset=entry["offsets"][0])', 'offset=entry["offsets"][1])',
           ("tests/test_synth.py",),
           "each tensor is read from the bytes after its own range, and the last one "
           "past the data section"),
    Mutant("canonical-header-unchecked", "tensor_store.py",
           "if raw != _header_bytes(config):", "if False:",
           ("tests/test_tensor_store.py", "-k", "canonical"),
           "a header with whitespace, reordered keys or a stray tensor entry is accepted, "
           "so one model has many files"),
    Mutant("pca-bound-at-zero", "static_analysis.py",
           "resolved = values > rounding", "resolved = values > 0.0", PCA_TESTS,
           "an eigenvalue of rounding noise gets a direction, and a rank-deficient "
           "population a full-size coordinate along a direction the data lacks"),
    Mutant("pca-sign-from-largest-alone", "static_analysis.py",
           "near = (magnitude.max() - magnitude) * max(value, 0.0) ** 1.5 <= tie",
           "near = magnitude == magnitude.max()", PCA_TESTS,
           "among entries that tie in magnitude, rounding picks which one fixes the sign"),
    Mutant("native-output-full-scores", "moe_core.py",
           "y[rows] += (trace.gate_scores[rows, n, None]",
           "y[rows] += (trace.full_scores[rows, n, None]",
           ("tests/test_cli_report.py", "tests/test_moe_core.py", "-k", "native"),
           "the serving pass weights each expert by its softmax over all experts, so the "
           "trace check compares the engine with a different model"),
    Mutant("routed-counts-every-label", "static_analysis.py",
           "return sum(label.isdigit() for label in self.labels)", "return len(self.labels)",
           ("tests/test_static_analysis.py", "-k", "layout"),
           "s_ee averages the shared experts and the reference in with the routed ones"),
    Mutant("trace-overflow-unchecked", "moe_core.py",
           'if not all(np.isfinite(np.einsum("...i,...i", a, a)).all() for a in arrays):',
           "if False:", ("tests/test_cli_report.py", "-k", "overflows"),
           "a block whose squares overflow is traced, and every unit vector built "
           "from it is zero"),
    Mutant("checkpoint-digest-of-data-only", "tensor_store.py",
           "h = hashlib.sha256(_file_prefix(self.config))", "h = hashlib.sha256()",
           DIGEST_TESTS,
           "two models with one payload, such as a config change that keeps every "
           "tensor, share a stamp, which names no file"),
    Mutant("corpus-digest-of-tokens", "moe_core.py",
           "return tokens, hashlib.sha256(blob).hexdigest()",
           'return tokens, hashlib.sha256(" ".join(map(str, tokens)).encode()).hexdigest()',
           DIGEST_TESTS,
           "a corpus is stamped with its token text, not its bytes, so files that "
           "differ in spacing share a stamp"),
    Mutant("corpus-lines-from-splitlines", "moe_core.py",
           'enumerate(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8"), start=1)',
           'enumerate(blob.decode("utf-8").splitlines(), start=1)',
           ("tests/test_moe_core.py", "-k", "read_corpus"),
           "\\x0b, \\x1c, \\x85 and \\u2028 end a line too, so an error names a "
           "later line than the file's"),
    Mutant("trace-expert-in-next-slot", "moe_core.py",
           "lt.expert_outputs[:, n], lt.intermediates[:, n] = expert_forward(",
           "lt.expert_outputs[:, n - 1], lt.intermediates[:, n - 1] = expert_forward(",
           ("tests/test_moe_core.py", "-k", "trace"),
           "each expert's output and intermediates land in the slot before its own, so "
           "the router's scores weight another expert's output"),
    Mutant("route-log-layer-major", "dynamic_analysis.py",
           "np.concatenate(column, axis=1).ravel() for column",
           'np.concatenate(column, axis=1).ravel(order="F") for column',
           ("tests/test_dynamic_analysis.py", "tests/test_trace_oracle.py", "-k",
            "routing_pattern or reductions"),
           "the routing rows run layer by layer and slot by slot over all tokens, not "
           "token by token"),
    Mutant("pca-scale-unsquared", "static_analysis.py",
           "sd = np.sqrt(np.mean(work * work, axis=0))",
           "sd = np.sqrt(np.mean(abs(work), axis=0))", PCA_TESTS,
           "features are scaled by the root of their mean absolute deviation, not by "
           "their standard deviation"),
    Mutant("main-no-freeze", "cli.py", "    gc.freeze()", "    pass",
           ("tests/test_cli_report.py", "-k", "freezes"),
           "the interpreter's collections at exit walk every object the imports built"),
    Mutant("stdout-error-unhandled", "cli.py", STDOUT_IN_TRY, STDOUT_AFTER_TRY,
           ("tests/test_cli_report.py", "-k", "full_stdout"),
           "a stdout that cannot take the wrote lines ends in a traceback, or in an "
           "ignored exception and exit 120"),
    Mutant("synth-digests-before-writes", "cli.py", WRITES_THEN_LINES, LINES_THEN_WRITES,
           ("tests/test_cli_report.py", "-k", "synth"),
           "a synth whose write fails leaves stdout naming the digests of files that "
           "do not exist"),
    Mutant("help-write-dropped", "cli.py", "with contextlib.redirect_stdout(captured):",
           "with contextlib.nullcontext():", ("tests/test_cli_report.py", "-k", "help"),
           "argparse writes --help itself and drops a failed write to an unbuffered "
           "stdout, which then exits 0"),
    Mutant("help-unflushed", "cli.py", "            print(line)\n        sys.stdout.flush()\n",
           "            print(line)\n", ("tests/test_cli_report.py", "-k", "help"),
           "--help that a buffered stdout holds fails only in main's last flush, whose "
           "fallback drops it, so it exits 0"),
    Mutant("trace-ref-traced", "cli.py", "else replace(ctx, reference=None)).corpus_trace()",
           "else ctx).corpus_trace()", ("tests/test_cli_report.py", "-k", "trace_ref_stamps"),
           "trace --ref evaluates the reference FFN on every token and layer, and never "
           "reads its output"),
    Mutant("trace-ref-unchecked", "cli.py",
           "        ctx.model.config.check_reference(ctx.reference.config)\n",
           "        pass\n", ("tests/test_cli_report.py", "-k", "partly_gated_reference"),
           "trace --ref stamps a reference that every other reader refuses"),
    Mutant("header-inputs-unsorted", "report.py", "for name in sorted(inputs)",
           "for name in inputs", ("tests/test_cli_report.py", "-k", "provenance"),
           "the input digests follow the order the command read its inputs in, not "
           "their names"),
    Mutant("report-gate-corr-on-two-experts", "cli.py", "which=True, min_experts=3)",
           "which=True)", REPORT_STEPS,
           "a report on a model of at most two experts per layer runs gate-corr, which "
           "refuses it, so the report fails"),
    Mutant("report-trace-needs-gated-layer", "cli.py", "corpus=True, min_experts=1)",
           "corpus=True)", REPORT_STEPS,
           "a report on a dense model skips the trace consistency table"),
    Mutant("empty-model-path-absent", "cli.py",
           "read_checkpoint(model_path) if model_path is not None else None",
           "read_checkpoint(model_path) if model_path else None",
           ("tests/test_cli_report.py", "tests/test_report_properties.py", "-k",
            "empty_path or hostile"),
           "--model \"\" reads no checkpoint, and the command fails with a traceback"),
]

EQUIVALENT = [
    Mutant("balls-sweep-first-coordinate", "static_analysis.py",
           "axis = int(np.ptp(data, axis=0).argmax()) if len(data) else 0",
           "axis = 0", DBSCAN_ORACLE,
           "any coordinate bounds every pair the ball test accepts, so the sweep "
           "coordinate moves the work, never the counts"),
    Mutant("balls-no-early-stop", "static_analysis.py",
           "need:\n                break", "need:\n                pass", DBSCAN_ORACLE,
           "counting every candidate gives counts at least those of the early stop, "
           "which stops only when every count has reached need"),
    Mutant("tau-count-with-diagonal", "static_analysis.py", COUNT,
           COUNT.replace("<", "<="), REORDER_TESTS,
           "<= differs from < only where perm[i] meets itself, on the diagonal, "
           "which later leaves out"),
    Mutant("tau-later-with-diagonal", "static_analysis.py",
           "later = np.tri(len(idx), k=-1, dtype=bool)",
           "later = np.tri(len(idx), k=0, dtype=bool)", REORDER_TESTS,
           "the diagonal compares perm[i] with itself, which is never <"),
    Mutant("assignment-without-row-certificate", "static_analysis.py",
           EITHER_CERTIFICATE, "(score <= diagonal).all()", REORDER_TESTS,
           "the solver and the tie rule still return identity whenever it is optimal"),
    Mutant("assignment-without-column-certificate", "static_analysis.py",
           EITHER_CERTIFICATE, ROW_CERTIFICATE, REORDER_TESTS,
           "the solver and the tie rule still return identity whenever it is optimal"),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """``killed``, ``timeout``, ``passed`` or ``error`` for one entry, and its seconds."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "moe_lens" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            return "error", 0.0
        path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                                   "no:cacheprovider", *mutant.tests],
                                  cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
    # pytest exits 1 when a test failed, 0 when all passed; any other code
    # (a collection error, an unknown test id) says nothing about the mutant.
    outcome = {0: "passed", 1: "killed"}.get(proc.returncode, "error")
    return outcome, time.perf_counter() - start


def main(argv: list[str]) -> int:
    entries = [(m, False) for m in MUTANTS] + [(m, True) for m in EQUIVALENT]
    unknown = set(argv) - {m.name for m, _ in entries}
    if unknown:
        print(f"error: unknown mutants: {' '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad, start = 0, time.perf_counter()
    for mutant, equivalent in entries:
        if argv and mutant.name not in argv:
            continue
        outcome, seconds = run(mutant)
        ok = outcome == "passed" if equivalent else outcome in ("killed", "timeout")
        bad += not ok
        kind = "equivalent" if equivalent else "mutant"
        print(f"{'ok' if ok else 'BAD'}  {kind:10} {outcome:7} {seconds:6.1f} s  "
              f"{mutant.name}: {mutant.reason}", flush=True)
    print(f"{bad} bad; {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
