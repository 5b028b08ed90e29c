"""Benchmark for moe-lens: synth, report and two probes, run as child processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/expected.json

Each workload builds a checkpoint with ``moe-lens synth`` and a seeded corpus,
then repeats its command mix one child at a time until ``--seconds`` is used
up: ``report``, a single-token ``out-sim`` probe and a neuron-level ``pca
--eps`` probe (DBSCAN, which ``report`` never calls).  Peak RSS comes from
``os.wait4`` per child.  Every child's outputs are checked, and a failed child
or check counts in ``failed``.

On a shared host each CPU has spells of a few seconds at up to 1.8x slower,
and the host drifts over minutes.  So every SAMPLE_EVERY_S the runner stops an
untraced child, times a chunk of fixed work of the benchmark's own
(``perfbench/calibrate.py``) on the CPU the child last ran on, and resumes it.
A child's time is its wall time without the stops, in reference seconds:
x CHUNK_REFERENCE_S / the mean of its chunk times.  A timing metric is the
mean over the repeats without the slowest and fastest TRIM of them (the median
of the set-up repeats for ``setup_s``).  Raw medians are printed on a ``raw``
line.

With ``--trace 1`` the run alternates untraced and traced reports and reports
per-layer self times from spans recorded by ``perfbench/tracer.py``.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

# Inputs come from ``seed % INPUT_SEEDS`` so that the key values of every
# input can be recorded in expected.json and checked on each run.
INPUT_SEEDS = 8
SETUP_REPEATS = 3
# A run must end within 180 s; children are killed once this budget is spent.
HARD_LIMIT_S = 165.0
VALUE_TOL = 1e-6
# Values are printed with six decimals, so one unit in the last place is the
# tolerance itself; the slack keeps a rounding flip from reading as 1e-6 + ulp.
VALUE_SLACK = 1e-12
MAX_REL_ERR = 1e-9
PCA_EPS = 0.5
SAMPLE_EVERY_S = 0.1
# Typical time of one calibrate.py chunk on a 2-vCPU Intel Xeon at 2.0 GHz;
# reported timings are scaled to a CPU that runs it this fast.
CHUNK_REFERENCE_S = 0.009
TRIM = 0.2


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]
    tokens: int
    vocab: int
    reference: bool
    gated_layers: tuple[int, ...]


# Sizes keep one report at about 2-7 s on a 2-CPU box, so that a run of
# run_seconds holds several repeats and its medians settle.
WORKLOADS = {
    # Mixtral-style top-2 over a long corpus, ~75% of ids repeated: the forward
    # engine dominates (six report steps re-trace the corpus).
    "trace-long": Workload(
        synth=("--mode", "upcycled", "--noise", "0.3", "--layers", "2", "--experts", "4",
               "--top-k", "2", "--d-hid", "32", "--d-mid", "64", "--vocab", "160"),
        tokens=640, vocab=160, reference=True, gated_layers=(0, 1)),
    # Wide upcycled top-2 of 8 on a short corpus (~3% repeats): reorder
    # (Kendall tau and assignment at n=256), checkpoint I/O and DBSCAN memory.
    "upcycled-wide": Workload(
        synth=("--mode", "upcycled", "--noise", "0.3", "--layers", "2", "--experts", "8",
               "--top-k", "2", "--d-hid", "128", "--d-mid", "256", "--vocab", "1024"),
        tokens=64, vocab=1024, reference=True, gated_layers=(0, 1)),
}

REPORT_STEPS = ("matrix-sim", "neuron-avg-sim", "reorder", "pca", "gate-sim", "gate-corr",
                "out-sim", "avg-out-sim", "norm-rank", "route-log", "trace", "act-ratio")


class Failures:
    """Counts invocations and those that failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        for problem in problems:
            print(f"check failed: {what}: {problem}", file=sys.stderr)
        if problems:
            self.reasons.append(f"{what}: {problems[0]}")
        return not problems


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    # Times of the calibrate.py chunks run on the child's CPU while it was
    # stopped; empty if its speed was not sampled.
    chunks: list[float] = field(default_factory=list)

    @property
    def reference_s(self) -> float:
        """Wall time on a CPU that runs a calibrate.py chunk in CHUNK_REFERENCE_S."""
        return self.wall_s * CHUNK_REFERENCE_S / statistics.mean(self.chunks)


def last_cpu(pid: int) -> int:
    """The CPU a process last ran on (field 39 of /proc/PID/stat)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


class Runner:
    """Runs moe-lens children one at a time under a shared hard deadline.

    With ``sample_speed`` each child is stopped every SAMPLE_EVERY_S while a
    calibrate.py chunk is timed on its CPU; the stops are left out of its wall
    time.  Traced children are never stopped.
    """

    def __init__(self, work: Path, deadline: float, sample_speed: bool = True):
        self.work = work
        self.deadline = deadline
        self.sample_speed = sample_speed
        self.env = dict(os.environ)
        self.env.pop("MOE_LENS_THREADS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.count = 0
        self.cpus = os.sched_getaffinity(0)

    def run(self, args: list[str], spans: Path | None = None) -> Child:
        """Run one moe-lens command, traced into ``spans`` if given."""
        if spans is not None:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
            return self.spawn(argv, f"{args[0]} traced", sample=False)
        return self.spawn([sys.executable, "-m", "moe_lens.cli", *args], args[0],
                          sample=self.sample_speed)

    def chunk_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        try:
            return calibrate.time_chunk()
        finally:
            os.sched_setaffinity(0, self.cpus)

    def spawn(self, argv: list[str], label: str, sample: bool) -> Child:
        self.count += 1
        log = self.work / f"child-{self.count}"
        timeout = max(1.0, self.deadline - time.monotonic())
        chunks: list[float] = []
        stopped = 0.0
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            pidfd = os.pidfd_open(proc.pid)
            exited = None
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                wait_ms = SAMPLE_EVERY_S * 1000 if sample else None
                # The pidfd turns readable when the child exits, not when it stops.
                while not poller.poll(wait_ms):
                    paused = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):  # it exited before the signal
                        exited = status, usage
                        break
                    chunks.append(self.chunk_on(last_cpu(proc.pid)))
                    os.kill(proc.pid, signal.SIGCONT)
                    stopped += time.perf_counter() - paused
                if exited is None:
                    _, status, usage = os.wait4(proc.pid, 0)
                    exited = status, usage
            finally:
                killer.cancel()
                os.close(pidfd)
                if exited is None:  # interrupted: end the child, stopped or not
                    proc.kill()
                    os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start - stopped
        if sample and not chunks:  # ended before the first stop
            chunks.append(calibrate.time_chunk())
        status, usage = exited
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss of this child alone (KiB on Linux); RUSAGE_CHILDREN would
        # keep the maximum over every child so far.
        child = Child(code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                      chunks=chunks)
        speed = f", chunk {statistics.mean(chunks) * 1e3:.2f} ms x {len(chunks)}" if chunks else ""
        print(f"child {label}: exit {child.code}, "
              f"{wall:.3f} s, cpu {usage.ru_utime + usage.ru_stime:.3f} s, "
              f"{child.rss_mb:.1f} MB{speed}", file=sys.stderr)
        return child

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


# --- inputs ------------------------------------------------------------------

def write_corpus(path: Path, workload: Workload, seed: int) -> list[int]:
    rng = random.Random(f"corpus-{seed}")
    tokens = [rng.randrange(workload.vocab) for _ in range(workload.tokens)]
    lines = [" ".join(map(str, tokens[i:i + 32])) for i in range(0, len(tokens), 32)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tokens


@dataclass
class Inputs:
    model: Path
    reference: Path | None
    corpus: Path
    tokens: int
    probe_token: int
    setup: list[Child]


def setup(runner: Runner, failures: Failures, workload: Workload, seed: int,
          repeats: int = SETUP_REPEATS, traced: Path | None = None) -> Inputs | None:
    """Synthesize the checkpoint ``repeats`` times; returns None if none succeeded."""
    ckpt_dir = runner.work / "ckpt"
    corpus = runner.work / "corpus.txt"
    tokens = write_corpus(corpus, workload, seed)
    args = ["synth", *workload.synth, "--seed", str(seed), "--out", str(ckpt_dir)]
    names = ["model.moel"] + (["reference.moel"] if workload.reference else [])
    done, first = [], None
    for i in range(repeats):
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        child = runner.run(args, spans=traced if i == 0 else None)
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        if not problems:
            missing = [n for n in names if not (ckpt_dir / n).is_file()]
            problems += [f"missing {n}" for n in missing]
        if not problems:
            digests = {n: file_sha256(ckpt_dir / n) for n in names}
            first = first or digests
            if digests != first:
                problems.append("checkpoint differs from the first synth")
        if failures.record("synth", problems):
            done.append(child)
    if not done:
        return None
    rng = random.Random(f"probe-{seed}")
    return Inputs(model=ckpt_dir / "model.moel",
                  reference=ckpt_dir / "reference.moel" if workload.reference else None,
                  corpus=corpus, tokens=len(tokens),
                  probe_token=rng.randrange(len(tokens)), setup=done)


# --- output checks -----------------------------------------------------------

def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def snapshot(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): file_sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


def comment_value(path: Path, key: str) -> str:
    prefix = f"# {key}: "
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"{path.name} has no '{key}' comment")


def key_values(out: Path, workload: Workload) -> dict[str, float]:
    """The values compared against expected.json, read from a report's artifacts."""
    values = {}
    for which in ("up", "act", "down"):
        values[f"mean_tau.{which}"] = float(
            comment_value(out / "reorder" / f"reorder-{which}.csv", "mean_tau"))
    for layer in workload.gated_layers:
        values[f"s_ee.layer{layer}"] = float(
            comment_value(out / "avg-out-sim" / f"avg-out-sim-layer{layer}.csv", "s_ee"))
    for line in (out / "act-ratio" / "act-ratio.csv").read_text(encoding="utf-8").splitlines():
        if line.startswith("overall,"):
            values["act_ratio.overall"] = float(line.rsplit(",", 1)[1])
    return values


def check_report(out: Path, workload: Workload, tokens: int, expected: dict | None,
                 first: dict[str, str] | None, digests: dict[str, str]) -> list[str]:
    problems = []
    if expected is not None:
        problems += [f"missing artifact {name}" for name in expected["artifacts"]
                     if name not in digests]
    if first is not None and digests != first:
        changed = sorted(set(first) ^ set(digests)) + sorted(
            n for n in set(first) & set(digests) if first[n] != digests[n])
        problems.append(f"repeat not byte-identical: {changed[:3]}")
    if problems:
        return problems
    try:
        err = float(comment_value(out / "trace" / "trace-consistency.csv", "max_rel_err"))
        if not err <= MAX_REL_ERR:
            problems.append(f"max_rel_err {err} > {MAX_REL_ERR}")
        events = sum(int(comment_value(p, "events"))
                     for p in sorted((out / "norm-rank").glob("*.csv")))
        if events != tokens * len(workload.gated_layers):
            problems.append(f"norm-rank events {events} != "
                            f"{tokens} tokens x {len(workload.gated_layers)} layers")
        if expected is not None:
            values = key_values(out, workload)
            for key, want in expected["values"].items():
                got = values.get(key)
                if got is None or abs(got - want) > VALUE_TOL + VALUE_SLACK:
                    problems.append(f"{key} = {got}, expected {want}")
    except (OSError, ValueError) as exc:
        problems.append(str(exc))
    return problems


def check_probe(out: Path, names: list[str], first: dict[str, str] | None,
                digests: dict[str, str]) -> list[str]:
    problems = [f"missing artifact {n}" for n in names if n not in digests]
    if first is not None and digests != first:
        problems.append("repeat not byte-identical")
    return problems


# --- the command mix ---------------------------------------------------------

class Mix:
    """The report and the two probes of one workload, with their output checks."""

    def __init__(self, runner: Runner, failures: Failures, workload: Workload,
                 inputs: Inputs, expected: dict | None):
        self.runner, self.failures, self.workload = runner, failures, workload
        self.inputs, self.expected = inputs, expected
        self.first: dict[str, dict[str, str]] = {}
        model = ["--model", str(inputs.model)]
        ref = ["--ref", str(inputs.reference)] if inputs.reference else []
        corpus = ["--corpus", str(inputs.corpus)]
        last = workload.gated_layers[-1]
        self.out = {name: runner.work / name for name in ("report", "probe-token", "probe-pca")}
        self.args = {
            "report": ["report", *model, *ref, *corpus, "--out", str(self.out["report"])],
            "probe-token": ["out-sim", *model, *ref, *corpus, "--token",
                            str(inputs.probe_token), "--layer", "all",
                            "--out", str(self.out["probe-token"])],
            "probe-pca": ["pca", *model, "--layer", str(last), "--which", "up",
                          "--level", "neuron", "--eps", str(PCA_EPS),
                          "--out", str(self.out["probe-pca"])],
        }
        stem = f"-token{inputs.probe_token}"
        self.probe_files = {
            "probe-token": [f"out-sim-layer{l}{stem}{ext}" for l in workload.gated_layers
                            for ext in (".csv", ".ppm", ".ppm.range.txt")],
            "probe-pca": [f"pca-layer{last}-up-neuron.csv"],
        }

    def run(self, name: str, spans: Path | None = None) -> Child:
        out = self.out[name]
        shutil.rmtree(out, ignore_errors=True)
        child = self.runner.run(self.args[name], spans)
        if child.code != 0:
            self.failures.record(name, [f"exit code {child.code}"])
            return child
        digests = snapshot(out)
        first = self.first.get(name)
        if first is None:
            self.first[name] = digests
        if name == "report":
            problems = check_report(out, self.workload, self.inputs.tokens, self.expected,
                                    first, digests)
        else:
            problems = check_probe(out, self.probe_files[name], first, digests)
        self.failures.record(name, problems)
        return child


def measure(runner: Runner, mix: Mix, seconds: float) -> dict[str, list[Child]]:
    """Repeat report + probes until the next repeat would overrun ``seconds``."""
    children: dict[str, list[Child]] = {"report": [], "probe-token": [], "probe-pca": []}
    start = time.monotonic()
    rounds: list[float] = []
    while True:
        t0 = time.monotonic()
        for name, runs in children.items():
            runs.append(mix.run(name))
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        next_round = statistics.median(rounds)
        if elapsed + next_round > seconds or runner.time_left() < 2 * next_round:
            return children


# --- traced run --------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    own = [(end - start) / 1e9 for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e9
    return own


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span dumps of one traced pass of the mix."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    steps: dict[str, float] = {}
    n_steps = 0
    files = {"read": [], "written": [], "digested": [], "artifacts": []}
    trace_calls: list[dict] = []
    dbscan_points = 0
    for dump in dumps:
        spans = dump["spans"]
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0 and spans[parent][0] == "cli.report" and name.startswith("cli."):
                steps[name] = steps.get(name, 0.0) + (end - start) / 1e9
                n_steps += 1
        for kind, entries in dump["files"].items():
            files[kind] += entries
        trace_calls += dump["trace_calls"]
        dbscan_points += dump["dbscan_points"]

    def distinct_ratio(entries):
        return len({path for path, _ in entries}) / len(entries) if entries else 0.0

    evals = sum(c["evals"] for c in trace_calls)
    useful = (max((c["tokens"] for c in trace_calls), default=0)
              * max((c["useful_per_token"] for c in trace_calls), default=0))
    gflop = sum(c["evals"] * c["flop_per_eval"] for c in trace_calls) / 1e9
    trace_s = self_s.get("moe_core.trace", 0.0)
    m = {"cli.steps": float(n_steps)}
    for step in REPORT_STEPS:
        m[f"cli.{step}_s"] = steps.get(f"cli.{step}", 0.0)
    m.update({
        "tensor_store.read_s": self_s.get("tensor_store.read", 0.0),
        "tensor_store.parse_s": self_s.get("tensor_store.parse", 0.0),
        "tensor_store.read_calls": float(calls.get("tensor_store.read", 0)),
        "tensor_store.bytes_read": float(sum(size for _, size in files["read"])),
        "tensor_store.useful_read_ratio": distinct_ratio(files["read"]),
        "tensor_store.write_s": self_s.get("tensor_store.write", 0.0),
        "tensor_store.bytes_written": float(sum(size for _, size in files["written"])),
        "report.digest_s": self_s.get("report.digest", 0.0),
        "report.digest_calls": float(calls.get("report.digest", 0)),
        "report.useful_digest_ratio": distinct_ratio(files["digested"]),
        "report.emit_csv_s": self_s.get("report.emit_csv", 0.0),
        "report.emit_heatmap_s": self_s.get("report.emit_heatmap", 0.0),
        "report.artifacts": float(len(files["artifacts"])),
        "report.artifact_bytes": float(sum(size for _, size in files["artifacts"])),
        "moe_core.trace_s": trace_s,
        "moe_core.trace_calls": float(len(trace_calls)),
        "moe_core.tokens_traced": float(sum(c["tokens"] for c in trace_calls)),
        "moe_core.expert_evals": float(evals),
        "moe_core.useful_eval_ratio": useful / evals if evals else 0.0,
        "moe_core.gflop": gflop,
        "moe_core.gflop_per_s": gflop / trace_s if trace_s > 0 else 0.0,
        "moe_core.read_corpus_s": self_s.get("moe_core.read_corpus", 0.0),
    })
    for fn in ("avg_output_sim", "output_sim_per_token", "rank_count_matrix",
               "activation_ratio", "routing_pattern"):
        m[f"dynamic_analysis.{fn}_s"] = self_s.get(f"dynamic_analysis.{fn}", 0.0)
    for stem in ("reorder", "kendall_tau", "assignment", "matrix_level_sim",
                 "neuron_average_sim", "gate_sim", "gate_regression", "pca", "dbscan"):
        m[f"static_analysis.{stem}_s"] = self_s.get(f"static_analysis.{stem}", 0.0)
    m["static_analysis.kendall_tau_calls"] = float(calls.get("static_analysis.kendall_tau", 0))
    m["static_analysis.assignment_calls"] = float(calls.get("static_analysis.assignment", 0))
    m["static_analysis.dbscan_points"] = float(dbscan_points)
    m["synth.generate_s"] = self_s.get("synth.generate", 0.0)
    return m


def load_dump(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def traced_run(runner: Runner, mix: Mix, synth_dump: dict, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced reports, then trace each probe once."""
    probe_dumps = []
    for name in ("probe-token", "probe-pca"):
        path = runner.work / f"spans-{name}.json"
        dump = load_dump(path) if mix.run(name, spans=path).code == 0 else None
        if dump is not None:
            probe_dumps.append(dump)
    start = time.monotonic()
    plain, traced, passes = [], [], []
    while True:
        t0 = time.monotonic()
        plain.append(mix.run("report").wall_s)
        path = runner.work / f"spans-report-{len(traced)}.json"
        child = mix.run("report", spans=path)
        dump = load_dump(path) if child.code == 0 else None
        if dump is not None:
            traced.append(child.wall_s)
            passes.append(layer_metrics([synth_dump, dump, *probe_dumps]))
        pair = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + pair > seconds or runner.time_left() < 2 * pair:
            break
    if not passes:  # every traced report failed; report what the other children did
        return {**layer_metrics([synth_dump, *probe_dumps]), "trace_overhead_frac": 0.0}
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


# --- entry point -------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        sha = probe.stdout.strip() or sha
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k == "MOE_LENS_THREADS"}
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas, "nproc": len(os.sched_getaffinity(0)),
            "thread_env": threads, "children": "MOE_LENS_THREADS unset"}


def load_expected(name: str, input_seed: int) -> dict | None:
    if not EXPECTED.is_file():
        return None
    entry = json.loads(EXPECTED.read_text(encoding="utf-8"))["workloads"].get(name)
    if entry is None or str(input_seed) not in entry["values"]:
        return None
    return {"artifacts": entry["artifacts"], "values": entry["values"][str(input_seed)]}


def bench(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
          expected: dict | None) -> dict | None:
    """One benchmark run; returns the result object, or None if set-up failed."""
    deadline = time.monotonic() + HARD_LIMIT_S
    runner = Runner(work, deadline, sample_speed=not trace)
    failures = Failures()
    synth_spans = work / "spans-synth.json"
    inputs = setup(runner, failures, workload, seed,
                   repeats=1 if trace else SETUP_REPEATS,
                   traced=synth_spans if trace else None)
    if inputs is None:
        return None
    mix = Mix(runner, failures, workload, inputs, expected)
    if trace:
        synth_dump = load_dump(synth_spans) or {"spans": [], "files": {}, "trace_calls": [],
                                                "dbscan_points": 0}
        layer = traced_run(runner, mix, synth_dump, seconds)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        metrics["fail_ratio"] = {"value": len(failures.reasons) / failures.attempted,
                                 "unit": "1"}
    else:
        children = measure(runner, mix, seconds)
        timed = {"report_s": children["report"], "probe_token_s": children["probe-token"],
                 "probe_pca_s": children["probe-pca"], "setup_s": inputs.setup}
        values = {k: trimmed_mean([c.reference_s for c in runs]) for k, runs in timed.items()}
        values["setup_s"] = statistics.median(c.reference_s for c in inputs.setup)
        values["report_rss_mb"] = statistics.median(c.rss_mb for c in children["report"])
        values["probe_rss_mb"] = statistics.median(
            max(token.rss_mb, pca.rss_mb)
            for token, pca in zip(children["probe-token"], children["probe-pca"]))
        raw = {k: statistics.median(c.wall_s for c in runs) for k, runs in timed.items()}
        raw["chunk_s"] = statistics.median(
            t for runs in timed.values() for c in runs for t in c.chunks)
        print("raw " + json.dumps(raw))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    return {"correct": not failures.reasons, "attempted": failures.attempted,
            "failed": len(failures.reasons), "metrics": metrics}


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest TRIM of the values."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.mean(values[cut:len(values) - cut])


UNIT_SUFFIXES = (("gflop_per_s", "GFLOP/s"), ("gflop", "GFLOP"), ("_s", "s"), ("_mb", "MB"),
                 ("bytes_read", "B"), ("bytes_written", "B"), ("_bytes", "B"),
                 ("_ratio", "1"), ("_frac", "1"))


def unit_of(metric: str) -> str:
    return next((unit for suffix, unit in UNIT_SUFFIXES if metric.endswith(suffix)), "count")


def record(work: Path) -> None:
    """Rewrite expected.json from one report per workload and input seed."""
    table = {}
    for name, workload in WORKLOADS.items():
        entry = {"artifacts": None, "values": {}}
        for input_seed in range(INPUT_SEEDS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            runner = Runner(work, time.monotonic() + HARD_LIMIT_S, sample_speed=False)
            failures = Failures()
            inputs = setup(runner, failures, workload, input_seed, repeats=1)
            if inputs is None:
                raise SystemExit(f"record {name} seed {input_seed}: {failures.reasons}")
            mix = Mix(runner, failures, workload, inputs, None)
            mix.run("report")
            if failures.reasons:
                raise SystemExit(f"record {name} seed {input_seed}: {failures.reasons}")
            out = mix.out["report"]
            if entry["artifacts"] is None:
                entry["artifacts"] = sorted(snapshot(out))
            entry["values"][str(input_seed)] = key_values(out, workload)
            print(f"recorded {name} seed {input_seed}", file=sys.stderr)
        table[name] = entry
    blob = {"input_seeds": INPUT_SEEDS, "tolerance": VALUE_TOL, "workloads": table}
    EXPECTED.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json instead of benchmarking")
    args = parser.parse_args()
    if not (ROOT / "src" / "moe_lens" / "cli.py").is_file():
        print(f"error: no moe-lens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload or 'record'}-{args.seed}-{os.getpid()}"
    if args.record:
        try:
            record(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    input_seed = args.seed % INPUT_SEEDS
    expected = load_expected(args.workload, input_seed)
    if expected is None:
        print(f"error: expected.json has no entry for {args.workload} seed {input_seed}",
              file=sys.stderr)
        return 2
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(WORKLOADS[args.workload], input_seed, args.seconds, bool(args.trace),
                       work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        print("error: set-up failed: moe-lens synth did not run", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(), sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"metric {key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
