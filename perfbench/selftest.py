"""Self-test of the benchmark harness on a tiny workload; runs in about a minute.

Usage (from the repository root): python3 perfbench/selftest.py

It checks that a run reports every metric BENCHMARK.json declares, with its
unit; that a truncated checkpoint is counted as failed without crashing the
harness; that the traced run sees the report's trace calls; and that the
benchmark refuses to run where the moe-lens sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

# A dense first layer, shared experts, softmax-then-top-k, gelu and no
# reference: the paths the benchmark's own workloads leave out.
TINY = run.Workload(
    synth=("--mode", "scratch", "--layers", "3", "--experts", "1,6,6", "--shared", "0,1,1",
           "--top-k", "2", "--gating-order", "softmax_then_topk", "--activation", "gelu",
           "--d-hid", "8", "--d-mid", "16", "--vocab", "32"),
    tokens=40, vocab=32, reference=False, gated_layers=(1, 2))


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_plain(work: Path) -> None:
    result = run.bench(TINY, seed=1, seconds=1, trace=False, work=work, expected=None)
    check(result["failed"] == 0 and result["correct"], "tiny run has no failures")
    check(units(result) == declared("end_to_end"),
          "every end-to-end metric is reported with its declared unit")
    check(all(m["value"] > 0 for m in result["metrics"].values()),
          "every end-to-end metric is positive")


def test_truncated(work: Path) -> None:
    original = run.setup

    def truncating_setup(*args, **kwargs):
        inputs = original(*args, **kwargs)
        blob = inputs.model.read_bytes()
        inputs.model.write_bytes(blob[:len(blob) // 2])
        return inputs

    run.setup = truncating_setup
    try:
        plain = run.bench(TINY, seed=1, seconds=1, trace=False, work=work, expected=None)
        traced = run.bench(TINY, seed=1, seconds=1, trace=True, work=work, expected=None)
    finally:
        run.setup = original
    check(plain["failed"] > 0 and not plain["correct"],
          f"truncated checkpoint counts as failed ({plain['failed']}/{plain['attempted']})")
    check(traced["metrics"]["fail_ratio"]["value"] > 0,
          "truncated checkpoint raises fail_ratio in the traced run")


def test_traced(work: Path) -> None:
    result = run.bench(TINY, seed=1, seconds=1, trace=True, work=work, expected=None)
    check(result["failed"] == 0, "traced tiny run has no failures")
    check(units(result) == declared("per_layer"),
          "every per-layer metric is reported with its declared unit")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    check(metrics["moe_core.trace_calls"] >= 1, "traced report calls trace_all_experts")
    check(metrics["cli.steps"] >= 1, "traced report runs its steps through run_command")


def test_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "trace-long", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the moe-lens sources the benchmark fails and prints no result")


def main() -> int:
    work = run.ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        for test in (test_plain, test_truncated, test_traced, test_without_sources):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            test(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
