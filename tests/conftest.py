"""Shared fixtures and helpers plus a terminal summary line per acceptance criterion."""

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moe_lens
from moe_lens import ModelConfig
from moe_lens.synth import SynthSpec, synth_scratch

_ACCEPTANCE_RESULTS: dict[str, str] = {}
_ACCEPTANCE_PAT = re.compile(r"test_acceptance\.py::test_(c\d+)_(\w+)")


@pytest.fixture
def small_config():
    return ModelConfig(num_layers=2, experts_per_layer=[4, 4], num_shared=[0, 0],
                       top_k=2, d_hid=8, d_mid=12, vocab=17)


@pytest.fixture
def small_checkpoint(small_config):
    return synth_scratch(SynthSpec(config=small_config, mode="scratch", seed=123))


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)


def cosine_ref(u, v):
    """Cosine of two flat sequences by plain Python sums, apart from the
    implementation."""
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def kendall_ref(a, b):
    """Kendall's tau by exhaustive pair counting, kept separate from the
    implementation."""
    n = len(a)
    concordant = discordant = 0
    for i, j in itertools.combinations(range(n), 2):
        agree = (a[i] < a[j]) == (b[i] < b[j])
        if agree:
            concordant += 1
        else:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) // 2)


def write_corpus(path, sequences):
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(str(t) for t in seq) + "\n")


# Python source, for ``run_isolated``, naming the scipy modules loaded so far.
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_isolated(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this ``moe_lens``, so
    what it imports is not masked by modules other tests loaded here."""
    src = Path(moe_lens.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _ACCEPTANCE_PAT.search(report.nodeid)
    if m:
        _ACCEPTANCE_RESULTS[f"{m.group(1)} {m.group(2)}"] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{word}] {name.replace('_', ' ')}")
