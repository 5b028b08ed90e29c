"""Fixed reference work that the benchmark times to measure a CPU's current speed.

Usage: python3 perfbench/calibrate.py   # prints the median time of one chunk

A chunk does what the forward engine does, on inputs that never change: route
and evaluate small experts one vector at a time in a Python loop.  Its code is
the benchmark's own, so a change to moe-lens cannot move its time; a slower or
busier CPU does.  run.py times a chunk on a running child's CPU while the
child is stopped, and divides the child's time by the chunk times.
"""

import statistics
import time

import numpy as np
import scipy.special

ROUNDS = 250

_rng = np.random.default_rng(0)
W_UP = _rng.standard_normal((64, 32))
W_DOWN = _rng.standard_normal((32, 64))
W_GATE = _rng.standard_normal((8, 32))
X = _rng.standard_normal(32)


def time_chunk() -> float:
    """Wall time of one chunk of the reference work, in seconds."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(ROUNDS):
        h = X / np.sqrt(np.mean(X * X) + 1e-6)
        for n in np.argsort(-(W_GATE @ h), kind="stable")[:2]:
            up = W_UP @ h
            y = W_DOWN @ (up * scipy.special.expit(up))
            total += float(y[n % 32])
    return time.perf_counter() - start


if __name__ == "__main__":
    print(f"{statistics.median(time_chunk() for _ in range(200)):.6f}")
