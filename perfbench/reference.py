"""A fixed reference run that measures how fast the machine is now.

    python3 perfbench/reference.py

On a shared host one process's speed drifts by a fifth or more over
minutes, so a workload's wall time alone says as much about the neighbours
as about urnlab.  run.py runs this script as a fresh process, the way it
runs the workloads, before the first run and after each run; each run's
wall time is then divided by the mean of the two reference times on either
side of it.

The computation imports numpy but nothing from urnlab, so no change to
urnlab can move it.  It does the two kinds of work that dominate the
workloads, in about equal parts: urn draw steps over a whole ensemble
(numpy calls on ensemble-sized arrays in a Python loop, like the draw
kernel) and a depth-first walk over every draw sequence of a four-colour
urn (numpy calls on four-element arrays, like the oracle's tree walk).
perfbench/README.md says what else was tried and how well each tracked the
workloads.
"""
from __future__ import annotations

import sys

import numpy as np

# About 0.2 s and 0.3 s on an unloaded 2.1 GHz Xeon vCPU; 0.6 s in all
# with interpreter start-up.
STEPS = 800
DEPTH = 8

_RNG = np.random.default_rng(20071009)
_COUNTS = _RNG.random((4000, 3)) + 1.0
_UNIFORMS = _RNG.random(STEPS)
_ROWS = np.eye(3)
_ROWS4 = np.array([[3.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0],
                   [0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 1.0, 3.0]]) / 4.0
_TRACK = _RNG.random(4)


def draw_steps() -> float:
    """One urn draw per step for every member of an ensemble."""
    counts = _COUNTS.copy()
    for t in range(STEPS):
        cum = np.cumsum(counts, axis=1)
        scaled = _UNIFORMS[t] * cum[:, -1]
        colors = np.count_nonzero(cum[:, :-1] <= scaled[:, None], axis=1)
        counts += _ROWS[colors]
    return float(counts.sum())


def tree_walk() -> float:
    """Depth-first over every draw sequence of a four-colour urn."""
    stack = [(np.ones(4), 0, 0.0)]
    worst = 0.0
    while stack:
        counts, m, comp = stack.pop()
        if m == DEPTH:
            continue
        total = counts.sum()
        x_now = counts @ _TRACK / (m + 1.0) - comp
        comp_child = comp + (counts @ _TRACK) / (m + 2.0)
        expect = 0.0
        for color in range(4):
            child = counts + _ROWS4[color]
            expect += counts[color] / total * (child @ _TRACK / (m + 2.0) - comp_child)
            stack.append((child, m + 1, comp_child))
        worst = max(worst, abs(expect - x_now))
    return worst


def main() -> int:
    print(f"reference ok {draw_steps():.6g} {tree_walk():.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
