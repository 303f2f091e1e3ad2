"""Per-atom reference for urnlab.oracle: one atom, one track, one colour at a time.

This is the enumerator and the two martingale checks as they were before
each level became whole-array numpy calls.  The tests compare the library
against it bit for bit, so every expression keeps its original evaluation
order.  Argument validation lives in the library and is not repeated here.
"""
from __future__ import annotations

from itertools import islice

import numpy as np

from urnlab import pi_n

_MERGE_DECIMALS = 12


def levels(spec, n):
    """Yield merged (composition, probability) atoms for levels 0..n."""
    rows = spec.matrix
    level = {
        tuple(np.round(spec.initial, _MERGE_DECIMALS)): (spec.initial.copy(), 1.0)
    }
    yield list(level.values())
    for _ in range(n):
        nxt = {}
        for counts, prob in level.values():
            total = counts.sum()
            children = counts + rows
            keys = np.round(children, _MERGE_DECIMALS).tolist()
            for color in range(spec.colors):
                if counts[color] <= 0.0:
                    continue
                key = tuple(keys[color])
                p = prob * counts[color] / total
                if key in nxt:
                    nxt[key] = (nxt[key][0], nxt[key][1] + p)
                else:
                    nxt[key] = (children[color], p)
        level = nxt
        yield list(level.values())


def distribution(spec, n):
    """Sorted [(counts tuple, probability)] after n draws."""
    for level in levels(spec, n):
        final = level
    atoms = [(tuple(float(x) for x in counts), float(prob)) for counts, prob in final]
    atoms.sort(key=lambda atom: atom[0])
    return atoms


def mean_linear(spec, vector, n):
    """E[C_n . v] summed atom by atom over the sorted atoms."""
    v = np.asarray(vector, dtype=float)
    atoms = distribution(spec, n)
    return float(sum(prob * (np.array(counts) @ v) for counts, prob in atoms))


def conditional_variance(spec, tracks, n):
    """Max gap in the one-step second-moment identity over (v, a) tracks,
    each divided by max|v|**2."""
    pis = {(a, k): pi_n(a, k) for _, a in tracks for k in range(n + 1)}
    rows = spec.matrix
    worst = 0.0
    for k, level in enumerate(islice(levels(spec, n), n)):
        for counts, _ in level:
            total = counts.sum()
            for v, a in tracks:
                cv = counts @ v
                cv2 = counts @ (v * v)
                z_now = cv / pis[(a, k)]
                lhs = 0.0
                for color in range(spec.colors):
                    if counts[color] <= 0.0:
                        continue
                    child = counts + rows[color]
                    dz = (child @ v) / pis[(a, k + 1)] - z_now
                    lhs += counts[color] / total * dz * dz
                rhs = (
                    a
                    * a
                    / pis[(a, k + 1)] ** 2
                    * (cv2 / (k + 1.0) - (cv / (k + 1.0)) ** 2)
                )
                peak = float(np.abs(v).max())
                worst = max(worst, abs(lhs - rhs) / (peak * peak))
    return worst


def compensated(spec, t_gen, t_top, a, n):
    """Max one-step martingale gap of the compensated generalized track."""
    pis = [pi_n(a, k) for k in range(n + 1)]
    rows = spec.matrix
    worst = 0.0
    for m, level in enumerate(islice(levels(spec, n), n)):
        for counts, _ in level:
            total = counts.sum()
            x_now = counts @ t_gen / pis[m]
            inc = (counts @ t_top) / ((m + 1.0) * pis[m + 1])
            expect = 0.0
            for color in range(spec.colors):
                if counts[color] <= 0.0:
                    continue
                child = counts + rows[color]
                expect += counts[color] / total * (child @ t_gen / pis[m + 1] - inc)
            worst = max(worst, abs(expect - x_now))
    return worst
