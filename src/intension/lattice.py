"""The numpy side of the package: dense tables and the interaction lattice.

Only `WorldModel.marginal_table`, `WorldModel.probs` and
`shannon.interaction_information` import this module, inside their bodies,
so `score`, `exclusive` and `extensional` never load numpy. A table holds
the same floats as the `WorldModel._kept` query of the same properties.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import NORMALIZATION_TOL, WorldModel, _checked_total

_CHUNK = 1 << 16  # cells per scratch array in the lattice entropies


def marginal_table(world: WorldModel, positions: Sequence[int]) -> np.ndarray:
    """P of each pattern of the given properties, bit j for positions[j]."""
    table = _weights(world, positions)
    if world._rows is not None:
        table /= world._rows[2]  # after summing raw weights, and in place: a request for every property is 2**s cells
    return table


def dense_probs(world: WorldModel) -> np.ndarray:
    """The read-only table of all 2**s cells, normalized by its own sum."""
    weights = _weights(world, range(len(world.universe)))
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    probs = weights / _checked_total(total)
    probs.setflags(write=False)
    assert abs(float(probs.sum()) - 1.0) <= NORMALIZATION_TOL
    return probs


def _weights(world: WorldModel, positions: Sequence[int]) -> np.ndarray:
    """A product world's table, numpy's product of each (1 - mu, mu) from [1.0]; a row world's raw weights.

    A row world's cells come from one weighted np.bincount, which adds each row's weight in row order as `_kept` does.
    """
    if world._rows is None:
        table = np.array([1.0])
        for pos in positions:
            mu = world._marginals[pos]
            table = np.concatenate((table * (1.0 - mu), table * mu))
        return table
    masks, weights, _ = world._rows
    masks = np.frombuffer(masks, dtype=np.int64)
    key = np.zeros(len(masks), dtype=np.int64)
    for j, pos in enumerate(positions):
        key |= (masks >> pos & 1) << j
    return np.bincount(key, np.frombuffer(weights), minlength=1 << len(positions))


def _lattice_terms(table: np.ndarray, t: int) -> list[float]:
    """(-1)**(|T|+1) * H(T) for every nonempty subset T of the bits of a 2**t table, in no particular order.

    One 3**t buffer (4 MiB at t=12) holds the lattice level by level: level L is one C(t, L) x 2**(t-L) block of the
    tables with L bits folded, its rows ordered by their lowest folded bit, highest first. The tables that may still
    fold bit j (all their folded bits above j) are then a prefix of each level, so at bit j one reshape per level
    halves them and appends the halves to the next level. Each subset's bits are folded high to low as in the
    reference `marginalize` of tests/oracles.py. Each level's block is then summed as rows by `_entropy`, zero cells
    in place, and numpy sums a row exactly as it sums that row alone: each H(T) is the same float as `_entropy` of
    the direct marginal. The caller sums the terms exactly.
    """
    rows = [math.comb(t, level) for level in range(t + 1)]
    starts = np.cumsum([0] + [r << (t - level) for level, r in enumerate(rows)]).tolist()
    buf, filled = np.empty(3**t), [1] + [0] * t
    buf[: 1 << t] = table
    for bit in reversed(range(t)):
        for level in reversed(range(t - bit)):
            n, at = filled[level] << (t - level), starts[level + 1] + (filled[level + 1] << (t - level - 1))
            # below bit 4 a run of 2**bit cells is too short for a ufunc loop call each: loop down the runs instead
            halves = buf[starts[level] : starts[level] + n].reshape(-1, 2, 1 << bit).T
            out = buf[at : at + n // 2].reshape(-1, 1 << bit).T
            np.add(halves[:, 0], halves[:, 1], out=out, order="C" if bit < 4 else "K")
            filled[level + 1] += filled[level]
    terms = []
    for level in range(t):
        block = buf[starts[level] : starts[level + 1]].reshape(rows[level], -1)
        sign, step = (-1.0) ** (t - level + 1), max(1, _CHUNK >> (t - level))
        terms += [sign * _entropy(block[first : first + step]) for first in range(0, rows[level], step)]
    return np.concatenate(terms).tolist()


def _entropy(probs: np.ndarray) -> np.ndarray:
    """-sum of p*log2(p) along the last axis, where a zero cell adds 0*log2(0) = 0 in place."""
    plogp = np.maximum(probs, math.ulp(0.0))  # a zero cell reads as 5e-324: log2 is -1074, and 0 * -1074 adds -0.0
    np.log2(plogp, out=plogp)
    plogp *= probs
    return -plogp.sum(axis=-1)
