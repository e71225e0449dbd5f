"""The numpy side of the package: dense tables, and the interaction lattice folded a level at a time.

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

    A row world's cells come from one weighted np.bincount, which adds each row's weight in row order as `_kept` does;
    each row's key is read off its mask bytes through one 256-entry lookup per byte that holds a requested property.
    """
    if world._rows is None:
        table = np.array([1.0])
        for pos in positions:
            mu = world._marginals[pos]
            table = np.concatenate((table * (1.0 - mu), table * mu))
        return table
    masks, weights, _ = world._rows
    masks = np.frombuffer(masks, dtype=np.int64).view(np.uint8).reshape(-1, 8)
    key = np.zeros(len(masks), dtype=np.int64)
    for byte in sorted({pos >> 3 for pos in positions}):  # one lookup per mask byte: value -> its bits of the key
        lookup = sum((np.arange(256) >> (pos & 7) & 1) << j for j, pos in enumerate(positions) if pos >> 3 == byte)
        key |= lookup.take(masks[:, byte if np.little_endian else 7 - byte])
    return np.bincount(key, np.frombuffer(weights), minlength=1 << len(positions))


def _lattice_terms(table: np.ndarray, t: int) -> list[float]:
    """(-1)**(|T|+1) * H(T) for every nonempty subset T of the bits of a 2**t table, in no particular order.

    The lattice is walked level by level: level L is one C(t, L) x 2**(t-L) block of the tables with L bits folded,
    its rows ordered by their lowest folded bit, highest first. The rows that may still fold bit j (all their folded
    bits above j) are then its first C(t-1-j, L) rows, and folding bit j of them, for each j from high to low, builds
    level L+1. Each subset's bits are thus folded high to low as in the reference `marginalize` of tests/oracles.py.
    Level L's block is summed as rows by `_entropy`, zero cells in place, before level L+2 overwrites it: one buffer
    of two adjacent blocks (1.83 MiB at t=12) serves every level. numpy sums a row exactly as it sums that row alone:
    each H(T) is the same float as `_entropy` of the direct marginal. The caller sums the terms exactly.
    """
    sizes = [math.comb(t, folded) << (t - folded) for folded in range(t + 1)]
    buf = np.empty(max(map(sum, zip(sizes, sizes[1:]))))  # two adjacent levels: odd ones at the end, even at the start
    level, terms = table.reshape(1, -1), []
    for folded in range(t):
        cells = 1 << (t - folded)
        sign, step = (-1.0) ** (t - folded + 1), max(1, _CHUNK // cells)
        terms += [sign * _entropy(level[first : first + step]) for first in range(0, len(level), step)]
        below = (buf[-sizes[folded + 1] :] if folded % 2 == 0 else buf[: sizes[folded + 1]]).reshape(-1, cells // 2)
        for bit in reversed(range(t - folded)):  # the rows of higher bits come first: C(t-1-bit, folded+1) of them
            at, rows = math.comb(t - 1 - bit, folded + 1), math.comb(t - 1 - bit, folded)
            _fold(level[:rows], bit, below[at : at + rows])
        level = below
    return np.concatenate(terms).tolist()


def _fold(block: np.ndarray, bit: int, out: np.ndarray) -> None:
    """Write into out each row of block with bit `bit` summed out: one add of the two cells of every pair."""
    if 0 < bit < 4:
        # runs of 2, 4 or 8 cells, too short for a ufunc call each: 1, 2 or 4 complex128 added position by position
        run = 1 << (bit - 1)
        halves = block.view(np.complex128).reshape(-1, 2, run).T
        np.add(halves[:, 0], halves[:, 1], out=out.view(np.complex128).reshape(-1, run).T, order="C")
    else:  # at bit 0 numpy drops the runs' axis of 1: one add of two strided halves
        halves = block.reshape(-1, 2, 1 << bit)
        np.add(halves[:, 0], halves[:, 1], out=out.reshape(-1, 1 << bit))


def _entropy(probs: np.ndarray) -> np.ndarray:
    """-sum of p*log2(p) along the last axis, where a zero cell adds 0*log2(0) = 0 in place."""
    plogp = np.maximum(probs, math.ulp(0.0))  # a zero cell reads as 5e-324: log2 is -1074, and 0 * -1074 adds -0.0
    np.log2(plogp, out=plogp)
    plogp *= probs
    return -plogp.sum(axis=-1)
