"""Entropies, mutual information, and the Shannon inheritance estimate.

All quantities are base-2 (bits), computed exactly from a WorldModel's
marginal tables. Every table entropy goes through one kernel, -sum p*log2(p)
over each row of cells, where a zero cell adds 0*log2(0) = 0 in place: it
is summed like any other cell, never dropped. The multivariate interaction
measure uses the McGill inclusion-exclusion convention over subset
entropies, anchored so that two variables give ordinary nonnegative mutual
information and the 3-variable parity (XOR) world gives -1 bit.

The inheritance estimate P(W)*2**I(F;W) comes from a uniformity
simplification and is not a probability in general; it is reported
unclamped, next to the exact conditional, so the failure mode is visible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import SubsetTooLarge
from .model import (  # noqa: F401 -- bench/spans.py traces joint_event_probability here
    Concept,
    DegreeMismatchWarning,
    WorldModel,
    check_degree,
    degree_mismatches,
    joint_event_probability,
    pair_joint,
)

MAX_LATTICE_VARS = 12
_CHUNK = 1 << 16  # cells per scratch array in the lattice entropies
INTERACTION_CONVENTION = "McGill-inclusion-exclusion"


def binary_entropy(d: float) -> float:
    """Entropy in bits of a binary variable with success probability d."""
    d = check_degree(d)
    if d == 0.0 or d == 1.0:
        return 0.0
    return -(d * math.log2(d) + (1.0 - d) * math.log2(1.0 - d))


def _pair_entropies(joint: np.ndarray) -> tuple[float, float, float]:
    # cell sums can drift a hair past 1 in float; clamp before validating
    h_f = binary_entropy(min(1.0, float(joint[2] + joint[3])))
    h_w = binary_entropy(min(1.0, float(joint[1] + joint[3])))
    return h_f, h_w, float(_entropy(joint))


def concept_pair_entropies(f: Concept, w: Concept, world: WorldModel) -> tuple[float, float, float]:
    """(H(F), H(W), H(F,W)) of the two concept-event indicator variables."""
    return _pair_entropies(pair_joint(f, w, world))


@dataclass(frozen=True)
class InteractionReport:
    """Multivariate interaction value for a set of property variables."""

    subset: tuple[str, ...]
    value: float
    convention: str = INTERACTION_CONVENTION


def interaction_information(vars: Iterable[str], world: WorldModel) -> InteractionReport:
    """McGill interaction information over the given property variables.

    value = sum over nonempty T subseteq vars of (-1)**(|T|+1) * H(T).
    Two variables reduce to their mutual information; the 3-variable
    parity world scores -1 bit.
    """
    ids = list(dict.fromkeys(vars))
    t = len(ids)
    if t < 2:
        raise ValueError(f"interaction needs at least two variables, got {t}")
    if t > MAX_LATTICE_VARS:
        raise SubsetTooLarge(f"{t} variables exceeds the lattice cap of {MAX_LATTICE_VARS}")
    return InteractionReport(subset=tuple(sorted(ids)), value=math.fsum(_lattice_terms(world.marginal_table(ids), t)))


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


@dataclass(frozen=True)
class ShannonInheritance:
    """Exact conditional next to the mutual-information estimate.

    estimate_conditional = prior * 2**mutual_information; it can exceed 1
    when the uniformity simplification behind it fails, and is deliberately
    not clamped. exact_conditional and discrepancy are None when P(F) = 0:
    P(W|F) is undefined there, while I(F;W), the prior and the estimate are not.
    """

    mutual_information: float
    exact_conditional: float | None
    estimate_conditional: float
    prior: float
    discrepancy: float | None

    @property
    def estimate_exceeds_one(self) -> bool:
        return self.estimate_conditional > 1.0


def shannon_inheritance(f: Concept, w: Concept, world: WorldModel) -> ShannonInheritance:
    """Score how strongly membership in f predicts membership in w.

    Emits DegreeMismatchWarning for every declared degree that disagrees
    with the world marginal beyond 1e-6; the world always wins. When
    P(f) = 0 the exact conditional and the discrepancy are None. Reads one
    marginal per declared degree and one 8-cell joint, however wide the pair.
    """
    joint = pair_joint(f, w, world)  # first, so an unknown property raises before any warning
    for message in degree_mismatches(f, world) + degree_mismatches(w, world):
        warnings.warn(message, DegreeMismatchWarning, stacklevel=2)
    p_f = min(1.0, float(joint[2] + joint[3]))
    p_w = min(1.0, float(joint[1] + joint[3]))
    mi = binary_entropy(p_f) + binary_entropy(p_w) - float(_entropy(joint))
    estimate = p_w * 2.0 ** mi
    exact = min(1.0, float(joint[3])) / p_f if p_f else None
    return ShannonInheritance(
        mutual_information=mi,
        exact_conditional=exact,
        estimate_conditional=estimate,
        prior=p_w,
        discrepancy=None if exact is None else estimate - exact,
    )
