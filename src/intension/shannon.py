"""Entropies, mutual information, and the Shannon inheritance estimate.

All quantities are base-2 (bits), computed exactly from a WorldModel's
marginal tables. The mutual information of a concept pair is read off its
four-cell joint as a sum of nonnegative terms (see `_mutual_information`),
never as H(F) + H(W) - H(F,W), whose terms cancel near independence. The
multivariate interaction measure uses the McGill inclusion-exclusion
convention over subset entropies, anchored so that two variables give
ordinary nonnegative mutual information and the 3-variable parity (XOR)
world gives -1 bit; its lattice is the one part that needs numpy, in
`intension.lattice`.

The inheritance estimate P(W)*2**I(F;W) comes from a uniformity
simplification and is not a probability in general; it is reported
unclamped, next to the exact conditional, so the failure mode is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SubsetTooLarge
from .model import (  # noqa: F401 -- bench/spans.py traces joint_event_probability here
    Concept,
    WorldModel,
    check_degree,
    degree_mismatches,
    joint_event_probability,
    pair_joint,
)

MAX_LATTICE_VARS = 12
INTERACTION_CONVENTION = "McGill-inclusion-exclusion"
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves of at most 26 bits
_SERIES_LIMIT = 0.5  # below this |e|, phi(e) is its power series; the log form would lose up to 4 bits there
_SERIES = tuple(1.0 / (k * (k - 1)) for k in range(2, 59))  # its coefficients, to past 2**-56 at |e| = 0.5
_LN2 = math.log(2.0)


def binary_entropy(d: float) -> float:
    """Entropy in bits of a binary variable with success probability d."""
    d = check_degree(d)
    if d == 0.0 or d == 1.0:
        return 0.0
    return -(d * math.log2(d) + (1.0 - d) * math.log2(1.0 - d))


def concept_pair_entropies(f: Concept, w: Concept, world: WorldModel) -> tuple[float, float, float]:
    """(H(F), H(W), H(F,W)) of the two concept-event indicator variables; the score reads `_mutual_information`."""
    joint = pair_joint(f, w, world)
    # cell sums can drift a hair past 1 in float; clamp before validating
    h_f, h_w = binary_entropy(min(1.0, joint[2] + joint[3])), binary_entropy(min(1.0, joint[1] + joint[3]))
    return h_f, h_w, 0.0 - math.fsum(p * math.log2(p) for p in joint if p > 0.0)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, err): p = fl(a*b) and p + err = a*b exactly (Dekker), unless err falls below the normal range."""
    p, a_hi, b_hi = a * b, _SPLITTER * a - (_SPLITTER * a - a), _SPLITTER * b - (_SPLITTER * b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _q_phi(q: float, d: float, p: float) -> float:
    """q * phi(d / q), phi(e) = (1 + e) ln(1 + e) - e >= 0, where p = q + d >= 0 is the cell; q when it is empty.

    Near e = 0 phi is e**2 times the sum over k >= 2 of (-e)**(k-2) / (k (k-1)), by Horner's rule to a term below
    2**-56; further out it is p * ln(p / q) - d, from the cell itself, so a cell much below q keeps its digits.
    """
    if p == 0.0:
        return q
    e = d / q
    if abs(e) >= _SERIES_LIMIT:  # e rounded to -1 or past, or overflowed by a subnormal q: ln p - ln q cannot cancel
        product, error = _two_product(p, math.log1p(e) if -1.0 < e < math.inf else math.log(p) - math.log(q))
        return (product - d) + error
    series, last = 0.0, int(56 * _LN2 / -math.log(abs(e))) if e else 0  # |e| ** (last + 1) <= 2**-56
    for coefficient in _SERIES[last::-1]:
        series = coefficient - e * series
    return q * (e * e * series)


def _mutual_information(joint: Sequence[float]) -> float:
    """I(F;W) in bits of a four-cell joint (index 2*f + w), normalized by its sum T, as a sum of terms >= 0.

    With q the product of a cell's row and column sums, T times the cell is q + c on the diagonal and q - c off it,
    where c = p11*p00 - p10*p01, from error-free products and rounded once. So MI * ln 2 * T**2 is the sum over the
    cells of q * phi(+-c / q), and nothing cancels. A row's terms take q and c over the row sum, then are scaled by
    it, so no q is formed that could underflow.
    """
    p00, p01, p10, p11 = joint
    rows, columns = (p00 + p01, p10 + p11), (p00 + p10, p01 + p11)
    total = rows[0] + rows[1]
    high, high_err = _two_product(p11, p00)
    low, low_err = _two_product(p10, p01)
    c = (high - low) + (high_err - low_err)
    mi = 0.0
    for i, row in enumerate(rows):
        if row > 0.0:  # else both cells of the row are empty, and c is 0
            d, terms = c / row, 0.0
            for j, column in enumerate(columns):
                if column > 0.0:
                    terms += _q_phi(column, d if i == j else -d, joint[2 * i + j] * total / row)
            mi += row * terms
    return mi / (total * total) / _LN2


@dataclass(frozen=True)
class InteractionReport:
    """Multivariate interaction value for a set of property variables."""

    subset: tuple[str, ...]
    value: float
    convention = INTERACTION_CONVENTION  # a class attribute: no caller sets it


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
    from . import lattice

    terms = lattice._lattice_terms(world.marginal_table(ids), t)
    return InteractionReport(subset=tuple(sorted(ids)), value=math.fsum(terms))


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
    mismatches: tuple[str, ...]

    @property
    def estimate_exceeds_one(self) -> bool:
        return self.estimate_conditional > 1.0


def shannon_inheritance(f: Concept, w: Concept, world: WorldModel) -> ShannonInheritance:
    """Score how strongly membership in f predicts membership in w.

    `mismatches` describes every declared degree that disagrees with the
    world marginal beyond 1e-6; the world always wins. When P(f) = 0 the
    exact conditional and the discrepancy are None. Reads the declared
    degrees' marginals in one pass and one 8-cell joint, however wide the pair.
    """
    joint = pair_joint(f, w, world)  # first, so an unknown property raises before any degree is checked
    p_f = min(1.0, joint[2] + joint[3])
    p_w = min(1.0, joint[1] + joint[3])
    mi = _mutual_information(joint)
    estimate = p_w * 2.0 ** mi
    exact = min(1.0, joint[3]) / p_f if p_f else None
    return ShannonInheritance(
        mutual_information=mi,
        exact_conditional=exact,
        estimate_conditional=estimate,
        prior=p_w,
        discrepancy=None if exact is None else estimate - exact,
        mismatches=tuple(degree_mismatches((f, w), world)),
    )
