"""Analytic special cases: mutually exclusive properties and pure extensions.

When every property is mutually exclusive and uniformly weighted, both
scoring frameworks collapse to elementary formulas over the counts
(n, m, k): the exact conditional is k/n, while the complexity-based
estimate lands at (m/s)*(k/n). The two disagree unless k = n; the gap is
exposed here as framework_discrepancy rather than silently resolved, and
the exact conditional is what the enumeration engine reproduces.

Extensional inheritance (instance-set overlap) is the further special case
where each property is a singleton instance; singleton_reduction_check
verifies the reduction numerically against the enumeration engine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import EmptyAntecedent, ZeroOverlap
from .model import Concept, ExclusiveCaseParams, check_universe, world_from_instances
from .shannon import shannon_inheritance


def exclusive_shannon(params: ExclusiveCaseParams) -> float:
    """Exact conditional in the exclusive case: k/n."""
    return params.k / params.n


def exclusive_algorithmic(params: ExclusiveCaseParams) -> tuple[float, float]:
    """(mutual information, conditional) in the complexity framework.

    Mutual information is log2(k/n) bits and the conditional is
    (m/s)*(k/n). Undefined for k = 0 (the log diverges); that case raises
    ZeroOverlap so callers can report an explicit no-overlap flag instead
    of a non-finite number.
    """
    if params.k == 0:
        raise ZeroOverlap("mutual information diverges with no shared properties")
    ratio = params.k / params.n
    # log2 of the rounded ratio keeps every digit; where the ratio underflows (n past
    # about 1e308) the difference of logs stays finite and has no digits to cancel
    mi = math.log2(ratio) if ratio >= sys.float_info.min else math.log2(params.k) - math.log2(params.n)
    conditional = (params.m / params.s) * ratio
    return mi, conditional


def framework_discrepancy(params: ExclusiveCaseParams) -> float:
    """exclusive_shannon minus the exclusive_algorithmic conditional.

    Equals (k/n)*(1 - m/s); zero exactly when k = n.
    """
    return exclusive_shannon(params) - exclusive_algorithmic(params)[1]


@dataclass(frozen=True)
class ExtensionalPair:
    """Two instance sets inside a universe of universe_size instances.

    Instance ids are integers 1..universe_size.
    """

    f_extension: frozenset[int]
    w_extension: frozenset[int]
    universe_size: int

    def __post_init__(self):
        object.__setattr__(self, "f_extension", frozenset(self.f_extension))
        object.__setattr__(self, "w_extension", frozenset(self.w_extension))
        if self.universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {self.universe_size}")
        for name, ext in (("f", self.f_extension), ("w", self.w_extension)):
            bad = [i for i in ext if not 1 <= i <= self.universe_size]
            if bad:
                raise ValueError(f"{name} extension ids outside 1..{self.universe_size}: {sorted(bad)}")


def extensional_inheritance(pair: ExtensionalPair) -> float:
    """|F intersect W| / |F|."""
    if not pair.f_extension:
        raise EmptyAntecedent("antecedent extension is empty")
    return len(pair.f_extension & pair.w_extension) / len(pair.f_extension)


def singleton_reduction_check(pair: ExtensionalPair) -> tuple[float, float]:
    """Extensional value next to the enumeration engine's exact conditional.

    Builds one singleton property per instance over the uniform instance
    world and scores the two concepts with the full machinery; the pair of
    returned values agrees to 1e-12. Both extensions must be nonempty.
    """
    extensional = extensional_inheritance(pair)
    universe = check_universe(f"x{i}" for i in range(1, pair.universe_size + 1))
    world = world_from_instances(universe, [1 << i for i in range(len(universe))], [1.0] * len(universe))
    degree = 1.0 / pair.universe_size
    f = Concept("F", tuple((f"x{i}", degree) for i in sorted(pair.f_extension)))
    w = Concept("W", tuple((f"x{i}", degree) for i in sorted(pair.w_extension)))
    return extensional, shannon_inheritance(f, w, world).exact_conditional
