"""Concepts, property universes, and exact world models.

A concept is a named, weighted set of binary properties. A world model is
an exact joint distribution over all property variables, indexed by
bitmask (bit i set means property i of the universe holds). A world is
a product of marginals or a set of weighted support rows (see
`WorldModel`), and answers each query from that structure in Python
arithmetic: neither kind keeps 2**s cells, and numpy (`intension.lattice`)
builds that table only when `probs` or `marginal_table` is read. The
universe stays capped at 24 variables. Every query asks which of a few
disjoint groups of properties hold: a concept pair's indicator joint is
one query of three groups, 8 cells however wide the pair.

A concept's event is the union (disjunction) of its property events: "x is
the concept" means x holds at least one of the concept's properties. This
is what makes the one-hot construction below come out to the familiar
count ratios, and it is the only event semantics this package supports.
Event probabilities are sums of nonnegative terms, never 1 - P(none), so
a tiny P(F) keeps its digits. Declared degrees are read as marginal
probabilities; the world model is ground truth, and a disagreement beyond
1e-6 triggers DegreeMismatchWarning rather than an error.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

from .errors import (
    EmptyTable,
    InvalidConcept,
    InvalidDegree,
    InvalidOverlap,
    InvalidProperty,
    UniverseTooLarge,
    UnknownProperty,
)

MAX_UNIVERSE = 24
NORMALIZATION_TOL = 1e-12
DEGREE_MISMATCH_TOL = 1e-6


class DegreeMismatchWarning(UserWarning):
    """A concept's declared degree disagrees with the world marginal."""


def check_property_id(pid: str) -> str:
    """Validate a property identifier: nonempty token, no whitespace."""
    if not isinstance(pid, str) or not pid:
        raise InvalidProperty(f"property id must be a nonempty string, got {pid!r}")
    if any(c.isspace() for c in pid):
        raise InvalidProperty(f"property id may not contain whitespace: {pid!r}")
    return pid


def check_universe(universe: Iterable[str]) -> tuple[str, ...]:
    """Validate a universe before any table is sized by it: at most MAX_UNIVERSE distinct ids.

    Reads ids lazily and checks the cap on the first MAX_UNIVERSE + 1, so a generator sized by input is never drained.
    """
    universe = tuple(islice(universe, MAX_UNIVERSE + 1))
    if len(universe) > MAX_UNIVERSE:
        raise UniverseTooLarge(f"universe has more than {MAX_UNIVERSE} properties")
    universe = tuple(check_property_id(p) for p in universe)
    if len(set(universe)) != len(universe):
        raise InvalidProperty(f"universe has duplicate ids: {universe}")
    return universe


def check_degree(d: float, what: str = "degree") -> float:
    d = float(d)
    if not 0.0 <= d <= 1.0:  # also rejects NaN
        raise InvalidDegree(f"{what} must lie in [0, 1], got {d!r}")
    return d


@dataclass(frozen=True)
class Concept:
    """A named concept defined by (property id, degree) pairs.

    Property order is preserved as given; identity-sensitive consumers
    (serialization) normalize order themselves. Degrees live in [0, 1]
    and are interpreted as marginal probabilities of the property events.
    """

    name: str
    properties: tuple[tuple[str, float], ...]

    def __post_init__(self):
        props = tuple((check_property_id(p), check_degree(d)) for p, d in self.properties)
        if not props:
            raise InvalidConcept(f"concept {self.name!r} has no properties")
        ids = [p for p, _ in props]
        if len(set(ids)) != len(ids):
            dupes = sorted(p for p, count in Counter(ids).items() if count > 1)
            raise InvalidConcept(f"concept {self.name!r} repeats properties: {dupes}")
        object.__setattr__(self, "properties", props)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        # cached: a tuple rebuilt from a generator per call is freed onto CPython's tuple free list, up to 2000 per size
        return tuple(p for p, _ in self.properties)


@dataclass(frozen=True, eq=False)
class WorldModel:
    """Joint distribution over s binary property variables, in one of two kinds.

    A product world (`build_independent_world`) holds s marginals as a
    tuple of Python floats; a support-row world (`world_from_instances`,
    `build_exclusive_world`) holds its row bitmasks in an `array('q')`,
    its raw weights in an `array('d')`, and their total, the exactly
    rounded `math.fsum`. Both answer every query through
    `_kept`: given disjoint groups of properties, the probability of each
    pattern of which groups hold. probs[mask] is the probability of the
    assignment where property i holds iff bit i of mask is set; both kinds
    build it on first read. Every kind keeps the 24-property cap. Tables
    are read-only; instances are safe to share across threads.
    """

    universe: tuple[str, ...]
    _marginals: tuple[float, ...] | None = field(default=None, repr=False)  # product world: P(property i) at position i
    _rows: tuple[array, array, float] | None = field(default=None, repr=False)  # masks, raw weights, total

    @cached_property
    def probs(self):
        """The dense table of 2**s probabilities, a read-only numpy array built on first read."""
        from . import lattice

        return lattice.dense_probs(self)

    def _kept(self, groups: Sequence[Sequence[int]]) -> list[float]:
        """P(each pattern of which groups hold): 2**len(groups) cells, bit k set iff some property of group k holds.

        Groups are disjoint lists of universe positions; the answer is read from the world's own structure. A product
        world keeps, per group, P(none) and P(some) as the running sum some += none * mu, never 1 - P(none), so a tiny
        P(some) keeps its digits; a one-property group gives exactly mu and 1 - mu. From [1.0], each group scales the
        table by its two. A row world adds each row's weight into its cell in row order, as a weighted np.bincount
        does, and divides by the total after summing.
        """
        if self._marginals is not None:
            table = [1.0]
            for group in groups:
                none, some = 1.0, 0.0
                for pos in group:
                    mu = self._marginals[pos]
                    some += none * mu
                    none *= 1.0 - mu
                table = [cell * none for cell in table] + [cell * some for cell in table]
            return table
        masks, weights, total = self._rows
        keys = [0] * len(masks)
        for k, group in enumerate(groups):
            held, bit = sum(1 << pos for pos in group), 1 << k
            keys = [key | bit if mask & held else key for key, mask in zip(keys, masks)]
        kept = [0.0] * (1 << len(groups))
        for key, weight in zip(keys, weights):
            kept[key] += weight
        return [cell / total for cell in kept]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.universe)}

    def bit(self, pid: str) -> int:
        """Universe position of a property id."""
        try:
            return self._index[pid]
        except KeyError:
            raise UnknownProperty(f"property {pid!r} is not in the universe") from None

    def marginal(self, pid: str) -> float:
        """P(property holds)."""
        return self.marginals((pid,))[0]

    def marginals(self, ids: Iterable[str]) -> list[float]:
        """P(each property holds), in the order given; a row world adds up all of them in one pass over its rows."""
        positions = [self.bit(pid) for pid in ids]
        if self._marginals is not None:
            return [self._marginals[pos] for pos in positions]
        masks, weights, total = self._rows
        sums, bits = [0.0] * len(positions), list(enumerate(1 << pos for pos in positions))
        for mask, weight in zip(masks, weights):
            for j, bit in bits:
                if mask & bit:
                    sums[j] += weight
        return [min(1.0, held / total) for held in sums]  # min(): float accumulation can drift a hair past 1

    def union_probability(self, ids: Iterable[str]) -> float:
        """P(at least one of the given properties holds); 0 for no properties."""
        return min(1.0, self._kept([sorted({self.bit(p) for p in ids})])[1])

    def marginal_table(self, ids: Sequence[str]):
        """Joint marginal over the given variables, in the order given: 2**len(ids) cells in numpy, bit j for ids[j]."""
        from . import lattice

        positions = [self.bit(p) for p in ids]
        if len(set(positions)) != len(positions):
            raise ValueError(f"duplicate ids in marginal request: {tuple(ids)}")
        return lattice.marginal_table(self, positions)


def _checked_total(total: float) -> float:
    """A sum of nonnegative weights; refused when it overflows a double or is 0 (no weight is positive)."""
    if not math.isfinite(total):
        raise ValueError("total weight overflows a double")
    if total <= 0.0:
        raise EmptyTable("instance table needs at least one row with positive weight")
    return total


def build_independent_world(universe: Sequence[str], marginals: Sequence[float]) -> WorldModel:
    """Product world with the given per-property marginals."""
    universe = check_universe(universe)
    if len(universe) != len(marginals):
        raise ValueError(f"{len(universe)} ids but {len(marginals)} marginals")
    return WorldModel(universe, _marginals=tuple(check_degree(mu, "marginal") for mu in marginals))


@dataclass(frozen=True)
class ExclusiveCaseParams:
    """Counts for the mutually-exclusive uniform case: n, m properties, k shared."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got {(self.n, self.m)}")
        if not 0 <= self.k <= min(self.n, self.m):
            raise InvalidOverlap(f"overlap k={self.k} outside [0, min(n, m)={min(self.n, self.m)}]")

    @property
    def s(self) -> int:
        """Total distinct properties."""
        return self.n + self.m - self.k

    @property
    def p(self) -> float:
        """Uniform degree of each property; true division of ints, so a huge s gives 0.0, not OverflowError."""
        return 1 / self.s


def build_exclusive_world(n: int, m: int, k: int) -> tuple[WorldModel, Concept, Concept]:
    """One-hot support-row world for two concepts with k shared properties.

    The universe has s = n + m - k properties named p1..ps; exactly one
    holds at a time, each with probability 1/s. The first concept owns
    p1..pn, the second owns the last m, so they share k in the middle.
    """
    params = ExclusiveCaseParams(n, m, k)
    universe = check_universe(f"p{i + 1}" for i in range(params.s))
    world = world_from_instances(universe, [1 << i for i in range(params.s)], [1.0] * params.s)
    f = Concept("F", tuple((pid, params.p) for pid in universe[:n]))
    w = Concept("W", tuple((pid, params.p) for pid in universe[-m:]))
    return world, f, w


def world_from_instances(universe: Sequence[str], masks: Iterable[int], weights: Iterable[float]) -> WorldModel:
    """Support-row world with one row per (mask, weight) pair; rows of equal mask add their weights in order.

    Every mask is checked before any weight, and the first bad row in row order is the one named. Every query divides
    by the total, `math.fsum` of the weights: exactly rounded, so no row order moves it.
    """
    universe = check_universe(universe)
    masks, weights = list(masks), list(weights)  # copies: the world owns its rows
    if len(masks) != len(weights):
        raise ValueError(f"expected one weight per row mask, got {len(masks)} masks and {len(weights)} weights")
    for mask in masks:
        if not 0 <= mask < 1 << len(universe):
            raise ValueError(f"row mask {int(mask)} out of range for {len(universe)} properties")
    weights = array("d", weights)
    for weight in weights:
        if not 0.0 <= weight < math.inf:  # also rejects NaN
            raise ValueError(f"row weight must be finite and nonnegative, got {weight!r}")
    try:
        total = math.fsum(weights)  # exact before its one rounding, so positive exactly when some weight is
    except OverflowError:  # the exact sum rounds past the largest double
        total = math.inf
    return WorldModel(universe, _rows=(array("q", masks), weights, _checked_total(total)))


def pair_joint(f: Concept, w: Concept, world: WorldModel) -> tuple[float, float, float, float]:
    """Four-cell joint of the two concept-event indicators, index 2*f + w, from one query of three groups."""
    f_pos, w_pos = {world.bit(p) for p in f.ids}, {world.bit(p) for p in w.ids}
    # groups W-only, shared, F-only are bits 0, 1, 2: F and W both hold when a shared property does or both others do
    t = world._kept([sorted(w_pos - f_pos), sorted(f_pos & w_pos), sorted(f_pos - w_pos)])
    return t[0], t[1], t[4], t[2] + t[3] + t[5] + t[6] + t[7]


def joint_event_probability(f: Concept, w: Concept, world: WorldModel) -> float:
    """P(both concept events hold)."""
    return min(1.0, pair_joint(f, w, world)[3])


def degree_mismatches(concepts: Sequence[Concept], world: WorldModel) -> list[str]:
    """Human-readable descriptions of degree vs world-marginal disagreements, every marginal read in one pass."""
    ids = list(dict.fromkeys(pid for concept in concepts for pid in concept.ids))
    marginals = dict(zip(ids, world.marginals(ids)))
    return [
        f"degree-mismatch {pid}: concept {concept.name!r} declares {declared:.6g}, world marginal is {marginal:.6g}"
        for concept in concepts
        for pid, declared in concept.properties
        if abs((marginal := marginals[pid]) - declared) > DEGREE_MISMATCH_TOL
    ]
