"""Concepts, property universes, and exact world models.

A concept is a named, weighted set of binary properties. A world model is
an exact joint distribution over all property variables, indexed by
bitmask (bit i set means property i of the universe holds). A world is
a product of marginals or a set of weighted support rows (see
`WorldModel`), and answers each query from that structure: neither kind
keeps 2**s cells, and the table is built lazily, the first time `probs`
is read. The universe stays capped at 24 variables. Every query asks
which of a few disjoint groups of properties hold: a concept pair's
indicator joint is one query of three groups, 8 cells however wide the
pair.

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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

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
    tuple of Python floats, so a small query is scalar arithmetic; a
    support-row world (`from_weights`, `build_exclusive_world`,
    `world_from_instances`) holds an int64 array of row bitmasks and a
    float64 array of raw weights. Both answer every query through `_kept`:
    given disjoint groups of properties, the probability of each pattern of
    which groups hold. probs[mask] is the probability of the assignment
    where property i holds iff bit i of mask is set; both kinds build it on
    first read. Every kind keeps the 24-property cap. Tables are read-only;
    instances are safe to share across threads.
    """

    universe: tuple[str, ...]
    _marginals: tuple[float, ...] | None = field(default=None, repr=False)  # product world: P(property i) at position i
    _rows: tuple[np.ndarray, np.ndarray, float] | None = field(default=None, repr=False)  # masks, raw weights, total

    @classmethod
    def from_weights(cls, universe: Sequence[str], weights: Sequence[float] | np.ndarray) -> "WorldModel":
        """Support-row world over the nonzero cells of a table of 2**s weights, index bit i for property i."""
        universe = check_universe(universe)
        s = len(universe)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (1 << s,):
            raise ValueError(f"expected {1 << s} weights for {s} properties, got {w.shape}")
        lo, hi = float(w.min()), float(w.max())  # reductions, so no mask the size of the table
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weights must be finite")
        if lo < 0:
            raise ValueError("weights must be nonnegative")
        masks = np.flatnonzero(w)
        return cls(universe, _rows=(masks, w[masks], _checked_total(w)))

    @cached_property
    def probs(self) -> np.ndarray:
        """The dense table of 2**s probabilities, built on first read."""
        s = len(self.universe)
        if self._rows is None:
            weights = self._kept([[pos] for pos in range(s)])
        else:
            weights = np.bincount(*self._rows[:2], minlength=1 << s)
        probs = weights / _checked_total(weights)
        probs.setflags(write=False)
        assert abs(float(probs.sum()) - 1.0) <= NORMALIZATION_TOL
        return probs

    def _kept(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        """P(each pattern of which groups hold): 2**len(groups) cells, bit k set iff some property of group k holds.

        Groups are disjoint lists of universe positions; the answer is read from the world's own structure. A product
        world keeps, per group, P(none) and P(some) as the running sum some += none * mu, never 1 - P(none), so a tiny
        P(some) keeps its digits; a one-property group gives exactly mu and 1 - mu. Those sums are Python floats, and
        numpy is called once per group: the first group's two cells, then each later group scales the table by its two.
        """
        if self._marginals is not None:
            marginals, table = self._marginals, None
            for group in groups:
                none, some = 1.0, 0.0
                for pos in group:
                    mu = marginals[pos]
                    some += none * mu
                    none *= 1.0 - mu
                table = np.array((none, some)) if table is None else np.concatenate((table * none, table * some))
            return np.array([1.0]) if table is None else table
        masks, weights, total = self._rows
        key = np.zeros(len(masks), dtype=np.int64)
        for k, group in enumerate(groups):
            key |= ((masks & sum(1 << pos for pos in group)) != 0).astype(np.int64) << k
        kept = np.bincount(key, weights, minlength=1 << len(groups))
        kept /= total  # after summing raw weights, and in place: a request for every property is 2**s cells
        return kept

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
        # min() guards against float accumulation drifting a hair past 1
        return min(1.0, float(self._kept([[self.bit(pid)]])[1]))

    def union_probability(self, ids: Iterable[str]) -> float:
        """P(at least one of the given properties holds); 0 for no properties."""
        return min(1.0, float(self._kept([sorted({self.bit(p) for p in ids})])[1]))

    def marginal_table(self, ids: Sequence[str]) -> np.ndarray:
        """Joint marginal over the given variables, in the order given: 2**len(ids) cells, bit j for ids[j]."""
        positions = [self.bit(p) for p in ids]
        if len(set(positions)) != len(positions):
            raise ValueError(f"duplicate ids in marginal request: {tuple(ids)}")
        return self._kept([[pos] for pos in positions])


def _checked_total(weights: np.ndarray) -> float:
    """Sum of nonnegative weights; refused when it overflows a double or is not positive."""
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if not math.isfinite(total):
        raise ValueError("total weight overflows a double")
    if total <= 0.0:
        raise EmptyTable("total weight must be positive")
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
    world = world_from_instances(universe, 1 << np.arange(params.s), np.ones(params.s))
    f = Concept("F", tuple((pid, params.p) for pid in universe[:n]))
    w = Concept("W", tuple((pid, params.p) for pid in universe[-m:]))
    return world, f, w


def world_from_instances(universe: Sequence[str], masks: Sequence[int], weights: Sequence[float]) -> WorldModel:
    """Support-row world with one row per (mask, weight) pair; rows of equal mask add their weights in order."""
    universe = check_universe(universe)
    m = np.asarray(masks)  # an object array when a mask does not fit 64 bits
    w = np.array(weights, dtype=np.float64)  # a copy, as is the int64 cast below: the world owns its rows
    if m.shape != w.shape or m.ndim != 1:
        raise ValueError(f"expected one weight per row mask, got shapes {m.shape} and {w.shape}")
    bad = (m < 0) | (m >= 1 << len(universe))
    if bad.any():
        raise ValueError(f"row mask {int(m[bad.argmax()])} out of range for {len(universe)} properties")
    bad = ~(np.isfinite(w) & (w >= 0))
    if bad.any():
        raise ValueError(f"row weight must be finite and nonnegative, got {float(w[bad.argmax()])!r}")
    if not (w > 0).any():
        raise EmptyTable("instance table needs at least one row with positive weight")
    return WorldModel(universe, _rows=(m.astype(np.int64), w, _checked_total(w)))


def pair_joint(f: Concept, w: Concept, world: WorldModel) -> np.ndarray:
    """Four-cell joint of the two concept-event indicators, index 2*f + w, from one query of three groups."""
    f_pos, w_pos = {world.bit(p) for p in f.ids}, {world.bit(p) for p in w.ids}
    # groups W-only, shared, F-only are bits 0, 1, 2: F and W both hold when a shared property does or both others do
    t = world._kept([sorted(w_pos - f_pos), sorted(f_pos & w_pos), sorted(f_pos - w_pos)])
    return np.array([t[0], t[1], t[4], t[2] + t[3] + t[5] + t[6] + t[7]])


def joint_event_probability(f: Concept, w: Concept, world: WorldModel) -> float:
    """P(both concept events hold)."""
    return min(1.0, float(pair_joint(f, w, world)[3]))


def degree_mismatches(concept: Concept, world: WorldModel, tol: float = DEGREE_MISMATCH_TOL) -> list[str]:
    """Human-readable descriptions of degree vs world-marginal disagreements."""
    return [
        f"degree-mismatch {pid}: concept {concept.name!r} declares {declared:.6g}, world marginal is {marginal:.6g}"
        for pid, declared in concept.properties
        if abs((marginal := world.marginal(pid)) - declared) > tol
    ]
