import random
import warnings

import numpy as np
from compressor_noise import random_concept  # scripts/ is on the pytest path: one copy for tests and script
from hypothesis import strategies as st

from intension.model import Concept, world_from_instances

# hypothesis imports this module when a test fails; its libcst import warns DeprecationWarning (mypy_extensions),
# which pyproject's filter turns into an error inside the report hook, and pytest stops with INTERNALERROR. Import it
# once here with that warning off; every other DeprecationWarning still fails the run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def dense_world(universe, weights):
    """Row world with one row per cell of a table of 2**s weights, index bit i for property i."""
    return world_from_instances(universe, range(1 << len(universe)), weights)


def world_from_dist(universe, dist):
    """Bridge a tuple-keyed distribution dict into a WorldModel."""
    weights = np.zeros(1 << len(universe))
    for assignment, p in dist.items():
        mask = sum(1 << i for i, bit in enumerate(assignment) if bit)
        weights[mask] += p
    return dense_world(universe, weights)


def concept_at(world, name, ids):
    """Concept whose declared degrees match the world marginals exactly."""
    return Concept(name, tuple((pid, world.marginal(pid)) for pid in ids))


def overlapping_pair(rng: random.Random, n_props, shared):
    """Two concepts of n_props properties sharing exactly `shared` of them."""
    f = random_concept(rng, "f", n_props)
    shared_props = rng.sample(list(f.properties), shared)
    fresh = random_concept(rng, "w", n_props - shared, taken=f.ids)
    w_props = sorted(shared_props + list(fresh.properties))
    return f, Concept("w", tuple(w_props))


@st.composite
def worlds(draw, min_vars=1, max_vars=5):
    size = draw(st.integers(min_vars, max_vars))
    weights = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=1 << size,
            max_size=1 << size,
        ).filter(lambda ws: sum(ws) > 1e-9)
    )
    return dense_world(tuple(f"v{i}" for i in range(size)), weights)


@st.composite
def worlds_with_concept_pair(draw, min_vars=2, max_vars=5):
    world = draw(worlds(min_vars=min_vars, max_vars=max_vars))
    size = len(world.universe)
    f_ids = draw(st.sets(st.integers(0, size - 1), min_size=1))
    w_ids = draw(st.sets(st.integers(0, size - 1), min_size=1))
    f = concept_at(world, "f", [world.universe[i] for i in sorted(f_ids)])
    w = concept_at(world, "w", [world.universe[i] for i in sorted(w_ids)])
    return world, f, w
