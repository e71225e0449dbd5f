import random

import numpy as np
from compressor_noise import random_concept  # scripts/ is on the pytest path: one copy for tests and script
from hypothesis import strategies as st

from intension.model import Concept, WorldModel


def world_from_dist(universe, dist):
    """Bridge a tuple-keyed distribution dict into a WorldModel."""
    weights = np.zeros(1 << len(universe))
    for assignment, p in dist.items():
        mask = sum(1 << i for i, bit in enumerate(assignment) if bit)
        weights[mask] += p
    return WorldModel.from_weights(universe, weights)


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
    return WorldModel.from_weights(tuple(f"v{i}" for i in range(size)), weights)


@st.composite
def worlds_with_concept_pair(draw, min_vars=2, max_vars=5):
    world = draw(worlds(min_vars=min_vars, max_vars=max_vars))
    size = len(world.universe)
    f_ids = draw(st.sets(st.integers(0, size - 1), min_size=1))
    w_ids = draw(st.sets(st.integers(0, size - 1), min_size=1))
    f = concept_at(world, "f", [world.universe[i] for i in sorted(f_ids)])
    w = concept_at(world, "w", [world.universe[i] for i in sorted(w_ids)])
    return world, f, w
