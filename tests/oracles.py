"""Naive reference implementations used to cross-check the fast paths.

A distribution here is a dict mapping assignment tuples (one 0/1 entry
per variable) to probability. Entropies are direct plug-in sums over
dict projections; nothing is shared with the package's bitmask bucketing.
The two exceptions work on numpy arrays: `marginalize` folds a table of
2**n cells and is the reference for the fold order of the interaction
lattice, and `product_kept` is the bit-for-bit reference of a product
world's query.
"""

import math
from itertools import combinations, product

import numpy as np


def normalize(dist):
    total = sum(dist.values())
    return {a: p / total for a, p in dist.items()}


def all_assignments(size):
    return product((0, 1), repeat=size)


def project(dist, idxs):
    out = {}
    for assignment, p in dist.items():
        key = tuple(assignment[i] for i in idxs)
        out[key] = out.get(key, 0.0) + p
    return out


def entropy(dist, idxs):
    return -sum(p * math.log2(p) for p in project(dist, idxs).values() if p > 0)


def union_probability(dist, idxs):
    return sum(p for a, p in dist.items() if any(a[i] for i in idxs))


def indicator_joint(dist, f_idxs, w_idxs):
    out = {}
    for assignment, p in dist.items():
        key = (int(any(assignment[i] for i in f_idxs)), int(any(assignment[i] for i in w_idxs)))
        out[key] = out.get(key, 0.0) + p
    return out


def dist_entropy(dist):
    return -sum(p * math.log2(p) for p in dist.values() if p > 0)


def concept_mutual_information(dist, f_idxs, w_idxs):
    joint = indicator_joint(dist, f_idxs, w_idxs)
    h_f = dist_entropy(project(joint, (0,)))
    h_w = dist_entropy(project(joint, (1,)))
    return h_f + h_w - dist_entropy(joint)


def interaction_information(dist, idxs):
    idxs = tuple(idxs)
    value = 0.0
    for size in range(1, len(idxs) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in combinations(idxs, size):
            value += sign * entropy(dist, subset)
    return value


def exact_conditional(dist, f_idxs, w_idxs):
    both = sum(
        p
        for a, p in dist.items()
        if any(a[i] for i in f_idxs) and any(a[i] for i in w_idxs)
    )
    return both / union_probability(dist, f_idxs)


def marginalize(table, keep):
    """Marginal of a 2**n table onto the bits in keep, kept in ascending order.

    Walks the bits from high to low and adds the two halves of each bit not
    kept: every step reads a view and writes a table half the size. This is
    the order in which the interaction lattice folds each subset's table.
    """
    for bit in reversed(range(table.size.bit_length() - 1)):
        if bit not in keep:
            halves = table.reshape(-1, 2, 1 << bit)
            table = halves[:, 0] + halves[:, 1]
    return table.reshape(-1)


def product_kept(marginals, groups):
    """A product world's query, built in numpy from the first group: 2**len(groups) cells, bit k set iff group k holds.

    Per group, P(none) and P(some) are the running sums some += none * mu and none *= 1 - mu. The table starts as
    [1.0], and each group concatenates table * none and table * some.
    """
    marginals = np.array(marginals, dtype=np.float64)
    table = np.array([1.0])
    for group in groups:
        none, some = 1.0, 0.0
        for mu in marginals[list(group)].tolist():
            some += none * mu
            none *= 1.0 - mu
        table = np.concatenate([table * none, table * some])
    return table
