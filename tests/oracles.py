"""Naive reference implementations used to cross-check the fast paths.

A distribution here is a dict mapping assignment tuples (one 0/1 entry
per variable) to probability. Entropies are direct plug-in sums over
dict projections; nothing is shared with the package's bitmask bucketing.
The exceptions work on numpy arrays: `marginalize` folds a table of
2**n cells and is the reference for the fold order of the interaction
lattice, and `product_kept` and `row_kept` are the bit-for-bit references
of a product world's and a row world's query. `decimal_mutual_information`
is the high-precision reference of a concept pair's mutual information.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
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


def row_kept(masks, weights, total, groups):
    """A row world's query as one weighted np.bincount over the rows, then divided by the total: the numpy reference.

    Bit k of a row's cell is set iff the row holds some property of group k; bincount adds each row's weight into
    its cell in row order.
    """
    masks = np.asarray(masks, dtype=np.int64)
    key = np.zeros(len(masks), dtype=np.int64)
    for k, group in enumerate(groups):
        key |= ((masks & sum(1 << pos for pos in group)) != 0).astype(np.int64) << k
    kept = np.bincount(key, np.asarray(weights, dtype=np.float64), minlength=1 << len(groups))
    kept /= total
    return kept


def decimal_mutual_information(joint, digits=50):
    """I(F;W) in bits of a four-cell joint (index 2*f + w), as a `digits`-digit Decimal.

    The cells, their exact sum, the marginals and each p / (P(row) P(column)) are exact fractions, so no sum rounds
    away a tiny cell; only the logs and the final sum of p * ln(p / q) round, to `digits` digits.
    """
    cells = [Fraction(p) for p in joint]
    total = sum(cells)
    cells = [p / total for p in cells]
    rows, columns = (cells[0] + cells[1], cells[2] + cells[3]), (cells[0] + cells[2], cells[1] + cells[3])
    with localcontext() as ctx:
        ctx.prec = digits
        mi = Decimal(0)
        for i, p in enumerate(cells):
            if p:
                x = p / (rows[i >> 1] * columns[i & 1]) - 1
                mi += _decimal(p) * _decimal_log1p(x)
        return mi / Decimal(2).ln()


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _decimal_log1p(x: Fraction) -> Decimal:
    """ln(1 + x) to the context's precision; a series near 0, where 1 + x would round x away."""
    if abs(x) >= Fraction(1, 100):
        return _decimal(1 + x).ln()
    term, total, k, x = Decimal(1), Decimal(0), 1, _decimal(x)
    while True:
        term *= x
        grown = total + term / k if k % 2 else total - term / k
        if grown == total:
            return total
        total, k = grown, k + 1
