"""Measure the bundled compressor's noise characteristics.

Prints the statistics the regression tests freeze: self-information loss
for identical concepts, the cross-information ratio for disjoint random
pairs, concatenation-order asymmetry, and the self-versus-cross win rate
for pairs sharing under half their properties. Run after changing the
compressor or the serialization format to recalibrate the frozen bounds.

Usage: python scripts/compressor_noise.py [seed]
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from intension.algorithmic import algorithmic_inheritance, estimate_complexities, deflate_compressor
from intension.model import Concept


def random_concept(rng, name, n_props, taken=(), id_len=8):
    """Concept with fresh random ids and degrees; avoids ids in `taken`. The tests draw their concepts here too."""
    ids = set()
    avoid = set(taken)
    while len(ids) < n_props:
        candidate = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(id_len))
        if candidate not in avoid:
            ids.add(candidate)
            avoid.add(candidate)
    return Concept(name, tuple((pid, rng.random()) for pid in sorted(ids)))


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20240901
    rng = random.Random(seed)
    comp = deflate_compressor()

    print(f"seed={seed} compressor={comp.name}")

    # identical pair: how far I(f,f) falls short of k_f
    eps = []
    for _ in range(100):
        f = random_concept(rng, "f", rng.randint(8, 48))
        est = estimate_complexities(f, f, comp)
        eps.append(est.k_f - est.mutual_information)
    print(f"identical pairs: eps = k_f - I(f,f): min={min(eps)} max={max(eps)} mean={sum(eps)/len(eps):.1f}")

    # disjoint pairs: cross-information ratio
    ratios = []
    for _ in range(100):
        f = random_concept(rng, "f", rng.randint(8, 48))
        w = random_concept(rng, "w", rng.randint(8, 48), taken=f.ids)
        est = estimate_complexities(f, w, comp)
        ratios.append(est.mutual_information / min(est.k_f, est.k_w))
    print(f"disjoint pairs: I/min(k): min={min(ratios):.4f} max={max(ratios):.4f} mean={sum(ratios)/len(ratios):.4f}")

    # order asymmetry
    diffs = []
    for _ in range(100):
        f = random_concept(rng, "f", rng.randint(4, 64))
        w = random_concept(rng, "w", rng.randint(4, 64), taken=f.ids)
        fw = estimate_complexities(f, w, comp).mutual_information
        wf = estimate_complexities(w, f, comp).mutual_information
        diffs.append(abs(fw - wf))
    print(f"order asymmetry |I(f,w)-I(w,f)| bits: max={max(diffs)} mean={sum(diffs)/len(diffs):.1f}")

    # self vs cross with partial overlap below 50%
    wins = 0
    margins = []
    for _ in range(100):
        n = rng.randint(12, 40)
        shared = rng.randint(0, (n - 1) // 2)
        f = random_concept(rng, "f", n)
        shared_props = rng.sample(list(f.properties), shared)
        fresh = random_concept(rng, "w", n - shared, taken=f.ids)
        w = Concept("w", tuple(sorted(shared_props + list(fresh.properties))))
        self_i = algorithmic_inheritance(f, f, comp).mutual_information
        cross_i = algorithmic_inheritance(f, w, comp).mutual_information
        margins.append(self_i - cross_i)
        if self_i > cross_i:
            wins += 1
    print(f"self vs cross (<50% shared): wins={wins}/100 margin bits: min={min(margins)} mean={sum(margins)/len(margins):.1f}")


if __name__ == "__main__":
    main()
