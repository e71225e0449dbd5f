import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import concept_at, dense_world, world_from_dist, worlds, worlds_with_concept_pair
from oracles import marginalize
from intension.errors import InvalidDegree, SubsetTooLarge, UnknownProperty
from intension.model import (
    Concept,
    DegreeMismatchWarning,
    build_exclusive_world,
    build_independent_world,
)
from intension.shannon import (
    INTERACTION_CONVENTION,
    _entropy,
    _lattice_terms,
    binary_entropy,
    concept_pair_entropies,
    interaction_information,
    shannon_inheritance,
)

TOL = 1e-9


def subset_loop_terms(ids, world):
    """Signed (-1)**(|T|+1) * H(T) per nonempty subset, each from a direct marginal as np.sum of its -p*log2(p).

    Every cell of the marginal is summed, a zero cell as 0*log2(0) = 0 in place.
    """
    t = len(ids)
    table = world.marginal_table(ids)
    terms = []
    for subset in range(1, 1 << t):
        part = marginalize(table, [j for j in range(t) if subset >> j & 1])
        logs = np.zeros_like(part)
        np.log2(part, out=logs, where=part > 0)
        terms.append((1.0 if subset.bit_count() % 2 else -1.0) * float(-(part * logs).sum()))
    return terms


def subset_loop_interaction(ids, world):
    """McGill sum of the subset loop's terms."""
    return math.fsum(subset_loop_terms(ids, world))


def parity_and_copy_world():
    """14 variables: v0..v11 hold even parity, v12 and v13 are a copied pair (0.7 both off, 0.3 both on)."""
    cells = np.arange(1 << 14)
    even = np.array([bin(c & 0xFFF).count("1") % 2 == 0 for c in cells])
    weights = even * np.select([cells >> 12 == 0, cells >> 12 == 3], [0.7, 0.3], 0.0)
    return dense_world(tuple(f"v{i}" for i in range(14)), weights)


def lattice_world(kind, rng):
    """14 variables: random weights ("dense"), the same with about 30% of the cells zero, or parity_and_copy_world."""
    if kind == "parity-and-copy":
        return parity_and_copy_world()
    weights = rng.random(1 << 14) * (rng.random(1 << 14) > (0.3 if kind == "30%-zeros" else 0.0))
    return dense_world(tuple(f"v{i}" for i in range(14)), weights)


def xor_world():
    """Three fair variables where the third is the parity of the first two."""
    dist = {
        (0, 0, 0): 0.25,
        (0, 1, 1): 0.25,
        (1, 0, 1): 0.25,
        (1, 1, 0): 0.25,
    }
    return world_from_dist(("x", "y", "z"), dist)


class TestBinaryEntropy:
    def test_maximal_uncertainty(self):
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("d", [0.0, 1.0])
    def test_certainty(self, d):
        assert binary_entropy(d) == 0.0

    def test_point_two(self):
        # frozen from -0.2*log2(0.2) - 0.8*log2(0.8)
        assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=TOL)

    @pytest.mark.parametrize("d", [-0.01, 1.01, float("nan")])
    def test_rejects_bad_degree(self, d):
        with pytest.raises(InvalidDegree):
            binary_entropy(d)


def marginal_entropy(ids, world):
    """Plug-in entropy of the world's marginal table over ids."""
    return oracles.dist_entropy(dict(enumerate(world.marginal_table(ids))))


class TestSubsetEntropy:
    def test_single_fair_variable(self):
        world = build_independent_world(["a"], [0.5])
        assert marginal_entropy(["a"], world) == pytest.approx(1.0, abs=TOL)

    def test_independent_additivity(self):
        world = build_independent_world(["a", "b"], [0.5, 0.5])
        assert marginal_entropy(["a", "b"], world) == pytest.approx(2.0, abs=TOL)

    def test_one_hot_uniform(self):
        world, _, _ = build_exclusive_world(4, 3, 2)
        # frozen log2(5)
        assert marginal_entropy(world.universe, world) == pytest.approx(2.321928094887362, abs=TOL)

    def test_unknown_property(self):
        world = build_independent_world(["a"], [0.5])
        with pytest.raises(UnknownProperty):
            world.marginal_table(["zzz"])

    @pytest.mark.parametrize(
        "rows",
        [
            [1.0, 0.0],
            [0.5, 0.5 - 5e-324, 5e-324, 0.0],
            [0.0] * 9 + [1.0] + [0.0] * 6,
            [[0.0, 1.0, 0.0, 0.0], [0.25, 0.0, 0.5, 0.25]],
        ],
        ids=["certain", "subnormal-cell", "one-of-16", "two-rows"],
    )
    def test_kernel_is_the_masked_log(self, rows):
        # a zero cell adds 0*log2(0) = 0 in place: the same float as a masked log2, down to the sign of a zero sum
        p = np.array(rows)
        logs = np.zeros_like(p)
        np.log2(p, out=logs, where=p > 0)
        want = np.atleast_1d(-(p * logs).sum(axis=-1))
        assert np.array_equal(np.atleast_1d(_entropy(p)).view(np.int64), want.view(np.int64))


class TestConceptPairEntropies:
    def test_identical_concepts(self):
        world = build_independent_world(["a", "b"], [0.3, 0.6])
        c = concept_at(world, "c", ("a", "b"))
        h_f, h_w, h_fw = concept_pair_entropies(c, c, world)
        assert h_fw == pytest.approx(h_f, abs=TOL)
        assert h_f == h_w

    def test_independent_singletons_additive(self):
        world = build_independent_world(["a", "b"], [0.3, 0.6])
        f = concept_at(world, "f", ("a",))
        w = concept_at(world, "w", ("b",))
        h_f, h_w, h_fw = concept_pair_entropies(f, w, world)
        assert h_fw == pytest.approx(h_f + h_w, abs=1e-12)

    def test_exclusive_4_3_2(self):
        world, f, w = build_exclusive_world(4, 3, 2)
        h_f, h_w, _ = concept_pair_entropies(f, w, world)
        # frozen binary entropies of 4/5 and 3/5
        assert h_f == pytest.approx(0.7219280948873623, abs=TOL)
        assert h_w == pytest.approx(0.9709505944546686, abs=TOL)

    def test_bounds(self):
        world, f, w = build_exclusive_world(3, 4, 1)
        h_f, h_w, h_fw = concept_pair_entropies(f, w, world)
        assert max(h_f, h_w) <= h_fw + TOL
        assert h_fw <= h_f + h_w + TOL


class TestMutualInformation:
    def test_independent_concepts(self):
        world = build_independent_world(["a", "b"], [0.3, 0.6])
        f = concept_at(world, "f", ("a",))
        w = concept_at(world, "w", ("b",))
        assert shannon_inheritance(f, w, world).mutual_information == pytest.approx(0.0, abs=TOL)

    def test_self_information(self):
        world = build_independent_world(["a"], [0.3])
        c = concept_at(world, "c", ("a",))
        assert shannon_inheritance(c, c, world).mutual_information == pytest.approx(binary_entropy(0.3), abs=TOL)

    def test_exclusive_4_3_2_against_plugin_oracle(self):
        world, f, w = build_exclusive_world(4, 3, 2)
        # direct four-cell plug-in evaluation
        cells = {(1, 1): 0.4, (1, 0): 0.4, (0, 1): 0.2}
        p_f, p_w = 0.8, 0.6
        expected = sum(
            p * math.log2(p / ((p_f if a else 1 - p_f) * (p_w if b else 1 - p_w)))
            for (a, b), p in cells.items()
        )
        assert shannon_inheritance(f, w, world).mutual_information == pytest.approx(expected, abs=TOL)

    @given(worlds_with_concept_pair())
    @settings(max_examples=60)
    def test_symmetry(self, world_pair):
        world, f, w = world_pair
        assert shannon_inheritance(f, w, world).mutual_information == pytest.approx(
            shannon_inheritance(w, f, world).mutual_information, abs=TOL
        )

    @given(worlds_with_concept_pair())
    @settings(max_examples=60)
    def test_nonnegative_and_bounded(self, world_pair):
        world, f, w = world_pair
        mi = shannon_inheritance(f, w, world).mutual_information
        h_f, h_w, _ = concept_pair_entropies(f, w, world)
        assert mi >= -TOL
        assert mi <= min(h_f, h_w) + TOL

    @given(worlds_with_concept_pair())
    @settings(max_examples=60)
    def test_chain_identity(self, world_pair):
        world, f, w = world_pair
        h_f, h_w, h_fw = concept_pair_entropies(f, w, world)
        assert h_fw == pytest.approx(h_f + h_w - shannon_inheritance(f, w, world).mutual_information, abs=TOL)


class TestInteractionInformation:
    def test_two_independent_variables(self):
        world = build_independent_world(["a", "b"], [0.3, 0.7])
        assert interaction_information(("a", "b"), world).value == pytest.approx(0.0, abs=TOL)

    def test_xor_signature(self):
        assert interaction_information(("x", "y", "z"), xor_world()).value == pytest.approx(
            -1.0, abs=TOL
        )

    def test_copy_channel(self):
        # y is a copy of x: pair interaction equals H(x)
        dist = {(0, 0): 0.7, (1, 1): 0.3}
        world = world_from_dist(("x", "y"), dist)
        assert interaction_information(("x", "y"), world).value == pytest.approx(
            binary_entropy(0.3), abs=TOL
        )

    def test_pair_equals_concept_mutual_information(self):
        world = world_from_dist(("x", "y"), {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.2, (1, 1): 0.3})
        f = concept_at(world, "f", ("x",))
        w = concept_at(world, "w", ("y",))
        assert interaction_information(("x", "y"), world).value == pytest.approx(
            shannon_inheritance(f, w, world).mutual_information, abs=TOL
        )

    def test_report_fields(self):
        report = interaction_information(("y", "x"), world_from_dist(("x", "y"), {(0, 1): 0.5, (1, 0): 0.5}))
        assert report.subset == ("x", "y")
        assert report.convention == INTERACTION_CONVENTION

    def test_too_many_variables(self):
        universe = tuple(f"v{i}" for i in range(13))
        world = build_independent_world(universe, [0.5] * 13)
        with pytest.raises(SubsetTooLarge):
            interaction_information(universe, world)

    def test_too_few_variables(self):
        world = build_independent_world(["a"], [0.5])
        with pytest.raises(ValueError):
            interaction_information(("a",), world)

    @given(worlds(min_vars=2, max_vars=4))
    @settings(max_examples=40)
    def test_matches_oracle(self, world):
        dist = {}
        size = len(world.universe)
        for mask, p in enumerate(world.probs):
            if p > 0:
                dist[tuple((mask >> i) & 1 for i in range(size))] = float(p)
        expected = oracles.interaction_information(dist, range(size))
        assert interaction_information(world.universe, world).value == pytest.approx(
            expected, abs=TOL
        )

    @pytest.mark.parametrize("t", range(2, 9))
    def test_matches_oracle_on_wide_lattices(self, t):
        # t of t + 2 variables, in shuffled order, with some empty cells
        rng = np.random.default_rng(100 + t)
        size = t + 2
        weights = rng.random(1 << size) * (rng.random(1 << size) > 0.3)
        world = dense_world(tuple(f"v{i}" for i in range(size)), weights)
        idx = rng.permutation(size)[:t]
        expected = oracles.interaction_information(dist_of(world), idx)
        value = interaction_information([world.universe[i] for i in idx], world).value
        assert value == pytest.approx(expected, abs=TOL)

    @pytest.mark.parametrize("cells, t, seed", [(3, 10, 3), (3, 11, 4), (3, 12, 4), (5, 10, 1), (5, 12, 1)])
    def test_walk_sums_to_the_subset_loop_exactly(self, cells, t, seed):
        # t of 14 variables on a few support cells, where the large terms cancel to almost 0:
        # every H(T) of the walk is the direct marginal's float, and fsum drops the order
        rng = np.random.default_rng(seed)
        weights = np.zeros(1 << 14)
        weights[rng.choice(1 << 14, cells, replace=False)] = rng.random(cells)
        world = dense_world(tuple(f"v{i}" for i in range(14)), weights)
        ids = [world.universe[i] for i in rng.permutation(14)[:t]]
        assert interaction_information(ids, world).value == subset_loop_interaction(ids, world)

    @pytest.mark.parametrize("t", [2, 5, 9, 12])
    @pytest.mark.parametrize("kind", ["dense", "30%-zeros", "parity-and-copy"])
    def test_fold_sums_to_the_subset_loop_exactly(self, kind, t):
        # t of 14 variables in shuffled order; the parity world holds a 12-bit XOR block and a copied pair
        rng = np.random.default_rng(t)
        world = lattice_world(kind, rng)
        ids = [world.universe[i] for i in rng.permutation(14)[:t]]
        assert interaction_information(ids, world).value == subset_loop_interaction(ids, world)

    @pytest.mark.parametrize("kind", ["always-true", "parity-block", "5-cells", "dense"])
    def test_fold_terms_are_the_subset_loop_terms(self, kind):
        # each signed H(T) of the fold is the direct marginal's float, not just their fsum, on worlds whose levels
        # mix rows with no zero and rows with one; in the parity block only the top table holds zeros
        rng = np.random.default_rng(12)
        if kind == "parity-block":
            world, ids = parity_and_copy_world(), [f"v{i}" for i in rng.permutation(12)]
        else:
            weights = rng.random(1 << 14)
            if kind == "always-true":
                weights[np.arange(1 << 14) >> 5 & 1 == 0] = 0.0
            elif kind == "5-cells":
                weights = np.zeros(1 << 14)
                weights[rng.choice(1 << 14, 5, replace=False)] = rng.random(5)
            world = dense_world(tuple(f"v{i}" for i in range(14)), weights)
            ids = [world.universe[i] for i in rng.permutation(14)[:12]]
        assert sorted(_lattice_terms(world.marginal_table(ids), 12)) == sorted(subset_loop_terms(ids, world))

    @pytest.mark.parametrize("kind", ["dense", "30%-zeros", "parity-and-copy"])
    def test_lattice_allocates_a_bounded_buffer(self, kind):
        # the 3**12-cell fold buffer is 4 MiB; the scratch around it stays small, whatever share of the cells is zero
        world = lattice_world(kind, np.random.default_rng(0))
        ids = list(world.universe[:12])
        interaction_information(ids, world)
        tracemalloc.start()
        try:
            interaction_information(ids, world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20


class TestShannonInheritance:
    def test_independent_concepts_exact(self):
        world = build_independent_world(["a", "b"], [0.3, 0.6])
        f = concept_at(world, "f", ("a",))
        w = concept_at(world, "w", ("b",))
        report = shannon_inheritance(f, w, world)
        assert report.estimate_conditional == pytest.approx(report.exact_conditional, abs=TOL)
        assert report.prior == pytest.approx(0.6, abs=TOL)
        assert report.discrepancy == pytest.approx(0.0, abs=TOL)

    def test_self_inheritance_at_half(self):
        world = build_independent_world(["a"], [0.5])
        c = concept_at(world, "c", ("a",))
        report = shannon_inheritance(c, c, world)
        assert report.exact_conditional == pytest.approx(1.0, abs=TOL)
        assert report.mutual_information == pytest.approx(1.0, abs=TOL)
        assert report.estimate_conditional == pytest.approx(1.0, abs=TOL)

    def test_exclusive_4_3_2_exact_is_count_ratio(self):
        world, f, w = build_exclusive_world(4, 3, 2)
        report = shannon_inheritance(f, w, world)
        assert report.exact_conditional == pytest.approx(0.5, abs=1e-12)

    def test_conditioning_on_null(self):
        world = build_independent_world(["a", "b"], [0.0, 0.5])
        f = concept_at(world, "f", ("a",))
        w = concept_at(world, "w", ("b",))
        report = shannon_inheritance(f, w, world)
        assert report.exact_conditional is None
        assert report.discrepancy is None
        assert report.mutual_information == 0.0
        assert report.prior == report.estimate_conditional == 0.5

    def test_estimate_exceeds_one_flagged(self):
        # two perfectly correlated properties push the estimate past 1
        dist = {(1, 1): 0.9, (0, 0): 0.1}
        world = world_from_dist(("x", "y"), dist)
        f = concept_at(world, "f", ("x",))
        w = concept_at(world, "w", ("y",))
        report = shannon_inheritance(f, w, world)
        assert report.estimate_conditional > 1.0
        assert report.estimate_exceeds_one
        assert report.exact_conditional == pytest.approx(1.0, abs=TOL)

    def test_degree_mismatch_warns_and_uses_world(self):
        world = build_independent_world(["a", "b"], [0.9, 0.8])
        f = Concept("f", (("a", 0.2),))  # disagrees with the world
        w = concept_at(world, "w", ("b",))
        with pytest.warns(DegreeMismatchWarning):
            report = shannon_inheritance(f, w, world)
        assert report.prior == pytest.approx(0.8, abs=TOL)

    @given(worlds_with_concept_pair())
    @settings(max_examples=60)
    def test_exact_conditional_is_probability(self, world_pair):
        world, f, w = world_pair
        report = shannon_inheritance(f, w, world)
        assert report.mutual_information >= -TOL
        if report.exact_conditional is None:
            return
        assert -TOL <= report.exact_conditional <= 1 + TOL

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_independent_worlds_make_estimate_exact(self, size, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        marginals = rng.uniform(0.05, 0.95, size=size).tolist()
        universe = tuple(f"v{i}" for i in range(size))
        world = build_independent_world(universe, marginals)
        f = concept_at(world, "f", (universe[0],))
        w = concept_at(world, "w", (universe[1],))
        report = shannon_inheritance(f, w, world)
        assert abs(report.estimate_conditional - report.exact_conditional) <= TOL


class TestOracleEquivalence:
    @given(worlds(min_vars=2, max_vars=5))
    @settings(max_examples=60)
    def test_entropies_and_mi_match_bruteforce(self, world):
        size = len(world.universe)
        dist = {
            tuple((mask >> i) & 1 for i in range(size)): float(p)
            for mask, p in enumerate(world.probs)
            if p > 0
        }
        # subset entropy over the first two variables
        assert marginal_entropy(world.universe[:2], world) == pytest.approx(
            oracles.entropy(dist, (0, 1)), abs=TOL
        )
        f = concept_at(world, "f", (world.universe[0],))
        w = concept_at(world, "w", (world.universe[-1],))
        assert shannon_inheritance(f, w, world).mutual_information == pytest.approx(
            oracles.concept_mutual_information(dist, (0,), (size - 1,)), abs=TOL
        )


def dist_of(world):
    size = len(world.universe)
    return {
        tuple((mask >> i) & 1 for i in range(size)): float(p)
        for mask, p in enumerate(world.probs)
        if p > 0
    }


def tiny_world():
    """Masses near 1e-300, normalized against one another."""
    rng = np.random.default_rng(5)
    return dense_world(tuple(f"v{i}" for i in range(6)), rng.integers(1, 9, 64) * 1e-300)


def tiny_cells_world():
    """Ordinary masses, plus cells of about 1e-300 where v0 holds."""
    weights = np.zeros(1 << 6)
    weights[0b000010], weights[0b111110], weights[0b000100] = 0.5, 0.25, 0.25
    weights[0b000001], weights[0b100011] = 1e-300, 3e-300
    return dense_world(tuple(f"v{i}" for i in range(6)), weights)


def single_cell_world():
    weights = np.zeros(1 << 7)
    weights[0b1010010] = 3.0
    return dense_world(tuple(f"v{i}" for i in range(7)), weights)


def rare_world():
    """P(v0 or v1) is about 1e-12; 1 - P(neither) would lose most of its digits."""
    return build_independent_world([f"v{i}" for i in range(8)], [4e-13, 6e-13, 0.5, 0.3, 0.9, 0.2, 0.7, 0.05])


ADVERSARIAL_WORLDS = [tiny_world, tiny_cells_world, single_cell_world, rare_world]


class TestAdversarialWorlds:
    @pytest.mark.parametrize("make", ADVERSARIAL_WORLDS, ids=lambda make: make.__name__)
    def test_against_oracle(self, make):
        world = make()
        dist = dist_of(world)
        size = len(world.universe)
        rng = np.random.default_rng(size)
        pairs = [((0,), (size - 1,)), ((0, 1), (1, 2, 3)), (tuple(range(size)), (0,))]
        pairs += [
            (tuple(rng.choice(size, rng.integers(1, 4), replace=False)), tuple(rng.choice(size, rng.integers(1, 4), replace=False)))
            for _ in range(30)
        ]
        for f_idx, w_idx in pairs:
            f = concept_at(world, "f", [world.universe[i] for i in f_idx])
            w = concept_at(world, "w", [world.universe[i] for i in w_idx])
            p_f = oracles.union_probability(dist, f_idx)
            assert math.isclose(world.union_probability(f.ids), p_f, rel_tol=1e-9)
            report = shannon_inheritance(f, w, world)
            mi = report.mutual_information
            assert mi >= -1e-12
            assert mi == pytest.approx(oracles.concept_mutual_information(dist, f_idx, w_idx), abs=1e-12)
            if p_f == 0.0:
                assert report.exact_conditional is None
                continue
            assert 0.0 <= report.exact_conditional <= 1.0
            assert report.mutual_information >= -1e-12
            expected = oracles.exact_conditional(dist, f_idx, w_idx)
            assert math.isclose(report.exact_conditional, expected, rel_tol=1e-9, abs_tol=0.0)
        lattice = interaction_information(world.universe, world).value
        assert lattice == pytest.approx(oracles.interaction_information(dist, range(size)), abs=TOL)

    def test_rare_antecedent_keeps_its_digits(self):
        world = rare_world()
        f = concept_at(world, "f", ("v0", "v1"))
        w = concept_at(world, "w", ("v1", "v2"))
        p_f = 4e-13 + 6e-13 - 4e-13 * 6e-13
        assert not math.isclose(1.0 - (1.0 - 4e-13) * (1.0 - 6e-13), p_f, rel_tol=1e-9)
        assert math.isclose(world.union_probability(f.ids), p_f, rel_tol=1e-9)
        # P(W | F) = P(v1 | F) + P(v0, not v1 | F) * P(v2)
        expected = (6e-13 + 4e-13 * (1.0 - 6e-13) * 0.5) / p_f
        assert math.isclose(shannon_inheritance(f, w, world).exact_conditional, expected, rel_tol=1e-9)

    @given(
        st.integers(2, 7),
        st.lists(st.sampled_from([0.0, 0.0, 1e-300, 3e-300, 1e-12, 0.25, 1.0]), min_size=128, max_size=128),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_mixed_scales(self, size, weights, rng):
        weights = np.array(weights[: 1 << size])
        if not weights.any():
            weights[-1] = 1.0
        world = dense_world(tuple(f"v{i}" for i in range(size)), weights)
        dist = dist_of(world)
        f_idx = tuple(rng.sample(range(size), rng.randint(1, size)))
        w_idx = tuple(rng.sample(range(size), rng.randint(1, size)))
        f = concept_at(world, "f", [world.universe[i] for i in f_idx])
        w = concept_at(world, "w", [world.universe[i] for i in w_idx])
        lattice = interaction_information(world.universe, world).value
        assert lattice == pytest.approx(oracles.interaction_information(dist, range(size)), abs=TOL)
        p_f = oracles.union_probability(dist, f_idx)
        assert math.isclose(world.union_probability(f.ids), p_f, rel_tol=1e-9)
        if p_f == 0.0:
            return
        report = shannon_inheritance(f, w, world)
        assert 0.0 <= report.exact_conditional <= 1.0
        assert report.mutual_information >= -1e-12
        assert math.isclose(report.exact_conditional, oracles.exact_conditional(dist, f_idx, w_idx), rel_tol=1e-9)
