import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intension.closed_forms import (
    ExclusiveCaseParams,
    ExtensionalPair,
    exclusive_algorithmic,
    exclusive_shannon,
    extensional_inheritance,
    framework_discrepancy,
    singleton_reduction_check,
)
from intension.errors import (
    EmptyAntecedent,
    InvalidOverlap,
    UniverseTooLarge,
    ZeroOverlap,
)
from intension.model import build_exclusive_world
from intension.shannon import shannon_inheritance


class TestExclusiveCaseParams:
    def test_derived_quantities(self):
        params = ExclusiveCaseParams(4, 3, 2)
        assert params.s == 5
        assert params.p == 0.2
        assert params.p * params.s == 1.0

    def test_rejects_bad_overlap(self):
        with pytest.raises(InvalidOverlap):
            ExclusiveCaseParams(4, 3, 4)
        with pytest.raises(InvalidOverlap):
            ExclusiveCaseParams(4, 3, -1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ExclusiveCaseParams(0, 3, 0)


class TestExclusiveShannon:
    def test_full_overlap_of_antecedent(self):
        assert exclusive_shannon(ExclusiveCaseParams(3, 5, 3)) == 1.0

    def test_4_3_2(self):
        assert exclusive_shannon(ExclusiveCaseParams(4, 3, 2)) == 0.5

    def test_disjoint(self):
        assert exclusive_shannon(ExclusiveCaseParams(3, 5, 0)) == 0.0

    def test_matches_enumerated_world(self):
        for n in range(1, 9):
            for m in range(1, 9):
                for k in range(1, min(n, m) + 1):
                    world, f, w = build_exclusive_world(n, m, k)
                    report = shannon_inheritance(f, w, world)
                    closed = exclusive_shannon(ExclusiveCaseParams(n, m, k))
                    assert abs(report.exact_conditional - closed) <= 1e-12


class TestExclusiveAlgorithmic:
    def test_4_3_2_exact(self):
        mi, conditional = exclusive_algorithmic(ExclusiveCaseParams(4, 3, 2))
        assert mi == -1.0
        assert conditional == 0.3

    def test_identical_concepts(self):
        n = 4
        mi, conditional = exclusive_algorithmic(ExclusiveCaseParams(n, n, n))
        assert mi == 0.0
        assert conditional == 1.0

    def test_2_2_1(self):
        mi, conditional = exclusive_algorithmic(ExclusiveCaseParams(2, 2, 1))
        assert mi == -1.0
        assert conditional == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_overlap_flagged(self):
        with pytest.raises(ZeroOverlap):
            exclusive_algorithmic(ExclusiveCaseParams(2, 2, 0))

    def test_mutual_information_is_log_conditional(self):
        for n in range(1, 9):
            for m in range(1, 9):
                for k in range(1, min(n, m) + 1):
                    mi, _ = exclusive_algorithmic(ExclusiveCaseParams(n, m, k))
                    assert mi == pytest.approx(math.log2(k / n), abs=1e-12)

    def test_mutual_information_keeps_its_digits_near_k_equal_n(self):
        # log2(103) - log2(108) cancels about 7 bits; log2 of the ratio does not
        assert exclusive_algorithmic(ExclusiveCaseParams(108, 108, 103))[0] == math.log2(103 / 108)

    def test_conditional_is_scaled_shannon(self):
        # the two closed forms differ by exactly the m/s factor
        for n in range(1, 9):
            for m in range(1, 9):
                for k in range(1, min(n, m) + 1):
                    params = ExclusiveCaseParams(n, m, k)
                    _, conditional = exclusive_algorithmic(params)
                    assert conditional == exclusive_shannon(params) * (m / params.s)


class TestFrameworkDiscrepancy:
    def test_zero_when_antecedent_fully_shared(self):
        assert framework_discrepancy(ExclusiveCaseParams(3, 5, 3)) == 0.0
        assert framework_discrepancy(ExclusiveCaseParams(1, 1, 1)) == 0.0

    def test_4_3_2(self):
        assert framework_discrepancy(ExclusiveCaseParams(4, 3, 2)) == 0.2

    def test_zero_overlap_propagates(self):
        with pytest.raises(ZeroOverlap):
            framework_discrepancy(ExclusiveCaseParams(2, 2, 0))

    def test_closed_expression(self):
        for n in range(1, 7):
            for m in range(1, 7):
                for k in range(1, min(n, m) + 1):
                    params = ExclusiveCaseParams(n, m, k)
                    expected = float(Fraction(k, n) * (1 - Fraction(m, params.s)))
                    assert framework_discrepancy(params) == pytest.approx(expected, abs=1e-12)


class TestExtensionalPair:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            ExtensionalPair(frozenset({0}), frozenset(), 3)
        with pytest.raises(ValueError):
            ExtensionalPair(frozenset({4}), frozenset(), 3)

    def test_accepts_sets(self):
        pair = ExtensionalPair({1, 2}, {2}, 3)
        assert pair.f_extension == frozenset({1, 2})


class TestExtensionalInheritance:
    def test_subset(self):
        pair = ExtensionalPair({1, 2}, {1, 2, 3}, 5)
        assert extensional_inheritance(pair) == 1.0

    def test_partial_overlap(self):
        pair = ExtensionalPair({1, 2, 3, 4}, {3, 4, 5}, 10)
        assert extensional_inheritance(pair) == 0.5

    def test_disjoint(self):
        pair = ExtensionalPair({1, 2}, {3, 4}, 5)
        assert extensional_inheritance(pair) == 0.0

    def test_empty_antecedent(self):
        with pytest.raises(EmptyAntecedent):
            extensional_inheritance(ExtensionalPair(frozenset(), {1}, 3))

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=60)
    def test_monotone_in_overlap(self, size, data):
        f = data.draw(st.sets(st.integers(1, size), min_size=1))
        w_small = data.draw(st.sets(st.sampled_from(sorted(f))))
        extra = data.draw(st.sets(st.sampled_from(sorted(f - w_small))) if f - w_small else st.just(set()))
        w_large = w_small | extra
        small = extensional_inheritance(ExtensionalPair(f, w_small, size))
        large = extensional_inheritance(ExtensionalPair(f, w_large, size))
        assert large >= small


class TestSingletonReduction:
    def test_worked_example(self):
        pair = ExtensionalPair({1, 2}, {2, 3}, 3)
        assert singleton_reduction_check(pair) == (0.5, 0.5)

    def test_identical_extensions(self):
        pair = ExtensionalPair({1, 3}, {1, 3}, 4)
        assert singleton_reduction_check(pair) == (1.0, 1.0)

    def test_disjoint_extensions(self):
        pair = ExtensionalPair({1}, {2}, 3)
        assert singleton_reduction_check(pair) == (0.0, 0.0)

    def test_universe_cap(self):
        with pytest.raises(UniverseTooLarge):
            singleton_reduction_check(ExtensionalPair({1}, {2}, 25))
        with pytest.raises(UniverseTooLarge):
            singleton_reduction_check(ExtensionalPair({1}, {2}, 10**12))

    def test_empty_antecedent(self):
        with pytest.raises(EmptyAntecedent):
            singleton_reduction_check(ExtensionalPair(frozenset(), {1}, 3))

    def test_exhaustive_small_universes(self):
        for size in range(1, 5):
            members = list(range(1, size + 1))
            for f_mask in range(1, 1 << size):
                f = {members[i] for i in range(size) if f_mask >> i & 1}
                for w_mask in range(1, 1 << size):
                    w = {members[i] for i in range(size) if w_mask >> i & 1}
                    ext, intens = singleton_reduction_check(ExtensionalPair(f, w, size))
                    assert abs(ext - intens) <= 1e-12

    def test_random_larger_universes(self):
        rng = random.Random(31)
        for _ in range(100):
            size = rng.randint(6, 10)
            f = set(rng.sample(range(1, size + 1), rng.randint(1, size)))
            w = set(rng.sample(range(1, size + 1), rng.randint(1, size)))
            ext, intens = singleton_reduction_check(ExtensionalPair(f, w, size))
            assert abs(ext - intens) <= 1e-12
