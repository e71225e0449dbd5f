import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import overlapping_pair, random_concept
from intension.algorithmic import (
    DEGREE_SCALE,
    JOINT_SEPARATOR,
    AlgorithmicInheritance,
    Compressor,
    algorithmic_inheritance,
    canonical_serialize,
    deflate_compressor,
    estimate_complexities,
    get_compressor,
    identity_compressor,
    quantize_degree,
)
from intension.errors import CompressorFailure, InvalidDegree
from intension.model import Concept

# Regression bounds frozen from scripts/compressor_noise.py measurements of
# the bundled deflate compressor (sizes 8..64 properties, seeds 1,2,3,42,99):
# identical-pair loss 32..88 bits, disjoint cross-information <= 0.071 of
# min(k), disjoint-order asymmetry <= 72 bits, overlap-order asymmetry
# <= 216 bits, concatenation slack <= 16 bits.
SELF_LOSS_BOUND_BITS = 96.0
DISJOINT_RATIO_BOUND = 0.15
DISJOINT_ASYMMETRY_BOUND_BITS = 96.0
OVERLAP_ASYMMETRY_BOUND_BITS = 256.0
JOINT_SLACK_BITS = 64.0


class TestDegreeQuantization:
    def test_half_is_exact(self):
        assert quantize_degree(0.5) / DEGREE_SCALE == 0.5

    def test_third_rounds_to_fixed_point(self):
        # oracle: integer rounding of 65536/3
        expected = round(Fraction(65536, 3))
        assert quantize_degree(1 / 3) == expected == 21845
        assert quantize_degree(1 / 3) / DEGREE_SCALE == 21845 / 65536

    def test_one_saturates(self):
        # 1.0 needs 17 bits; the encoding saturates at 65535/65536
        assert quantize_degree(1.0) == 65535

    def test_zero(self):
        assert quantize_degree(0.0) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidDegree):
            quantize_degree(1.5)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_round_trip_error_bounded(self, d):
        assert abs(quantize_degree(d) / DEGREE_SCALE - d) <= 1 / 65536


class TestCanonicalSerialize:
    def test_property_order_normalized(self):
        a = Concept("c", (("b", 0.5), ("a", 0.5)))
        b = Concept("c", (("a", 0.5), ("b", 0.5)))
        assert canonical_serialize(a) == canonical_serialize(b)

    def test_exact_bytes_single_property(self):
        # count=1, idlen=1, 'a', degree 0.5 -> 32768
        assert canonical_serialize(Concept("c", (("a", 0.5),))) == b"\x00\x01\x00\x01a\x80\x00"

    def test_name_not_encoded(self):
        a = Concept("first", (("a", 0.5),))
        b = Concept("second", (("a", 0.5),))
        assert canonical_serialize(a) == canonical_serialize(b)

    def test_deterministic(self):
        c = random_concept(random.Random(0), "c", 12)
        assert canonical_serialize(c) == canonical_serialize(c)


class TestCompressors:
    def test_identity_on_empty(self):
        assert identity_compressor().length_bytes(b"") == 0

    def test_deflate_deterministic(self):
        comp = deflate_compressor()
        data = canonical_serialize(random_concept(random.Random(1), "c", 20))
        assert comp.length_bytes(data) == comp.length_bytes(data)

    def test_registry(self):
        assert get_compressor("identity").name == "identity"
        assert get_compressor("deflate").name == "deflate"
        with pytest.raises(CompressorFailure):
            get_compressor("nope")

    def test_failure_wrapped(self):
        def broken(data):
            raise RuntimeError("boom")

        with pytest.raises(CompressorFailure):
            Compressor("broken", broken).length_bytes(b"x")

    def test_bad_length_wrapped(self):
        with pytest.raises(CompressorFailure):
            Compressor("bad", lambda data: -1).length_bytes(b"x")


class TestEmptyInputBaseline:
    def test_compressed_once_per_compressor(self):
        seen = []
        comp = Compressor("counting", lambda data: seen.append(data) or len(data))
        f = random_concept(random.Random(4), "f", 5)
        w = random_concept(random.Random(5), "w", 5, taken=f.ids)
        first = algorithmic_inheritance(f, w, comp)
        assert algorithmic_inheritance(f, w, comp) == first
        assert seen.count(b"") == 1
        assert len(seen) == 1 + 3 + 3

    def test_lengths_unchanged(self):
        # frozen from the deflate compressor before the baseline was cached
        f = random_concept(random.Random(6), "f", 12)
        w = random_concept(random.Random(7), "w", 12, taken=f.ids)
        for comp in (deflate_compressor(), get_compressor("deflate"), get_compressor("deflate")):
            est = estimate_complexities(f, w, comp)
            assert (est.k_f, est.k_w, est.k_joint, est.k_w_given_f, est.overhead) == (1168.0, 1168.0, 2304.0, 1136.0, 16.0)


class TestEstimateComplexities:
    def test_identity_compressor_arithmetic(self):
        # identical single-property concepts: I = -(separator length) * 8
        comp = identity_compressor()
        c = Concept("c", (("a", 1.0),))
        est = estimate_complexities(c, c, comp)
        assert est.mutual_information == -8.0 * len(JOINT_SEPARATOR) == -8.0
        length = len(canonical_serialize(c))
        assert est.k_f == est.k_w == 8.0 * length
        assert est.k_joint == 8.0 * (2 * length + 1)
        assert est.k_w_given_f == est.k_joint - est.k_f
        assert est.overhead == 0.0

    def test_minimal_concepts_finite_nonnegative(self):
        comp = deflate_compressor()
        f = Concept("f", (("a", 1.0),))
        w = Concept("w", (("b", 1.0),))
        est = estimate_complexities(f, w, comp)
        for value in (est.k_f, est.k_w, est.k_joint, est.k_w_given_f, est.overhead):
            assert value >= 0.0

    def test_self_information_near_maximal(self):
        comp = deflate_compressor()
        rng = random.Random(11)
        for _ in range(20):
            f = random_concept(rng, "f", rng.randint(8, 64))
            est = estimate_complexities(f, f, comp)
            assert est.k_f - est.mutual_information <= SELF_LOSS_BOUND_BITS

    def test_disjoint_cross_information_bounded(self):
        comp = deflate_compressor()
        rng = random.Random(12)
        for _ in range(100):
            f = random_concept(rng, "f", rng.randint(8, 64))
            w = random_concept(rng, "w", rng.randint(8, 64), taken=f.ids)
            est = estimate_complexities(f, w, comp)
            assert est.mutual_information <= DISJOINT_RATIO_BOUND * min(est.k_f, est.k_w)

    def test_joint_never_much_worse_than_parts(self):
        comp = deflate_compressor()
        rng = random.Random(13)
        for _ in range(50):
            f = random_concept(rng, "f", rng.randint(1, 64))
            w = random_concept(rng, "w", rng.randint(1, 64), taken=f.ids)
            est = estimate_complexities(f, w, comp)
            assert est.k_joint <= est.k_f + est.k_w + JOINT_SLACK_BITS


class TestSymmetry:
    def test_identity_compressor_exactly_symmetric(self):
        comp = identity_compressor()
        rng = random.Random(14)
        for _ in range(20):
            f = random_concept(rng, "f", rng.randint(1, 64))
            w = random_concept(rng, "w", rng.randint(1, 64), taken=f.ids)
            fw = estimate_complexities(f, w, comp).mutual_information
            wf = estimate_complexities(w, f, comp).mutual_information
            assert fw == wf

    def test_deflate_disjoint_asymmetry_bounded(self):
        comp = deflate_compressor()
        rng = random.Random(15)
        for _ in range(60):
            f = random_concept(rng, "f", rng.randint(1, 64))
            w = random_concept(rng, "w", rng.randint(1, 64), taken=f.ids)
            fw = estimate_complexities(f, w, comp).mutual_information
            wf = estimate_complexities(w, f, comp).mutual_information
            assert abs(fw - wf) <= DISJOINT_ASYMMETRY_BOUND_BITS

    def test_deflate_overlap_asymmetry_bounded(self):
        comp = deflate_compressor()
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randint(2, 64)
            f, w = overlapping_pair(rng, n, rng.randint(1, n - 1))
            fw = estimate_complexities(f, w, comp).mutual_information
            wf = estimate_complexities(w, f, comp).mutual_information
            assert abs(fw - wf) <= OVERLAP_ASYMMETRY_BOUND_BITS


class TestAlgorithmicInheritance:
    def test_field_identity_exact(self):
        rng = random.Random(17)
        for comp in (identity_compressor(), deflate_compressor()):
            for _ in range(25):
                f = random_concept(rng, "f", rng.randint(1, 40))
                w = random_concept(rng, "w", rng.randint(1, 40), taken=f.ids)
                result = algorithmic_inheritance(f, w, comp)
                assert result.conditional_estimate == result.prior_estimate * 2.0 ** result.mutual_information

    def test_self_estimate_dominates_prior(self):
        # small concept: beyond ~10 properties the linear-space prior
        # underflows a double and only mutual_information stays usable
        comp = deflate_compressor()
        f = random_concept(random.Random(18), "f", 8)
        result = algorithmic_inheritance(f, f, comp)
        assert result.conditional_estimate > result.prior_estimate
        # ratio is 2**I with I near k_w
        est = estimate_complexities(f, f, comp)
        assert result.conditional_estimate / result.prior_estimate == 2.0 ** est.mutual_information

    def test_disjoint_ratio_bounded(self):
        comp = deflate_compressor()
        rng = random.Random(19)
        for _ in range(50):
            f = random_concept(rng, "f", rng.randint(2, 8))
            w = random_concept(rng, "w", rng.randint(2, 8), taken=f.ids)
            est = estimate_complexities(f, w, comp)
            result = algorithmic_inheritance(f, w, comp)
            bound = 2.0 ** (DISJOINT_RATIO_BOUND * min(est.k_f, est.k_w))
            assert result.conditional_estimate / result.prior_estimate <= bound

    def test_self_beats_low_overlap(self):
        comp = deflate_compressor()
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randint(12, 40)
            f, w = overlapping_pair(rng, n, rng.randint(0, (n - 1) // 2))
            self_i = algorithmic_inheritance(f, f, comp).mutual_information
            cross_i = algorithmic_inheritance(f, w, comp).mutual_information
            assert self_i >= cross_i

    def test_noise_flag(self):
        assert AlgorithmicInheritance(-8.0, 0.5, 0.5 * 2.0**-8).within_noise_floor
        assert not AlgorithmicInheritance(200.0, 0.5, 0.5 * 2.0**200).within_noise_floor

    def test_determinism(self):
        comp = deflate_compressor()
        f = random_concept(random.Random(21), "f", 16)
        w = random_concept(random.Random(22), "w", 16, taken=f.ids)
        assert algorithmic_inheritance(f, w, comp) == algorithmic_inheritance(f, w, comp)

    def test_negative_information_reported_unclamped(self):
        comp = identity_compressor()
        c = Concept("c", (("a", 1.0),))
        result = algorithmic_inheritance(c, c, comp)
        assert result.mutual_information == -8.0
        assert result.within_noise_floor
