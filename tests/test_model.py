import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import concept_at, dense_world, world_from_dist, worlds
from intension.cli import build_score_report
from intension.closed_forms import ExtensionalPair, singleton_reduction_check
from intension.errors import (
    EmptyTable,
    InvalidConcept,
    InvalidDegree,
    InvalidOverlap,
    InvalidProperty,
    UniverseTooLarge,
    UnknownProperty,
)
from intension.files import parse_world
from intension.model import (
    MAX_UNIVERSE,
    Concept,
    DegreeMismatchWarning,
    WorldModel,
    build_exclusive_world,
    build_independent_world,
    check_universe,
    degree_mismatches,
    joint_event_probability,
    pair_joint,
    world_from_instances,
)
from intension.shannon import interaction_information, shannon_inheritance

TOL = 1e-12


class TestConcept:
    def test_holds_pairs(self):
        c = Concept("bird", (("beak", 1.0), ("flies", 0.9)))
        assert c.ids == ("beak", "flies")
        assert c.ids is c.ids  # built once per concept, not on every read
        twin = Concept("bird", (("beak", 1.0), ("flies", 0.9)))
        assert c == twin and hash(c) == hash(twin)
        assert dict(c.properties)["flies"] == 0.9

    def test_rejects_empty(self):
        with pytest.raises(InvalidConcept):
            Concept("empty", ())

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidConcept):
            Concept("dup", (("a", 0.5), ("a", 0.7)))

    def test_duplicate_report_is_linear(self):
        props = tuple((f"p{i}", 0.5) for i in range(50_000)) + (("p7", 0.5),)
        start = time.perf_counter()
        with pytest.raises(InvalidConcept, match=r"\['p7'\]"):
            Concept("wide", props)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("degree", [-0.1, 1.1, float("nan")])
    def test_rejects_bad_degree(self, degree):
        with pytest.raises(InvalidDegree):
            Concept("bad", (("a", degree),))

    @pytest.mark.parametrize("pid", ["", "two words", "tab\tid", 7])
    def test_rejects_bad_id(self, pid):
        with pytest.raises(InvalidProperty):
            Concept("bad", ((pid, 0.5),))


class TestCheckUniverse:
    def test_cap_checked_before_the_ids_are_drawn(self):
        drawn = 0

        def names():
            nonlocal drawn
            while True:
                drawn += 1
                assert drawn <= MAX_UNIVERSE + 1, "drew ids past the cap"
                yield f"v{drawn}"

        with pytest.raises(UniverseTooLarge):
            check_universe(names())
        assert drawn == MAX_UNIVERSE + 1

    def test_cap_checked_before_duplicates(self):
        with pytest.raises(UniverseTooLarge):
            check_universe(["a"] * (MAX_UNIVERSE + 1))
        with pytest.raises(InvalidProperty):
            check_universe(["a"] * MAX_UNIVERSE)

    def test_accepts_a_generator_within_the_cap(self):
        assert check_universe(f"v{i}" for i in range(MAX_UNIVERSE)) == tuple(f"v{i}" for i in range(MAX_UNIVERSE))


class TestBuildIndependentWorld:
    def test_degenerate_certainty(self):
        world = build_independent_world(["a"], [1.0])
        assert world.probs[1] == 1.0
        assert world.probs[0] == 0.0

    def test_uniform_product(self):
        world = build_independent_world(["a", "b"], [0.5, 0.5])
        assert np.allclose(world.probs, 0.25, atol=TOL)

    def test_three_marginals_product(self):
        world = build_independent_world(["a", "b", "c"], [0.2, 0.5, 0.9])
        # mask for a=0, b=1, c=1 is bits 1 and 2
        assert world.probs[0b110] == pytest.approx(0.8 * 0.5 * 0.9, abs=TOL)
        assert float(world.probs.sum()) == pytest.approx(1.0, abs=TOL)

    def test_cap(self):
        with pytest.raises(UniverseTooLarge):
            build_independent_world([f"v{i}" for i in range(25)], [0.5] * 25)

    def test_bad_marginal(self):
        with pytest.raises(InvalidDegree):
            build_independent_world(["a"], [1.2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_independent_world(["a", "b"], [0.5])

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6))
    def test_marginals_recovered(self, marginals):
        universe = tuple(f"v{i}" for i in range(len(marginals)))
        world = build_independent_world(universe, marginals)
        for pid, mu in zip(universe, marginals):
            assert world.marginal(pid) == pytest.approx(mu, abs=TOL)
            single = Concept("c", ((pid, mu),))
            assert world.union_probability(single.ids) == pytest.approx(mu, abs=TOL)

    @given(st.data())
    @settings(max_examples=200)
    def test_query_is_the_numpy_build_bit_for_bit(self, data):
        # 0-3 disjoint groups, some possibly empty, or 12 singleton groups, in a drawn order; marginals from the
        # extremes or uniform. Every cell must be the float of the numpy reference, and a marginal exactly mu.
        singletons = data.draw(st.booleans())
        mus = st.sampled_from([0.0, 1e-300, 1e-12, 0.5, 1.0]) | st.floats(0.0, 1.0)
        marginals = data.draw(st.lists(mus, min_size=12 if singletons else 1, max_size=16))
        order = data.draw(st.permutations(range(len(marginals))))
        if singletons:
            groups = [[pos] for pos in order[:12]]
        else:
            count = data.draw(st.integers(0, 3))
            owner = data.draw(st.lists(st.integers(-1, count - 1), min_size=len(order), max_size=len(order)))
            groups = [[pos for pos in order if owner[pos] == k] for k in range(count)]
        universe = [f"v{i}" for i in range(len(marginals))]
        world = build_independent_world(universe, marginals)
        got, want = world._kept(groups), oracles.product_kept(marginals, groups)
        assert isinstance(got, list) and len(got) == want.shape[0] == 1 << len(groups)
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))
        for pid, mu in zip(universe, marginals):
            assert world.marginal(pid) == mu


class TestBuildExclusiveWorld:
    def test_total_overlap_degenerate(self):
        world, f, w = build_exclusive_world(1, 1, 1)
        assert world.universe == ("p1",)
        assert world.probs[1] == 1.0
        assert f.properties == w.properties

    def test_counts_4_3_2(self):
        world, f, w = build_exclusive_world(4, 3, 2)
        assert len(world.universe) == 5
        assert world.union_probability(f.ids) == pytest.approx(0.8, abs=TOL)
        assert world.union_probability(w.ids) == pytest.approx(0.6, abs=TOL)
        assert joint_event_probability(f, w, world) == pytest.approx(0.4, abs=TOL)

    def test_disjoint(self):
        world, f, w = build_exclusive_world(2, 2, 0)
        assert len(world.universe) == 4
        assert joint_event_probability(f, w, world) == 0.0

    def test_share_counts_exhaustive(self):
        # P(F) = n/s, P(W) = m/s, P(F and W) = k/s across the full grid
        for n in range(1, 9):
            for m in range(1, 9):
                for k in range(1, min(n, m) + 1):
                    world, f, w = build_exclusive_world(n, m, k)
                    s = n + m - k
                    assert world.union_probability(f.ids) == pytest.approx(n / s, abs=TOL)
                    assert world.union_probability(w.ids) == pytest.approx(m / s, abs=TOL)
                    assert joint_event_probability(f, w, world) == pytest.approx(k / s, abs=TOL)
                    for pid in world.universe:
                        assert world.marginal(pid) == pytest.approx(1 / s, abs=TOL)

    def test_bad_overlap(self):
        with pytest.raises(InvalidOverlap):
            build_exclusive_world(4, 3, 4)

    def test_cap(self):
        with pytest.raises(UniverseTooLarge):
            build_exclusive_world(20, 10, 1)
        with pytest.raises(UniverseTooLarge):
            build_exclusive_world(10**12, 1, 0)  # refused without naming 10**12 properties

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            build_exclusive_world(0, 1, 0)


class TestWorldFromInstances:
    def test_two_equal_rows(self):
        world = world_from_instances(("a", "b"), [0b01, 0b10], [1.0, 1.0])
        assert world.probs[0b01] == 0.5
        assert world.probs[0b10] == 0.5

    def test_weight_normalization(self):
        world = world_from_instances(("a",), [1, 0], [3.0, 1.0])
        assert world.probs[1] == pytest.approx(0.75, abs=TOL)

    def test_single_row(self):
        world = world_from_instances(("a", "b"), [0b11], [2.0])
        assert world.probs[0b11] == 1.0

    def test_zero_total_weight(self):
        with pytest.raises(EmptyTable, match="at least one row with positive weight"):
            world_from_instances(("a",), [1, 0], [0.0, 0.0])

    def test_total_is_exact_in_any_row_order(self):
        # one 1.0 and 1,000 weights of 2**-53: a running or pairwise sum loses some of the small ones, and how many
        # depends on the order; the exact total 1 + 1000 * 2**-53 is a double, and both orders must give it
        masks, weights = [0] + [1] * 1000, [1.0] + [2.0**-53] * 1000
        for order in (slice(None), slice(None, None, -1)):
            world = world_from_instances(("a",), masks[order], weights[order])
            assert world._rows[2] == 1 + 1000 * 2**-53

    def test_cap_checked_before_table(self):
        universe = tuple(f"g{i}" for i in range(40))
        with pytest.raises(UniverseTooLarge):
            world_from_instances(universe, [(1 << 40) - 1, 0], [1.0, 1.0])

    @pytest.mark.parametrize("form", [list, np.array])
    @pytest.mark.parametrize(
        "rows, message",
        [
            (((1, 1.0), (-1, 1.0), (9, 1.0)), "row mask -1 out of range for 3 properties"),
            (((8, 1.0), (1, float("inf"))), "row mask 8 out of range"),
            (((1, 1.0), (1 << 70, 1.0)), f"row mask {1 << 70} out of range"),
            (((1, 1.0), (2, float("nan")), (3, -2.0)), "finite and nonnegative, got nan"),
            (((1, 1.0), (2, -2)), r"finite and nonnegative, got -2\.0$"),
            (((1, 1.0), (2, float("inf"))), "finite and nonnegative, got inf"),
        ],
    )
    def test_bad_row_named_in_row_order(self, rows, message, form):
        masks, weights = zip(*rows)
        with pytest.raises(ValueError, match=message):
            world_from_instances(("a", "b", "c"), form(masks), form(weights))

    @given(st.data(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_query_is_the_bincount_bit_for_bit(self, data, rng):
        # 1-300 rows drawn from at most 8 masks, so masks repeat, about 30% of them weighing 0, at scales from 1e-300
        # to 1e300; 0-3 disjoint groups, some possibly empty. The total must be math.fsum's float, every cell the
        # float of the numpy reference, as must the marginal table and the marginals, in a drawn order.
        size = data.draw(st.integers(1, 10))
        pool = [rng.randrange(1 << size) for _ in range(rng.randint(1, 8))]
        scale = data.draw(st.sampled_from([1e-300, 1e-12, 1.0, 1e12, 1e300]))
        rows = [(rng.choice(pool), rng.random() * scale if rng.random() > 0.3 else 0.0) for _ in range(rng.randint(1, 300))]
        rows[0] = (rows[0][0], scale)
        masks, weights = zip(*rows)
        count = data.draw(st.integers(0, 3))
        owner = data.draw(st.lists(st.integers(-1, count - 1), min_size=size, max_size=size))
        groups = [[pos for pos in data.draw(st.permutations(range(size))) if owner[pos] == k] for k in range(count)]
        world = world_from_instances([f"v{i}" for i in range(size)], masks, weights)
        total = world._rows[2]
        assert total == math.fsum(weights)  # positive and finite, so == is bit for bit
        want = oracles.row_kept(masks, weights, total, groups)
        assert np.array_equal(np.array(world._kept(groups)).view(np.int64), want.view(np.int64))
        order = data.draw(st.permutations(range(size)))
        ids = [world.universe[pos] for pos in order]
        want = oracles.row_kept(masks, weights, total, [[pos] for pos in order])
        assert np.array_equal(world.marginal_table(ids).view(np.int64), want.view(np.int64))
        want = [min(1.0, float(oracles.row_kept(masks, weights, total, [[pos]])[1])) for pos in order]
        assert np.array_equal(np.array(world.marginals(ids)).view(np.int64), np.array(want).view(np.int64))

    @given(st.data(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_table_is_the_bincount_bit_for_bit(self, data, rng):
        # universes of up to 24 properties, so a row key reads up to three mask bytes, and a table of at most 12 of
        # them in drawn order: every cell must be the float of the numpy reference
        size = data.draw(st.integers(1, 24))
        pool = [rng.randrange(1 << size) for _ in range(rng.randint(1, 40))]
        rows = [(rng.choice(pool), rng.random() if rng.random() > 0.3 else 0.0) for _ in range(rng.randint(1, 300))]
        rows[0] = (rows[0][0], 1.0)
        masks, weights = zip(*rows)
        world = world_from_instances([f"v{i}" for i in range(size)], masks, weights)
        order = data.draw(st.permutations(range(size)))[: data.draw(st.integers(0, min(size, 12)))]
        want = oracles.row_kept(masks, weights, world._rows[2], [[pos] for pos in order])
        got = world.marginal_table([world.universe[pos] for pos in order])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_one_weight_per_mask(self):
        with pytest.raises(ValueError, match="one weight per row mask"):
            world_from_instances(("a", "b"), [1, 2], [1.0])

    def test_duplicate_masks_accumulate(self):
        world = world_from_instances(("a",), [1, 1, 0], [1.0, 1.0, 2.0])
        assert world.probs[1] == pytest.approx(0.5, abs=TOL)

    def test_matches_row_loop_exactly(self):
        rng = np.random.default_rng(8)
        rows = tuple((int(m), float(w)) for m, w in zip(rng.integers(0, 16, 200), rng.random(200) * 1e3))
        weights = np.zeros(16)
        for mask, weight in rows:
            weights[mask] += weight
        world = world_from_instances(tuple("abcd"), *zip(*rows))
        assert np.array_equal(world.probs, dense_world(tuple("abcd"), weights).probs)

    def test_reserialization_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            size = int(rng.integers(1, 5))
            n_rows = int(rng.integers(1, 8))
            rows = tuple(
                (int(rng.integers(0, 1 << size)), float(rng.random()) + 0.01)
                for _ in range(n_rows)
            )
            universe = tuple(f"v{i}" for i in range(size))
            world = world_from_instances(universe, *zip(*rows))
            again = world_from_instances(universe, np.flatnonzero(world.probs), world.probs[world.probs > 0])
            assert np.allclose(world.probs, again.probs, atol=TOL)


class TestWorldModel:
    def test_weights_sum_to_one(self):
        world = dense_world(("a", "b"), [1.0, 2.0, 3.0, 4.0])
        assert float(world.probs.sum()) == pytest.approx(1.0, abs=TOL)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dense_world(("a",), [-1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dense_world(("a",), [float("inf"), 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            dense_world(("a", "b"), [0.5, 0.5])

    def test_rejects_duplicate_universe(self):
        with pytest.raises(InvalidProperty):
            dense_world(("a", "a"), [0.25] * 4)

    def test_cap_checked_before_table(self):
        with pytest.raises(UniverseTooLarge):
            dense_world(tuple(f"v{i}" for i in range(25)), [1.0])

    def test_probs_frozen(self):
        world = dense_world(("a",), [0.5, 0.5])
        with pytest.raises(ValueError):
            world.probs[0] = 1.0

    def test_unknown_property(self):
        world = dense_world(("a",), [0.5, 0.5])
        with pytest.raises(UnknownProperty):
            world.marginal("zzz")

    def test_overflowing_weight_sum(self):
        # every weight is finite, but their sum is not
        with pytest.raises(ValueError, match="total weight overflows a double"):
            dense_world(("a", "b"), [0.0, 1e308, 1e308, 0.0])

    def test_marginal_table_rejects_duplicates(self):
        world = dense_world(("a", "b"), [0.25] * 4)
        with pytest.raises(ValueError):
            world.marginal_table(["a", "a"])

    @given(worlds(max_vars=5))
    @settings(max_examples=50)
    def test_constructed_worlds_normalized(self, world):
        assert float(world.probs.sum()) == pytest.approx(1.0, abs=TOL)


def bincount_marginal(world, ids):
    """Reference marginal_table: one bucket key per cell, then np.bincount."""
    masks = np.arange(len(world.probs), dtype=np.int64)
    key = np.zeros(len(masks), dtype=np.int64)
    for j, pid in enumerate(ids):
        key |= ((masks >> world.universe.index(pid)) & 1) << j
    return np.bincount(key, weights=world.probs, minlength=1 << len(ids))


def random_world(size, seed):
    """World of up to 2**size random cells, about a quarter of them zero."""
    rng = np.random.default_rng(seed)
    weights = rng.random(1 << size) * (rng.random(1 << size) > 0.25)
    weights[int(rng.integers(1 << size))] += 1.0
    return dense_world(tuple(f"v{i}" for i in range(size)), weights)


def world_of_kind(kind, size, seed):
    """A world of the given kind over `size` properties, drawn from the seed."""
    if kind == "dense":
        return random_world(size, seed)
    rng = np.random.default_rng(seed)
    universe = tuple(f"v{i}" for i in range(size))
    if kind == "independent":
        marginals = rng.random(size)
        marginals[rng.random(size) < 0.2] = rng.integers(0, 2)  # some certain or impossible properties
        return build_independent_world(universe, marginals.tolist())
    if kind == "exclusive":
        n = int(rng.integers(1, size + 1))
        k = int(rng.integers(n == size, n + 1))  # s = n + m - k with m = size - n + k >= 1
        return build_exclusive_world(n, size - n + k, k)[0]
    n_rows = int(rng.integers(1, 60))
    masks = rng.choice(rng.integers(0, 1 << size, 8), n_rows)  # at most 8 distinct masks, so masks repeat
    weights = rng.random(n_rows) * (rng.random(n_rows) > 0.3)  # about 30% zero-weight rows
    weights[0] += 1.0
    return world_from_instances(universe, masks, weights)


class TestMarginalTable:
    @given(
        st.sampled_from(["dense", "independent", "exclusive", "instances"]),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=240)
    def test_matches_bincount_reference(self, kind, size, seed, rng):
        world = world_of_kind(kind, size, seed)
        order = list(world.universe)
        rng.shuffle(order)
        requests = [order[: rng.randint(1, size)], order[:1], order, list(world.universe)]
        tables = [world.marginal_table(ids) for ids in requests]  # before the reference densifies the world
        for ids, got in zip(requests, tables):
            assert got.shape == (1 << len(ids),)
            np.testing.assert_allclose(got, bincount_marginal(world, ids), rtol=1e-12, atol=1e-15)

    def test_structured_worlds_never_build_the_table(self):
        tracemalloc.start()
        try:
            independent = parse_world("independent\n" + "".join(f"v{i} {0.1 + 0.03 * i!r}\n" for i in range(24)))
            exclusive = parse_world("exclusive 12 12 0\n")
            extensional, intensional = singleton_reduction_check(ExtensionalPair({1, 2}, {2, 3}, 24))
            for world in (independent, exclusive):
                ids = world.universe[7:17]
                report, code = build_score_report(world, concept_at(world, "f", ids[:6]), concept_at(world, "w", ids[4:]))
                assert code == 0 and report.warnings == []
            _, peak = tracemalloc.get_traced_memory()
            wide_peaks = []
            for world in (independent, exclusive):  # F and W cover all 24 properties and share two
                f, w = concept_at(world, "f", world.universe[:12]), concept_at(world, "w", world.universe[-14:])
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                report, code = build_score_report(world, f, w)
                wide_peaks.append(tracemalloc.get_traced_memory()[1] - before)
                assert code == 0 and report.warnings == []
        finally:
            tracemalloc.stop()
        assert extensional == 0.5 and intensional == pytest.approx(0.5, abs=1e-12)
        assert peak < (8 << 24) // 4, f"peak {peak / 2**20:.1f} MiB"
        # a table over the 24 pooled properties would be 128 MiB
        assert max(wide_peaks) < 1 << 20, f"wide-pair peaks {[round(p / 2**20, 1) for p in wide_peaks]} MiB"
        assert "probs" not in vars(independent) and "probs" not in vars(exclusive)

    @staticmethod
    def count_passes(monkeypatch) -> list:
        calls = []
        original = WorldModel.marginal_table

        def counting(self, ids):
            calls.append(tuple(ids))
            return original(self, ids)

        monkeypatch.setattr(WorldModel, "marginal_table", counting)
        for name in ("marginal", "union_probability"):
            monkeypatch.setattr(WorldModel, name, None)  # any other pass would fail the score
        return calls

    def test_score_reads_no_marginal_table(self, monkeypatch):
        def refuse(self, ids):
            raise AssertionError(f"a score read the marginal table over {tuple(ids)}")

        world = build_independent_world([f"v{i}" for i in range(8)], [0.1 * (i + 1) for i in range(8)])
        null = build_independent_world([f"v{i}" for i in range(8)], [0.0] + [0.5] * 7)
        f_null, w_null = concept_at(null, "f", ("v0",)), concept_at(null, "w", ("v3", "v6"))
        monkeypatch.setattr(WorldModel, "marginal_table", refuse)
        f = Concept("f", (("v0", 0.1), ("v1", 0.2), ("v2", 0.3)))
        w = Concept("w", (("v2", 0.3), ("v5", 0.9)))  # v5 is declared off its marginal
        with pytest.warns(DegreeMismatchWarning) as caught:
            shannon_inheritance(f, w, world)
        assert [str(item.message).split(":")[0] for item in caught] == ["degree-mismatch v5"]
        report, code = build_score_report(null, f_null, w_null)
        assert (code, report.exact_conditional) == (3, "undefined")
        assert report.shannon_estimate == 0.75 and report.mutual_information_shannon == 0.0

    def test_interaction_reads_the_table_once(self, monkeypatch):
        world = dense_world(tuple(f"v{i}" for i in range(6)), np.arange(1.0, 65.0))
        calls = self.count_passes(monkeypatch)
        interaction_information(("v4", "v0", "v2", "v5"), world)
        assert calls == [("v4", "v0", "v2", "v5")]

    def test_score_allocates_less_than_one_table(self):
        world = build_independent_world([f"v{i}" for i in range(18)], [0.3] * 18)
        f = concept_at(world, "f", ("v0", "v9", "v17"))
        w = concept_at(world, "w", ("v9", "v4"))
        tracemalloc.start()
        try:
            shannon_inheritance(f, w, world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < world.probs.nbytes


class TestPairJoint:
    @staticmethod
    def check(world, f_pos, w_pos):
        universe = world.universe
        f, w = (Concept(name, tuple((universe[i], 0.5) for i in pos)) for name, pos in (("f", f_pos), ("w", w_pos)))
        got = pair_joint(f, w, world)
        size = len(universe)
        dist = {tuple(m >> i & 1 for i in range(size)): p for m, p in enumerate(world.probs.tolist())}
        want = oracles.indicator_joint(dist, f_pos, w_pos)
        assert len(got) == 4
        for cell, value in enumerate(got):
            assert abs(value - want.get(divmod(cell, 2), 0.0)) <= 1e-12

    @given(
        st.sampled_from(["dense", "independent", "exclusive", "instances"]),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=120)
    def test_matches_the_dense_joint(self, kind, size, seed, data):
        world = world_of_kind(kind, size, seed)
        f_pos = data.draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
        w_pos = data.draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
        self.check(world, f_pos, w_pos)

    @given(st.data())
    @settings(max_examples=120)
    def test_matches_the_dense_joint_at_extreme_marginals(self, data):
        marginals = data.draw(st.lists(st.sampled_from([0.0, 1e-300, 1e-12, 0.5, 1.0]), min_size=1, max_size=10))
        size = len(marginals)
        world = build_independent_world([f"v{i}" for i in range(size)], marginals)
        f_pos = data.draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
        w_pos = data.draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
        self.check(world, f_pos, w_pos)

    def test_same_floats_under_any_hash_seed(self):
        # the order in which a product world multiplies its factors decides the last bit of every field
        script = (
            "import dataclasses\n"
            "from intension.model import Concept, build_independent_world\n"
            "from intension.shannon import shannon_inheritance\n"
            "ids = [f'prop-{i}' for i in range(16)]\n"
            "world = build_independent_world(ids, [0.013 + 0.061 * i for i in range(16)])\n"
            "f = Concept('f', tuple((p, world.marginal(p)) for p in ids[:10]))\n"
            "w = Concept('w', tuple((p, world.marginal(p)) for p in reversed(ids[4:])))\n"
            "result = shannon_inheritance(f, w, world)\n"
            "print([repr(getattr(result, field.name)) for field in dataclasses.fields(result)])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


class TestConceptEventProbability:
    def test_exclusive_formula(self):
        world, f, _ = build_exclusive_world(4, 3, 2)
        assert world.union_probability(f.ids) == pytest.approx(0.8, abs=TOL)

    def test_full_universe_complement(self):
        dist = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
        world = world_from_dist(("a", "b"), dist)
        whole = concept_at(world, "all", ("a", "b"))
        assert world.union_probability(whole.ids) == pytest.approx(1.0 - 0.1, abs=TOL)

    def test_independent_pair_union(self):
        world = build_independent_world(["a", "b"], [0.5, 0.5])
        c = concept_at(world, "ab", ("a", "b"))
        assert world.union_probability(c.ids) == pytest.approx(0.75, abs=TOL)

    def test_unknown_property(self):
        world = build_independent_world(["a"], [0.5])
        with pytest.raises(UnknownProperty):
            world.union_probability(Concept("c", (("zzz", 0.5),)).ids)


class TestDegreeMismatches:
    def test_silent_when_close(self):
        world = build_independent_world(["a"], [0.5])
        assert degree_mismatches([Concept("c", (("a", 0.5),))], world) == []

    def test_names_only_the_disagreeing_property(self):
        world = build_independent_world(["a", "b", "c", "d"], [0.1, 0.2, 0.3, 0.4])
        c = Concept("c", (("d", 0.4), ("b", 0.25), ("a", 0.1)))
        assert [m.split(":")[0] for m in degree_mismatches([c], world)] == ["degree-mismatch b"]

    def test_reports_disagreement(self):
        world = build_independent_world(["a"], [0.9])
        messages = degree_mismatches([Concept("c", (("a", 0.5),))], world)
        assert len(messages) == 1
        assert "a" in messages[0] and "0.5" in messages[0] and "0.9" in messages[0]

    def test_one_pass_names_each_concept_in_order(self):
        # a shared property declared off its marginal by both concepts is named once for each, in concept order
        world = world_from_instances(("a", "b"), [0b01, 0b11, 0b10], [1.0, 1.0, 2.0])
        f, w = Concept("f", (("b", 0.75), ("a", 0.2))), Concept("w", (("a", 0.9), ("b", 0.75)))
        messages = degree_mismatches([f, w], world)
        assert [m.split(" declares")[0] for m in messages] == [
            "degree-mismatch a: concept 'f'",
            "degree-mismatch a: concept 'w'",
        ]
