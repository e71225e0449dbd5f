import time
import tracemalloc
from pathlib import Path

import pytest

from intension.errors import ParseError
from intension.files import load_concepts, load_world, parse_concepts, parse_world

DATA = Path(__file__).parent / "data"


class TestParseConcepts:
    def test_two_concepts(self):
        text = """
        # a comment
        concept bird
        property beak 1.0
        property flies 0.9

        concept penguin
        property beak 1.0
        property flies 0.0
        """
        concepts = parse_concepts(text)
        assert set(concepts) == {"bird", "penguin"}
        assert dict(concepts["bird"].properties)["flies"] == 0.9

    def test_property_before_header(self):
        with pytest.raises(ParseError) as err:
            parse_concepts("property a 0.5")
        assert err.value.line == 1

    def test_bad_degree_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_concepts("concept c\nproperty a banana")
        assert err.value.line == 2

    def test_degree_out_of_range(self):
        with pytest.raises(ParseError):
            parse_concepts("concept c\nproperty a 1.5")

    def test_duplicate_property(self):
        with pytest.raises(ParseError) as err:
            parse_concepts("concept c\nproperty a 0.5\nproperty a 0.6")
        assert err.value.line == 3

    def test_duplicate_concept(self):
        text = "concept c\nproperty a 0.5\nconcept c\nproperty b 0.5"
        with pytest.raises(ParseError) as err:
            parse_concepts(text)
        assert err.value.line == 3

    def test_empty_concept(self):
        with pytest.raises(ParseError) as err:
            parse_concepts("concept c\nconcept d\nproperty a 1.0")
        assert err.value.line == 1

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_concepts("concpt c")

    def test_extra_tokens(self):
        with pytest.raises(ParseError):
            parse_concepts("concept c extra")


class TestParseWorld:
    def test_independent(self):
        world = parse_world("independent\nx 0.5\ny 0.25")
        assert world.universe == ("x", "y")
        assert world.marginal("y") == pytest.approx(0.25, abs=1e-12)

    def test_exclusive(self):
        world = parse_world("exclusive 4 3 2")
        assert world.universe == ("p1", "p2", "p3", "p4", "p5")
        assert world.marginal("p1") == pytest.approx(0.2, abs=1e-12)

    def test_instances_with_empty_row(self):
        world = parse_world("instances\na,b 2\n- 1\nb 1")
        assert world.universe == ("a", "b")
        assert world.probs[0] == pytest.approx(0.25, abs=1e-12)
        assert world.probs[0b11] == pytest.approx(0.5, abs=1e-12)

    def test_universe_order_is_first_appearance(self):
        world = parse_world("instances\nc 1\na,b 1")
        assert world.universe == ("c", "a", "b")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_world("# nothing here")

    def test_unknown_mode(self):
        with pytest.raises(ParseError):
            parse_world("joint\nx 0.5")

    def test_exclusive_rejects_extra_lines(self):
        with pytest.raises(ParseError) as err:
            parse_world("exclusive 2 2 1\nx 0.5")
        assert err.value.line == 2

    def test_exclusive_bad_counts(self):
        with pytest.raises(ParseError):
            parse_world("exclusive 4 3 four")
        with pytest.raises(ParseError):
            parse_world("exclusive 4 3 4")

    def test_independent_bad_marginal(self):
        with pytest.raises(ParseError) as err:
            parse_world("independent\nx 2.0")
        assert err.value.line == 2

    @pytest.mark.parametrize("marginal", ["1.5", "nan", "-inf"])
    def test_independent_bad_marginal_at_its_own_line(self, marginal):
        with pytest.raises(ParseError, match=f"marginal must lie in \\[0, 1\\], got {marginal}") as err:
            parse_world(f"independent\na 0.5\nb 0.25\nc {marginal}")
        assert err.value.line == 4

    def test_independent_cap_at_the_header(self):
        text = "# wide\nindependent\n" + "".join(f"p{i} 0.5\n" for i in range(25))
        with pytest.raises(ParseError, match="more than 24 properties") as err:
            parse_world(text)
        assert err.value.line == 2

    def test_independent_duplicate_property(self):
        with pytest.raises(ParseError):
            parse_world("independent\nx 0.5\nx 0.5")

    def test_independent_needs_rows(self):
        with pytest.raises(ParseError):
            parse_world("independent")

    def test_instances_duplicate_in_row(self):
        with pytest.raises(ParseError):
            parse_world("instances\na,a 1")

    def test_instances_negative_weight(self):
        with pytest.raises(ParseError):
            parse_world("instances\na -1")

    def test_instances_zero_total(self):
        with pytest.raises(ParseError):
            parse_world("instances\na 0")

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_instances_nonfinite_weight(self, weight):
        with pytest.raises(ParseError, match=f"row weight must be finite and nonnegative, got {weight}") as err:
            parse_world(f"instances\na 1\nb {weight}")
        assert err.value.line == 3

    def test_instances_bad_weight(self):
        with pytest.raises(ParseError) as err:
            parse_world("instances\na heavy")
        assert err.value.line == 2

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_rows_break_only_at_universal_newlines(self, sep):
        # str.splitlines() breaks at these too; open() does not, so the bad row is on line 3
        with pytest.raises(ParseError, match="bad weight 'x'") as err:
            parse_world(f"instances\na 1{sep}\nc x")
        assert err.value.line == 3


class TestLoadFiles:
    def test_load_fixture_concepts(self):
        concepts = load_concepts(DATA / "concepts.txt")
        assert set(concepts) == {"f", "w", "never"}

    def test_load_fixture_world(self):
        world = load_world(DATA / "correlated_world.txt")
        assert world.universe == ("x", "y", "z", "q")
        assert world.marginal("x") == pytest.approx(0.9, abs=1e-12)
        assert world.marginal("q") == 0.0

    def test_load_parity_world(self):
        world = load_world(DATA / "parity_world.txt")
        assert world.universe == ("b", "c", "a")
        assert float(world.probs[0]) == pytest.approx(0.25, abs=1e-12)

    def test_instances_load_in_bounded_memory(self, tmp_path):
        # 16,384 rows over 16 properties, as in the benchmark's lattice world: rows go straight into arrays
        ids = [f"v{j:02d}" for j in range(16)]
        rows = []
        for i in range(1 << 14):
            mask = i << 2 | (i % 3 == 0) << 1 | (i % 5 == 0)
            rows.append(f"{','.join(pid for j, pid in enumerate(ids) if mask >> j & 1)} {(i % 97 + 1) / 97!r}\n")
        path = tmp_path / "world.txt"
        path.write_text("instances\n" + "".join(rows))
        tracemalloc.start()
        try:
            world = load_world(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(world.universe) == 16
        assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MiB"

    def test_source_in_message(self):
        with pytest.raises(ParseError) as err:
            parse_world("independent\nx nope", source="world.txt")
        assert "world.txt:2" in str(err.value)


class TestWideInputs:
    """Id-heavy files are parsed, or refused, in linear time: 50,000 ids within a generous 5 s."""

    N = 50_000
    LIMIT_S = 5.0

    def _timed(self, fn, text):
        start = time.perf_counter()
        try:
            return fn(text)
        finally:
            assert time.perf_counter() - start < self.LIMIT_S

    def test_wide_independent_world_refused(self):
        text = "independent\n" + "".join(f"p{i} 0.5\n" for i in range(self.N))
        with pytest.raises(ParseError, match="more than 24 properties"):
            self._timed(parse_world, text)

    def test_wide_instances_world_refused(self):
        text = "instances\n" + "".join(f"p{i} 1\n" for i in range(self.N))
        with pytest.raises(ParseError, match="more than 24 properties"):
            self._timed(parse_world, text)

    def test_instances_refused_at_the_25th_id(self):
        text = "instances\n" + "".join(f"p{i} 1\n" for i in range(25)) + "malformed\n"
        with pytest.raises(ParseError, match="more than 24 properties") as err:
            parse_world(text)
        assert err.value.line == 1

    def test_wide_concept_parsed(self):
        text = "concept c\n" + "".join(f"property p{i} 0.5\n" for i in range(self.N))
        concept = self._timed(parse_concepts, text)["c"]
        assert concept.ids == tuple(f"p{i}" for i in range(self.N))
