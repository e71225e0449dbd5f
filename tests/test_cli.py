import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from intension.algorithmic import algorithmic_inheritance, get_compressor
from intension.cli import build_score_report, render_flat_json, run
from intension.files import load_concepts, load_world
from intension.model import Concept, build_independent_world
from intension.shannon import shannon_inheritance

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_INVOCATIONS = {
    "exclusive.txt": ["exclusive", "--n", "4", "--m", "3", "--k", "2"],
    "extensional.txt": ["extensional", "--universe", "3", "--f", "1,2", "--w", "2,3"],
    "score_self.txt": [
        "score",
        "--world", str(DATA / "correlated_world.txt"),
        "--concepts", str(DATA / "concepts.txt"),
        "--from", "f",
        "--to", "f",
    ],
}


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_matches_committed_golden(self, capsys, name):
        code, out, _ = invoke(capsys, GOLDEN_INVOCATIONS[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_byte_identical_across_runs(self, capsys, name):
        first = invoke(capsys, GOLDEN_INVOCATIONS[name])
        second = invoke(capsys, GOLDEN_INVOCATIONS[name])
        assert first == second

    def test_exclusive_text_contains_required_fields(self, capsys):
        _, out, _ = invoke(capsys, GOLDEN_INVOCATIONS["exclusive.txt"])
        assert "shannon=0.5" in out
        assert "algorithmic=0.3" in out
        assert "discrepancy=0.2" in out

    def test_extensional_line(self, capsys):
        _, out, _ = invoke(capsys, GOLDEN_INVOCATIONS["extensional.txt"])
        assert out == "extensional=0.5 intensional=0.5 match=true\n"


class TestJsonFormat:
    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_round_trip_is_byte_identical(self, capsys, name):
        code, out, _ = invoke(capsys, GOLDEN_INVOCATIONS[name] + ["--format", "json"])
        assert code == 0
        assert render_flat_json(json.loads(out)) + "\n" == out

    def test_score_fields_match_library_exactly(self):
        world = load_world(DATA / "correlated_world.txt")
        concepts = load_concepts(DATA / "concepts.txt")
        f, w = concepts["f"], concepts["w"]
        report, code = build_score_report(world, f, w, algorithmic=True)
        assert code == 0
        direct = shannon_inheritance(f, w, world)
        assert report.exact_conditional == direct.exact_conditional
        assert report.shannon_estimate == direct.estimate_conditional
        assert report.mutual_information_shannon == direct.mutual_information
        algo = algorithmic_inheritance(f, w, get_compressor("deflate"))
        assert report.algorithmic_estimate == algo.conditional_estimate
        assert report.mutual_information_algorithmic == algo.mutual_information

    def test_skipped_literals_without_algorithmic(self, capsys):
        _, out, _ = invoke(capsys, GOLDEN_INVOCATIONS["score_self.txt"] + ["--format", "json"])
        parsed = json.loads(out)
        assert parsed["algorithmic_estimate"] == "skipped"
        assert parsed["mutual_information_algorithmic"] == "skipped"

    def test_no_overlap_literal(self, capsys):
        _, out, _ = invoke(capsys, ["exclusive", "--n", "2", "--m", "2", "--k", "0", "--format", "json"])
        parsed = json.loads(out)
        assert parsed["shannon"] == 0
        assert parsed["algorithmic"] == "no-overlap"
        assert parsed["algorithmic_mutual_information"] == "no-overlap"
        assert parsed["discrepancy"] == "no-overlap"


class TestScoreCommand:
    def test_estimate_warning_emitted(self, capsys):
        argv = [
            "score",
            "--world", str(DATA / "correlated_world.txt"),
            "--concepts", str(DATA / "concepts.txt"),
            "--from", "f",
            "--to", "w",
        ]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert "warnings=estimate>1" in out

    def test_algorithmic_fields_present(self, capsys):
        argv = GOLDEN_INVOCATIONS["score_self.txt"] + ["--algorithmic", "--format", "json"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        parsed = json.loads(out)
        # whole-bit values parse back as ints; both fields must be numeric
        assert isinstance(parsed["algorithmic_estimate"], (int, float))
        assert isinstance(parsed["mutual_information_algorithmic"], (int, float))
        assert parsed["algorithmic_estimate"] != "skipped"

    def test_null_antecedent_exits_3_with_undefined(self, capsys):
        argv = [
            "score",
            "--world", str(DATA / "correlated_world.txt"),
            "--concepts", str(DATA / "concepts.txt"),
            "--from", "never",
            "--to", "w",
        ]
        code, out, _ = invoke(capsys, argv)
        assert code == 3
        assert "exact_conditional=undefined" in out
        # estimate fields still computed
        assert "shannon_estimate=" in out

    def test_degree_mismatch_warning_round_trips(self, capsys, tmp_path):
        concepts = tmp_path / "concepts.txt"
        concepts.write_text("concept f\nproperty x 0.2\n\nconcept w\nproperty y 0.9\n")
        argv = [
            "score",
            "--world", str(DATA / "correlated_world.txt"),
            "--concepts", str(concepts),
            "--from", "f",
            "--to", "w",
            "--format", "json",
        ]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        parsed = json.loads(out)
        assert any(w.startswith("degree-mismatch x") for w in parsed["warnings"])
        assert parsed["warnings"] == sorted(parsed["warnings"])

    def test_unknown_concept_exits_2(self, capsys):
        argv = [
            "score",
            "--world", str(DATA / "correlated_world.txt"),
            "--concepts", str(DATA / "concepts.txt"),
            "--from", "nope",
            "--to", "w",
        ]
        code, _, err = invoke(capsys, argv)
        assert code == 2
        assert "nope" in err

    def test_missing_file_exits_2(self, capsys):
        argv = [
            "score",
            "--world", "does_not_exist.txt",
            "--concepts", str(DATA / "concepts.txt"),
            "--from", "f",
            "--to", "w",
        ]
        code, _, err = invoke(capsys, argv)
        assert code == 2
        assert err

    @pytest.mark.parametrize("extra", [["--algorithmic"], []], ids=["algorithmic", "shannon-only"])
    def test_unknown_compressor_exits_2(self, capsys, extra):
        argv = GOLDEN_INVOCATIONS["score_self.txt"] + extra + ["--compressor", "nope"]
        code, _, err = invoke(capsys, argv)
        assert code == 2
        assert "nope" in err


class TestConcurrentScores:
    def test_threads_on_one_world_keep_their_own_mismatches(self):
        # four threads score on one world, two a pair with a mismatched degree and two a pair with none, switching
        # every microsecond: each report must name exactly its own pair's mismatches
        world = build_independent_world(["a", "b", "c", "d"], [0.1, 0.2, 0.3, 0.4])
        off = (Concept("f", (("a", 0.5),)), Concept("w", (("b", 0.2),)))
        on = (Concept("g", (("c", 0.3),)), Concept("v", (("d", 0.4),)))
        cases = [(off, ["degree-mismatch a: concept 'f' declares 0.5, world marginal is 0.1"]), (on, [])] * 2
        seen, errors = [[] for _ in cases], []
        start, deadline = threading.Barrier(len(cases)), time.monotonic() + 5.0

        def score(pair, out):
            try:
                start.wait(timeout=10)
                while len(out) < 1000 and time.monotonic() < deadline:
                    report, _ = build_score_report(world, *pair)
                    out.append([w for w in report.warnings if w.startswith("degree-mismatch")])
            except BaseException as exc:  # reported below: an exception in a thread would not fail the test
                errors.append(exc)

        threads = [threading.Thread(target=score, args=(pair, out)) for (pair, _), out in zip(cases, seen)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for (_, own), out in zip(cases, seen):
            assert out and [got for got in out if got != own] == []


class TestOtherCommands:
    def test_interaction_on_parity_world(self, capsys):
        argv = ["interaction", "--world", str(DATA / "parity_world.txt"), "--vars", "a,b,c"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert "interaction_information=-1" in out
        assert "convention=McGill-inclusion-exclusion" in out

    def test_interaction_unknown_property_exits_2(self, capsys):
        argv = ["interaction", "--world", str(DATA / "parity_world.txt"), "--vars", "a,zzz"]
        code, _, err = invoke(capsys, argv)
        assert code == 2
        assert "zzz" in err

    def test_exclusive_invalid_overlap_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["exclusive", "--n", "2", "--m", "2", "--k", "3"])
        assert code == 2
        assert err

    def test_extensional_empty_antecedent_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["extensional", "--universe", "3", "--f", "", "--w", "1"])
        assert code == 2
        assert err

    def test_malformed_world_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad_world.txt"
        bad.write_text("independent\nx banana\n")
        code, _, err = invoke(capsys, ["interaction", "--world", str(bad), "--vars", "x,y"])
        assert code == 2
        assert ":2" in err  # line number in the diagnostic

    @pytest.mark.parametrize(
        "rows",
        [
            # 40 properties: refused before any 2**40 table is allocated
            [",".join(f"g{i:02d}" for i in range(40)) + " 1", "- 1"],
            # finite weights whose sum overflows
            ["a 1e308", "b 1e308"],
        ],
        ids=["wide", "overflowing"],
    )
    def test_unusable_instances_world_exits_2(self, capsys, tmp_path, rows):
        world = tmp_path / "world.txt"
        world.write_text("instances\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            code, out, err = invoke(capsys, ["interaction", "--world", str(world), "--vars", "a,b"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_flags_never_exit_0(self, capsys):
        assert run(["exclusive", "--n", "four"]) != 0
        capsys.readouterr()
        assert run(["unknown-command"]) != 0
        capsys.readouterr()
        assert run([]) != 0
        capsys.readouterr()

    @pytest.mark.parametrize("counts", [("1", "1" + "0" * 400, "1"), ("1" + "0" * 400, "1", "1")], ids=["huge-m", "huge-n"])
    def test_huge_exclusive_counts_exit_cleanly(self, capsys, counts):
        n, m, k = counts
        code, out, err = invoke(capsys, ["exclusive", "--n", n, "--m", m, "--k", k])
        assert (code, err) == (0, "")
        assert "p=0\n" in out  # 1/s underflows to 0.0
        fields = dict(line.split("=", 1) for line in out.splitlines())
        # counts are powers of ten, so log2(k/n) = (digits of k - digits of n) * log2(10), finite for any size
        expected = (len(k) - len(n)) * math.log2(10)
        assert float(fields["algorithmic_mutual_information"]) == pytest.approx(expected, rel=1e-11)


# Inputs for the CLI contract fuzz. About half the examples are well formed,
# so they reach the engines; the rest carry junk, huge or out-of-range tokens.
# Universes stay at 8 ids or fewer, or go past the 24-property cap, so no
# example allocates a near-cap table.
IDS = list("abcdefgh")
NAMES = ["f", "w"]
WORLD, CONCEPTS = "<world>", "<concepts>"
INT_JUNK = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(["9" * 5000, "four", "1.5", ""]),
)
NUMBER_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e308", "1e-320", "-0.0", "banana", "9" * 5000]),
    INT_JUNK.filter(bool),
)
COUNTS = st.integers(-1, 8) | st.integers(25, 10**400)


@st.composite
def cli_inputs(draw):
    clean = draw(st.booleans())
    number = st.floats(0, 1).map(repr) if clean else st.floats(0, 1).map(repr) | NUMBER_JUNK
    universe = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=8, unique=clean))
    kind = draw(st.sampled_from(["independent", "instances", "exclusive", "wide", "text"]))
    if kind == "independent":
        world = "\n".join(["independent"] + [f"{pid} {draw(number)}" for pid in universe])
    elif kind == "instances":
        row = st.lists(st.sampled_from(universe + ([] if clean else [""])), max_size=4, unique=clean)
        rows = [universe] + draw(st.lists(row, max_size=6))
        world = "\n".join(["instances"] + [f"{','.join(r) or '-'} {draw(number)}" for r in rows])
    elif kind == "exclusive":
        n, m, k = draw(COUNTS), draw(COUNTS), draw(COUNTS)
        valid = n >= 1 and m >= 1 and 0 <= k <= min(n, m)
        assume(not (valid and 8 < n + m - k <= 24))
        if valid and n + m - k <= 8:
            universe = [f"p{i}" for i in range(1, n + m - k + 1)]
        world = f"exclusive {n} {m} {k}" if clean else "exclusive " + " ".join(draw(st.lists(INT_JUNK, max_size=4)))
    elif kind == "wide":
        wide = [f"w{i}" for i in range(draw(st.integers(25, 40)))]
        world = "\n".join(["independent"] + [f"{pid} 0.5" for pid in wide])
        world = draw(st.sampled_from([world, f"instances\n{','.join(wide)} 1\n- 1"]))
    else:
        world = draw(st.text(max_size=200) | st.binary(max_size=200))

    pool = universe if clean else universe + ["zz"]
    lines = []
    for name in NAMES if clean else draw(st.lists(st.sampled_from(NAMES), max_size=3)):
        lines.append(f"concept {name}")
        for pid in draw(st.lists(st.sampled_from(pool), min_size=int(clean), max_size=5, unique=clean)):
            lines.append(f"property {pid} {draw(number)}")
    concepts = "\n".join(lines)
    if not clean and draw(st.booleans()):
        concepts = draw(st.text(max_size=200) | st.binary(max_size=200))

    command = draw(st.sampled_from(["score", "exclusive", "extensional", "interaction", "junk"]))
    if command == "score":
        names = st.sampled_from(NAMES if clean else NAMES + ["nope"])
        argv = ["score", "--world", WORLD, "--concepts", CONCEPTS, "--from", draw(names), "--to", draw(names)]
        argv += draw(st.sampled_from([[], ["--algorithmic"], ["--algorithmic", "--compressor", "identity"], ["--compressor", "nope"]]))
    elif command == "exclusive":
        counts = COUNTS.map(str) if clean else INT_JUNK
        argv = ["exclusive", "--n", draw(counts), "--m", draw(counts), "--k", draw(counts)]
    elif command == "extensional":
        size = draw(st.integers(1, 8) if clean else COUNTS)
        member = st.integers(1, size) if clean else st.integers(-2, 9) | st.integers(10, 10**400)
        f, w = (",".join(map(str, draw(st.lists(member, min_size=int(clean), max_size=5)))) for _ in range(2))
        argv = ["extensional", "--universe", str(size), "--f", f, "--w", w]
    elif command == "interaction":
        variables = st.lists(st.sampled_from(universe if clean else universe + ["zz", ""]), min_size=int(clean), max_size=6, unique=clean)
        argv = ["interaction", "--world", WORLD, "--vars", ",".join(draw(variables))]
    else:
        argv = draw(st.lists(st.text(max_size=10), max_size=6))
    argv += draw(st.sampled_from([[], [], ["--format", "json"], ["--format", "xml"]]))
    return world, concepts, argv


class TestNumpyStaysOut:
    def test_only_interaction_loads_numpy(self, tmp_path):
        # each subcommand but interaction runs without importing numpy, and interaction loads it only past its checks
        independent = tmp_path / "independent.txt"
        independent.write_text("independent\n" + "".join(f"v{i} 0.5\n" for i in range(13)))
        concepts = tmp_path / "concepts.txt"
        concepts.write_text("concept f\nproperty v0 0.5\nconcept w\nproperty v1 0.5\nproperty v2 0.5\n")
        exclusive = tmp_path / "exclusive.txt"
        exclusive.write_text("exclusive 2 2 1\n")
        (tmp_path / "excl_concepts.txt").write_text("concept f\nproperty p1 0.25\nconcept w\nproperty p3 0.25\n")
        wide = tmp_path / "wide.txt"
        wide.write_text("instances\n" + ",".join(f"g{i}" for i in range(25)) + " 1\n")
        score = ["score", "--from", "f", "--to", "w"]
        numpy_free = [
            (0, score + ["--world", str(independent), "--concepts", str(concepts), "--algorithmic"]),
            (0, score + ["--world", str(exclusive), "--concepts", str(tmp_path / "excl_concepts.txt")]),
            (0, score + ["--world", str(DATA / "correlated_world.txt"), "--concepts", str(DATA / "concepts.txt")]),
            (0, ["exclusive", "--n", "4", "--m", "3", "--k", "2"]),
            (0, ["extensional", "--universe", "5", "--f", "1,2", "--w", "2,3", "--format", "json"]),
            (2, score + ["--world", str(independent), "--concepts", str(concepts), "--algorithmic", "--compressor", "lzma"]),
            (2, ["interaction", "--world", str(wide), "--vars", "g0,g1"]),
            (2, ["interaction", "--world", str(independent), "--vars", ",".join(f"v{i}" for i in range(13))]),
        ]
        script = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from intension.cli import run
            for code, argv in {numpy_free!r} + [(0, ["interaction", "--world", {str(DATA / "parity_world.txt")!r}, "--vars", "a,b,c"])]:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    got = run(argv)
                print(got == code, "numpy" in sys.modules)
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["True False"] * len(numpy_free) + ["True True", ""]


class TestCliContractFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(cli_inputs())
    def test_any_input_exits_0_2_or_3(self, inputs):
        world_text, concept_text, argv = inputs
        with tempfile.TemporaryDirectory() as tmp:
            paths = {WORLD: Path(tmp) / "world.txt", CONCEPTS: Path(tmp) / "concepts.txt"}
            for path, content in ((paths[WORLD], world_text), (paths[CONCEPTS], concept_text)):
                if isinstance(content, bytes):
                    path.write_bytes(content)
                else:
                    path.write_text(content, encoding="utf-8", errors="surrogatepass")
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")  # a warning would be a stray stderr line
                code = run([str(paths.get(a, a)) for a in argv])
        assert code in (0, 2, 3)
        if code == 0:
            assert err.getvalue() == ""
