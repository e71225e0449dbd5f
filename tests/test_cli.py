import json
import warnings
from pathlib import Path

import pytest

from intension.algorithmic import algorithmic_inheritance, get_compressor
from intension.cli import build_score_report, render_flat_json, run
from intension.files import load_concepts, load_world
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

    def test_unknown_compressor_exits_2(self, capsys):
        argv = GOLDEN_INVOCATIONS["score_self.txt"] + ["--algorithmic", "--compressor", "nope"]
        code, _, err = invoke(capsys, argv)
        assert code == 2
        assert "nope" in err


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
