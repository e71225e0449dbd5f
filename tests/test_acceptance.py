"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v` for the test verdicts, or add `-s`
to watch the per-criterion lines as they print. Every tolerance is pinned
here; nothing is deferred to later calibration.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

import oracles
from conftest import concept_at, overlapping_pair, world_from_dist
from intension.algorithmic import algorithmic_inheritance, deflate_compressor
from intension.cli import build_score_report
from intension.closed_forms import (
    ExclusiveCaseParams,
    ExtensionalPair,
    exclusive_algorithmic,
    framework_discrepancy,
    singleton_reduction_check,
)
from intension.files import load_concepts, load_world
from intension.model import build_exclusive_world, build_independent_world
from intension.shannon import interaction_information, shannon_inheritance

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

EXCLUSIVE_GRID = [
    (n, m, k)
    for n in range(1, 9)
    for m in range(1, 9)
    for k in range(1, min(n, m) + 1)
]


def _verdict(number: int, description: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {number}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_exclusive_exactness():
    started = time.perf_counter()
    worst = 0.0
    for n, m, k in EXCLUSIVE_GRID:
        world, f, w = build_exclusive_world(n, m, k)
        report = shannon_inheritance(f, w, world)
        worst = max(worst, abs(report.exact_conditional - float(Fraction(k, n))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(
        1,
        "one-hot sweep reproduces k/n to 1e-12 in under 5 s",
        ok,
        f"worst={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_algorithmic_closed_form():
    mi, conditional = exclusive_algorithmic(ExclusiveCaseParams(4, 3, 2))
    exact_ok = mi == -1.0 and conditional == 0.3
    discrepancy_ok = framework_discrepancy(ExclusiveCaseParams(4, 3, 2)) == 0.2
    worst = 0.0
    for n, m, k in EXCLUSIVE_GRID:
        params = ExclusiveCaseParams(n, m, k)
        _, got = exclusive_algorithmic(params)
        expected = float(Fraction(m, params.s) * Fraction(k, n))
        worst = max(worst, abs(got - expected))
    ok = exact_ok and discrepancy_ok and worst <= 1e-12
    _verdict(
        2,
        "closed-form conditional is (m/s)(k/n); (4,3,2) gives (-1.0, 0.3) and gap 0.2 exactly",
        ok,
        f"worst={worst:.2e}",
    )


def test_criterion_3_singleton_reduction():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for size in range(1, 6):
        members = list(range(1, size + 1))
        for f_mask in range(1, 1 << size):
            f = {members[i] for i in range(size) if f_mask >> i & 1}
            for w_mask in range(1, 1 << size):
                w = {members[i] for i in range(size) if w_mask >> i & 1}
                ext, intens = singleton_reduction_check(ExtensionalPair(f, w, size))
                worst = max(worst, abs(ext - intens))
                checked += 1
    rng = random.Random(2024)
    for _ in range(1000):
        size = rng.randint(6, 10)
        f = set(rng.sample(range(1, size + 1), rng.randint(1, size)))
        w = set(rng.sample(range(1, size + 1), rng.randint(1, size)))
        ext, intens = singleton_reduction_check(ExtensionalPair(f, w, size))
        worst = max(worst, abs(ext - intens))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict(
        3,
        "extension overlap equals the enumerated conditional to 1e-12 in under 30 s",
        ok,
        f"pairs={checked} worst={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_4_entropy_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        size = int(rng.integers(1, 11))
        raw = rng.random(1 << size)
        raw[rng.random(1 << size) < 0.25] = 0.0
        if raw.sum() == 0.0:
            raw[0] = 1.0
        total = raw.sum()
        assignments = list(product((0, 1), repeat=size))
        # assignment tuples are little-endian: entry i is variable i
        dist = {
            tuple(reversed(a)): float(p) / total
            for a, p in zip(assignments, raw)
            if p > 0
        }
        universe = tuple(f"v{i}" for i in range(size))
        world = world_from_dist(universe, dist)

        count = int(rng.integers(1, size + 1))
        picked = sorted(rng.choice(size, size=count, replace=False).tolist())
        got = oracles.dist_entropy(dict(enumerate(world.marginal_table([universe[i] for i in picked]))))
        worst = max(worst, abs(got - oracles.entropy(dist, picked)))

        f_idxs = sorted(rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False).tolist())
        w_idxs = sorted(rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False).tolist())
        f = concept_at(world, "f", [universe[i] for i in f_idxs])
        w = concept_at(world, "w", [universe[i] for i in w_idxs])
        got = shannon_inheritance(f, w, world).mutual_information
        worst = max(worst, abs(got - oracles.concept_mutual_information(dist, f_idxs, w_idxs)))

        if size >= 2:
            count = int(rng.integers(2, min(size, 4) + 1))
            picked = sorted(rng.choice(size, size=count, replace=False).tolist())
            got = interaction_information([universe[i] for i in picked], world).value
            worst = max(worst, abs(got - oracles.interaction_information(dist, picked)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(
        4,
        "500 random worlds match the brute-force evaluator to 1e-9 in under 60 s",
        ok,
        f"worst={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_5_xor_interaction_signature():
    dist = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}
    world = world_from_dist(("x", "y", "z"), dist)
    value = interaction_information(("x", "y", "z"), world).value
    ok = abs(value - (-1.0)) <= 1e-9
    _verdict(5, "three-variable parity world scores -1.0 bit", ok, f"value={value:.12f}")


def test_criterion_6_independence_exactness_and_overshoot_fixture():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 9))
        marginals = rng.uniform(0.01, 0.99, size=size).tolist()
        universe = tuple(f"v{i}" for i in range(size))
        world = build_independent_world(universe, marginals)
        i, j = rng.choice(size, size=2, replace=False).tolist()
        f = concept_at(world, "f", (universe[i],))
        w = concept_at(world, "w", (universe[j],))
        report = shannon_inheritance(f, w, world)
        worst = max(worst, abs(report.estimate_conditional - report.exact_conditional))
    independent_ok = worst <= 1e-9

    world = load_world(DATA / "correlated_world.txt")
    concepts = load_concepts(DATA / "concepts.txt")
    report, code = build_score_report(world, concepts["f"], concepts["w"])
    fixture_ok = (
        code == 0
        and report.shannon_estimate > 1.0
        and "estimate>1" in report.warnings
    )
    ok = independent_ok and fixture_ok
    _verdict(
        6,
        "estimate is exact under independence; bundled fixture overshoots 1 with a warning",
        ok,
        f"worst={worst:.2e} fixture_estimate={report.shannon_estimate:.6f}",
    )


def test_criterion_7_algorithmic_regression():
    comp = deflate_compressor()
    rng = random.Random(2024)
    wins = 0
    identity_ok = True
    for _ in range(100):
        n = rng.randint(3, 8)
        shared = rng.randint(0, (n - 1) // 2)  # strictly under half
        f, w = overlapping_pair(rng, n, shared)
        self_result = algorithmic_inheritance(f, f, comp)
        cross_result = algorithmic_inheritance(f, w, comp)
        if self_result.mutual_information > cross_result.mutual_information:
            wins += 1
        for result in (self_result, cross_result):
            if result.conditional_estimate != result.prior_estimate * 2.0 ** result.mutual_information:
                identity_ok = False
    ok = wins >= 95 and identity_ok
    _verdict(
        7,
        "self-information beats low-overlap pairs >= 95/100; field identity exact",
        ok,
        f"wins={wins}/100 identity={identity_ok}",
    )


def test_criterion_8_cli_golden_files():
    invocations = {
        "exclusive.txt": ["exclusive", "--n", "4", "--m", "3", "--k", "2"],
        "extensional.txt": ["extensional", "--universe", "3", "--f", "1,2", "--w", "2,3"],
        "score_self.txt": [
            "score",
            "--world", "tests/data/correlated_world.txt",
            "--concepts", "tests/data/concepts.txt",
            "--from", "f",
            "--to", "f",
        ],
    }
    ok = True
    details = []
    for name, argv in invocations.items():
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "intension", *argv],
                capture_output=True,
                cwd=ROOT,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            )
            runs.append((proc.returncode, proc.stdout))
        golden = (GOLDEN / name).read_bytes()
        stable = runs[0] == runs[1]
        matches = runs[0][1] == golden and runs[0][0] == 0
        if not (stable and matches):
            ok = False
            details.append(f"{name}: stable={stable} matches={matches}")
    _verdict(
        8,
        "three CLI invocations are byte-stable and match the committed goldens",
        ok,
        "; ".join(details) if details else "3/3 byte-identical",
    )
