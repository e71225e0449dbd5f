"""Fast self-test of the benchmark's checks, at tiny sizes.

    python3 bench/selftest.py

Runs one round of every workload in this process on small inputs and
requires every check to pass on the program's answers. Then it feeds
each check perturbed answers, one field at a time, and requires every
one of them to be caught. Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = {
    "score-dense-s22": workloads.ScoreDense(s=6, pair_props=4, pairs=4, mismatched=2),
    "lattice-t12": workloads.Lattice(parity=4, pair=2, singles=1, t=4, subsets=4, whole=1),
    "cli-small": workloads.CliSmall(),
}


def perturbed(name, result):
    """Wrong variants of one answer, each labelled with what was changed."""
    if name == "score-dense-s22":
        report, code = result
        yield "exit code", (report, 3)
        for field in ("exact_conditional", "shannon_estimate", "mutual_information_shannon", "algorithmic_estimate"):
            yield field, (dataclasses.replace(report, **{field: _nudged(getattr(report, field))}), code)
        yield "algorithmic MI", (dataclasses.replace(report, mutual_information_algorithmic=report.mutual_information_algorithmic + 8), code)
        for dropped in report.warnings:
            yield f"dropped warning {dropped}", (dataclasses.replace(report, warnings=[w for w in report.warnings if w != dropped]), code)
        yield "extra warning", (dataclasses.replace(report, warnings=sorted(report.warnings + ["estimate>1?"])), code)
    elif name == "lattice-t12":
        yield "value", dataclasses.replace(result, value=result.value + 1e-8)
        yield "subset", dataclasses.replace(result, subset=result.subset[1:])
    else:
        code, out, err = result
        yield "exit code", (code ^ 1, out, err)
        if code == 2:
            yield "second stderr line", (code, out, err + "error: again\n")
            yield "report on stdout", (code, "x=1\n", err)
            return
        yield "stderr", (code, out, "warning\n")
        yield "truncated", (code, out[: len(out) // 2], err)
        for variant in _field_variants(out):
            yield "field", (code, variant, err)


def _field_variants(out: str):
    """The report with one field changed at a time, in its own format."""
    if out.startswith("{"):
        fields = json.loads(out)
        for key, value in fields.items():
            yield json.dumps({**fields, key: _changed(value)}) + "\n"
        return
    sep = " " if out.count("\n") == 1 else "\n"
    items = out.rstrip("\n").split(sep)
    for i, item in enumerate(items):
        key, _, value = item.partition("=")
        changed = items[:i] + [f"{key}={_changed(value)}"] + items[i + 1 :]
        yield sep.join(changed) + "\n"


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return _nudged(value)
    if isinstance(value, list):
        return value + ["x"]
    try:
        return repr(_nudged(float(value)))
    except ValueError:
        return value + "x"


def _nudged(x: float) -> float:
    return x + 1e-6 * max(1.0, abs(x))


def main() -> int:
    run.confine()
    api = run.import_program()
    problems, caught = [], 0
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for name, workload in TINY.items():
            workload.in_process = True
            inputs, state = run.set_up(workload, api, 7, Path(tmp) / name)
            results = []
            for index, op in enumerate(workload.ops(api, state)):
                try:
                    results.append((index, op()))
                except Exception:  # a failed op, as the benchmark loop counts it
                    results.append((index, run.FAILED))
            expected = workload.expected(inputs)
            crashed = sum(r is run.FAILED or workload.crashed(r) for _, r in results)
            if crashed != (2 if name == "cli-small" else 0):
                problems.append(f"{name}: {crashed} failed ops")
            for index, result in results:
                if result is run.FAILED or workload.crashed(result):
                    continue
                for error in workload.errors(expected[index], result):
                    problems.append(f"{name} op {index}: right answer refused: {error}")
                for label, wrong in perturbed(name, result):
                    if workload.errors(expected[index], wrong):
                        caught += 1
                    else:
                        problems.append(f"{name} op {index}: perturbed {label} passed")
    # the two cli-small faults: today's crash counts as failed, the mended answer as right
    cli, want = TINY["cli-small"], {"code": 2}
    if not cli.crashed((1, "", "Traceback (most recent call last):\n")):
        problems.append("cli-small: a traceback is not counted as failed")
    if cli.crashed((2, "", "error: x\n")) or cli.errors(want, (2, "", "error: x\n")):
        problems.append("cli-small: the mended fault answer is refused")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"selftest: {caught} perturbed answers caught, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
