"""Command-line front end.

Four subcommands: `score` runs the full inheritance report on a world and
concept file, `exclusive` prints the closed forms for the mutually
exclusive case, `extensional` cross-checks instance-set overlap against
the enumeration engine, and `interaction` reports multivariate
interaction information. Output is `key=value` text
or a flat JSON object (12 significant digits, literal "undefined" /
"skipped" / "no-overlap" strings, sorted warnings). Exit codes: 0 success,
2 input error (diagnostic on stderr), 3 when the antecedent has
probability zero: the report is still printed, with the exact conditional
"undefined".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

from .algorithmic import BUILTIN_COMPRESSORS, algorithmic_inheritance, get_compressor
from .closed_forms import (
    ExclusiveCaseParams,
    ExtensionalPair,
    exclusive_algorithmic,
    exclusive_shannon,
    extensional_inheritance,
    framework_discrepancy,
    singleton_reduction_check,
)
from .errors import IntensionError
from .files import load_concepts, load_world
from .model import Concept, WorldModel
from .shannon import interaction_information, shannon_inheritance

SIGNIFICANT_DIGITS = 12
UNDEFINED = "undefined"
SKIPPED = "skipped"
NO_OVERLAP = "no-overlap"
NOISE_WARNING = "algorithmic-noise"
ESTIMATE_WARNING = "estimate>1"
EXTENSIONAL_MATCH_TOL = 1e-12


def format_number(x: float) -> str:
    return format(float(x), f".{SIGNIFICANT_DIGITS}g")


def _value(v, as_json: bool) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_number(v)
    if isinstance(v, (list, tuple)):
        items = [_value(x, as_json) for x in v]
        return "[" + ", ".join(items) + "]" if as_json else ",".join(items)
    return json.dumps(v) if as_json else str(v)


def render_flat_json(fields: dict) -> str:
    """Single flat JSON object; stable under a parse/re-render round trip."""
    return "{" + ", ".join(f"{json.dumps(k)}: {_value(v, True)}" for k, v in fields.items()) + "}"


def render_text(fields: dict, sep: str = "\n") -> str:
    return sep.join(f"{k}={_value(v, False)}" for k, v in fields.items())


def _render(fields: dict, fmt: str, text_sep: str = "\n") -> str:
    return render_flat_json(fields) if fmt == "json" else render_text(fields, text_sep)


@dataclasses.dataclass
class InheritanceReport:
    """Everything the score subcommand prints, before formatting."""

    from_concept: str
    to_concept: str
    exact_conditional: float | str
    shannon_estimate: float
    algorithmic_estimate: float | str
    mutual_information_shannon: float
    mutual_information_algorithmic: float | str
    warnings: list[str]


def build_score_report(
    world: WorldModel,
    f: Concept,
    w: Concept,
    algorithmic: bool = False,
    compressor_name: str = "deflate",
) -> tuple[InheritanceReport, int]:
    """Assemble the report from direct library calls; no extra arithmetic.

    Returns (report, exit code); exit code 3 flags a zero-probability
    antecedent, in which case the exact conditional reads "undefined".
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = shannon_inheritance(f, w, world)
    extra = {str(item.message) for item in caught}
    if rep.estimate_conditional > 1.0:
        extra.add(ESTIMATE_WARNING)

    algo_estimate: float | str = SKIPPED
    algo_mi: float | str = SKIPPED
    if algorithmic:
        result = algorithmic_inheritance(f, w, get_compressor(compressor_name))
        algo_estimate = result.conditional_estimate
        algo_mi = result.mutual_information
        if result.within_noise_floor:
            extra.add(NOISE_WARNING)

    report = InheritanceReport(
        from_concept=f.name,
        to_concept=w.name,
        exact_conditional=UNDEFINED if rep.exact_conditional is None else rep.exact_conditional,
        shannon_estimate=rep.estimate_conditional,
        algorithmic_estimate=algo_estimate,
        mutual_information_shannon=rep.mutual_information,
        mutual_information_algorithmic=algo_mi,
        warnings=sorted(extra),
    )
    return report, 3 if rep.exact_conditional is None else 0


def _cmd_score(args) -> tuple[int, str]:
    world = load_world(args.world)
    concepts = load_concepts(args.concepts)
    for name in (args.from_name, args.to_name):
        if name not in concepts:
            raise IntensionError(f"concept {name!r} not found in {args.concepts}")
    report, code = build_score_report(
        world,
        concepts[args.from_name],
        concepts[args.to_name],
        algorithmic=args.algorithmic,
        compressor_name=args.compressor,
    )
    return code, _render(dataclasses.asdict(report), args.format)


def _cmd_exclusive(args) -> tuple[int, str]:
    params = ExclusiveCaseParams(args.n, args.m, args.k)
    fields: dict = {"n": params.n, "m": params.m, "k": params.k, "s": params.s, "p": params.p}
    fields["shannon"] = exclusive_shannon(params)
    if params.k == 0:
        fields["algorithmic"] = NO_OVERLAP
        fields["algorithmic_mutual_information"] = NO_OVERLAP
        fields["discrepancy"] = NO_OVERLAP
    else:
        algo_mi, algo_conditional = exclusive_algorithmic(params)
        fields["algorithmic"] = algo_conditional
        fields["algorithmic_mutual_information"] = algo_mi
        fields["discrepancy"] = framework_discrepancy(params)
    return 0, _render(fields, args.format)


def _cmd_extensional(args) -> tuple[int, str]:
    pair = ExtensionalPair(frozenset(args.f), frozenset(args.w), args.universe)
    extensional, intensional = singleton_reduction_check(pair)
    fields = {
        "extensional": extensional,
        "intensional": intensional,
        "match": abs(extensional - intensional) <= EXTENSIONAL_MATCH_TOL,
    }
    return 0, _render(fields, args.format, text_sep=" ")


def _cmd_interaction(args) -> tuple[int, str]:
    world = load_world(args.world)
    report = interaction_information(args.vars, world)
    fields = {
        "vars": list(report.subset),
        "interaction_information": report.value,
        "convention": report.convention,
    }
    return 0, _render(fields, args.format)


def _id_list(raw: str) -> list[int]:
    try:
        return [int(token) for token in raw.split(",") if token]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}") from None


def _var_list(raw: str) -> list[str]:
    return [token for token in raw.split(",") if token]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intension",
        description="Quantify inheritance between property-defined concepts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="full inheritance report for a concept pair")
    score.add_argument("--world", required=True, help="world file")
    score.add_argument("--concepts", required=True, help="concept file")
    score.add_argument("--from", dest="from_name", required=True, help="antecedent concept name")
    score.add_argument("--to", dest="to_name", required=True, help="consequent concept name")
    score.add_argument("--algorithmic", action="store_true", help="also run the compression engine")
    score.add_argument("--compressor", default="deflate", choices=sorted(BUILTIN_COMPRESSORS), help="for --algorithmic")
    score.set_defaults(handler=_cmd_score)

    exclusive = sub.add_parser("exclusive", help="closed forms for the mutually exclusive case")
    exclusive.add_argument("--n", type=int, required=True)
    exclusive.add_argument("--m", type=int, required=True)
    exclusive.add_argument("--k", type=int, required=True)
    exclusive.set_defaults(handler=_cmd_exclusive)

    extensional = sub.add_parser("extensional", help="instance-set overlap with reduction cross-check")
    extensional.add_argument("--universe", type=int, required=True, help="number of instances")
    extensional.add_argument("--f", type=_id_list, required=True, help="comma-separated instance ids")
    extensional.add_argument("--w", type=_id_list, required=True, help="comma-separated instance ids")
    extensional.set_defaults(handler=_cmd_extensional)

    interaction = sub.add_parser("interaction", help="multivariate interaction information")
    interaction.add_argument("--world", required=True, help="world file")
    interaction.add_argument("--vars", type=_var_list, required=True, help="comma-separated property ids")
    interaction.set_defaults(handler=_cmd_interaction)

    for command in (score, exclusive, extensional, interaction):
        command.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, print the report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, output = args.handler(args)
    except (IntensionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return code


def main() -> None:
    sys.exit(run())
