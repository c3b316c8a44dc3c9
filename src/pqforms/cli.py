"""Command-line driver.

Single-shot commands over the form DSL.  Each form command is one entry
of ``_COMMANDS``, which gives its help, the forms it reads, whether it
reads --metric and how its result is computed; the parser, the metric
decision and the dispatch all read that entry.  Output is deterministic:
the same argv and input files always produce byte-identical stdout.
Exit codes: 0 success, 2 parse or validation failure, 3 scenario
deviation under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .calculus import (
    codifferential,
    dolbeault_del,
    dolbeault_delbar,
    exterior_d,
    harmonic_check,
    laplacian,
)
from .dsl import ParseError, format_poly, parse_form, pretty_print
from .metric import HermitianMetric, load_metric
from .obstruction import Direction, obstruction
from .realoracle import oracle_compare
from .scalars import format_scalar
from .scenarios import SCENARIO_IDS, scenario_runner
from .star import CONVENTIONS, hodge_star, pointwise_inner


def _harmonic(form, metric, convention, args) -> dict:
    report = harmonic_check(form, metric, convention)
    return {
        "d_vanishes": report.d_vanishes,
        "delta_vanishes": report.delta_vanishes,
        "harmonic": report.harmonic,
        "d_residual": pretty_print(report.d_residual),
        "delta_residual": pretty_print(report.delta_residual),
        "note": report.note,
    }


def _oracle_star(form, metric, convention, args) -> dict:
    report = oracle_compare(form, metric, convention)
    comparisons = [
        {
            "p": cmp.p,
            "q": cmp.q,
            "proportional": cmp.proportional,
            "ratio": format_scalar(cmp.ratio) if cmp.ratio is not None else None,
        }
        for cmp in report.comparisons
    ]
    return {"proportional": report.proportional, "comparisons": comparisons}


def _oracle_star_text(fields: dict) -> str:
    lines = [f"proportional: {fields['proportional']}"]
    for cmp in fields["comparisons"]:
        lines.append(f"(p,q)=({cmp['p']},{cmp['q']}): proportional={cmp['proportional']} ratio={cmp['ratio']}")
    return "\n".join(lines)


def _fields_text(fields: dict) -> str:
    return "\n".join(f"{key}: {value}" for key, value in fields.items())


_ONE = ("form",)
_TWO = ("form1", "form2")

# name: (help, form arguments, reads --metric, result of (*forms, metric, convention, args),
#        plain text of a dict result).  A text result prints as is and is the "result" key
# under --json; a dict result is merged into the --json payload.
_COMMANDS = {
    "star": (
        "Hodge star of a form", _ONE, True,
        lambda form, metric, convention, args: pretty_print(hodge_star(form, metric, convention)), None,
    ),
    "d": ("exterior derivative", _ONE, False, lambda form, *_: pretty_print(exterior_d(form)), None),
    "del": (
        "dz half of the exterior derivative", _ONE, False, lambda form, *_: pretty_print(dolbeault_del(form)), None,
    ),
    "delbar": (
        "dzb half of the exterior derivative", _ONE, False, lambda form, *_: pretty_print(dolbeault_delbar(form)), None,
    ),
    "delta": (
        "codifferential", _ONE, True,
        lambda form, metric, convention, args: pretty_print(codifferential(form, metric, convention)), None,
    ),
    "laplacian": (
        "Hodge Laplacian", _ONE, True,
        lambda form, metric, convention, args: pretty_print(laplacian(form, metric, convention)), None,
    ),
    "harmonic": ("independent d and delta vanishing check", _ONE, True, _harmonic, _fields_text),
    "oracle-star": (
        "compare the star against the real-coordinate oracle", _ONE, True, _oracle_star, _oracle_star_text,
    ),
    "wedge": (
        "exterior product of two forms", _TWO, False,
        lambda first, second, *_: pretty_print(first.wedge(second)), None,
    ),
    "inner": (
        "pointwise inner product of two forms", _TWO, True,
        lambda first, second, metric, *_: format_poly(pointwise_inner(first, second, metric)), None,
    ),
    # --v is parsed after the form, so a bad form is reported first
    "obstruction": (
        "pairing functional against a direction", _ONE, False,
        lambda form, metric, convention, args: format_poly(obstruction(form, Direction.parse(args.v, args.n))), None,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqforms",
        description="exact symbolic exterior calculus for complex (p,q)-forms",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, forms, _, _, _) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--n", type=int, required=True, help="ambient complex dimension")
        sub.add_argument("--metric", help="JSON metric file; identity when omitted")
        sub.add_argument(
            "--convention",
            choices=sorted(CONVENTIONS),
            default="default",
            help="star convention variant",
        )
        sub.add_argument("--json", action="store_true", help="structured output")
        for dest in forms:
            sub.add_argument(dest)
    subparsers.choices["obstruction"].add_argument("--v", required=True, help='direction components, e.g. "1,0,0,0"')

    sub = subparsers.add_parser("scenario", help="run a named desk-scale check")
    sub.add_argument("id", choices=SCENARIO_IDS)
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.add_argument("--strict", action="store_true", help="exit 3 when a verdict deviates")
    return parser


def _metric_for(args: argparse.Namespace) -> HermitianMetric:
    """The --metric file, or the identity; built only by commands that use a metric."""
    if args.metric:
        metric = load_metric(args.metric)
        if metric.n != args.n:
            raise ValueError(f"metric dimension {metric.n} does not match --n {args.n}")
        return metric
    return HermitianMetric.identity(args.n)


def _run_form_command(args: argparse.Namespace) -> int:
    _, forms, reads_metric, compute, render = _COMMANDS[args.command]
    convention = CONVENTIONS[args.convention]
    metric = _metric_for(args) if reads_metric else None
    parsed = [parse_form(getattr(args, dest), args.n) for dest in forms]
    result = compute(*parsed, metric, convention, args)
    payload = {"schema": 1, "op": args.command, "n": args.n, "convention": convention.describe()}
    if isinstance(result, str):
        payload["result"] = text = result
    else:
        payload.update(result)
        text = render(result)
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    report = scenario_runner(args.id)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        lines = [f"scenario: {report.scenario_id}", f"notes: {report.notes}"]
        for check in report.checks:
            convention = check.convention.describe()
            lines.append(
                f"- convention {convention['conjugation']}/{convention['output_index']}: "
                f"match={check.match} (expected {check.expected_match}) passed={check.passed}"
            )
            lines.append(f"  engine: {check.engine_result}")
            lines.append(f"  claim:  {check.paper_claim}")
            lines.append(f"  residual: {check.residual}")
            for key in sorted(check.extras):
                lines.append(f"  {key}: {check.extras[key]}")
        lines.append(f"pass: {report.overall_pass}")
        print("\n".join(lines))
    if args.strict and not report.overall_pass:
        return 3
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "scenario":
            return _run_scenario(args)
        return _run_form_command(args)
    except (ParseError, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
