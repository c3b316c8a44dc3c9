"""Command-line driver.

Single-shot commands over the form DSL.  Output is deterministic: the
same argv and input files always produce byte-identical stdout.  Exit
codes: 0 success, 2 parse or validation failure, 3 scenario deviation
under --strict.
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
from .star import DEFAULT_CONVENTION, LITERAL_CONVENTION, hodge_star, pointwise_inner

_CONVENTIONS = {"default": DEFAULT_CONVENTION, "literal": LITERAL_CONVENTION}
# single-form commands that read --metric; of the two-form commands only inner does
_METRIC_COMMANDS = ("star", "delta", "laplacian", "harmonic", "oracle-star")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqforms",
        description="exact symbolic exterior calculus for complex (p,q)-forms",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, forms: int) -> None:
        sub.add_argument("--n", type=int, required=True, help="ambient complex dimension")
        sub.add_argument("--metric", help="JSON metric file; identity when omitted")
        sub.add_argument(
            "--convention",
            choices=sorted(_CONVENTIONS),
            default="default",
            help="star convention variant",
        )
        sub.add_argument("--json", action="store_true", help="structured output")
        if forms == 1:
            sub.add_argument("form")
        else:
            for i in range(forms):
                sub.add_argument(f"form{i + 1}")

    for name, help_text in (
        ("star", "Hodge star of a form"),
        ("d", "exterior derivative"),
        ("del", "dz half of the exterior derivative"),
        ("delbar", "dzb half of the exterior derivative"),
        ("delta", "codifferential"),
        ("laplacian", "Hodge Laplacian"),
        ("harmonic", "independent d and delta vanishing check"),
        ("oracle-star", "compare the star against the real-coordinate oracle"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        add_common(sub, 1)

    for name, help_text in (
        ("wedge", "exterior product of two forms"),
        ("inner", "pointwise inner product of two forms"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        add_common(sub, 2)

    sub = subparsers.add_parser("obstruction", help="pairing functional against a direction")
    add_common(sub, 1)
    sub.add_argument("--v", required=True, help='direction components, e.g. "1,0,0,0"')

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


def _emit(args: argparse.Namespace, payload: dict, plain: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plain)


def _run_form_command(args: argparse.Namespace) -> int:
    n = args.n
    convention = _CONVENTIONS[args.convention]
    result_payload: dict = {"schema": 1, "op": args.command, "n": n, "convention": convention.describe()}

    if args.command in ("wedge", "inner"):
        metric = _metric_for(args) if args.command == "inner" else None
        first = parse_form(args.form1, n)
        second = parse_form(args.form2, n)
        if args.command == "wedge":
            value = first.wedge(second)
            text = pretty_print(value)
        else:
            value = pointwise_inner(first, second, metric)
            text = format_poly(value)
        result_payload["result"] = text
        _emit(args, result_payload, text)
        return 0

    metric = _metric_for(args) if args.command in _METRIC_COMMANDS else None
    form = parse_form(args.form, n)
    if args.command == "star":
        text = pretty_print(hodge_star(form, metric, convention))
    elif args.command == "d":
        text = pretty_print(exterior_d(form))
    elif args.command == "del":
        text = pretty_print(dolbeault_del(form))
    elif args.command == "delbar":
        text = pretty_print(dolbeault_delbar(form))
    elif args.command == "delta":
        text = pretty_print(codifferential(form, metric, convention))
    elif args.command == "laplacian":
        text = pretty_print(laplacian(form, metric, convention))
    elif args.command == "obstruction":
        direction = Direction.parse(args.v, n)
        text = format_poly(obstruction(form, direction))
    elif args.command == "harmonic":
        report = harmonic_check(form, metric, convention)
        payload = {
            **result_payload,
            "d_vanishes": report.d_vanishes,
            "delta_vanishes": report.delta_vanishes,
            "harmonic": report.harmonic,
            "d_residual": pretty_print(report.d_residual),
            "delta_residual": pretty_print(report.delta_residual),
            "note": report.note,
        }
        plain = "\n".join(
            [
                f"d_vanishes: {report.d_vanishes}",
                f"delta_vanishes: {report.delta_vanishes}",
                f"harmonic: {report.harmonic}",
                f"d_residual: {pretty_print(report.d_residual)}",
                f"delta_residual: {pretty_print(report.delta_residual)}",
                f"note: {report.note}",
            ]
        )
        _emit(args, payload, plain)
        return 0
    elif args.command == "oracle-star":
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
        payload = {
            **result_payload,
            "proportional": report.proportional,
            "comparisons": comparisons,
        }
        lines = [f"proportional: {report.proportional}"]
        for cmp in comparisons:
            lines.append(
                f"(p,q)=({cmp['p']},{cmp['q']}): proportional={cmp['proportional']} ratio={cmp['ratio']}"
            )
        _emit(args, payload, "\n".join(lines))
        return 0
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unhandled command {args.command}")

    result_payload["result"] = text
    _emit(args, result_payload, text)
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
