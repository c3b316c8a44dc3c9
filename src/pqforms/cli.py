"""Command-line driver.

Single-shot commands over the form DSL.  Each form command is one entry
of ``_COMMANDS``, which gives its help, the forms and options it reads,
the module that computes it and how; the parser offers a command only the
options its entry names, and the dispatch reads the same entry and imports
only that module, since each call is a fresh interpreter.  Output
is deterministic: the same argv and input files always produce
byte-identical stdout.
Exit codes: 0 success, 2 parse or validation failure, 3 scenario
deviation under --strict.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from itertools import islice
from typing import List, Optional

from .choices import CONVENTIONS, DEFAULT_CONVENTION, SCENARIO_IDS
from .dsl import ParseError, _format_value, parse_form, pretty_print
from .scalars import format_scalar


def _harmonic(calculus, form, metric, convention) -> dict:
    report = calculus.harmonic_check(form, metric, convention)
    return {
        "d_vanishes": report.d_vanishes,
        "delta_vanishes": report.delta_vanishes,
        "harmonic": report.harmonic,
        "d_residual": pretty_print(report.d_residual),
        "delta_residual": pretty_print(report.delta_residual),
        "note": report.note,
    }


def _oracle_star(realoracle, form, metric, convention) -> dict:
    report = realoracle.oracle_compare(form, metric, convention)
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


def _metric_for(args: argparse.Namespace):
    """The --metric file, or the identity."""
    from .metric import HermitianMetric, load_metric

    if args.metric:
        metric = load_metric(args.metric)
        if metric.n != args.n:
            raise ValueError(f"metric dimension {metric.n} does not match --n {args.n}")
        return metric
    return HermitianMetric.identity(args.n)


# name: (argparse declaration, value a row reads).  Values are read before the
# forms are parsed, so a bad metric is reported first; --v stays text until
# the row parses it, after the forms.
_OPTIONS = {
    "metric": ({"help": "JSON metric file; identity when omitted"}, _metric_for),
    "convention": (
        {"choices": sorted(CONVENTIONS), "default": "default", "help": "star convention variant"},
        lambda args: CONVENTIONS[args.convention],
    ),
    "v": ({"required": True, "help": 'direction components, e.g. "1,0,0,0"'}, lambda args: args.v),
}

_ONE = ("form",)
_TWO = ("form1", "form2")
_STAR = ("metric", "convention")

# name: (help, form arguments, options read, module that computes it, result of
#        (module, *forms, *option values), plain text of a dict result).  The dispatch imports
# the module when the command runs.  A Form or polynomial result prints canonically and is the
# "result" key under --json; a dict result is merged into the --json payload.  Rows call the
# engine through the module, never a stored function, so bench/tracer.py sees each call.
_COMMANDS = {
    "star": ("Hodge star of a form", _ONE, _STAR, "star", lambda star, *a: star.hodge_star(*a), None),
    "d": ("exterior derivative", _ONE, (), "calculus", lambda calculus, *a: calculus.exterior_d(*a), None),
    "del": (
        "dz half of the exterior derivative", _ONE, (), "calculus",
        lambda calculus, *a: calculus.dolbeault_del(*a), None,
    ),
    "delbar": (
        "dzb half of the exterior derivative", _ONE, (), "calculus",
        lambda calculus, *a: calculus.dolbeault_delbar(*a), None,
    ),
    "delta": ("codifferential", _ONE, _STAR, "calculus", lambda calculus, *a: calculus.codifferential(*a), None),
    "laplacian": ("Hodge Laplacian", _ONE, _STAR, "calculus", lambda calculus, *a: calculus.laplacian(*a), None),
    "harmonic": ("independent d and delta vanishing check", _ONE, _STAR, "calculus", _harmonic, _fields_text),
    "oracle-star": (
        "compare the star against the real-coordinate oracle", _ONE, _STAR, "realoracle", _oracle_star,
        _oracle_star_text,
    ),
    "wedge": (
        "exterior product of two forms", _TWO, (), "forms", lambda forms, first, second: first.wedge(second), None,
    ),
    "inner": (
        "pointwise inner product of two forms", _TWO, ("metric",), "star",
        lambda star, *a: star.pointwise_inner(*a), None,
    ),
    "obstruction": (
        "pairing functional against a direction", _ONE, ("v",), "obstruction",
        lambda obstruction, form, v: obstruction.obstruction(form, obstruction.Direction.parse(v, form.n)), None,
    ),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser.  An option from ``_OPTIONS`` that the command does not
    declare is reported together with the value after it; argparse alone would
    read that value as a form and report the form instead."""

    def parse_known_args(self, args, namespace=None):
        kept, stray = [], []
        tokens = iter(args)
        for token in tokens:
            if token == "--":
                kept += [token, *tokens]
            elif token.startswith("--") and token[2:] in _OPTIONS and token not in self._option_string_actions:
                stray += [token, *islice(tokens, 1)]
            else:
                kept.append(token)
        namespace, extras = super().parse_known_args(kept, namespace)
        return namespace, stray + extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqforms",
        description="exact symbolic exterior calculus for complex (p,q)-forms",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, forms, options, _, _, _) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--n", type=int, required=True, help="ambient complex dimension")
        for option in options:
            sub.add_argument(f"--{option}", **_OPTIONS[option][0])
        sub.add_argument("--json", action="store_true", help="structured output")
        for dest in forms:
            sub.add_argument(dest)

    sub = subparsers.add_parser("scenario", help="run a named desk-scale check")
    sub.add_argument("id", choices=SCENARIO_IDS)
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.add_argument("--strict", action="store_true", help="exit 3 when a verdict deviates")
    return parser


def _json_text(payload: dict) -> str:
    """The --json output; ``json`` is imported only here, so a plain call never loads it."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


def _run_form_command(args: argparse.Namespace) -> int:
    _, forms, options, module, compute, render = _COMMANDS[args.command]
    if args.n < 1:  # before any option: a metric for --n 0 would be an empty matrix
        raise ValueError(f"ambient dimension must be positive, got {args.n}")
    values = [_OPTIONS[option][1](args) for option in options]
    parsed = [parse_form(getattr(args, dest), args.n) for dest in forms]
    result = compute(importlib.import_module(f".{module}", __package__), *parsed, *values)
    convention = CONVENTIONS[args.convention] if "convention" in options else DEFAULT_CONVENTION
    payload = {"schema": 1, "op": args.command, "n": args.n, "convention": convention.describe()}
    if isinstance(result, dict):
        payload.update(result)
        text = render(result)
    else:
        payload["result"] = text = _format_value(result)
    print(_json_text(payload) if args.json else text)
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    from .scenarios import scenario_runner

    report = scenario_runner(args.id)
    if args.json:
        print(_json_text(report.to_dict()))
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
