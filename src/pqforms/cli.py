"""Command-line driver.

Single-shot commands over the form DSL.  Each form command is one entry
of ``_COMMANDS``, which gives its help, the forms and options it reads,
the public pqforms function that computes it and how its report prints;
the parser offers a command only the options its entry names, and the
dispatch reads that name from the package, which imports only its home
module, since each call is a fresh interpreter.  Option values, ``--v``
among them, are read before the forms, and a form may start with ``-``.
Output is deterministic: the same argv and input files always produce
byte-identical stdout.
Exit codes: 0 success, 2 parse or validation failure, 3 scenario
deviation under --strict.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from operator import attrgetter
from typing import List, Optional

from .choices import CONVENTIONS, DEFAULT_CONVENTION, SCENARIO_IDS
from .dsl import ParseError, _format_value, parse_form, pretty_print
from .scalars import format_scalar


def _harmonic(report) -> dict:
    return {
        "d_vanishes": report.d_vanishes,
        "delta_vanishes": report.delta_vanishes,
        "harmonic": report.harmonic,
        "d_residual": pretty_print(report.d_residual),
        "delta_residual": pretty_print(report.delta_residual),
        "note": report.note,
    }


def _oracle_star(report) -> dict:
    comparisons = [
        {**cmp._asdict(), "ratio": format_scalar(cmp.ratio) if cmp.ratio is not None else None}
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
# forms are parsed, so a bad metric or direction is reported first.
_OPTIONS = {
    "metric": ({"help": "JSON metric file; identity when omitted"}, _metric_for),
    "convention": (
        {"choices": sorted(CONVENTIONS), "default": "default", "help": "star convention variant"},
        lambda args: CONVENTIONS[args.convention],
    ),
    "v": (
        {"required": True, "help": 'direction components, e.g. "1,0,0,0"'},
        lambda args: sys.modules[__package__].Direction.parse(args.v, args.n),
    ),
}

_ONE = ("form",)
_TWO = ("form1", "form2")
_STAR = ("metric", "convention")

# name: (help, form arguments, options read, public pqforms function called on (*forms, *option
#        values), report).  A Form or polynomial result has no report: it prints canonically and
# is the "result" key under --json.  A report is (fields of the result, their plain text); the
# fields are merged into the --json payload.
_COMMANDS = {
    "star": ("Hodge star of a form", _ONE, _STAR, "hodge_star", None),
    "d": ("exterior derivative", _ONE, (), "exterior_d", None),
    "del": ("dz half of the exterior derivative", _ONE, (), "dolbeault_del", None),
    "delbar": ("dzb half of the exterior derivative", _ONE, (), "dolbeault_delbar", None),
    "delta": ("codifferential", _ONE, _STAR, "codifferential", None),
    "laplacian": ("Hodge Laplacian", _ONE, _STAR, "laplacian", None),
    "harmonic": ("independent d and delta vanishing check", _ONE, _STAR, "harmonic_check", (_harmonic, _fields_text)),
    "oracle-star": (
        "compare the star against the real-coordinate oracle", _ONE, _STAR, "oracle_compare",
        (_oracle_star, _oracle_star_text),
    ),
    "wedge": ("exterior product of two forms", _TWO, (), "Form.wedge", None),
    "inner": ("pointwise inner product of two forms", _TWO, ("metric",), "pointwise_inner", None),
    "obstruction": ("pairing functional against a direction", _ONE, ("v",), "obstruction", None),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser.  The token after an option that takes a value is that
    value, whatever it starts with; every other token that is not an option is a
    form, ``-dz1`` too, and the forms reach argparse in order after one ``--``.
    An option from ``_OPTIONS`` that the command does not declare is reported
    together with the value after it, not as a form."""

    def parse_known_args(self, args, namespace=None):
        kept, stray, forms = [], [], []
        tokens = iter(args)
        for token in tokens:
            action = self._option_string_actions.get(token)
            if token == "--":
                forms += tokens
            elif action is None and token.startswith("--") and token[2:] in _OPTIONS:
                stray += [token, *islice(tokens, 1)]
            elif action is not None and action.nargs != 0:  # "--v=-1,0": argparse never takes the value for an option
                kept += [f"{token}={value}" for value in islice(tokens, 1)] or [token]
            elif action is not None or token.startswith("--"):
                kept.append(token)
            else:
                forms.append(token)
        namespace, extras = super().parse_known_args([*kept, "--", *forms], namespace)
        return namespace, stray + extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqforms",
        description="exact symbolic exterior calculus for complex (p,q)-forms",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, forms, options, _, _) in _COMMANDS.items():
        # a form may start with "-", so a plain token after an abbreviated option would be ambiguous
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
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
    _, forms, options, call, report = _COMMANDS[args.command]
    if args.n < 1:  # before any option: a metric for --n 0 would be an empty matrix
        raise ValueError(f"ambient dimension must be positive, got {args.n}")
    values = [_OPTIONS[option][1](args) for option in options]
    parsed = [parse_form(getattr(args, dest), args.n) for dest in forms]
    # The name is read from the package when the command runs, so bench/tracer.py sees each call.
    result = attrgetter(call)(sys.modules[__package__])(*parsed, *values)
    convention = CONVENTIONS[args.convention] if "convention" in options else DEFAULT_CONVENTION
    payload = {"schema": 1, "op": args.command, "n": args.n, "convention": convention.describe()}
    if report is None:
        payload["result"] = text = _format_value(result)
    else:
        fields = report[0](result)
        payload.update(fields)
        text = report[1](fields)
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
