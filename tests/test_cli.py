import importlib
import json
import os
import subprocess
import sys
from operator import attrgetter

import pytest

import pqforms

from pqforms import HermitianMetric
from pqforms.cli import _COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_example(capsys):
    code, out, _ = run(capsys, "star", "--n", "1", "dz1")
    assert code == 0
    assert out == "i*dzb1\n"


def test_star_literal_convention(capsys):
    code, out, _ = run(capsys, "star", "--n", "1", "--convention", "literal", "dz1")
    assert code == 0
    assert out == "i*dz1\n"


def test_d_and_dolbeault(capsys):
    code, out, _ = run(capsys, "d", "--n", "2", "z1*dz2")
    assert (code, out) == (0, "dz1^dz2\n")
    code, out, _ = run(capsys, "del", "--n", "2", "zb1*dz2")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "delbar", "--n", "2", "zb1*dz2")
    assert (code, out) == (0, "-dz2^dzb1\n")


def test_delta_and_laplacian(capsys):
    code, out, _ = run(capsys, "delta", "--n", "4", "dz1^dz2^dzb3^dzb4")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "laplacian", "--n", "1", "z1*zb1")
    assert (code, out) == (0, "-2\n")


def test_wedge_and_inner(capsys):
    code, out, _ = run(capsys, "wedge", "--n", "2", "dz1", "dzb2")
    assert (code, out) == (0, "dz1^dzb2\n")
    code, out, _ = run(capsys, "inner", "--n", "2", "dz1", "dz1")
    assert (code, out) == (0, "1\n")


def test_obstruction_example(capsys):
    code, out, _ = run(capsys, "obstruction", "--n", "4", "--v", "1,0,0,0", "dz1^dz2^dzb3^dzb4")
    assert code == 0
    assert out == "1\n"


def test_harmonic_json(capsys):
    code, out, _ = run(capsys, "harmonic", "--n", "4", "--json", "dz1^dz2^dzb3^dzb4")
    assert code == 0
    payload = json.loads(out)
    assert payload["harmonic"] is True
    assert payload["d_vanishes"] is True
    assert payload["delta_vanishes"] is True


def test_oracle_star_report(capsys):
    code, out, _ = run(capsys, "oracle-star", "--n", "1", "--json", "dz1")
    assert code == 0
    payload = json.loads(out)
    assert payload["proportional"] is True
    assert payload["comparisons"][0]["ratio"] == "1"


def test_scenario_json_and_strict(capsys):
    code, out, _ = run(capsys, "scenario", "lemma33", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    checks = payload["checks"]
    assert all(c["extras"]["d_vanishes"] for c in checks)
    assert all(c["extras"]["delta_vanishes"] for c in checks)
    code, _, _ = run(capsys, "scenario", "k3", "--strict")
    assert code == 0


def test_scenario_strict_exits_3_when_a_verdict_deviates(capsys, monkeypatch):
    # as in tests/test_scenarios.py: the symbolic obstruction reads as zero, so a wanted extra deviates
    monkeypatch.setattr(pqforms.scenarios, "obstruction_direction_coefficients", lambda form: {})
    code, out, _ = run(capsys, "scenario", "lemma34")
    assert code == 0 and out.endswith("pass: False\n")
    code, _, _ = run(capsys, "scenario", "lemma34", "--strict")
    assert code == 3


def test_metric_file_flag(capsys, tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"n": 2, "entries": [["2", "0"], ["0", "1"]]}))
    code, out, _ = run(capsys, "star", "--n", "2", "--metric", str(path), "dz1")
    assert code == 0
    assert out == "dz2^dzb1^dzb2\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "star", "--n", "1", "dz2")
    assert code == 2
    assert "out of range" in err


def test_bad_metric_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": [["1", "i"], ["i", "1"]]}))
    code, _, err = run(capsys, "star", "--n", "2", "--metric", str(path), "dz1")
    assert code == 2
    assert "Hermitian" in err


def test_indefinite_metric_exit_code(capsys, tmp_path):
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps({"n": 2, "entries": [["1", "0"], ["0", "-1"]]}))
    code, out, err = run(capsys, "star", "--n", "2", "--metric", str(path), "dz1")
    assert (code, out, err) == (2, "", "error: metric matrix is not positive definite: leading minor 2 is -1\n")


@pytest.mark.parametrize(
    "entries", [[[1.5]], [[None]], [[[1]]], 5, [[True]], "1"], ids=["float", "null", "nested", "number", "bool", "string"]
)
def test_malformed_metric_entries_exit_2(capsys, tmp_path, entries):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, "star", "--n", "1", "--metric", str(path), "dz1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("declared", [2.0, True, "2"], ids=["float", "bool", "string"])
def test_metric_n_must_be_an_integer_exit_2(capsys, tmp_path, declared):
    # type(), as for the entries: 2.0 and true were accepted, and "2" was
    # reported as "declared n=2 but entries have 2 rows"; a null n is no n
    rows = [["1"]] if declared is True else [["2", "0"], ["0", "1"]]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"n": declared, "entries": rows}))
    argv = ("star", "--n", str(len(rows)), "--metric", str(path), "dz1")
    assert run(capsys, *argv) == (2, "", f"error: {path}: metric 'n' must be an integer\n")
    path.write_text(json.dumps({"n": None, "entries": rows}))
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("n", ["0", "-2"])
def test_nonpositive_n_names_the_dimension_exit_2(capsys, n):
    # checked before any option is read: the metric commands reported the
    # identity metric's empty matrix instead
    commands = [
        ["star", "dz1"], ["d", "dz1"], ["del", "dz1"], ["delbar", "dz1"], ["delta", "dz1"], ["laplacian", "dz1"],
        ["harmonic", "dz1"], ["oracle-star", "dz1"], ["wedge", "dz1", "dzb1"], ["inner", "dz1", "dz1"],
        ["obstruction", "--v", "1", "dz1"],
    ]
    assert sorted(argv[0] for argv in commands) == sorted(_COMMANDS)
    results = {argv[0]: run(capsys, argv[0], "--n", n, *argv[1:]) for argv in commands}
    assert results == {argv[0]: (2, "", f"error: ambient dimension must be positive, got {n}\n") for argv in commands}


def test_deeply_nested_metric_file_exit_2(capsys, tmp_path):
    # the JSON decoder recurses once per bracket and gives up with a RecursionError
    path = tmp_path / "nested.json"
    path.write_text('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "star", "--n", "1", "--metric", str(path), "dz1")
    assert (code, out, err) == (2, "", f"error: {path}: metric file is nested too deeply\n")


def test_zero_denominator_scalar_exit_2(capsys, tmp_path):
    # a --v component and a metric-file entry are read by the same scalar grammar
    message = "error: invalid scalar literal '1/0': zero denominator\n"
    assert run(capsys, "obstruction", "--n", "2", "--v", "1/0,1", "dz1") == (2, "", message)
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"entries": [["1/0"]]}))
    assert run(capsys, "star", "--n", "1", "--metric", str(path), "dz1") == (2, "", message)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() reads any number of digits here")
def test_over_long_integer_literals_exit_2_with_a_position(capsys, tmp_path):
    # int() refuses text of more than sys.get_int_max_str_digits() digits
    # (4,300 by default) with a message that names a Python function; a DSL
    # literal is refused at its line and column, and a --v component or a
    # metric-file entry in the scalar grammar's words
    ones = "1" * 5000
    assert run(capsys, "star", "--n", "1", f"dz1 +\n {ones}*dz1") == (2, "", "error: integer literal has too many digits at line 2, column 2\n")
    message = f"error: invalid scalar literal {ones!r}: too many digits\n"
    assert run(capsys, "obstruction", "--n", "2", "--v", f"{ones},1", "dz1") == (2, "", message)
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"entries": [[ones]]}))
    assert run(capsys, "star", "--n", "1", "--metric", str(path), "dz1") == (2, "", message)


def test_unknown_subcommand_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "star", "--n", "1", "--bogus", "dz1")[0] == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["d", "--n", "2", "dz1"], "metric"),
        (["d", "--n", "2", "dz1"], "convention"),
        (["del", "--n", "2", "z1*dz2"], "metric"),
        (["del", "--n", "2", "z1*dz2"], "convention"),
        (["delbar", "--n", "2", "zb1*dz2"], "metric"),
        (["delbar", "--n", "2", "zb1*dz2"], "convention"),
        (["wedge", "--n", "2", "dz1", "dzb2"], "metric"),
        (["wedge", "--n", "2", "dz1", "dzb2"], "convention"),
        (["obstruction", "--n", "2", "--v", "1,0", "dz1^dzb2"], "metric"),
        (["obstruction", "--n", "2", "--v", "1,0", "dz1^dzb2"], "convention"),
        (["inner", "--n", "2", "dz1", "dz1"], "convention"),
    ],
)
def test_options_a_command_does_not_read_exit_2(capsys, tmp_path, argv, option):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"n": 2, "entries": [["2", "0"], ["0", "1"]]}))
    assert run(capsys, *argv)[0] == 0
    value = str(path) if option == "metric" else "literal"
    code, out, err = run(capsys, argv[0], f"--{option}", value, *argv[1:])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: --{option} {value}\n") and "Traceback" not in err


def test_undeclared_option_is_reported_with_its_value(capsys):
    # argparse alone read the path as the form and reported "--metric dz1"
    code, out, err = run(capsys, "d", "--n", "2", "--metric", "/nonexistent.json", "dz1")
    assert (code, out) == (2, "")
    assert err.endswith("pqforms: error: unrecognized arguments: --metric /nonexistent.json\n")
    code, out, err = run(capsys, "scenario", "--convention", "literal", "k3")
    assert (code, out) == (2, "")
    assert err.endswith("pqforms: error: unrecognized arguments: --convention literal\n")
    code, out, _ = run(capsys, "star", "--n", "1", "--convention", "literal", "--", "dz1")
    assert (code, out) == (0, "i*dz1\n")


def test_a_printed_form_that_starts_with_minus_reads_back(capsys):
    # argparse alone took "-dz2^dzb1" for an option and --v's "-1,0" for a missing value
    code, out, _ = run(capsys, "delbar", "--n", "2", "zb1*dz2")
    assert (code, out) == (0, "-dz2^dzb1\n")
    assert run(capsys, "d", "--n", "2", out[:-1]) == (0, "0\n", "")
    assert run(capsys, "wedge", "--n", "2", "--json", "-dz1", "--", "-dzb2") == run(
        capsys, "wedge", "--n", "2", "-dz1", "--json", "-dzb2"
    )
    assert run(capsys, "obstruction", "--n", "2", "-dz1", "--v", "-1,0") == (0, "1\n", "")


def test_an_abbreviated_option_is_not_read(capsys):
    # a form may start with "-", so a token after an abbreviated option could be either
    code, out, err = run(capsys, "star", "--n", "1", "--conv", "literal", "dz1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --conv" in err


def test_a_bad_direction_is_reported_before_the_form(capsys):
    # --v is an option value, read before the forms are parsed, as --metric is
    assert run(capsys, "obstruction", "--n", "2", "--v", "1", "dz1 +") == (
        2, "", "error: direction '1' has 1 components, expected 2\n"
    )


def test_each_row_names_a_public_function():
    for _, _, _, call, _ in _COMMANDS.values():
        assert call.partition(".")[0] in pqforms.__all__
        assert callable(attrgetter(call)(pqforms))


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_each_command_calls_its_function_through_the_package(capsys, monkeypatch, name):
    # a counting wrapper installed as bench/tracer.py installs its own: on the
    # home module and the package alias, or on the class for a method
    _, forms, options, call, _ = _COMMANDS[name]
    argv = [name, "--n", "2", *(["--v", "1,0"] if "v" in options else []), *["dz1"] * len(forms)]
    expected = run(capsys, *argv)
    original, calls = attrgetter(call)(pqforms), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    owner, _, attr = call.rpartition(".")
    if owner:
        monkeypatch.setattr(getattr(pqforms, owner), attr, counting)
    else:
        monkeypatch.setattr(importlib.import_module(f"pqforms.{pqforms._HOME[call]}"), call, counting)
        monkeypatch.setattr(pqforms, call, counting)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and len(calls) == 1


def test_oracle_star_rejects_non_identity_metric(capsys, tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"n": 1, "entries": [["2"]]}))
    code, _, err = run(capsys, "oracle-star", "--n", "1", "--metric", str(path), "dz1")
    assert code == 2
    assert "identity" in err


def test_byte_identical_output(capsys):
    first = run(capsys, "scenario", "lemma31", "--json")
    second = run(capsys, "scenario", "lemma31", "--json")
    assert first == second
    third = run(capsys, "star", "--n", "2", "--json", "(z1+3)*dz1^dzb2")
    fourth = run(capsys, "star", "--n", "2", "--json", "(z1+3)*dz1^dzb2")
    assert third == fourth


def _refuse_metric(cls, n):
    raise ValueError("metric refused")


@pytest.mark.parametrize(
    "argv",
    [
        ["d", "--n", "3", "dz1"],
        ["del", "--n", "3", "z1*dz2"],
        ["delbar", "--n", "3", "zb1*dz2"],
        ["wedge", "--n", "3", "dz1", "dzb2"],
        ["obstruction", "--n", "3", "--v", "1,0,0", "dz1^dzb2"],
    ],
)
def test_commands_without_a_metric_build_none(capsys, monkeypatch, argv):
    monkeypatch.setattr(HermitianMetric, "identity", classmethod(_refuse_metric))
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "--n", "1", "dz1"],
        ["inner", "--n", "1", "dz1", "dz1"],
        ["delta", "--n", "1", "dz1"],
        ["laplacian", "--n", "1", "dz1"],
        ["harmonic", "--n", "1", "dz1"],
        ["oracle-star", "--n", "1", "dz1"],
    ],
)
def test_metric_commands_still_build_one(capsys, monkeypatch, argv):
    monkeypatch.setattr(HermitianMetric, "identity", classmethod(_refuse_metric))
    code, _, err = run(capsys, *argv)
    assert (code, err) == (2, "error: metric refused\n")


_LOADED = (
    "import io, sys; from contextlib import redirect_stdout; from pqforms.cli import main\n"
    "with redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
    "print(code, *sorted(sys.modules))"
)


def loaded_modules(*argv):
    """Exit code and the modules that one command loads in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(pqforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, capture_output=True, text=True, check=True)
    code, *modules = done.stdout.split()
    return int(code), set(modules)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["d", "--n", "1", "dz1"], ("metric", "star", "realoracle", "obstruction", "scenarios")),
        (["star", "--n", "1", "dz1"], ("realoracle", "obstruction", "scenarios", "calculus")),
        (["delta", "--n", "2", "z1*zb1*dz1"], ("star", "realoracle", "obstruction", "scenarios")),
    ],
)
def test_a_command_loads_only_the_modules_it_computes_with(argv, absent):
    code, modules = loaded_modules(*argv)
    assert code == 0
    assert not modules & {f"pqforms.{name}" for name in absent}


# The records are typing.NamedTuple classes; a dataclass would load dataclasses
# and, through it, inspect: about 13 ms of every child.
@pytest.mark.parametrize(
    "argv",
    [
        [name, "--n", "1", *(["--v", "1"] if "v" in options else []), *["dz1"] * len(forms)]
        for name, (_, forms, options, *_) in _COMMANDS.items()
    ]
    + [["scenario", "k3"]],
    ids=[*_COMMANDS, "scenario-k3"],
)
def test_no_command_loads_dataclasses_or_inspect(argv):
    code, modules = loaded_modules(*argv)
    assert code == 0
    assert not modules & {"dataclasses", "inspect"}


def cli_child_modules(*argv):
    """Exit code and the modules a ``python -m pqforms.cli`` child imports, read
    from its ``-X importtime`` report on stderr."""
    src = os.path.dirname(os.path.dirname(pqforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pqforms.cli", *argv], env=env, capture_output=True, text=True
    )
    modules = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    return done.returncode, modules


# fractions (with decimal, which it imports) and json are about 5 ms of a
# child; a plain command handles no Fraction and writes no JSON: the pairing
# functionals, the oracle's ratio table and the scenarios included.
@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["star", "--n", "1", "dz1"], set()),
        (["d", "--n", "2", "z1*dz2"], set()),
        (["star", "--n", "1", "--json", "dz1"], {"json"}),
        (["obstruction", "--n", "4", "--v", "1,0,0,0", "dz1^dz2^dzb3^dzb4"], set()),
        (["oracle-star", "--n", "2", "dz1^dzb2"], set()),
        (["scenario", "lemma34"], set()),
    ],
)
def test_a_plain_cli_child_loads_no_fractions_decimal_or_json(argv, loaded):
    code, modules = cli_child_modules(*argv)
    assert code == 0
    assert "pqforms.dsl" in modules  # the report was read
    assert modules & {"fractions", "decimal", "json"} == loaded
