"""The ``cli_session`` workload: one ``python -m pqforms.cli`` child per op.

The op list is fixed in shape and seeded in content: README examples, every
command on seeded forms with n = 1..4 (plain and ``--json``, identity metric
and a diagonal metric file), the four scenarios under ``--strict``, hostile
inputs that must exit 2, and one input of 3,000 nested parentheses.  Every
pass runs the same list, one child at a time.  Each child's peak memory comes
from ``os.wait4``.  Outputs are read back with ``pqforms.dsl`` and compared
with :mod:`reference`.

In a traced pass each child runs ``cli_bootstrap.py``, which installs the
:mod:`tracer` wrappers and writes its records to a file.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from collections import namedtuple
from fractions import Fraction

from pqforms import dsl

import reference as ref
from workloads import plain_form, plain_poly, rand_form, render_form

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BOOTSTRAP = os.path.join(HERE, "cli_bootstrap.py")

CliOp = namedtuple("CliOp", "run check inputs metric known_failure")

NESTING = 3000
SCENARIOS = ("lemma31", "lemma33", "lemma34", "k3")


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def interpreter_start_s():
    """Wall time of one bare ``python -c pass`` child."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


# -- output checks ------------------------------------------------------------------


def _expect(ok, message):
    if not ok:
        raise ref.CheckFailed(message)


def _result_text(stdout, as_json):
    if as_json:
        return json.loads(stdout)["result"]
    _expect(stdout.endswith("\n"), "output does not end with a newline")
    return stdout[:-1]


def later(fn, *args):
    """``fn(*args)``, computed on first use and then kept: the expected values
    are made by the checks, outside set-up and outside the timed ops."""
    return functools.cache(lambda: fn(*args))


def expect_form(n, expected, as_json):
    """``expected`` is a callable that returns the reference form."""

    def check(rc, stdout, stderr):
        _expect(rc == 0, f"exit code {rc}, expected 0")
        text = _result_text(stdout, as_json)
        parsed = dsl.parse_form(text, n)
        _expect(dsl.pretty_print(parsed) == text, "printed form does not survive parse_form")
        _expect(plain_form(parsed) == expected(), "printed form differs from the reference")

    return check


def expect_poly(n, expected, as_json):
    """``expected`` is a callable that returns the reference polynomial."""

    def check(rc, stdout, stderr):
        _expect(rc == 0, f"exit code {rc}, expected 0")
        text = _result_text(stdout, as_json)
        parsed = dsl.parse_poly(text, n)
        _expect(dsl.format_poly(parsed) == text, "printed polynomial does not survive parse_poly")
        _expect(plain_poly(parsed) == expected(), "printed polynomial differs from the reference")

    return check


def expect_exact(text):
    def check(rc, stdout, stderr):
        _expect(rc == 0, f"exit code {rc}, expected 0")
        _expect(stdout == text, f"output {stdout!r}, expected {text!r}")

    return check


def _fields(stdout, as_json):
    if as_json:
        return json.loads(stdout)
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line and not line.startswith(" "))


def expect_scenario(as_json):
    def check(rc, stdout, stderr):
        _expect(rc == 0, f"exit code {rc}, expected 0")
        _expect(_fields(stdout, as_json)["pass"] in (True, "True"), "scenario did not pass")

    return check


def expect_harmonic(n, psi, diag, as_json):
    vanishing = later(lambda: (not ref.exterior_d(psi, n), not ref.codifferential_diagonal(psi, diag)))

    def check(rc, stdout, stderr):
        _expect(rc == 0, f"exit code {rc}, expected 0")
        fields = _fields(stdout, as_json)
        got = [str(fields[k]) for k in ("d_vanishes", "delta_vanishes", "harmonic")]
        d_vanishes, delta_vanishes = vanishing()
        want = [str(d_vanishes), str(delta_vanishes), str(d_vanishes and delta_vanishes)]
        _expect(got == want, f"harmonic report {got}, reference {want}")

    return check


def expect_oracle(n, psi, as_json):
    def check(rc, stdout, stderr):
        _expect(rc == 0, f"exit code {rc}, expected 0")
        if as_json:
            payload = json.loads(stdout)
            rows = [(c["p"], c["q"], c["proportional"], c["ratio"]) for c in payload["comparisons"]]
        else:
            rows = []
            for line in stdout.splitlines()[1:]:
                pq, prop, ratio = line.split(" ")
                p, q = pq[len("(p,q)=(") : -len("):")].split(",")
                rows.append((int(p), int(q), prop == "proportional=True", ratio[len("ratio=") :]))
        comparisons = [(p, q, prop, ref.c_real(Fraction(r)) if r not in (None, "None") else None) for p, q, prop, r in rows]
        ref.check_oracle(n, psi, comparisons)

    return check


def expect_error():
    def check(rc, stdout, stderr):
        _expect(rc == 2, f"exit code {rc}, expected 2")
        _expect(stderr.startswith("error: ") and stdout == "", "no single error line")

    return check


def laplacian_diagonal(psi, diag, n):
    """d delta psi + delta d psi, from the reference d and codifferential."""
    return ref.f_add(
        ref.exterior_d(ref.codifferential_diagonal(psi, diag), n),
        ref.codifferential_diagonal(ref.exterior_d(psi, n), diag),
    )


# -- the workload ---------------------------------------------------------------------


class CliSession:
    name = "cli_session"
    # The parent idles while a child runs, and the calibration kernel runs
    # about 60% slower right after an idle wait than in a busy loop, so here
    # the host's speed is sampled by a bare interpreter start instead, whose
    # typical time on a 2-vCPU x86-64 host with CPython 3.11 is this.
    NOMINAL_INTERPRETER_S = 0.060

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.work = os.path.join(out_dir, "cli")
        self.traced = False
        self.trace_records = []
        self.peak_rss_kb = 0
        self.first_stdout = {}
        self.ops = None

    def setup(self):
        os.makedirs(self.work, exist_ok=True)
        self.diag = {n: [Fraction(k + 2, k + 1) for k in range(n)] for n in range(1, 5)}
        for n, diag in self.diag.items():
            entries = [[str(diag[i]) if i == j else "0" for j in range(n)] for i in range(n)]
            self._write(f"metric_n{n}.json", {"n": n, "entries": entries})
        self._write("nonhermitian.json", {"n": 2, "entries": [["1", "i"], ["i", "1"]]})

    def _write(self, name, payload):
        with open(os.path.join(self.work, name), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def _metric_args(self, n, use_file):
        return ["--metric", os.path.join(self.work, f"metric_n{n}.json")] if use_file else []

    def make_pass(self, k):
        if self.ops is None:
            self.ops = self._build()
        return self.ops

    def _build(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        specs = [
            (["star", "--n", "1", "dz1"], expect_exact("i*dzb1\n")),
            (["obstruction", "--n", "4", "--v", "1,0,0,0", "dz1^dz2^dzb3^dzb4"], expect_exact("1\n")),
            (["scenario", "lemma33", "--json"], expect_scenario(True)),
        ]
        specs += [(["scenario", s, "--strict"], expect_scenario(False)) for s in SCENARIOS]

        def seeded(n=None, p=None, q=None):
            n = n or rng.randint(1, 4)
            p = rng.randint(0, n) if p is None else p
            q = rng.randint(0, n) if q is None else q
            return n, rand_form(rng, n, p, q, rng.randint(1, 3), poly_terms=(1, 2), max_degree=2)

        for command in ("star", "delta", "laplacian", "harmonic"):
            for use_file in (False, True):
                for as_json in (False, True):
                    n, psi = seeded()
                    diag = self.diag[n] if use_file else [Fraction(1)] * n
                    argv = [command, "--n", str(n)] + self._metric_args(n, use_file) + (["--json"] if as_json else [])
                    argv.append(render_form(psi, n))
                    if command == "star":
                        check = expect_form(n, later(ref.star_diagonal, psi, diag), as_json)
                    elif command == "delta":
                        check = expect_form(n, later(ref.codifferential_diagonal, psi, diag), as_json)
                    elif command == "laplacian":
                        check = expect_form(n, later(laplacian_diagonal, psi, diag, n), as_json)
                    else:
                        check = expect_harmonic(n, psi, diag, as_json)
                    specs.append((argv, check))
        for command in ("d", "del", "delbar", "oracle-star"):
            for as_json in (False, True):
                n, psi = seeded()
                argv = [command, "--n", str(n)] + (["--json"] if as_json else []) + [render_form(psi, n)]
                if command == "oracle-star":
                    check = expect_oracle(n, psi, as_json)
                else:
                    if command == "d":
                        out = later(ref.exterior_d, psi, n)
                    else:
                        out = later(ref.d_half, psi, n, command == "delbar")
                    check = expect_form(n, out, as_json)
                specs.append((argv, check))
        for as_json in (False, True):
            n, phi = seeded()
            _, psi = seeded(n)
            argv = ["wedge", "--n", str(n)] + (["--json"] if as_json else []) + [render_form(phi, n), render_form(psi, n)]
            specs.append((argv, expect_form(n, later(ref.f_wedge, phi, psi, n), as_json)))
        for use_file in (False, True):
            n, phi = seeded()
            (p, q), = ref.bidegrees(phi)
            _, psi = seeded(n, p, q)
            diag = self.diag[n] if use_file else [Fraction(1)] * n
            argv = ["inner", "--n", str(n)] + self._metric_args(n, use_file) + (["--json"] if use_file else [])
            argv += [render_form(phi, n), render_form(psi, n)]
            specs.append((argv, expect_poly(n, later(ref.inner_diagonal, phi, psi, diag), use_file)))
        for as_json in (False, True):
            n, psi = seeded()
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            v[rng.randrange(n)] = Fraction(1)
            argv = ["obstruction", "--n", str(n), "--v=" + ",".join(map(str, v))] + (["--json"] if as_json else [])
            argv.append(render_form(psi, n))
            specs.append((argv, expect_poly(n, later(ref.obstruction, psi, v), as_json)))
        specs += [
            (["d", "--n", "2", "dz1^"], expect_error()),
            (["star", "--n", "2", "dz3"], expect_error()),
            (["star", "--n", "2", "--metric", os.path.join(self.work, "nonhermitian.json"), "dz1"], expect_error()),
        ]
        ops = [self._op(i, argv, check) for i, (argv, check) in enumerate(specs)]
        nested = ["d", "--n", "1", "(" * NESTING + "dz1" + ")" * NESTING]
        ops.append(self._op(len(ops), nested, expect_error(), known_failure=True))
        return ops

    def _op(self, index, argv, check, known_failure=False):
        def run():
            return self.run_child(argv, index)

        def verify(out):
            rc, stdout, stderr = out
            first = self.first_stdout.setdefault(index, stdout)
            _expect(stdout == first, f"stdout of {argv[0]} changed between identical runs")
            try:
                check(rc, stdout, stderr)
            except ref.CheckFailed as exc:
                raise ref.CheckFailed(f"pqforms {' '.join(argv)[:200]}: {exc} {stderr[-200:]!r}") from None

        return CliOp(run=run, check=verify, inputs=(), metric=None, known_failure=known_failure)

    def speed_sample(self):
        """One bare interpreter start, as a multiple of its nominal time."""
        return interpreter_start_s() / self.NOMINAL_INTERPRETER_S

    def run_child(self, argv, index):
        """Run one CLI child to its exit; returns (exit code, stdout, stderr)."""
        env = child_env()
        if self.traced:
            trace_file = os.path.join(self.work, "child-trace.json")
            env["BENCH_TRACE_FILE"] = trace_file
            command = [sys.executable, BOOTSTRAP] + argv
        else:
            command = [sys.executable, "-m", "pqforms.cli"] + argv
        out_path, err_path = os.path.join(self.work, "stdout"), os.path.join(self.work, "stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            child = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = (child.returncode, out.read().decode(), err.read().decode())
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced:
            with open(trace_file, encoding="utf-8") as handle:
                self.trace_records.append(json.load(handle))
            os.remove(trace_file)
        return result

    def rerun_subset(self, count=4):
        """Run a seeded subset of the ops again, untimed; stdout must repeat byte for byte."""
        rng = random.Random(f"{self.name}:{self.seed}:rerun")
        for op in rng.sample([op for op in self.ops if not op.known_failure], count):
            op.check(op.run())
