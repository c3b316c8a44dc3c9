"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the repository root.

1. Every checker accepts a true output and rejects one corrupted copy: a
   flipped sign, a dropped term, a wrong ratio, a wrong exit code.
2. The host-speed scaling follows the ops, not the reverse.  On one pass of
   ``identity_sweep`` each op is timed once and then twice over, alternately,
   with a host-speed sample after each: the scaled time must double while the
   host factor stays put.  Then each op is timed without and with a ballast
   of live objects that the garbage collector has to scan, alternately: the
   host factor must stay put again.
3. Every workload runs at minimal length (three passes, or one when
   traced); each reports exactly the metrics named in BENCHMARK.json, is
   correct, and fails only the nested-parentheses op of ``cli_session``.
   Two traced runs of one workload give identical counts.

Exits 0 when every part holds and prints what did not otherwise.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pqforms  # noqa: E402

import clisession  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import dense_matrices, gaussian_matrix, parse, plain_form, plain_poly, rand_form  # noqa: E402

problems = []


def rejects(label, check, *args):
    try:
        check(*args)
    except ref.CheckFailed:
        return
    problems.append(f"{label}: corrupted output accepted")


def accepts(label, check, *args):
    try:
        check(*args)
    except ref.CheckFailed as exc:
        problems.append(f"{label}: true output rejected ({exc})")


def flip_sign(form):
    """Negate the coefficient of the first term."""
    key = sorted(form)[0]
    return {**form, key: ref.p_scale(form[key], ref.c_real(-1))}


def drop_term(form):
    key = sorted(form)[0]
    return {k: v for k, v in form.items() if k != key}


def checker_tests():
    import random

    rng = random.Random(7)
    # identity_sweep
    n = 3
    matrix = dense_matrices(n)[0]
    metric = pqforms.HermitianMetric(gaussian_matrix(matrix))
    vol = plain_form(pqforms.volume_form(metric))
    accepts("volume", ref.check_volume, n, matrix, vol)
    rejects("volume, flipped sign", ref.check_volume, n, matrix, flip_sign(vol))
    rejects("identity, holds false", ref.check_identity_holds, False)
    psi = rand_form(rng, n, 1, 2, 3)
    phi = rand_form(rng, n, 1, 2, 2)
    psi_f, phi_f = parse(psi, n), parse(phi, n)
    identity = pqforms.HermitianMetric.identity(n)
    twice = plain_form(pqforms.hodge_star(pqforms.hodge_star(psi_f, metric), metric))
    accepts("double star", ref.check_double_star, psi, twice)
    rejects("double star, flipped sign", ref.check_double_star, psi, flip_sign(twice))
    inner = plain_poly(pqforms.pointwise_inner(phi_f, psi_f, identity))
    accepts("inner", ref.check_inner_identity, phi, psi, inner, n)
    dropped = {e: c for e, c in inner.items() if e != sorted(inner)[0]}
    rejects("inner, dropped term", ref.check_inner_identity, phi, psi, dropped, n)

    # hodge_highdim
    n = 6
    diag = [Fraction(k + 2, k + 1) for k in range(n)]
    metric = pqforms.HermitianMetric.diagonal([pqforms.gaussian(d) for d in diag])
    psi = rand_form(rng, n, 2, 3, 3, max_degree=1)
    psi_f = parse(psi, n)
    star = plain_form(pqforms.hodge_star(psi_f, metric))
    accepts("star", ref.check_star, psi, diag, star)
    rejects("star, flipped sign", ref.check_star, psi, diag, flip_sign(star))
    codiff = plain_form(pqforms.codifferential(psi_f, metric))
    accepts("codifferential", ref.check_codifferential, psi, diag, codiff)
    rejects("codifferential, dropped term", ref.check_codifferential, psi, diag, drop_term(codiff))

    # oracle_roundtrip
    n = 3
    psi = ref.f_add(rand_form(rng, n, 1, 1, 2), rand_form(rng, n, 2, 0, 1))
    psi_f = parse(psi, n)
    report = pqforms.oracle_compare(psi_f, pqforms.HermitianMetric.identity(n))
    rows = [(c.p, c.q, c.proportional, (c.ratio.re, c.ratio.im)) for c in report.comparisons]
    accepts("oracle", ref.check_oracle, n, psi, rows)
    wrong = [(p, q, ok, ref.c_mul(r, ref.c_real(2))) for p, q, ok, r in rows]
    rejects("oracle, wrong ratio", ref.check_oracle, n, psi, wrong)
    back = plain_form(pqforms.complexify(pqforms.realify(psi_f)))
    accepts("roundtrip", ref.check_roundtrip, psi, back)
    rejects("roundtrip, dropped term", ref.check_roundtrip, psi, drop_term(back))

    # cli_session
    error = clisession.expect_error()
    accepts("cli error", error, 2, "", "error: bad input\n")
    rejects("cli error, wrong exit code", error, 1, "", "error: bad input\n")
    n = 2
    psi = rand_form(rng, n, 1, 1, 2)
    expected = clisession.later(ref.star_diagonal, psi, [Fraction(1)] * n)
    star_text = pqforms.pretty_print(pqforms.hodge_star(parse(psi, n), pqforms.HermitianMetric.identity(n)))
    check = clisession.expect_form(n, expected, False)
    accepts("cli star", check, 0, star_text + "\n", "")
    negated = pqforms.pretty_print(pqforms.dsl.parse_form(f"-({star_text})", n))
    rejects("cli star, flipped sign", check, 0, negated + "\n", "")
    rejects("cli star, wrong exit code", check, 3, star_text + "\n", "")
    rejects("cli readme example", clisession.expect_exact("i*dzb1\n"), 0, "-i*dzb1\n", "")


# How far the host factor may move between interleaved conditions, and the
# range the scaled time of ops run twice over must fall in.  In five runs of
# the control the factor ratios lay in 0.949-1.005 and the scaled time of ops
# run twice over in 2.015-2.090 times that of ops run once.
FACTOR_TOLERANCE = 0.10
DOUBLED_RANGE = (1.7, 2.3)
BALLAST_OBJECTS = 200_000  # about 13 MB of one-element lists


def scaled_time(stats):
    return sum(stats.latencies) / run.host_factor(stats.calibration)


def scaling_control():
    workload = workloads.IdentitySweep(0)
    workload.setup()
    ops = workload.make_pass(0)
    single, doubled, plain, loaded = run.Stats(), run.Stats(), run.Stats(), run.Stats()
    for op in ops:
        run.run_pass([op], single, speed_sample=workload.speed_sample)
        twice = op._replace(run=lambda once=op.run: (once(), once())[1])
        run.run_pass([twice], doubled, speed_sample=workload.speed_sample)
    for op in ops:
        run.run_pass([op], plain, speed_sample=workload.speed_sample)
        ballast = [[k] for k in range(BALLAST_OBJECTS)]
        run.run_pass([op], loaded, speed_sample=workload.speed_sample)
        del ballast
    figures = {
        "factor, ops twice over / once": run.host_factor(doubled.calibration) / run.host_factor(single.calibration),
        "scaled time, ops twice over / once": scaled_time(doubled) / scaled_time(single),
        "factor, with ballast / without": run.host_factor(loaded.calibration) / run.host_factor(plain.calibration),
        "scaled time, with ballast / without": scaled_time(loaded) / scaled_time(plain),
    }
    print("scaling control: " + ", ".join(f"{name} {value:.3f}" for name, value in figures.items()), flush=True)
    for stats in (single, doubled, plain, loaded):
        problems.extend(f"scaling control: {line}" for line in stats.wrong)
    for name in ("factor, ops twice over / once", "factor, with ballast / without"):
        if abs(figures[name] - 1) > FACTOR_TOLERANCE:
            problems.append(f"scaling control: {name} is {figures[name]:.3f}")
    low, high = DOUBLED_RANGE
    if not low <= figures["scaled time, ops twice over / once"] <= high:
        problems.append(f"scaling control: scaled time of ops twice over is {figures['scaled time, ops twice over / once']:.3f}x")


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        problems.append(f"{workload} trace={trace}: exit code {done.returncode}: {done.stderr[-500:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def workload_tests():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    session = clisession.CliSession(0, os.path.join(ROOT, ".bench_out"))
    session.setup()
    cli_pass = len(session.make_pass(0))
    traced_counts = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(name, trace)
            if result is None:
                continue
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: incorrect output")
            expected_failed = result["attempted"] // cli_pass if name == "cli_session" else 0
            if result["failed"] != expected_failed:
                problems.append(f"{name} trace={trace}: {result['failed']} failed of {result['attempted']}")
            if trace:
                traced_counts[name] = {m: v["value"] for m, v in result["metrics"].items() if v["unit"] == "count"}
            print(f"ran {name} trace={trace}: {result['attempted']} ops, {result['failed']} failed", flush=True)
    again = run_bench("oracle_roundtrip", 1)
    if again is not None:
        counts = {m: v["value"] for m, v in again["metrics"].items() if v["unit"] == "count"}
        if counts != traced_counts.get("oracle_roundtrip"):
            problems.append("two traced runs of oracle_roundtrip gave different counts")


def main():
    checker_tests()
    print(f"checker tests done: {len(problems)} problems", flush=True)
    scaling_control()
    workload_tests()
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
