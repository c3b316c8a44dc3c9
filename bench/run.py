"""Benchmark of pqforms: closed-loop workloads with exact reference checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; pqforms is imported from ``src/``.  One
client runs one op at a time.  The run repeats whole passes over the
workload's inputs until S seconds at nominal host speed have passed and at
least three passes ran, checks every output against :mod:`reference` outside the
timed calls, and prints each metric by name and unit, then one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are scaled to nominal host speed: after every op the run takes one
host-speed sample (the workload's ``speed_sample``), and latencies are
divided by the mean sample and throughput multiplied by it.  The figures as
measured are printed too.  README.md gives the reasons and the evidence.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
with the :mod:`tracer` wrappers installed (from before set-up on in-process
workloads, inside every child on ``cli_session``), reports the per-layer
metrics, and then runs the same pass untraced to report the tracing
overhead.  Results and traces are also written under ``.bench_out/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("identity_sweep", "hodge_highdim", "oracle_roundtrip", "cli_session")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 6  # fresh processes that only set up; setup_s is the median of their times
CLI_PROBES = 5  # children timed for cli.interpreter_ms and, off cli_session, cli.import_ms
# A run covers at least this many passes: the rotations of term counts in a
# pass repeat every 3 passes, and 3 passes are at least 123 ops, so at least
# ten lie beyond op_ms_p90.
MIN_PASSES = 3
SETUP_KERNELS = 20  # calibration kernel runs that scale each set-up sample


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="only set up, then print the set-up time")
    return parser.parse_args(argv)


def build(name, seed):
    """Build the workload's metrics and its first pass of inputs."""
    if name == "cli_session":
        import clisession

        workload = clisession.CliSession(seed, OUT_DIR)
    else:
        import workloads

        workload = workloads.LIBRARY_WORKLOADS[name](seed)
    workload.setup()
    return workload, workload.make_pass(0)


class Stats:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.reused_metric = 0
        self.seen_metrics = set()
        self.calibration = []


def run_pass(ops, stats, tracer=None, speed_sample=None):
    """Run ops one at a time; only ``op.run()`` is timed.  With
    ``speed_sample``, take one host-speed sample after each op."""
    from reference import CheckFailed
    from workloads import plain_form

    for op in ops:
        for form, plain in op.inputs:
            if plain_form(form) != plain:
                stats.wrong.append("parse_form misread a generated input")
        if op.metric is not None:
            stats.reused_metric += id(op.metric) in stats.seen_metrics
            stats.seen_metrics.add(id(op.metric))
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash of the run
            out = exc
        stats.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        if speed_sample is not None:
            stats.calibration.append(speed_sample())
        stats.attempted += 1
        if isinstance(out, Exception):
            stats.failed += 1
            stats.wrong.append(f"op raised {out!r}")
            continue
        try:
            op.check(out)
        except Exception as exc:  # a rejected output, or one the checker cannot read, is a failed op
            stats.failed += 1
            if not getattr(op, "known_failure", False):
                stats.wrong.append(str(exc) if isinstance(exc, CheckFailed) else f"unreadable output: {exc!r}")


def host_factor(samples):
    """How much slower than nominal the host ran while ``samples`` were taken."""
    return statistics.mean(samples) if samples else 1.0


def import_ms(count):
    """Median time in ms of a fresh ``import pqforms.cli``, timed inside each child."""
    from clisession import child_env

    code = "import time; t = time.perf_counter(); import pqforms.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        times.append(float(done.stdout) * 1000)
    return statistics.median(times)


def setup_probes(args):
    """Set-up times of fresh processes running only the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def normalized_setup(raw_s):
    """Set-up time scaled to nominal host speed by the median of kernels run right after it."""
    from workloads import kernel_speed_sample

    return raw_s / statistics.median(kernel_speed_sample() for _ in range(SETUP_KERNELS))


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, stats, setup_s, workload):
    """The end-to-end metrics as measured on this host, and scaled to nominal host speed."""
    if args.workload == "cli_session":
        peak_kb = workload.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "ops_per_s": (stats.attempted - stats.failed) / sum(stats.latencies),
        "op_ms_p50": statistics.median(stats.latencies) * 1000,
        "op_ms_p90": quantile(stats.latencies, 90) * 1000,
    }
    factor = host_factor(stats.calibration)
    scaled = {
        "setup_s": setup_s,
        "ops_per_s": raw["ops_per_s"] * factor,
        "op_ms_p50": raw["op_ms_p50"] / factor,
        "op_ms_p90": raw["op_ms_p90"] / factor,
        "peak_rss_mb": peak_kb / 1024,
    }
    return scaled, dict(raw, host_factor=factor)


def measured_run(args, workload, first):
    stats = Stats()
    loop_start = time.perf_counter()
    passes = 0
    while True:
        run_pass(first if passes == 0 else workload.make_pass(passes), stats, speed_sample=workload.speed_sample)
        passes += 1
        elapsed = (time.perf_counter() - loop_start) / host_factor(stats.calibration)
        if elapsed >= args.seconds and passes >= MIN_PASSES:
            break
    if args.workload == "cli_session":
        check_rerun(workload, stats)
    return stats, passes


def check_rerun(workload, stats):
    from reference import CheckFailed

    try:
        workload.rerun_subset()
    except CheckFailed as exc:
        stats.wrong.append(str(exc))


def traced_run(args, workload, first, tracer):
    """One traced pass, then the same pass untraced; returns the per-layer
    metrics, the traced pass's stats and the overhead ratio."""
    traced = Stats()
    if args.workload == "cli_session":
        workload.traced = True
        run_pass(first, traced)
        workload.traced = False
        records = workload.trace_records
        raws = [r["raw"] for r in records]
        cli = {
            "cli.import_ms": statistics.median(r["import_ms"] for r in records),
            "cli.main_ms": statistics.median(r["main_ms"] for r in records),
        }
    else:
        run_pass(first, traced, tracer)
        tracer.uninstall()
        raws = [tracer.raw()]
        cli = {"cli.import_ms": import_ms(CLI_PROBES), "cli.main_ms": 0.0}
    from clisession import interpreter_start_s

    cli["cli.interpreter_ms"] = statistics.median(interpreter_start_s() for _ in range(CLI_PROBES)) * 1000
    untraced = Stats()
    run_pass(first, untraced)
    import tracer as tracer_module

    metrics = tracer_module.layer_metrics(raws, cli)
    return metrics, traced, sum(traced.latencies) / sum(untraced.latencies)


def report(args, correct, stats, values, units, extra):
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for line in stats.wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{'trace' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json"
    with open(os.path.join(OUT_DIR, stem), "w", encoding="utf-8") as handle:
        json.dump(dict(result, **extra), handle, indent=1, sort_keys=True)
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pqforms", "__init__.py")):
        print(f"error: no pqforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pqforms  # noqa: F401  (part of set-up)

    tracer = None
    if args.trace and args.workload != "cli_session":
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
        tracer.enabled = True
    workload, first = build(args.workload, args.seed)
    if args.setup_probe:
        print(normalized_setup(time.perf_counter() - _STARTED))
        return 0
    if args.trace:
        if tracer is not None:
            tracer.enabled = False
        return traced_main(args, workload, first, tracer)
    setup_samples = setup_probes(args)
    stats, passes = measured_run(args, workload, first)
    values, raw = end_to_end(args, stats, statistics.median(setup_samples), workload)
    reuse = stats.reused_metric / stats.attempted
    print(f"{args.workload}: {passes} passes, {stats.attempted} ops, metric object seen before on {reuse:.4f} of ops")
    print("as measured: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    extra = {"passes": passes, "metric_reuse": reuse, "setup_samples": setup_samples, "as_measured": raw}
    report(args, not stats.wrong, stats, values, dict(END_TO_END), extra)
    return 0


def traced_main(args, workload, first, tracer):
    import tracer as tracer_module

    values, stats, overhead = traced_run(args, workload, first, tracer)
    print(f"trace overhead: {overhead:.3f}x the untraced time of the same pass")
    report(args, not stats.wrong, stats, values, dict(tracer_module.PER_LAYER), {"overhead": overhead})
    return 0


if __name__ == "__main__":
    sys.exit(main())
