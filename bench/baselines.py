"""Single-operation baselines: ``python3 bench/baselines.py`` from the repository root.

Times, as the median and quartiles of repeated runs, the three single
operations that the project's roadmap tracks: the Hodge star of one (4,4)
monomial at n=8 under the identity metric, ``volume_form`` at n=8, and one
``GaussianRational`` multiply.  A traced call of the star also counts its
determinants.  Results are checked against :mod:`reference`.
"""

import os
import random
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pqforms  # noqa: E402

import reference as ref  # noqa: E402
import tracer  # noqa: E402
from workloads import plain_form  # noqa: E402


def timed(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return q2, q1, q3


def show(label, unit, scale, figures):
    q2, q1, q3 = (v * scale for v in figures)
    print(f"{label}: median {q2:.4g} {unit} (quartiles {q1:.4g} to {q3:.4g})")


def main():
    n = 8
    identity = pqforms.HermitianMetric.identity(n)
    psi = pqforms.Form.term(n, (1, 2, 3, 4), (5, 6, 7, 8), 1)
    star = pqforms.hodge_star(psi, identity)
    ref.check_star(plain_form(psi), [Fraction(1)] * n, plain_form(star))
    show("hodge_star, one (4,4) monomial, n=8", "s", 1, timed(lambda: pqforms.hodge_star(psi, identity), 5))
    recorder = tracer.Tracer()
    recorder.install()
    recorder.enabled = True
    pqforms.hodge_star(psi, identity)
    recorder.uninstall()
    print(f"  determinants computed: {recorder.counts['metric.det_calls']}")

    vol = plain_form(pqforms.volume_form(identity))
    ref.check_volume(n, ref.diagonal_matrix([1] * n), vol)
    show("volume_form, n=8", "s", 1, timed(lambda: pqforms.volume_form(identity), 5))

    rng = random.Random(0)
    pairs = [
        tuple(pqforms.gaussian(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                               Fraction(rng.randint(-99, 99), rng.randint(1, 99))) for _ in range(2))
        for _ in range(10000)
    ]

    def multiply_all():
        for a, b in pairs:
            a * b

    show("GaussianRational multiply", "us", 1e6 / len(pairs), timed(multiply_all, 9))


if __name__ == "__main__":
    main()
