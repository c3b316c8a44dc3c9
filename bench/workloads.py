"""Input generation and ops of the in-process workloads.

Every input comes from ``random.Random`` seeded with the workload seed and
the pass number, so the same seed gives the same inputs.  Inputs are drawn
as plain data (see :mod:`reference`), written in the form syntax by our own
printer and read back with ``pqforms.dsl.parse_form``.  A pass visits a
fixed multiset of classes (n, bidegree, metric, term count) in a seeded
order with random coefficients, so op sizes vary continuously within a
pass and every pass has the same make-up.

Ops call pqforms through module attributes at call time, so the wrappers of
:mod:`tracer` see every call.
"""

from __future__ import annotations

import gc
import random
import time
from collections import namedtuple
from itertools import combinations
from fractions import Fraction

import pqforms
from pqforms import dsl

import reference as ref

# run() is the timed call; check(out) verifies its output untimed; inputs
# lists (parsed Form, plain form) pairs; metric is the metric object used.
Op = namedtuple("Op", "run check inputs metric")


# -- plain data <-> pqforms ----------------------------------------------------


def plain_scalar(value):
    return (value.re, value.im)


def plain_poly(poly):
    return {e: plain_scalar(c) for e, c in poly.terms.items()}


def plain_form(form):
    return {key: plain_poly(poly) for key, poly in form.terms.items()}


def gaussian_matrix(matrix):
    return [[pqforms.GaussianRational(re, im) for re, im in row] for row in matrix]


# -- random plain inputs -------------------------------------------------------


def rand_scalar(rng):
    while True:
        value = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if not ref.is_zero(value):
            return value


def rand_poly(rng, n, terms, max_degree, min_degree=0):
    out = {}
    while len(out) < terms:
        exponents = [0] * (2 * n)
        for _ in range(rng.randint(min_degree, max_degree)):
            exponents[rng.randrange(2 * n)] += 1
        out[tuple(exponents)] = rand_scalar(rng)
    return out


def rotating_form(rng, n, p, q, terms, turn, monomials):
    """A (p,q)-form whose index pairs are fixed by ``turn``, not drawn: the
    turn-th multi-indices (and the next ones, for more terms) in
    lexicographic order.  Coefficients are ``monomials`` random linear
    monomials."""
    firsts = list(combinations(range(1, n + 1), p))
    seconds = list(combinations(range(1, n + 1), q))
    out = {}
    for step in range(len(firsts) * len(seconds)):
        if len(out) == terms:
            break
        key = (firsts[(turn + step) % len(firsts)], seconds[(3 * turn + step // len(firsts)) % len(seconds)])
        out.setdefault(key, rand_poly(rng, n, monomials, 1, 1))
    return out


def rand_index(rng, n, size):
    return tuple(sorted(rng.sample(range(1, n + 1), size)))


def rand_form(rng, n, p, q, terms, poly_terms=(1, 2), max_degree=2):
    """A (p,q)-form with ``terms`` distinct index pairs (fewer when the
    bidegree has fewer) and nonzero polynomial coefficients of
    ``poly_terms`` monomials."""
    terms = min(terms, ref.pair_count(n, p, q))
    out = {}
    while len(out) < terms:
        key = (rand_index(rng, n, p), rand_index(rng, n, q))
        if key not in out:
            out[key] = rand_poly(rng, n, rng.randint(*poly_terms), max_degree)
    return out


# -- our own printer for the form syntax -----------------------------------------


def render_scalar(value):
    re, im = value
    if im == 0:
        return f"({re})"
    imag = f"{abs(im)}*i"
    if re == 0:
        return f"({'-' if im < 0 else ''}{imag})"
    return f"({re}{'-' if im < 0 else '+'}{imag})"


def render_poly(poly, n):
    monomials = []
    for exponents, coeff in poly.items():
        names = [render_scalar(coeff)]
        for slot, e in enumerate(exponents):
            if e:
                name = f"z{slot + 1}" if slot < n else f"zb{slot - n + 1}"
                names.append(name if e == 1 else f"{name}**{e}")
        monomials.append("*".join(names))
    return "(" + "+".join(monomials) + ")"


def render_form(form, n):
    terms = []
    for (I, J), poly in form.items():
        factors = [f"dz{k}" for k in I] + [f"dzb{k}" for k in J]
        terms.append(render_poly(poly, n) + ("*" + "^".join(factors) if factors else ""))
    return "+".join(terms)


def parse(form, n):
    return dsl.parse_form(render_form(form, n), n)


def bidegree_grid(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


# -- host speed -------------------------------------------------------------------

# Typical time of reference.calibration_kernel on a 2-vCPU x86-64 host with
# CPython 3.11.  README.md says why timings are scaled by it.
NOMINAL_KERNEL_S = 2.5e-3


def kernel_speed_sample():
    """One run of the calibration kernel, as a multiple of its nominal time.

    The cyclic garbage collector is off while the kernel runs.  Otherwise the
    kernel's allocations could start a collection of the objects the ops left
    live, and the yardstick would slow with the heap of the code it measures.
    The kernel's own objects are freed by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        ref.calibration_kernel()
        return (time.perf_counter() - start) / NOMINAL_KERNEL_S
    finally:
        if enabled:
            gc.enable()


# -- workloads ---------------------------------------------------------------------


class Workload:
    """Base: ``setup()`` builds the metrics; ``make_pass(k)`` returns pass k."""

    name = ""

    def __init__(self, seed):
        self.seed = seed

    @staticmethod
    def speed_sample():
        return kernel_speed_sample()

    def rng(self, k):
        return random.Random(f"{self.name}:{self.seed}:{k}")


# Fixed dense Hermitian metrics: diagonal n+1+a, off-diagonal entries with
# real and imaginary parts in {-1, -1/2, 0, 1/2, 1}, so they are diagonally
# dominant and positive definite.  The same for every seed.
_DENSE_COUNT = 2


def dense_matrices(n):
    rng = random.Random(f"dense-metrics:{n}")
    halves = [Fraction(k, 2) for k in range(-2, 3)]
    out = []
    for _ in range(_DENSE_COUNT):
        m = [[ref.ZERO] * n for _ in range(n)]
        for a in range(n):
            m[a][a] = ref.c_real(n + 1 + a)
            for b in range(a + 1, n):
                value = (rng.choice(halves), rng.choice(halves))
                m[a][b] = value
                m[b][a] = ref.c_conj(value)
        out.append(m)
    return out


def diagonal_entries(n):
    """Fixed positive rational diagonal metric entries (k+2)/(k+1)."""
    return [Fraction(k + 2, k + 1) for k in range(n)]


class IdentitySweep(Workload):
    """defining_identity_check on random (p,q) pairs, n in {2,3,4}; half the
    ops under the identity metric, half under a fixed dense metric."""

    name = "identity_sweep"
    DIMS = (2, 3, 4)
    DOUBLE_STAR_EVERY = 8  # seeded share of ops that also check star(star(psi))

    def setup(self):
        self.metrics = {}
        for n in self.DIMS:
            identity = ref.diagonal_matrix([1] * n)
            self.metrics[n] = [(pqforms.HermitianMetric.identity(n), identity)] + [
                (pqforms.HermitianMetric(gaussian_matrix(m)), m) for m in dense_matrices(n)
            ]
        self.volume_checked = set()

    def make_pass(self, k):
        rng = self.rng(k)
        classes = [(n, p, q, dense) for n in self.DIMS for p, q in bidegree_grid(n) for dense in (False, True)]
        rng.shuffle(classes)
        ops = []
        for n, p, q, dense in classes:
            phi = rand_form(rng, n, p, q, rng.randint(1, 3))
            psi = rand_form(rng, n, p, q, rng.randint(1, 3))
            metric, matrix = rng.choice(self.metrics[n][1:]) if dense else self.metrics[n][0]
            double = rng.randrange(self.DOUBLE_STAR_EVERY) == 0
            phi_f, psi_f = parse(phi, n), parse(psi, n)
            ops.append(
                Op(
                    run=lambda a=phi_f, b=psi_f, g=metric: pqforms.defining_identity_check(a, b, g),
                    check=self._checker(n, phi, psi, phi_f, psi_f, metric, matrix, dense, double),
                    inputs=((phi_f, phi), (psi_f, psi)),
                    metric=metric,
                )
            )
        return ops

    def _checker(self, n, phi, psi, phi_f, psi_f, metric, matrix, dense, double):
        def check(report):
            ref.check_identity_holds(report.holds)
            if id(metric) not in self.volume_checked:
                ref.check_volume(n, matrix, plain_form(pqforms.volume_form(metric)))
                self.volume_checked.add(id(metric))
            if not dense:
                ref.check_inner_identity(phi, psi, plain_poly(pqforms.pointwise_inner(phi_f, psi_f, metric)), n)
            if double:
                twice = pqforms.hodge_star(pqforms.hodge_star(psi_f, metric), metric)
                ref.check_double_star(psi, plain_form(twice))

        return check


class HodgeHighdim(Workload):
    """hodge_star (codifferential on about a quarter of the cheaper classes)
    on sparse forms with n in {5,...,8} under the identity and a diagonal metric."""

    name = "hodge_highdim"
    DIMS = (5, 6, 7, 8)
    # Index raising visits C(n,p) C(n,q) pairs, so the cost of one class
    # grows about fourfold with each n.  A pass takes each n's bidegree grid
    # (row-major) with this multiplicity and stride, so every n gets a like
    # share of the time.  Classes with many pairs get a fixed term count (two
    # up to 1,500 pairs, one above); the others get 1 to 3 terms and 1 or 2
    # monomials in rotation over classes and passes.  The cost of a star also
    # depends on where its indices lie (one (6,2) term at n=8 takes 0.33 s or
    # 0.82 s), so index sets rotate too.  The seed draws the coefficients and
    # the order, and the make-up of a pass does not move with it.
    SAMPLING = {5: (2, 1), 6: (1, 2), 7: (1, 5), 8: (1, 7)}

    def setup(self):
        self.metrics = {}
        for n in self.DIMS:
            self.metrics[(n, "identity")] = (pqforms.HermitianMetric.identity(n), [Fraction(1)] * n)
            diag = diagonal_entries(n)
            self.metrics[(n, "diagonal")] = (pqforms.HermitianMetric.diagonal([pqforms.gaussian(d) for d in diag]), diag)

    def classes(self, k):
        out = []
        for n in self.DIMS:
            copies, stride = self.SAMPLING[n]
            for index, (p, q) in enumerate(bidegree_grid(n)):
                if index % stride:
                    continue
                pairs = ref.pair_count(n, p, q)
                kind = "diagonal" if (p + q + n) % 2 else "identity"
                op = "codifferential" if (p * 3 + q + n) % 4 == 0 and pairs <= 400 else "hodge_star"
                for _ in range(copies):
                    turn = len(out) + k
                    terms = 1 + turn % 3 if pairs <= 300 else 2 if pairs <= 1500 else 1
                    out.append((n, p, q, kind, op, terms, 1 + turn % 2, turn))
        return out

    def make_pass(self, k):
        rng = self.rng(k)
        classes = self.classes(k)
        rng.shuffle(classes)
        ops = []
        for n, p, q, kind, op, terms, monomials, turn in classes:
            psi = rotating_form(rng, n, p, q, terms, turn, monomials)
            metric, diag = self.metrics[(n, kind)]
            psi_f = parse(psi, n)
            if op == "hodge_star":
                run = lambda a=psi_f, g=metric: pqforms.hodge_star(a, g)
                check = lambda out, a=psi, d=diag: ref.check_star(a, d, plain_form(out))
            else:
                run = lambda a=psi_f, g=metric: pqforms.codifferential(a, g)
                check = lambda out, a=psi, d=diag: ref.check_codifferential(a, d, plain_form(out))
            ops.append(Op(run=run, check=check, inputs=((psi_f, psi),), metric=metric))
        return ops


class OracleRoundtrip(Workload):
    """oracle_compare then complexify(realify(psi)) on forms of every
    bidegree with n in {2,3,4} under the identity metric."""

    name = "oracle_roundtrip"
    DIMS = (2, 3, 4)
    # Each (n, p, q) class twice per pass (100 ops): with one term and with
    # two, each coefficient one random linear monomial.  Index sets rotate
    # (see HodgeHighdim), so the make-up of a pass, whose op costs span two
    # decades, does not move with the seed.
    TERMS = (1, 2)

    def setup(self):
        self.metrics = {n: pqforms.HermitianMetric.identity(n) for n in self.DIMS}

    def make_pass(self, k):
        rng = self.rng(k)
        classes = [(n, p, q, terms) for n in self.DIMS for p, q in bidegree_grid(n) for terms in self.TERMS]
        classes = [c + (turn + k,) for turn, c in enumerate(classes)]
        rng.shuffle(classes)
        ops = []
        for n, p, q, terms, turn in classes:
            psi = rotating_form(rng, n, p, q, terms, turn, 1)
            psi_f = parse(psi, n)
            metric = self.metrics[n]
            ops.append(
                Op(
                    run=lambda a=psi_f, g=metric: (pqforms.oracle_compare(a, g), pqforms.complexify(pqforms.realify(a))),
                    check=self._checker(n, psi),
                    inputs=((psi_f, psi),),
                    metric=metric,
                )
            )
        return ops

    @staticmethod
    def _checker(n, psi):
        def check(out):
            report, back = out
            comparisons = [
                (c.p, c.q, c.proportional, plain_scalar(c.ratio) if c.ratio is not None else None)
                for c in report.comparisons
            ]
            ref.check_oracle(n, psi, comparisons)
            ref.check_roundtrip(psi, plain_form(back))

        return check


LIBRARY_WORKLOADS = {w.name: w for w in (IdentitySweep, HodgeHighdim, OracleRoundtrip)}
