"""Reference arithmetic and output checkers, written apart from pqforms.

Nothing here imports pqforms.  Scalars are ``(re, im)`` pairs of
``fractions.Fraction``, polynomials are dicts from exponent tuples (z block,
then zb block) to scalars, and forms are dicts from ``(I, J)`` index pairs to
polynomials.  Zero coefficients are never stored, so two values are equal
exactly when their dicts are equal.  Permutation signs come from a double
loop over pairs, determinants from our own elimination.

Each ``check_*`` function raises :class:`CheckFailed` when an output is wrong.
The benchmark calls them outside its timed loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
I_UNIT = (Fraction(0), Fraction(1))


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


# -- scalars ------------------------------------------------------------------


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def c_conj(a):
    return (a[0], -a[1])


def c_pow(a, k):
    out = ONE
    for _ in range(k):
        out = c_mul(out, a)
    return out


def c_real(x):
    return (Fraction(x), Fraction(0))


def is_zero(a):
    return a[0] == 0 and a[1] == 0


# -- polynomials --------------------------------------------------------------


def _put(out, key, value):
    total = c_add(out.get(key, ZERO), value)
    if is_zero(total):
        out.pop(key, None)
    else:
        out[key] = total


def p_add(a, b):
    out = dict(a)
    for e, c in b.items():
        _put(out, e, c)
    return out


def p_scale(a, s):
    if is_zero(s):
        return {}
    return {e: c_mul(c, s) for e, c in a.items()}


def p_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _put(out, tuple(x + y for x, y in zip(e1, e2)), c_mul(c1, c2))
    return out


def p_conj(a, n):
    return {e[n:] + e[:n]: c_conj(c) for e, c in a.items()}


def p_derivative(a, slot):
    out = {}
    for e, c in a.items():
        k = e[slot]
        if k:
            _put(out, e[:slot] + (k - 1,) + e[slot + 1 :], c_mul(c, c_real(k)))
    return out


def p_constant(n, s):
    return {} if is_zero(s) else {(0,) * (2 * n): s}


# -- forms --------------------------------------------------------------------


def parity(values):
    """Sign of the permutation sorting ``values``; 0 when a value repeats."""
    sign = 1
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                return 0
            if values[i] > values[j]:
                sign = -sign
    return sign


def f_add(a, b):
    out = dict(a)
    for key, poly in b.items():
        total = p_add(out.get(key, {}), poly)
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def f_scale(f, s):
    return {key: p_scale(poly, s) for key, poly in f.items()} if not is_zero(s) else {}


def _flat_term(n, flat, poly):
    """The form sign(flat) * poly on the sorted differentials ``flat``
    (k is dz_k, n + k is dzb_k); empty when a differential repeats."""
    sign = parity(flat)
    if sign == 0 or not poly:
        return {}
    ordered = sorted(flat)
    key = (tuple(v for v in ordered if v <= n), tuple(v - n for v in ordered if v > n))
    return {key: p_scale(poly, c_real(sign))}


def f_wedge(a, b, n):
    out = {}
    for (I1, J1), c1 in a.items():
        for (I2, J2), c2 in b.items():
            flat = list(I1) + [n + k for k in J1] + list(I2) + [n + k for k in J2]
            out = f_add(out, _flat_term(n, flat, p_mul(c1, c2)))
    return out


def d_half(f, n, barred):
    """The dz half (``barred`` false) or the dzb half of the exterior derivative."""
    out = {}
    for (I, J), poly in f.items():
        for j in range(1, n + 1):
            slot = n + j - 1 if barred else j - 1
            partial = p_derivative(poly, slot)
            if partial:
                flat = [n + j if barred else j] + list(I) + [n + k for k in J]
                out = f_add(out, _flat_term(n, flat, partial))
    return out


def exterior_d(f, n):
    return f_add(d_half(f, n, False), d_half(f, n, True))


def complement(indices, n):
    return tuple(k for k in range(1, n + 1) if k not in indices)


def determinant(matrix):
    """Exact determinant of a square matrix of scalar pairs by elimination."""
    rows = [list(row) for row in matrix]
    size = len(rows)
    det = ONE
    for col in range(size):
        pivot = next((r for r in range(col, size) if not is_zero(rows[r][col])), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = c_mul(det, c_real(-1))
        det = c_mul(det, rows[col][col])
        for r in range(col + 1, size):
            ratio = c_div(rows[r][col], rows[col][col])
            if not is_zero(ratio):
                rows[r] = [c_add(x, c_mul(c_real(-1), c_mul(ratio, y))) for x, y in zip(rows[r], rows[col])]
    return det


def diagonal_matrix(diag):
    n = len(diag)
    return [[c_real(diag[i]) if i == j else ZERO for j in range(n)] for i in range(n)]


def star_diagonal(f, diag):
    """Hodge star for the metric diag(d_1, ..., d_n) with positive rational d_k.

    The closed form of the README with the inverse-metric minors of a
    diagonal metric: a (p,q)-term c on (A, B) goes to
    i^n (-1)^(n(n-1)/2 + (n-p)q) sgn(A, A^c) sgn(B, B^c) det(g)
    prod_{k in A} 1/d_k prod_{k in B} 1/d_k conj(c) on (A^c, B^c).
    """
    n = len(diag)
    det_g = determinant(diagonal_matrix(diag))
    out = {}
    for (A, B), poly in f.items():
        p, q = len(A), len(B)
        Ac, Bc = complement(A, n), complement(B, n)
        sign = parity(list(A) + list(Ac)) * parity(list(B) + list(Bc))
        if (n * (n - 1) // 2 + (n - p) * q) % 2:
            sign = -sign
        weight = Fraction(1)
        for k in A + B:
            weight /= diag[k - 1]
        factor = c_mul(c_mul(c_pow(I_UNIT, n), det_g), c_real(sign * weight))
        out = f_add(out, {(Ac, Bc): p_scale(p_conj(poly, n), factor)})
    return out


def codifferential_diagonal(f, diag):
    """delta = (-1)^(n(k+1)+1) star d star on a form of total degree k."""
    n = len(diag)
    degrees = {len(I) + len(J) for I, J in f}
    k = degrees.pop() if degrees else 0
    sign = -1 if (n * (k + 1) + 1) % 2 else 1
    return f_scale(star_diagonal(exterior_d(star_diagonal(f, diag), n), diag), c_real(sign))


def inner_diagonal(phi, psi, diag):
    """Pointwise inner product sum phi[A,B] conj(psi[A,B]) prod 1/d_k."""
    n = len(diag)
    total = {}
    for key, poly in phi.items():
        if key in psi:
            weight = Fraction(1)
            for k in key[0] + key[1]:
                weight /= diag[k - 1]
            total = p_add(total, p_scale(p_mul(poly, p_conj(psi[key], n)), c_real(weight)))
    return total


def obstruction(f, direction):
    """Pairing functional: each term times (sum of v_s over I) - (sum over J)."""
    total = {}
    for (I, J), poly in f.items():
        weight = sum((direction[s - 1] for s in I), Fraction(0)) - sum((direction[s - 1] for s in J), Fraction(0))
        total = p_add(total, p_scale(poly, c_real(weight)))
    return total


def bidegrees(f):
    return {(len(I), len(J)) for I, J in f}


def pair_count(n, p, q):
    """C(n,p) * C(n,q): the (A, B) pairs index raising visits for a (p,q)-form."""
    return comb(n, p) * comb(n, q)


# -- checkers -----------------------------------------------------------------


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_identity_holds(holds):
    _expect(holds is True, "defining identity reported as failing")


def check_volume(n, matrix, vol):
    """vol = i^n (-1)^(n(n-1)/2) det(g) on dz1..dzn ^ dzb1..dzbn."""
    full = tuple(range(1, n + 1))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    expected = c_mul(c_mul(c_pow(I_UNIT, n), c_real(sign)), determinant(matrix))
    _expect(vol == {(full, full): p_constant(n, expected)}, f"volume form at n={n} differs from i^n (-1)^(n(n-1)/2) det(g)")


def check_double_star(psi, double_star):
    (p, q), = bidegrees(psi)
    _expect(double_star == f_scale(psi, c_real((-1) ** (p + q))), "double star differs from (-1)^(p+q) psi")


def check_inner_identity(phi, psi, inner, n):
    _expect(inner == inner_diagonal(phi, psi, [Fraction(1)] * n), "inner product differs from sum phi conj(psi)")


def check_star(psi, diag, out):
    _expect(out == star_diagonal(psi, diag), "hodge_star differs from the closed form")


def check_codifferential(psi, diag, out):
    _expect(out == codifferential_diagonal(psi, diag), "codifferential differs from +-star d star")


def check_oracle(n, psi, comparisons):
    """comparisons: (p, q, proportional, ratio) per bidegree, ratio a scalar pair."""
    _expect({(p, q) for p, q, _, _ in comparisons} == bidegrees(psi), "oracle compared the wrong bidegrees")
    for p, q, proportional, ratio in comparisons:
        _expect(proportional is True, f"oracle star not proportional at ({p},{q})")
        _expect(ratio == c_real(Fraction(2) ** (n - p - q)), f"oracle ratio at ({p},{q}) is not 2^(n-p-q)")


def check_roundtrip(psi, back):
    _expect(back == psi, "complexify(realify(psi)) differs from psi")


# -- calibration kernel ---------------------------------------------------------


def _linear(n, k):
    slot = k % (2 * n)
    return {tuple(int(s == slot) for s in range(2 * n)): (Fraction(k + 1, 3), Fraction(2 - k, 5))}


_KERNEL_MATRIX = [[(Fraction(7 * i + j + 1, j + 2), Fraction(i - j, 3)) for j in range(5)] for i in range(5)]
_KERNEL_FORMS = (
    {((1,), (2,)): p_add(_linear(3, 0), _linear(3, 3)), ((2,), (3,)): _linear(3, 1), ((3,), (1,)): p_add(_linear(3, 2), _linear(3, 4))},
    {((2, 3), (1,)): p_add(_linear(3, 5), _linear(3, 1)), ((1, 3), (2,)): _linear(3, 2), ((1, 2), (3,)): _linear(3, 4)},
    {((), ()): _linear(3, 3)},
)


def calibration_kernel():
    """Fixed work in the style of the workloads (exact fractions, small dicts
    and tuples) that shares no code with pqforms: a 5x5 determinant and two
    wedges at n=3.  The benchmark times it to follow the host's speed."""
    determinant(_KERNEL_MATRIX)
    a, b, c = _KERNEL_FORMS
    return f_wedge(f_wedge(a, b, 3), c, 3)
