"""Exact scalars, Wirtinger polynomials, and wedge-product sign bookkeeping.

Run:  python demos/01_exact_forms_and_wedge.py
"""

from pqforms import Form, WirtingerPolynomial, gaussian
from pqforms.dsl import format_poly, pretty_print

# ---------------------------------------------------------------------------
# Scalars: Gaussian rationals, all arithmetic exact
# ---------------------------------------------------------------------------
a = gaussian(1, 2)            # 1 + 2i
b = gaussian(3, -1)           # 3 - i
print("scalars:")
print(f"  ({a}) * ({b}) = {a * b}")
print(f"  ({a}) / ({b}) = {a / b}")
print(f"  conj({a})     = {a.conjugate()}")

# ---------------------------------------------------------------------------
# Polynomials: z and zb are independent formal variables
# ---------------------------------------------------------------------------
n = 4
z1 = WirtingerPolynomial.z(n, 1)
zb4 = WirtingerPolynomial.zb(n, 4)
f = z1 * zb4 + 3
print("\npolynomials:")
print(f"  f           = {format_poly(f)}")
print(f"  conj(f)     = {format_poly(f.conjugate())}   (blocks swap, scalars conjugate)")
print(f"  df/dz1      = {format_poly(f.derivative('z', 1))}")
print(f"  df/dzb1     = {format_poly(f.derivative('zb', 1))}   (zb1 does not appear)")

# ---------------------------------------------------------------------------
# Forms: one canonical storage order, every sign from permutation parity
# ---------------------------------------------------------------------------
print("\nwedge signs:")
built = Form.from_factors(3, [("z", 1), ("zb", 3), ("z", 2)], 1)
print(f"  dz1^dzb3^dz2 canonicalizes to {pretty_print(built)}")
square = Form.from_factors(3, [("z", 1), ("z", 1)], 1)
print(f"  dz1^dz1 = {pretty_print(square)}")

left = Form.term(2, (1,), (1,), 1)
right = Form.term(2, (2,), (2,), 1)
print(f"  (dz1^dzb1) ^ (dz2^dzb2) = {pretty_print(left.wedge(right))}")

# conjugation swaps bidegrees and costs (-1)^(|I||J|) to restore order
form = Form.term(2, (1,), (2,), gaussian(0, 1))
print(f"  conj(i*dz1^dzb2) = {pretty_print(form.conjugate())}")

# graded sums are allowed; homogeneous pieces come back out
mixed = Form.term(4, (1,), (), 1) + Form.term(4, (1,), (1,), f.derivative("zb", 4))
print(f"\nmixed form: {pretty_print(mixed)}")
print(f"  (1,0) piece: {pretty_print(mixed.component(1, 0))}")
print(f"  (1,1) piece: {pretty_print(mixed.component(1, 1))}")
