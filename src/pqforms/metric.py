"""Constant Hermitian metrics, their associated (1,1)-form and volume form.

Only constant matrices are supported: the engine works at a base point of
the flat local model, where the metric can always be brought to a constant
(usually the identity).  Position-dependent metrics are out of scope.

A matrix is checked and inverted by one exact Gauss-Jordan pass, whose
pivots also give the determinant and the leading principal minors
(Sylvester's criterion decides positive-definiteness from the minors).
"""

from __future__ import annotations

from math import factorial
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .forms import Form
from .scalars import GaussianRational, I_UNIT, ONE, ScalarLike, ZERO, _positive, parse_scalar

Matrix = Tuple[Tuple[GaussianRational, ...], ...]
MatrixLike = Sequence[Sequence[Union[ScalarLike, str]]]


def _coerce_entry(value: Union[ScalarLike, str]) -> GaussianRational:
    if isinstance(value, str):
        return parse_scalar(value)
    return GaussianRational.coerce(value)


def coerce_matrix(entries: MatrixLike) -> Matrix:
    rows = tuple(tuple(_coerce_entry(v) for v in row) for row in entries)
    if not rows:
        raise ValueError("matrix must be non-empty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    if width != len(rows):
        raise ValueError(f"matrix must be square, got {len(rows)}x{width}")
    return rows


def _gauss_jordan(matrix: Matrix) -> Tuple[GaussianRational, Optional[Matrix], Tuple[GaussianRational, ...]]:
    """One exact Gauss-Jordan pass: the determinant, the inverse (None when
    singular) and the leading principal minors D_1, D_2, ...

    While no row swap is needed, the k-th pivot is D_k / D_(k-1), so the
    running product of the pivots is D_k (Horn & Johnson, Matrix Analysis,
    7.2).  A swap at column k means D_k = 0: that 0 is the last minor
    recorded, and the pass goes on for the determinant and the inverse.
    """
    n = len(matrix)
    work = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(matrix)]
    det = ONE
    minors: List[GaussianRational] = []
    unswapped = True
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot_row != col:
            if unswapped:
                minors.append(ZERO)
                unswapped = False
            if pivot_row is None:
                return ZERO, None, tuple(minors)
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        if unswapped:
            minors.append(det)
        work[col] = [v / pivot if v else v for v in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and not factor.is_zero():
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det, tuple(tuple(row[n:]) for row in work), tuple(minors)


class MetricValidation(NamedTuple):
    """Validation report for a candidate Hermitian metric matrix."""

    n: int
    is_hermitian: bool
    hermitian_failures: Tuple[Tuple[int, int], ...]
    determinant: GaussianRational
    is_invertible: bool
    is_positive_definite: bool
    leading_minors: Tuple[GaussianRational, ...] = ()

    @property
    def is_valid(self) -> bool:
        return self.is_hermitian and self.is_invertible and self.is_positive_definite


def _validated(entries: MatrixLike) -> Tuple[Matrix, MetricValidation, Optional[Matrix]]:
    """The coerced matrix, its validation report and its inverse (None
    when singular), from one coercion and one elimination."""
    matrix = coerce_matrix(entries)
    n = len(matrix)
    failures = tuple(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(n)
        if matrix[i][j] != matrix[j][i].conjugate()
    )
    hermitian = not failures
    det, inverse, minors = _gauss_jordan(matrix)
    minors = minors if hermitian else ()
    positive = hermitian and all(map(_positive, minors))
    report = MetricValidation(
        n=n,
        is_hermitian=hermitian,
        hermitian_failures=failures,
        determinant=det,
        is_invertible=not det.is_zero(),
        is_positive_definite=positive,
        leading_minors=minors,
    )
    return matrix, report, inverse


def validate_matrix(entries: MatrixLike) -> MetricValidation:
    """Check Hermitian-ness, invertibility and positive-definiteness.

    Positive-definiteness is decided exactly by the leading principal
    minors, which for a Hermitian matrix are all real.  They come from the
    pivots of the elimination that gives the determinant (Sylvester), so
    ``leading_minors`` ends at the first zero minor; a matrix that is not
    Hermitian gets none.
    """
    return _validated(entries)[1]


class HermitianMetric:
    """A constant n x n Hermitian positive-definite matrix with cached inverse.

    Entry [a][b] is the metric coefficient pairing dz^(a+1) with the
    conjugate of dz^(b+1).
    """

    __slots__ = ("n", "entries", "inverse", "determinant", "_identity", "_volume", "_star")

    def __init__(self, entries: MatrixLike):
        matrix, report, inverse = _validated(entries)
        if not report.is_hermitian:
            offenders = ", ".join(
                f"[{i},{j}]={matrix[i - 1][j - 1]} vs conj([{j},{i}])={matrix[j - 1][i - 1].conjugate()}"
                for i, j in report.hermitian_failures
            )
            raise ValueError(f"matrix is not Hermitian: {offenders}")
        if not report.is_invertible:
            raise ValueError("metric matrix is singular")
        if not report.is_positive_definite:
            k, minor = next((k, m) for k, m in enumerate(report.leading_minors, 1) if not _positive(m))
            raise ValueError(f"metric matrix is not positive definite: leading minor {k} is {minor}")
        self.n = len(matrix)
        self.entries = matrix
        self.determinant = report.determinant
        self.inverse = inverse
        self._identity = None  # filled by is_identity on first use
        self._volume = None  # filled by volume_form on first use
        self._star = None  # the star rows and the raising frame (star._StarRows), built by star._star_rows on first use

    @classmethod
    def identity(cls, n: int) -> "HermitianMetric":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[ScalarLike]) -> "HermitianMetric":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def validate(self) -> MetricValidation:
        return validate_matrix(self.entries)

    def is_identity(self) -> bool:
        """Whether the matrix is the identity, compared entry by entry on
        the first call and kept: the metric is immutable."""
        if self._identity is None:
            self._identity = all(
                self.entries[i][j] == (ONE if i == j else ZERO)
                for i in range(self.n)
                for j in range(self.n)
            )
        return self._identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HermitianMetric):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(str(v) for v in row) for row in self.entries)
        return f"HermitianMetric[{rows}]"


def associated_form(metric: HermitianMetric) -> Form:
    """The (1,1)-form i * sum g[a][b] dz^a ^ dzb^b attached to the metric."""
    return Form(metric.n, {
        ((a,), (b,)): I_UNIT * c for a, row in enumerate(metric.entries, 1) for b, c in enumerate(row, 1) if c
    })


def volume_form(metric: HermitianMetric) -> Form:
    """The exact volume form: the n-th wedge power of the associated
    (1,1)-form divided by n!.  Computed by explicit wedge powers, which is
    the engine's ground truth for every other volume normalization, once
    per metric: the result is kept on the metric and returned again."""
    if metric._volume is None:
        n = metric.n
        omega = associated_form(metric)
        power = Form.from_scalar(n, 1)
        for _ in range(n):
            power = power.wedge(omega)
        metric._volume = power.scale(ONE / factorial(n))
    return metric._volume


class VolumeCoefficientReport(NamedTuple):
    """Comparison of the wedge-power volume coefficient against the
    real-prefactor variant (-1)^{n(n-1)/2} det(g) that some texts print
    without the i^n factor."""

    n: int
    wedge_power_coefficient: GaussianRational
    real_prefactor_variant: GaussianRational
    match: bool


def volume_coefficient_report(metric: HermitianMetric) -> VolumeCoefficientReport:
    n = metric.n
    vol = volume_form(metric)
    full = tuple(range(1, n + 1))
    computed = vol.coefficient(full, full).constant_value()
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    variant = metric.determinant * sign
    return VolumeCoefficientReport(
        n=n,
        wedge_power_coefficient=computed,
        real_prefactor_variant=variant,
        match=computed == variant,
    )


def load_metric(path: str) -> HermitianMetric:
    """Load a metric from JSON: {"n": int, "entries": [["1", "i", ...], ...]}.

    "n" may be left out or null; when given it must be a JSON integer equal
    to the number of rows.

    Entries may be integers, rational strings like "1/2", or complex
    literals like "1/2+3/4i".  Non-Hermitian matrices are rejected with a
    diff of the offending entries, and matrices that are not positive
    definite with the first leading minor that is not positive.
    """
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: metric file is nested too deeply") from None
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError(f"{path}: metric file must be an object with an 'entries' field")
    entries = payload["entries"]
    # type(), not isinstance: JSON true and false load as bools, which are ints
    if not isinstance(entries, list) or not all(
        isinstance(row, list) and all(type(v) in (int, str) for v in row) for row in entries
    ):
        raise ValueError(f"{path}: metric 'entries' must be a list of rows of integers or strings")
    declared = payload.get("n")
    if declared is not None and type(declared) is not int:
        raise ValueError(f"{path}: metric 'n' must be an integer")
    if declared is not None and declared != len(entries):
        raise ValueError(f"{path}: declared n={declared} but entries have {len(entries)} rows")
    return HermitianMetric(entries)
