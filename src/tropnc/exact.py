"""Exact rational scalars and small dense linear algebra.

Everything in this package computes with `fractions.Fraction`; floats are
rejected at the boundary so no rounding can leak in.  The linear algebra
here is plain Gaussian elimination on small matrices (fan decompositions
are at most a few dozen rows), kept dependency-free on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class InvariantError(RuntimeError):
    """A mathematical invariant the code relies on does not hold.

    Raised explicitly instead of by `assert`, so that the check survives
    `python -O`; it signals a bug or a broken input table, not bad data.
    """


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to Fraction; refuse floats."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_fraction(value: Rational) -> str:
    """Render a rational as "p/q" (or "p" when the denominator is 1)."""
    return str(Fraction(value))


def vector(values: Iterable[Rational]) -> list[Fraction]:
    return [as_fraction(v) for v in values]


def _pivot_row(rows: list[list[Fraction]], col: int, start: int) -> int | None:
    for r in range(start, len(rows)):
        if rows[r][col] != 0:
            return r
    return None


def det(matrix: Sequence[Sequence[Rational]]) -> Fraction:
    """Determinant of a square matrix, by fraction-exact elimination."""
    m = [[as_fraction(v) for v in row] for row in matrix]
    size = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(size):
        pivot = _pivot_row(m, col, col)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return sign * result


def solve(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction] | None:
    """Solve a square system exactly; None when the matrix is singular."""
    size = len(matrix)
    aug = [[as_fraction(v) for v in row] + [as_fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = _pivot_row(aug, col, col)
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def inverse(matrix: Sequence[Sequence[Rational]]) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix; None when singular."""
    size = len(matrix)
    aug = [
        [as_fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = _pivot_row(aug, col, col)
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]
