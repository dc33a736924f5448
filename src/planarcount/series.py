"""Truncated power series with exact rational coefficients.

Series support addition, negation, multiplication modulo x^(M+1) and exact
coefficient access.  All coefficients are `fractions.Fraction`, so values
are always in lowest terms with positive denominators.  The determinant of
a matrix of modified Bessel series does not use that arithmetic: it works
on rows scaled to integer coefficient dicts (see `series_determinant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm


@dataclass(frozen=True)
class RationalSeries:
    """Map degree -> coefficient, truncated above degree `truncation`."""

    truncation: int
    coefficients: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation degree must be >= 0")
        degrees = [deg for deg, _ in self.coefficients]
        if len(set(degrees)) != len(degrees):
            raise ValueError("duplicate degrees")
        if any(deg < 0 or deg > self.truncation for deg in degrees):
            raise ValueError("degrees must lie in [0, truncation]")

    @classmethod
    def from_dict(cls, coeffs: dict, truncation: int) -> "RationalSeries":
        items = tuple(
            sorted((deg, Fraction(c)) for deg, c in coeffs.items() if c != 0)
        )
        return cls(truncation=truncation, coefficients=items)

    @classmethod
    def zero(cls, truncation: int) -> "RationalSeries":
        return cls(truncation=truncation, coefficients=())

    @classmethod
    def one(cls, truncation: int) -> "RationalSeries":
        return cls.from_dict({0: Fraction(1)}, truncation)

    def coefficient(self, degree: int) -> Fraction:
        for deg, c in self.coefficients:
            if deg == degree:
                return c
        return Fraction(0)

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        m = min(self.truncation, other.truncation)
        out = {deg: c for deg, c in self.coefficients if deg <= m}
        for deg, c in other.coefficients:
            if deg <= m:
                out[deg] = out.get(deg, Fraction(0)) + c
        return RationalSeries.from_dict(out, m)

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(
            truncation=self.truncation,
            coefficients=tuple((deg, -c) for deg, c in self.coefficients),
        )

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        m = min(self.truncation, other.truncation)
        out: dict[int, Fraction] = {}
        for d1, c1 in self.coefficients:
            if d1 > m:
                continue
            for d2, c2 in other.coefficients:
                deg = d1 + d2
                if deg > m:
                    continue
                out[deg] = out.get(deg, Fraction(0)) + c1 * c2
        return RationalSeries.from_dict(out, m)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for deg, c in self.coefficients:
            if deg == 0:
                parts.append(str(c))
            elif deg == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{deg}")
        return " + ".join(parts)


def bessel_series(nu: int, truncation: int) -> RationalSeries:
    """Truncation of the modified Bessel function I_nu evaluated at 2x:
    sum over j >= 0 of x^(2j+nu) / (j! (j+nu)!)."""
    if nu < 0:
        raise ValueError("order must be >= 0")
    coeffs = {}
    j = 0
    while 2 * j + nu <= truncation:
        coeffs[2 * j + nu] = Fraction(1, factorial(j) * factorial(j + nu))
        j += 1
    return RationalSeries.from_dict(coeffs, truncation)


def determinant_cost(size: int, truncation: int) -> int:
    """Upper bound on the work of `series_determinant` on a size x size
    matrix truncated at degree `truncation`: size * 2**(size-1) series
    products, each at most (truncation+1)**2 coefficient products."""
    return size * 2 ** (size - 1) * (truncation + 1) ** 2


def series_determinant(matrix: list[list[RationalSeries]]) -> RationalSeries:
    """Determinant by Laplace expansion with memoised minors.

    Each row is first scaled by the least common multiple of its
    denominators, so every minor has integer coefficients; the determinant
    of the scaled matrix is divided by the product of those integers once,
    at the end.  Going up from the bottom row, `minors` maps each column
    subset S (a bitmask with size - k columns) to the determinant of rows
    k..size-1 restricted to the columns in S.  Row k-1 extends each S by one
    column j outside it, with sign (-1)^(number of columns in S below j).
    That is size * 2**(size-1) series products in all, against size! for the
    plain cofactor recursion.  No series is ever divided, so the result is
    exact for any entries, including ones with a zero constant term, and
    keeps every coefficient up to the smallest truncation degree.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    if size == 0:
        raise ValueError("empty matrix")
    truncation = min(entry.truncation for row in matrix for entry in row)
    scale = 1
    rows = []
    for row in matrix:
        factor = lcm(*(c.denominator for entry in row for _, c in entry.coefficients))
        scale *= factor
        rows.append(
            [{deg: int(c * factor) for deg, c in entry.coefficients} for entry in row]
        )
    minors = {1 << j: entry for j, entry in enumerate(rows[-1])}
    for row in reversed(rows[:-1]):
        extended: dict[int, dict[int, int]] = {}
        for columns, minor in minors.items():
            below = 0
            for j, entry in enumerate(row):
                bit = 1 << j
                if columns & bit:
                    below += 1
                    continue
                sign = -1 if below % 2 else 1
                out = extended.setdefault(columns | bit, {})
                for d1, c1 in entry.items():
                    for d2, c2 in minor.items():
                        if d1 + d2 <= truncation:
                            out[d1 + d2] = out.get(d1 + d2, 0) + sign * c1 * c2
        minors = extended
    det = minors[(1 << size) - 1]
    return RationalSeries.from_dict(
        {deg: Fraction(c, scale) for deg, c in det.items()}, truncation
    )
