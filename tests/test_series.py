from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcount.graphs import count_bounded_lis
from planarcount.perms import perm_sign
from planarcount.series import (
    RationalSeries,
    bessel_series,
    determinant_cost,
    series_determinant,
)

F = Fraction


def test_bessel_series_order_zero():
    s = bessel_series(0, 4)
    assert dict(s.coefficients) == {0: F(1), 2: F(1), 4: F(1, 4)}


def test_bessel_series_order_one():
    s = bessel_series(1, 3)
    assert dict(s.coefficients) == {1: F(1), 3: F(1, 2)}


def test_bessel_series_support():
    s = bessel_series(2, 9)
    for k in range(10):
        c = s.coefficient(k)
        if (k - 2) % 2 or k < 2:
            assert c == 0
        else:
            j = (k - 2) // 2
            assert c == F(1, factorial(j) * factorial(j + 2))


def test_series_arithmetic():
    a = RationalSeries.from_dict({0: F(1), 1: F(1, 2)}, 3)
    b = RationalSeries.from_dict({1: F(2), 3: F(5)}, 3)
    assert dict((a + b).coefficients) == {0: F(1), 1: F(5, 2), 3: F(5)}
    assert dict((a * b).coefficients) == {1: F(2), 2: F(1), 3: F(5)}
    assert str(RationalSeries.zero(2)) == "0"
    with pytest.raises(ValueError):
        RationalSeries.from_dict({5: F(1)}, 3)


def test_truncation_is_exact_under_products():
    # truncating inputs at M loses nothing below M since degrees only grow
    a_full = bessel_series(0, 12)
    a_cut = bessel_series(0, 6)
    full = dict((a_full * a_full).coefficients)
    cut = dict((a_cut * a_cut).coefficients)
    for deg, c in cut.items():
        assert full[deg] == c


def test_determinant_one_by_one():
    det = series_determinant([[bessel_series(0, 6)]])
    for m in range(4):
        assert det.coefficient(2 * m) == F(1, factorial(m) ** 2)


def test_determinant_two_by_two_coefficient():
    i0 = bessel_series(0, 4)
    i1 = bessel_series(1, 4)
    det = series_determinant([[i0, i1], [i1, i0]])
    assert det.coefficient(4) == F(1, 2)
    assert det.coefficient(4) == F(count_bounded_lis(2, 2), factorial(2) ** 2)


def test_determinant_alternating_signs():
    x = RationalSeries.from_dict({1: F(1)}, 4)
    one = RationalSeries.one(4)
    zero = RationalSeries.zero(4)
    # det [[0, 1], [x, 0]] = -x
    det = series_determinant([[zero, one], [x, zero]])
    assert dict(det.coefficients) == {1: F(-1)}
    with pytest.raises(ValueError):
        series_determinant([[one, one]])


def leibniz_determinant(matrix):
    """Reference: sum over permutations of sign times the diagonal product."""
    size = len(matrix)
    total = RationalSeries.zero(matrix[0][0].truncation)
    for perm in permutations(range(1, size + 1)):
        term = RationalSeries.one(total.truncation)
        for i, j in enumerate(perm):
            term = term * matrix[i][j - 1]
        total = total + (term if perm_sign(perm) == 1 else -term)
    return total


# small coefficients and many zeros: entries with a zero constant term, and
# zero entries, are common
COEFFICIENT = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def series_entries(draw, truncation):
    coeffs = draw(st.lists(COEFFICIENT, min_size=truncation + 1, max_size=truncation + 1))
    return RationalSeries.from_dict(dict(enumerate(coeffs)), truncation)


@st.composite
def series_matrices(draw, sizes=st.integers(1, 5)):
    # entries may differ in truncation; the determinant keeps the smallest
    size = draw(sizes)
    low = draw(st.integers(0, 4))
    entry = st.integers(low, low + 2).flatmap(series_entries)
    return [[draw(entry) for _ in range(size)] for _ in range(size)]


@given(series_matrices())
@settings(max_examples=80, deadline=None)
def test_determinant_matches_leibniz(matrix):
    assert series_determinant(matrix) == leibniz_determinant(matrix)


@given(series_matrices(st.integers(2, 5)), st.data())
@settings(max_examples=40, deadline=None)
def test_row_swap_negates_determinant(matrix, data):
    rows = st.integers(0, len(matrix) - 1)
    i, j = data.draw(st.lists(rows, min_size=2, max_size=2, unique=True))
    swapped = list(matrix)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert series_determinant(swapped) == -series_determinant(matrix)


def test_determinant_cost():
    assert determinant_cost(1, 0) == 1
    assert determinant_cost(8, 14) == 8 * 2**7 * 15**2
