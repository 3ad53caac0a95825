from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mginv.scalars import (FLOAT, RATIONAL, ScalarError, Surd79, agree,
                           backend_of, format_scalar, parse_scalar)


def test_parse_rational_forms():
    assert parse_scalar("1/6") == Fraction(1, 6)
    assert parse_scalar("0.25") == Fraction(1, 4)
    assert parse_scalar(3) == Fraction(3)
    assert parse_scalar(Fraction(2, 7)) == Fraction(2, 7)


def test_parse_float_backend():
    assert parse_scalar("1/4", FLOAT) == 0.25
    assert parse_scalar(0.5, FLOAT) == 0.5


def test_parse_rejects():
    with pytest.raises(ScalarError):
        parse_scalar("abc")
    with pytest.raises(ScalarError):
        parse_scalar(0.1)  # float on the rational backend
    with pytest.raises(ScalarError):
        parse_scalar(True)
    with pytest.raises(ScalarError):
        parse_scalar("1/2", "decimal")


def test_parse_float_out_of_range():
    # beyond float range is an input error, not an OverflowError
    with pytest.raises(ScalarError):
        parse_scalar("1e400", FLOAT)
    with pytest.raises(ScalarError):
        parse_scalar(10 ** 400, FLOAT)


@given(st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)))
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_format_decimals():
    assert format_scalar(Fraction(1, 4), decimals=3) == "0.250"
    assert format_scalar(0.5) == "0.5"


def test_backend_of():
    assert backend_of([Fraction(1), Fraction(2)]) == RATIONAL
    assert backend_of([1.0]) == FLOAT
    assert backend_of([]) == RATIONAL
    with pytest.raises(ScalarError):
        backend_of([Fraction(1), 1.0])


def test_agree():
    assert agree(Fraction(1, 3), Fraction(1, 3), exact=True)
    assert not agree(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), exact=True)
    assert agree(1.0, 1.0 + 1e-12, exact=False)
    assert not agree(1.0, 1.0 + 1e-8, exact=False)


class TestSurd79:
    def test_sign_analysis(self):
        # sqrt(79) is between 8 and 9
        assert Surd79(0, 1) > 8
        assert Surd79(0, 1) < 9
        assert Surd79(-8, 1) > 0
        assert Surd79(-9, 1) < 0
        assert Surd79(9, -1) > 0
        assert Surd79(8, -1) < 0

    def test_t3_value(self):
        t3 = Surd79(Fraction(892, 14580), Fraction(-11, 14580))
        assert float(t3) == pytest.approx(0.054473927, abs=1e-9)
        assert t3 > 0
        assert t3 < Fraction(1, 16)
        assert t3 > Fraction(1, 30)

    def test_arithmetic(self):
        s = Surd79(1, 2)
        assert s + 1 == Surd79(2, 2)
        assert 1 - s == Surd79(0, -2)
        assert 3 * s == Surd79(3, 6)
        assert s * s == Surd79(1 + 4 * 79, 4)
        assert Fraction(1, 2) * s == Surd79(Fraction(1, 2), 1)

    def test_comparison_with_rational(self):
        s = Surd79(0, 1)  # sqrt(79) = 8.888..
        assert s >= Fraction(79, 9)
        assert not s >= Fraction(9)
        assert (s - s).sign() == 0
