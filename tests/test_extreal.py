from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valim import ExtRat, way_below
from valim.extreal import INF, ONE, ZERO, inf_of, sup_of

rationals = st.fractions(min_value=0, max_value=1000)
extrats = st.one_of(rationals.map(ExtRat), st.just(INF))


def test_construction_forms():
    assert ExtRat(3) == ExtRat(Fraction(3))
    assert ExtRat(1, 2) == ExtRat(Fraction(1, 2))
    assert ExtRat("2/7") == ExtRat(Fraction(2, 7))
    assert ExtRat("inf") == INF
    assert ExtRat(None) == INF
    assert ExtRat(ExtRat(5)) == ExtRat(5)


def test_negative_rejected():
    with pytest.raises(ValueError):
        ExtRat(-1)
    with pytest.raises(ValueError):
        ExtRat(Fraction(-1, 3))


def test_infinity_arithmetic():
    assert INF + ONE == INF
    assert ONE + INF == INF
    assert INF - ONE == INF
    with pytest.raises(ArithmeticError):
        INF * ExtRat(2)  # no conventions, not even for nonzero factors
    with pytest.raises(ArithmeticError):
        INF - INF
    with pytest.raises(ArithmeticError):
        ONE - ExtRat(2)  # would go negative


def test_ordering():
    assert ZERO < ONE < INF
    assert not INF < INF
    assert INF <= INF
    assert max(ZERO, INF) == INF


@given(extrats, extrats)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(extrats, extrats, extrats)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(extrats, extrats)
def test_subtraction_inverts_addition(a, b):
    # a + b - b == a whenever the subtraction is defined
    if b.is_finite:
        assert (a + b) - b == a


@given(rationals, rationals)
def test_way_below_on_finite(r, s):
    a, b = ExtRat(r), ExtRat(s)
    assert way_below(a, b) == (r == 0 or r < s)


def test_way_below_zero_and_infinity():
    assert way_below(ZERO, ZERO)
    assert way_below(ZERO, INF)
    assert way_below(ONE, INF)
    assert not way_below(INF, INF)
    assert not way_below(ONE, ONE)


@given(st.lists(extrats, min_size=1))
def test_sup_inf_bounds(values):
    lo, hi = inf_of(values), sup_of(values)
    assert all(lo <= v <= hi for v in values)
    assert lo in values and hi in values


def test_sup_of_empty_rejected():
    with pytest.raises(ValueError):
        sup_of([])


def test_hashable_and_str():
    assert len({ZERO, ExtRat(0), ONE}) == 2
    assert len({INF, ExtRat("inf"), ONE, ExtRat(2, 2)}) == 2
    assert hash(ExtRat(Fraction(6, 4))) == hash(ExtRat(3, 2))
    assert str(ExtRat(1, 3)) == "1/3"
    assert str(INF) == "inf"


@given(rationals, st.integers(min_value=1, max_value=50))
def test_equal_values_hash_equal(q, k):
    # one value built every way the library builds it, including from a
    # numerator and denominator not in lowest terms; the hash is the
    # (numerator, denominator) pair's in lowest terms, 1/0 for infinity
    forms = [ExtRat(q), ExtRat(q.numerator * k, q.denominator * k),
             ExtRat(str(q)), ExtRat._trusted(Fraction(q)), ExtRat(ExtRat(q))]
    assert len({hash(x) for x in forms}) == 1
    assert hash(forms[0]) == hash((q.numerator, q.denominator))
    infinite = [INF, ExtRat("inf"), ExtRat(None), ExtRat(INF)]
    assert {hash(x) for x in infinite} == {hash((1, 0))}


@given(rationals)
def test_trusted_construction_matches_the_public_one(q):
    x = ExtRat._trusted(q)
    assert type(x) is ExtRat
    assert x == ExtRat(q) and hash(x) == hash(ExtRat(q))
    assert repr(x) == repr(ExtRat(q))
