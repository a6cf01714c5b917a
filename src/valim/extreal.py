"""Exact extended non-negative rationals, the value domain for valuations.

Arithmetic is exact (stdlib Fraction underneath) with a single extra point
at infinity.  Addition saturates; subtraction and multiplication are
partial on purpose: ``inf - inf``, negative differences and products with
an infinite operand raise ArithmeticError instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ExtRat", "ZERO", "ONE", "INF", "way_below", "sup_of", "inf_of"]

_INF_STRINGS = ("inf", "oo", "infinity")


class ExtRat:
    """A non-negative rational, or infinity.  Immutable and hashable."""

    __slots__ = ("frac",)

    frac: Fraction | None  # None encodes infinity

    def __init__(self, value=0, den=None):
        if isinstance(value, ExtRat):
            frac = value.frac
        elif isinstance(value, str):
            s = value.strip()
            frac = None if s in _INF_STRINGS else Fraction(s)
        elif value is None:
            frac = None
        elif den is not None:
            frac = Fraction(value, den)
        else:
            frac = Fraction(value)
        if frac is not None and frac < 0:
            raise ValueError(f"negative value not allowed: {frac}")
        self.frac = frac

    @classmethod
    def _trusted(cls, frac) -> "ExtRat":
        """A value from a Fraction known to be non-negative, not re-checked."""
        x = object.__new__(cls)
        x.frac = frac
        return x

    @property
    def is_finite(self) -> bool:
        return self.frac is not None

    def __add__(self, other):
        other = _coerce(other)
        if self.frac is None or other.frac is None:
            return INF
        return ExtRat(self.frac + other.frac)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other.frac is None:
            raise ArithmeticError("cannot subtract infinity")
        if self.frac is None:
            return INF
        if self.frac < other.frac:
            raise ArithmeticError(f"negative difference: {self} - {other}")
        return ExtRat(self.frac - other.frac)

    def __mul__(self, other):
        other = _coerce(other)
        if self.frac is None or other.frac is None:
            # no 0 * inf convention; multiplication stays finite-only
            raise ArithmeticError("multiplication by infinity is not defined")
        return ExtRat(self.frac * other.frac)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (ExtRat, int, str, Fraction)):
            return NotImplemented
        return self.frac == _coerce(other).frac

    def __lt__(self, other):
        other = _coerce(other)
        if self.frac is None:
            return False
        if other.frac is None:
            return True
        return self.frac < other.frac

    def __le__(self, other):
        other = _coerce(other)
        return self == other or self < other

    def __gt__(self, other):
        return _coerce(other) < self

    def __ge__(self, other):
        return _coerce(other) <= self

    def __hash__(self):
        # from the integers, not Fraction's pure-Python hash, and read from
        # its slots, not through its properties: valuation tables key dicts
        # and sets by value; 1/0 stands for infinity
        f = self.frac
        return hash((1, 0) if f is None else (f._numerator, f._denominator))

    def __bool__(self):
        return self.frac != 0

    def __str__(self):
        if self.frac is None:
            return "inf"
        if self.frac.denominator == 1:
            return str(self.frac.numerator)
        return f"{self.frac.numerator}/{self.frac.denominator}"

    def __repr__(self):
        return f"ExtRat({str(self)!r})"


def _coerce(value) -> ExtRat:
    return value if isinstance(value, ExtRat) else ExtRat(value)


ZERO = ExtRat(0)
ONE = ExtRat(1)
INF = ExtRat(None)


def way_below(r, s) -> bool:
    """The way-below relation on this domain: r is way below s iff r == 0 or r < s."""
    r, s = _coerce(r), _coerce(s)
    return r == ZERO or r < s


def sup_of(values) -> ExtRat:
    vals = [_coerce(v) for v in values]
    if not vals:
        raise ValueError("sup of an empty collection")
    top = vals[0]
    for v in vals[1:]:
        if top < v:
            top = v
    return top


def inf_of(values) -> ExtRat:
    vals = [_coerce(v) for v in values]
    if not vals:
        raise ValueError("inf of an empty collection")
    bot = vals[0]
    for v in vals[1:]:
        if v < bot:
            bot = v
    return bot
