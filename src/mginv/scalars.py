"""Scalar backends: exact rationals and binary floats.

Everything in this package is generic over the scalar type. Graphs built with
``fractions.Fraction`` lengths stay in exact arithmetic end to end (equality
is decidable), graphs built with ``float`` lengths run the same code paths in
floating point. Rational coefficients that appear inside formulas are always
written as ``Fraction`` constants, which Python promotes to ``float`` when
they meet a float, so a single implementation serves both backends.

``Surd79`` extends the rational backend with numbers of the form
``a + b*sqrt(79)``, which appear in the genus-3 lower-bound constant. Its
comparisons are decided by the exact sign of ``a*|a| + 79*b*|b|``, never by
floating point.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"
BACKENDS = (RATIONAL, FLOAT)

#: Relative tolerance for cross-formula agreement on the float backend.
REL_TOL = 1e-10

Scalar = Fraction | float


class ScalarError(ValueError):
    """Raised for unparseable or backend-incompatible scalar input."""


#: the largest decimal exponent magnitude ``parse_scalar`` accepts, Python's
#: default limit on the digits of an int converted from or to a string
MAX_EXPONENT = 4300


def _check_exponent(text: str) -> None:
    """Reject a decimal string such as "1e-99999999" before ``Fraction``
    expands its power of ten, which takes time and memory linear in the
    exponent."""
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
        raise ScalarError(f"exponent of {text[:40]!r} beyond +-{MAX_EXPONENT}")


def parse_scalar(value, backend: str = RATIONAL) -> Scalar:
    """Parse a scalar given as ``"a/b"``, a decimal string, an int or a float.

    A decimal string with an exponent beyond +-MAX_EXPONENT is rejected
    before any arithmetic.

    On the rational backend floats are rejected (their binary expansion is
    almost never what the caller meant); pass a string or a Fraction instead.
    """
    if backend not in BACKENDS:
        raise ScalarError(f"unknown backend {backend!r}")
    if isinstance(value, bool):
        raise ScalarError(f"not a scalar: {value!r}")
    if isinstance(value, str):
        _check_exponent(value)
    if backend == RATIONAL:
        if isinstance(value, float):
            raise ScalarError(
                f"float {value!r} on the rational backend; pass a string like "
                f"{str(value)!r} or a Fraction"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ScalarError(f"cannot parse {value!r} as a rational") from exc
    try:
        if isinstance(value, str):
            return float(Fraction(value))
        return float(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ScalarError(f"cannot parse {value!r} as a float") from exc


def format_scalar(x, decimals: int | None = None) -> str:
    """Render a scalar for JSON/CSV: rationals as ``a/b``, floats round-trip.

    ``decimals`` forces a fixed-point decimal rendering instead.
    """
    if decimals is not None:
        return f"{float(x):.{decimals}f}"
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def zero(backend: str) -> Scalar:
    """The backend's own zero, where its sums start: an empty sum keeps the
    backend's type, and a float sum over floats is the same bit for bit."""
    return 0.0 if backend == FLOAT else Fraction(0)


def backend_of(values) -> str:
    """Infer the backend from a collection of scalars (mixed input is an error)."""
    kinds = {FLOAT if isinstance(x, float) else RATIONAL for x in values}
    if len(kinds) > 1:
        raise ScalarError("mixed float and rational scalars in one graph")
    return kinds.pop() if kinds else RATIONAL


def close(a, b, rel: float = REL_TOL) -> bool:
    """Relative agreement test used on the float backend."""
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= rel * max(1.0, abs(fa), abs(fb))


def agree(a, b, exact: bool, rel: float = REL_TOL) -> bool:
    """Exact equality on the rational backend, relative closeness on floats."""
    if exact:
        return a == b
    return close(a, b, rel)


class Surd79:
    """Exact number ``a + b*sqrt(79)`` with rational ``a``, ``b``.

    Supports the arithmetic the bound suite needs (addition, subtraction,
    scaling by rationals) plus exact order comparisons against rationals and
    other ``Surd79`` values.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    def _coerce(self, other):
        if isinstance(other, Surd79):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd79(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Surd79(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Surd79(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Surd79(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Surd79(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Surd79(self.a * other, self.b * other)
        if isinstance(other, Surd79):
            return Surd79(self.a * other.a + 79 * self.b * other.b,
                          self.a * other.b + self.b * other.a)
        return NotImplemented

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign of ``a + b*sqrt(79)``, the sign of a|a| + 79 b|b|:
        x -> x|x| is increasing, so a > -b sqrt(79) exactly when
        a|a| > -79 b|b|. sqrt(79) is irrational, so zero occurs only at
        a == b == 0."""
        s = self.a * abs(self.a) + 79 * self.b * abs(self.b)
        return (s > 0) - (s < 0)

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, float):
                # float comparisons go through the approximate value
                diff = float(self) - other
                return (diff > 0) - (diff < 0)
            return NotImplemented
        return (self - o).sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, 79))

    def __float__(self):
        return float(self.a) + float(self.b) * 8.888194417315589  # sqrt(79)

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}{'+' if self.b >= 0 else ''}{self.b}*sqrt(79)"
