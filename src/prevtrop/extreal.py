"""Extended rational values: Fraction plus a tagged positive infinity.

Tropical evaluations take values in Q together with +oo.  Infinity is a
distinct singleton object, never a sentinel number, so arithmetic mistakes
fail loudly instead of silently producing huge finite values.
"""

from __future__ import annotations

from fractions import Fraction

from .jsondoc import DocumentError


class Infinity:
    """The single point at infinity of the extended value semiring."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    # a + oo = oo for every extended a
    def __add__(self, other):
        if isinstance(other, (int, Fraction, Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("prevtrop.INF")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        if isinstance(other, (int, Fraction)):
            return True
        return other is not self and NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Fraction)) or other is self:
            return True
        return NotImplemented


INF = Infinity()


def is_finite(value):
    return value is not INF


def format_extended(value):
    """Render a Fraction-or-INF as the JSON wire string ("p/q" or "inf")."""
    if value is INF:
        return "inf"
    return str(Fraction(value))


def _json_number(value, what, infinite=True):
    """A document's exact number: a JSON integer, a JSON string Fraction
    reads ("3/2", "-4", "0.25") or, when infinite, "inf" (the inverse of
    format_extended).  Anything else, a JSON float or boolean included, is
    malformed input, a DocumentError naming the field what."""
    if infinite and value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DocumentError("%s must be a JSON string or integer" % what)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise DocumentError("%s must be an exact number, got %r"
                            % (what, value)) from None
