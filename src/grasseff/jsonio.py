"""Canonical JSON helpers: sorted keys, exact rationals as strings."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from grasseff.errors import InputError

# the longest integer Python reads from text by default
MAX_DIGITS = sys.int_info.default_max_str_digits


def frac_str(x) -> str:
    """Normalized rational string: 'p' for integers, 'p/q' with q > 0 otherwise."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_frac(s) -> Fraction:
    """Exact rational from an int, a Fraction or text like '3/4' or '0.5'.

    Raises InputError on malformed text, on a zero denominator, on a bool,
    which is an int to Python but not a coordinate, on a float, whose
    digits were already rounded to a double when the JSON was read, and on
    decimal text whose exponent expands to more digits than Python reads
    from text (`sys.int_info.default_max_str_digits`); Fraction would spend
    seconds to minutes writing that integer out.
    """
    if isinstance(s, bool):
        raise InputError("boolean %r is not a rational" % (s,))
    if isinstance(s, float):
        raise InputError("float %r may have been rounded; write an integer or a string "
                         "such as \"1/3\" or \"0.5\"" % (s,))
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    text = str(s)
    try:
        value = Fraction(text) if _expanded_digits(text) <= MAX_DIGITS else None
    except ZeroDivisionError:
        raise InputError("zero denominator in %r" % (s,)) from None
    except ValueError:
        raise InputError("%r is not a rational" % (s,)) from None
    if value is None:
        raise InputError("%r expands to an integer of more than %d digits" % (s, MAX_DIGITS))
    return value


def _expanded_digits(text: str) -> int:
    """Mantissa digits plus |exponent| (0 without one): about what Fraction writes out."""
    mantissa, _, exponent = text.lower().partition("e")
    return sum(ch.isdigit() for ch in mantissa) + abs(int(exponent)) if exponent else 0


def jsonable(obj):
    """Recursively convert to plain JSON types; Fractions become strings."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "to_json"):
        return jsonable(obj.to_json())
    return obj


def canonical_dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
