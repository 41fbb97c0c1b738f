"""Exact rational parsing and formatting.

All quantities cross module and file boundaries as exact rationals
("p/q" strings, decimal strings, or ints). Binary floats are rejected
outright: verdicts must not depend on rounding.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import BadParams

# Most digits in a numerator or denominator: str() of a longer int raises,
# so a report could not print it. A longer decimal exponent is refused
# unread, as Fraction builds 10**exponent at a cost that grows faster.
_MAX_DIGITS = 4300
_DIGIT_BOUND = 10**_MAX_DIGITS
_PLAIN = re.compile("-?[0-9]+(?:/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """Convert ``"p/q"``, ``"0.25"``, an int, or a Fraction to a Fraction
    with at most 4300 digits in its numerator and in its denominator."""
    if isinstance(value, str):
        text = value.strip()
        # Strings go first: isinstance(_, Fraction) is a slow ABC check.
        if pair := plain_pair(text):
            return Fraction(*pair)
        try:
            _, e, exponent = text.replace("E", "e").rpartition("e")
            if e and abs(int(exponent)) > _MAX_DIGITS:
                raise BadParams(f"exponent of {value!r} exceeds {_MAX_DIGITS} in magnitude")
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(f"cannot parse rational {value!r}") from exc
    elif isinstance(value, Fraction):
        q = value
    elif isinstance(value, bool):
        raise BadParams(f"not a rational: {value!r}")
    elif isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, float):
        raise BadParams("floating point rejected; pass a 'p/q' or decimal string")
    else:
        raise BadParams(f"not a rational: {value!r}")
    if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
        raise BadParams(f"a numerator or denominator exceeds {_MAX_DIGITS} digits")
    return q


def plain_texts(texts) -> bool:
    """Whether each of ``texts`` is plain: ``"[-]digits"`` or
    ``"[-]digits/digits"`` in ASCII digits, of at most 4300 characters.
    Such a text needs neither Fraction's regex nor the digit bound:
    reducing only shortens it. Its denominator may still be 0."""
    return max(map(len, texts), default=0) <= _MAX_DIGITS and all(map(_PLAIN.fullmatch, texts))


def plain_pair(text: str) -> tuple[int, int] | None:
    """The reduced (numerator, denominator) of a plain text (``plain_texts``)
    whose denominator is not 0, else None."""
    if not plain_texts((text,)):
        return None
    num, _, den = text.partition("/")
    p, q = int(num), int(den or 1)
    if not q:
        return None
    g = gcd(p, q)
    return p // g, q // g


def _is_ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_nonnegative(value) -> Fraction:
    q = parse_rational(value)
    if q < 0:
        raise BadParams(f"expected a nonnegative rational, got {q}")
    return q


def check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` when it is an int (not a bool) within [lo, hi], where None
    is an open bound; otherwise BadParams, naming the range if bounded."""
    if isinstance(value, int) and not isinstance(value, bool):
        if (lo is None or lo <= value) and (hi is None or value <= hi):
            return value
    elif lo is None and hi is None:
        raise BadParams(f"{name} must be an integer, got {value!r}")
    allowed = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in {lo}..{hi}"
    raise BadParams(f"{name} out of range: {value!r} is not an integer {allowed}")


def parse_int(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``check_int`` of ``value``, where a str must be at most 4300 plain
    ASCII digits with at most one leading sign and stands for their int."""
    if isinstance(value, str):
        digits = value[1:] if value[:1] in ("+", "-") else value
        if not _is_ascii_digits(digits) or len(digits) > _MAX_DIGITS:
            raise BadParams(
                f"{name}: expected an integer of at most {_MAX_DIGITS} digits, got {value!r}"
            )
        value = int(value)
    return check_int(name, value, lo, hi)


def check_collection(name: str, value) -> tuple:
    """The items of ``value`` as a tuple; BadParams for a str or a non-iterable."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise BadParams(f"{name} must be a collection, got {value!r}")


def format_rational(q: Fraction) -> str:
    return str(q)
