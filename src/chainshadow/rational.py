"""Exact rational parsing and formatting.

All quantities cross module and file boundaries as exact rationals
("p/q" strings, decimal strings, or ints). Binary floats are rejected
outright: verdicts must not depend on rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParams

# Largest decimal exponent accepted (int()'s digit limit): Fraction builds
# 10**exponent at a cost that grows faster than the exponent.
_MAX_EXPONENT = 4300


def parse_rational(value) -> Fraction:
    """Convert ``"p/q"``, ``"0.25"``, an int, or a Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise BadParams(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise BadParams("floating point rejected; pass a 'p/q' or decimal string")
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        try:
            # Plain "[-]digits" and "[-]digits/digits" skip Fraction's regex.
            if _is_ascii_digits(num.removeprefix("-")) and (
                not slash or _is_ascii_digits(den)
            ):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            _, e, exponent = text.replace("E", "e").rpartition("e")
            if e and abs(int(exponent)) > _MAX_EXPONENT:
                raise BadParams(f"exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(f"cannot parse rational {value!r}") from exc
    raise BadParams(f"not a rational: {value!r}")


def _is_ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_nonnegative(value) -> Fraction:
    q = parse_rational(value)
    if q < 0:
        raise BadParams(f"expected a nonnegative rational, got {q}")
    return q


def format_rational(q: Fraction) -> str:
    return str(q)
