"""Exact rational scalars, for the few places a division can leave a fraction.

Everything in this library is exact.  Most quantities are Python ints:
polynomial coefficients, degrees, weights and Euler characteristics stay
int under + - * and integer powers.  `Rat` is used only where a division
happens (interpolation, the binomial-basis inverse, "p/q" input, the final
division of a graded sum, reference paths).  Ints and Rats mix freely as
coefficients because an integral Rat compares and hashes equal to the int of
the same value, as Python's numeric tower requires of Fraction (untested for
gmpy2's mpq).  gmpy2's mpq is used when available (it is much faster than
fractions.Fraction); the stdlib Fraction is a drop-in fallback.  No float
ever enters or leaves this module.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _mpq


def Rat(num=0, den=1):
    return _mpq(num, den)


def is_integral(x) -> bool:
    """True if the exact rational x has denominator 1."""
    if isinstance(x, int):
        return True
    return x.denominator == 1


def as_int(x) -> int:
    """Convert an exact rational known to be integral into a python int."""
    if isinstance(x, int):
        return x
    if x.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return int(x.numerator)


def rat_str(x) -> str:
    """Canonical decimal string, 'p' or 'p/q' with q > 0."""
    if isinstance(x, int):
        return str(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str):
    """Inverse of rat_str: an int for 'p', a Rat for 'p/q'."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Rat(int(num), int(den))
    return int(s)
