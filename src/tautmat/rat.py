"""Exact rational scalars.

Everything in this library is exact: integers, or rationals with arbitrary
precision.  gmpy2's mpq is used when available (it is much faster than
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


RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


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
    """Inverse of rat_str."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Rat(int(num), int(den))
    return Rat(int(s))
