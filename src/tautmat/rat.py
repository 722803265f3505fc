"""Exact rational scalars, for the few places a division can leave a fraction.

Everything in this library is exact.  Most quantities are Python ints:
polynomial coefficients, degrees, weights and Euler characteristics stay
int under + - * and integer powers, and the graded sum ends in one exact
integer division.  `Rat` is the stdlib `fractions.Fraction` and is used only
where a division happens: the binomial-basis inverse `psi_inverse`, which
gives the rational Cameron-Fink polynomial Q_M, "p/q" input, and the public
`interpolate_univariate`.  Ints and Rats mix freely as coefficients because
an integral Fraction compares and hashes equal to the int of the same value.
No float ever enters or leaves this module.
"""

from __future__ import annotations

from fractions import Fraction as Rat


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
