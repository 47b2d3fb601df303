"""Exact scalar arithmetic for the working field.

The working field is the rationals, represented by :class:`fractions.Fraction`
(always reduced, positive denominator, arbitrary precision). The deformation
parameter q is wrapped in :class:`QParam`, which rejects values that are roots
of unity in Q, namely 0, 1 and -1. Everything downstream assumes q is fixed
for a session.

The module is written so that a richer coefficient field (for instance,
rational functions in a formal q) could replace ``Scalar`` later: all other
modules construct scalars exclusively through :func:`as_scalar`, ``QParam``
powers and :func:`qint`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# The "p" or "p/q" string form; anything else Fraction(str) would take (decimals,
# exponents, underscores) is refused, so a short string cannot encode a huge
# number. CPython's int-string digit limit caps long digit runs.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a "p" or "p/q" string or a Fraction to an exact Scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"not an exact rational: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")


def scalar_str(value: Fraction) -> str:
    """Canonical "p" or "p/q" rendering; inverse of :func:`as_scalar`."""
    return str(value)


@dataclass(frozen=True)
class QParam:
    """The fixed deformation parameter q.

    A rational q with |q| not in {0, 1} is never a root of unity, which is the
    standing hypothesis all constructions here rely on.
    """

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", as_scalar(self.q))
        if self.q == 0 or self.q == 1 or self.q == -1:
            raise ValueError(f"q must not be 0, 1 or -1 (got {self.q})")

    def pow(self, n: int) -> Fraction:
        """q**n for any integer n, exactly."""
        return self.q ** n

    @property
    def weyl_denominator(self) -> Fraction:
        """q - q^-1, the denominator of the bracket and Weyl-type identities."""
        return self.q - 1 / self.q

    @property
    def lowering_denominator(self) -> Fraction:
        """q(q - q^-1)^2, the normalizer used to build lowering operators."""
        return self.q * self.weyl_denominator ** 2


def qparam(value: int | str | Fraction) -> QParam:
    return QParam(as_scalar(value))


def qint(n: int, q: QParam) -> Fraction:
    """The symmetric q-integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n < 0:
        raise ValueError(f"q-integer index must be nonnegative (got {n})")
    return (q.pow(n) - q.pow(-n)) / q.weyl_denominator
