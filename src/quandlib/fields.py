"""Exact ground fields: the rationals and prime fields GF(p).

Scalars are plain Python values -- ``fractions.Fraction`` over the rationals
and canonical residues (ints in ``[0, p)``) over GF(p).  A ``FieldSpec``
bundles the arithmetic so that the linear algebra kernels stay generic.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]

_PRIME_BOUND = 2**31


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin to bases 2, 3, 5 and 7.

    No composite below 3,215,031,751 is a strong pseudoprime to all four
    bases (Jaeschke 1993), so the test is exact below ``_PRIME_BOUND``.
    """
    if p < 2:
        return False
    for b in (2, 3, 5, 7):
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (``p is None``) or the prime field GF(p).

    The modulus is validated at construction; only primes below 2**31 are
    accepted.  Instances are immutable and hashable, so they can key caches
    and travel freely between threads.
    """

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not (2 <= self.p < _PRIME_BOUND):
                raise ValueError(f"modulus out of range: {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"modulus is not prime: {self.p}")

    # -- structure ---------------------------------------------------------

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    def __repr__(self) -> str:
        return f"FieldSpec({self.name})"

    # -- scalar construction ------------------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def from_int(self, k: int) -> Scalar:
        return Fraction(k) if self.p is None else k % self.p

    def coerce(self, value: Scalar | int | str) -> Scalar:
        """Normalize ``value`` into this field (residue range / lowest terms).

        Floats are rejected: nothing in this library ever rounds.
        """
        if isinstance(value, float):
            raise TypeError("floating-point values are not accepted; use int, Fraction or text")
        if isinstance(value, str):
            return self.parse(value)
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator vanishes in GF({self.p})")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- text form -----------------------------------------------------------

    def format(self, value: Scalar) -> str:
        """Canonical text form: ``"num/den"`` or ``"num"`` over Q, residue over GF(p)."""
        return str(value)

    def parse(self, text: str) -> Scalar:
        text = text.strip()
        if self.p is None:
            return Fraction(text)
        if "/" in text:
            num, den = text.split("/", 1)
            return self.coerce(Fraction(int(num), int(den)))
        return int(text) % self.p

    @staticmethod
    def from_name(name: str) -> "FieldSpec":
        """Parse ``"Q"`` or ``"GF(p)"`` (a bare integer is read as a modulus).

        p is written in ASCII digits, with an optional sign inside ``GF(…)``.
        """
        text = name.strip()
        if text in ("Q", "QQ", "rationals"):
            return RATIONALS
        digits = text
        if text.upper().startswith("GF(") and text.endswith(")"):
            text = text[3:-1].strip()
            digits = text[1:] if text.startswith(("+", "-")) else text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"unknown field name: {name!r}")
        return FieldSpec(int(text))


RATIONALS = FieldSpec()


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
