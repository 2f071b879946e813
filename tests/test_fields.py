from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from quandlib.fields import _PRIME_BOUND, GF, RATIONALS, FieldSpec, _is_prime


def test_characteristics():
    assert RATIONALS.characteristic == 0
    assert GF(2).characteristic == 2
    assert GF(5).characteristic == 5


def test_prime_validation():
    for p in (2, 3, 5, 7, 31, 2147483647):  # 2^31 - 1 is prime
        GF(p)
    for bad in (0, 1, 4, 6, 9, 1001, 2**31):
        with pytest.raises(ValueError):
            GF(bad)


def _by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def test_primality_matches_trial_division():
    assert all(_is_prime(k) == _by_trial_division(k) for k in range(200_000))


def test_primality_on_strong_pseudoprimes_and_large_moduli():
    # 2047, 1373653 and 25326001 are the least strong pseudoprimes to the
    # bases {2}, {2, 3} and {2, 3, 5}.
    for k in (2047, 1373653, 25326001):
        assert not _by_trial_division(k) and not _is_prime(k)
    for p in (2147483647, 2147483629, 2147483587, 2147483579, 2**31 - 3):
        assert _is_prime(p) == _by_trial_division(p)
    # The least strong pseudoprime to bases 2, 3, 5 and 7 lies above the bound.
    assert _PRIME_BOUND < 3215031751 and _is_prime(3215031751)
    assert not _by_trial_division(3215031751)


def test_field_name_parsing():
    assert FieldSpec.from_name("Q") == RATIONALS
    assert FieldSpec.from_name("GF(3)") == GF(3)
    assert FieldSpec.from_name("7") == GF(7)
    with pytest.raises(ValueError):
        FieldSpec.from_name("R")
    for name in ("GF(x)", "GF()"):
        with pytest.raises(ValueError) as exc:
            FieldSpec.from_name(name)
        assert str(exc.value) == f"unknown field name: {name!r}"


def test_field_name_modulus_is_ascii_digits():
    assert FieldSpec.from_name("GF(+3)") == GF(3)
    assert FieldSpec.from_name("GF( 5 )") == GF(5)
    with pytest.raises(ValueError, match="modulus out of range: -3"):
        FieldSpec.from_name("GF(-3)")
    # int() would read digit separators and non-ASCII digits.
    for name in ("GF(1_1)", "1_1", "\u0663", "GF(\u0663)", "GF(\u00b3)", "+7", "GF(+)"):
        with pytest.raises(ValueError) as exc:
            FieldSpec.from_name(name)
        assert str(exc.value) == f"unknown field name: {name!r}"


def test_rational_scalars_stay_reduced():
    f = RATIONALS
    v = f.coerce("6/4")
    assert v == Fraction(3, 2)
    assert v.denominator == 2
    assert f.div(f.from_int(1), f.from_int(3)) == Fraction(1, 3)


def test_residues_canonical():
    f = GF(5)
    assert f.coerce(-1) == 4
    assert f.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f.parse("7/3") == f.div(f.from_int(7), f.from_int(3))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_exhaustive(p):
    """Full check of the field axioms on every pair/triple of GF(p)."""
    f = GF(p)
    elems = list(range(p))
    for a, b in product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in product(elems, repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    for a in elems[1:]:
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(Fraction(0))


def test_format_round_trip():
    f = RATIONALS
    for text in ("3/4", "-7", "0", "22/7"):
        assert f.format(f.parse(text)) == str(Fraction(text))
    g = GF(7)
    assert g.format(g.parse("12")) == "5"


def test_floats_rejected_everywhere():
    with pytest.raises(TypeError):
        RATIONALS.coerce(0.5)
    with pytest.raises(TypeError):
        GF(3).coerce(1.0)
