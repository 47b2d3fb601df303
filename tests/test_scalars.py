from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qaffine.scalars import QParam, as_scalar, qint, qparam, scalar_str


def test_qint_base_cases(q2):
    assert qint(0, q2) == 0
    assert qint(1, q2) == 1


def test_qint_direct_evaluation(q2):
    # (q^3 - q^-3) / (q - q^-1) computed by hand at q = 2
    oracle = (F(8) - F(1, 8)) / (F(2) - F(1, 2))
    assert oracle == F(21, 4)
    assert qint(3, q2) == F(21, 4)


@pytest.mark.parametrize("n", range(8))
def test_qint_equals_power_sum(n, q2):
    # [n] = q^(n-1) + q^(n-3) + ... + q^(1-n), an independent formula
    assert qint(n, q2) == sum(
        (q2.pow(n - 1 - 2 * k) for k in range(n)), F(0)
    )


def test_qint_negative_index_rejected(q2):
    with pytest.raises(ValueError):
        qint(-1, q2)


@pytest.mark.parametrize("bad", [0, 1, -1, "1", "-1", F(1)])
def test_qparam_rejects_units(bad):
    with pytest.raises(ValueError):
        qparam(bad)


@pytest.mark.parametrize("good", [2, -2, "3/2", F(1, 2), "-5/3"])
def test_qparam_accepts_non_units(good):
    assert QParam(as_scalar(good)).q == as_scalar(good)


def test_qparam_derived_values(q2):
    assert q2.weyl_denominator == F(3, 2)
    assert q2.lowering_denominator == F(9, 2)
    assert q2.pow(-2) == F(1, 4)


def test_as_scalar_parsing():
    assert as_scalar("3/4") == F(3, 4)
    assert as_scalar("-7") == F(-7)
    assert as_scalar(5) == F(5)
    with pytest.raises(ValueError):
        as_scalar("not a number")
    with pytest.raises(ValueError):
        as_scalar("1/0")
    with pytest.raises(TypeError):
        as_scalar(1.5)


def test_as_scalar_string_grammar():
    # strings must read "p" or "p/q"; Fractions and ints pass unchanged
    assert as_scalar(" -3/4\n") == F(-3, 4)
    assert as_scalar("007") == 7
    assert as_scalar(F(1, 3)) == F(1, 3)
    assert as_scalar(10**40) == F(10**40)
    for bad in ["0.5", "1e3", "1_000", "+1", "3 / 4", "1/-2", "-", "/2", ""]:
        with pytest.raises(ValueError, match="not an exact rational"):
            as_scalar(bad)


digits = st.text("0123456789", min_size=1, max_size=400)


@st.composite
def rational_strings(draw):
    """Strings of the "p" or "p/q" form, leading zeros allowed, q nonzero."""
    numerator = draw(st.sampled_from(["", "-"])) + draw(digits)
    denominator = draw(st.none() | digits.filter(lambda text: text.strip("0")))
    return numerator if denominator is None else f"{numerator}/{denominator}"


@given(rational_strings())
@example("-0")
@example("-000/0007")
@example("9" * 4000 + "/" + "0" * 300 + "3")
def test_as_scalar_matches_fraction_on_its_grammar(text):
    assert as_scalar(text) == F(text)


@pytest.mark.parametrize("bad", [
    "\u0663",  # ARABIC-INDIC DIGIT THREE, which Fraction(str) reads as 3
    "\uff11",  # FULLWIDTH DIGIT ONE
    "1/\u0663",
    "7" * 5000,  # past CPython's int-string digit limit
    "1/" + "3" * 5000,
])
def test_as_scalar_refuses_non_ascii_and_overlong_digits(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        as_scalar(bad)


def test_scalar_str_round_trip():
    for s in ["0", "1", "-1", "3/4", "-22/7"]:
        assert scalar_str(as_scalar(s)) == s
