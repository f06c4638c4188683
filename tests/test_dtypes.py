import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from medquery.dtypes import COMPARISON_OPS, Dtype, Iri, TypedLiteral, canonicalize, compare, is_canonical

from oracles import compare_terms


@pytest.mark.parametrize("text,expected", [
    ("7", "7"), ("+7", "7"), ("007", "7"), ("-0", "0"), (" 42 ", "42"), ("3.0", "3"),
    ("+007", "7"), ("-000", "0"), ("7.0", "7"), ("-0070", "-70"),
])
def test_integer_canonicalization(text, expected):
    assert canonicalize(text, Dtype.INTEGER) == expected


def test_integer_canonicalization_has_no_digit_limit():
    # more digits than int() accepts from a string (4,300 by default)
    digits = "9" + "0" * 4999
    assert canonicalize("+000" + digits, Dtype.INTEGER) == digits
    assert canonicalize("-" + digits, Dtype.INTEGER) == "-" + digits
    assert canonicalize(digits + ".000", Dtype.INTEGER) == digits
    assert canonicalize("-" + "0" * 5000, Dtype.INTEGER) == "0"


@pytest.mark.parametrize("text,expected", [
    ("2.50", "2.5"), ("02.5", "2.5"), ("3", "3.0"), (".5", "0.5"),
    ("5.", "5.0"), ("-0.0", "0.0"), ("-2.5", "-2.5"), ("+1.25", "1.25"),
])
def test_decimal_canonicalization(text, expected):
    assert canonicalize(text, Dtype.DECIMAL) == expected


@pytest.mark.parametrize("text,dtype", [
    ("abc", Dtype.INTEGER), ("2.5", Dtype.INTEGER), ("", Dtype.INTEGER),
    ("1e3", Dtype.DECIMAL), ("x", Dtype.BOOLEAN), ("1", Dtype.BOOLEAN),
    ("1\u0662", Dtype.INTEGER), ("1\u0662", Dtype.DECIMAL),
])
def test_rejects_bad_lexicals(text, dtype):
    with pytest.raises(ValueError):
        canonicalize(text, dtype)


@pytest.mark.parametrize("lexical,dtype", [
    ("1\u0662", Dtype.INTEGER), ("1\u0662.0", Dtype.DECIMAL),
])
def test_non_ascii_digits_are_not_canonical(lexical, dtype):
    assert not is_canonical(lexical, dtype)
    with pytest.raises(ValueError):
        TypedLiteral(lexical, dtype)


def test_boolean_case_folding():
    assert canonicalize("True", Dtype.BOOLEAN) == "true"
    assert canonicalize(" FALSE ", Dtype.BOOLEAN) == "false"


@given(st.integers(-10**12, 10**12))
def test_integer_roundtrip(value):
    lex = canonicalize(str(value), Dtype.INTEGER)
    assert is_canonical(lex, Dtype.INTEGER)
    assert int(lex) == value


@given(st.decimals(allow_nan=False, allow_infinity=False, places=4))
def test_decimal_canonical_is_idempotent(value):
    lex = canonicalize(str(value), Dtype.DECIMAL)
    assert is_canonical(lex, Dtype.DECIMAL)
    assert canonicalize(lex, Dtype.DECIMAL) == lex


@given(st.sampled_from([Dtype.INTEGER, Dtype.DECIMAL, Dtype.BOOLEAN]),
       st.from_regex(r" ?[+-]?[0-9]{0,3}\.?[0-9]{0,3} ?|true|True", fullmatch=True))
@example(Dtype.DECIMAL, "-0.0")
@example(Dtype.DECIMAL, "-0")
@example(Dtype.DECIMAL, "+0.0")
@example(Dtype.DECIMAL, "0.0")
@example(Dtype.INTEGER, "-0")
@example(Dtype.INTEGER, "0")
def test_canonical_exactly_when_canonicalize_keeps_the_text(dtype, text):
    try:
        kept = canonicalize(text, dtype) == text
    except ValueError:
        kept = False
    assert is_canonical(text, dtype) is kept


def test_numeric_compare_crosses_integer_and_decimal():
    assert compare("=", TypedLiteral("2", Dtype.INTEGER), TypedLiteral("2.0", Dtype.DECIMAL)) is True
    assert compare("<", TypedLiteral("2", Dtype.INTEGER), TypedLiteral("2.5", Dtype.DECIMAL)) is True
    assert compare(">", TypedLiteral("-1", Dtype.INTEGER), TypedLiteral("0.5", Dtype.DECIMAL)) is False


def _random_value(rng: random.Random) -> tuple[int, int]:
    """``(units, places)`` standing for units / 10**places, with 1 to 45 digits."""
    units = rng.randrange(10 ** rng.randint(1, 45)) * rng.choice((-1, 1))
    return units, 0 if rng.random() < 0.4 else rng.randint(1, 20)


def _lexical(rng: random.Random, units: int, places: int) -> TypedLiteral:
    """Canonical literal of units / 10**places; an integral value may be either dtype."""
    whole, frac = divmod(abs(units), 10 ** places)
    sign = "-" if units < 0 else ""
    if frac:
        text = canonicalize(f"{sign}{whole}.{frac:0{places}d}", Dtype.DECIMAL)
        return TypedLiteral(text, Dtype.DECIMAL)
    dtype = rng.choice((Dtype.INTEGER, Dtype.DECIMAL))
    return TypedLiteral(canonicalize(f"{sign}{whole}", dtype), dtype)


def _numeric_pair(rng: random.Random) -> tuple[TypedLiteral, TypedLiteral]:
    units, places = _random_value(rng)
    kind = rng.randrange(3)
    if kind == 0:  # unrelated values
        other = _random_value(rng)
    elif kind == 1:  # one unit apart in the last place: rounding to fewer digits merges them
        other = units + rng.choice((-1, 1)), places
    else:  # the same value written with more places, often across dtypes
        extra = rng.randint(0, 3)
        other = units * 10 ** extra, places + extra
    pair = [_lexical(rng, units, places), _lexical(rng, *other)]
    rng.shuffle(pair)
    return pair[0], pair[1]


def test_numeric_compare_agrees_with_exact_reference():
    rng = random.Random(7)
    pairs = [(TypedLiteral("3", Dtype.INTEGER), TypedLiteral("3.0", Dtype.DECIMAL))]
    pairs += [_numeric_pair(rng) for _ in range(3000)]
    for a, b in pairs:
        for op in COMPARISON_OPS:
            assert compare(op, a, b) == \
                compare_terms(op, a, b), (a, op, b)


def test_string_compare_is_codepoint_order():
    assert compare("<", TypedLiteral("B", Dtype.STRING), TypedLiteral("a", Dtype.STRING)) is True


def test_cross_type_is_incomparable():
    assert compare("=", TypedLiteral("2", Dtype.INTEGER), TypedLiteral("2", Dtype.STRING)) is None
    assert compare("<", TypedLiteral("true", Dtype.BOOLEAN), TypedLiteral("false", Dtype.BOOLEAN)) is None
    assert compare("=", TypedLiteral("true", Dtype.BOOLEAN), TypedLiteral("true", Dtype.BOOLEAN)) is True


_OPERANDS = [
    None, Iri("http://x/s"), Iri("http://x/t"),
    *(TypedLiteral(text, Dtype.INTEGER) for text in ("-2", "0", "3", "10")),
    *(TypedLiteral(text, Dtype.DECIMAL) for text in ("-2.5", "0.0", "3.0", "9.75")),
    *(TypedLiteral(text, Dtype.STRING) for text in ("", "3", "10", "B", "a", "true")),
    *(TypedLiteral(text, Dtype.BOOLEAN) for text in ("true", "false")),
]


def test_compare_agrees_with_the_oracle_on_every_kind_of_operand():
    """Each ordered pair of literals of the four dtypes, IRIs and missing cells, under each operator."""
    verdicts = set()
    for a, b in itertools.product(_OPERANDS, repeat=2):
        for op in COMPARISON_OPS:
            verdict = compare(op, a, b)
            assert verdict == compare_terms(op, a, b), (a, op, b)
            verdicts.add(verdict)
    assert verdicts == {True, False, None}


@pytest.mark.parametrize("term", [Iri("http://x/s"), TypedLiteral("7", Dtype.INTEGER)], ids=["iri", "literal"])
def test_a_term_is_frozen_and_keeps_no_instance_dict(term):
    # a store holds a term per cell: slots keep each one small
    assert not hasattr(term, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(term, type(term).__slots__[0], "other")
