import random

import pytest
from hypothesis import example, given, settings, strategies as st

from selogic.errors import ParseError, UnknownLabel
from selogic.formulas import Atom, Bang, NegAtom, Qm, Sequent, Tensor
from selogic.generators import random_formula, random_signature
from selogic.parsing import (
    parse_formula,
    parse_sequent,
    parse_signature,
    print_formula,
    print_sequent,
    print_signature,
    tokenize,
)

PINNED = [
    "x",
    "~x",
    "1",
    "bot",
    "0",
    "top",
    "(x * ~y)",
    "((x | y) & (1 + 0))",
    "!u (x * x)",
    "?inf ~x",
    "!u ?v x",
    "(?u x | !v ~y)",
]


@pytest.mark.parametrize("text", PINNED)
def test_print_parse_identity_on_pinned_strings(text):
    f = parse_formula(text)
    assert print_formula(f) == text
    assert parse_formula(print_formula(f)) == f


def test_whitespace_is_free():
    assert parse_formula("( x *\n  ~y )") == Tensor(Atom("x"), NegAtom("y"))
    assert parse_formula("!u\n\n x") == Bang("u", Atom("x"))


@given(st.integers(0, 2**32 - 1))
def test_roundtrip_random_formulas(seed):
    rng = random.Random(seed)
    f = random_formula(rng, random_signature(rng))
    assert parse_formula(print_formula(f)) == f


def test_binary_connectives_must_be_parenthesized():
    with pytest.raises(ParseError) as e:
        parse_formula("x * y")
    assert (e.value.line, e.value.column) == (1, 3)


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("(x *", 1, 5),
        ("!u", 1, 3),
        ("~1", 1, 2),
        ("(x ! y)", 1, 4),
        ("", 1, 1),
        ("bot top", 1, 5),
        ("X", 1, 1),
    ],
)
def test_formula_error_positions(text, line, col):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert (e.value.line, e.value.column) == (line, col)


def test_error_carries_filename():
    with pytest.raises(ParseError) as e:
        parse_formula("(", "goal.txt")
    assert "goal.txt:1:2" in str(e.value)


@pytest.mark.parametrize(
    "text,offset,line,col",
    [
        ("ab\ncd", 0, 1, 1),
        ("ab\ncd", 3, 2, 1),  # right after a newline
        ("ab\n\ncd", 4, 3, 1),
        ("ab\r\ncd", 2, 1, 3),  # the \r is a column of its line
        ("ab\r\ncd", 4, 2, 1),
        ("ab\ncd", 5, 2, 3),  # the end of the text
        ("ab\n", 3, 2, 1),
        ("", 0, 1, 1),
        ("abc", 2, 1, 3),  # no newline
    ],
)
def test_error_at_an_offset(text, offset, line, col):
    e = ParseError.at("bad", text, offset, "f.txt")
    assert (e.message, e.line, e.column, str(e)) == ("bad", line, col, f"f.txt:{line}:{col}: bad")


def test_parse_sequent_turnstile_form():
    s = parse_sequent("|- x, ~x, ?inf 1")
    assert s == Sequent((Atom("x"), NegAtom("x"), Qm("inf", parse_formula("1"))))


def test_parse_sequent_line_form():
    text = "x\n~x\n"
    assert parse_sequent(text) == Sequent((Atom("x"), NegAtom("x")))


def test_print_sequent_uses_one_formula_per_line():
    s = Sequent((Atom("x"), NegAtom("x")))
    out = print_sequent(s)
    assert out == "x\n~x\n"
    assert parse_sequent(out) == s


def test_sequent_error_positions():
    with pytest.raises(ParseError) as e:
        parse_sequent("|- x,")
    assert (e.value.line, e.value.column) == (1, 6)
    with pytest.raises(ParseError):
        parse_sequent("|-")


def test_signature_roundtrip():
    s = parse_signature("labels: a b inf\nunbounded: inf\norder: a <= inf, b <= inf")
    assert parse_signature(print_signature(s)) == s
    assert s.unbounded == frozenset({"inf"})
    assert ("a", "inf") in s.order and ("a", "a") in s.order


def test_signature_order_entries_are_validated():
    with pytest.raises(UnknownLabel):
        parse_signature("labels: a\nunbounded:\norder: a <= z")
    with pytest.raises(ParseError):
        parse_signature("unbounded: a\norder:")
    with pytest.raises(ParseError):
        parse_signature("labels: a\nunbounded:\norder: a < a")


@given(st.integers(0, 2**32 - 1))
def test_roundtrip_random_signatures(seed):
    s = random_signature(random.Random(seed))
    assert parse_signature(print_signature(s)) == s


# --- deep input, under the default recursion limit -------------------------


@pytest.mark.parametrize(
    "text",
    [
        "!a " * 3000 + "x",
        "(x * " * 3000 + "y" + ")" * 3000,
        "(" * 2000 + "~x" + " & top)" * 2000,
        "?u (!v " * 1500 + "1" + " | bot)" * 1500,
    ],
    ids=["bangs", "tensors", "withs", "question-marked pars"],
)
def test_deep_formulas_parse_and_print_back(text):
    f = parse_formula(text)
    assert print_formula(f) == text
    printed = print_sequent(Sequent((f, f)))
    assert printed == f"{text}\n{text}\n"
    assert print_sequent(parse_sequent(printed)) == printed
    assert parse_sequent(printed) == Sequent((f, f))


@pytest.mark.parametrize(
    "text,message,col",
    [
        ("(" * 2000, "expected a formula", 2001),
        ("(" * 2000 + "x", "expected a connective, found ''", 2002),
        ("(x * " * 2000 + "y", "expected ')'", 5 * 2000 + 2),
        ("!a " * 3000, "expected a formula", 3 * 3000 + 1),
    ],
    ids=["open parentheses", "atom after open parentheses", "no closers", "bangs"],
)
def test_unclosed_deep_formulas_are_parse_errors(text, message, col):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert e.value.message == message
    assert (e.value.line, e.value.column) == (1, col)


# --- the tokenizer against the character loop it replaced -----------------

_PUNCT = {
    "(": "lparen", ")": "rparen", "*": "star", "|": "pipe", "+": "plus", "&": "amp",
    "!": "bang", "?": "qm", "~": "tilde", ",": "comma",
}


def _char_tokenize(text):
    """The character-at-a-time tokenizer that one regular expression replaced,
    as (kind, text, line, column) tuples."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "|" and i + 1 < n and text[i + 1] == "-":
            tokens.append(("turnstile", "|-", line, col))
            i += 2
            col += 2
            continue
        if c == "<" and i + 1 < n and text[i + 1] == "=":
            tokens.append(("le", "<=", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            tokens.append((_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c in "01" and not (i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_")):
            tokens.append(("unit", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "reserved" if word in {"bot", "top"} else "ident"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col, None)
    tokens.append(("eof", "", line, col))
    return tokens


# Characters the two tokenizers could read differently: whitespace they
# skip or reject, comments (also at the end), both two-character symbols
# and their halves, units next to identifiers and digits, ASCII and other
# digits, letters in and outside ASCII, and word characters that are
# neither letters nor digits.
_TOKEN_PIECES = st.sampled_from(
    ["(", ")", "*", "|", "+", "&", "!", "?", "~", ",", "|-", "<=", "<", "-", "=",
     " ", "\t", "\r", "\n", "\x0b", "\xa0", "#", "# c |- x\n", "# end",
     "0", "1", "01", "10", "x", "x1", "1x", "0_", "_", "bot", "top", "topx", "Z",
     "12", "\u00b2", "\u0663", "\u00bd", "\u2170", "\u00e9", "\u00c9", "\u01c5",
     "\u05d0", "\u24d0", "[", ";"]
)


@settings(max_examples=500)
@given(st.lists(_TOKEN_PIECES, max_size=16).map("".join))
@example("1")
@example("(0 * 1x)")
@example("|- x, ~y # end")
@example("a <= b\n# c")
@example("\u00b2x")
def test_tokenizer_matches_the_character_loop(text):
    try:
        expected = _char_tokenize(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert (got.value.message, got.value.line, got.value.column) == (
            e.message, e.line, e.column,
        )
    else:
        assert [
            (t.kind, t.text, text.count("\n", 0, t.offset) + 1, t.offset - text.rfind("\n", 0, t.offset))
            for t in tokenize(text)
        ] == expected
