"""Text formats: formulas, sequent files, and signature files.

The formula grammar is deliberately rigid — binary connectives are always
parenthesised — so the printer has a single canonical form and print-then-
parse is the identity:

    formula := ident                    atom
             | '~' ident                negated atom
             | '(' formula '*' formula ')'   tensor        (positive)
             | '(' formula '|' formula ')'   par           (negative)
             | '(' formula '+' formula ')'   plus          (positive)
             | '(' formula '&' formula ')'   with          (negative)
             | '1' | 'bot' | '0' | 'top'     units
             | '!' label formula             bang
             | '?' label formula             question mark

Identifiers (atoms, labels, machine states) match ``[a-z_][a-zA-Z0-9_]*``;
``bot`` and ``top`` are reserved words.  ``#`` starts a comment anywhere in
the line-oriented formats.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError
from .formulas import (
    Atom,
    Bang,
    Bot,
    Formula,
    NegAtom,
    One,
    Par,
    Plus,
    Qm,
    Sequent,
    Tensor,
    Top,
    With,
    Zero,
    BOT,
    ONE,
    TOP,
    ZERO,
)
from .signatures import Signature, close_signature, is_identifier

_SYMBOLS = {
    "|-": "turnstile", "<=": "le", "(": "lparen", ")": "rparen", "*": "star", "|": "pipe",
    "+": "plus", "&": "amp", "!": "bang", "?": "qm", "~": "tilde", ",": "comma",
}

_RESERVED = {"bot", "top"}

# One token per match, after the whitespace and ``#`` comments before it:
# a symbol, a run of word characters (``\w`` is ``str.isalnum`` or ``_``),
# any other character, which is an error, or the end of the text.
_TOKEN = re.compile(r"((?:[ \t\r\n]+|#[^\n]*)*)(?:(\|-|<=|[()*|+&!?~,])|(\w+)|(.)|\Z)", re.S)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int  # in characters from the start of the text


def tokenize(text: str, filename: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    for skipped, symbol, word, bad in _TOKEN.findall(text):
        pos += len(skipped)
        if symbol:
            tokens.append(Token(_SYMBOLS[symbol], symbol, pos))
            pos += len(symbol)
        elif word:
            if word[0].isalpha() or word[0] == "_":
                tokens.append(Token("reserved" if word in _RESERVED else "ident", word, pos))
            else:
                tokens += _word_tokens(word, pos, text, filename)
            pos += len(word)
        elif bad:
            raise ParseError.at(f"unexpected character {bad!r}", text, pos, filename)
        else:
            # the end sits where a comment on the last line starts
            end = text.find("#", text.rfind("\n") + 1)
            tokens.append(Token("eof", "", len(text) if end < 0 else end))
            return tokens


def _word_tokens(word: str, pos: int, text: str, filename: str | None) -> list[Token]:
    """A word at offset ``pos`` that starts with neither a letter nor ``_``:
    a lone ``0`` or ``1`` is a unit; otherwise leading digits
    (``str.isdigit``) make a number, and any rest must be an identifier."""
    if word == "0" or word == "1":
        return [Token("unit", word, pos)]
    digits = 0
    while digits < len(word) and word[digits].isdigit():
        digits += 1
    tokens = [Token("number", word[:digits], pos)] if digits else []
    rest = word[digits:]
    if rest:
        pos += digits
        if not (rest[0].isalpha() or rest[0] == "_"):
            raise ParseError.at(f"unexpected character {rest[0]!r}", text, pos, filename)
        tokens.append(Token("reserved" if rest in _RESERVED else "ident", rest, pos))
    return tokens


class _Cursor:
    def __init__(self, text: str, filename: str | None):
        self.text = text
        self.tokens = tokenize(text, filename)
        self.pos = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}")
        return self.next()

    def fail(self, message: str):
        self.fail_at(self.peek(), message)

    def fail_at(self, tok: Token, message: str):
        raise ParseError.at(message, self.text, tok.offset, self.filename)


_BINOPS = {"star": Tensor, "pipe": Par, "plus": Plus, "amp": With}


def _parse_formula(cur: _Cursor) -> Formula:
    """Read one formula with an explicit stack, so nesting depth is unbounded.

    ``pending`` holds the constructors still waiting for a subformula,
    innermost last: a ``(label, ctor)`` prefix, an open parenthesis before
    its left operand (``None``), or a ``[ctor, left]`` pair before its right
    operand.  Tokens are read in the order of a recursive descent, so every
    error names the same token.
    """
    pending: list = []
    while True:
        tok = cur.peek()
        match tok.kind:
            case "ident":
                cur.next()
                if not is_identifier(tok.text):
                    cur.fail_at(tok, f"malformed atom {tok.text!r}")
                f = Atom(tok.text)
            case "tilde":
                cur.next()
                name = cur.expect("ident", "an atom after '~'")
                if not is_identifier(name.text):
                    cur.fail_at(name, f"malformed atom {name.text!r}")
                f = NegAtom(name.text)
            case "unit":
                cur.next()
                f = ONE if tok.text == "1" else ZERO
            case "reserved":
                cur.next()
                f = BOT if tok.text == "bot" else TOP
            case "bang" | "qm":
                cur.next()
                label = cur.expect("ident", f"a label after {tok.text!r}")
                if not is_identifier(label.text):
                    cur.fail_at(label, f"malformed label {label.text!r}")
                pending.append((label.text, Bang if tok.kind == "bang" else Qm))
                continue
            case "lparen":
                cur.next()
                pending.append(None)
                continue
            case _:
                cur.fail(f"expected a formula, found {tok.text!r}" if tok.text else "expected a formula")
        # ``f`` is complete: hand it to the constructors waiting for it
        while pending:
            top = pending[-1]
            if top is None:
                op = cur.next()
                ctor = _BINOPS.get(op.kind)
                if ctor is None:
                    cur.fail_at(op, f"expected a connective, found {op.text!r}")
                pending[-1] = [ctor, f]
                break
            pending.pop()
            if isinstance(top, tuple):
                label, ctor = top
                f = ctor(label, f)
            else:
                cur.expect("rparen", "')'")
                ctor, left = top
                f = ctor(left, f)
        else:
            return f


def parse_formula(text: str, filename: str | None = None) -> Formula:
    cur = _Cursor(text, filename)
    f = _parse_formula(cur)
    tok = cur.peek()
    if tok.kind != "eof":
        cur.fail(f"trailing input {tok.text!r}")
    return f


class _Text(str):
    """Literal text on the printer's stack, told apart from formulas."""


_INFIX = {Tensor: _Text(" * "), Par: _Text(" | "), Plus: _Text(" + "), With: _Text(" & ")}
_CLOSE = _Text(")")
_UNITS = {One: "1", Zero: "0", Bot: "bot", Top: "top"}


def print_formula(f: Formula) -> str:
    """The canonical text of ``f``; walks with an explicit stack."""
    out: list[str] = []
    # formulas still to print and literal text, next item last
    todo: list = [f]
    while todo:
        g = todo.pop()
        if type(g) is _Text:
            out.append(g)
            continue
        kind = type(g)
        if kind is Atom:
            out.append(g.name)
        elif kind is NegAtom:
            out.append(f"~{g.name}")
        elif kind in _INFIX:
            out.append("(")
            todo += (_CLOSE, g.right, _INFIX[kind], g.left)
        elif kind in _UNITS:
            out.append(_UNITS[kind])
        elif kind is Bang or kind is Qm:
            out.append(f"{'!' if kind is Bang else '?'}{g.label} ")
            todo.append(g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


# --- sequent files ----------------------------------------------------------

def parse_sequent(text: str, filename: str | None = None) -> Sequent:
    """Either one formula per line, or ``|-`` followed by a comma list."""
    cur = _Cursor(text, filename)
    formulas: list[Formula] = []
    if cur.peek().kind == "turnstile":
        cur.next()
        formulas.append(_parse_formula(cur))
        while cur.peek().kind == "comma":
            cur.next()
            formulas.append(_parse_formula(cur))
    else:
        while cur.peek().kind != "eof":
            formulas.append(_parse_formula(cur))
    tok = cur.peek()
    if tok.kind != "eof":
        cur.fail(f"trailing input {tok.text!r}")
    if not formulas:
        cur.fail("a sequent needs at least one formula")
    return Sequent(formulas)


def print_sequent(seq: Sequent) -> str:
    """One formula per line; a sequent with a focus or no formula raises ``ValueError``."""
    return "\n".join(print_formula(f) for f in seq.unfocused()) + "\n"


# --- signature files --------------------------------------------------------

def parse_signature(text: str, filename: str | None = None) -> Signature:
    """Line-oriented format::

        labels: inf a b
        unbounded: inf
        order: a <= inf, b <= inf

    The ``unbounded`` and ``order`` lines may be omitted or left empty.
    Validation errors from closing the signature propagate unchanged.
    """
    labels: list[str] | None = None
    unbounded: list[str] = []
    order: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, rest = stripped.partition(":")
        if not sep:
            raise ParseError("expected 'key: value'", lineno, 1, filename)
        key = key.strip()
        rest = rest.strip()
        if key == "labels":
            labels = rest.split()
        elif key == "unbounded":
            unbounded = rest.split()
        elif key == "order":
            if rest:
                for chunk in rest.split(","):
                    parts = chunk.split("<=")
                    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                        raise ParseError(
                            f"malformed order constraint {chunk.strip()!r}", lineno, 1, filename
                        )
                    order.append((parts[0].strip(), parts[1].strip()))
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1, filename)
    if labels is None:
        raise ParseError("missing 'labels:' line", 1, 1, filename)
    return close_signature(labels, unbounded, order)


def print_signature(sig: Signature) -> str:
    lines = [
        "labels: " + " ".join(sorted(sig.labels)),
        "unbounded: " + " ".join(sorted(sig.unbounded)),
    ]
    strict = sorted((u, v) for (u, v) in sig.order if u != v)
    lines.append("order: " + ", ".join(f"{u} <= {v}" for u, v in strict))
    return "\n".join(lines) + "\n"
