"""Text format for proof certificates, unfocused and focused.

Certificates are s-expressions over lower-case symbols and decimal
numbers.  Context positions are zero-based.  Unfocused nodes:

    (init I J)              axiom between positions I (atom) and J (negation)
    (tensor P (left I...) L R)   split at position P, listed positions go left
    (one)
    (plus1 P S)  (plus2 P S)
    (par P S)  (bot P S)
    (with P L R)
    (top P)
    (qm P S)  (bang P S)
    (weak P S)  (contr P S)

Focused nodes reuse par/bot/with/top verbatim and add:

    (finit N)               N is the position of the matching negated atom
    (f1)
    (ftensor (kept I...) (left I...) L R)
    (fplus1 S)  (fplus2 S)
    (fbang (kept I...) S)
    (blur S)
    (decide P S)  (ldecide P S)  (udecide P S)

The leaves finit and f1 carry no position lists: whatever unbounded
question-marked formulas remain in the context are absorbed implicitly,
and the checker verifies that nothing else is left over.

Layout is not grammar; the reader accepts any whitespace and ``;``
comments.  The printer puts a node on one line when the line fits in 96
columns, counting its indent and the closing parentheses that follow it.
Otherwise the node's rule, numbers and position lists stay on its line
and each premise starts a new one.  The last premise stays at the node's
indent and an earlier one goes two columns deeper, so a proof's spine
runs down one column however long it is, and the text grows linearly
with the proof.  Neither that head line nor the run of closing
parentheses after a long chain is wrapped, so long certificates can have
wider lines.  Printing and reading both walk with explicit stacks: time
is linear in the text, and depth is not bounded by the recursion limit.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .focusing import FBANG, FINIT, FONE, FTENSOR, FProof
from . import unfocused as uf
from .unfocused import UProof


class _SList:
    __slots__ = ("items", "line", "col")

    def __init__(self, items, line, col):
        self.items = items
        self.line = line
        self.col = col


# One token per match, after any whitespace and ``;`` comments: a
# parenthesis, a word (``\w`` is ``str.isalnum`` or ``_``), any other
# character, which is an error, or the end of the text.  The end is a
# match of its own, so a comment at the end is never backtracked into.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*(?:([()])|(\w+)|(.)|\Z)", re.S)


def _lex(text: str, filename: str | None):
    out = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN.finditer(text):
        if m.lastindex is None:
            break
        paren, word, bad = m.groups()
        start = m.start(m.lastindex)
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, start) + 1
        pos = start
        col = start - line_start + 1
        if paren:
            out.append((paren, paren, line, col))
        elif word and (word[0].isdigit() or word[0].islower() or word[0] == "_"):
            if word.isascii() and word.isdigit():
                out.append(("num", int(word), line, col))
            else:
                out.append(("sym", word, line, col))
        else:
            ch = bad or word[0]
            raise ParseError(f"unexpected character {ch!r}", line, col, filename)
    return out


def _read_sexpr(text: str, filename: str | None):
    toks = _lex(text, filename)
    if not toks:
        raise ParseError("empty certificate", 1, 1, filename)
    # the lists opened and not yet closed, innermost last
    open_lists: list[_SList] = []
    for i, (kind, val, line, col) in enumerate(toks):
        if kind == "(":
            open_lists.append(_SList([], line, col))
            continue
        if kind == ")":
            if not open_lists:
                raise ParseError("unmatched closing parenthesis", line, col, filename)
            node = open_lists.pop()
        else:
            node = val
        if open_lists:
            open_lists[-1].items.append(node)
            continue
        if i + 1 < len(toks):
            _, _, line, col = toks[i + 1]
            raise ParseError("trailing input after the certificate", line, col, filename)
        return node
    inner = open_lists[-1]
    raise ParseError("unclosed parenthesis", inner.line, inner.col, filename)


class _Shape:
    """Pulls typed arguments out of one s-expression node."""

    def __init__(self, node, filename):
        if not isinstance(node, _SList) or not node.items or not isinstance(node.items[0], str):
            line = getattr(node, "line", 1)
            col = getattr(node, "col", 1)
            raise ParseError("expected a (rule ...) form", line, col, filename)
        self.node = node
        self.filename = filename
        self.tag = node.items[0]
        self.rest = node.items[1:]
        self.at = 0

    def fail(self, message: str):
        raise ParseError(f"{self.tag}: {message}", self.node.line, self.node.col, self.filename)

    def _next(self):
        if self.at >= len(self.rest):
            self.fail("too few arguments")
        x = self.rest[self.at]
        self.at += 1
        return x

    def num(self) -> int:
        x = self._next()
        if not isinstance(x, int):
            self.fail("expected a position number")
        return x

    def numlist(self, marker: str) -> tuple[int, ...]:
        x = self._next()
        if (
            not isinstance(x, _SList)
            or not x.items
            or x.items[0] != marker
            or not all(isinstance(y, int) for y in x.items[1:])
        ):
            self.fail(f"expected ({marker} ...) with position numbers")
        return tuple(x.items[1:])

    def sub(self):
        return self._next()

    def done(self):
        if self.at != len(self.rest):
            self.fail("too many arguments")


def _build(root, filename, shape, make):
    """Turn an s-expression tree into a proof tree without recursing.

    ``shape`` reads one node's own arguments and returns the proof fields
    and the premise s-expressions; it raises :class:`ParseError` as soon as
    a node is malformed.  Nodes are read in pre-order, left premise first,
    so the error reported is the one a left-to-right reading meets first.
    """
    order = []
    pending = [root]
    while pending:
        node = pending.pop()
        fields, subs = shape(_Shape(node, filename))
        order.append((fields, len(subs)))
        pending.extend(reversed(subs))
    # In reverse pre-order every node comes after all of its descendants,
    # and its left premise's value lands on top of its right one's.
    built = []
    for fields, arity in reversed(order):
        if arity:
            fields["premises"] = tuple(reversed(built[-arity:]))
            del built[-arity:]
        built.append(make(**fields))
    return built[0]


def parse_unfocused_proof(text: str, filename: str | None = None) -> UProof:
    return _build(_read_sexpr(text, filename), filename, _u_shape, UProof)


def _u_shape(s: _Shape) -> tuple[dict, list]:
    match s.tag:
        case "init":
            i, j = s.num(), s.num()
            s.done()
            return {"rule": uf.INIT, "pair": (i, j)}, []
        case "one":
            s.done()
            return {"rule": uf.ONE_RULE}, []
        case "top":
            p = s.num()
            s.done()
            return {"rule": uf.TOP_RULE, "principal": p}, []
        case "tensor":
            p = s.num()
            left = s.numlist("left")
            l, r = s.sub(), s.sub()
            s.done()
            return {"rule": uf.TENSOR, "principal": p, "split": left}, [l, r]
        case "with":
            p = s.num()
            l, r = s.sub(), s.sub()
            s.done()
            return {"rule": uf.WITH, "principal": p}, [l, r]
        case "plus1" | "plus2" | "par" | "bot" | "qm" | "bang" | "weak" | "contr":
            p = s.num()
            sub = s.sub()
            s.done()
            return {"rule": s.tag, "principal": p}, [sub]
        case _:
            s.fail("not an unfocused rule")


def parse_focused_proof(text: str, filename: str | None = None) -> FProof:
    return _build(_read_sexpr(text, filename), filename, _f_shape, FProof)


def _f_shape(s: _Shape) -> tuple[dict, list]:
    match s.tag:
        case "finit":
            p = s.num()
            s.done()
            return {"rule": FINIT, "principal": p}, []
        case "f1":
            s.done()
            return {"rule": FONE}, []
        case "top":
            p = s.num()
            s.done()
            return {"rule": uf.TOP_RULE, "principal": p}, []
        case "ftensor":
            kept = s.numlist("kept")
            left = s.numlist("left")
            l, r = s.sub(), s.sub()
            s.done()
            return {"rule": FTENSOR, "kept": kept, "split": left}, [l, r]
        case "with":
            p = s.num()
            l, r = s.sub(), s.sub()
            s.done()
            return {"rule": uf.WITH, "principal": p}, [l, r]
        case "fbang":
            kept = s.numlist("kept")
            sub = s.sub()
            s.done()
            return {"rule": FBANG, "kept": kept}, [sub]
        case "fplus1" | "fplus2" | "blur":
            sub = s.sub()
            s.done()
            return {"rule": s.tag}, [sub]
        case "decide" | "ldecide" | "udecide" | "par" | "bot":
            p = s.num()
            sub = s.sub()
            s.done()
            return {"rule": s.tag, "principal": p}, [sub]
        case _:
            s.fail("not a focused rule")


# --- printing ---------------------------------------------------------------


def print_unfocused_proof(proof: UProof) -> str:
    return _layout(proof, _u_head)


def _u_head(p: UProof) -> str:
    match p.rule:
        case uf.INIT:
            return f"init {p.pair[0]} {p.pair[1]}"
        case uf.ONE_RULE:
            return "one"
        case uf.TENSOR:
            return f"tensor {p.principal} {_positions('left', p.split)}"
        case _:  # top, with and the one-premise rules
            return f"{p.rule} {p.principal}"


def print_focused_proof(proof: FProof) -> str:
    return _layout(proof, _f_head)


def _f_head(p: FProof) -> str:
    match p.rule:
        case "ftensor":
            return f"ftensor {_positions('kept', p.kept)} {_positions('left', p.split)}"
        case "fbang":
            return f"fbang {_positions('kept', p.kept)}"
        case "f1" | "fplus1" | "fplus2" | "blur":
            return p.rule
        case _:  # finit, top, with, par, bot and the decide flavours
            return f"{p.rule} {p.principal}"


def _positions(marker: str, positions: tuple[int, ...]) -> str:
    return "(" + " ".join([marker, *map(str, positions)]) + ")"


_WIDTH = 96


def _layout(root, head) -> str:
    """Print a proof tree in time linear in the text, without recursing.

    ``head`` gives a node's own tokens: its rule, numbers and position
    lists.  A node goes on one line when that line, with its indent and
    the closing parentheses its ancestors append to it, fits in
    ``_WIDTH`` columns.  Otherwise its head stays on the line and each
    premise starts a new one.  Only a premise that is not its parent's
    last is indented deeper, so the spine of single premises and right
    premises of a long proof does not march right.
    """
    # Breadth-first order: node i's premises are nodes first[i] onwards,
    # and every node comes after its ancestors.
    order = [root]
    first = []
    for node in order:
        first.append(len(order))
        order.extend(node.premises)
    heads = [head(node) for node in order]

    # Pass 1, bottom-up: each node's one-line width, and its one-line text
    # when that is short enough to ever be printed whole.  Those texts are
    # at most _WIDTH long, so building them stays linear.
    widths = [0] * len(order)
    flats = [""] * len(order)
    for i in range(len(order) - 1, -1, -1):
        subs = range(first[i], first[i] + len(order[i].premises))
        width = len(heads[i]) + 2
        for k in subs:
            width += widths[k] + 1
        widths[i] = width
        if width <= _WIDTH:
            text = heads[i]
            for k in subs:
                text += " " + flats[k]
            flats[i] = "(" + text + ")"

    # Pass 2, top-down: text fragments in order.  A pending entry is a
    # literal fragment or (node index, indent, closers).
    out: list[str] = []
    pending = [(0, 0, 0)]
    while pending:
        item = pending.pop()
        if type(item) is str:
            out.append(item)
            continue
        i, indent, closers = item
        if indent + widths[i] + closers <= _WIDTH:
            out.append(flats[i])
            continue
        out.append("(" + heads[i])
        pending.append(")")
        arity = len(order[i].premises)
        if arity:
            pending.append((first[i] + arity - 1, indent, closers + 1))
            pending.append("\n" + " " * indent)
        deeper = "\n" + " " * (indent + 2)
        for k in range(arity - 2, -1, -1):
            pending.append((first[i] + k, indent + 2, 1))
            pending.append(deeper)
    out.append("\n")
    return "".join(out)
