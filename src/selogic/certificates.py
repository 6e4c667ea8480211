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
wider lines.

The reader makes one pass over the tokens: a list becomes its proof node
as it closes, by one constructor call from a table of each rule's
arguments.  Only a rejected text is read again, keeping each token's
character offset, to name its first error: a bad character, else a fault
of the parentheses, else the first malformed node in pre-order; only that
error's offset becomes a line and column.  The printer writes each node's
head from the same table.  Printing and reading walk with
explicit stacks: time is linear in the text, and depth is not bounded by
the recursion limit.
"""

from __future__ import annotations

import re
from itertools import zip_longest

from .errors import ParseError
from .focusing import FProof
from .unfocused import UProof


# One token per match: a parenthesis, a word (``\w`` is ``str.isalnum`` or
# ``_``), a ``;`` comment, or any other character but whitespace, which is
# an error.
_TOKEN = re.compile(r"[()]|\w+|;[^\n]*|[^ \t\r\n]")


def _read(text: str, filename: str | None, calculus: tuple):
    """Read one certificate of ``calculus`` in one pass over the tokens.

    A list becomes its proof node as it closes, after its premises: when
    its rule, argument types and position lists fit the rule table, one
    positional constructor call builds it.  Any other list, and any other
    word or character, stays as it is, so its parent does not fit either.
    A text that does not come out as one proof node goes to :func:`_error`.
    """
    _, proof_class, rules = calculus
    items: list = []
    opened: list[list] = []  # the enclosing lists, innermost last
    for tok in _TOKEN.findall(text):
        if tok == "(":
            opened.append(items)
            items = []
        elif tok == ")":
            if not opened:
                break
            node, items = items, opened.pop()
            rule = rules.get(node[0]) if node and type(node[0]) is str else None
            if rule is not None and rule[0] == [*map(type, node)]:
                node = rule[1](*node) or node  # None: a bad position list
            items.append(node)
        elif tok[0] != ";":
            items.append(int(tok) if tok.isdigit() and tok.isascii() else tok)
    else:
        if not opened and len(items) == 1 and type(items[0]) is proof_class:
            return items[0]
    _error(text, filename, calculus)


def _error(text: str, filename: str | None, calculus: tuple):
    """Raise the error of a text that is not a certificate of ``calculus``.

    The first bad character wins, then the first fault of the parentheses
    in reading order, then the first malformed node in pre-order, left
    premise first.  Tokens keep their offsets; only the offset reported
    becomes a line and column.
    """
    toks = []  # (value, offset): a parenthesis, a number or a symbol
    for m in _TOKEN.finditer(text):
        tok, c = m.group(), m.group()[0]
        if c == ";":
            continue
        if c not in "()_" and not c.isdigit() and not (c.islower() and c.isalnum()):
            raise ParseError.at(f"unexpected character {c!r}", text, m.start(), filename)
        toks.append((int(tok) if tok.isascii() and tok.isdigit() else tok, m.start()))
    if not toks:
        raise ParseError("empty certificate", 1, 1, filename)
    opened: list[list] = []  # each is [offsets, item, ...]; offsets[k] is item k's, [0] its own
    for i, (val, at) in enumerate(toks):
        if val == "(":
            opened.append([[at]])
            continue
        if val == ")":
            if not opened:
                raise ParseError.at("unmatched closing parenthesis", text, at, filename)
            val = opened.pop()
            at = val[0][0]
        if opened:
            opened[-1].append(val)
            opened[-1][0].append(at)
        elif i + 1 < len(toks):
            at = toks[i + 1][1]
            raise ParseError.at("trailing input after the certificate", text, at, filename)
        else:
            break
    else:
        raise ParseError.at("unclosed parenthesis", text, opened[-1][0][0], filename)
    name, _, rules = calculus
    pending = [(val, at)]
    while pending:
        node, at = pending.pop()
        if type(node) is not list or len(node) < 2 or type(node[1]) is not str:
            raise ParseError.at("expected a (rule ...) form", text, at, filename)
        tag, args = node[1], node[2:]
        kinds = rules[tag][2] if tag in rules else None
        fault = f"not {name} rule" if kinds is None else _fault(kinds, args)
        if fault:
            raise ParseError.at(f"{tag}: {fault}", text, at, filename)
        subs = [(x, node[0][k]) for k, (kind, x) in enumerate(zip(kinds, args), 2) if kind == "s"]
        pending.extend(reversed(subs))
    raise AssertionError("a text the reader refused has no error")


_MARKERS = {"k": "kept", "l": "left"}


def _fault(kinds: str, args: list) -> str | None:
    """What is wrong with a node's arguments, read left to right."""
    for kind, x in zip_longest(kinds, args):
        if kind is None:
            return "too many arguments"
        if x is None:
            return "too few arguments"
        if kind == "n" and type(x) is not int:
            return "expected a position number"
        marker = _MARKERS.get(kind)
        # a list read by _error holds its offsets first
        if marker and _numbers(x[1:] if type(x) is list else x, marker) is None:
            return f"expected ({marker} ...) with position numbers"
    return None


def _numbers(x, marker: str) -> tuple[int, ...] | None:
    """The numbers of the list ``(marker I...)``, or None for anything else."""
    if type(x) is list and x[:1] == [marker] and all(type(i) is int for i in x[1:]):
        return tuple(x[1:])
    return None


def _tensor(t, p, left, a, b):
    left = _numbers(left, "left")
    return None if left is None else UProof(t, p, None, left, (a, b))


def _ftensor(t, kept, left, a, b):
    kept, left = _numbers(kept, "kept"), _numbers(left, "left")
    return None if kept is None or left is None else FProof(t, None, left, kept, (a, b))


def _fbang(t, kept, a):
    kept = _numbers(kept, "kept")
    return None if kept is None else FProof(t, None, None, kept, (a,))


#: How a node prints its arguments before its premises, by kind: the
#: principal, init's pair (the only rule with two numbers), and the lists.
_WORDS = {
    "n": lambda p: str(p.principal),
    "nn": lambda p: f"{p.pair[0]} {p.pair[1]}",
    "k": lambda p: _positions("kept", p.kept),
    "l": lambda p: _positions("left", p.split),
}


def _calculus(name: str, proof_class: type, rules: dict) -> tuple:
    """A rule table: each tag's arguments, as a string with ``n`` for a
    position number, ``k`` and ``l`` for ``(kept ...)`` and ``(left ...)``
    lists and ``s`` for a premise, and the constructor call that builds
    the node from its list.  The printer reads the same string: its
    :data:`_WORDS` for the arguments before the premises."""
    types = {"n": int, "k": list, "l": list, "s": proof_class}
    return name, proof_class, {
        tag: (
            [str, *map(types.get, kinds)], make, kinds, [*map(_WORDS.get, re.findall("nn|[nkl]", kinds))]
        )
        for tag, (kinds, make) in rules.items()
    }


_UNFOCUSED = _calculus("an unfocused", UProof, {
    "init": ("nn", lambda t, i, j: UProof(t, None, (i, j))),
    "one": ("", UProof),
    "top": ("n", UProof),
    "tensor": ("nlss", _tensor),
    "with": ("nss", lambda t, p, a, b: UProof(t, p, None, None, (a, b))),
    **dict.fromkeys(
        ("plus1", "plus2", "par", "bot", "qm", "bang", "weak", "contr"),
        ("ns", lambda t, p, a: UProof(t, p, None, None, (a,))),
    ),
})

_FOCUSED = _calculus("a focused", FProof, {
    "finit": ("n", FProof),
    "f1": ("", FProof),
    "top": ("n", FProof),
    "ftensor": ("klss", _ftensor),
    "with": ("nss", lambda t, p, a, b: FProof(t, p, None, None, (a, b))),
    "fbang": ("ks", _fbang),
    **dict.fromkeys(("fplus1", "fplus2", "blur"), ("s", lambda t, a: FProof(t, None, None, None, (a,)))),
    **dict.fromkeys(
        ("decide", "ldecide", "udecide", "par", "bot"),
        ("ns", lambda t, p, a: FProof(t, p, None, None, (a,))),
    ),
})


def parse_unfocused_proof(text: str, filename: str | None = None) -> UProof:
    return _read(text, filename, _UNFOCUSED)


def parse_focused_proof(text: str, filename: str | None = None) -> FProof:
    return _read(text, filename, _FOCUSED)


# --- printing ---------------------------------------------------------------


def print_unfocused_proof(proof: UProof) -> str:
    return _layout(proof, _UNFOCUSED)


def print_focused_proof(proof: FProof) -> str:
    return _layout(proof, _FOCUSED)


def _head(node, words: list) -> str:
    """The node's rule, then each argument that is not a premise."""
    text = node.rule
    for word in words:
        text += " " + word(node)
    return text


def _positions(marker: str, positions: tuple[int, ...]) -> str:
    return "(" + " ".join([marker, *map(str, positions)]) + ")"


_WIDTH = 96


def _layout(root, calculus: tuple) -> str:
    """Print a proof tree in time linear in the text, without recursing.

    A node's head is its own tokens, as the rule table of ``calculus``
    lists them: its rule, numbers and position lists.  A node goes on one
    line when that line, with its indent and the closing parentheses its
    ancestors append to it, fits in ``_WIDTH`` columns.  Otherwise its
    head stays on the line and each premise starts a new one.  Only a
    premise that is not its parent's last is indented deeper, so the spine
    of single premises and right premises of a long proof does not march
    right.
    """
    # Breadth-first order: node i's premises are nodes first[i] onwards,
    # and every node comes after its ancestors.
    order = [root]
    first = []
    for node in order:
        first.append(len(order))
        order.extend(node.premises)
    rules = calculus[2]
    heads = [_head(node, rules[node.rule][3]) for node in order]

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
