"""Formula syntax for one-sided subexponential linear logic.

Formulas are in negation normal form: negation appears only on atoms, and
the indexed exponentials come as a bang/question-mark pair over labels drawn
from an ambient signature.  All nodes are immutable slotted classes, so
formulas, contexts and sequents are hashable values that can be shared
freely.  Equality and hashing read one pre-order key, and ``repr`` walks a
formula too, each with an explicit stack, so depth is not bounded by the
recursion limit.  One
:class:`Sequent` class serves both calculi: a context plus a focus, which
the unfocused calculus leaves empty.
"""

from __future__ import annotations

import enum

from .records import Record, Value, setfield


class _Formula(Value):
    __slots__ = ()
    __match_args__ = ()

    def _flat(self) -> list:
        """The (type, data) pairs of the nodes in pre-order, which determine
        the formula."""
        out, pending = [], [self]
        while pending:
            f = pending.pop()
            data, kids = _shape(f)
            out += type(f), data
            pending += kids
        return out

    def __eq__(self, other):
        if not isinstance(other, _Formula):
            return NotImplemented
        return self is other or self._flat() == other._flat()

    def __hash__(self):
        return hash(tuple(self._flat()))


class _Named(_Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class _Binary(_Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        setfield(self, "left", left)
        setfield(self, "right", right)

    def part(self, k: int) -> Formula:
        """Immediate subformula ``k``: 0 is the left one, 1 the right one."""
        return self.right if k else self.left


class _Unary(_Formula):
    __slots__ = __match_args__ = ("label", "body")

    def __init__(self, label: str, body: Formula):
        setfield(self, "label", label)
        setfield(self, "body", body)

    def part(self, k: int) -> Formula:
        """The body, the only immediate subformula."""
        return self.body


class Atom(_Named):
    __slots__ = ()


class NegAtom(_Named):
    __slots__ = ()


class Tensor(_Binary):
    __slots__ = ()


class One(_Formula):
    __slots__ = ()


class Plus(_Binary):
    __slots__ = ()


class Zero(_Formula):
    __slots__ = ()


class Par(_Binary):
    __slots__ = ()


class Bot(_Formula):
    __slots__ = ()


class With(_Binary):
    __slots__ = ()


class Top(_Formula):
    __slots__ = ()


class Bang(_Unary):
    __slots__ = ()


class Qm(_Unary):
    __slots__ = ()


Formula = (
    Atom | NegAtom | Tensor | One | Plus | Zero | Par | Bot | With | Top | Bang | Qm
)

#: A context is an ordered tuple of formulas; proofs address it by position.
Context = tuple[Formula, ...]

ONE = One()
ZERO = Zero()
BOT = Bot()
TOP = Top()


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


_DUALS = {
    Atom: NegAtom, NegAtom: Atom, Tensor: Par, Par: Tensor, One: Bot, Bot: One,
    Plus: With, With: Plus, Zero: Top, Top: Zero, Bang: Qm, Qm: Bang,
}


def dual(f: Formula) -> Formula:
    """The involutive De Morgan dual, computed structurally with an explicit
    stack, so depth is not bounded by the recursion limit."""
    done: list[Formula] = []
    # formulas still to dualize; a flagged one has its subformulas' duals
    # on top of ``done``, leftmost on top
    pending = [(f, False)]
    while pending:
        g, ready = pending.pop()
        if type(g) not in _DUALS:
            raise TypeError(f"not a formula: {g!r}")
        data, kids = _shape(g)
        if kids and not ready:
            pending.append((g, True))
            pending.extend((k, False) for k in kids)
            continue
        args = [done.pop() for _ in kids]
        done.append(_DUALS[type(g)](*([] if data is None else [data]), *args))
    return done[0]


_POLARITIES = {
    **dict.fromkeys((Atom, Tensor, One, Plus, Zero, Bang), Polarity.POSITIVE),
    **dict.fromkeys((NegAtom, Par, Bot, With, Top, Qm), Polarity.NEGATIVE),
}


def polarity(f: Formula) -> Polarity:
    """Positive formulas have non-invertible rules; duals swap polarity."""
    p = _POLARITIES.get(type(f))
    if p is None:
        raise TypeError(f"not a formula: {f!r}")
    return p


def labels_in(*roots: Formula) -> list[str]:
    """The labels of ``roots`` left to right, visiting a shared object once."""
    labels, seen, pending = [], set(), [*reversed(roots)]
    while pending:
        g = pending.pop()
        t = type(g)
        if (t in _UNARY or t in _BINARY) and id(g) not in seen:
            seen.add(id(g))
            if t in _UNARY:
                labels.append(g.label)
                pending.append(g.body)
            else:
                pending += g.right, g.left
    return labels


_NAMED = frozenset({Atom, NegAtom})
_BINARY = frozenset({Tensor, Plus, Par, With})
_UNARY = frozenset({Bang, Qm})


def _shape(f: Formula) -> tuple[str | None, tuple[Formula, ...]]:
    """A node's own data (atom name or label) and its immediate subformulas."""
    t = type(f)
    if t in _BINARY:
        return None, (f.left, f.right)
    if t in _UNARY:
        return f.label, (f.body,)
    if t in _NAMED:
        return f.name, ()
    return None, ()


def intern_table(*roots: Formula) -> dict[int, int]:
    """Number every formula object inside ``roots``; equal formulas share a number.

    This is hash-consing after Filliâtre & Conchon, *Type-Safe Modular
    Hash-Consing* (ML 2006), done once per search: the table maps ``id(obj)``
    of each sub-object to its equality class, so a multiset of formulas keys
    as a sorted tuple of small ints instead of a hash that walks every formula.

    Invariant: the table is valid only for sub-objects of ``roots``, and only
    while the roots are alive (ids are reused after an object dies).  The
    searches keep the goal alive for the whole call and only take formulas
    apart, never build new ones, so every formula they meet is such a
    sub-object.  Any other object is absent and its lookup raises ``KeyError``.
    """
    table: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    pending = [*roots]
    while pending:
        f = pending.pop()
        if id(f) in table:
            continue
        t = type(f)
        if t in _BINARY:
            if (left := table.get(id(f.left))) is None or (right := table.get(id(f.right))) is None:
                pending += f, f.right, f.left  # numbered after its parts
                continue
            shape = t, left, right
        elif t in _UNARY:
            if (body := table.get(id(f.body))) is None:
                pending += f, f.body
                continue
            shape = t, f.label, body
        else:
            shape = t, f.name if t in _NAMED else None
        table[id(f)] = classes.setdefault(shape, len(classes))
    return table


def context_key(table: dict[int, int], ctx: Context) -> tuple[int, ...]:
    """The context as a multiset: sorted class numbers from :func:`intern_table`."""
    return tuple(sorted(map(table.__getitem__, map(id, ctx))))


def class_firsts(table: dict[int, int], ctx: Context) -> list[int]:
    """The position of the first formula of each equality class, in context order.

    Equal formulas are interchangeable, so a rule applied at any of them
    gives the same premises as multisets: both searches expand only these.
    """
    firsts: dict[int, int] = {}
    for i, f in enumerate(ctx):
        firsts.setdefault(table[id(f)], i)
    return list(firsts.values())


class Sequent(Record):
    """A one-sided sequent: an ordered context and at most one formula under
    focus.  Construction does no check, for a premise may be empty: ``bot``
    on ``|- bot`` leaves ``|-``."""

    __slots__ = __match_args__ = ("context", "focus")

    def __init__(self, context: Context, focus: Formula | None = None):
        setfield(self, "context", tuple(context))
        setfield(self, "focus", focus)

    def __len__(self) -> int:
        return len(self.context)

    def unfocused(self) -> Context:
        """The context of an unfocused goal, which needs a formula and no focus."""
        if self.focus is not None:
            raise ValueError("an unfocused sequent has no focus")
        if not self.context:
            raise ValueError("a sequent needs at least one formula")
        return self.context
