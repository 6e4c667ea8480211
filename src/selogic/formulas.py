"""Formula syntax for one-sided subexponential linear logic.

Formulas are in negation normal form: negation appears only on atoms, and
the indexed exponentials come as a bang/question-mark pair over labels drawn
from an ambient signature.  All nodes are frozen dataclasses, so formulas,
contexts and sequents are hashable values that can be shared freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class _Binary:
    __slots__ = ()

    def part(self, k: int) -> "Formula":
        """Immediate subformula ``k``: 0 is the left one, 1 the right one."""
        return self.right if k else self.left


class _Unary:
    __slots__ = ()

    def part(self, k: int) -> "Formula":
        """The body, the only immediate subformula."""
        return self.body


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class NegAtom:
    name: str


@dataclass(frozen=True, slots=True)
class Tensor(_Binary):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class One:
    pass


@dataclass(frozen=True, slots=True)
class Plus(_Binary):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Zero:
    pass


@dataclass(frozen=True, slots=True)
class Par(_Binary):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Bot:
    pass


@dataclass(frozen=True, slots=True)
class With(_Binary):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Bang(_Unary):
    label: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Qm(_Unary):
    label: str
    body: "Formula"


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


def polarity(f: Formula) -> Polarity:
    """Positive formulas have non-invertible rules; duals swap polarity."""
    match f:
        case Atom() | Tensor() | One() | Plus() | Zero() | Bang():
            return Polarity.POSITIVE
        case NegAtom() | Par() | Bot() | With() | Top() | Qm():
            return Polarity.NEGATIVE
    raise TypeError(f"not a formula: {f!r}")


def labels_of(f: Formula) -> frozenset[str]:
    """All subexponential labels occurring in the formula."""
    labels = set()
    pending = [f]
    while pending:
        g = pending.pop()
        if isinstance(g, (Bang, Qm)):
            labels.add(g.label)
            pending.append(g.body)
        elif isinstance(g, (Tensor, Par, Plus, With)):
            pending += (g.left, g.right)
    return frozenset(labels)


def _shape(f: Formula) -> tuple[str | None, tuple[Formula, ...]]:
    """A node's own data (atom name or label) and its immediate subformulas."""
    t = type(f)
    if t is Tensor or t is Plus or t is Par or t is With:
        return None, (f.left, f.right)
    if t is Bang or t is Qm:
        return f.label, (f.body,)
    if t is Atom or t is NegAtom:
        return f.name, ()
    return None, ()


def intern_table(*roots: Formula) -> dict[int, int]:
    """Number every formula object inside ``roots``; equal formulas share a number.

    This is hash-consing after Filliâtre & Conchon, *Type-Safe Modular
    Hash-Consing* (ML 2006), done once per search: the table maps ``id(obj)``
    of each sub-object to its equality class, so a multiset of formulas keys
    as a sorted tuple of small ints instead of a deep dataclass hash.

    Invariant: the table is valid only for sub-objects of ``roots``, and only
    while the roots are alive (ids are reused after an object dies).  The
    searches keep the goal alive for the whole call and only take formulas
    apart, never build new ones, so every formula they meet is such a
    sub-object.  Any other object is absent and its lookup raises ``KeyError``.
    """
    table: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    stack = [(f, False) for f in roots]
    while stack:
        f, ready = stack.pop()
        if id(f) in table:
            continue
        data, kids = _shape(f)
        if ready:
            shape = (type(f), data, *[table[id(k)] for k in kids])
            table[id(f)] = classes.setdefault(shape, len(classes))
        else:
            stack.append((f, True))
            stack.extend((k, False) for k in kids)
    return table


def context_key(table: dict[int, int], ctx: Context) -> tuple[int, ...]:
    """The context as a multiset: sorted class numbers from :func:`intern_table`."""
    return tuple(sorted(map(table.__getitem__, map(id, ctx))))


@dataclass(frozen=True, slots=True)
class Sequent:
    """A one-sided sequent: a nonempty ordered context of formulas."""

    context: Context

    def __post_init__(self):
        if not isinstance(self.context, tuple):
            object.__setattr__(self, "context", tuple(self.context))
        if not self.context:
            raise ValueError("a sequent needs at least one formula")

    def __len__(self) -> int:
        return len(self.context)


@dataclass(frozen=True, slots=True)
class FSequent:
    """A context plus at most one formula under focus; unfocused sequents
    have none.  Both calculi lay out their premises over it."""

    context: Context
    focus: Formula | None = None
