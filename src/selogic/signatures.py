"""Subexponential signatures: labels, a pre-order, and an unbounded set.

A signature declares the labels that may index the exponentials, a pre-order
between them (stored reflexively and transitively closed), and the subset of
labels whose question-marked formulas admit weakening and contraction.  That
subset must be upward closed: anything above an unbounded label is unbounded.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnknownLabel, UpwardClosureViolation
from .formulas import Sequent, labels_in
from .records import Record, fill

_IDENT_HEAD = "abcdefghijklmnopqrstuvwxyz_"


def is_identifier(s: str) -> bool:
    """Lexical shape shared by labels, atoms and machine states.

    A leading underscore is allowed so that reserved encoding atoms such as
    ``__h`` stay inside the printable grammar.
    """
    return (
        bool(s)
        and s[0] in _IDENT_HEAD
        and all(c.isascii() and (c.isalnum() or c == "_") for c in s)
    )


class Signature(Record):
    """An immutable, already-closed signature.

    ``order`` holds every related pair, including the reflexive ones, so
    ``leq`` is a plain membership test.  Build instances with
    :func:`close_signature` rather than directly.
    """

    __slots__ = __match_args__ = ("labels", "unbounded", "order")

    def __init__(
        self, labels: frozenset[str], unbounded: frozenset[str], order: frozenset[tuple[str, str]]
    ):
        fill(self, labels, unbounded, order)


def _closure(labels: frozenset[str], base: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    reach: dict[str, set[str]] = {u: {u} for u in labels}
    for u, v in base:
        reach[u].add(v)
    changed = True
    while changed:
        changed = False
        for u in labels:
            extra = set()
            for v in reach[u]:
                extra |= reach[v]
            if not extra <= reach[u]:
                reach[u] |= extra
                changed = True
    return frozenset((u, v) for u in labels for v in reach[u])


def close_signature(
    labels: Iterable[str],
    unbounded: Iterable[str],
    order: Iterable[tuple[str, str]],
) -> Signature:
    """Validate the raw declaration and close the order.

    Raises :class:`UnknownLabel` for labels used but not declared (or
    lexically malformed), and :class:`UpwardClosureViolation` when a bounded
    label sits above an unbounded one.
    """
    label_set = frozenset(labels)
    for u in label_set:
        if not is_identifier(u):
            raise UnknownLabel(f"malformed label {u!r}")
    unbounded_set = frozenset(unbounded)
    base = tuple(order)
    for u in unbounded_set:
        if u not in label_set:
            raise UnknownLabel(f"unbounded label {u!r} is not declared")
    for u, v in base:
        if u not in label_set:
            raise UnknownLabel(f"label {u!r} in order is not declared")
        if v not in label_set:
            raise UnknownLabel(f"label {v!r} in order is not declared")
    closed = _closure(label_set, base)
    for u, v in closed:
        if u in unbounded_set and v not in unbounded_set:
            raise UpwardClosureViolation(
                f"{u!r} is unbounded but {v!r} above it is not"
            )
    return Signature(labels=label_set, unbounded=unbounded_set, order=closed)


def leq(sig: Signature, u: str, v: str) -> bool:
    """Whether ``u <= v`` in the signature's pre-order."""
    if u not in sig.labels:
        raise UnknownLabel(f"label {u!r} is not declared")
    if v not in sig.labels:
        raise UnknownLabel(f"label {v!r} is not declared")
    return (u, v) in sig.order


def is_unbounded(sig: Signature, u: str) -> bool:
    if u not in sig.labels:
        raise UnknownLabel(f"label {u!r} is not declared")
    return u in sig.unbounded


def check_goal(sig: Signature, goal: Sequent, *, focused: bool) -> None:
    """Raise :class:`UnknownLabel` for a label ``sig`` does not declare, and
    ``ValueError`` for an unfocused goal that ``goal.unfocused()`` rejects."""
    ctx = goal.context if focused else goal.unfocused()
    for u in labels_in(*ctx, *([] if goal.focus is None else [goal.focus])):
        if u not in sig.labels:
            raise UnknownLabel(f"label {u!r} is not declared in the signature")
