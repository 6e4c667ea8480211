"""Immutable values as plain ``__slots__`` classes.

Each class declares its fields once, as ``__slots__`` and
``__match_args__``, and sets them in a hand-written ``__init__``: through
:func:`fill`, or on hot paths one :data:`setfield` per field.  Nothing is
generated when a class is created, so importing the package costs little
more than compiling it.  The proof nodes stay dataclasses, for
``dataclasses.fields`` and ``replace``, but declare ``init=False,
eq=False, repr=False``, so no method is generated for them either.

Every class here has the value semantics of a frozen dataclass, the same
``repr`` included.  :class:`Record` compares and hashes by fields; formulas
and proof nodes (:class:`ProofNode`) are trees of any depth, and walk them
with an explicit stack, so depth is not bounded by the recursion limit.
"""

from __future__ import annotations

from operator import attrgetter

#: Sets a field of a frozen instance; only ``__init__`` calls it.
setfield = object.__setattr__


def fill(value, *fields) -> None:
    """Set every field of a new value, in ``__match_args__`` order."""
    for name, field in zip(value.__match_args__, fields, strict=True):
        setfield(value, name, field)


class Value:
    """A frozen value, shown as a dataclass would show it.

    Assigning or deleting a field raises ``AttributeError``.  ``repr``
    writes nested values, and tuples of them, with an explicit stack.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since fields cannot be set
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))

    def __repr__(self):
        # strings on the stack are output, values are still to be written
        out, pending = [], [self]
        while pending:
            x = pending.pop()
            if type(x) is str:
                out.append(x)
                continue
            parts = [f"{type(x).__qualname__}("]
            for i, name in enumerate(x.__match_args__):
                field = getattr(x, name)
                parts.append(f"{', ' if i else ''}{name}=")
                if isinstance(field, Value):
                    parts.append(field)
                elif type(field) is tuple and field and isinstance(field[0], Value):
                    for j, item in enumerate(field):
                        parts += ", " if j else "(", item
                    parts.append(",)" if len(field) == 1 else ")")
                else:
                    parts.append(repr(field))
            parts.append(")")
            pending += reversed(parts)
        return "".join(out)


class Record(Value):
    """A value equal to another of its class when their fields are equal."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))


class ProofNode(Value):
    """A proof node: its last field is the tuple of premises, the others
    are its own data.  ``==`` and ``hash`` walk the tree with an explicit
    stack, as :func:`~selogic.unfocused.proof_nodes` does."""

    __slots__ = ()

    def _flat(self) -> list:
        """The (type, data, arity) triples of the nodes in pre-order, which
        determine the tree."""
        out, pending = [], [self]
        while pending:
            x = pending.pop()
            out += type(x), tuple(map(x.__getattribute__, x.__match_args__[:-1])), len(x.premises)
            pending += x.premises
        return out

    def __eq__(self, other):
        if not isinstance(other, ProofNode):
            return NotImplemented
        return self is other or self._flat() == other._flat()

    def __hash__(self):
        return hash(tuple(self._flat()))
