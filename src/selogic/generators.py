"""Seeded random instances for property tests.

Everything takes an explicit :class:`random.Random` so callers control
reproducibility.  Contexts come provable-biased: roughly half pair a random
formula with its dual, which is always derivable, so proof search
exercises both outcomes.
"""

from __future__ import annotations

import random

from .formulas import (
    BOT,
    ONE,
    TOP,
    ZERO,
    Atom,
    Bang,
    Context,
    Formula,
    NegAtom,
    Par,
    Plus,
    Qm,
    Tensor,
    With,
    dual,
)
from .minsky import Configuration, Entry, Machine, validate_machine
from .signatures import Signature, close_signature

_LABEL_POOL = ("u", "v", "w", "k")
_ATOM_POOL = ("x", "y", "z")


def random_signature(rng: random.Random) -> Signature:
    labels = _LABEL_POOL[: rng.randint(1, len(_LABEL_POOL))]
    pairs = tuple(
        (u, v) for u in labels for v in labels if u != v and rng.random() < 0.25
    )
    bare = close_signature(labels, (), pairs)
    seeds = [u for u in labels if rng.random() < 0.4]
    unbounded = {v for v in labels for u in seeds if (u, v) in bare.order}
    return close_signature(labels, unbounded, pairs)


def random_formula(
    rng: random.Random,
    sig: Signature,
    budget: int = 6,
    atoms: tuple[str, ...] = _ATOM_POOL,
) -> Formula:
    """A formula with at most ``budget`` connectives, over the given atoms."""
    if budget <= 0 or rng.random() < 0.2:
        name = rng.choice(atoms)
        return rng.choice(
            (Atom(name), NegAtom(name), Atom(name), NegAtom(name), ONE, BOT, TOP, ZERO)
        )
    kind = rng.choice(("tensor", "par", "plus", "with", "bang", "qm", "qm"))
    if kind in ("bang", "qm"):
        label = rng.choice(sorted(sig.labels))
        body = random_formula(rng, sig, budget - 1, atoms)
        return Bang(label, body) if kind == "bang" else Qm(label, body)
    lbudget = rng.randint(0, budget - 1)
    left = random_formula(rng, sig, lbudget, atoms)
    right = random_formula(rng, sig, budget - 1 - lbudget, atoms)
    match kind:
        case "tensor":
            return Tensor(left, right)
        case "par":
            return Par(left, right)
        case "plus":
            return Plus(left, right)
        case _:
            return With(left, right)


def random_context(
    rng: random.Random,
    sig: Signature,
    atoms: tuple[str, ...] = _ATOM_POOL,
) -> Context:
    if rng.random() < 0.55:
        f = random_formula(rng, sig, rng.randint(1, 4), atoms)
        ctx = [f, dual(f)]
        unb = sorted(sig.unbounded)
        if unb and rng.random() < 0.3:
            # an extra unbounded question mark never breaks derivability
            ctx.append(Qm(rng.choice(unb), random_formula(rng, sig, 2, atoms)))
        rng.shuffle(ctx)
        return tuple(ctx)
    return tuple(
        random_formula(rng, sig, rng.randint(1, 5), atoms)
        for _ in range(rng.randint(1, 3))
    )


def random_machine(rng: random.Random) -> tuple[Machine, Configuration]:
    """A valid machine plus an initial configuration.

    One state usually carries a halt entry, so a fair share of the machines
    actually halt; the rest loop or get stuck, which the tests want too.
    """
    n = rng.randint(2, 4)
    work = [f"q{i}" for i in range(n)]
    halting = "qh"
    entries: list[Entry] = []
    halter = rng.choice(work) if rng.random() < 0.8 else None
    for s in work:
        others = [t for t in work if t != s]
        if s == halter:
            entries.append(Entry(s, "halt", halting))
            continue
        roll = rng.random()
        if roll < 0.45:
            instr = rng.choice(("incra", "incrb", "halt"))
            if instr == "halt":
                entries.append(Entry(s, "halt", halting))
            else:
                entries.append(Entry(s, instr, rng.choice(others)))
        elif roll < 0.8:
            reg = rng.choice("ab")
            dec, test = ("decra", "isza") if reg == "a" else ("decrb", "iszb")
            entries.append(Entry(s, dec, rng.choice(others)))
            entries.append(Entry(s, test, rng.choice(others)))
        elif roll < 0.9:
            reg = rng.choice("ab")
            entries.append(Entry(s, "decra" if reg == "a" else "decrb", rng.choice(others)))
        # otherwise: no entry at all, the state is a dead end
    machine = Machine(frozenset(work) | {halting}, halting, tuple(entries))
    validate_machine(machine)
    init = Configuration("q0", rng.randint(0, 3), rng.randint(0, 3))
    return machine, init
