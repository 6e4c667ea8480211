"""Two-register counter machines with guarded instructions.

A machine is a finite set of states with a distinguished halting state and a
list of entries ``(source, instruction, target)``.  One table, :data:`_TABLE`,
gives each of the seven instructions its guard and its change to a and b:

    halt    always enabled; jumps to the halting state and zeroes both
            registers, so the run lands exactly on the halting configuration
    incra   always enabled; a += 1
    incrb   always enabled; b += 1
    decra   enabled when a >= 1; a -= 1
    decrb   enabled when b >= 1; b -= 1
    isza    enabled when a == 0
    iszb    enabled when b == 0

Validation enforces determinism (disjoint guard domains per source state),
forbids self-loops, and keeps the halting state a sink that only halt can
reach — so "the run reached the halting configuration" coincides with "the
trace ends in halt", which the logical encoding relies on.
"""

from __future__ import annotations

from pathlib import Path

from .errors import (
    HaltFromHalting,
    HaltingTarget,
    MachineError,
    NondeterministicState,
    ParseError,
    SelfLoop,
    UnknownState,
)
from .records import Record, fill, setfield
from .signatures import is_identifier

HALT = "halt"
INCRA = "incra"
INCRB = "incrb"
DECRA = "decra"
DECRB = "decrb"
ISZA = "isza"
ISZB = "iszb"

# Each instruction's guard, None for "always enabled" or (register,
# required-zero?), which carves out half of that register's axis, and its
# change to a and b; halt's is unused, as halt lands on halting_config.
_TABLE: dict[str, tuple[tuple[str, bool] | None, int, int]] = {
    HALT: (None, 0, 0),
    INCRA: (None, 1, 0),
    INCRB: (None, 0, 1),
    DECRA: (("a", False), -1, 0),
    DECRB: (("b", False), 0, -1),
    ISZA: (("a", True), 0, 0),
    ISZB: (("b", True), 0, 0),
}

INSTRUCTIONS = tuple(_TABLE)


def _row(instruction: str) -> tuple[tuple[str, bool] | None, int, int]:
    try:
        return _TABLE[instruction]
    except KeyError:
        raise MachineError(f"unknown instruction {instruction!r}") from None


class Entry(Record):
    __slots__ = __match_args__ = ("source", "instruction", "target")

    def __init__(self, source: str, instruction: str, target: str):
        fill(self, source, instruction, target)


class Configuration(Record):
    __slots__ = __match_args__ = ("state", "a", "b")

    def __init__(self, state: str, a: int, b: int):
        setfield(self, "state", state)
        setfield(self, "a", a)
        setfield(self, "b", b)


class Machine(Record):
    __slots__ = __match_args__ = ("states", "halting", "entries")

    def __init__(self, states: frozenset[str], halting: str, entries: tuple[Entry, ...]):
        fill(self, states, halting, entries)


class Halted(Record):
    __slots__ = __match_args__ = ("trace",)

    def __init__(self, trace: tuple[str, ...]):
        fill(self, trace)


class _Unfinished(Record):
    __slots__ = __match_args__ = ("config", "trace")

    def __init__(self, config: Configuration, trace: tuple[str, ...]):
        fill(self, config, trace)


class Stuck(_Unfinished):
    __slots__ = ()


class OutOfFuel(_Unfinished):
    __slots__ = ()


RunResult = Halted | Stuck | OutOfFuel


def _guards_overlap(i1: str, i2: str) -> bool:
    g1, g2 = _TABLE[i1][0], _TABLE[i2][0]
    if g1 is None or g2 is None:
        return True
    if g1[0] != g2[0]:
        return True  # different registers: both guards satisfiable at once
    return g1[1] == g2[1]


def validate_machine(m: Machine) -> None:
    """Raise a :class:`~selogic.errors.MachineError` subclass on any defect."""
    if m.halting not in m.states:
        raise UnknownState(f"halting state {m.halting!r} is not declared")
    for st in m.states:
        if not is_identifier(st):
            raise UnknownState(f"malformed state name {st!r}")
    for e in m.entries:
        _row(e.instruction)  # raises on an unknown instruction
        if e.source not in m.states:
            raise UnknownState(f"entry source {e.source!r} is not declared")
        if e.target not in m.states:
            raise UnknownState(f"entry target {e.target!r} is not declared")
        if e.source == m.halting:
            raise HaltFromHalting(f"entry leaves the halting state {m.halting!r}")
        if e.instruction == HALT:
            if e.target != m.halting:
                raise MachineError(
                    f"halt entry from {e.source!r} must target the halting state"
                )
        else:
            if e.target == m.halting:
                raise HaltingTarget(
                    f"{e.instruction} entry from {e.source!r} jumps into the halting state"
                )
            if e.source == e.target:
                raise SelfLoop(f"entry loops on state {e.source!r}")
    for idx, e1 in enumerate(m.entries):
        for e2 in m.entries[idx + 1 :]:
            if e1.source == e2.source and _guards_overlap(e1.instruction, e2.instruction):
                raise NondeterministicState(
                    f"entries {e1.instruction!r} and {e2.instruction!r} from "
                    f"{e1.source!r} have overlapping guards"
                )


def halting_config(m: Machine) -> Configuration:
    return Configuration(m.halting, 0, 0)


def _enabled(e: Entry, c: Configuration) -> bool:
    guard = _row(e.instruction)[0]
    if guard is None:
        return True
    value = c.a if guard[0] == "a" else c.b
    return value == 0 if guard[1] else value >= 1


def fired_entry(m: Machine, c: Configuration) -> Entry | None:
    """The unique entry enabled at ``c``, or ``None`` when the machine is stuck."""
    if c.state not in m.states:
        raise UnknownState(f"configuration state {c.state!r} is not declared")
    if c.a < 0 or c.b < 0:
        raise ValueError("registers cannot be negative")
    hits = [e for e in m.entries if e.source == c.state and _enabled(e, c)]
    assert len(hits) <= 1, "validated machines are deterministic"
    return hits[0] if hits else None


def apply_entry(m: Machine, e: Entry, c: Configuration) -> Configuration:
    """The configuration after ``e``, enabled at ``c``, fires."""
    if e.instruction == HALT:
        return halting_config(m)
    _, da, db = _TABLE[e.instruction]
    return Configuration(e.target, c.a + da, c.b + db)


def step(m: Machine, c: Configuration) -> tuple[str, Configuration] | None:
    """The unique enabled transition, or ``None`` when the machine is stuck."""
    e = fired_entry(m, c)
    return None if e is None else (e.instruction, apply_entry(m, e, c))


def run(m: Machine, c0: Configuration, max_steps: int) -> RunResult:
    """Drive the machine until it halts, sticks, or runs out of fuel.

    Halting means reaching the halting configuration (halting state, both
    registers zero); starting there counts with an empty trace.
    """
    c = c0
    trace: list[str] = []
    target = halting_config(m)
    for _ in range(max_steps):
        if c == target:
            return Halted(tuple(trace))
        outcome = step(m, c)
        if outcome is None:
            return Stuck(c, tuple(trace))
        instr, c = outcome
        trace.append(instr)
    if c == target:
        return Halted(tuple(trace))
    return OutOfFuel(c, tuple(trace))


# --- machine files ----------------------------------------------------------

def parse_machine(text: str, filename: str | None = None) -> tuple[Machine, Configuration]:
    """Line-oriented format::

        states: q0 q1 qf
        halting: qf
        init: q0 a=2 b=0
        q0 incra q1      # entry lines: source instruction [target]
        q1 halt

    ``halt`` entries omit the target.  ``#`` comments and blank lines are
    allowed.  The parsed machine is validated before being returned.
    """
    states: list[str] | None = None
    halting: str | None = None
    init: Configuration | None = None
    entries: list[Entry] = []

    def bad(lineno: int, msg: str):
        raise ParseError(msg, lineno, 1, filename)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, rest = stripped.partition(":")
        if sep and key.strip() in ("states", "halting", "init"):
            key = key.strip()
            rest = rest.strip()
            if key == "states":
                states = rest.split()
            elif key == "halting":
                halting = rest
            else:
                parts = rest.split()
                if (
                    len(parts) != 3
                    or not parts[1].startswith("a=")
                    or not parts[2].startswith("b=")
                ):
                    bad(lineno, "init line must look like 'init: state a=N b=N'")
                try:
                    a, b = int(parts[1][2:]), int(parts[2][2:])
                except ValueError:
                    bad(lineno, "register values must be integers")
                if a < 0 or b < 0:
                    bad(lineno, "registers cannot be negative")
                init = Configuration(parts[0], a, b)
            continue
        parts = stripped.split()
        if len(parts) == 2 and parts[1] == HALT:
            if halting is None:
                bad(lineno, "halt entry before the 'halting:' line")
            entries.append(Entry(parts[0], HALT, halting))
        elif len(parts) == 3:
            entries.append(Entry(parts[0], parts[1], parts[2]))
        else:
            bad(lineno, f"malformed entry line {stripped!r}")
    if states is None:
        raise ParseError("missing 'states:' line", 1, 1, filename)
    if halting is None:
        raise ParseError("missing 'halting:' line", 1, 1, filename)
    if init is None:
        raise ParseError("missing 'init:' line", 1, 1, filename)
    machine = Machine(frozenset(states), halting, tuple(entries))
    validate_machine(machine)
    if init.state not in machine.states:
        raise UnknownState(f"initial state {init.state!r} is not declared")
    return machine, init


def print_machine(m: Machine, init: Configuration) -> str:
    lines = [
        "states: " + " ".join(sorted(m.states)),
        f"halting: {m.halting}",
        f"init: {init.state} a={init.a} b={init.b}",
    ]
    for e in m.entries:
        if e.instruction == HALT:
            lines.append(f"{e.source} halt")
        else:
            lines.append(f"{e.source} {e.instruction} {e.target}")
    return "\n".join(lines) + "\n"


def load_machine(path: str | Path) -> tuple[Machine, Configuration]:
    p = Path(path)
    return parse_machine(p.read_text(), filename=str(p))


# --- trace files ------------------------------------------------------------

def parse_trace(text: str, filename: str | None = None) -> tuple[str, ...]:
    trace: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped not in INSTRUCTIONS:
            raise ParseError(f"unknown instruction {stripped!r}", lineno, 1, filename)
        trace.append(stripped)
    return tuple(trace)


def print_trace(trace: tuple[str, ...]) -> str:
    return "".join(f"{i}\n" for i in trace)
