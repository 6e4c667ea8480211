import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from selogic.corpus import corpus_names, load_corpus
from selogic.errors import (
    HaltFromHalting,
    HaltingTarget,
    MachineError,
    NondeterministicState,
    ParseError,
    SelfLoop,
    UnknownState,
)
from selogic.generators import random_machine
from selogic.minsky import (
    INSTRUCTIONS,
    Configuration,
    Entry,
    Halted,
    Machine,
    OutOfFuel,
    Stuck,
    fired_entry,
    halting_config,
    parse_machine,
    parse_trace,
    print_machine,
    print_trace,
    run,
    step,
    validate_machine,
)


def machine(*entries, states=("q0", "q1", "qh"), halting="qh"):
    return Machine(frozenset(states), halting, tuple(entries))


def test_validate_accepts_a_decrement_test_pair():
    m = machine(Entry("q0", "decra", "q1"), Entry("q0", "isza", "q1"), Entry("q1", "halt", "qh"))
    validate_machine(m)


def test_validate_rejects_undeclared_states():
    with pytest.raises(UnknownState):
        validate_machine(machine(Entry("q0", "incra", "q9")))
    with pytest.raises(UnknownState):
        validate_machine(machine(Entry("q9", "incra", "q0")))
    with pytest.raises(UnknownState):
        validate_machine(Machine(frozenset({"q0"}), "qh", ()))


def test_validate_rejects_unknown_instruction():
    with pytest.raises(MachineError):
        validate_machine(machine(Entry("q0", "jump", "q1")))


def test_validate_rejects_self_loop():
    with pytest.raises(SelfLoop):
        validate_machine(machine(Entry("q0", "incra", "q0")))


def test_validate_rejects_jumping_into_the_halting_state():
    with pytest.raises(HaltingTarget):
        validate_machine(machine(Entry("q0", "incra", "qh")))


def test_validate_rejects_entries_leaving_the_halting_state():
    with pytest.raises(HaltFromHalting):
        validate_machine(machine(Entry("qh", "incra", "q0")))


def test_validate_rejects_overlapping_guards():
    with pytest.raises(NondeterministicState):
        validate_machine(machine(Entry("q0", "incra", "q1"), Entry("q0", "incrb", "q1")))
    with pytest.raises(NondeterministicState):
        validate_machine(machine(Entry("q0", "decra", "q1"), Entry("q0", "incrb", "q1")))
    with pytest.raises(NondeterministicState):
        validate_machine(machine(Entry("q0", "halt", "qh"), Entry("q0", "isza", "q1")))
    # decra fires on a >= 1, iszb on b == 0: both can be enabled at once
    with pytest.raises(NondeterministicState):
        validate_machine(machine(Entry("q0", "decra", "q1"), Entry("q0", "iszb", "q1")))


def test_halt_entries_must_target_the_halting_state():
    with pytest.raises(MachineError):
        validate_machine(machine(Entry("q0", "halt", "q1")))


def test_fired_entry_respects_guards():
    m = machine(Entry("q0", "decra", "q1"), Entry("q0", "isza", "q1"))
    assert fired_entry(m, Configuration("q0", 0, 0)).instruction == "isza"
    assert fired_entry(m, Configuration("q0", 2, 0)).instruction == "decra"
    assert fired_entry(m, Configuration("q1", 0, 0)) is None


# Each instruction's next configuration (state, a, b) from q0 at registers
# (0, 0), (1, 0), (0, 1) and (1, 1); None where its guard blocks it.
STEPS = {
    "halt": [("qh", 0, 0)] * 4,
    "incra": [("q1", 1, 0), ("q1", 2, 0), ("q1", 1, 1), ("q1", 2, 1)],
    "incrb": [("q1", 0, 1), ("q1", 1, 1), ("q1", 0, 2), ("q1", 1, 2)],
    "decra": [None, ("q1", 0, 0), None, ("q1", 0, 1)],
    "decrb": [None, None, ("q1", 0, 0), ("q1", 1, 0)],
    "isza": [("q1", 0, 0), None, ("q1", 0, 1), None],
    "iszb": [("q1", 0, 0), ("q1", 1, 0), None, None],
}


def test_step_applies_register_effects():
    m = machine(Entry("q0", "incra", "q1"), Entry("q1", "halt", "qh"))
    mnemonic, after = step(m, Configuration("q0", 0, 0))
    assert mnemonic == "incra"
    assert after == Configuration("q1", 1, 0)
    # halting zeroes both registers
    mnemonic, c = step(m, Configuration("q1", 3, 4))
    assert mnemonic == "halt"
    assert c == halting_config(m)
    assert sorted(STEPS) == sorted(INSTRUCTIONS)
    for instr, expected in STEPS.items():
        m = machine(Entry("q0", instr, "qh" if instr == "halt" else "q1"))
        for (a, b), after in zip([(0, 0), (1, 0), (0, 1), (1, 1)], expected):
            got = step(m, Configuration("q0", a, b))
            assert got == (None if after is None else (instr, Configuration(*after))), (instr, a, b)


def test_guard_overlap_of_every_instruction_pair():
    disjoint = {frozenset({"decra", "isza"}), frozenset({"decrb", "iszb"})}
    pairs = list(combinations_with_replacement(INSTRUCTIONS, 2))
    assert len(pairs) == 28
    for i1, i2 in pairs:
        m = machine(
            Entry("q0", i1, "qh" if i1 == "halt" else "q1"),
            Entry("q0", i2, "qh" if i2 == "halt" else "q2"),
            states=("q0", "q1", "q2", "qh"),
        )
        if frozenset({i1, i2}) in disjoint:
            validate_machine(m)
        else:
            with pytest.raises(NondeterministicState):
                validate_machine(m)


def test_run_rejects_an_unknown_instruction_of_an_unvalidated_machine():
    m = machine(Entry("q0", "jump", "qh"))
    with pytest.raises(MachineError, match="^unknown instruction 'jump'$"):
        run(m, Configuration("q0", 0, 0), max_steps=5)


def test_run_outcomes():
    m = machine(Entry("q0", "incra", "q1"), Entry("q1", "halt", "qh"))
    out = run(m, Configuration("q0", 0, 0), max_steps=10)
    assert out == Halted(("incra", "halt"))

    stuck = machine(Entry("q0", "decra", "q1"))
    out = run(stuck, Configuration("q0", 0, 0), max_steps=10)
    assert isinstance(out, Stuck) and out.trace == ()

    loop = machine(Entry("q0", "incra", "q1"), Entry("q1", "decra", "q0"))
    out = run(loop, Configuration("q0", 0, 0), max_steps=9)
    assert isinstance(out, OutOfFuel) and len(out.trace) == 9


def test_run_checks_for_the_halting_configuration_first():
    m = machine(Entry("q0", "halt", "qh"))
    assert run(m, halting_config(m), max_steps=5) == Halted(())
    # halting state with leftover register content is not the halting
    # configuration, and no entry can leave it: stuck
    out = run(m, Configuration("qh", 1, 0), max_steps=5)
    assert isinstance(out, Stuck)


def test_machine_text_roundtrip():
    m = machine(
        Entry("q0", "decra", "q1"),
        Entry("q0", "isza", "q1"),
        Entry("q1", "halt", "qh"),
    )
    init = Configuration("q0", 2, 0)
    m2, init2 = parse_machine(print_machine(m, init))
    assert m2 == m and init2 == init


@given(st.integers(0, 2**32 - 1))
def test_machine_text_roundtrip_random(seed):
    m, init = random_machine(random.Random(seed))
    m2, init2 = parse_machine(print_machine(m, init))
    assert m2 == m and init2 == init


def test_machine_parse_errors():
    with pytest.raises(ParseError):
        parse_machine("halting: qh\ninit: q0 a=0 b=0\n")
    with pytest.raises(ParseError) as e:
        parse_machine("states: q0 qh\nhalting: qh\ninit: q0 a=x b=0\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_machine("states: q0 qh\nhalting: qh\ninit: q0 a=-1 b=0\n")
    with pytest.raises(UnknownState):
        parse_machine("states: q0 qh\nhalting: qh\ninit: qz a=0 b=0\n")


def test_trace_text_roundtrip():
    trace = ("incra", "decra", "isza", "halt")
    assert parse_trace(print_trace(trace)) == trace
    with pytest.raises(ParseError) as e:
        parse_trace("incra\nfly\n")
    assert e.value.line == 2


def test_corpus_is_complete_and_valid():
    names = corpus_names()
    assert len(names) >= 10
    for name in names:
        m, init = load_corpus(name)
        validate_machine(m)
        assert init.state in m.states


def test_corpus_expected_outcomes():
    expected = {
        "halt_only": ("halt",),
        "already_halted": (),
        "incra_halt": ("incra", "halt"),
        "incrb_halt": ("incrb", "halt"),
        "gated_zero": ("isza", "halt"),
        "drain_a": ("decra", "decra", "decra", "isza", "halt"),
        "drain_b": ("decrb", "decrb", "decrb", "iszb", "halt"),
        "transfer_ab": ("decra", "incrb", "decra", "incrb", "isza", "halt"),
    }
    for name, trace in expected.items():
        m, init = load_corpus(name)
        assert run(m, init, max_steps=200) == Halted(trace), name
    for name in ("loop", "gated_one"):
        m, init = load_corpus(name)
        assert isinstance(run(m, init, max_steps=200), OutOfFuel), name
    m, init = load_corpus("stuck")
    assert isinstance(run(m, init, max_steps=200), Stuck)


def test_fuel_equal_to_the_run_length_is_enough():
    # the halting configuration is checked once more after the last step
    halting = 0
    for name in corpus_names():
        m, init = load_corpus(name)
        full = run(m, init, max_steps=200)
        if not isinstance(full, Halted):
            continue
        halting += 1
        n = len(full.trace)
        assert run(m, init, max_steps=n) == full, name
        if n:  # already_halted halts at fuel 0
            short = run(m, init, max_steps=n - 1)
            assert isinstance(short, OutOfFuel) and short.trace == full.trace[:-1], name
    assert halting == 8


def test_gated_pair_is_one_machine_two_configurations():
    m0, c0 = load_corpus("gated_zero")
    m1, c1 = load_corpus("gated_one")
    assert m0 == m1
    assert (c0.a, c1.a) == (0, 1)
