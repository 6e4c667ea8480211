import pytest

from selogic.certificates import parse_focused_proof
from selogic.corpus import load_corpus
from selogic.errors import (
    AtomClash,
    CheckError,
    MalformedCertificate,
    Reason,
    TraceMismatch,
    UnknownState,
)
from selogic.focusing import (
    UDECIDE,
    FProof,
    check_focused,
    count_decides,
    defocus,
)
from selogic.formulas import NegAtom, Qm, Sequent
from selogic.minsky import Configuration, Entry, Halted, Machine, run
from selogic.parsing import parse_sequent, print_formula
from selogic.prover import Proved, prove_focused
from selogic.reduction import (
    ReductionBundle,
    encode_config,
    encode_halting,
    encoding_signature,
    entry_element,
    proof_from_trace,
    trace_from_proof,
)
from selogic.unfocused import CONTR, check_unfocused, count_rule, proof_size


def test_encoding_signature():
    s = encoding_signature()
    assert s.labels == frozenset({"inf", "a", "b"})
    assert s.unbounded == frozenset({"inf"})
    assert ("a", "inf") in s.order and ("b", "inf") in s.order
    assert ("a", "b") not in s.order and ("inf", "a") not in s.order


def test_encode_config_lays_out_tokens_then_state():
    ctx = encode_config(Configuration("q3", 2, 1))
    assert [print_formula(f) for f in ctx] == [
        "?a ~__ra",
        "?a ~__ra",
        "?b ~__rb",
        "~q3",
    ]


@pytest.mark.parametrize(
    "entry,text",
    [
        (Entry("q0", "halt", "qh"), "(q0 * ~__h)"),
        (Entry("q0", "incra", "q1"), "(q0 * (~q1 | ?a ~__ra))"),
        (Entry("q0", "incrb", "q1"), "(q0 * (~q1 | ?b ~__rb))"),
        (Entry("q0", "decra", "q1"), "((q0 * !a __ra) * ~q1)"),
        (Entry("q0", "decrb", "q1"), "((q0 * !b __rb) * ~q1)"),
        (Entry("q0", "isza", "q1"), "(q0 * !b ~q1)"),
        (Entry("q0", "iszb", "q1"), "(q0 * !a ~q1)"),
    ],
)
def test_entry_elements(entry, text):
    assert print_formula(entry_element(entry)) == text


def test_goal_is_the_wrapped_table_plus_the_configuration():
    m, init = load_corpus("incra_halt")
    bundle = encode_halting(m, init)
    n = len(bundle.table)
    assert bundle.goal[:n] == tuple(Qm("inf", f) for f in bundle.table)
    assert bundle.goal[n:] == (NegAtom("q0"),)
    # entry positions first, then the two drains and the finisher
    assert [print_formula(f) for f in bundle.table[len(m.entries):]] == [
        "((__h * !a __ra) * ~__h)",
        "((__h * !b __rb) * ~__h)",
        "(__h * !inf 1)",
    ]


def test_drain_trio_only_with_a_halt_entry():
    m, init = load_corpus("loop")
    bundle = encode_halting(m, init)
    assert len(bundle.table) == 2
    assert bundle.table[len(m.entries):] == ()


def test_reserved_atoms_collide_with_state_names():
    m = Machine(frozenset({"__h", "qh"}), "qh", (Entry("__h", "halt", "qh"),))
    with pytest.raises(AtomClash):
        encode_halting(m, Configuration("__h", 0, 0))


def test_init_state_must_be_declared():
    m, init = load_corpus("halt_only")
    with pytest.raises(UnknownState):
        encode_halting(m, Configuration("nowhere", 0, 0))


CENSUS = {
    # name: (decides, focused size, unfocused rules, contractions)
    "halt_only": (3, None, 14, 2),
    "incra_halt": (7, 25, 28, 4),
    "incrb_halt": (7, 25, 28, 4),
    "gated_zero": (4, None, 22, 3),
    "drain_a": (13, None, 47, 6),
    "drain_b": (13, None, 47, 6),
    "transfer_ab": (18, None, 64, 9),
}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_certificates_from_traces(name):
    decides, fsize, urules, contractions = CENSUS[name]
    m, init = load_corpus(name)
    bundle = encode_halting(m, init)
    out = run(m, init, max_steps=200)
    assert isinstance(out, Halted)
    cert = proof_from_trace(bundle, out.trace)
    goal = Sequent(bundle.goal)
    check_focused(bundle.signature, goal, cert)
    assert count_decides(cert) == decides
    if fsize is not None:
        assert proof_size(cert) == fsize
    u = defocus(cert, bundle.signature, goal)
    check_unfocused(bundle.signature, Sequent(bundle.goal), u)
    assert proof_size(u) == urules
    assert count_rule(u, CONTR) == contractions
    assert trace_from_proof(bundle, cert) == out.trace


def test_empty_trace_has_no_certificate():
    m, init = load_corpus("already_halted")
    bundle = encode_halting(m, init)
    assert run(m, init, max_steps=10) == Halted(())
    with pytest.raises(ValueError):
        proof_from_trace(bundle, ())


def test_trace_mismatch_wrong_step():
    m, init = load_corpus("incra_halt")
    bundle = encode_halting(m, init)
    with pytest.raises(TraceMismatch):
        proof_from_trace(bundle, ("incrb", "halt"))


def test_trace_mismatch_stops_early():
    m, init = load_corpus("incra_halt")
    bundle = encode_halting(m, init)
    with pytest.raises(TraceMismatch):
        proof_from_trace(bundle, ("incra",))


def test_trace_mismatch_continues_past_halting():
    m, init = load_corpus("incra_halt")
    bundle = encode_halting(m, init)
    with pytest.raises(TraceMismatch):
        proof_from_trace(bundle, ("incra", "halt", "incra"))


def test_trace_mismatch_disabled_guard():
    m, init = load_corpus("stuck")
    bundle = encode_halting(m, init)
    with pytest.raises(TraceMismatch):
        proof_from_trace(bundle, ("decra",))


def test_prover_proofs_extract_to_the_simulator_trace():
    for name in ("halt_only", "incra_halt", "gated_zero"):
        m, init = load_corpus(name)
        bundle = encode_halting(m, init)
        out = run(m, init, max_steps=200)
        budget = {"halt_only": 4, "incra_halt": 6, "gated_zero": 5}[name]
        proved = prove_focused(bundle.signature, Sequent(bundle.goal), max_decides=budget)
        assert isinstance(proved, Proved)
        assert trace_from_proof(bundle, proved.proof) == out.trace, name


def test_foreign_certificate_is_malformed():
    ma, inita = load_corpus("halt_only")
    mb, initb = load_corpus("incra_halt")
    cert = proof_from_trace(encode_halting(ma, inita), ("halt",))
    with pytest.raises(MalformedCertificate):
        trace_from_proof(encode_halting(mb, initb), cert)


@pytest.mark.parametrize("principal", [999, None, -1])
def test_udecide_position_is_checked_before_it_is_read(principal):
    m, init = load_corpus("halt_only")
    bundle = encode_halting(m, init)
    with pytest.raises(MalformedCertificate) as e:
        trace_from_proof(bundle, FProof(UDECIDE, principal=principal))
    assert str(e.value) == (
        "not a certificate for this goal: context-mismatch at root: "
        f"position {principal} out of range for context of {len(bundle.goal)}"
    )
    cause = e.value.__cause__
    assert isinstance(cause, CheckError)
    assert (cause.reason, cause.path) == (Reason.CONTEXT_MISMATCH, ())
    assert str(e.value) == f"not a certificate for this goal: {cause}"


def test_defocus_walks_the_certificate_once(walks):
    m, init = load_corpus("drain_a")
    bundle = encode_halting(m, init)
    proof = proof_from_trace(bundle, run(m, init, max_steps=200).trace)
    defocus(proof, bundle.signature, Sequent(bundle.goal))
    assert walks == [proof]


# One step's branch on a hand-built goal: udecide the table's q0 element and
# close the state atom, leaving the rest to top.
_STEP = "(udecide 0 (ftensor (kept) (left 1) (finit 0) (blur (top 1))))"


@pytest.mark.parametrize(
    "goal,elements,proof,message",
    [
        ("|- ?inf (q0 * top), ~q0", 1, _STEP, "certificate never fires a halt instruction"),
        (
            "|- ?inf (q0 * top), (~q0 & ~q0)",
            1,
            f"(with 1 {_STEP} {_STEP})",
            "instruction steps spread across parallel branches",
        ),
        ("|- ?inf (q0 * top), ~q0", 0, _STEP, "udecide focuses a formula outside the instruction table"),
    ],
)
def test_trace_from_proof_rejects_what_is_not_one_halting_run(goal, elements, proof, message):
    m, init = load_corpus("incra_halt")
    goal = parse_sequent(goal).context
    table = tuple(f.body for f in goal[:elements])
    bundle = ReductionBundle(encoding_signature(), m, init, table, goal)
    with pytest.raises(MalformedCertificate) as e:
        trace_from_proof(bundle, parse_focused_proof(proof))
    assert str(e.value) == message
