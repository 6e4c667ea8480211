"""The package's records and trees keep the value semantics of frozen
dataclasses without being dataclasses, apart from the proof nodes."""

import copy
import dataclasses
import pickle
import sys

import pytest

import selogic
import selogic.cli  # noqa: F401  (the package, and the one module it leaves out)
from selogic.corpus import load_corpus
from selogic.focusing import FINIT, FProof, FSequent
from selogic.formulas import (
    BOT,
    ONE,
    TOP,
    ZERO,
    Atom,
    Bang,
    Bot,
    NegAtom,
    One,
    Par,
    Plus,
    Qm,
    Sequent,
    Tensor,
    Top,
    With,
    Zero,
)
from selogic.minsky import Configuration, Entry, Halted, Machine, OutOfFuel, Stuck, run
from selogic.prover import Exhausted, Proved, SearchStats, prove_focused
from selogic.reduction import encode_halting
from selogic.signatures import close_signature
from selogic.unfocused import ONE_RULE, TENSOR, UProof


def _samples() -> list:
    """One fresh instance of every immutable record and tree class."""
    m, init = load_corpus("incra_halt")
    bundle = encode_halting(m, init)
    x = Atom("x")
    return [
        x, NegAtom("x"), Tensor(x, ONE), One(), Plus(x, ZERO), Zero(), Par(BOT, x), Bot(),
        With(TOP, x), Top(), Bang("u", x), Qm("u", NegAtom("x")),
        Sequent((x, NegAtom("x"))), FSequent((x,), NegAtom("x")),
        m.entries[0], init, m, run(m, init, 10),
        Stuck(Configuration("q0", 0, 1), ("incrb",)), OutOfFuel(init, ()),
        close_signature({"u", "v"}, {"v"}, {("u", "v")}), bundle,
        prove_focused(bundle.signature, FSequent(bundle.goal), max_decides=6),
        Exhausted(SearchStats(), complete=False, hit_node_cap=True),
        FProof(FINIT, principal=0), UProof(TENSOR, principal=0, split=(), premises=(UProof(ONE_RULE),) * 2),
    ]


def test_only_the_proof_nodes_are_dataclasses():
    # building a dataclass generates and compiles its methods at every import
    classes = {
        obj
        for name, module in list(sys.modules.items())
        if name == "selogic" or name.startswith("selogic.")
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == name
    }
    assert len(classes) > 25
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == {"FProof", "UProof"}


def _sample_id(obj) -> str:
    # one class holds both sequents; the focused one keeps its old test id
    if isinstance(obj, Sequent) and obj.focus is not None:
        return "FSequent"
    return type(obj).__name__


@pytest.mark.parametrize("obj", _samples(), ids=_sample_id)
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name in obj.__match_args__ or ("name",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_equal_records_hash_equal():
    for a, b in zip(_samples(), _samples()):
        assert a is not b and a == b and not a != b, type(a).__name__
        if not isinstance(a, (Proved, Exhausted)):  # they hold the mutable SearchStats
            assert hash(a) == hash(b), type(a).__name__


def test_pickle_and_copy_rebuild_equal_values():
    for obj in [*_samples(), SearchStats(nodes=3, round_nodes=[1, 2])]:
        assert pickle.loads(pickle.dumps(obj)) == obj, type(obj).__name__
        assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj, type(obj).__name__


def test_records_of_another_class_or_other_fields_differ():
    c = Configuration("q0", 1, 0)
    assert c != Configuration("q0", 0, 1) and c != ("q0", 1, 0)
    assert Stuck(c, ()) != OutOfFuel(c, ())
    assert Atom("x") != NegAtom("x") and Bang("u", ONE) != Qm("u", ONE)
    assert FSequent((Atom("x"),)) != FSequent((Atom("x"),), ONE)
    assert FProof(FINIT, principal=0) != FProof(FINIT, principal=1)


def test_reprs_keep_the_dataclass_form():
    assert repr(Halted(("incra", "halt"))) == "Halted(trace=('incra', 'halt'))"
    assert repr(Stuck(Configuration("q", 0, 2), ())) == (
        "Stuck(config=Configuration(state='q', a=0, b=2), trace=())"
    )
    assert repr(Sequent((Atom("x"),), Bang("u", ONE))) == (
        "Sequent(context=(Atom(name='x'),), focus=Bang(label='u', body=One()))"
    )
    assert repr(Sequent((Atom("x"),))) == "Sequent(context=(Atom(name='x'),), focus=None)"
    assert repr(Tensor(NegAtom("x"), Par(BOT, TOP))) == (
        "Tensor(left=NegAtom(name='x'), right=Par(left=Bot(), right=Top()))"
    )
    assert repr(Exhausted(SearchStats(), complete=True)) == (
        "Exhausted(stats=SearchStats(nodes=0, deepest_decides=0, rounds=0, splits=0,"
        " memo_hits=0, filtered=0, round_nodes=[]), complete=True, hit_node_cap=False)"
    )
    assert repr(FProof("decide", principal=2, premises=(FProof(FINIT, principal=0),))) == (
        "FProof(rule='decide', principal=2, split=None, kept=None,"
        " premises=(FProof(rule='finit', principal=0, split=None, kept=None, premises=()),))"
    )
    assert repr(UProof(TENSOR, principal=0, split=(1,), premises=(UProof(ONE_RULE),) * 2)) == (
        "UProof(rule='tensor', principal=0, pair=None, split=(1,), premises=("
        "UProof(rule='one', principal=None, pair=None, split=None, premises=()), "
        "UProof(rule='one', principal=None, pair=None, split=None, premises=())))"
    )


def test_positional_patterns_match():
    match Tensor(Atom("x"), Bang("u", ONE)):
        case Tensor(Atom(name), Bang(label, One())):
            assert (name, label) == ("x", "u")
        case _:
            pytest.fail("no match")
    match Stuck(Configuration("q", 1, 0), ("incra",)):
        case Stuck(Configuration(state, a, b), trace):
            assert (state, a, b, trace) == ("q", 1, 0, ("incra",))
        case _:
            pytest.fail("no match")
    match Entry("q0", "incra", "q1"), Machine(frozenset({"q0"}), "q0", ()):
        case Entry(source, "incra", target), Machine(_, halting, ()):
            assert (source, target, halting) == ("q0", "q1", "q0")
        case _:
            pytest.fail("no match")


def test_fsequent_is_another_name_for_sequent():
    # the benchmark harness reads focusing.FSequent and formulas.Sequent
    assert selogic.FSequent is selogic.Sequent
    assert selogic.focusing.FSequent is selogic.formulas.Sequent


def test_search_stats_stay_mutable_and_unhashable():
    a, b = SearchStats(), SearchStats()
    assert a.round_nodes is not b.round_nodes
    a.nodes += 1
    a.round_nodes.append(1)
    assert (a.nodes, a.round_nodes, b.round_nodes) == (1, [1], [])
    assert a != b and SearchStats(nodes=1, round_nodes=[1]) == a
    with pytest.raises(TypeError):
        hash(a)

