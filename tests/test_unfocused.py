import random

import pytest
from hypothesis import given, settings, strategies as st

from selogic.corpus import load_corpus
from selogic.errors import CheckError, Reason, UnknownLabel
from selogic.focusing import FSequent, defocus
from selogic.formulas import ZERO, Atom, NegAtom, Sequent
from selogic.generators import random_context, random_signature
from selogic.minsky import Configuration, run
from selogic.parsing import parse_formula, parse_sequent, print_sequent
from selogic.reduction import encode_halting, proof_from_trace
from selogic.unfocused import (
    CONTR,
    INIT,
    QM,
    TENSOR,
    UProof,
    WEAK,
    check_unfocused,
    count_rule,
    materialize,
    premise_plans,
    proof_size,
    search_unfocused,
)

from reindex import permute_proof


def ctx(*texts):
    return tuple(parse_formula(t) for t in texts)


def rejects(sig, goal, proof, reason):
    with pytest.raises(CheckError) as e:
        check_unfocused(sig, goal, proof)
    assert e.value.reason is reason
    return e.value


INIT_01 = UProof(INIT, pair=(0, 1))
INIT_10 = UProof(INIT, pair=(1, 0))


def test_init_accepts_both_orientations(sig):
    check_unfocused(sig, parse_sequent("|- x, ~x"), INIT_01)
    check_unfocused(sig, parse_sequent("|- ~x, x"), INIT_10)


def test_init_rejections(sig):
    rejects(sig, parse_sequent("|- x, ~y"), INIT_01, Reason.CONTEXT_MISMATCH)
    rejects(sig, parse_sequent("|- x, ~x, 1"), INIT_01, Reason.CONTEXT_MISMATCH)
    rejects(sig, parse_sequent("|- x, ~x"), UProof(INIT), Reason.CONTEXT_MISMATCH)
    # orientation matters: the pair names (atom, negation) in that order
    rejects(sig, parse_sequent("|- x, ~x"), INIT_10, Reason.CONTEXT_MISMATCH)


def test_tensor_split_routes_the_context(sig):
    goal = parse_sequent("|- (x * y), ~x, ~y")
    node = UProof(TENSOR, principal=0, split=(1,))
    seq = FSequent(goal.context)
    prems = tuple(materialize(plan, seq).context for plan in premise_plans(sig, seq, node))
    assert prems == (ctx("x", "~x"), ctx("y", "~y"))
    check_unfocused(sig, goal, UProof(TENSOR, principal=0, split=(1,), premises=(INIT_01, INIT_01)))
    # sending ~y left starves the right premise
    bad = UProof(TENSOR, principal=0, split=(1, 2), premises=(INIT_01, INIT_01))
    rejects(sig, goal, bad, Reason.CONTEXT_MISMATCH)


def test_arity_mismatch_is_its_own_reason(sig):
    goal = parse_sequent("|- (x * y), ~x, ~y")
    bad = UProof(TENSOR, principal=0, split=(1,), premises=(INIT_01,))
    err = rejects(sig, goal, bad, Reason.ARITY_MISMATCH)
    assert err.path == ()


def test_unknown_rule_tag(sig):
    # decide is a focused rule; the unfocused calculus has no such tag
    goal = parse_sequent("|- x, ~x")
    err = rejects(sig, goal, UProof("decide", principal=0), Reason.CONTEXT_MISMATCH)
    assert (err.message, err.path) == ("unknown rule tag 'decide'", ())


def test_error_path_addresses_the_offending_premise(sig):
    goal = parse_sequent("|- (x * y), ~x, ~y")
    bad = UProof(TENSOR, principal=0, split=(1,), premises=(INIT_01, INIT_10))
    err = rejects(sig, goal, bad, Reason.CONTEXT_MISMATCH)
    assert err.path == (1,)


def test_par_then_tensor(sig):
    goal = parse_sequent("|- (~x | ~y), (x * y)")
    proof = UProof(
        "par",
        principal=0,
        premises=(
            UProof(TENSOR, principal=2, split=(0,), premises=(INIT_10, INIT_10)),
        ),
    )
    check_unfocused(sig, goal, proof)


def test_with_checks_both_branches(sig):
    goal = parse_sequent("|- (x & 1)")
    attempt = UProof("with", principal=0, premises=(UProof(INIT), UProof("one")))
    # |- x alone is no axiom
    rejects(sig, goal, attempt, Reason.CONTEXT_MISMATCH)
    goal = parse_sequent("|- ((1 + x) & 1)")
    proof = UProof(
        "with",
        principal=0,
        premises=(
            UProof("plus1", principal=0, premises=(UProof("one"),)),
            UProof("one"),
        ),
    )
    check_unfocused(sig, goal, proof)


def test_promotion_requires_question_marks_above_the_label(sig):
    goal = parse_sequent("|- !u x, ?u ~x")
    proof = UProof(
        "bang",
        principal=0,
        premises=(UProof(QM, principal=1, premises=(INIT_01,)),),
    )
    check_unfocused(sig, goal, proof)

    # v is not above u, and a bare atom is not question-marked at all
    blocked = parse_sequent("|- !u x, ?v ~x")
    rejects(sig, blocked, proof, Reason.PROMOTION_BLOCKED)
    head = UProof("bang", principal=0, premises=(INIT_01,))
    rejects(sig, parse_sequent("|- !u x, ~x"), head, Reason.PROMOTION_BLOCKED)


def test_structural_rules_only_on_unbounded_labels(sig):
    goal = parse_sequent("|- ?u x, 1")
    rejects(sig, goal, UProof(WEAK, principal=0, premises=(UProof("one"),)),
            Reason.STRUCTURAL_ON_BOUNDED)
    rejects(sig, goal, UProof(CONTR, principal=0, premises=(UProof("one"),)),
            Reason.STRUCTURAL_ON_BOUNDED)
    check_unfocused(
        sig,
        parse_sequent("|- ?inf x, 1"),
        UProof(WEAK, principal=0, premises=(UProof("one"),)),
    )


def test_contraction_copy_lands_after_the_original(sig):
    goal = parse_sequent("|- ?inf ~x, (x * x)")
    node = UProof(CONTR, principal=0)
    seq = FSequent(goal.context)
    (prem,) = (materialize(plan, seq).context for plan in premise_plans(sig, seq, node))
    assert prem == ctx("?inf ~x", "?inf ~x", "(x * x)")
    proof = UProof(
        CONTR,
        principal=0,
        premises=(
            UProof(
                TENSOR,
                principal=2,
                split=(0,),
                premises=(
                    UProof(QM, principal=0, premises=(INIT_10,)),
                    UProof(QM, principal=0, premises=(INIT_10,)),
                ),
            ),
        ),
    )
    check_unfocused(sig, goal, proof)


def test_labels_must_be_declared(sig):
    goal = parse_sequent("|- ?zz x, 1")
    with pytest.raises(UnknownLabel):
        check_unfocused(sig, goal, UProof(WEAK, principal=0, premises=(UProof("one"),)))


def test_unfocused_goals_have_no_focus(sig):
    # dropping the focus would accept init on the unprovable |- x, ~x ; 0;
    # test_sequent_requires_a_formula checks the empty goal the same way
    goal = Sequent((Atom("x"), NegAtom("x")), ZERO)
    with pytest.raises(ValueError):
        check_unfocused(sig, goal, INIT_01)
    with pytest.raises(ValueError):
        search_unfocused(sig, goal, max_rules=4, max_contractions=0)
    with pytest.raises(ValueError):
        print_sequent(goal)


def test_proof_statistics(sig):
    goal = parse_sequent("|- (x * y), ~x, ~y")
    proof = UProof(TENSOR, principal=0, split=(1,), premises=(INIT_01, INIT_01))
    assert proof_size(proof) == 3
    assert count_rule(proof, INIT) == 2
    assert count_rule(proof, CONTR) == 0


def test_statistics_walk_spines_deeper_than_the_recursion_limit():
    proof = INIT_01
    for k in range(20_000):
        proof = UProof(CONTR if k % 4 == 0 else WEAK, principal=0, premises=(proof,))
    assert proof_size(proof) == 20_001
    assert count_rule(proof, CONTR) == 5_000
    assert count_rule(proof, INIT) == 1


SEARCH_CASES = [
    ("|- x, ~x", True, 1, 0),
    ("|- 1", True, 1, 0),
    ("|- (x * y), ~x, ~y", True, 3, 0),
    ("|- (~x | ~y), (x * y)", True, 4, 0),
    ("|- (x + y), ~x", True, 2, 0),
    ("|- (x & y), ~x, ~y", False, 8, 2),
    ("|- top, 0", True, 1, 0),
    ("|- !u x, ?u ~x", True, 4, 0),
    ("|- !u x, ~x", False, 8, 2),
    ("|- ?inf ~x, ?inf ~x, (x * x)", True, 8, 2),
]


@pytest.mark.parametrize("text,provable,max_rules,max_contractions", SEARCH_CASES)
def test_search_hand_cases(sig, text, provable, max_rules, max_contractions):
    goal = parse_sequent(text)
    proof = search_unfocused(
        sig, goal, max_rules=max_rules, max_contractions=max_contractions
    )
    assert (proof is not None) == provable
    if proof is not None:
        check_unfocused(sig, goal, proof)


def test_search_respects_the_contraction_budget(sig):
    goal = parse_sequent("|- ?inf ~x, (x * x)")
    assert search_unfocused(sig, goal, max_rules=8, max_contractions=0) is None
    proof = search_unfocused(sig, goal, max_rules=8, max_contractions=1)
    assert proof is not None
    assert count_rule(proof, CONTR) == 1
    check_unfocused(sig, goal, proof)


def test_search_respects_the_rule_budget(sig):
    goal = parse_sequent("|- (x * y), ~x, ~y")
    assert search_unfocused(sig, goal, max_rules=2, max_contractions=0) is None
    assert search_unfocused(sig, goal, max_rules=3, max_contractions=0) is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_search_output_always_checks(seed):
    rng = random.Random(seed)
    s = random_signature(rng)
    goal = Sequent(random_context(rng, s))
    proof = search_unfocused(sig=s, goal=goal, max_rules=10, max_contractions=2)
    if proof is not None:
        check_unfocused(s, goal, proof)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_permuted_contexts_are_equiderivable(seed):
    """Derivability only depends on the multiset: re-indexed proofs check."""
    rng = random.Random(seed)
    s = random_signature(rng)
    goal = Sequent(random_context(rng, s))
    proof = search_unfocused(sig=s, goal=goal, max_rules=9, max_contractions=2)
    if proof is None:
        return
    perm = list(range(len(goal.context)))
    rng.shuffle(perm)
    perm = tuple(perm)
    moved = permute_proof(s, goal.context, proof, perm)
    check_unfocused(s, Sequent(tuple(goal.context[p] for p in perm)), moved)


def test_permute_proof_reindexes_a_six_hundred_step_certificate():
    # the defocused drain_a run from a = 600 is thousands of nodes deep
    m, _ = load_corpus("drain_a")
    init = Configuration("q0", 600, 0)
    bundle = encode_halting(m, init)
    sig, goal = bundle.signature, bundle.goal
    proof = defocus(proof_from_trace(bundle, run(m, init, 1000).trace), sig, FSequent(goal))
    reverse = tuple(reversed(range(len(goal))))
    moved = permute_proof(sig, goal, proof, reverse)
    check_unfocused(sig, Sequent(tuple(goal[p] for p in reverse)), moved)
