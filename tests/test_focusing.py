import random

import pytest
from hypothesis import given, strategies as st

from selogic.errors import CheckError, Reason
from selogic.focusing import (
    BLUR,
    DECIDE,
    FBANG,
    FINIT,
    FONE,
    FSequent,
    FProof,
    FTENSOR,
    LDECIDE,
    UDECIDE,
    check_focused,
    count_decides,
    defocus,
    fpremise_plans,
    fpremises_of,
    is_neutral,
    is_neutral_formula,
)
from selogic.formulas import NegAtom, Polarity, Qm, Sequent, polarity
from selogic.generators import random_context, random_signature
from selogic.parsing import parse_formula, parse_sequent
from selogic.unfocused import check_unfocused, count_rule, proof_size, CONTR


def fgoal(text, focus=None):
    return FSequent(parse_sequent(text).context, focus)


def rejects(sig, goal, proof, reason):
    with pytest.raises(CheckError) as e:
        check_focused(sig, goal, proof)
    assert e.value.reason is reason
    return e.value


FIN0 = FProof(FINIT, principal=0)
FIN1 = FProof(FINIT, principal=1)


def test_neutrality():
    assert is_neutral(parse_sequent("|- x, ~x, ?u y, !v 0").context)
    assert not is_neutral(parse_sequent("|- x, (y | y)").context)
    assert not is_neutral(parse_sequent("|- bot").context)


def _neutral_by_polarity(f):
    """The reference definition: positive, a negated atom or question-marked."""
    return polarity(f) is Polarity.POSITIVE or isinstance(f, (NegAtom, Qm))


@given(st.integers(0, 2**32 - 1))
def test_neutrality_by_type_agrees_with_polarity(seed):
    rng = random.Random(seed)
    ctx = random_context(rng, random_signature(rng))
    parts = list(ctx)  # every subformula, so each connective shows up
    for f in parts:
        parts += [getattr(f, k) for k in ("left", "right", "body") if hasattr(f, k)]
    assert is_neutral(ctx) == all(map(_neutral_by_polarity, ctx))
    for f in parts:
        assert is_neutral_formula(f) == _neutral_by_polarity(f)
        assert is_neutral((f,)) == _neutral_by_polarity(f)


def test_decide_then_init(sig):
    proof = FProof(DECIDE, principal=0, premises=(FIN0,))
    check_focused(sig, fgoal("|- x, ~x"), proof)


def test_finit_absorbs_unbounded_bystanders(sig):
    proof = FProof(DECIDE, principal=0, premises=(FIN0,))
    check_focused(sig, fgoal("|- x, ~x, ?inf y"), proof)
    rejects(sig, fgoal("|- x, ~x, ?u y"), proof, Reason.LINGERING_LINEAR)
    rejects(sig, fgoal("|- x, ~x, 1"), proof, Reason.LINGERING_LINEAR)


def test_f1_absorbs_unbounded_bystanders(sig):
    proof = FProof(DECIDE, principal=0, premises=(FProof(FONE),))
    check_focused(sig, fgoal("|- 1, ?inf y"), proof)
    rejects(sig, fgoal("|- 1, ?u y"), proof, Reason.LINGERING_LINEAR)


def test_decide_needs_a_neutral_context(sig):
    proof = FProof(DECIDE, principal=0, premises=(FIN0,))
    rejects(sig, fgoal("|- x, ~x, (y | ~y)"), proof, Reason.NOT_NEUTRAL)


def test_decide_flavors(sig):
    # positives are for decide, bounded question marks for ldecide,
    # unbounded ones for udecide; every other combination is refused
    rejects(sig, fgoal("|- ~x, x"),
            FProof(DECIDE, principal=0, premises=(FIN0,)), Reason.FOCUS_ON_NEGATIVE)
    rejects(sig, fgoal("|- ?inf x"),
            FProof(DECIDE, principal=0, premises=(FIN0,)), Reason.FOCUS_ON_NEGATIVE)
    rejects(sig, fgoal("|- ?inf ~x, x"),
            FProof(LDECIDE, principal=0, premises=(FIN0,)), Reason.WRONG_DECIDE_FLAVOR)
    rejects(sig, fgoal("|- ?u ~x, x"),
            FProof(UDECIDE, principal=0, premises=(FIN0,)), Reason.WRONG_DECIDE_FLAVOR)
    rejects(sig, fgoal("|- x, ~x"),
            FProof(LDECIDE, principal=0, premises=(FIN0,)), Reason.CONTEXT_MISMATCH)


def test_ldecide_consumes_its_formula(sig):
    goal = fgoal("|- ?u ~x, x")
    node = FProof(LDECIDE, principal=0)
    (prem,) = fpremises_of(sig, goal, node)
    assert prem == FSequent((parse_formula("x"),), parse_formula("~x"))
    proof = FProof(
        LDECIDE,
        principal=0,
        premises=(
            FProof(BLUR, premises=(FProof(DECIDE, principal=0, premises=(FIN0,)),)),
        ),
    )
    check_focused(sig, goal, proof)


def test_udecide_keeps_its_formula(sig):
    goal = fgoal("|- ?inf ~x, x")
    node = FProof(UDECIDE, principal=0)
    (prem,) = fpremises_of(sig, goal, node)
    assert prem.context == goal.context
    assert prem.focus == parse_formula("~x")
    proof = FProof(
        UDECIDE,
        principal=0,
        premises=(
            FProof(BLUR, premises=(FProof(DECIDE, principal=1, premises=(FIN1,)),)),
        ),
    )
    check_focused(sig, goal, proof)
    assert count_decides(proof) == 2
    assert proof_size(proof) == 4


def test_counters_walk_spines_deeper_than_the_recursion_limit():
    proof = FProof(FONE)
    for k in range(19_999):
        proof = FProof(BLUR, premises=(proof,)) if k % 2 else FProof(DECIDE, principal=0, premises=(proof,))
    assert proof_size(proof) == 20_000
    assert count_decides(proof) == 10_000


def test_blur_only_on_negative_focus(sig):
    goal = FSequent(parse_sequent("|- ~x").context, parse_formula("x"))
    rejects(sig, goal, FProof(BLUR, premises=(FIN0,)), Reason.BLUR_ON_POSITIVE)


def test_ftensor_splits_and_copies(sig):
    goal = fgoal("|- ~x, ~y, ?inf z")
    node = FProof(FTENSOR, kept=(2,), split=(0,))
    focused = FSequent(goal.context, parse_formula("(x * y)"))
    left, right = fpremises_of(sig, focused, node)
    assert left == FSequent(parse_sequent("|- ~x, ?inf z").context, parse_formula("x"))
    assert right == FSequent(parse_sequent("|- ~y, ?inf z").context, parse_formula("y"))


def test_ftensor_rejects_copying_bounded_formulas(sig):
    focused = FSequent(parse_sequent("|- ~x, ~y, ?u z").context, parse_formula("(x * y)"))
    with pytest.raises(CheckError) as e:
        fpremise_plans(sig, focused, FProof(FTENSOR, kept=(2,), split=(0,)))
    assert e.value.reason is Reason.COPIED_BOUNDED
    with pytest.raises(CheckError) as e:
        fpremise_plans(sig, focused, FProof(FTENSOR, kept=(0,), split=(0,)))
    assert e.value.reason is Reason.CONTEXT_MISMATCH


def test_full_tensor_proof(sig):
    goal = fgoal("|- (x * y), ~x, ~y")
    proof = FProof(
        DECIDE,
        principal=0,
        premises=(
            FProof(FTENSOR, kept=(), split=(0,), premises=(FIN0, FIN0)),
        ),
    )
    check_focused(sig, goal, proof)
    u = defocus(proof, sig, goal)
    check_unfocused(sig, Sequent(goal.context), u)


def test_fbang_positive_and_blocked_cases(sig):
    # !u may keep ?inf (u <= inf) but never a bounded ?v that is not above u
    focused = FSequent(parse_sequent("|- ?inf y").context, parse_formula("!u 1"))
    plans = fpremise_plans(sig, focused, FProof(FBANG, kept=(0,)))
    assert len(plans) == 1
    blocked = FSequent(parse_sequent("|- ?v y").context, parse_formula("!u 1"))
    with pytest.raises(CheckError) as e:
        fpremise_plans(sig, blocked, FProof(FBANG, kept=(0,)))
    assert e.value.reason is Reason.PROMOTION_BLOCKED
    # not keeping it is no way out either: it would linger
    with pytest.raises(CheckError) as e:
        fpremise_plans(sig, blocked, FProof(FBANG, kept=()))
    assert e.value.reason is Reason.LINGERING_LINEAR


def test_full_fbang_proof(sig):
    goal = fgoal("|- !u 1, ?inf y")
    proof = FProof(
        DECIDE,
        principal=0,
        premises=(
            FProof(
                FBANG,
                kept=(0,),
                premises=(FProof(DECIDE, principal=1, premises=(FProof(FONE),)),),
            ),
        ),
    )
    check_focused(sig, goal, proof)
    u = defocus(proof, sig, goal)
    check_unfocused(sig, Sequent(goal.context), u)


def test_shared_negative_rules_need_no_focus(sig):
    goal = fgoal("|- (1 | bot)")
    proof = FProof(
        "par",
        principal=0,
        premises=(
            FProof(
                "bot",
                principal=1,
                premises=(FProof(DECIDE, principal=0, premises=(FProof(FONE),)),),
            ),
        ),
    )
    check_focused(sig, goal, proof)
    rejects(
        sig,
        FSequent(parse_sequent("|- (1 | bot), ~x").context, parse_formula("x")),
        proof,
        Reason.CONTEXT_MISMATCH,
    )


def test_with_and_top_shared_rules(sig):
    goal = fgoal("|- (top & top)")
    proof = FProof(
        "with",
        principal=0,
        premises=(FProof("top", principal=0), FProof("top", principal=0)),
    )
    check_focused(sig, goal, proof)


def test_arity_mismatch(sig):
    goal = fgoal("|- x, ~x")
    bad = FProof(DECIDE, principal=0)
    err = rejects(sig, goal, bad, Reason.ARITY_MISMATCH)
    assert err.path == ()


def test_unknown_rule_tag(sig):
    # qm is an unfocused rule; the focused calculus has no such tag
    err = rejects(sig, fgoal("|- ?inf ~x, x"), FProof("qm", principal=0), Reason.CONTEXT_MISMATCH)
    assert (err.message, err.path) == ("unknown rule tag 'qm'", ())


def test_error_path_points_into_the_tree(sig):
    goal = fgoal("|- (x * y), ~x, ~y")
    bad = FProof(
        DECIDE,
        principal=0,
        premises=(FProof(FTENSOR, kept=(), split=(0,), premises=(FIN0, FIN1)),),
    )
    err = rejects(sig, goal, bad, Reason.CONTEXT_MISMATCH)
    assert err.path == (0, 1)


def test_defocus_of_structural_phases(sig):
    # udecide defocuses to a contraction, the absorbing axioms to weakenings
    goal = fgoal("|- ?inf ~x, x")
    proof = FProof(
        UDECIDE,
        principal=0,
        premises=(
            FProof(BLUR, premises=(FProof(DECIDE, principal=1, premises=(FIN1,)),)),
        ),
    )
    check_focused(sig, goal, proof)
    u = defocus(proof, sig, goal)
    useq = Sequent(goal.context)
    check_unfocused(sig, useq, u)
    assert count_rule(u, CONTR) == 1
    assert count_rule(u, "weak") == 1
