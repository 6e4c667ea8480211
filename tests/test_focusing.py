import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from selogic.corpus import load_corpus
from selogic.errors import CheckError, Reason
from selogic.focusing import (
    BLUR,
    DECIDE,
    FBANG,
    FINIT,
    FONE,
    FPLUS1,
    FPLUS2,
    FProof,
    FTENSOR,
    LDECIDE,
    UDECIDE,
    DECIDE_RULES,
    check_focused,
    defocus,
    fpremise_plans,
    is_neutral,
)
from selogic.formulas import Bang, NegAtom, Par, Plus, Polarity, Qm, Sequent, Tensor, With, polarity
from selogic.generators import random_context, random_formula, random_signature
from selogic.parsing import parse_formula, parse_sequent
from selogic.prover import prove_focused
from selogic.records import proof_nodes, rule_counts
from selogic.reduction import encode_halting
from selogic.signatures import is_unbounded, leq
from selogic.unfocused import (
    BANG,
    CONTR,
    INIT,
    ONE_RULE,
    TENSOR,
    UProof,
    check_unfocused,
    materialize,
    premise_plans,
)
from test_prover import HALTING_BUDGETS


def fgoal(text, focus=None):
    return Sequent(parse_sequent(text).context, focus)


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
        assert is_neutral((f,)) == _neutral_by_polarity(f)


# --- the plan kernel against the per-position layout it replaced ----------


def _reference_part(f, k):
    match f:
        case Tensor(a, b) | Plus(a, b) | Par(a, b) | With(a, b):
            return a if k == 0 else b
        case Bang(_, body) | Qm(_, body):
            return body
    raise ValueError(f"formula has no part {k}: {f!r}")


def _reference_resolve(seq, src):
    match src[0]:
        case "focus":
            return seq.focus
        case "fpart":
            return _reference_part(seq.focus, src[1])
        case "part":
            return _reference_part(seq.context[src[1]], src[2])
    return seq.context[src[1]]  # "keep" and "copy"


def _reference_premises(seq, node):
    """The reference definition: one source per premise position, resolved
    one position at a time, for a node both checkers accept."""
    n, p, rule = len(seq.context), node.principal, node.rule
    keeps = lambda it: [("keep", i) for i in it]
    around = lambda *new: keeps(range(p)) + list(new) + keeps(range(p + 1, n))
    match rule:
        case "par":
            plans = [(around(("part", p, 0), ("part", p, 1)), None)]
        case "bot" | "weak":
            plans = [(around(), None)]
        case "with":
            plans = [(around(("part", p, 0)), None), (around(("part", p, 1)), None)]
        case "plus1" | "plus2" | "qm" | "bang":
            plans = [(around(("part", p, int(rule == "plus2"))), None)]
        case "contr":
            plans = [(keeps(range(p + 1)) + [("copy", p)] + keeps(range(p + 1, n)), None)]
        case "tensor":
            left = sorted(set(node.split) | {p})
            right = sorted((set(range(n)) - {p} - set(node.split)) | {p})
            side = lambda poss, k: [("part", p, k) if i == p else ("keep", i) for i in poss]
            plans = [(side(left, 0), None), (side(right, 1), None)]
        case "decide":
            plans = [(around(), ("keep", p))]
        case "ldecide":
            plans = [(around(), ("part", p, 0))]
        case "udecide":
            plans = [(keeps(range(n)), ("part", p, 0))]
        case "blur":
            plans = [(keeps(range(n)) + [("focus",)], None)]
        case "fplus1" | "fplus2":
            plans = [(keeps(range(n)), ("fpart", int(rule == "fplus2")))]
        case "ftensor":
            kept, split = set(node.kept), set(node.split)
            rest = set(range(n)) - kept - split
            plans = [(keeps(sorted(kept | split)), ("fpart", 0)), (keeps(sorted(kept | rest)), ("fpart", 1))]
        case "fbang":
            plans = [(keeps(sorted(node.kept)) + [("fpart", 0)], None)]
        case _:
            plans = []
    return [
        (tuple(_reference_resolve(seq, src) for src in ctx_plan),
         None if focus_src is None else _reference_resolve(seq, focus_src))
        for ctx_plan, focus_src in plans
    ]


def _candidate_nodes(rng, sig, seq, focused):
    """Every rule at every position, with random and maximal position lists."""
    ctx, n = seq.context, len(seq.context)
    subset = lambda pool: tuple(sorted(i for i in pool if rng.random() < 0.5))
    unbounded = [i for i, g in enumerate(ctx) if isinstance(g, Qm) and is_unbounded(sig, g.label)]
    if not focused:
        for p in range(n):
            for rule in ("par", "bot", "with", "plus1", "plus2", "qm", "bang", "weak", "contr", "top"):
                yield UProof(rule, principal=p)
            yield UProof(TENSOR, principal=p, split=subset(i for i in range(n) if i != p))
        yield UProof(INIT, pair=(0, 1))
        yield UProof("one")
        return
    for p in range(n):
        for rule in (DECIDE, LDECIDE, UDECIDE, FINIT, "par", "bot", "with", "top"):
            yield FProof(rule, principal=p)
    for rule in (BLUR, FONE, FPLUS1, FPLUS2):
        yield FProof(rule)
    kept = subset(unbounded)
    yield FProof(FTENSOR, kept=kept, split=subset(i for i in range(n) if i not in kept))
    yield FProof(FTENSOR, kept=tuple(unbounded), split=())
    above = tuple(
        i for i, g in enumerate(ctx)
        if isinstance(seq.focus, Bang) and isinstance(g, Qm) and leq(sig, seq.focus.label, g.label)
    )
    for kept in (subset(range(n)), subset(above), above):
        yield FProof(FBANG, kept=kept)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_plan_kernel_agrees_with_per_position_premises(seed):
    rng = random.Random(seed)
    sig = random_signature(rng)
    ctx = sum((random_context(rng, sig) for _ in range(rng.randint(1, 3))), ())
    focus = random_formula(rng, sig, budget=3)
    promoted = Bang(rng.choice(sorted(sig.labels)), focus)
    exponentials = tuple(g for g in ctx if isinstance(g, Qm))
    compared = 0
    for focused, seq in (
        (False, Sequent(ctx)),
        (True, Sequent(ctx)),
        (True, Sequent(ctx, focus)),
        (True, Sequent(exponentials, promoted)),
    ):
        plans_of = fpremise_plans if focused else premise_plans
        for node in _candidate_nodes(rng, sig, seq, focused):
            try:
                plans = plans_of(sig, seq, node)
            except CheckError:
                continue
            got = [materialize(plan, seq) for plan in plans]
            want = _reference_premises(seq, node)
            assert len(got) == len(want), node
            for g, (context, focus_formula) in zip(got, want):
                assert len(g.context) == len(context) and all(map(operator.is_, g.context, context)), node
                assert g.focus is focus_formula, node
            compared += 1
    assert compared > 0


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
    (prem,) = (materialize(plan, goal) for plan in fpremise_plans(sig, goal, node))
    assert prem == Sequent((parse_formula("x"),), parse_formula("~x"))
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
    (prem,) = (materialize(plan, goal) for plan in fpremise_plans(sig, goal, node))
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
    counts = rule_counts(proof)
    assert sum(counts[r] for r in DECIDE_RULES) == 2
    assert counts.total() == 4


def test_counters_walk_spines_deeper_than_the_recursion_limit():
    proof = FProof(FONE)
    for k in range(19_999):
        proof = FProof(BLUR, premises=(proof,)) if k % 2 else FProof(DECIDE, principal=0, premises=(proof,))
    counts = rule_counts(proof)
    assert counts.total() == 20_000
    assert sum(counts[r] for r in DECIDE_RULES) == 10_000


def test_blur_only_on_negative_focus(sig):
    goal = Sequent(parse_sequent("|- ~x").context, parse_formula("x"))
    rejects(sig, goal, FProof(BLUR, premises=(FIN0,)), Reason.BLUR_ON_POSITIVE)


def test_ftensor_splits_and_copies(sig):
    goal = fgoal("|- ~x, ~y, ?inf z")
    node = FProof(FTENSOR, kept=(2,), split=(0,))
    focused = Sequent(goal.context, parse_formula("(x * y)"))
    left, right = (materialize(plan, focused) for plan in fpremise_plans(sig, focused, node))
    assert left == Sequent(parse_sequent("|- ~x, ?inf z").context, parse_formula("x"))
    assert right == Sequent(parse_sequent("|- ~y, ?inf z").context, parse_formula("y"))


def test_ftensor_rejects_copying_bounded_formulas(sig):
    focused = Sequent(parse_sequent("|- ~x, ~y, ?u z").context, parse_formula("(x * y)"))
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
    focused = Sequent(parse_sequent("|- ?inf y").context, parse_formula("!u 1"))
    plans = fpremise_plans(sig, focused, FProof(FBANG, kept=(0,)))
    assert len(plans) == 1
    blocked = Sequent(parse_sequent("|- ?v y").context, parse_formula("!u 1"))
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
        Sequent(parse_sequent("|- (1 | bot), ~x").context, parse_formula("x")),
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
    assert rule_counts(u)[CONTR] == 1
    assert rule_counts(u)["weak"] == 1


# --- where defocus sends an ftensor's copies ---------------------------------
#
# Each goal below decides on a tensor and copies ``?inf z`` into both
# premises; a premise that closes at ~z udecides it.

USE_Z = FProof(BLUR, premises=(FProof(UDECIDE, principal=0, premises=(FIN1,)),))


def defocused(sig, text, ftensor):
    goal = fgoal(text)
    proof = FProof(DECIDE, principal=0, premises=(ftensor,))
    check_focused(sig, goal, proof)
    u = defocus(proof, sig, goal)
    check_unfocused(sig, Sequent(goal.context), u)
    return u


def test_a_copy_only_the_right_premise_udecides_goes_right(sig):
    u = defocused(sig, "|- (x * ~z), ~x, ?inf z",
                  FProof(FTENSOR, kept=(1,), split=(0,), premises=(FIN0, USE_Z)))
    # no contraction at the tensor, and no weakening on the left
    assert u.rule == TENSOR and u.split == (1,)
    assert u.premises[0].rule == INIT
    assert rule_counts(u)[CONTR] == 1  # the udecide's


def test_a_copy_both_premises_udecide_is_contracted(sig):
    u = defocused(sig, "|- (~z * ~z), ?inf z",
                  FProof(FTENSOR, kept=(0,), split=(), premises=(USE_Z, USE_Z)))
    assert u.rule == CONTR
    assert u.premises[0].rule == TENSOR
    assert rule_counts(u)[CONTR] == 3


def test_a_copy_only_the_left_premise_udecides_goes_left(sig):
    u = defocused(sig, "|- (~z * x), ~x, ?inf z",
                  FProof(FTENSOR, kept=(1,), split=(), premises=(USE_Z, FIN0)))
    assert u.rule == TENSOR and u.split == (2,)
    assert u.premises[1].rule == INIT
    assert rule_counts(u)[CONTR] == 1


def test_fbang_drops_a_kept_copy_that_went_to_the_other_premise(sig):
    # the left premise keeps ?inf z under its promotion but never udecides
    # it, so the copy goes right and the bang keeps nothing
    promote = FProof(FBANG, kept=(0,), premises=(FProof(DECIDE, principal=1, premises=(FProof(FONE),)),))
    u = defocused(sig, "|- (!u 1 * ~z), ?inf z",
                  FProof(FTENSOR, kept=(0,), split=(), premises=(promote, USE_Z)))
    assert u.rule == TENSOR and u.split == ()
    assert [node.rule for node in proof_nodes(u.premises[0])] == [BANG, ONE_RULE]


@pytest.mark.parametrize("name,budget", sorted(HALTING_BUDGETS.items()))
def test_prover_proofs_defocus_with_one_contraction_per_udecide(name, budget):
    bundle = encode_halting(*load_corpus(name))
    goal = Sequent(bundle.goal)
    proof = prove_focused(bundle.signature, goal, max_decides=budget).proof
    u = defocus(proof, bundle.signature, goal)
    check_unfocused(bundle.signature, goal, u)
    assert rule_counts(u)[CONTR] == rule_counts(proof)[UDECIDE] > 0
