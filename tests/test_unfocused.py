import hashlib
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from selogic.certificates import print_unfocused_proof
from selogic.corpus import load_corpus
from selogic.errors import CheckError, Reason, UnknownLabel
from selogic.focusing import (
    BLUR,
    DECIDE,
    FBANG,
    FINIT,
    FONE,
    FPLUS1,
    FTENSOR,
    LDECIDE,
    UDECIDE,
    FProof,
    check_focused,
    defocus,
)
from selogic.formulas import (
    ZERO,
    Atom,
    NegAtom,
    Plus,
    Qm,
    Sequent,
    Tensor,
    With,
    context_key,
    intern_table,
)
from selogic.generators import random_context, random_signature
from selogic.minsky import Configuration, run
from selogic.parsing import parse_formula, parse_sequent, parse_signature, print_sequent
from selogic.records import rule_counts
from selogic.reduction import encode_halting, encoding_signature, proof_from_trace
from selogic.unfocused import (
    BANG,
    BOT_RULE,
    CONTR,
    INIT,
    ONE_RULE,
    PAR,
    PLUS1,
    PLUS2,
    QM,
    TENSOR,
    TOP_RULE,
    UProof,
    WEAK,
    WITH,
    _moves,
    check_unfocused,
    checked_nodes,
    materialize,
    premise_plans,
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
    seq = Sequent(goal.context)
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


NOT_QM = "principal formula is not question-marked"
BLOCKED = (
    "promotion of !u over a context formula that is not question-marked at a label above 'u'"
)
NO_FOCUS = "{} decomposes the focus, but nothing is focused"
DISCARDS = "{} would discard a formula that is not an unbounded question-marked formula"
FTENSOR_LISTS = "ftensor needs kept and left position lists"
FTENSOR_REPEAT = "ftensor position lists repeat a position"

# (goal, certificate, reason, message, path) for every way a rule of the
# unfocused calculus rejects its node; then the shared negative rules under
# the focused checker, given a focus, and every way a focused rule rejects
# its node.  A focused goal is "context ; focus", or the context alone.
REJECTIONS = {
    "top-type": ("|- x, ~x", UProof(TOP_RULE, principal=0), "principal formula is not top", ()),
    "bot-type": ("|- x, ~x", UProof(BOT_RULE, principal=1), "principal formula is not bot", ()),
    "par-type": ("|- x, ~x", UProof(PAR, principal=0), "principal formula is not a par", ()),
    "with-type": ("|- x, ~x", UProof(WITH, principal=0), "principal formula is not a with", ()),
    "plus1-type": ("|- x, ~x", UProof(PLUS1, principal=0), "principal formula is not a plus", ()),
    "plus2-type": ("|- x, ~x", UProof(PLUS2, principal=1), "principal formula is not a plus", ()),
    "qm-type": ("|- !u x, ~x", UProof(QM, principal=0), NOT_QM, ()),
    "bang-type": ("|- ?u x, ~x", UProof(BANG, principal=0), "principal formula is not banged", ()),
    "weak-type": (
        "|- !inf x, 1", UProof(WEAK, principal=0), "weakening needs a question-marked formula", ()
    ),
    "contr-type": (
        "|- x, ~x", UProof(CONTR, principal=1), "contraction needs a question-marked formula", ()
    ),
    "principal-none": ("|- x, ~x", UProof(PAR), "position None out of range for context of 2", ()),
    "principal-past-the-end": (
        "|- x, ~x", UProof(QM, principal=2), "position 2 out of range for context of 2", ()
    ),
    "principal-negative": (
        "|- ?u x, 1", UProof(WEAK, principal=-1), "position -1 out of range for context of 2", ()
    ),
    "weak-bounded": (
        "|- ?u x, 1",
        UProof(WEAK, principal=0, premises=(UProof(ONE_RULE),)),
        ("STRUCTURAL_ON_BOUNDED", "label 'u' does not admit weakening"),
        (),
    ),
    "contr-bounded": (
        "|- ?v x, 1",
        UProof(CONTR, principal=0),
        ("STRUCTURAL_ON_BOUNDED", "label 'v' does not admit contraction"),
        (),
    ),
    "bang-label-not-above": (
        "|- !u x, ?v ~x", UProof(BANG, principal=0), ("PROMOTION_BLOCKED", BLOCKED), ()
    ),
    "bang-bare-formula": (
        "|- ~x, ?inf y, !u x", UProof(BANG, principal=2), ("PROMOTION_BLOCKED", BLOCKED), ()
    ),
    "init-no-pair": ("|- x, ~x", UProof(INIT), "init needs an (atom, negation) position pair", ()),
    "init-three-formulas": (
        "|- x, ~x, 1", INIT_01, "init closes exactly a two-formula context", ()
    ),
    "init-repeated-position": (
        "|- x, ~x", UProof(INIT, pair=(0, 0)), "init closes exactly a two-formula context", ()
    ),
    "init-other-atom": ("|- x, ~y", INIT_01, "init needs an atom facing its negation", ()),
    "init-orientation": ("|- x, ~x", INIT_10, "init needs an atom facing its negation", ()),
    "one-two-formulas": ("|- 1, 1", UProof(ONE_RULE), "the unit rule closes exactly |- 1", ()),
    "one-not-one": ("|- top", UProof(ONE_RULE), "the unit rule closes exactly |- 1", ()),
    "tensor-type": (
        "|- x, ~x", UProof(TENSOR, principal=0, split=()), "principal formula is not a tensor", ()
    ),
    "tensor-no-split": (
        "|- (x * y), ~x, ~y", UProof(TENSOR, principal=0), "tensor needs a split", ()
    ),
    "tensor-repeated-split": (
        "|- (x * y), ~x, ~y",
        UProof(TENSOR, principal=0, split=(1, 1)),
        "tensor split repeats a position",
        (),
    ),
    "tensor-split-past-the-end": (
        "|- (x * y), ~x, ~y",
        UProof(TENSOR, principal=0, split=(3,)),
        "tensor split positions out of range",
        (),
    ),
    "tensor-split-takes-principal": (
        "|- (x * y), ~x, ~y",
        UProof(TENSOR, principal=0, split=(0, 1)),
        "tensor split positions out of range",
        (),
    ),
    "below-a-par": (
        "|- (x | ~x)",
        UProof(PAR, principal=0, premises=(UProof(QM, principal=1),)),
        NOT_QM,
        (0,),
    ),
    "right-of-a-with": (
        "|- (1 & ?inf x)",
        UProof(WITH, principal=0, premises=(UProof(ONE_RULE), UProof(BANG, principal=0))),
        "principal formula is not banged",
        (1,),
    ),
    "focused-par": ("|- (~x | ~y) ; x", FProof(PAR, principal=0), "par applies only without a focus", ()),
    "focused-bot": ("|- bot ; x", FProof(BOT_RULE, principal=0), "bot applies only without a focus", ()),
    "focused-with": ("|- (1 & 1) ; x", FProof(WITH, principal=0), "with applies only without a focus", ()),
    "focused-top": ("|- top ; x", FProof(TOP_RULE, principal=0), "top applies only without a focus", ()),
    "ftensor-no-kept": ("|- ~x, ~y ; (x * y)", FProof(FTENSOR, split=(0,)), FTENSOR_LISTS, ()),
    "ftensor-no-split": ("|- ~x, ~y ; (x * y)", FProof(FTENSOR, kept=()), FTENSOR_LISTS, ()),
    "ftensor-repeated-split": (
        "|- ~x, ~y ; (x * y)", FProof(FTENSOR, kept=(), split=(0, 0)), FTENSOR_REPEAT, ()
    ),
    "ftensor-repeated-kept": (
        "|- ?inf ~x, ~y ; (x * y)", FProof(FTENSOR, kept=(0, 0), split=()), FTENSOR_REPEAT, ()
    ),
    "fbang-no-kept": ("|- ?inf x ; !u ~x", FProof(FBANG), "fbang needs a kept position list", ()),
    "fbang-kept-past-the-end": (
        "|- ?inf x ; !u ~x", FProof(FBANG, kept=(1,)), "fbang kept positions out of range", ()
    ),
    "fbang-repeated-kept": (
        "|- ?inf x ; !u ~x", FProof(FBANG, kept=(0, 0)), "fbang kept positions repeat a position", ()
    ),
    **{
        f"{rule}-{case}": (text, FProof(rule, principal=p), expected, ())
        for rule in (DECIDE, LDECIDE, UDECIDE)
        for case, text, p, expected in (
            ("focused", "|- x ; y", 0, f"{rule} applies only without a focus"),
            ("not-neutral", "|- (x | y), 1", 1, ("NOT_NEUTRAL", "decide requires a neutral context")),
            ("past-the-end", "|- 1", 1, "position 1 out of range for context of 1"),
        )
    },
    "decide-negative": (
        "|- ~x",
        FProof(DECIDE, principal=0),
        ("FOCUS_ON_NEGATIVE", "decide needs a positive formula"),
        (),
    ),
    "ldecide-not-qm": ("|- x", FProof(LDECIDE, principal=0), "ldecide needs a question-marked formula", ()),
    "udecide-not-qm": ("|- x", FProof(UDECIDE, principal=0), "udecide needs a question-marked formula", ()),
    "ldecide-unbounded": (
        "|- ?inf x",
        FProof(LDECIDE, principal=0),
        ("WRONG_DECIDE_FLAVOR", "label 'inf' is unbounded; use udecide"),
        (),
    ),
    "udecide-bounded": (
        "|- ?u x",
        FProof(UDECIDE, principal=0),
        ("WRONG_DECIDE_FLAVOR", "label 'u' is bounded; use ldecide"),
        (),
    ),
    **{
        f"{node.rule}-unfocused": ("|- ~x, 1", node, NO_FOCUS.format(node.rule), ())
        for node in (
            FProof(BLUR),
            FProof(FINIT, principal=0),
            FProof(FONE),
            FProof(FPLUS1),
            FProof(FTENSOR, kept=(), split=()),
            FProof(FBANG, kept=()),
        )
    },
    "blur-type": (
        "|- ~x ; x", FProof(BLUR), ("BLUR_ON_POSITIVE", "blur releases only a negative focus"), ()
    ),
    "finit-type": ("|- ~x ; 1", FProof(FINIT, principal=0), "finit needs an atom under focus", ()),
    "f1-type": ("|- ~x ; x", FProof(FONE), "f1 needs the unit under focus", ()),
    "fplus1-type": ("|- ~x ; x", FProof(FPLUS1), "focus is not a plus", ()),
    "ftensor-type": ("|- ~x ; x", FProof(FTENSOR, kept=(), split=()), "focus is not a tensor", ()),
    "fbang-type": ("|- ~x ; x", FProof(FBANG, kept=()), "focus is not banged", ()),
    "finit-other-atom": (
        "|- ~y ; x", FProof(FINIT, principal=0), "finit needs the focused atom's negation", ()
    ),
    "finit-lingering": (
        "|- ~x, y ; x",
        FProof(FINIT, principal=0),
        ("LINGERING_LINEAR", DISCARDS.format("finit")),
        (),
    ),
    "f1-lingering": ("|- ?inf x, y ; 1", FProof(FONE), ("LINGERING_LINEAR", DISCARDS.format("f1")), ()),
    "fbang-lingering": (
        "|- ?inf x, y ; !u x",
        FProof(FBANG, kept=()),
        ("LINGERING_LINEAR", DISCARDS.format("fbang")),
        (),
    ),
    "ftensor-past-the-end": (
        "|- ~x ; (x * 1)", FProof(FTENSOR, kept=(), split=(1,)), "ftensor positions out of range", ()
    ),
    "ftensor-copied-and-left": (
        "|- ?inf ~x ; (x * 1)",
        FProof(FTENSOR, kept=(0,), split=(0,)),
        "a position cannot be both copied and sent left",
        (),
    ),
    "ftensor-copied-bounded": (
        "|- ?u ~x ; (x * 1)",
        FProof(FTENSOR, kept=(0,), split=()),
        ("COPIED_BOUNDED", "only unbounded question-marked formulas can be copied to both premises"),
        (),
    ),
    "fbang-blocked": (
        "|- ?v x ; !u ~x",
        FProof(FBANG, kept=(0,)),
        (
            "PROMOTION_BLOCKED",
            "promotion of !u can keep only question-marked formulas at labels above 'u'",
        ),
        (),
    ),
    "focused-unknown-tag": ("|- x ; y", FProof("weak", principal=0), "unknown rule tag 'weak'", ()),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_every_rule_rejection_is_pinned(sig, case):
    text, proof, expected, path = REJECTIONS[case]
    reason, message = expected if isinstance(expected, tuple) else ("CONTEXT_MISMATCH", expected)
    if isinstance(proof, FProof):
        context, _, focus = text.partition(" ; ")
        focus = parse_formula(focus) if focus else None
        check, goal = check_focused, Sequent(parse_sequent(context).context, focus)
    else:
        check, goal = check_unfocused, parse_sequent(text)
    with pytest.raises(CheckError) as e:
        check(sig, goal, proof)
    assert (e.value.reason.name, e.value.message, e.value.path) == (reason, message, path)


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
    seq = Sequent(goal.context)
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
    # top closes without reading the undeclared label, so only the goal check sees it
    goal = parse_sequent("|- top, ?zz x")
    top = FProof("top", principal=0)
    with pytest.raises(UnknownLabel):
        check_focused(sig, goal, top)
    with pytest.raises(UnknownLabel):
        defocus(top, sig, goal)


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
    counts = rule_counts(proof)
    assert counts.total() == 3
    assert counts[INIT] == 2
    assert counts[CONTR] == 0


def test_statistics_walk_spines_deeper_than_the_recursion_limit():
    proof = INIT_01
    for k in range(20_000):
        proof = UProof(CONTR if k % 4 == 0 else WEAK, principal=0, premises=(proof,))
    counts = rule_counts(proof)
    assert counts.total() == 20_001
    assert counts[CONTR] == 5_000
    assert counts[INIT] == 1


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
    assert rule_counts(proof)[CONTR] == 1
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
    proof = defocus(proof_from_trace(bundle, run(m, init, 1000).trace), sig, Sequent(goal))
    reverse = tuple(reversed(range(len(goal))))
    moved = permute_proof(sig, goal, proof, reverse)
    check_unfocused(sig, Sequent(tuple(goal[p] for p in reverse)), moved)


def test_search_results_are_pinned_over_two_hundred_selftest_draws():
    # the oracle's printed answers on selftest's first 200 draws at (12, 2);
    # a change to which moves it tries, or in what order, shows here
    rng = random.Random(0)
    lines = []
    for _ in range(200):
        s = random_signature(rng)
        proof = search_unfocused(s, Sequent(random_context(rng, s)), max_rules=12, max_contractions=2)
        lines.append("none" if proof is None else print_unfocused_proof(proof))
    assert sum(line != "none" for line in lines) == 132
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1941f41047adb18d709f2b49f746cd86f9d6315c8ee24d393d38b04b1055e13f"


# Every rule at every position, in the oracle's rule order; plus1 and plus2
# alternate per position.  Tensors try every subset of the other positions.
_REFERENCE_ORDER = ((TOP_RULE,), (BOT_RULE,), (PAR,), (WITH,), (PLUS1, PLUS2), (QM,), (BANG,))


def _every_move(n, contr_left):
    yield from (UProof(INIT, pair=pair) for pair in permutations(range(n), 2))
    yield UProof(ONE_RULE)
    for rules in _REFERENCE_ORDER:
        for p in range(n):
            yield from (UProof(rule, principal=p) for rule in rules)
    for p in range(n):
        others = [i for i in range(n) if i != p]
        for mask in range(1 << len(others)):
            split = tuple(i for b, i in enumerate(others) if mask >> b & 1)
            yield UProof(TENSOR, principal=p, split=split)
    structural = (CONTR, WEAK) if contr_left else (WEAK,)
    for rule in structural:
        yield from (UProof(rule, principal=p) for p in range(n))


def _premise_multisets(s, seq, head):
    prems = [materialize(plan, seq) for plan in premise_plans(s, seq, head)]
    return head.rule, tuple(frozenset(Counter(p.context).items()) for p in prems), prems


def _reference_moves(s, seq, contr_left):
    """Every applicable move, less repeats of (rule, premise multisets)."""
    out, seen = [], set()
    for head in _every_move(len(seq.context), contr_left):
        try:
            rule, multisets, prems = _premise_multisets(s, seq, head)
        except CheckError:
            continue
        if (rule, multisets) not in seen:
            seen.add((rule, multisets))
            out.append((rule, multisets, prems))
    return out


def _move_contexts():
    """Selftest draws and criterion 4's encoding contexts, each with the
    premises one move away, where contraction makes equal formulas."""
    rng = random.Random(5)
    roots = []
    for _ in range(200):
        s = random_signature(rng)
        roots.append((s, random_context(rng, s)))
    enc = encoding_signature()
    while len(roots) < 320:
        roots.append((enc, random_context(rng, enc, atoms=("__ra", "__rb", "q0", "q1"))))
    for s, ctx in roots:
        table = intern_table(*ctx)
        seen = {ctx}
        yield s, table, Sequent(ctx)
        for _rule, _multisets, prems in _reference_moves(s, Sequent(ctx), 1):
            for prem in prems:
                if prem.context and prem.context not in seen and len(seen) < 12:
                    seen.add(prem.context)
                    yield s, table, prem


def test_oracle_moves_are_every_move_less_repeated_premises():
    contexts = repeats = 0
    for s, table, seq in _move_contexts():
        contexts += 1
        for contr_left in (0, 1):
            expected = [(r, m) for r, m, _ in _reference_moves(s, seq, contr_left)]
            moves = list(_moves(s, table, seq.context, contr_left))
            got = [_premise_multisets(s, seq, head)[:2] for head, _cost, _plans in moves]
            assert got == expected, print_sequent(seq)
            # the oracle lays out its moves without validating them again
            for head, _cost, plans in moves:
                assert plans == premise_plans(s, seq, head), (print_sequent(seq), head)
        repeats += len(set(seq.context)) < len(seq.context)
    assert contexts >= 300 and repeats >= 50


def _contraction_contexts(count):
    """``?inf ~x, ?inf ~y`` and a tensor/plus/with tree of 2-4 atoms over x
    and y, sometimes with a bounded ``?u ~x`` or ``?u ~y``, shuffled: a tree
    that uses an atom twice needs its ``?inf`` contracted."""

    def tree(rng, leaves):
        if leaves == 1:
            return Atom(rng.choice("xy"))
        k = rng.randint(1, leaves - 1)
        return rng.choice((Tensor, Plus, With))(tree(rng, k), tree(rng, leaves - k))

    rng = random.Random(15)
    for _ in range(count):
        c = [Qm("inf", NegAtom("x")), Qm("inf", NegAtom("y")), tree(rng, rng.randint(2, 4))]
        if rng.random() < 0.4:
            c.append(Qm("u", NegAtom(rng.choice("xy"))))
        rng.shuffle(c)
        yield tuple(c)


def test_oracle_answers_when_contraction_is_needed():
    # the answers are pinned, and none repeats a context along a branch:
    # the contraction tiers alone keep every answer cycle-free
    s = parse_signature("labels: u inf\nunbounded: inf\norder: u <= inf")
    lines = []
    contracted = 0
    for c in _contraction_contexts(50):
        goal = Sequent(c)
        proof = search_unfocused(s, goal, max_rules=16, max_contractions=3)
        lines.append("none" if proof is None else print_unfocused_proof(proof))
        if proof is None:
            continue
        contracted += rule_counts(proof)[CONTR] > 0
        table = intern_table(*c)
        keys, parents = [], []
        for _node, seq, _plans, parent in checked_nodes(s, premise_plans, goal, proof):
            key = context_key(table, seq.context)
            up = parent
            while up >= 0:
                assert keys[up] != key, print_sequent(goal)
                up = parents[up]
            keys.append(key)
            parents.append(parent)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert sum(line != "none" for line in lines) == 45
    assert contracted == 14
    assert digest == "6c46bd2fde06759aabbd13d3d6eae8759fbcdaeba582e622752e7067c9c91573"
