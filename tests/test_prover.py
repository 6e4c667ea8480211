import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from selogic.corpus import load_corpus
from selogic.certificates import print_focused_proof
from selogic.focusing import FSequent, check_focused, defocus
from selogic.generators import random_context, random_signature
from selogic.minsky import Halted, run
from selogic.formulas import Sequent
from selogic.parsing import parse_formula, parse_sequent, print_sequent
from selogic.prover import Exhausted, Proved, prove_focused
from selogic.reduction import encode_halting
from selogic.unfocused import check_unfocused, tensor_splits

# max_decides per corpus goal: trace length plus the register sum at the
# halt step plus three, a bound the canonical certificates stay inside
HALTING_BUDGETS = {
    "halt_only": 4,
    "incra_halt": 6,
    "incrb_halt": 6,
    "gated_zero": 5,
    "drain_a": 8,
    "drain_b": 8,
    "transfer_ab": 11,
}


def fgoal(text):
    return FSequent(parse_sequent(text).context)


def test_tiny_sequents(sig):
    out = prove_focused(sig, fgoal("|- x, ~x"), max_decides=1)
    assert isinstance(out, Proved)
    check_focused(sig, fgoal("|- x, ~x"), out.proof)

    out = prove_focused(sig, fgoal("|- x, ~y"), max_decides=4)
    assert isinstance(out, Exhausted)
    assert out.complete


def test_a_decide_that_cannot_close_is_not_tried(sig):
    # q has no ~q to close against, so no decide is left and the first
    # round already fails without a budget cutoff
    out = prove_focused(sig, fgoal("|- ?inf (q * ~r), ~s"), max_decides=4)
    assert isinstance(out, Exhausted) and out.complete
    assert out.stats.rounds == 1 and out.stats.filtered > 0


def test_exhausted_complete_means_no_budget_will_help(sig):
    out = prove_focused(sig, fgoal("|- x, x"), max_decides=2)
    assert isinstance(out, Exhausted) and out.complete
    again = prove_focused(sig, fgoal("|- x, x"), max_decides=9)
    assert isinstance(again, Exhausted) and again.complete


def test_determinism(sig):
    goal = fgoal("|- (x * (y + 1)), ~x, ?inf ~y")
    a = prove_focused(sig, goal, max_decides=4)
    b = prove_focused(sig, goal, max_decides=4)
    assert isinstance(a, Proved) and isinstance(b, Proved)
    assert a.proof == b.proof


def test_budget_monotonicity(sig):
    goal = fgoal("|- (x * (y + 1)), ~x, ?inf ~y")
    small = prove_focused(sig, goal, max_decides=4)
    big = prove_focused(sig, goal, max_decides=9)
    assert isinstance(small, Proved) and isinstance(big, Proved)
    # iterative deepening revisits the same rounds, so the found proof agrees
    assert small.proof == big.proof


def test_node_cap_reports_incompleteness(sig):
    goal = fgoal("|- (x * (y + 1)), ~x, ?inf ~y")
    out = prove_focused(sig, goal, max_decides=6, max_nodes=3)
    assert isinstance(out, Exhausted)
    assert out.hit_node_cap and not out.complete


def test_search_counters_repeat_exactly(sig):
    goal = fgoal("|- ?inf ~x, ?u ~y, ?u ~y, (x * (y * y)), ~x")
    a = prove_focused(sig, goal, max_decides=5)
    b = prove_focused(sig, goal, max_decides=5)
    assert a.stats == b.stats
    assert a.stats.splits > 0 and a.stats.memo_hits > 0
    without = prove_focused(sig, goal, max_decides=5, use_memo=False)
    assert without.stats.memo_hits == 0
    assert without.stats.splits >= a.stats.splits


def test_tensor_splits_one_per_multiset():
    # positions 1, 4, 6 hold equal formulas (class 7); the others are distinct
    rest = [1, 2, 4, 5, 6, 9]
    classes = [7, 0, 7, 1, 7, 2]
    splits = tensor_splits(rest, classes)
    k, m = 3, 3
    assert len(splits) == (k + 1) * 2**m
    masks = [sum(1 << rest.index(i) for i in split) for split in splits]
    assert masks == sorted(masks) and len(set(masks)) == len(masks)
    equal = [1, 4, 6]
    for split in splits:
        chosen = [i for i in equal if i in split]
        assert chosen == equal[: len(chosen)]
    # every multiset of left formulas occurs: each subset of the distinct
    # positions, with each count of equal ones
    distinct = [2, 5, 9]
    shapes = {(len(set(s) & set(equal)), tuple(i for i in s if i in distinct)) for s in splits}
    assert shapes == {
        (j, c) for j in range(k + 1) for r in range(m + 1) for c in combinations(distinct, r)
    }


def test_tensor_splits_without_duplicates_is_every_subset():
    rest = [0, 3, 4]
    splits = tensor_splits(rest, [5, 1, 3])
    assert splits == [tuple(i for b, i in enumerate(rest) if mask >> b & 1) for mask in range(8)]


def test_memo_does_not_change_the_verdict(sig):
    for text in ("|- x, ~x", "|- ?inf ~x, (x * x)", "|- !u x, ~x"):
        goal = fgoal(text)
        with_memo = prove_focused(sig, goal, max_decides=5)
        without = prove_focused(sig, goal, max_decides=5, use_memo=False)
        assert type(with_memo) is type(without)
        if isinstance(with_memo, Proved):
            assert with_memo.proof == without.proof


@pytest.mark.parametrize("name,budget", sorted(HALTING_BUDGETS.items()))
def test_halting_corpus_goals_are_proved(name, budget):
    m, init = load_corpus(name)
    bundle = encode_halting(m, init)
    out = prove_focused(bundle.signature, FSequent(bundle.goal), max_decides=budget)
    assert isinstance(out, Proved), name
    check_focused(bundle.signature, FSequent(bundle.goal), out.proof)
    # the cap bounds decides per branch, not in the whole tree
    assert out.stats.deepest_decides <= budget


@pytest.mark.parametrize("name", ["loop", "gated_one"])
def test_diverging_goals_exhaust_within_the_cap(name):
    m, init = load_corpus(name)
    bundle = encode_halting(m, init)
    out = prove_focused(bundle.signature, FSequent(bundle.goal), max_decides=12)
    assert isinstance(out, Exhausted), name
    assert not out.hit_node_cap


def test_stuck_goal_is_definitively_unprovable():
    m, init = load_corpus("stuck")
    bundle = encode_halting(m, init)
    out = prove_focused(bundle.signature, FSequent(bundle.goal), max_decides=8)
    assert isinstance(out, Exhausted)
    assert out.complete


def test_already_halted_goal_is_definitively_unprovable():
    # the run halts with an empty trace, yet the goal has no proof: the
    # encoding can only finish by firing a halt entry at least once
    m, init = load_corpus("already_halted")
    bundle = encode_halting(m, init)
    assert run(m, init, max_steps=10) == Halted(())
    out = prove_focused(bundle.signature, FSequent(bundle.goal), max_decides=8)
    assert isinstance(out, Exhausted)
    assert out.complete


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_proofs_always_check(seed):
    rng = random.Random(seed)
    s = random_signature(rng)
    goal = FSequent(random_context(rng, s))
    out = prove_focused(s, goal, max_decides=6, max_nodes=60_000)
    if isinstance(out, Proved):
        check_focused(s, goal, out.proof)
        assert out.stats.deepest_decides <= 6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_duplicated_entries_prove_alike_with_and_without_memo(seed):
    rng = random.Random(seed)
    s = random_signature(rng)
    ctx = list(random_context(rng, s))
    for _ in range(rng.randint(1, 3)):
        ctx.insert(rng.randint(0, len(ctx)), rng.choice(ctx))
    goal = FSequent(tuple(ctx))
    with_memo = prove_focused(s, goal, max_decides=4, max_nodes=20_000)
    without = prove_focused(s, goal, max_decides=4, max_nodes=20_000, use_memo=False)
    if isinstance(without, Exhausted) and without.hit_node_cap:
        return  # the memo-free search ran out of nodes first; nothing to compare
    assert type(with_memo) is type(without)
    if isinstance(with_memo, Proved):
        assert with_memo.proof == without.proof
        check_focused(s, goal, with_memo.proof)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memo_keeps_the_answer_and_never_adds_rounds(seed):
    # Failures that met no budget cutoff hold at every budget, so later
    # rounds reuse them.  Exact round parity with the memo-free search does
    # not hold, whether or not complete failures are kept: the memo can end
    # an exhausted search a round earlier (8 of 1 464 draws at 4 decides).
    # It never ends one later, and never changes the verdict or the proof.
    rng = random.Random(seed)
    s = random_signature(rng)
    ctx = list(random_context(rng, s))
    for _ in range(rng.randint(1, 3)):
        ctx.insert(rng.randint(0, len(ctx)), rng.choice(ctx))
    goal = FSequent(tuple(ctx))
    with_memo = prove_focused(s, goal, max_decides=6, max_nodes=20_000)
    without = prove_focused(s, goal, max_decides=6, max_nodes=20_000, use_memo=False)
    if isinstance(without, Exhausted) and without.hit_node_cap:
        return  # the memo-free search ran out of nodes first; nothing to compare
    assert type(with_memo) is type(without)
    assert with_memo.stats.rounds <= without.stats.rounds
    if isinstance(with_memo, Proved):
        assert print_focused_proof(with_memo.proof) == print_focused_proof(without.proof)
    else:
        assert with_memo.complete or not without.complete


def test_equal_formulas_as_distinct_objects_prove_alike():
    m, init = load_corpus("drain_a")
    bundle = encode_halting(m, dataclasses.replace(init, a=2))
    shared = bundle.goal
    copied = parse_sequent(print_sequent(Sequent(shared))).context
    assert copied == shared
    tokens = [i for i, f in enumerate(copied) if copied.count(f) > 1]
    assert tokens and len({id(copied[i]) for i in tokens}) == len(tokens)
    a = prove_focused(bundle.signature, FSequent(shared), max_decides=7)
    b = prove_focused(bundle.signature, FSequent(copied), max_decides=7)
    assert isinstance(a, Proved) and isinstance(b, Proved)
    assert a.proof == b.proof and a.stats == b.stats


def test_drain_a_at_three_stays_under_its_node_count():
    # splitting by multiplicity cut this from 13 788 nodes to 10 257, lazy
    # tensor splitting to 2 412, relevance-filtered decides to 751, and
    # keeping complete failures across rounds to 494
    m, init = load_corpus("drain_a")
    assert init.a == 3
    bundle = encode_halting(m, init)
    out = prove_focused(bundle.signature, FSequent(bundle.goal), max_decides=8)
    assert isinstance(out, Proved)
    assert out.stats.nodes <= 494
    assert out.stats.round_nodes == [1, 16, 36, 79, 122, 115, 69, 56]
    assert sum(out.stats.round_nodes) == out.stats.nodes
    again = prove_focused(bundle.signature, FSequent(bundle.goal), max_decides=8)
    assert again.stats.filtered == out.stats.filtered > 0


def test_drain_a_at_twenty_is_proved_within_the_default_node_cap():
    m, init = load_corpus("drain_a")
    bundle = encode_halting(m, dataclasses.replace(init, a=20))
    goal = FSequent(bundle.goal)
    out = prove_focused(bundle.signature, goal, max_decides=25)
    assert isinstance(out, Proved)
    check_focused(bundle.signature, goal, out.proof)
    assert out.stats.rounds == 25
    assert out.stats.nodes <= 82_111


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_shuffled_context_proves_alike(seed):
    rng = random.Random(seed)
    s = random_signature(rng)
    ctx = list(random_context(rng, s))
    shuffled = ctx[:]
    rng.shuffle(shuffled)
    a = prove_focused(s, FSequent(tuple(ctx)), max_decides=5, max_nodes=20_000)
    b = prove_focused(s, FSequent(tuple(shuffled)), max_decides=5, max_nodes=20_000)
    if any(isinstance(out, Exhausted) and out.hit_node_cap for out in (a, b)):
        return  # one order ran out of nodes first; nothing to compare
    assert type(a) is type(b)
    if isinstance(a, Proved):
        assert a.stats.rounds == b.stats.rounds
        check_focused(s, FSequent(tuple(shuffled)), b.proof)


# Every ftensor lists positions of its own context, which holds the copied
# ?inf formulas and only the linear ones it consumed.  In the second case
# the nested tensor is a left premise, taken apart lazily, and ~d goes to
# the outer right premise, so the inner lists are shifted against the goal.
NESTED_CASES = [
    (
        "|- ?inf ~q, ~b, ?inf (x & y), ?u ~c, ~a",
        "(a * (b * !u c))",
        """\
(ftensor (kept 0 2) (left 4)
  (finit 2)
(ftensor (kept 0 2) (left 1)
  (finit 1)
(fbang (kept 0 1 2) (ldecide 2 (blur (decide 2 (finit 2)))))))
""",
    ),
    (
        "|- ?inf ~q, ~d, ~b, ?inf (x & y), ?u ~c, ~a",
        "((a * (b * !u c)) * d)",
        """\
(ftensor (kept 0 3) (left 2 4 5)
  (ftensor (kept 0 2) (left 4)
    (finit 2)
  (ftensor (kept 0 2) (left 1)
    (finit 1)
  (fbang (kept 0 1 2) (ldecide 2 (blur (decide 2 (finit 2)))))))
(finit 1))
""",
    ),
]


@pytest.mark.parametrize("context,focus,text", NESTED_CASES, ids=["right-nested", "left-nested"])
def test_nested_tensor_lists_check_in_both_calculi(sig, context, focus, text):
    ctx = parse_sequent(context).context
    goal = FSequent(ctx, parse_formula(focus))
    out = prove_focused(sig, goal, max_decides=4)
    assert isinstance(out, Proved)
    assert print_focused_proof(out.proof) == text
    check_focused(sig, goal, out.proof)
    check_unfocused(sig, Sequent(ctx + (goal.focus,)), defocus(out.proof, sig, goal))
