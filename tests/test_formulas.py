import random
from collections import Counter

from hypothesis import given, strategies as st

from selogic.formulas import (
    BOT,
    ONE,
    TOP,
    ZERO,
    Atom,
    Bang,
    NegAtom,
    Par,
    Plus,
    Polarity,
    Qm,
    Sequent,
    Tensor,
    With,
    context_key,
    dual,
    intern_table,
    labels_in,
    polarity,
)
from selogic.generators import random_formula, random_signature
from selogic.parsing import parse_formula, print_formula, print_sequent
from selogic.unfocused import ONE_RULE, UProof, check_unfocused, search_unfocused

import pytest


def test_dual_of_units():
    assert dual(ONE) == BOT
    assert dual(BOT) == ONE
    assert dual(ZERO) == TOP
    assert dual(TOP) == ZERO


def test_dual_swaps_connectives():
    f = Tensor(Atom("x"), Plus(ONE, NegAtom("y")))
    assert dual(f) == Par(NegAtom("x"), With(BOT, Atom("y")))
    assert dual(Bang("u", Atom("x"))) == Qm("u", NegAtom("x"))


@given(st.integers(0, 2**32 - 1))
def test_dual_is_an_involution(seed):
    rng = random.Random(seed)
    f = random_formula(rng, random_signature(rng))
    assert dual(dual(f)) == f


@given(st.integers(0, 2**32 - 1))
def test_dual_flips_polarity(seed):
    rng = random.Random(seed)
    f = random_formula(rng, random_signature(rng))
    assert {polarity(f), polarity(dual(f))} == {Polarity.POSITIVE, Polarity.NEGATIVE}


def test_dual_of_deep_formulas_does_not_recurse():
    f = parse_formula("!u " * 3000 + "x")
    assert print_formula(dual(f)) == "?u " * 3000 + "~x"
    assert print_formula(dual(dual(f))) == print_formula(f)
    assert dual(dual(f)) == f


@pytest.mark.parametrize(
    "text,changed,shown",
    [
        ("!u " * 3000 + "x", "!u " * 3000 + "y", ("Bang(label='u', body=", "Atom(name='x')")),
        (
            "(x * " * 3000 + "1" + ")" * 3000,
            "(x * " * 3000 + "0" + ")" * 3000,
            ("Tensor(left=Atom(name='x'), right=", "One()"),
        ),
        # only the innermost label, or the innermost connective, differs
        ("!u " * 3000 + "x", "!u " * 2999 + "!v x", ("Bang(label='u', body=", "Atom(name='x')")),
        (
            "(x * " * 3000 + "1" + ")" * 3000,
            "(x * " * 2999 + "(x | 1)" + ")" * 2999,
            ("Tensor(left=Atom(name='x'), right=", "One()"),
        ),
    ],
    ids=["bangs", "tensors", "inner-label", "inner-connective"],
)
def test_deep_formulas_compare_hash_and_print_without_recursing(text, changed, shown):
    f, g, h = parse_formula(text), parse_formula(text), parse_formula(changed)
    assert f is not g and f == g and not f != g
    assert f != h and not f == h
    assert hash(f) == hash(g)
    assert Sequent((f, h)) == Sequent((g, h)) and hash(Sequent((f, h))) == hash(Sequent((g, h)))
    spine, leaf = shown
    assert repr(f) == spine * 3000 + leaf + ")" * 3000


def test_polarity_assignments():
    positives = [Atom("x"), Tensor(ONE, ONE), ONE, Plus(ONE, ONE), ZERO, Bang("u", TOP)]
    negatives = [NegAtom("x"), Par(BOT, BOT), BOT, With(TOP, TOP), TOP, Qm("u", ONE)]
    assert all(polarity(f) is Polarity.POSITIVE for f in positives)
    assert all(polarity(f) is Polarity.NEGATIVE for f in negatives)


def test_labels_in_collects_nested():
    f = Bang("u", Par(Qm("v", Atom("x")), Qm("u", ONE)))
    assert labels_in(f) == ["u", "v", "u"]
    assert labels_in(Atom("x")) == []
    # a shared subformula is one object, visited once
    g = Qm("w", ONE)
    assert labels_in(Par(g, g)) == ["w"]
    # several roots, left to right
    assert labels_in(Bang("a", ONE), Qm("b", ONE)) == ["a", "b"]


@given(st.integers(0, 2**32 - 1))
def test_context_key_is_order_insensitive(seed):
    rng = random.Random(seed)
    s = random_signature(rng)
    ctx = tuple(random_formula(rng, s, 3) for _ in range(rng.randint(1, 5)))
    # re-parsed copies are equal formulas held by distinct objects
    copies = tuple(parse_formula(print_formula(f)) for f in ctx)
    shuffled = list(copies)
    rng.shuffle(shuffled)
    table = intern_table(*ctx, *copies)
    assert context_key(table, ctx) == context_key(table, tuple(shuffled))
    assert Counter(ctx) == Counter(shuffled)


@given(st.integers(0, 2**32 - 1))
def test_intern_table_numbers_equal_formulas_alike(seed):
    rng = random.Random(seed)
    s = random_signature(rng)
    fs = [random_formula(rng, s, 3) for _ in range(4)]
    fs += [parse_formula(print_formula(f)) for f in fs]
    table = intern_table(*fs)
    for f in fs:
        for g in fs:
            assert (table[id(f)] == table[id(g)]) == (f == g)


def test_intern_table_covers_subformulas_only():
    x = Atom("x")
    goal = Tensor(Qm("u", x), Par(Atom("x"), NegAtom("x")))
    table = intern_table(goal)
    assert table[id(x)] == table[id(goal.right.left)]
    assert table[id(goal.left)] != table[id(x)]
    # an equal formula that is not a sub-object of the goal is not numbered
    with pytest.raises(KeyError):
        context_key(table, (Atom("x"),))


def test_sequent_requires_a_formula(sig):
    # a focused premise may be empty, so the unfocused calculus checks this
    # where a goal comes in, not at construction
    empty = Sequent(())
    with pytest.raises(ValueError):
        check_unfocused(sig, empty, UProof(ONE_RULE))
    with pytest.raises(ValueError):
        search_unfocused(sig, empty, max_rules=4, max_contractions=0)
    with pytest.raises(ValueError):
        print_sequent(empty)


def test_sequent_coerces_to_tuple():
    s = Sequent([Atom("x")])
    assert s.context == (Atom("x"),)
    assert len(s) == 1
