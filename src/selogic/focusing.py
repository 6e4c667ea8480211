"""The focused sequent calculus, its checker, and defocusing.

A focused sequent is a :class:`~selogic.formulas.Sequent` whose focus may
hold one formula.  Positive principals are only ever decomposed under
focus; the negative connectives par/bot/with/top are decomposed eagerly in
unfocused mode, and a context is *neutral* — ready for a decide — once only
positives, negated atoms and question-marked formulas remain.

Decide flavours:

    decide    moves a positive context formula into focus (and out of the context)
    ldecide   focuses the body of ?u A for bounded u, consuming the formula
    udecide   focuses the body of ?u A for unbounded u, keeping the formula

Focused leaves fold weakening in: finit and f1 allow any number of
unbounded question-marked bystanders, and fbang discards unbounded
question-marked formulas it does not keep.  There are no weakening or
contraction nodes; contraction happens implicitly at udecide and at
ftensor, whose ``kept`` positions are copied into both premises.

:func:`defocus` translates a checkable focused certificate into an
unfocused one for the same underlying sequent, making all the implicit
structural steps explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse

from .errors import Reason
from .formulas import (
    Atom,
    Bang,
    Bot,
    Context,
    Formula,
    NegAtom,
    One,
    Par,
    Plus,
    Polarity,
    Qm,
    Sequent,
    Tensor,
    Top,
    With,
    polarity,
)
from .records import ProofNode, setfield
from .signatures import Signature, check_goal, is_unbounded
from . import unfocused as uf
from .unfocused import (
    NO_FOCUS, Occurrence, Plan, UProof, _fail, _in_range, _principal, materialize,
)

DECIDE = "decide"
LDECIDE = "ldecide"
UDECIDE = "udecide"
BLUR = "blur"
FINIT = "finit"
FTENSOR = "ftensor"
FONE = "f1"
FPLUS1 = "fplus1"
FPLUS2 = "fplus2"
FBANG = "fbang"

DECIDE_RULES = (DECIDE, LDECIDE, UDECIDE)

FSequent = Sequent  # a second name, read only by bench/workloads.py


@dataclass(slots=True, eq=False, repr=False, init=False)
class FProof(ProofNode):
    """One node of a focused certificate.

    ``principal`` addresses the context for decide flavours, finit and the
    shared negative rules; rules that decompose the focus leave it unset.
    ``kept`` lists retained positions for fbang and copied-to-both positions
    for ftensor; ``split`` lists ftensor's only-left positions.
    """

    rule: str
    principal: int | None
    split: tuple[int, ...] | None
    kept: tuple[int, ...] | None
    premises: tuple[FProof, ...]

    def __init__(self, rule, principal=None, split=None, kept=None, premises=()):
        setfield(self, "rule", rule)
        setfield(self, "principal", principal)
        setfield(self, "split", split)
        setfield(self, "kept", kept)
        setfield(self, "premises", premises)


#: The negative connectives other than negated atoms and ``?``, which the
#: unfocused phase decomposes, each with the rule that does it.  Every other
#: formula type is neutral.
ASYNC = {Par: uf.PAR, Bot: uf.BOT_RULE, With: uf.WITH, Top: uf.TOP_RULE}


def is_neutral(ctx: Context) -> bool:
    """No negative non-atom, non-question-marked formula remains."""
    return ASYNC.keys().isdisjoint(map(type, ctx))


def _require_no_focus(focus: Formula | None, rule: str) -> None:
    if focus is not None:
        _fail(Reason.CONTEXT_MISMATCH, f"{rule} applies only without a focus")


def _require_focus(focus: Formula | None, rule: str) -> Formula:
    if focus is None:
        _fail(Reason.CONTEXT_MISMATCH, f"{rule} decomposes the focus, but nothing is focused")
    return focus


def copyable(sig: Signature, g: Formula) -> bool:
    """An unbounded question-marked formula: ftensor may copy it to both
    premises, and finit, f1 and fbang may discard it."""
    return isinstance(g, Qm) and is_unbounded(sig, g.label)


def _bystanders_unbounded(sig: Signature, ctx: Context, indices, context_of: str) -> None:
    if not all(copyable(sig, ctx[i]) for i in indices):
        _fail(
            Reason.LINGERING_LINEAR,
            f"{context_of} would discard a formula that is not an "
            "unbounded question-marked formula",
        )


def fpremise_plans(sig: Signature, fseq: Sequent, node: FProof) -> list[Plan]:
    """Validate one focused rule application; raises :class:`CheckError`.

    Premises are laid out in the plan form of
    :func:`~selogic.unfocused.premise_plans`; the focus-relative sources
    ``("focus",)`` and ``("fpart", k)`` occur only here.
    """
    ctx = fseq.context
    focus = fseq.focus
    n = len(ctx)
    rule = node.rule
    p = node.principal
    whole = (("run", 0, n),)

    match rule:
        case "decide" | "ldecide" | "udecide":
            _require_no_focus(focus, rule)
            if not is_neutral(ctx):
                _fail(Reason.NOT_NEUTRAL, "decide requires a neutral context")
            f = _principal(ctx, p)
            if rule == "decide":
                if polarity(f) is not Polarity.POSITIVE:
                    _fail(Reason.FOCUS_ON_NEGATIVE, "decide needs a positive formula")
                return [((("run", 0, p), ("run", p + 1, n)), (("run", p, p + 1),))]
            if not isinstance(f, Qm):
                _fail(Reason.CONTEXT_MISMATCH, f"{rule} needs a question-marked formula")
            if rule == "ldecide":
                if is_unbounded(sig, f.label):
                    _fail(
                        Reason.WRONG_DECIDE_FLAVOR,
                        f"label {f.label!r} is unbounded; use udecide",
                    )
                return [((("run", 0, p), ("run", p + 1, n)), (("part", p, 0),))]
            if not is_unbounded(sig, f.label):
                _fail(Reason.WRONG_DECIDE_FLAVOR, f"label {f.label!r} is bounded; use ldecide")
            return [(whole, (("part", p, 0),))]
        case "blur":
            f = _require_focus(focus, rule)
            if polarity(f) is not Polarity.NEGATIVE:
                _fail(Reason.BLUR_ON_POSITIVE, "blur releases only a negative focus")
            return [((*whole, ("focus",)), NO_FOCUS)]
        case "finit":
            f = _require_focus(focus, rule)
            if not isinstance(f, Atom):
                _fail(Reason.CONTEXT_MISMATCH, "finit needs an atom under focus")
            g = _principal(ctx, p)
            if not (isinstance(g, NegAtom) and g.name == f.name):
                _fail(Reason.CONTEXT_MISMATCH, "finit needs the focused atom's negation")
            _bystanders_unbounded(sig, ctx, (*range(p), *range(p + 1, n)), "finit")
            return []
        case "f1":
            f = _require_focus(focus, rule)
            if not isinstance(f, One):
                _fail(Reason.CONTEXT_MISMATCH, "f1 needs the unit under focus")
            _bystanders_unbounded(sig, ctx, range(n), "f1")
            return []
        case "fplus1" | "fplus2":
            f = _require_focus(focus, rule)
            if not isinstance(f, Plus):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not a plus")
            return [(whole, (("fpart", 0 if rule == "fplus1" else 1),))]
        case "ftensor":
            f = _require_focus(focus, rule)
            if not isinstance(f, Tensor):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not a tensor")
            if node.kept is None or node.split is None:
                _fail(Reason.CONTEXT_MISMATCH, "ftensor needs kept and left position lists")
            kept, split = set(node.kept), set(node.split)
            if len(kept) != len(node.kept) or len(split) != len(node.split):
                _fail(Reason.CONTEXT_MISMATCH, "ftensor position lists repeat a position")
            if not _in_range(kept | split, n):
                _fail(Reason.CONTEXT_MISMATCH, "ftensor positions out of range")
            if kept & split:
                _fail(Reason.CONTEXT_MISMATCH, "a position cannot be both copied and sent left")
            if not all(copyable(sig, ctx[i]) for i in kept):
                _fail(
                    Reason.COPIED_BOUNDED,
                    "only unbounded question-marked formulas can be copied to both premises",
                )
            # left: the copied and the split positions; right: all but the split
            return [
                ((("pick", tuple(sorted(kept | split))),), (("fpart", 0),)),
                (tuple(uf.runs(0, n, sorted(split))), (("fpart", 1),)),
            ]
        case "fbang":
            f = _require_focus(focus, rule)
            if not isinstance(f, Bang):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not banged")
            if node.kept is None:
                _fail(Reason.CONTEXT_MISMATCH, "fbang needs a kept position list")
            kept = set(node.kept)
            if len(kept) != len(node.kept):
                _fail(Reason.CONTEXT_MISMATCH, "fbang kept positions repeat a position")
            if not _in_range(kept, n):
                _fail(Reason.CONTEXT_MISMATCH, "fbang kept positions out of range")
            if not uf.promotes(sig, f.label, map(ctx.__getitem__, kept)):
                _fail(
                    Reason.PROMOTION_BLOCKED,
                    f"promotion of !{f.label} can keep only question-marked formulas "
                    f"at labels above {f.label!r}",
                )
            _bystanders_unbounded(sig, ctx, filterfalse(kept.__contains__, range(n)), "fbang")
            return [((("pick", tuple(sorted(kept))), ("fpart", 0)), NO_FOCUS)]
        case "par" | "bot" | "with" | "top":
            _require_no_focus(focus, rule)
            return uf.premise_plans(sig, fseq, node)
        case _:
            _fail(Reason.CONTEXT_MISMATCH, f"unknown rule tag {rule!r}")


def check_focused(sig: Signature, goal: Sequent, proof: FProof) -> None:
    """Accept or reject a focused certificate; raises :class:`CheckError`."""
    check_goal(sig, goal, focused=True)
    for _ in checked_nodes(sig, goal, proof):
        pass


def checked_nodes(sig: Signature, goal: Sequent, proof: FProof):
    """:func:`~selogic.unfocused.checked_nodes` over the focused rules."""
    return uf.checked_nodes(sig, fpremise_plans, goal, proof)


def count_decides(proof: FProof) -> int:
    return sum(1 for node in uf.proof_nodes(proof) if node.rule in DECIDE_RULES)


# --- defocusing -------------------------------------------------------------
#
# :func:`defocus` drains the walk that :func:`check_focused` drains, after
# the same goal check, so it rejects exactly what :func:`check_focused`
# rejects.  Beside the walk it keeps, for each premise, two tuples of
# :class:`~selogic.unfocused.Occurrence` stand-ins for the focused
# sequent's formula occurrences.  ``tags`` lays them out as the focused
# sequent does, context then focus, and the plans the walk yields move
# them.  ``slots`` holds distinct tags in the order of the unfocused
# context being proved, which is read off them, and the plans of the
# emitted unfocused rules move them; an occurrence makes each of its parts
# once (its parts cache), so the parts both take are the same objects.  A
# tag may lack a slot: a copyable formula is the principal of no focused
# rule but udecide, so an ftensor's copies go only to the premises whose
# subtrees hold one, the right one if neither does.  udecide is the one
# rule whose focus copies a formula that stays, to be decided again: at
# each udecide :func:`_defocus` renews the body's cache entry before the
# node's plans move the tags.
#
# At each node :func:`_defocus` emits a chain of unfocused rule heads, the
# last of which takes the translated premises, and the slots of each
# premise.  Each premise's tags and slots sit on a stack that is popped in
# the walk's order.  The unfocused tree is then assembled bottom-up in
# reverse pre-order, so nothing recurses.

#: The unfocused rule of a focused node that acts on one position, where
#: the two differ; par, bot, with and top keep their names.
_ONE_POSITION = {LDECIDE: uf.QM, FPLUS1: uf.PLUS1, FPLUS2: uf.PLUS2}


def defocus(proof: FProof, sig: Signature, goal: Sequent) -> UProof:
    """Translate a checkable focused certificate into an unfocused one.

    The underlying unfocused sequent is the goal context with the focus, if
    any, appended.  Decides vanish or become contraction/dereliction pairs,
    and the weakenings folded into finit/f1/fbang become explicit weakening
    chains; ftensor contracts a copy only when both premises udecide.  The
    goal and the focused certificate are checked on the way by
    :func:`check_focused`'s own walk; a rejected one raises the same error.
    """
    check_goal(sig, goal, focused=True)
    occurrences = tuple(map(Occurrence, goal.context))
    focus = None if goal.focus is None else Occurrence(goal.focus)
    slots = occurrences if focus is None else (*occurrences, focus)
    # the (tags, slots) of each premise still to translate
    pending = [(Sequent(occurrences, focus), Sequent(slots))]
    order, udecides = [], {}
    for node, _, plans, _ in checked_nodes(sig, goal, proof):
        tags, slots = pending.pop()
        chain, premises = _defocus(sig, node, tags, slots, udecides)
        order.append((chain, len(premises)))
        moved = [materialize(plan, tags) for plan in plans]
        pending.extend(reversed([*zip(moved, premises, strict=True)]))
    return uf.assemble(order)


def _defocus(
    sig: Signature, node: FProof, tags: Sequent, slots: Sequent, udecides: dict[int, bool]
) -> tuple[list[tuple], list[Sequent]]:
    """Translate one focused node: its unfocused heads, as the
    :func:`~selogic.unfocused.assemble` chain of ``(rule, principal, pair,
    split)`` tuples, and the slots of its premises.

    An empty chain passes the single premise's translation through;
    ``udecides`` memoises :func:`_holds_udecide`.
    """
    # the slots are distinct tags; a tag without one is a copy an ancestor
    # ftensor sent to its other premise (fpremise_plans checked it copyable)
    unmatched = set(slots.context)
    n = len(unmatched)
    unmatched.difference_update(tags.context)
    unmatched.discard(tags.focus)
    assert not unmatched and n == len(slots.context)

    rule = node.rule
    match rule:
        case "decide" | "blur":
            return [], [slots]
        case "udecide":
            # contraction then dereliction put the body right after the
            # formula; a fresh occurrence, since the formula stays to be
            # decided again, and the premise's tags take the same one
            qm = tags.context[node.principal]
            fresh = qm.parts[0] = Occurrence(qm.formula.body)
            p = slots.context.index(qm)
            ctx = slots.context
            chain = [(uf.CONTR, p, None, None), (uf.QM, p + 1, None, None)]
            return chain, [Sequent(ctx[: p + 1] + (fresh,) + ctx[p + 1 :])]
        case "finit" | "f1" | "fbang":
            keep = [tags.focus]
            if rule == FINIT:
                keep.append(tags.context[node.principal])
            elif rule == FBANG:
                keep += filter(slots.context.__contains__, map(tags.context.__getitem__, node.kept))
            # weaken away every other slot, highest position first; a kept
            # slot then sits at its rank among the kept ones
            at = [*map(slots.context.index, keep)]
            kept = sorted(at)
            gone = sorted(set(range(len(slots.context))).difference(kept), reverse=True)
            chain = [(uf.WEAK, p, None, None) for p in gone]
            if rule == FONE:
                return chain + [(uf.ONE_RULE, None, None, None)], []
            if rule == FINIT:
                return chain + [(uf.INIT, None, tuple(map(kept.index, at)), None)], []
            slots = materialize(((("pick", tuple(kept)),), NO_FOCUS), slots)
            head = (uf.BANG, kept.index(at[0]), None, None)
            return chain + [head], _emit(sig, head, slots)
        case "ftensor":
            # contract each copy, highest position first, its original going
            # left, if both premises udecide; else to the one that does, or right
            slotted = slots.context.__contains__
            copied = [*filter(slotted, map(tags.context.__getitem__, node.kept))]
            left = [*filter(slotted, map(tags.context.__getitem__, node.split))]
            chain = []
            if copied and _holds_udecide(node.premises[0], udecides):
                if _holds_udecide(node.premises[1], udecides):
                    at = sorted(map(slots.context.index, copied))
                    doubled = tuple(sorted((*range(len(slots.context)), *at)))
                    slots = materialize(((("pick", doubled),), NO_FOCUS), slots)
                    chain = [(uf.CONTR, p, None, None) for p in reversed(at)]
                left += copied
            split = tuple(sorted(map(slots.context.index, left)))
            chain.append((uf.TENSOR, slots.context.index(tags.focus), None, split))
            return chain, _emit(sig, chain[-1], slots)
        case _:
            at = tags.focus if rule in (FPLUS1, FPLUS2) else tags.context[node.principal]
            head = (_ONE_POSITION.get(rule, rule), slots.context.index(at), None, None)
            return [head], _emit(sig, head, slots)


def _emit(sig: Signature, head: tuple, slots: Sequent) -> list[Sequent]:
    """The slots of ``head``'s premises; ``head`` is validated on the
    formulas the slots carry."""
    u = Sequent([o.formula for o in slots.context])
    return [materialize(plan, slots) for plan in uf.premise_plans(sig, u, UProof(*head))]


def _holds_udecide(node: FProof, memo: dict[int, bool]) -> bool:
    """Whether ``node``'s subtree holds a udecide; ``memo`` settles each node once."""
    pending = [node]
    while pending:
        top = pending.pop()
        todo = [p for p in top.premises if id(p) not in memo]
        if top.rule != UDECIDE and todo:
            pending += top, *todo
        else:
            memo[id(top)] = top.rule == UDECIDE or any(memo[id(p)] for p in top.premises)
    return memo[id(node)]
