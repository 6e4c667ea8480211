"""The focused sequent calculus, its checker, and defocusing.

A focused sequent carries an ordinary context plus at most one formula under
focus.  Positive principals are only ever decomposed under focus; the
negative connectives par/bot/with/top are decomposed eagerly in unfocused
mode, and a context is *neutral* — ready for a decide — once only positives,
negated atoms and question-marked formulas remain.

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
from operator import attrgetter, is_

from .errors import Reason
from .formulas import (
    Atom,
    Bang,
    Bot,
    Context,
    Formula,
    FSequent,
    NegAtom,
    One,
    Par,
    Plus,
    Polarity,
    Qm,
    Tensor,
    Top,
    With,
    polarity,
)
from .records import ProofNode, setfield
from .signatures import Signature, is_unbounded, leq
from . import unfocused as uf
from .unfocused import (
    NO_FOCUS, Occurrence, Plan, UProof, _fail, _in_range, _principal, materialize, validate_labels,
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


#: The negative connectives other than negated atoms and ``?``: the ones the
#: unfocused phase decomposes.  Every other formula type is neutral.
ASYNC = frozenset({Par, Bot, With, Top})


def is_neutral(ctx: Context) -> bool:
    """No negative non-atom, non-question-marked formula remains."""
    return ASYNC.isdisjoint(map(type, ctx))


def _require_no_focus(focus: Formula | None, rule: str) -> None:
    if focus is not None:
        _fail(Reason.CONTEXT_MISMATCH, f"{rule} applies only without a focus")


def _require_focus(focus: Formula | None, rule: str) -> Formula:
    if focus is None:
        _fail(Reason.CONTEXT_MISMATCH, f"{rule} decomposes the focus, but nothing is focused")
    return focus


def _bystanders_unbounded(sig: Signature, ctx: Context, indices, context_of: str) -> None:
    for i in indices:
        g = ctx[i]
        if not (isinstance(g, Qm) and is_unbounded(sig, g.label)):
            _fail(
                Reason.LINGERING_LINEAR,
                f"{context_of} would discard a formula that is not an "
                "unbounded question-marked formula",
            )


def fpremise_plans(sig: Signature, fseq: FSequent, node: FProof) -> list[Plan]:
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
                return [(uf.around(n, p), (("run", p, p + 1),))]
            if not isinstance(f, Qm):
                _fail(Reason.CONTEXT_MISMATCH, f"{rule} needs a question-marked formula")
            if rule == "ldecide":
                if is_unbounded(sig, f.label):
                    _fail(
                        Reason.WRONG_DECIDE_FLAVOR,
                        f"label {f.label!r} is unbounded; use udecide",
                    )
                return [(uf.around(n, p), (("part", p, 0),))]
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
            for i in kept:
                g = ctx[i]
                if not (isinstance(g, Qm) and is_unbounded(sig, g.label)):
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
            if len(kept) != len(node.kept) or not _in_range(kept, n):
                _fail(Reason.CONTEXT_MISMATCH, "fbang kept positions out of range")
            for i in kept:
                g = ctx[i]
                if not (isinstance(g, Qm) and leq(sig, f.label, g.label)):
                    _fail(
                        Reason.PROMOTION_BLOCKED,
                        f"promotion of !{f.label} can keep only question-marked formulas "
                        f"at labels above {f.label!r}",
                    )
            _bystanders_unbounded(sig, ctx, filterfalse(kept.__contains__, range(n)), "fbang")
            return [((("pick", tuple(sorted(kept))), ("fpart", 0)), NO_FOCUS)]
        case "par" | "bot" | "with" | "top":
            _require_no_focus(focus, rule)
            return uf.premise_plans(sig, fseq, UProof(rule, principal=p))
        case _:
            _fail(Reason.CONTEXT_MISMATCH, f"unknown rule tag {rule!r}")


def check_focused(sig: Signature, goal: FSequent, proof: FProof) -> None:
    """Accept or reject a focused certificate; raises :class:`CheckError`."""
    validate_labels(sig, goal.context)
    if goal.focus is not None:
        validate_labels(sig, (goal.focus,))
    for _ in checked_nodes(sig, goal, proof):
        pass


def checked_nodes(sig: Signature, goal: FSequent, proof: FProof):
    """:func:`~selogic.unfocused.checked_nodes` over the focused rules."""
    return uf.checked_nodes(sig, fpremise_plans, goal, proof)


def count_decides(proof: FProof) -> int:
    return sum(1 for node in uf.proof_nodes(proof) if node.rule in DECIDE_RULES)


# --- defocusing -------------------------------------------------------------
#
# The translation tracks where each formula of the current focused sequent
# sits in the unfocused context being proved.  Every formula occurrence is
# an :class:`~selogic.unfocused.Occurrence`, which carries its formula:
# ``tags`` holds them in the focused sequent's layout and ``slots`` in the
# unfocused context's order, so the unfocused context is read off ``slots``.
# The focused node's plans move ``tags`` and the emitted unfocused rules'
# plans move ``slots``, through the same materializer as the formulas, so
# both name the same occurrences with no renumbering.  udecide is the one
# rule that makes a new occurrence, because its focus copies a formula that
# stays.
#
# One pass of the checking walk visits the focused nodes in pre-order with
# their sequents and plans.  At each node :func:`_defocus` emits a chain of
# unfocused rule heads, the last of which takes the translated premises,
# and the (slots, tags) state of each premise; those states sit on a stack
# that the walk pops in the same order.  The unfocused tree is then
# assembled bottom-up in reverse pre-order, so nothing recurses.

#: The unfocused rule of a focused node that acts on one position, where
#: the two differ; par, bot, with and top keep their names.
_ONE_POSITION = {LDECIDE: uf.QM, FPLUS1: uf.PLUS1, FPLUS2: uf.PLUS2}

_FORMULA = attrgetter("formula")


def defocus(proof: FProof, sig: Signature, goal: FSequent) -> UProof:
    """Translate a checkable focused certificate into an unfocused one.

    The underlying unfocused sequent is the goal context with the focus, if
    any, appended.  Decides vanish or become contraction/dereliction pairs,
    and the weakenings folded into finit/f1/fbang/ftensor become explicit
    weakening chains.  The focused certificate is checked on the way;
    a rejected one raises :class:`CheckError`.
    """
    tags = FSequent(tuple(map(Occurrence, goal.context)))
    slots = tags
    if goal.focus is not None:
        tags = FSequent(tags.context, Occurrence(goal.focus))
        slots = FSequent(tags.context + (tags.focus,))
    states = [(slots, tags)]
    order = []
    for node, fseq, plans, _ in checked_nodes(sig, goal, proof):
        chain, premise_states = _defocus(sig, node, fseq, plans, *states.pop())
        order.append((chain, len(premise_states)))
        states.extend(reversed(premise_states))
    return uf.assemble(order)


def _defocus(
    sig: Signature,
    node: FProof,
    fseq: FSequent,
    plans: list[Plan],
    slots: FSequent,
    tags: FSequent,
) -> tuple[list[tuple], list[tuple[FSequent, FSequent]]]:
    """Translate one focused node: its unfocused heads, as the
    :func:`~selogic.unfocused.assemble` chain of ``(rule, principal, pair,
    split)`` tuples, and its premise states.

    An empty chain passes the single premise's translation through.
    """
    formula_of = dict(zip(tags.context, fseq.context))
    if tags.focus is not None:
        formula_of[tags.focus] = fseq.focus
    assert len(formula_of) == len(slots.context) and all(
        map(is_, map(_FORMULA, slots.context), map(formula_of.__getitem__, slots.context))
    )

    rule = node.rule
    match rule:
        case "decide" | "blur":
            return [], [(slots, materialize(plans[0], tags))]
        case "udecide":
            # contraction then dereliction put the body right after the
            # formula; a fresh occurrence, since the formula stays to be
            # decided again
            i = node.principal
            p = slots.context.index(tags.context[i])
            fresh = Occurrence(fseq.context[i].body)
            plan = ((("run", 0, p + 1), ("focus",), ("run", p + 1, len(slots.context))), NO_FOCUS)
            return [(uf.CONTR, p, None, None), (uf.QM, p + 1, None, None)], [(
                materialize(plan, FSequent(slots.context, fresh)),
                FSequent(tags.context, fresh),
            )]
        case "finit" | "f1" | "fbang":
            keep = [tags.focus]
            if rule == FINIT:
                keep.append(tags.context[node.principal])
            elif rule == FBANG:
                keep.extend(map(tags.context.__getitem__, node.kept))
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
            return chain + [head], _emit(sig, head, slots, plans, tags)
        case "ftensor":
            # one explicit contraction per copied formula, highest position
            # first; each original stays left of its copy and goes left
            chain = []
            if node.kept:
                copied = sorted(map(slots.context.index, map(tags.context.__getitem__, node.kept)))
                doubled = tuple(sorted((*range(len(slots.context)), *copied)))
                slots = materialize(((("pick", doubled),), NO_FOCUS), slots)
                chain = [(uf.CONTR, p, None, None) for p in reversed(copied)]
            left = map(tags.context.__getitem__, (*node.kept, *node.split))
            split = tuple(sorted(map(slots.context.index, left)))
            chain.append((uf.TENSOR, slots.context.index(tags.focus), None, split))
            return chain, _emit(sig, chain[-1], slots, plans, tags)
        case _:
            at = tags.focus if rule in (FPLUS1, FPLUS2) else tags.context[node.principal]
            head = (_ONE_POSITION.get(rule, rule), slots.context.index(at), None, None)
            return [head], _emit(sig, head, slots, plans, tags)


def _emit(
    sig: Signature, head: tuple, slots: FSequent, plans: list[Plan], tags: FSequent
) -> list[tuple[FSequent, FSequent]]:
    """``head``'s premises, each with its slots and the focused premise's
    tags, which ``plans`` lay out.

    ``head`` is validated on the formulas the slots stand for.
    """
    u = FSequent(tuple(map(_FORMULA, slots.context)))
    return [
        (materialize(plan, slots), materialize(fplan, tags))
        for plan, fplan in zip(uf.premise_plans(sig, u, UProof(*head)), plans)
    ]
