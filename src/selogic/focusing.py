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
from operator import is_

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
from .signatures import Signature, is_unbounded, leq
from . import unfocused as uf
from .unfocused import NO_FOCUS, Occurrence, Plan, UProof, _fail, materialize, validate_labels

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


@dataclass(frozen=True, slots=True)
class FProof:
    """One node of a focused certificate.

    ``principal`` addresses the context for decide flavours, finit and the
    shared negative rules; rules that decompose the focus leave it unset.
    ``kept`` lists retained positions for fbang and copied-to-both positions
    for ftensor; ``split`` lists ftensor's only-left positions.
    """

    rule: str
    principal: int | None = None
    split: tuple[int, ...] | None = None
    kept: tuple[int, ...] | None = None
    premises: tuple["FProof", ...] = ()


#: The negative connectives other than negated atoms and ``?``: the ones the
#: unfocused phase decomposes.  Every other formula type is neutral.
ASYNC = frozenset({Par, Bot, With, Top})


def is_neutral_formula(f: Formula) -> bool:
    return type(f) not in ASYNC


def is_neutral(ctx: Context) -> bool:
    """No negative non-atom, non-question-marked formula remains."""
    return ASYNC.isdisjoint(map(type, ctx))


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

    def principal() -> Formula:
        if p is None or not 0 <= p < n:
            _fail(Reason.CONTEXT_MISMATCH, f"position {p} out of range for context of {n}")
        return ctx[p]

    def require_no_focus():
        if focus is not None:
            _fail(Reason.CONTEXT_MISMATCH, f"{rule} applies only without a focus")

    def require_focus() -> Formula:
        if focus is None:
            _fail(Reason.CONTEXT_MISMATCH, f"{rule} decomposes the focus, but nothing is focused")
        return focus

    def bystander_unbounded(indices, context_of: str):
        for i in indices:
            g = ctx[i]
            if not (isinstance(g, Qm) and is_unbounded(sig, g.label)):
                _fail(
                    Reason.LINGERING_LINEAR,
                    f"{context_of} would discard a formula that is not an "
                    "unbounded question-marked formula",
                )

    whole = (("run", 0, n),)

    match rule:
        case "decide" | "ldecide" | "udecide":
            require_no_focus()
            if not is_neutral(ctx):
                _fail(Reason.NOT_NEUTRAL, "decide requires a neutral context")
            f = principal()
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
            f = require_focus()
            if polarity(f) is not Polarity.NEGATIVE:
                _fail(Reason.BLUR_ON_POSITIVE, "blur releases only a negative focus")
            return [((*whole, ("focus",)), NO_FOCUS)]
        case "finit":
            f = require_focus()
            if not isinstance(f, Atom):
                _fail(Reason.CONTEXT_MISMATCH, "finit needs an atom under focus")
            g = principal()
            if not (isinstance(g, NegAtom) and g.name == f.name):
                _fail(Reason.CONTEXT_MISMATCH, "finit needs the focused atom's negation")
            bystander_unbounded((i for i in range(n) if i != p), "finit")
            return []
        case "f1":
            f = require_focus()
            if not isinstance(f, One):
                _fail(Reason.CONTEXT_MISMATCH, "f1 needs the unit under focus")
            bystander_unbounded(range(n), "f1")
            return []
        case "fplus1" | "fplus2":
            f = require_focus()
            if not isinstance(f, Plus):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not a plus")
            return [(whole, (("fpart", 0 if rule == "fplus1" else 1),))]
        case "ftensor":
            f = require_focus()
            if not isinstance(f, Tensor):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not a tensor")
            if node.kept is None or node.split is None:
                _fail(Reason.CONTEXT_MISMATCH, "ftensor needs kept and left position lists")
            kept, split = set(node.kept), set(node.split)
            if len(kept) != len(node.kept) or len(split) != len(node.split):
                _fail(Reason.CONTEXT_MISMATCH, "ftensor position lists repeat a position")
            if not all(0 <= i < n for i in kept | split):
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
            f = require_focus()
            if not isinstance(f, Bang):
                _fail(Reason.CONTEXT_MISMATCH, "focus is not banged")
            if node.kept is None:
                _fail(Reason.CONTEXT_MISMATCH, "fbang needs a kept position list")
            kept = set(node.kept)
            if len(kept) != len(node.kept) or not all(0 <= i < n for i in kept):
                _fail(Reason.CONTEXT_MISMATCH, "fbang kept positions out of range")
            for i in kept:
                g = ctx[i]
                if not (isinstance(g, Qm) and leq(sig, f.label, g.label)):
                    _fail(
                        Reason.PROMOTION_BLOCKED,
                        f"promotion of !{f.label} can keep only question-marked formulas "
                        f"at labels above {f.label!r}",
                    )
            bystander_unbounded((i for i in range(n) if i not in kept), "fbang")
            return [((("pick", tuple(sorted(kept))), ("fpart", 0)), NO_FOCUS)]
        case "par" | "bot" | "with" | "top":
            require_no_focus()
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
# an :class:`~selogic.unfocused.Occurrence`: ``tags`` holds them in the
# focused sequent's layout and ``slots`` in the unfocused context's order.
# The focused node's plans move ``tags`` and the emitted unfocused rules'
# plans move ``slots``, through the same materializer as the formulas, so
# both name the same occurrences with no renumbering.  udecide is the one
# rule that makes a new occurrence, because its focus copies a formula that
# stays.
#
# One pass of the checking walk visits the focused nodes in pre-order with
# their sequents and plans.  At each node :func:`_defocus` emits a chain of
# unfocused rule heads, the last of which takes the translated premises,
# and the (unfocused sequent, slots, tags) state of each premise; those
# states sit on a stack that the walk pops in the same order.  The
# unfocused tree is then assembled bottom-up in reverse pre-order, so
# nothing recurses.

#: The unfocused rule of a focused node that acts on one position, where
#: the two differ; par, bot, with and top keep their names.
_ONE_POSITION = {LDECIDE: uf.QM, FPLUS1: uf.PLUS1, FPLUS2: uf.PLUS2}


def defocus(proof: FProof, sig: Signature, goal: FSequent) -> UProof:
    """Translate a checkable focused certificate into an unfocused one.

    The underlying unfocused sequent is the goal context with the focus, if
    any, appended.  Decides vanish or become contraction/dereliction pairs,
    and the weakenings folded into finit/f1/fbang/ftensor become explicit
    weakening chains.  The focused certificate is checked on the way;
    a rejected one raises :class:`CheckError`.
    """
    tags = FSequent(tuple(Occurrence() for _ in goal.context))
    u, slots = FSequent(goal.context), tags
    if goal.focus is not None:
        tags = FSequent(tags.context, Occurrence())
        u, slots = FSequent(u.context + (goal.focus,)), FSequent(tags.context + (tags.focus,))
    states = [(u, slots, tags)]
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
    u: FSequent,
    slots: FSequent,
    tags: FSequent,
) -> tuple[list[UProof], list[tuple[FSequent, FSequent, FSequent]]]:
    """Translate one focused node: its unfocused heads and premise states.

    An empty chain passes the single premise's translation through.
    """
    formula_of = dict(zip(tags.context, fseq.context))
    if tags.focus is not None:
        formula_of[tags.focus] = fseq.focus
    assert len(formula_of) == len(slots.context) and all(
        map(is_, u.context, map(formula_of.__getitem__, slots.context))
    )

    rule = node.rule
    premise_tags = [materialize(plan, tags) for plan in plans]

    def emit(head: UProof, u: FSequent, slots: FSequent) -> list:
        """``head``'s premises, each with its slots and the focused tags."""
        return [
            (materialize(plan, u), materialize(plan, slots), t)
            for plan, t in zip(uf.premise_plans(sig, u, head), premise_tags)
        ]

    match rule:
        case "decide" | "blur":
            return [], [(u, slots, premise_tags[0])]
        case "udecide":
            # contraction then dereliction put the body right after the
            # formula; a fresh occurrence, since the formula stays to be
            # decided again
            i = node.principal
            p = slots.context.index(tags.context[i])
            fresh = Occurrence()
            plan = ((("run", 0, p + 1), ("focus",), ("run", p + 1, len(u.context))), NO_FOCUS)
            return [UProof(uf.CONTR, principal=p), UProof(uf.QM, principal=p + 1)], [(
                materialize(plan, FSequent(u.context, fseq.context[i].body)),
                materialize(plan, FSequent(slots.context, fresh)),
                FSequent(tags.context, fresh),
            )]
        case "finit" | "f1" | "fbang":
            keep = [tags.focus]
            if rule == FINIT:
                keep.append(tags.context[node.principal])
            elif rule == FBANG:
                keep.extend(map(tags.context.__getitem__, node.kept))
            # weaken away every other slot, highest position first
            kept = sorted(map(slots.context.index, keep))
            gone = sorted(set(range(len(slots.context))).difference(kept), reverse=True)
            chain = [UProof(uf.WEAK, principal=p) for p in gone]
            plan = ((("pick", tuple(kept)),), NO_FOCUS)
            u, slots = materialize(plan, u), materialize(plan, slots)
            if rule == FONE:
                return chain + [UProof(uf.ONE_RULE)], []
            if rule == FINIT:
                return chain + [UProof(uf.INIT, pair=tuple(map(slots.context.index, keep)))], []
            head = UProof(uf.BANG, principal=slots.context.index(tags.focus))
            return chain + [head], emit(head, u, slots)
        case "ftensor":
            # one explicit contraction per copied formula, highest position
            # first; each original stays left of its copy and goes left
            copied = sorted(slots.context.index(tags.context[i]) for i in node.kept)
            segments, lo = [], 0
            for p in copied:
                segments += [("run", lo, p + 1), ("copy", p)]
                lo = p + 1
            segments.append(("run", lo, len(u.context)))
            plan = (tuple(segments), NO_FOCUS)
            u, slots = materialize(plan, u), materialize(plan, slots)
            left = map(tags.context.__getitem__, (*node.kept, *node.split))
            head = UProof(
                uf.TENSOR,
                principal=slots.context.index(tags.focus),
                split=tuple(sorted(map(slots.context.index, left))),
            )
            contractions = [UProof(uf.CONTR, principal=p) for p in reversed(copied)]
            return contractions + [head], emit(head, u, slots)
        case _:
            at = tags.focus if rule in (FPLUS1, FPLUS2) else tags.context[node.principal]
            head = UProof(_ONE_POSITION.get(rule, rule), principal=slots.context.index(at))
            return [head], emit(head, u, slots)
